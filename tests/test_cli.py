"""Command-line surface: exit statuses, output, and JSON replay."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fdkit
from fdkit import (
    AttributeSet,
    is_determinant,
    is_superkey,
    parse_schema,
    solve_hitting_set,
    parse_instance,
)
from fdkit.cli import build_parser, main

CHAIN = "fd B -> C\nfd A -> B\n"
STUDENT = "scheme Student(STUDENT, DEPARTMENT, SUPERVISOR)\nfd DEPARTMENT -> SUPERVISOR\n"
BCNF_OK = "scheme S(A,B)\nscheme T(B,C)\nfd A -> B\nfd B -> C\n"
ABCDE = "scheme R(A,B,C,D,E)\nfd E -> C D\n"
HITTABLE = "elements: p1 p2 p3 p4 p5 p6 p7 p8\nset: p1 p2 p3\nset: p2 p3 p4\nset: p1 p7 p8\nset: p5 p6 p7\n"
UNHITTABLE = "elements: a b\nset: a b\nset: a\nset: b\n"
WIDE14 = "fd A0 -> " + ", ".join(f"A{i}" for i in range(1, 14)) + "\n"


@pytest.fixture()
def files(tmp_path):
    out = {}
    for name, text in {
        "chain.fd": CHAIN,
        "student.fd": STUDENT,
        "bcnf_ok.fd": BCNF_OK,
        "abcde.fd": ABCDE,
        "equiv.fd": "fd A -> B\nfd B -> C\nfd A -> C\n",
        "other.fd": "fd B -> A\nuniverse A, B, C, D\n",
        "broken.fd": "scheme S(A\n",
        "hittable.hs": HITTABLE,
        "unhittable.hs": UNHITTABLE,
        "wide.fd": WIDE14,
    }.items():
        path = tmp_path / name
        path.write_text(text)
        out[name] = str(path)
    return out


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitStatusMatrix:
    def test_matrix(self, files, capsys, monkeypatch):
        # a command that wrongly falls back to stdin reads a valid schema
        # and answers, instead of failing for an unrelated reason
        monkeypatch.setattr("sys.stdin", io.StringIO(CHAIN))
        chain = files["chain.fd"]
        cases = [
            # (argv, expected exit status)
            (["closure", "--of", "A", "--schema", chain], 0),
            (["implies", "A -> C", "--schema", chain], 0),
            (["implies", "B -> A", "--schema", chain], 1),
            (["equivalent", files["equiv.fd"], "--schema", chain], 0),
            (["mincover", "--schema", chain], 0),
            (["nonredundant", "--schema", files["equiv.fd"]], 0),
            (["reduce-fds", "--schema", chain], 0),
            (["canonical", "--schema", files["abcde.fd"]], 0),
            (["keys", "--schema", chain], 0),
            (["keys", "--all", "--schema", chain], 0),
            (["keys", "--all", "--scheme", "Student", "--schema", files["student.fd"]], 0),
            (["check", "--nf", "bcnf", "--schema", files["student.fd"]], 1),
            (["check", "--nf", "bcnf", "--schema", files["bcnf_ok.fd"]], 0),
            (["check", "--nf", "3nf", "--schema", files["student.fd"]], 1),
            (["check", "--nf", "3nf", "--schema", files["bcnf_ok.fd"]], 0),
            (["decompose", "--bcnf", "--schema", files["abcde.fd"]], 0),
            (["synthesize", "--3nf", "--schema", chain], 0),
            (["synthesize", "--3nf", "--verbatim-3nf", "--schema", chain], 0),
            (["represents", chain, "--schema", files["bcnf_ok.fd"]], 0),
            (["hitting-set", files["hittable.hs"]], 0),
            (["hitting-set", files["unhittable.hs"]], 1),
            (["reduce", files["hittable.hs"]], 0),
            (["oracle", "implies", "A -> C", "--schema", chain], 0),
            (["oracle", "implies", "C -> A", "--schema", chain], 1),
            # usage and parse errors
            ([], 2),
            (["bogus"], 2),
            (["decompose", "--schema", chain], 2),
            (["synthesize", "--schema", chain], 2),
            (["implies", "no arrow here", "--schema", chain], 2),
            (["implies", "A -> Z", "--schema", chain], 2),
            (["closure", "--of", "Z", "--schema", chain], 2),
            (["check", "--nf", "bcnf", "--schema", files["broken.fd"]], 2),
            (["keys", "--scheme", "Nope", "--schema", files["student.fd"]], 2),
            (["closure", "--of", "A", "--schema", "/nonexistent/file.fd"], 2),
            (["equivalent", files["other.fd"], "--schema", chain], 2),
            (["oracle"], 2),
            # options belong to the oracle leaf, not to the oracle group
            (["oracle", "--limit", "20", "implies", "A0 -> A1", "--schema", files["wide.fd"]], 2),
            (["oracle", "--schema", chain, "--json", "implies", "A -> C"], 2),
            (["oracle", "implies", "A0 -> A1", "--schema", files["wide.fd"], "--limit", "20"], 0),
            # the representation check is exact and takes no seed
            (["represents", chain, "--schema", files["bcnf_ok.fd"], "--seed", "7"], 2),
            # limit refusals
            (["keys", "--all", "--schema", files["abcde.fd"], "--limit", "3"], 3),
            (["check", "--nf", "bcnf", "--schema", files["abcde.fd"], "--limit", "2"], 3),
            (["hitting-set", files["hittable.hs"], "--limit", "4"], 3),
            (["oracle", "implies", "A -> C", "--schema", files["abcde.fd"], "--limit", "2"], 3),
        ]
        for argv, expected in cases:
            code, _, _ = run(capsys, argv)
            assert code == expected, f"{argv}: expected {expected}, got {code}"

    def test_misplaced_oracle_option_says_where_options_go(self, files, capsys):
        argv = ["oracle", "--limit", "20", "implies", "A -> B", "--schema", files["chain.fd"]]
        assert run(capsys, argv) == (
            2, "", "fdkit: oracle: options go after 'implies', as in: oracle implies FD --schema FILE\n"
        )

    def test_true_false_output(self, files, capsys):
        code, out, _ = run(capsys, ["implies", "A -> C", "--schema", files["chain.fd"]])
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(capsys, ["implies", "B -> A", "--schema", files["chain.fd"]])
        assert (code, out.strip()) == (1, "false")

    def test_closure_output(self, files, capsys):
        _, out, _ = run(capsys, ["closure", "--of", "A", "--schema", files["chain.fd"]])
        assert out.strip() == "A B C"

    def test_closure_of_lone_attribute(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("universe A, B\n"))
        code, out, _ = run(capsys, ["closure", "--of", "A"])
        assert code == 0 and out.strip() == "A"

    def test_check_prints_the_witness(self, files, capsys):
        code, out, _ = run(
            capsys, ["check", "--nf", "bcnf", "--schema", files["student.fd"]]
        )
        assert code == 1
        assert "violates" in out
        assert "DEPARTMENT" in out

    def test_diagnostics_go_to_stderr(self, files, capsys):
        code, out, err = run(
            capsys, ["check", "--nf", "bcnf", "--schema", files["broken.fd"]]
        )
        assert code == 2
        assert out == ""
        assert "E100" in err


class TestSchemaOutputs:
    def test_decompose_output_reparses(self, files, capsys):
        code, out, _ = run(capsys, ["decompose", "--bcnf", "--schema", files["abcde.fd"]])
        assert code == 0
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        reparsed = parse_schema(body)
        assert reparsed.ok
        assert [str(s.attrs) for s in reparsed.document.schemes] == ["C D E", "A B E"]
        assert "# dependency preserving: true" in out

    def test_generated_scheme_names_do_not_repeat_a_declared_one(self, tmp_path, capsys):
        # S splits into unnamed parts at positions 2 and 3, and the
        # declared R2 already holds the default name of position 2
        path = tmp_path / "named.fd"
        path.write_text("scheme R2(A, B)\nscheme S(A, C, D)\nfd C -> D\nfd A -> B\n")
        code, out, _ = run(capsys, ["decompose", "--bcnf", "--schema", str(path)])
        assert code == 0
        schemes = [l for l in out.splitlines() if l.startswith("scheme ")]
        assert schemes == ["scheme R2(A, B)", "scheme R2_2(C, D)", "scheme R3(A, C)"]
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        assert parse_schema(body).ok
        reparsed = tmp_path / "out.fd"
        reparsed.write_text(body + "\n")
        assert run(capsys, ["check", "--nf", "bcnf", "--schema", str(reparsed)])[0] == 0
        code, out, _ = run(capsys, ["decompose", "--bcnf", "--json", "--schema", str(path)])
        names = [s["name"] for s in json.loads(out)["result"]["schemes"]]
        assert names == ["R2", "R2_2", "R3"]

    def test_synthesize_output_reparses(self, files, capsys):
        code, out, _ = run(capsys, ["synthesize", "--3nf", "--schema", files["chain.fd"]])
        assert code == 0
        body = "\n".join(l for l in out.splitlines() if not l.startswith("#"))
        assert parse_schema(body).ok

    def test_reduce_output_mentions_reserved_attributes(self, files, capsys):
        code, out, _ = run(capsys, ["reduce", files["hittable.hs"]])
        assert code == 0
        assert "__C" in out and "__D" in out

    def test_represents_verdict_lines(self, files, capsys):
        code, out, _ = run(
            capsys, ["represents", files["chain.fd"], "--schema", files["bcnf_ok.fd"]]
        )
        assert code == 0
        assert "dependency preserving: true" in out
        assert "no-counterexample-found" in out

    def test_represents_detects_failure(self, files, tmp_path, capsys):
        bad = tmp_path / "bad.fd"
        bad.write_text("scheme S(A,B)\nscheme T(C)\nfd A -> B\n")
        uni = tmp_path / "uni.fd"
        uni.write_text("universe A, B, C\nfd A -> B\nfd B -> C\n")
        code, out, _ = run(capsys, ["represents", str(uni), "--schema", str(bad)])
        assert code == 1
        assert "dependency preserving: false" in out

    def test_represents_output_is_deterministic(self, tmp_path, capsys):
        lossy = tmp_path / "lossy.fd"
        lossy.write_text("scheme R1(A,C)\nscheme R2(A,B)\nscheme R3(B,C)\n")
        uni = tmp_path / "uni.fd"
        uni.write_text("fd A, B -> C\n")
        argv = ["represents", str(uni), "--schema", str(lossy)]
        code, out, _ = run(capsys, argv)
        assert code == 1
        assert out.splitlines()[:3] == ["dependency preserving: false", "lossless: counterexample", "A,B,C"]
        assert run(capsys, argv) == (code, out, "")


class TestJson:
    def payload(self, capsys, argv):
        code, out, _ = run(capsys, argv + ["--json"])
        report = json.loads(out)
        assert report["exit_status"] == code
        return report

    def test_implies_report_replays(self, files, capsys):
        report = self.payload(capsys, ["implies", "A -> C", "--schema", files["chain.fd"]])
        assert report["command"] == "implies"
        doc = parse_schema(CHAIN).document
        fd_payload = report["result"]["fd"]
        from fdkit import FD

        fd = FD(fd_payload["lhs"], fd_payload["rhs"])
        assert doc.fds.implies(fd) == report["result"]["implied"]

    def test_check_report_replays(self, files, capsys):
        report = self.payload(capsys, ["check", "--nf", "bcnf", "--schema", files["student.fd"]])
        assert report["result"]["verdict"] == "violates"
        doc = parse_schema(STUDENT).document
        schema = doc.database_schema()
        sigma = schema.global_fds()
        for witness in report["result"]["witnesses"]:
            scheme = schema.schemes[witness["scheme_index"]]
            determinant = AttributeSet(witness["determinant"])
            assert is_determinant(scheme, sigma, determinant)
            assert not is_superkey(scheme, sigma, determinant)

    def test_closure_report_replays(self, files, capsys):
        report = self.payload(capsys, ["closure", "--of", "A", "--schema", files["chain.fd"]])
        doc = parse_schema(CHAIN).document
        assert list(doc.fds.closure(AttributeSet(report["result"]["of"])).names) == report[
            "result"
        ]["closure"]

    def test_keys_report_replays(self, files, capsys):
        report = self.payload(capsys, ["keys", "--all", "--schema", files["chain.fd"]])
        doc = parse_schema(CHAIN).document
        from fdkit import enumerate_keys

        expected = enumerate_keys(doc.universal_scheme(), doc.fds)
        got = {AttributeSet(k) for k in report["result"]["keys"]}
        assert got == expected

    def test_hitting_set_report_replays(self, files, capsys):
        report = self.payload(capsys, ["hitting-set", files["hittable.hs"]])
        instance = parse_instance(HITTABLE)
        witness = solve_hitting_set(instance)
        assert report["result"]["found"] is True
        assert AttributeSet(report["result"]["witness"]) == witness


class TestLimitsAndEnvironment:
    def test_env_limit_mirrors_flag(self, files, capsys, monkeypatch):
        monkeypatch.setenv("FDKIT_LIMIT", "3")
        code, _, err = run(capsys, ["keys", "--all", "--schema", files["abcde.fd"]])
        assert code == 3
        assert "limit" in err

    def test_flag_overrides_env(self, files, capsys, monkeypatch):
        monkeypatch.setenv("FDKIT_LIMIT", "3")
        code, _, _ = run(
            capsys, ["keys", "--all", "--schema", files["abcde.fd"], "--limit", "16"]
        )
        assert code == 0

    def test_invalid_env_limit_is_a_usage_error(self, files, capsys, monkeypatch):
        monkeypatch.setenv("FDKIT_LIMIT", "many")
        # finding one key searches nothing, yet the value is still refused
        for argv in (["keys", "--all"], ["keys"]):
            code, _, _ = run(capsys, [*argv, "--schema", files["abcde.fd"]])
            assert code == 2

    def test_negative_limit_is_a_usage_error(self, files, capsys, monkeypatch):
        # a negative limit would refuse every search, so it is refused
        # itself, as an invalid value is, whether or not the command searches
        monkeypatch.delenv("FDKIT_LIMIT", raising=False)
        for argv in (["keys", "--all"], ["keys"]):
            code, out, err = run(capsys, [*argv, "--schema", files["abcde.fd"], "--limit", "-1"])
            assert (code, out) == (2, "")
            assert "invalid --limit value: -1" in err

    def test_negative_env_limit_is_a_usage_error(self, files, capsys, monkeypatch):
        monkeypatch.setenv("FDKIT_LIMIT", "-1")
        for argv in (["keys", "--all"], ["keys"]):
            code, out, err = run(capsys, [*argv, "--schema", files["abcde.fd"]])
            assert (code, out) == (2, "")
            assert "invalid FDKIT_LIMIT value: '-1'" in err

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["keys", "--all"], "schema"),
            (["check", "--nf", "bcnf"], "schema"),
            (["check", "--nf", "3nf"], "schema"),
            (["decompose", "--bcnf"], "schema"),
            (["synthesize", "--3nf"], "schema"),
            (["oracle", "implies", "A0 -> A1"], "schema"),
            (["hitting-set"], "instance"),
        ],
        ids=["keys", "check bcnf", "check 3nf", "decompose", "synthesize", "oracle implies", "hitting-set"],
    )
    def test_default_limit_applies_with_no_flag_or_environment(
        self, tmp_path, capsys, monkeypatch, argv, kind
    ):
        monkeypatch.delenv("FDKIT_LIMIT", raising=False)
        default = fdkit.DEFAULT_LIMIT
        for n, status in ((default, 0), (default + 1, 3)):
            names = [f"A{i}" for i in range(n)]
            path = tmp_path / f"{kind}{n}"
            if kind == "schema":
                path.write_text(f"fd A0 -> {', '.join(names[1:])}\n")
                code, out, err = run(capsys, [*argv, "--schema", str(path)])
            else:
                path.write_text(f"elements: {' '.join(names)}\nset: {' '.join(names)}\n")
                code, out, err = run(capsys, [*argv, str(path)])
            assert code == status, err
            if status == 3:
                assert out == ""
                assert f"size {n} exceeds the limit of {default}" in err

    def test_synthesize_refuses_a_wide_scheme_promptly(self, tmp_path, capsys):
        wide = tmp_path / "wide40.fd"
        wide.write_text("fd A0 -> " + ", ".join(f"A{i}" for i in range(1, 40)) + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, ["synthesize", "--3nf", "--schema", str(wide)])
        assert (code, out) == (3, "")
        assert "limit of 20" in err
        assert time.perf_counter() - start < 5

    def test_stdin_is_the_default_schema_source(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(CHAIN))
        code, out, _ = run(capsys, ["implies", "A -> C"])
        assert code == 0 and out.strip() == "true"


def _run_module(module, *args):
    src = str(Path(fdkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", module, *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_module_runs_as_a_script(files):
    proc = _run_module("fdkit.cli", "closure", "--of", "A", "--schema", files["chain.fd"])
    assert (proc.returncode, proc.stdout.strip()) == (0, "A B C")


def test_package_runs_as_a_script(files):
    proc = _run_module("fdkit", "closure", "--of", "A", "--schema", files["chain.fd"])
    assert (proc.returncode, proc.stdout.strip()) == (0, "A B C")


# Each subcommand once, in its own process: a handler that uses a module
# it never imports passes in-process when another test imported it first,
# and fails here.  (argv, exit status, keys of the JSON result)
SUBCOMMANDS = [
    (["closure", "--of", "A", "--schema", "chain.fd"], 0, {"of", "closure"}),
    (["implies", "A -> C", "--schema", "chain.fd"], 0, {"fd", "implied"}),
    (["equivalent", "equiv.fd", "--schema", "chain.fd"], 0, {"equivalent"}),
    (["mincover", "--schema", "chain.fd"], 0, {"fds"}),
    (["nonredundant", "--schema", "equiv.fd"], 0, {"fds"}),
    (["reduce-fds", "--schema", "chain.fd"], 0, {"fds"}),
    (["canonical", "--schema", "abcde.fd"], 0, {"fds"}),
    (["keys", "--schema", "chain.fd"], 0, {"scheme", "key"}),
    (["check", "--nf", "bcnf", "--schema", "student.fd"], 1, {"form", "verdict", "witnesses", "schemes"}),
    (["decompose", "--bcnf", "--schema", "abcde.fd"], 0,
     {"universe", "schemes", "dependency_preserving", "lossless"}),
    (["synthesize", "--3nf", "--schema", "chain.fd"], 0,
     {"universe", "schemes", "dependency_preserving", "lossless"}),
    (["represents", "chain.fd", "--schema", "bcnf_ok.fd"], 0,
     {"dependency_preserving", "lossless", "counterexample"}),
    (["hitting-set", "hittable.hs"], 0, {"found", "witness"}),
    (["reduce", "hittable.hs"], 0, {"universe", "schemes"}),
    (["oracle", "implies", "C -> A", "--schema", "chain.fd"], 1, {"fd", "implied"}),
]


def _command(argv) -> str:
    return "oracle implies" if argv[0] == "oracle" else argv[0]


def test_every_subcommand_is_run_once():
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    names = [_command(argv) for argv, _, _ in SUBCOMMANDS]
    assert sorted(names) == sorted(set(commands) - {"oracle"} | {"oracle implies"})


@pytest.mark.parametrize(
    "argv, status, keys", SUBCOMMANDS, ids=[_command(argv) for argv, _, _ in SUBCOMMANDS]
)
def test_subcommand_in_a_fresh_process(files, argv, status, keys):
    proc = _run_module("fdkit", *[files.get(arg, arg) for arg in argv], "--json")
    assert proc.returncode == status, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["command"], report["exit_status"]) == (_command(argv), status)
    assert set(report["result"]) == keys
