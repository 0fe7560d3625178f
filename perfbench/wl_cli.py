"""Workload ``cli``: one fresh ``fdkit`` process per question.

Each question starts a new interpreter at ``fdkit.cli:entry``, the entry
point of the ``fdkit`` script, and waits for its ``--json`` report.  It
is the only workload that pays, on every question, for interpreter
start, import, argument parsing, DSL parsing, JSON rendering and the
100-sample lossless footer of ``decompose`` and ``synthesize``.  Exit
status 1 is a correct verdict wherever 1 is the expected answer; 2 and 3
count as failed questions.

Per pass (39 questions), on schema files written at set-up:

* ``closure`` and ``implies`` (true and false) on chains of 500, 1000
  and 2000 attributes; ``mincover`` on chains of 50, 100 and 150;
* ``keys --all`` and ``check --nf bcnf`` on cyclic-key schemes of width
  10, 11 and 12;
* ``check --nf 3nf``, ``decompose --bcnf`` and ``synthesize --3nf`` on a
  wide fd over 10, 11 and 12 attributes;
* ``hitting-set`` and ``reduce`` on planted solvable and unsolvable
  instances of 10 and 14 elements;
* ``oracle implies`` (true and false) on random sets over 10 and 12
  attributes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from types import SimpleNamespace

import families
import reference as ref
from harness import Question, child_env
from trace_child import SPANS_MARK

NAME = "cli"
CHILD_PROCESSES = True
HERE = os.path.dirname(os.path.abspath(__file__))
ENTRY = "from fdkit.cli import entry; entry()"
TRACE_CHILD = os.path.join(HERE, "trace_child.py")


def _schema_text(universe, fds) -> str:
    lines = ["universe " + ", ".join(universe)]
    lines += [f"fd {', '.join(l)} -> {', '.join(r)}" for l, r in fds]
    return "\n".join(lines) + "\n"


def _instance_text(spec) -> str:
    lines = ["elements: " + " ".join(spec["ground"])]
    lines += ["set: " + " ".join(s) for s in spec["subsets"]]
    return "\n".join(lines) + "\n"


def prepare(seed: int) -> dict:
    """File texts and questions as plain data: (label, argv, file name,
    check)."""
    rng = random.Random(f"cli:{seed}")
    files: dict = {}
    asks: list = []

    def add(label, argv, check):
        asks.append((label, argv, check))

    for n in (500, 1000, 2000):
        order = families.chain(rng, n)
        fds = families.chain_fds(order)
        rng.shuffle(fds)
        name = f"chain{n}.fd"
        files[name] = _schema_text(order, fds)
        i, j = sorted(rng.sample(range(n), 2))
        add("closure", ["closure", "--of", order[i], "--schema", name],
            _expect(0, lambda r, want=frozenset(order[i:]): ref.check_equal("closure", frozenset(r["closure"]), want)))
        add("implies", ["implies", f"{order[i]} -> {order[j]}", "--schema", name],
            _expect(0, lambda r: ref.check_equal("implied", r["implied"], True)))
        add("implies", ["implies", f"{order[j]} -> {order[i]}", "--schema", name],
            _expect(1, lambda r: ref.check_equal("implied", r["implied"], False)))
    for n in (50, 100, 150):
        order = families.chain(rng, n, "m")
        fds = families.chain_fds(order)
        name = f"mincover{n}.fd"
        files[name] = _schema_text(order, fds)
        add("mincover", ["mincover", "--schema", name],
            _expect(0, lambda r, s=ref.spec_fds(fds): ref.check_cover(s, _pairs(r["fds"]), nonredundant=True, closed=True)))
    for w in (10, 11, 12):
        spec = families.cyclic_keys(rng, w, block=2, tail=2 + w % 2)
        name = f"cyclic{w}.fd"
        files[name] = _schema_text(spec["attrs"], spec["fds"])
        keys = frozenset(frozenset(k) for k in spec["keys"])
        add("keys --all", ["keys", "--all", "--schema", name],
            _expect(0, lambda r, keys=keys: ref.check_equal("keys", frozenset(map(frozenset, r["keys"])), keys)))
        add("check bcnf", ["check", "--nf", "bcnf", "--schema", name],
            _expect(0, lambda r: ref.check_equal("bcnf", (r["verdict"], r["witnesses"]), ("satisfies", []))))
    for w in (10, 11, 12):
        spec = families.wide_fd(rng, 2, w - 3, 1)
        name = f"wide{w}.fd"
        files[name] = _schema_text(spec["attrs"], spec["fds"])
        add("check 3nf", ["check", "--nf", "3nf", "--schema", name], _expect(1, _check_3nf(spec)))
        add("decompose", ["decompose", "--bcnf", "--schema", name], _expect(0, _check_split(spec)))
        add("synthesize", ["synthesize", "--3nf", "--schema", name], _expect(0, _check_split(spec)))
    for n in (10, 14):
        for solvable in (True, False):
            spec = families.hitting_set(rng, n, 5, solvable)
            name = f"hs{n}{'sat' if solvable else 'unsat'}.txt"
            files[name] = _instance_text(spec)
            add("hitting-set", ["hitting-set", name], _expect(0 if solvable else 1, _check_hitting(spec)))
            add("reduce", ["reduce", name], _expect(0, _check_reduce(spec)))
    for n in (10, 12):
        universe = families.attr_names(rng, n, "o")
        fds = families.random_fds(rng, universe, n, lhs_max=3)
        name = f"oracle{n}.fd"
        files[name] = _schema_text(universe, fds)
        spec = ref.spec_fds(fds)
        for want in (True, False):
            while True:
                lhs = rng.sample(universe, 2)
                pool = sorted(ref.closure(spec, lhs) - set(lhs)) if want else sorted(set(universe) - ref.closure(spec, lhs))
                if pool:
                    break
            a = rng.choice(pool)
            add("oracle implies", ["oracle", "implies", f"{', '.join(lhs)} -> {a}", "--schema", name],
                _expect(0 if want else 1, lambda r, want=want: ref.check_equal("implied", r["implied"], want)))
    return {"dir": os.path.join(HERE, "out", f"cli-seed{seed}-{os.getpid()}"), "files": files, "asks": asks}


def _pairs(fd_dicts) -> tuple:
    return tuple((frozenset(d["lhs"]), frozenset(d["rhs"])) for d in fd_dicts)


def _expect(code: int, check):
    """Check the exit status and the JSON report, then the result."""
    def run(answer):
        status, stdout = answer
        report = json.loads(stdout)
        ref.check_equal("exit status", status, code)
        ref.check_equal("reported exit status", report["exit_status"], code)
        check(report["result"])
    return run


def _check_3nf(spec):
    fds = ref.spec_fds(spec["fds"])
    primes = set(spec["x"]) | set(spec["z"])

    def check(r):
        ref.check_equal("verdict", r["verdict"], "violates")
        if not r["witnesses"]:
            raise ref.Mismatch("violation reported without a witness")
        for w in r["witnesses"]:
            ref.check_3nf_witness(fds, spec["attrs"], primes, SimpleNamespace(**w))
    return check


def _check_split(spec):
    def check(r):
        ref.check_split_schema(spec["x"], spec["y"], spec["z"],
                               [(frozenset(s["attrs"]), _pairs(s["fds"])) for s in r["schemes"]])
        ref.check_equal("dependency preserving", r["dependency_preserving"], True)
        ref.check_equal("lossless", r["lossless"], "no-counterexample-found")
    return check


def _check_hitting(spec):
    def check(r):
        ref.check_equal("found", r["found"], spec["solvable"])
        if spec["solvable"]:
            ref.check_exact_hitting_set(spec["subsets"], r["witness"])
    return check


def _check_reduce(spec):
    want = [(attrs, frozenset(fds)) for attrs, fds in ref.reduction(spec["ground"], spec["subsets"])]

    def check(r):
        got = [(frozenset(s["attrs"]), frozenset(_pairs(s["fds"]))) for s in r["schemes"]]
        ref.check_equal("reduction schemes", got, want)
    return check


def build(plan: dict) -> str:
    """Write the schema and instance files."""
    os.makedirs(plan["dir"], exist_ok=True)
    for name, text in plan["files"].items():
        with open(os.path.join(plan["dir"], name), "w", encoding="utf-8") as handle:
            handle.write(text)
    return plan["dir"]


def _launch(argv, cwd, env, tracer):
    if tracer is None:
        command = [sys.executable, "-c", ENTRY, *argv, "--json"]
    else:
        command = [sys.executable, TRACE_CHILD, *argv, "--json"]
    done = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    if tracer is not None:
        marked = [l for l in done.stderr.splitlines() if l.startswith(SPANS_MARK)]
        if marked:
            tracer.merge(json.loads(marked[-1][len(SPANS_MARK):]), tracer.qid)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"exit status {done.returncode}: {done.stderr.strip()[-300:]}")
    return done.returncode, done.stdout


def questions(plan: dict, workdir: str, tracer=None) -> list:
    env = child_env()
    return [
        Question(label, lambda argv=argv: _launch(argv, workdir, env, tracer), check)
        for label, argv, check in plan["asks"]
    ]


def cleanup(plan: dict) -> None:
    shutil.rmtree(plan["dir"], ignore_errors=True)
