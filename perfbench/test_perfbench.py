"""Tests of the benchmark itself, kept out of the library's suite.

Run from the root of the repository::

    python3 -m pytest -q perfbench/test_perfbench.py

They show that each reference check rejects a deliberately wrong answer,
that the tracer leaves fdkit as it found it, and that one pass of every
workload runs and checks clean.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (HERE, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import fdkit  # noqa: E402
import fdkit.cli  # noqa: E402

import reference as ref  # noqa: E402
import wl_cli  # noqa: E402
import wl_kernel  # noqa: E402
import wl_lab  # noqa: E402
import wl_lattice  # noqa: E402
from harness import Question, run_passes  # noqa: E402
from tracer import Tracer, layer_metrics, summarize  # noqa: E402

WORKLOADS = (wl_kernel, wl_lattice, wl_lab, wl_cli)


def fds(*texts):
    out = []
    for text in texts:
        lhs, rhs = text.split("->")
        out.append((frozenset(lhs.split()), frozenset(rhs.split())))
    return tuple(out)


# --- reference checks reject wrong answers ---------------------------------

def test_closure_is_a_fixpoint_in_any_order():
    sigma = fds("C -> D", "B -> C", "A -> B")
    assert ref.closure(sigma, {"A"}) == {"A", "B", "C", "D"}
    assert ref.closure(sigma, {"C"}) == {"C", "D"}
    assert ref.closure((), {"A"}) == {"A"}


@pytest.mark.parametrize(
    "cover, props",
    [
        (fds("A -> B"), {}),  # loses B -> C
        (fds("A -> B", "B -> C", "C -> A"), {}),  # implies more than the input
        (fds("A -> B", "B -> C", "A -> C"), {"nonredundant": True}),
        (fds("A -> B", "B -> C"), {"closed": True}),
        (fds("A X -> B", "B -> C"), {"reduced": True}),
        (fds("A -> B C", "B -> C"), {"singleton": True}),
    ],
)
def test_check_cover_rejects(cover, props):
    sigma = fds("A -> B", "B -> C", "A X -> B")
    with pytest.raises(ref.Mismatch):
        ref.check_cover(sigma, cover, **props)


def test_check_cover_accepts_a_minimum_cover():
    sigma = fds("A -> B", "B -> C")
    ref.check_cover(sigma, fds("A -> A B C", "B -> B C"), nonredundant=True, closed=True)


def _violation(determinant, dependents):
    return fdkit.Violation(0, fdkit.AttributeSet(determinant), fdkit.AttributeSet(dependents), "x")


def test_bcnf_witness_replay():
    sigma = fds("A -> B")
    ref.check_bcnf_witness(sigma, "A B C".split(), _violation("A", "B"))
    with pytest.raises(ref.Mismatch):  # C determines nothing
        ref.check_bcnf_witness(sigma, "A B C".split(), _violation("C", "A"))
    with pytest.raises(ref.Mismatch):  # A is a superkey of A B
        ref.check_bcnf_witness(sigma, "A B".split(), _violation("A", "B"))


def test_3nf_witness_replay():
    sigma = fds("A -> B")
    ref.check_3nf_witness(sigma, "A B C".split(), {"A", "C"}, _violation("A", "B"))
    with pytest.raises(ref.Mismatch):  # B reported nonprime but is declared prime
        ref.check_3nf_witness(sigma, "A B C".split(), {"A", "B", "C"}, _violation("A", "B"))
    with pytest.raises(ref.Mismatch):  # A C is a superkey
        ref.check_3nf_witness(sigma, "A B C".split(), {"A", "C"}, _violation("A C", "B"))


def test_exact_hitting_set():
    subsets = [("p", "q"), ("q", "r")]
    ref.check_exact_hitting_set(subsets, ["q"])
    with pytest.raises(ref.Mismatch):
        ref.check_exact_hitting_set(subsets, ["p", "q"])
    with pytest.raises(ref.Mismatch):
        ref.check_exact_hitting_set(subsets, ["p"])


def test_lossy_counterexample_must_satisfy_and_grow():
    sigma = fds("A -> B")
    parts = [("A", "B"), ("B", "C")]
    lossy = fdkit.Relation.from_rows("A B C", [(0, 0, 0), (1, 0, 1)])
    ref.check_lossy_counterexample(sigma, parts, lossy)
    lossless = fdkit.Relation.from_rows("A B C", [(0, 0, 0), (1, 1, 1)])
    with pytest.raises(ref.Mismatch):
        ref.check_lossy_counterexample(sigma, parts, lossless)
    violating = fdkit.Relation.from_rows("A B C", [(0, 0, 0), (0, 1, 1)])
    with pytest.raises(ref.Mismatch):
        ref.check_lossy_counterexample(sigma, parts, violating)


def test_split_schema():
    good = [(frozenset("AB"), fds("A -> B")), (frozenset("AZ"), ())]
    ref.check_split_schema("A", "B", "Z", good)
    with pytest.raises(ref.Mismatch):
        ref.check_split_schema("A", "B", "Z", [(frozenset("ABZ"), fds("A -> B"))])
    with pytest.raises(ref.Mismatch):
        ref.check_split_schema("A", "B", "Z", [(frozenset("AB"), ()), (frozenset("AZ"), ())])


def test_reduction_matches_its_documented_definition():
    ground, subsets = ("p1", "p2", "p3"), (("p1", "p2"), ("p2", "p3"))
    got = fdkit.reduce_to_schema(fdkit.HittingSetInstance(ground, subsets))
    want = ref.reduction(ground, subsets)
    assert [(ref.names(s.attrs), frozenset(ref.plain_fds(s.fds))) for s in got.schemes] == [
        (attrs, frozenset(f)) for attrs, f in want
    ]


def test_relation_helpers():
    tab = (("A", "B", "C"), frozenset({(0, 0, 0), (1, 0, 1)}))
    assert ref.project(tab, ("C", "A")) == (("A", "C"), frozenset({(0, 0), (1, 1)}))
    assert not ref.lossless_on(tab, [("A", "B"), ("B", "C")])
    assert ref.lossless_on(tab, [("A", "B"), ("A", "C")])


# --- the runner ---------------------------------------------------------------

def test_runner_asks_whole_passes_and_keeps_every_answer():
    qs = [Question("ok", lambda: 1, lambda got: None), Question("boom", lambda: 1 / 0, lambda got: None)]
    out = run_passes(qs, 0, 3)
    assert (out.passes, out.attempted, out.failed) == (3, 6, 3)
    assert [len(times) for times in out.answers] == [3, 0]
    assert len(out.pooled()) == 3 and len(out.typical()) == 1
    warm = run_passes(qs, 0, 1)
    out.absorb(warm)
    assert (out.attempted, out.failed, len(out.pooled())) == (8, 4, 3)


# --- workload checks catch a wrong program ----------------------------------

def _one_pass(wl, seed=7):
    plan = wl.prepare(seed)
    try:
        objs = wl.build(plan)
        return run_passes(wl.questions(plan, objs), 0, 1)
    finally:
        wl.cleanup(plan)


def _wrong_labels(outcome):
    return {message.split(":")[0] for message in outcome.wrong}


def test_kernel_flags_a_closure_that_does_not_close(monkeypatch):
    monkeypatch.setattr(fdkit.FDSet, "closure", lambda self, x: fdkit.AttributeSet(x))
    assert {"closure/chain", "closure/random"} <= _wrong_labels(_one_pass(wl_kernel))


def test_lattice_flags_wrong_keys_and_verdicts(monkeypatch):
    monkeypatch.setattr(fdkit, "enumerate_keys", lambda scheme, sigma, limit=16: frozenset())
    monkeypatch.setattr(fdkit, "check_bcnf", lambda db, limit=16: fdkit.NormalFormReport("bcnf", True, ()))
    labels = _wrong_labels(_one_pass(wl_lattice))
    assert {"enumerate_keys", "check_bcnf/solvable"} <= labels
    assert "check_bcnf/cyclic" not in labels


def test_lab_flags_an_oracle_that_always_says_yes(monkeypatch):
    monkeypatch.setattr(fdkit, "oracle_implies", lambda sigma, fd, limit=12: True)
    labels = _wrong_labels(_one_pass(wl_lab))
    assert "oracle_implies/refuted" in labels
    assert "oracle_implies/implied" not in labels


def test_cli_checks_reject_wrong_reports():
    plan = wl_cli.prepare(7)
    for label, argv, check in plan["asks"]:
        wrong = {"command": label, "exit_status": 0, "result": {}}
        with pytest.raises((ref.Mismatch, KeyError)):
            check((0, json.dumps(wrong)))
        with pytest.raises(ref.Mismatch):
            check((2, json.dumps(dict(wrong, exit_status=2))))


# --- the tracer ---------------------------------------------------------------

def test_tracer_restores_fdkit():
    before = (fdkit.FDSet.closure, fdkit.covers.project_fds, fdkit.design.project_fds, fdkit.cli.main)
    tracer = Tracer()
    tracer.install()
    try:
        assert fdkit.design.project_fds is fdkit.covers.project_fds is not before[1]
        fdkit.synthesize_3nf(fdkit.RelationScheme("A B C", fdkit.FDSet([fdkit.FD("A", "B C")])))
    finally:
        tracer.uninstall()
    assert (fdkit.FDSet.closure, fdkit.covers.project_fds, fdkit.design.project_fds, fdkit.cli.main) == before
    names = {s[1] for s in tracer.spans}
    assert {"design.synthesize_3nf", "covers.project_fds", "fds.closure"} <= names


def test_self_time_subtracts_children():
    spans = [
        (0, "design.check_bcnf", 0.0, 10.0, None, "0:0", None),
        (1, "fds.closure", 1.0, 3.0, 0, "0:0", None),
        (2, "fds.closure", 4.0, 5.0, 0, "0:0", None),
    ]
    stats = summarize(spans)
    assert stats["names"]["design.check_bcnf"]["self"] == 7.0
    assert stats["names"]["fds.closure"]["calls"] == 2
    assert layer_metrics(spans, 1)["design.closures_per_question"] == 2.0


# --- every workload runs clean ------------------------------------------------

@pytest.mark.parametrize("wl", WORKLOADS, ids=lambda wl: wl.NAME)
def test_one_pass_is_correct(wl):
    out = _one_pass(wl)
    assert out.passes == 1 and out.attempted > 0
    assert out.failures == [] and out.wrong == []


def test_command_line_contract(tmp_path):
    root = os.path.dirname(HERE)
    for trace in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lab", "--seed", "5", "--seconds", "0", "--trace", trace],
            cwd=root, capture_output=True, text=True, timeout=300, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    bare = tmp_path / "checkout"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lab", "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
