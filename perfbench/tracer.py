"""Spans around fdkit's public functions, installed from outside.

:meth:`Tracer.install` replaces each function in :data:`TARGETS` with a
wrapper that records a span, at its home module and at every fdkit module
that imported it by name (``project_fds`` is wrapped in ``covers`` and in
``design``, for example), and on the class for methods.  No file of the
library changes; :meth:`Tracer.uninstall` puts the originals back.

A span is ``(id, name, start, end, parent id, question id, n)``, where
``n`` is a work count for the few spans that carry one (lines parsed,
rows returned).  Spans stay in memory until the run writes them out.  A
span's self time is its duration minus the durations of its child spans;
the calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = (
    "fdkit",
    "fdkit.fds",
    "fdkit.covers",
    "fdkit.design",
    "fdkit.instances",
    "fdkit.reductions",
    "fdkit.dsl",
    "fdkit.cli",
)


def _lines(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return len(text.splitlines())


def _rows(args, kwargs, result):
    return len(result)


# (home module, class or None, function, span name, work count)
TARGETS = (
    ("fdkit.fds", "FDSet", "closure", "fds.closure", None),
    ("fdkit.fds", "FDSet", "implies", "fds.closure", None),
    ("fdkit.fds", "FDSet", "equivalent", "fds.closure", None),
    ("fdkit.fds", "FDSet", "__init__", "fds.fdset", None),
    ("fdkit.covers", None, "reduced_cover", "covers.reduced_cover", None),
    ("fdkit.covers", None, "nonredundant_cover", "covers.nonredundant_cover", None),
    ("fdkit.covers", None, "canonical_cover", "covers.canonical_cover", None),
    ("fdkit.covers", None, "minimum_cover", "covers.minimum_cover", None),
    ("fdkit.covers", None, "project_fds", "covers.project_fds", None),
    ("fdkit.design", None, "find_key", "design.find_key", None),
    ("fdkit.design", None, "enumerate_keys", "design.enumerate_keys", None),
    ("fdkit.design", None, "is_prime", "design.is_prime", None),
    ("fdkit.design", None, "check_bcnf", "design.check_bcnf", None),
    ("fdkit.design", None, "check_3nf", "design.check_3nf", None),
    ("fdkit.design", None, "bcnf_decompose", "design.bcnf_decompose", None),
    ("fdkit.design", None, "synthesize_3nf", "design.synthesize_3nf", None),
    ("fdkit.design", None, "check_represents", "design.check_represents", None),
    ("fdkit.instances", None, "oracle_implies", "instances.oracle_implies", None),
    ("fdkit.instances", None, "two_tuple_witness", "instances.two_tuple_witness", None),
    ("fdkit.instances", None, "random_satisfying_instance", "instances.random_satisfying_instance", None),
    ("fdkit.instances", None, "join", "instances.join", _rows),
    ("fdkit.instances", None, "is_lossless_on", "instances.is_lossless_on", None),
    ("fdkit.instances", "Relation", "project", "instances.project", _rows),
    ("fdkit.reductions", None, "solve_hitting_set", "reductions.solve_hitting_set", None),
    ("fdkit.reductions", None, "reduce_to_schema", "reductions.reduce_to_schema", None),
    ("fdkit.reductions", None, "parse_instance", "reductions.parse_instance", None),
    ("fdkit.dsl", None, "parse_schema", "dsl.parse_schema", _lines),
    ("fdkit.cli", None, "main", "cli.main", None),
)


class Tracer:
    """Collects spans for one run.  ``qid`` names the question being
    asked; the runner sets it before each call."""

    def __init__(self):
        self.spans: list = []
        self.qid = "setup"
        self._stack: list = []
        self._next = 0
        self._undo: list = []

    def _wrap(self, fn, name, count):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n = count(args, kwargs, result) if count and result is not None else None
                tracer.spans.append((sid, name, start, end, parent, tracer.qid, n))

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for home, cls, attr, name, count in TARGETS:
            if cls is not None:
                owner = getattr(importlib.import_module(home), cls)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(original, name, count))
                self._undo.append((owner, attr, original))
                continue
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def merge(self, spans: list, qid: str) -> None:
        """Add spans recorded elsewhere (a child process) under ``qid``."""
        base = self._next
        for sid, name, start, end, parent, _, n in spans:
            self.spans.append(
                (base + sid, name, start, end, None if parent is None else base + parent, qid, n)
            )
            self._next = max(self._next, base + sid + 1)


def summarize(spans: list) -> dict:
    """Per span name: calls, total and self seconds, and summed work
    count; plus the derived ratios the benchmark reports."""
    by_id = {s[0]: s for s in spans}
    child_time: dict = defaultdict(float)
    for sid, name, start, end, parent, qid, n in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats: dict = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "n": 0})
    for sid, name, start, end, parent, qid, n in spans:
        entry = stats[name]
        entry["calls"] += 1
        entry["total"] += end - start
        entry["self"] += end - start - child_time[sid]
        entry["n"] += n or 0

    def has_ancestor(span, test) -> bool:
        parent = span[4]
        while parent is not None:
            up = by_id[parent]
            if test(up[1]):
                return True
            parent = up[4]
        return False

    in_design = lambda name: name.startswith("design.")
    design_questions = {s[5] for s in spans if in_design(s[1]) and s[5] != "setup"}
    design_closures = sum(
        1 for s in spans if s[1] == "fds.closure" and s[5] != "setup" and has_ancestor(s, in_design)
    )
    sampled = sum(
        1
        for s in spans
        if s[1] == "instances.random_satisfying_instance"
        and has_ancestor(s, lambda name: name == "design.check_represents")
    )
    return {
        "names": dict(stats),
        "design_questions": len(design_questions),
        "design_closures": design_closures,
        "represents_samples": sampled,
    }


# Per-layer metrics: (metric, span name, field); fields are "calls",
# "self" (reported in ms) and "n" (summed work count).
LAYER_FIELDS = (
    ("fds.closure.calls", "fds.closure", "calls"),
    ("fds.closure.self_ms", "fds.closure", "self"),
    ("fds.fdset.builds", "fds.fdset", "calls"),
    ("fds.fdset.self_ms", "fds.fdset", "self"),
    ("covers.minimum_cover.self_ms", "covers.minimum_cover", "self"),
    ("covers.reduced_cover.self_ms", "covers.reduced_cover", "self"),
    ("covers.nonredundant_cover.self_ms", "covers.nonredundant_cover", "self"),
    ("covers.project_fds.calls", "covers.project_fds", "calls"),
    ("covers.project_fds.self_ms", "covers.project_fds", "self"),
    ("design.enumerate_keys.self_ms", "design.enumerate_keys", "self"),
    ("design.check_bcnf.self_ms", "design.check_bcnf", "self"),
    ("design.check_3nf.self_ms", "design.check_3nf", "self"),
    ("design.synthesize_3nf.self_ms", "design.synthesize_3nf", "self"),
    ("design.bcnf_decompose.self_ms", "design.bcnf_decompose", "self"),
    ("design.check_represents.self_ms", "design.check_represents", "self"),
    ("instances.oracle_implies.self_ms", "instances.oracle_implies", "self"),
    ("instances.random_satisfying_instance.calls", "instances.random_satisfying_instance", "calls"),
    ("instances.random_satisfying_instance.self_ms", "instances.random_satisfying_instance", "self"),
    ("instances.join.self_ms", "instances.join", "self"),
    ("instances.join.rows_out", "instances.join", "n"),
    ("instances.project.self_ms", "instances.project", "self"),
    ("reductions.solve_hitting_set.self_ms", "reductions.solve_hitting_set", "self"),
    ("reductions.reduce_to_schema.self_ms", "reductions.reduce_to_schema", "self"),
    ("dsl.parse_schema.self_ms", "dsl.parse_schema", "self"),
    ("cli.main.self_ms", "cli.main", "self"),
)


def layer_metrics(spans: list, passes: int) -> dict:
    """Per-layer figures for one set-up plus one pass over the question
    list: set-up spans count once, question spans are divided by the
    number of traced passes."""
    setup = summarize([s for s in spans if s[5] == "setup"])
    asked = summarize([s for s in spans if s[5] != "setup"])

    def value(span, field):
        one = setup["names"].get(span, {}).get(field, 0)
        per_pass = asked["names"].get(span, {}).get(field, 0) / passes
        return (one + per_pass) * (1000.0 if field == "self" else 1.0)

    out = {metric: value(span, field) for metric, span, field in LAYER_FIELDS}
    out["design.closures_per_question"] = (
        asked["design_closures"] / asked["design_questions"] if asked["design_questions"] else 0.0
    )
    verdicts = asked["names"].get("design.check_represents", {}).get("calls", 0)
    out["instances.samples_per_verdict"] = asked["represents_samples"] / verdicts if verdicts else 0.0
    parse = asked["names"].get("dsl.parse_schema")
    out["dsl.lines_per_s"] = parse["n"] / parse["total"] if parse else 0.0
    return out
