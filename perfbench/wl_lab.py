"""Workload ``lab``: the instance laboratory.

``instances`` does the work and the closure kernel does almost none, so
a change that replaces sampling with an exact test (the chase) shows
here.  The oracle must stay independent of the closure kernel, so its
cost is measured here and nowhere else.

Per pass (156 questions):

* ``oracle_implies`` on twenty random sets over 12 attributes, two
  implied and two non-implied questions per set, so both the early exit
  and the full 2^n pattern scan are timed;
* ``two_tuple_witness`` and ``random_satisfying_instance``, one of each
  per set;
* ``project``, ``join`` and ``is_lossless_on`` (a lossless and a lossy
  split) on relations of 1000-4000 rows with a planted dependency;
* ``check_represents`` on ten synthesized schemas, which are lossless,
  and on ten binary splits known to be lossy.
"""

from __future__ import annotations

import random

import fdkit

import families
import reference as ref
from harness import Question

NAME = "lab"
CHILD_PROCESSES = False
# One width: a full scan costs 2**n pattern tests, so at mixed widths the
# implied questions, which sit around the p50, would double in cost from
# one rank to the next.
ORACLE_WIDTHS = (12,)
ORACLE_SETS = 20  # random sets per width; their costs differ, so average several
ORACLE_QUESTIONS = 2
TABLE_ROWS = (1000, 2000, 3000, 4000)
FOREST_SIZES = (6, 7, 8, 9, 10, 6, 7, 8, 9, 10)
# Columns: K, X, Z free; Y = f(X) and W = g(Y), so X -> Y and Y -> W hold.
TABLE_COLUMNS = {"K": None, "X": None, "Y": (("X",), 40), "W": (("Y",), 12), "Z": None}
LOSSLESS_SPLIT = (("X", "Y", "W"), ("K", "X", "Z"))
LOSSY_SPLIT = (("K", "X"), ("K", "W", "Y", "Z"))


def _oracle_universe(rng, n):
    universe = families.attr_names(rng, n, "o")
    fds = families.random_fds(rng, universe, n, lhs_max=3, rhs_max=2)
    spec = ref.spec_fds(fds)
    implied, refuted = [], []
    while len(implied) < ORACLE_QUESTIONS or len(refuted) < ORACLE_QUESTIONS:
        lhs = frozenset(rng.sample(universe, 2))  # a fixed shape keeps the scan length seed-free
        reached = ref.closure(spec, lhs)
        more = sorted(reached - lhs)
        outside = sorted(set(universe) - reached)
        if more and len(implied) < ORACLE_QUESTIONS:
            implied.append((tuple(sorted(lhs)), (rng.choice(more),)))
        if outside and len(refuted) < ORACLE_QUESTIONS:
            refuted.append((tuple(sorted(lhs)), (rng.choice(outside),)))
    return {"universe": universe, "fds": fds, "implied": implied, "refuted": refuted,
            "witness_seeds": [tuple(rng.sample(universe, rng.randint(1, 2)))],
            "instance_seeds": [rng.randrange(1 << 30)]}


def _synthesized(forest):
    """Bernstein synthesis of a forest, done here: one scheme per parent
    with its children, plus a key scheme of the roots unless a scheme
    already holds them.  Such a schema is lossless and preserves the
    dependencies."""
    groups: dict = {}
    for (p,), (c,) in forest["fds"]:
        groups.setdefault(p, [p]).append(c)
    schemes = [tuple(sorted(g)) for g in groups.values()]
    roots = set(forest["roots"])
    if not any(roots <= set(s) for s in schemes):
        schemes.append(tuple(sorted(roots)))
    return schemes


def _lossy_split(rng, forest):
    """Two schemes over the forest's attributes sharing one attribute
    that determines neither side, so the split is lossy."""
    fds = ref.spec_fds(forest["fds"])
    attrs = list(forest["attrs"])
    while True:
        shuffled = rng.sample(attrs, len(attrs))
        cut = rng.randint(2, len(attrs) - 2)
        common = shuffled[cut]
        left, right = set(shuffled[:cut]) | {common}, set(shuffled[cut:])
        reached = ref.closure(fds, {common})
        if not left <= reached and not right <= reached:
            return [tuple(sorted(left)), tuple(sorted(right))]


def prepare(seed: int) -> dict:
    rng = random.Random(f"lab:{seed}")
    plan: dict = {
        "oracle": [_oracle_universe(rng, n) for n in ORACLE_WIDTHS for _ in range(ORACLE_SETS)],
        "tables": [],
        "represents": [],
    }
    for rows in TABLE_ROWS:
        cols, data = families.functional_table(rng, rows, TABLE_COLUMNS)
        order = [cols.index(c) for c in sorted(cols)]
        tab = (tuple(sorted(cols)), frozenset(tuple(r[i] for i in order) for r in data))
        plan["tables"].append({"table": tab, "parts": [ref.project(tab, p) for p in LOSSLESS_SPLIT]})
    for i, n in enumerate(FOREST_SIZES):
        forest = families.forest(rng, n, roots=1 + i % 2)
        plan["represents"].append(
            {"forest": forest, "synthesized": _synthesized(forest), "lossy": _lossy_split(rng, forest)}
        )
    return plan


def _relation(cols, rows):
    """An fdkit Relation from value tuples in ``cols`` order."""
    return fdkit.Relation(cols, [dict(zip(cols, r)) for r in rows])


def build(plan: dict) -> dict:
    """Every fdkit input object of the workload: dependency sets, the
    relations and the two projections each join question starts from,
    and the schemas compared by ``check_represents``."""
    objs: dict = {"oracle": [], "tables": [], "represents": []}
    for u in plan["oracle"]:
        sigma = fdkit.FDSet([fdkit.FD(l, r) for l, r in u["fds"]], universe=u["universe"])
        objs["oracle"].append(
            {
                "sigma": sigma,
                "implied": [fdkit.FD(l, r) for l, r in u["implied"]],
                "refuted": [fdkit.FD(l, r) for l, r in u["refuted"]],
            }
        )
    for t in plan["tables"]:
        objs["tables"].append({"relation": _relation(*t["table"]), "parts": [_relation(*p) for p in t["parts"]]})
    for r in plan["represents"]:
        forest = r["forest"]
        sigma = fdkit.FDSet([fdkit.FD(l, rr) for l, rr in forest["fds"]], universe=forest["attrs"])
        universal = fdkit.RelationScheme(forest["attrs"], sigma)
        schemas = []
        for parts in (r["synthesized"], r["lossy"]):
            schemes = []
            for attrs in parts:
                local = [fdkit.FD(l, rr) for l, rr in forest["fds"] if set(l + rr) <= set(attrs)]
                schemes.append(fdkit.RelationScheme(attrs, fdkit.FDSet(local, universe=attrs)))
            schemas.append(fdkit.DatabaseSchema(tuple(schemes)))
        objs["represents"].append({"universal": universal, "synthesized": schemas[0], "lossy": schemas[1]})
    return objs


def _oracle_questions(u, o):
    spec = ref.spec_fds(u["fds"])
    sigma = o["sigma"]
    qs = []
    for fd, want in [(fd, True) for fd in o["implied"]] + [(fd, False) for fd in o["refuted"]]:
        qs.append(Question(f"oracle_implies/{'implied' if want else 'refuted'}",
                           lambda fd=fd: fdkit.oracle_implies(sigma, fd),
                           lambda got, want=want: ref.check_equal("oracle_implies", got, want)))
    for x in u["witness_seeds"]:
        closed = ref.closure(spec, x)

        def check_witness(got, closed=closed):
            cols, rows = ref.table(got)
            ref.check_equal("witness scheme", frozenset(cols), frozenset(u["universe"]))
            if not ref.satisfies((cols, rows), spec):
                raise ref.Mismatch("two-tuple witness violates the dependencies")
            if len(rows) == 1:
                ref.check_equal("agreement set", frozenset(cols), closed)
                return
            first, second = sorted(rows)
            agree = frozenset(c for c, a, b in zip(cols, first, second) if a == b)
            ref.check_equal("agreement set", agree, closed)

        qs.append(Question("two_tuple_witness", lambda x=x: fdkit.two_tuple_witness(sigma, x), check_witness))
    for seed in u["instance_seeds"]:
        def check_instance(got):
            cols, rows = ref.table(got)
            ref.check_equal("instance scheme", frozenset(cols), frozenset(u["universe"]))
            if not rows or not ref.satisfies((cols, rows), spec):
                raise ref.Mismatch("random instance is empty or violates the dependencies")

        qs.append(Question("random_satisfying_instance",
                           lambda seed=seed: fdkit.random_satisfying_instance(sigma, random.Random(seed)),
                           check_instance))
    return qs


def _table_questions(t, o):
    tab = t["table"]
    rel, parts = o["relation"], o["parts"]
    target = LOSSLESS_SPLIT[0]
    want_proj = ref.project(tab, target)
    want_join = ref.natural_join(ref.project(tab, LOSSLESS_SPLIT[0]), ref.project(tab, LOSSLESS_SPLIT[1]))
    return [
        Question("project", lambda: rel.project(target),
                 lambda got: ref.check_equal("projection", ref.table(got), want_proj)),
        Question("join", lambda: fdkit.join(parts),
                 lambda got: ref.check_equal("join", ref.table(got), want_join)),
        Question("is_lossless_on", lambda: fdkit.is_lossless_on(rel, LOSSLESS_SPLIT),
                 lambda got: ref.check_equal("lossless split", got, ref.lossless_on(tab, LOSSLESS_SPLIT))),
        Question("is_lossless_on", lambda: fdkit.is_lossless_on(rel, LOSSY_SPLIT),
                 lambda got: ref.check_equal("lossy split", got, ref.lossless_on(tab, LOSSY_SPLIT))),
    ]


def _represents_questions(r, o):
    fds = ref.spec_fds(r["forest"]["fds"])
    universal = o["universal"]

    def check_synthesized(got):
        ref.check_equal("dependency preserving", got.dependency_preserving, True)
        ref.check_equal("lossless verdict", got.lossless_verdict, "no-counterexample-found")

    def check_lossy(got):
        union = tuple(fd for s in o["lossy"].schemes for fd in ref.plain_fds(s.fds))
        ref.check_equal("dependency preserving", got.dependency_preserving, ref.equivalent(union, fds))
        # Sampling is evidence only, so finding nothing is within the
        # contract; a counterexample must replay.
        if got.lossless_verdict == "counterexample":
            ref.check_lossy_counterexample(fds, r["lossy"], got.counterexample)
        else:
            ref.check_equal("lossless verdict", got.lossless_verdict, "no-counterexample-found")

    return [
        Question("check_represents/synthesized",
                 lambda: fdkit.check_represents(o["synthesized"], universal), check_synthesized),
        Question("check_represents/lossy", lambda: fdkit.check_represents(o["lossy"], universal), check_lossy),
    ]


def questions(plan: dict, objs: dict) -> list:
    qs = []
    for u, o in zip(plan["oracle"], objs["oracle"]):
        qs += _oracle_questions(u, o)
    for t, o in zip(plan["tables"], objs["tables"]):
        qs += _table_questions(t, o)
    for r, o in zip(plan["represents"], objs["represents"]):
        qs += _represents_questions(r, o)
    return qs


def cleanup(plan: dict) -> None:
    """The workload leaves no files."""
