"""Workload ``kernel``: polynomial questions on large dependency sets.

It drives ``fds``, ``covers`` and ``dsl`` at scale and never enters a
subset-lattice search, so a change that speeds up small closures but
costs more on wide universes shows here.

Per pass (90 questions):

* closure and implication on chains of 1000-5000 attributes, five chains
  with three closures, two implied and two non-implied questions each;
* equivalence of block chains of 500-1000 attributes (blocks of 25)
  with an equivalent and a non-equivalent rewrite;
* closure, implication and equivalence on random sets over 100, 150 and
  200 attributes;
* minimum covers of 60-, 120- and 180-fd chains, and all four covers of
  random sets of 60, 120 and 180 fds;
* parsing schema documents of 500-2000 ``fd`` lines.

Sizes are graded inside each class so that latencies spread evenly and
no percentile sits on a jump between two classes.  They keep a pass near
1.5 seconds, so that a run asks every question a dozen times or more.
"""

from __future__ import annotations

import random

import fdkit

import families
import reference as ref
from harness import Question

CHAIN_SIZES = (1000, 2000, 3000, 4000, 5000)
BLOCK_COUNTS = (20, 30, 40)
BLOCK_WIDTH = 25
RANDOM_SIZES = (100, 150, 200)
COVER_CHAIN_SIZES = (60, 120, 180)
COVER_RANDOM_SIZES = (60, 120, 180)
PARSE_LINES = (500, 1000, 1500, 2000)

NAME = "kernel"
CHILD_PROCESSES = False


def _pick_implications(rng, universe, fds, count):
    """``count`` implied and ``count`` non-implied single-attribute
    questions with 1-2 attribute left sides, decided by the reference."""
    implied, refuted = [], []
    while len(implied) < count or len(refuted) < count:
        lhs = tuple(rng.sample(universe, rng.randint(1, 2)))
        reached = ref.closure(fds, lhs)
        more = sorted(reached - set(lhs))
        if more and len(implied) < count:
            implied.append((lhs, (rng.choice(more),)))
        outside = sorted(set(universe) - reached)
        if outside and len(refuted) < count:
            refuted.append((lhs, (rng.choice(outside),)))
    return implied, refuted


def prepare(seed: int) -> dict:
    rng = random.Random(f"kernel:{seed}")
    plan: dict = {"chains": [], "blocks": [], "randoms": [], "covers": [], "docs": []}
    for n in CHAIN_SIZES:
        order = families.chain(rng, n)
        fds = families.chain_fds(order)
        rng.shuffle(fds)
        starts = [0, n // 3, 2 * n // 3]
        pairs = [(n // 4, 3 * n // 4), (n // 2, n - 1)]
        plan["chains"].append(
            {
                "order": order,
                "fds": fds,
                "closures": [(order[i],) for i in starts],
                "implied": [((order[i],), (order[j],)) for i, j in pairs],
                "refuted": [((order[j],), (order[i],)) for i, j in pairs],
            }
        )
    for count in BLOCK_COUNTS:
        blocks = families.block_chain(rng, count, BLOCK_WIDTH)
        fds = [(blocks[i], blocks[i + 1]) for i in range(count - 1)]
        same = fds + [(blocks[0], blocks[-1])]
        rng.shuffle(same)
        # Dropping the last link makes the refutation scan every fd of
        # sigma before it fails, whatever the seed.
        missing = fds[:-1]
        plan["blocks"].append(
            {
                "universe": [a for b in blocks for a in b],
                "fds": fds,
                "same": same,
                "missing": missing,
            }
        )
    for n in RANDOM_SIZES:
        universe = families.attr_names(rng, n, "r")
        fds = families.random_fds(rng, universe, n, lhs_max=2)
        spec = ref.spec_fds(fds)
        split = fds[1:] + [(fds[0][0], (a,)) for a in fds[0][1]]
        rng.shuffle(split)
        for drop in rng.sample(range(len(fds)), len(fds)):
            kept_equivalent = ref.implies(spec[:drop] + spec[drop + 1 :], *spec[drop])
            if not kept_equivalent:
                break
        # The dropped fd goes last in sigma, so the refutation scans every
        # fd before it fails, whatever the seed.
        fds = fds[:drop] + fds[drop + 1 :] + [fds[drop]]
        spec = ref.spec_fds(fds)
        implied, refuted = _pick_implications(rng, universe, spec, 2)
        plan["randoms"].append(
            {
                "universe": universe,
                "fds": fds,
                "split": split,
                "missing": fds[:-1],
                "missing_equivalent": kept_equivalent,
                "closures": [tuple(rng.sample(universe, k)) for k in (1, 2, 2, 3)],
                "implied": implied,
                "refuted": refuted,
            }
        )
    for n in COVER_CHAIN_SIZES:
        order = families.chain(rng, n + 1, "m")
        plan["covers"].append({"universe": order, "fds": families.chain_fds(order), "kinds": ("minimum",)})
    for m in COVER_RANDOM_SIZES:
        universe = families.attr_names(rng, m, "v")
        plan["covers"].append(
            {
                "universe": universe,
                "fds": families.random_fds(rng, universe, m),
                "kinds": ("minimum", "reduced", "nonredundant", "canonical"),
            }
        )
    for lines in PARSE_LINES:
        universe = families.attr_names(rng, 500, "d")
        fds = families.random_fds(rng, universe, lines)
        text = "# generated schema document\nuniverse " + ", ".join(universe) + "\n"
        text += "".join(f"fd {', '.join(l)} -> {', '.join(r)}\n" for l, r in fds)
        plan["docs"].append({"universe": universe, "fds": fds, "text": text})
    return plan


def _fdset(pairs, universe=None):
    return fdkit.FDSet([fdkit.FD(l, r) for l, r in pairs], universe=universe)


def build(plan: dict) -> dict:
    """Every fdkit input object of the workload."""
    objs: dict = {"chains": [], "blocks": [], "randoms": [], "covers": []}
    for c in plan["chains"]:
        objs["chains"].append(
            {
                "sigma": _fdset(c["fds"]),
                "implied": [fdkit.FD(l, r) for l, r in c["implied"]],
                "refuted": [fdkit.FD(l, r) for l, r in c["refuted"]],
            }
        )
    for b in plan["blocks"]:
        u = b["universe"]
        objs["blocks"].append(
            {"sigma": _fdset(b["fds"], u), "same": _fdset(b["same"], u), "missing": _fdset(b["missing"], u)}
        )
    for r in plan["randoms"]:
        u = r["universe"]
        objs["randoms"].append(
            {
                "sigma": _fdset(r["fds"], u),
                "split": _fdset(r["split"], u),
                "missing": _fdset(r["missing"], u),
                "implied": [fdkit.FD(l, rr) for l, rr in r["implied"]],
                "refuted": [fdkit.FD(l, rr) for l, rr in r["refuted"]],
            }
        )
    for c in plan["covers"]:
        objs["covers"].append(_fdset(c["fds"], c["universe"]))
    return objs


def _closure_q(label, sigma, seed, want):
    return Question(
        label,
        lambda: sigma.closure(seed),
        lambda got: ref.check_equal("closure", ref.names(got), want),
    )


def _bool_q(label, call, want):
    return Question(label, call, lambda got: ref.check_equal(label, got, want))


COVERS = {
    "minimum": ("minimum_cover", {"nonredundant": True, "closed": True}),
    "reduced": ("reduced_cover", {"reduced": True}),
    "nonredundant": ("nonredundant_cover", {"nonredundant": True}),
    "canonical": ("canonical_cover", {"singleton": True}),
}


def _cover_q(kind, sigma, spec, universe):
    func, props = COVERS[kind]
    universe = frozenset(universe)

    def check(got):
        ref.check_equal("cover universe", ref.names(got.universe), universe)
        ref.check_cover(spec, ref.plain_fds(got), **props)

    return Question(f"cover/{kind}", lambda: getattr(fdkit, func)(sigma), check)


def _parse_q(doc):
    want = ref.spec_fds(doc["fds"])
    universe = frozenset(doc["universe"])

    def check(result):
        if not result.ok or result.diagnostics:
            raise ref.Mismatch(f"parse diagnostics: {[str(d) for d in result.diagnostics[:3]]}")
        ref.check_equal("parsed dependencies", ref.plain_fds(result.document.fds), want)
        ref.check_equal("parsed universe", ref.names(result.document.universe), universe)

    text = doc["text"]
    return Question("parse", lambda: fdkit.parse_schema(text), check)


def questions(plan: dict, objs: dict) -> list:
    qs = []
    for c, o in zip(plan["chains"], objs["chains"]):
        order = c["order"]
        position = {a: i for i, a in enumerate(order)}
        sigma = o["sigma"]
        for seed in c["closures"]:
            qs.append(_closure_q("closure/chain", sigma, seed, frozenset(order[position[seed[0]] :])))
        for fd in o["implied"]:
            qs.append(_bool_q("implies/chain", lambda s=sigma, fd=fd: s.implies(fd), True))
        for fd in o["refuted"]:
            qs.append(_bool_q("implies/chain", lambda s=sigma, fd=fd: s.implies(fd), False))
    for o in objs["blocks"]:
        sigma = o["sigma"]
        qs.append(_bool_q("equivalent/blocks", lambda s=sigma, t=o["same"]: s.equivalent(t), True))
        qs.append(_bool_q("equivalent/blocks", lambda s=sigma, t=o["missing"]: s.equivalent(t), False))
    for r, o in zip(plan["randoms"], objs["randoms"]):
        sigma = o["sigma"]
        spec = ref.spec_fds(r["fds"])
        for seed in r["closures"]:
            qs.append(_closure_q("closure/random", sigma, seed, ref.closure(spec, seed)))
        for fd in o["implied"]:
            qs.append(_bool_q("implies/random", lambda s=sigma, fd=fd: s.implies(fd), True))
        for fd in o["refuted"]:
            qs.append(_bool_q("implies/random", lambda s=sigma, fd=fd: s.implies(fd), False))
        qs.append(_bool_q("equivalent/random", lambda s=sigma, t=o["split"]: s.equivalent(t), True))
        qs.append(_bool_q("equivalent/random", lambda s=sigma, t=o["missing"]: s.equivalent(t), r["missing_equivalent"]))
    for c, sigma in zip(plan["covers"], objs["covers"]):
        spec = ref.spec_fds(c["fds"])
        for kind in c["kinds"]:
            qs.append(_cover_q(kind, sigma, spec, c["universe"]))
    for doc in plan["docs"]:
        qs.append(_parse_q(doc))
    return qs


def cleanup(plan: dict) -> None:
    """The workload leaves no files."""
