"""Workload ``lattice``: exponential design questions at widths 10-13.

``design`` and ``project_fds`` do most of the work, and ``fds`` is called
as thousands of tiny closures, the opposite of ``kernel``.  Costs double
with each attribute, so width 14 alone would take half of every pass and
leave a run only three or four passes, too few for steady medians.
``synthesize_3nf`` also ignores its limit, so widths near the default
limit of 16 would hang it.

The families come from one fixed draw; the seed renames their
attributes and keeps their order (see :func:`prepare`).

Per pass, for each width w in 10..13 (14 questions per width, 56 per
pass):

* a BCNF-clean cyclic-key scheme (blocks of two attributes, each block
  determining the next, plus a tail the first block determines):
  ``enumerate_keys``, ``is_prime`` on a block and a tail attribute,
  ``find_key`` and ``check_bcnf`` (a full lattice scan);
* planted exact hitting-set instances on w - 2 elements, one solvable and
  one not, reduced to schemas whose widest scheme has w attributes:
  ``check_bcnf`` and ``solve_hitting_set`` on each;
* one wide fd ``X -> Y`` over w attributes, with |X| = 2 and one more
  attribute Z outside it (so X is a non-superkey determinant):
  ``check_3nf``, ``project_fds`` onto X | Y, ``bcnf_decompose`` and
  ``synthesize_3nf``; and ``check_3nf`` on the same fd with no Z, where
  X is the key.
"""

from __future__ import annotations

import random

import fdkit

import families
import reference as ref
from harness import Question

NAME = "lattice"
CHILD_PROCESSES = False
WIDTHS = (10, 11, 12, 13)
SUBSETS = 5


def _walk(x, f):
    """``x`` with ``f`` applied to every string inside its dicts, lists
    and tuples."""
    if isinstance(x, str):
        return f(x)
    if isinstance(x, dict):
        return {k: _walk(v, f) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(_walk(v, f) for v in x)
    return x


def _rename(plan, rng):
    """``plan`` with every attribute renamed from ``rng``, keeping each
    name's first letter and the names' order."""
    names: set = set()
    _walk(plan, lambda a: names.add(a) or a)
    fresh = {}
    for prefix in sorted({a[0] for a in names}):
        old = sorted(a for a in names if a[0] == prefix)
        picks = sorted(rng.sample(range(10 ** 5), len(old)))
        fresh.update((a, f"{prefix}{k:05d}") for a, k in zip(old, picks))
    return _walk(plan, fresh.__getitem__)


def prepare(seed: int) -> dict:
    # Every search here walks attributes in name order, and most stop at
    # the first key or violation they meet, so the same family costs up
    # to twice as much under one draw as under another.  The structure
    # therefore comes from one fixed draw, and the seed renames its
    # attributes without changing their order.
    rng = random.Random("lattice")
    plan = []
    for w in WIDTHS:
        plan.append(
            {
                "width": w,
                "cyclic": families.cyclic_keys(rng, w, block=2, tail=2 + w % 2),
                "solvable": families.hitting_set(rng, w - 2, SUBSETS, True),
                "unsolvable": families.hitting_set(rng, w - 2, SUBSETS, False),
                "split": families.wide_fd(rng, 2, w - 3, 1),
                "keyed": families.wide_fd(rng, 2, w - 2, 0),
            }
        )
    return {"widths": _rename(plan, random.Random(f"lattice:{seed}"))}


def _scheme(spec):
    attrs = spec["attrs"]
    return fdkit.RelationScheme(
        attrs, fdkit.FDSet([fdkit.FD(l, r) for l, r in spec["fds"]], universe=attrs)
    )


def _instance(spec):
    return fdkit.HittingSetInstance(spec["ground"], spec["subsets"])


def build(plan: dict) -> list:
    """Every fdkit input object of the workload, the hitting-set
    reductions included."""
    objs = []
    for p in plan["widths"]:
        o = {}
        for name in ("cyclic", "split", "keyed"):
            scheme = _scheme(p[name])
            o[name] = scheme
            o[name + "_db"] = fdkit.DatabaseSchema((scheme,))
        for name in ("solvable", "unsolvable"):
            o[name] = _instance(p[name])
            o[name + "_db"] = fdkit.reduce_to_schema(o[name])
        objs.append(o)
    return objs


def _check_report(report, satisfied, replay=None):
    ref.check_equal("verdict", report.satisfied, satisfied)
    if satisfied:
        ref.check_equal("witnesses", len(report.witnesses), 0)
        return
    if not report.witnesses:
        raise ref.Mismatch("violation reported without a witness")
    for w in report.witnesses:
        replay(w)


def _cyclic_questions(spec, scheme, db):
    fds = ref.spec_fds(spec["fds"])
    keys = frozenset(frozenset(k) for k in spec["keys"])
    block_attr, tail_attr = spec["keys"][0][0], spec["tail"][0]
    sigma = scheme.fds

    def check_keys(got):
        ref.check_equal("keys", frozenset(ref.names(k) for k in got), keys)

    def check_key(got):
        if ref.names(got) not in keys:
            raise ref.Mismatch(f"find_key returned {sorted(ref.names(got))}, not a key")
        if not ref.is_key(fds, spec["attrs"], ref.names(got)):
            raise ref.Mismatch("find_key result is not a minimal superkey")

    return [
        Question("enumerate_keys", lambda: fdkit.enumerate_keys(scheme, sigma), check_keys),
        Question("is_prime", lambda: fdkit.is_prime(scheme, sigma, block_attr),
                 lambda got: ref.check_equal("is_prime(block)", got, True)),
        Question("is_prime", lambda: fdkit.is_prime(scheme, sigma, tail_attr),
                 lambda got: ref.check_equal("is_prime(tail)", got, False)),
        Question("find_key", lambda: fdkit.find_key(scheme, sigma), check_key),
        Question("check_bcnf/cyclic", lambda: fdkit.check_bcnf(db), lambda got: _check_report(got, True)),
    ]


def _reduction_questions(spec, instance, db):
    fds = tuple(fd for _, scheme_fds in ref.reduction(spec["ground"], spec["subsets"]) for fd in scheme_fds)
    solvable = spec["solvable"]
    label = "solvable" if solvable else "unsolvable"

    def replay(w):
        ref.check_bcnf_witness(fds, ref.names(db.schemes[w.scheme_index].attrs), w)

    def check_solution(got):
        if not solvable:
            ref.check_equal("hitting set", got, None)
        elif got is None:
            raise ref.Mismatch("no hitting set found for a solvable instance")
        else:
            ref.check_exact_hitting_set(spec["subsets"], got)

    return [
        Question(f"check_bcnf/{label}", lambda: fdkit.check_bcnf(db),
                 lambda got: _check_report(got, not solvable, replay)),
        Question("solve_hitting_set", lambda: fdkit.solve_hitting_set(instance), check_solution),
    ]


def _check_split_schema(spec, got):
    ref.check_split_schema(
        spec["x"], spec["y"], spec["z"],
        [(ref.names(s.attrs), ref.plain_fds(s.fds)) for s in got.schemes],
    )


def _wide_questions(split, split_scheme, split_db, keyed_db):
    fds = ref.spec_fds(split["fds"])
    primes = set(split["x"]) | set(split["z"])
    all_attrs = set(split["attrs"])
    target = fdkit.AttributeSet(split["x"] + split["y"])
    sigma = split_scheme.fds

    def check_projection(got):
        ref.check_equal("projection universe", ref.names(got.universe), set(split["x"] + split["y"]))
        if not ref.equivalent(ref.plain_fds(got), fds):
            raise ref.Mismatch("projection is not equivalent to X -> Y")

    return [
        Question("check_3nf/split", lambda: fdkit.check_3nf(split_db),
                 lambda got: _check_report(got, False, lambda w: ref.check_3nf_witness(fds, all_attrs, primes, w))),
        Question("check_3nf/keyed", lambda: fdkit.check_3nf(keyed_db), lambda got: _check_report(got, True)),
        Question("project_fds", lambda: fdkit.project_fds(sigma, target), check_projection),
        Question("bcnf_decompose", lambda: fdkit.bcnf_decompose(split_db),
                 lambda got: _check_split_schema(split, got)),
        Question("synthesize_3nf", lambda: fdkit.synthesize_3nf(split_scheme),
                 lambda got: _check_split_schema(split, got)),
    ]


def questions(plan: dict, objs: list) -> list:
    qs = []
    for p, o in zip(plan["widths"], objs):
        qs += _cyclic_questions(p["cyclic"], o["cyclic"], o["cyclic_db"])
        for name in ("solvable", "unsolvable"):
            qs += _reduction_questions(p[name], o[name], o[name + "_db"])
        qs += _wide_questions(p["split"], o["split"], o["split_db"], o["keyed_db"])
    return qs


def cleanup(plan: dict) -> None:
    """The workload leaves no files."""
