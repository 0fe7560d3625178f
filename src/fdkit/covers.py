"""Cover manipulation: reduced, non-redundant, canonical, and minimum covers.

A cover of a dependency set is any equivalent set.  The rewrites here are
deterministic: dependencies are scanned in collection order and attributes
inside a left side are tried in canonical (name) order, so equal inputs
always produce equal outputs.
"""

from __future__ import annotations

from .errors import DEFAULT_LIMIT, check_limit
from .fds import (
    FD,
    AttributeSet,
    AttrsLike,
    FDSet,
    _ClosureIndex,
    _Lattice,
    _require_within,
)

__all__ = [
    "reduced_cover",
    "nonredundant_cover",
    "canonical_cover",
    "minimum_cover",
    "project_fds",
]


def reduced_cover(sigma: FDSet) -> FDSet:
    """Equivalent cover in which no left side keeps a removable attribute.

    For each dependency ``X -> Y`` and each ``A`` of ``X`` in canonical
    order, ``A`` is dropped whenever the working set still implies
    ``(X - A) -> Y``.  Each trial is tested against the input itself,
    which gives the same answers as the rewritten set: a step replaces
    ``X -> Y`` only when the set implies ``(X - A) -> Y``, which implies
    ``X -> Y`` back, so every rewritten set is equivalent to the input
    and has its closures.
    """
    index = _ClosureIndex(sigma.fds)
    out = []
    for fd in sigma:
        lhs = fd.lhs
        for a in tuple(lhs):
            trial = lhs - AttributeSet([a])
            if index.close(trial, target=fd.rhs):
                lhs = trial
        out.append(fd if lhs is fd.lhs else FD(lhs, fd.rhs))
    return FDSet(out, universe=sigma.universe)


def nonredundant_cover(sigma: FDSet) -> FDSet:
    """Equivalent subset in which no member is implied by the others.

    Greedy scan in collection order; each removal is in place, so later
    members are tested against the already shrunk set.
    """
    return FDSet(_ClosureIndex(sigma.fds).sweep(), universe=sigma.universe)


def canonical_cover(sigma: FDSet) -> FDSet:
    """Equivalent cover whose dependencies all have a single right-side
    attribute.

    ``X -> A1 ... Ak`` splits into one dependency per ``Ai`` in canonical
    order; dependencies with an empty right side are vacuous and dropped.
    """
    out = []
    for fd in sigma:
        for a in fd.rhs:
            out.append(FD(fd.lhs, AttributeSet([a])))
    return FDSet(out, universe=sigma.universe)


def minimum_cover(sigma: FDSet) -> FDSet:
    """Cover of minimum cardinality, with every right side closed.

    Each distinct left side ``X`` of the input becomes ``X -> closure(X)``,
    in the order the left sides first occur, and
    :func:`nonredundant_cover` then drops, in that order, each member the
    rest imply.  A closed, non-redundant cover has minimum size among all
    covers (Maier, JACM 1980).
    """
    closed = [FD(x, sigma.closure(x)) for x in dict.fromkeys(fd.lhs for fd in sigma)]
    return nonredundant_cover(FDSet(closed, universe=sigma.universe))


def project_fds(sigma: FDSet, x: AttrsLike, limit: int = DEFAULT_LIMIT) -> FDSet:
    """Cover of every implied dependency whose attributes all lie in ``x``.

    Takes the left sides ``S`` over subsets of ``x`` in (size, canonical)
    order, emits ``S -> img(S) - S``, where ``img(S)`` is
    ``closure(S) & x``, and drops, in that order, each one the rest
    imply, by the non-redundancy sweep.  The result's universe is
    ``x``.  The left sides that cannot change the sweep's output are
    skipped before it (see :meth:`~fdkit.fds._Lattice.cover` and
    :meth:`~fdkit.fds._Lattice.project`).

    Exponential by design in the number of attributes of ``x`` that are
    some dependency's left side, the only ones whose subsets are
    closed; inputs beyond ``limit`` attributes are refused with
    :class:`LimitExceededError`.
    """
    x = AttributeSet(x)
    _require_within(x, sigma.universe, "projection attributes outside the universe")
    check_limit("projection", len(x), limit)
    lattice = _Lattice(sigma)
    return lattice.project(lattice.mask(x))
