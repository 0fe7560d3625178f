"""Cover manipulation: reduced, non-redundant, canonical, and minimum covers.

A cover of a dependency set is any equivalent set.  The rewrites here are
deterministic: dependencies are scanned in collection order and attributes
inside a left side are tried in canonical (name) order, so equal inputs
always produce equal outputs.
"""

from __future__ import annotations

from .errors import check_limit
from .fds import (
    FD,
    AttributeSet,
    AttrsLike,
    FDSet,
    _ClosureIndex,
    _Lattice,
    _free,
    _require_within,
)

__all__ = [
    "reduced_cover",
    "nonredundant_cover",
    "canonical_cover",
    "minimum_cover",
    "project_fds",
    "DEFAULT_PROJECTION_LIMIT",
]

DEFAULT_PROJECTION_LIMIT = 20


def reduced_cover(sigma: FDSet) -> FDSet:
    """Equivalent cover in which no left side keeps a removable attribute.

    For each dependency ``X -> Y`` and each ``A`` of ``X`` in canonical
    order, ``A`` is dropped whenever the working set still implies
    ``(X - A) -> Y``.  Later dependencies are tested against the already
    rewritten set.
    """
    index = _ClosureIndex(list(sigma))
    for i, fd in enumerate(sigma):
        lhs = fd.lhs
        for a in tuple(lhs):
            trial = lhs - AttributeSet([a])
            if index.close(trial, target=fd.rhs):
                lhs = trial
                index.shrink(i, lhs)
    return FDSet(index.fds, universe=sigma.universe)


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

    Each original dependency ``X -> Y`` is removed from the working set;
    if the remainder no longer implies it, ``X -> closure(X)`` (closure
    under the original input) is appended instead.  A final non-redundancy
    sweep removes survivors that later insertions made implied.  The
    result is closed and non-redundant, which guarantees minimum size
    among all covers.
    """
    index = _ClosureIndex(list(sigma))
    for i, fd in enumerate(sigma):
        index.drop(i)
        if not index.close(fd.lhs, target=fd.rhs):
            # Never a duplicate: were it in the remainder already, the
            # remainder would imply X -> Y.
            index.add(FD(fd.lhs, sigma.closure(fd.lhs)))
    return FDSet(index.sweep(), universe=sigma.universe)


def project_fds(
    sigma: FDSet, x: AttrsLike, limit: int = DEFAULT_PROJECTION_LIMIT
) -> FDSet:
    """Cover of every implied dependency whose attributes all lie in ``x``.

    Enumerates left sides ``S`` over subsets of ``x`` in (size, canonical)
    order and emits ``S -> img(S) - S``, where ``img(S)`` is
    ``closure(S) & x``, then compresses the collected set with
    :func:`nonredundant_cover`.  The result's universe is ``x``.

    Three kinds of left side are skipped before that sweep.  A proper
    superset of a superkey of ``x`` is never closed at all (see
    :meth:`~fdkit.fds._Lattice.scan`).  A left side with a removable
    attribute, one in the closure of the rest of ``S``, carries the image
    of the smaller subset.  And a free ``S`` is skipped when its proper
    subsets already give its image: ``img(S)`` lies inside ``S`` and the
    images of the ``S - a``.  That test reads the closures the scan holds.

    Skipping leaves the greedy sweep's output unchanged.  The sweep would
    drop such an ``S``: closing ``S - a`` never fires ``S``, which is
    free, so the other candidates give each ``img(S - a)`` and with them
    ``img(S)``.  Nor does ``S`` decide the fate of another candidate
    ``T -> ...``.  ``S`` can fire in the closure of ``T`` only inside
    ``img(T)``, and then ``T`` lies in no ``img(S - a)``, or ``S`` would
    lie there too and not be free.  So the candidate under test never
    fires while an ``S - a`` is closed, the others give each
    ``img(S - a)`` without ``S`` or any other skipped candidate (by
    induction on the size of the image, which shrinks from ``S`` to
    ``S - a``), and ``S`` adds nothing.

    Exponential in ``len(x)`` by design; inputs beyond ``limit``
    attributes are refused with :class:`LimitExceededError`.
    """
    x = AttributeSet(x)
    _require_within(x, sigma.universe, "projection attributes outside the universe")
    check_limit("projection", len(x), limit)
    lattice = _Lattice(sigma)
    full = lattice.mask(x)
    out = []
    for s, closed, prev in lattice.scan(full):
        image = closed & full
        if not image & ~s or not _free(s, prev):
            continue
        given = s
        rest = s
        while rest:
            b = rest & -rest
            given |= prev[s ^ b]
            rest ^= b
        if image & ~given:
            out.append(FD(lattice.attrs(s), lattice.attrs(image & ~s)))
    return nonredundant_cover(FDSet(out, universe=x))
