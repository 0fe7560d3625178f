"""Attributes, attribute sets, and functional dependencies.

A functional dependency ``X -> Y`` states that any two rows agreeing on
the attributes ``X`` also agree on the attributes ``Y``.  :class:`FDSet`
holds a finite, ordered, duplicate-free collection of dependencies over a
fixed universe of attributes and answers the classic questions about it:
attribute-set closure, implication, equivalence, and redundancy.

All values here are immutable after construction and every operation is a
pure function of its inputs, so everything is safe to share across
threads.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import AbstractSet, Collection, Iterable, Iterator, Sequence, Union

from .errors import UnknownAttributeError, UniverseMismatchError

__all__ = ["Attribute", "AttributeSet", "FD", "FDSet", "AttrsLike"]

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_SPLIT = re.compile(r"[\s,]+")
_INTERNED: dict = {}  # name -> its one Attribute; see Attribute


class Attribute(str):
    """A named column: a ``str`` holding a validated name.

    Names follow the identifier grammar ``[A-Za-z_][A-Za-z0-9_]*`` and are
    case sensitive.  Equality, hashing and ordering are those of the name
    itself, so ``Attribute("A") == "A"``.

    Each name is built once per process and then shared.  An instance of a
    ``str`` subclass carries its own copy of the text, about 100 bytes, so
    without sharing every row of a relation and every dependency would
    hold one copy per attribute it mentions.
    """

    __slots__ = ()

    def __new__(cls, name: str):
        if isinstance(name, str):
            known = _INTERNED.get(name)
            if known is not None:
                return known
            if _NAME.match(name):
                attr = str.__new__(cls, name)
                return _INTERNED.setdefault(attr, attr)
        raise ValueError(f"invalid attribute name: {name!r}")

    @property
    def name(self) -> str:
        return str(self)

    def __repr__(self) -> str:
        return f"Attribute({str(self)!r})"


AttrsLike = Union["AttributeSet", str, Iterable[Union[Attribute, str]]]


class AttributeSet(frozenset):
    """An immutable set of attributes that iterates in name order.

    A ``frozenset`` of :class:`Attribute`, so membership, length, equality,
    hashing and the subset comparisons are those of ``frozenset``: an
    attribute set equals a plain ``frozenset`` or ``set`` of the same
    names.  The constructor accepts another :class:`AttributeSet`
    (returned as is), an iterable of :class:`Attribute` or name strings,
    or a single string that is split on commas and whitespace:
    ``AttributeSet("A B")`` equals ``AttributeSet(["A", "B"])``.  (A
    string without separators is one attribute, not a sequence of
    characters.)

    Iteration order is the sorted order of names, so rendering is
    deterministic.  The operators ``|``, ``&`` and ``-`` between two
    attribute sets return an attribute set.  The named methods ``union``,
    ``intersection``, ``difference`` and ``copy`` are those of
    ``frozenset`` and return plain, unordered frozensets.  The set may be
    empty.
    """

    __slots__ = ("_ordered",)

    def __new__(cls, members: AttrsLike = ()):
        if isinstance(members, AttributeSet):
            return members
        if isinstance(members, str):
            text = members.strip()
            members = _SPLIT.split(text) if text else []
        return _attrset(m if isinstance(m, Attribute) else Attribute(m) for m in members)

    @property
    def names(self) -> tuple:
        return tuple(a.name for a in self)

    def __iter__(self) -> Iterator[Attribute]:
        if self._ordered is None:
            self._ordered = tuple(sorted(frozenset.__iter__(self)))
        return iter(self._ordered)

    def __or__(self, other: "AttributeSet") -> "AttributeSet":
        if not isinstance(other, AttributeSet):
            return NotImplemented
        return _attrset(frozenset.__or__(self, other))

    def __and__(self, other: "AttributeSet") -> "AttributeSet":
        if not isinstance(other, AttributeSet):
            return NotImplemented
        return _attrset(frozenset.__and__(self, other))

    def __sub__(self, other: "AttributeSet") -> "AttributeSet":
        if not isinstance(other, AttributeSet):
            return NotImplemented
        return _attrset(frozenset.__sub__(self, other))

    def __str__(self) -> str:
        return " ".join(self)

    def __repr__(self) -> str:
        return f"AttributeSet({str(self)!r})"


def _attrset(members: Iterable[Attribute]) -> AttributeSet:
    """An :class:`AttributeSet` of members already known to be attributes."""
    out = frozenset.__new__(AttributeSet, members)
    out._ordered = None
    return out


class FD:
    """One dependency ``lhs -> rhs``.

    The right side may be empty (such a dependency is vacuously true).
    Equality is structural on the two sides.  Both sides accept anything
    :class:`AttributeSet` accepts.
    """

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: AttrsLike, rhs: AttrsLike):
        self.lhs = AttributeSet(lhs)
        self.rhs = AttributeSet(rhs)

    @property
    def attributes(self) -> AttributeSet:
        """Every attribute mentioned on either side."""
        return self.lhs | self.rhs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FD) and self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self) -> int:
        return hash((self.lhs, self.rhs))

    def __str__(self) -> str:
        rhs = str(self.rhs)
        return f"{self.lhs} -> {rhs}" if rhs else f"{self.lhs} ->"

    def __repr__(self) -> str:
        return f"FD({str(self.lhs)!r}, {str(self.rhs)!r})"


def _close(fds: Sequence[FD], seed: Iterable[Attribute]) -> set:
    """Closure of ``seed`` under ``fds`` as a plain set of attributes.

    Change-tracking worklist: each dependency keeps a count of left-side
    attributes not yet reached and fires at most once, so the cost is
    linear in the total size of ``fds`` plus the seed.
    """
    reached = set(seed)
    waiting: dict = {}
    missing = []
    queue: list = []
    for i, fd in enumerate(fds):
        count = 0
        for a in fd.lhs:
            if a not in reached:
                count += 1
                waiting.setdefault(a, []).append(i)
        missing.append(count)
        if count == 0:
            for b in fd.rhs:
                if b not in reached:
                    reached.add(b)
                    queue.append(b)
    while queue:
        a = queue.pop()
        for i in waiting.get(a, ()):
            missing[i] -= 1
            if missing[i] == 0:
                for b in fds[i].rhs:
                    if b not in reached:
                        reached.add(b)
                        queue.append(b)
    return reached


def _require_within(attrs: AbstractSet, allowed: Collection, what: str) -> None:
    """Refuse the members of ``attrs`` missing from ``allowed`` with
    :class:`UnknownAttributeError`: ``what``, a colon, then the stray
    names in name order."""
    stray = attrs.difference(allowed)
    if stray:
        raise UnknownAttributeError(f"{what}: {' '.join(map(str, sorted(stray)))}")


def _nonredundant(fds: Sequence[FD]) -> list:
    """The greedy non-redundancy sweep: scan in collection order and drop
    each member implied by the others; each removal is in place, so later
    members are tested against the already shrunk list."""
    work = list(fds)
    i = 0
    while i < len(work):
        fd = work[i]
        rest = work[:i] + work[i + 1 :]
        if fd.rhs <= _close(rest, fd.lhs):
            work = rest
        else:
            i += 1
    return work


def _subsets(attrs: AttributeSet) -> Iterator[AttributeSet]:
    """Every subset of ``attrs`` in (size, canonical) order: smaller
    subsets first, and subsets of one size in lexicographic name order.
    Every subset-lattice search scans this order, which fixes the witness
    it reports first."""
    members = tuple(attrs)
    for size in range(len(members) + 1):
        for combo in combinations(members, size):
            yield _attrset(combo)


class FDSet:
    """An ordered, duplicate-free collection of dependencies over a universe.

    Insertion order is preserved (the cover algorithms scan in collection
    order) and structural duplicates are dropped on construction.  When no
    universe is given it defaults to the union of the dependencies'
    attributes; an explicit universe must contain every mentioned
    attribute.
    """

    __slots__ = ("_fds", "_universe")

    def __init__(self, fds: Iterable[FD] = (), universe: AttrsLike | None = None):
        kept = []
        seen = set()
        for fd in fds:
            if not isinstance(fd, FD):
                raise TypeError(f"expected FD, got {type(fd).__name__}")
            if fd not in seen:
                seen.add(fd)
                kept.append(fd)
        self._fds = tuple(kept)
        mentioned = _attrset(frozenset().union(*(fd.attributes for fd in kept)))
        if universe is None:
            self._universe = mentioned
        else:
            self._universe = AttributeSet(universe)
            _require_within(mentioned, self._universe, "attributes outside the universe")

    @property
    def universe(self) -> AttributeSet:
        return self._universe

    @property
    def fds(self) -> tuple:
        return self._fds

    def __iter__(self) -> Iterator[FD]:
        return iter(self._fds)

    def __len__(self) -> int:
        return len(self._fds)

    def __getitem__(self, index: int) -> FD:
        return self._fds[index]

    def __contains__(self, fd: object) -> bool:
        return fd in self._fds

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FDSet)
            and self._universe == other._universe
            and self._fds == other._fds
        )

    def __hash__(self) -> int:
        return hash((self._universe, self._fds))

    def __str__(self) -> str:
        return "; ".join(str(fd) for fd in self._fds)

    def __repr__(self) -> str:
        inner = ", ".join(repr(fd) for fd in self._fds)
        return f"FDSet([{inner}], universe={str(self._universe)!r})"

    def closure(self, x: AttrsLike) -> AttributeSet:
        """All attributes determined by ``x`` under this dependency set.

        The result contains ``x``, is a subset of the universe, and is a
        fixpoint: closing it again changes nothing.
        """
        x = AttributeSet(x)
        _require_within(x, self._universe, "attributes outside the universe")
        return _attrset(_close(self._fds, x))

    def implies(self, fd: FD) -> bool:
        """Whether every relation satisfying this set satisfies ``fd``.

        Decided semantically: ``fd.rhs`` must lie inside the closure of
        ``fd.lhs``.
        """
        _require_within(fd.attributes, self._universe, "dependency attributes outside the universe")
        return fd.rhs <= _close(self._fds, fd.lhs)

    def _covers(self, other: "FDSet") -> bool:
        cache: dict = {}
        for fd in other:
            cl = cache.get(fd.lhs)
            if cl is None:
                cl = _close(self._fds, fd.lhs)
                cache[fd.lhs] = cl
            if not fd.rhs <= cl:
                return False
        return True

    def equivalent(self, other: "FDSet") -> bool:
        """Whether the two sets are satisfied by exactly the same relations.

        Both sets must share a universe; each direction is checked by
        closure-based implication.
        """
        if not isinstance(other, FDSet):
            raise TypeError(f"expected FDSet, got {type(other).__name__}")
        if self._universe != other._universe:
            raise UniverseMismatchError(
                f"universes differ: {self._universe} vs {other._universe}"
            )
        return self._covers(other) and other._covers(self)

    def is_redundant(self) -> bool:
        """Whether some member is already implied by the others."""
        return len(_nonredundant(self._fds)) < len(self._fds)
