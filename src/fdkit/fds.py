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


class AttributeSet:
    """An immutable set of attributes that iterates in name order.

    The constructor accepts another :class:`AttributeSet`, an iterable of
    :class:`Attribute` or name strings, or a single string that is split
    on commas and whitespace: ``AttributeSet("A B")`` equals
    ``AttributeSet(["A", "B"])``.  (A string without separators is one
    attribute, not a sequence of characters.)

    Iteration order is the sorted order of names, so rendering is
    deterministic.  The set may be empty.
    """

    __slots__ = ("_members", "_ordered")

    def __init__(self, members: AttrsLike = ()):
        if isinstance(members, AttributeSet):
            self._members = members._members
            self._ordered = members._ordered
            return
        if isinstance(members, str):
            text = members.strip()
            members = _SPLIT.split(text) if text else []
        self._members = frozenset(
            m if isinstance(m, Attribute) else Attribute(m) for m in members
        )
        self._ordered = None

    @classmethod
    def _from_frozen(cls, members: frozenset) -> "AttributeSet":
        obj = cls.__new__(cls)
        obj._members = members
        obj._ordered = None
        return obj

    @property
    def members(self) -> frozenset:
        return self._members

    @property
    def names(self) -> tuple:
        return tuple(a.name for a in self)

    def _tuple(self) -> tuple:
        if self._ordered is None:
            self._ordered = tuple(sorted(self._members))
        return self._ordered

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._tuple())

    def __len__(self) -> int:
        return len(self._members)

    def __bool__(self) -> bool:
        return bool(self._members)

    def __contains__(self, item: object) -> bool:
        return item in self._members

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AttributeSet) and self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

    def __or__(self, other: "AttributeSet") -> "AttributeSet":
        if not isinstance(other, AttributeSet):
            return NotImplemented
        return AttributeSet._from_frozen(self._members | other._members)

    def __and__(self, other: "AttributeSet") -> "AttributeSet":
        if not isinstance(other, AttributeSet):
            return NotImplemented
        return AttributeSet._from_frozen(self._members & other._members)

    def __sub__(self, other: "AttributeSet") -> "AttributeSet":
        if not isinstance(other, AttributeSet):
            return NotImplemented
        return AttributeSet._from_frozen(self._members - other._members)

    def __le__(self, other: "AttributeSet") -> bool:
        if not isinstance(other, AttributeSet):
            return NotImplemented
        return self._members <= other._members

    def __lt__(self, other: "AttributeSet") -> bool:
        if not isinstance(other, AttributeSet):
            return NotImplemented
        return self._members < other._members

    def __ge__(self, other: "AttributeSet") -> bool:
        if not isinstance(other, AttributeSet):
            return NotImplemented
        return self._members >= other._members

    def __gt__(self, other: "AttributeSet") -> bool:
        if not isinstance(other, AttributeSet):
            return NotImplemented
        return self._members > other._members

    def __str__(self) -> str:
        return " ".join(self)

    def __repr__(self) -> str:
        return f"AttributeSet({str(self)!r})"


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
        if fd.rhs.members <= _close(rest, fd.lhs):
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
            yield AttributeSet._from_frozen(frozenset(combo))


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
        mentioned = frozenset().union(*(fd.attributes.members for fd in kept)) if kept else frozenset()
        if universe is None:
            self._universe = AttributeSet._from_frozen(mentioned)
        else:
            self._universe = AttributeSet(universe)
            _require_within(mentioned, self._universe.members, "attributes outside the universe")

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
        _require_within(x.members, self._universe.members, "attributes outside the universe")
        return AttributeSet._from_frozen(frozenset(_close(self._fds, x)))

    def implies(self, fd: FD) -> bool:
        """Whether every relation satisfying this set satisfies ``fd``.

        Decided semantically: ``fd.rhs`` must lie inside the closure of
        ``fd.lhs``.
        """
        _require_within(
            fd.attributes.members, self._universe.members, "dependency attributes outside the universe"
        )
        return fd.rhs.members <= _close(self._fds, fd.lhs)

    def _covers(self, other: "FDSet") -> bool:
        cache: dict = {}
        for fd in other:
            cl = cache.get(fd.lhs)
            if cl is None:
                cl = _close(self._fds, fd.lhs)
                cache[fd.lhs] = cl
            if not fd.rhs.members <= cl:
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
