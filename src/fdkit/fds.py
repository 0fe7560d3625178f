"""Attributes, attribute sets, and functional dependencies.

A functional dependency ``X -> Y`` states that any two rows agreeing on
the attributes ``X`` also agree on the attributes ``Y``.  :class:`FDSet`
holds a finite, ordered, duplicate-free collection of dependencies over a
fixed universe of attributes and answers the classic questions about it:
attribute-set closure, implication, equivalence, and redundancy.

All values here are immutable after construction and every operation is a
pure function of its inputs, so everything is safe to share across
threads.  (An :class:`FDSet` fills a private closure cache on first use,
and never changes it afterwards.)
"""

from __future__ import annotations

import re
import weakref
from typing import AbstractSet, Collection, Iterable, Iterator, Sequence, Union

from .errors import UnknownAttributeError, UniverseMismatchError

__all__ = ["Attribute", "AttributeSet", "FD", "FDSet", "AttrsLike"]

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_SPLIT = re.compile(r"[\s,]+")
_INTERNED: dict = {}  # each name's one Attribute, keyed by itself; see Attribute
_SWEEP_FLOOR = 1 << 16  # the table is swept only from this size on; see _sweep
_sweep_at = _SWEEP_FLOOR
_NOTHING = frozenset()
_members = frozenset.__iter__  # unordered, without AttributeSet's sorted cache


class Attribute(str):
    """A named column: a ``str`` holding a validated name.

    Names follow the identifier grammar ``[A-Za-z_][A-Za-z0-9_]*`` and are
    case sensitive.  Equality, hashing and ordering are those of the name
    itself, so ``Attribute("A") == "A"``.

    Each name is built once and then shared.  An instance of a ``str``
    subclass carries its own copy of the text, about 100 bytes; sharing
    lets dependencies and parsed documents hold one object per name, and
    building a name already known costs one ``dict.get``.  The shared
    table lets go of the names nothing else uses each time it has doubled
    since it last did (see :func:`_sweep`), so a process that meets ever
    new names holds at most about twice the names in use.
    """

    __slots__ = ("__weakref__",)

    def __new__(cls, name: str):
        if isinstance(name, str):
            known = _INTERNED.get(name)
            if known is not None:
                return known
            if _NAME.match(name):
                if len(_INTERNED) >= _sweep_at:
                    _sweep()
                attr = str.__new__(cls, name)
                return _INTERNED.setdefault(attr, attr)
        raise ValueError(f"invalid attribute name: {name!r}")

    @property
    def name(self) -> str:
        return str(self)

    def __repr__(self) -> str:
        return f"Attribute({str(self)!r})"


def _sweep() -> None:
    """Drop from the shared table the attributes nothing else holds, and
    let it grow to twice its new size, and at least to the floor, before
    the next sweep.  A sweep costs one weak reference per name in the
    table, which has doubled since the last one, so the cost per name
    built stays bounded.

    The table gives up its own references first: an attribute nothing
    else holds is freed then, and the weak references find the rest.  The
    table holds its attributes strongly between sweeps, so a lookup stays
    one ``dict.get``, and a name whose users come and go, such as a
    document parsed again and again, is built once, not once per use.  A
    name that another thread builds during a sweep may get a second,
    equal attribute; equality and hashing are by name, so only the
    sharing is lost.
    """
    global _sweep_at
    held = [weakref.ref(a) for a in _INTERNED]
    _INTERNED.clear()
    for ref in held:
        attr = ref()
        if attr is not None:
            _INTERNED[attr] = attr
    _sweep_at = max(_SWEEP_FLOOR, 2 * len(_INTERNED))


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
            members = _split(members)
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


def _split(text: str) -> list:
    """The names of a list separated by commas and whitespace, in order.
    A leading or trailing comma leaves an empty name at that end."""
    text = text.strip()
    return _SPLIT.split(text) if text else []


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


class _ClosureIndex:
    """The LinClosure index of a list of dependencies (Beeri & Bernstein,
    TODS 1979), built once and asked many closures.

    ``need[i]`` counts the left-side attributes of member ``i``, and
    ``waiting`` maps each attribute to the members whose left side
    contains it.  Members with an empty left side wait in ``free``
    instead, with a count of one, as if on an attribute every closure
    reaches.  A closure copies ``need`` as its counters, walks the newly
    reached attributes through ``waiting``, and fires a member when its
    counter reaches zero.  Each member fires at most once, so beyond the
    copy of the counters the cost is linear in the size of the members it
    touches plus the seed.  The sides are read from the dependencies
    themselves: the index holds no copy of them.

    The cover rewrites change their own private index in place: a dropped
    member's count is ``-1``, which never reaches zero, and a shrunk left
    side leaves the lists of the attributes it lost.  The index an
    :class:`FDSet` caches is never changed.
    """

    __slots__ = ("fds", "need", "waiting", "free")

    def __init__(self, fds: Sequence[FD]):
        self.fds = fds
        self.need: list = []
        self.waiting: dict = {}
        self.free: list = []
        for fd in fds:
            self._enter(fd)

    def _enter(self, fd: FD) -> None:
        i = len(self.need)
        self.need.append(len(fd.lhs) or 1)
        if not fd.lhs:
            self.free.append(i)
        for a in _members(fd.lhs):
            self.waiting.setdefault(a, []).append(i)

    def add(self, fd: FD) -> None:
        """Append ``fd`` as a new member."""
        self.fds.append(fd)
        self._enter(fd)

    def drop(self, i: int) -> None:
        """Remove member ``i``: it never fires again."""
        self.need[i] = -1

    def shrink(self, i: int, lhs: AttributeSet) -> None:
        """Give member ``i`` the left side ``lhs``, a subset of its own."""
        old = self.fds[i]
        for a in old.lhs.difference(lhs):
            self.waiting[a].remove(i)
        self.need[i] = len(lhs) or 1
        if not lhs:
            self.free.append(i)
        self.fds[i] = FD(lhs, old.rhs)

    def sweep(self) -> list:
        """The greedy non-redundancy sweep: in member order, drop each
        member implied by the other live members, so later members are
        tested against the already shrunk set.  Returns the survivors in
        order."""
        fds = self.fds
        for i in range(len(fds)):
            if self.need[i] >= 0 and self.close(fds[i].lhs, i, fds[i].rhs):
                self.drop(i)
        return [fd for fd, n in zip(fds, self.need) if n >= 0]

    def close(self, seed: Iterable[Attribute], skip: int = -1, target: AbstractSet | None = None):
        """The closure of ``seed`` under the live members other than
        ``skip``, as a plain set.

        With a ``target``, returns instead whether the closure contains
        the target, stopping as soon as it does.
        """
        reached = set(seed)
        left = _NOTHING
        if target is not None:
            left = target.difference(reached)
            if not left:
                return True
        remaining = len(left)
        waiting = self.waiting
        # A queue entry is the member list of one newly reached attribute.
        queue = []
        for a in reached:
            if a in waiting:
                queue.append(waiting[a])
        if self.free:
            queue.append(self.free)
        if queue:
            count = self.need[:]
            if skip >= 0:
                count[skip] = -1
            fds = self.fds
            while queue:
                for i in queue.pop():
                    count[i] -= 1
                    if not count[i]:
                        for b in _members(fds[i].rhs):
                            if b not in reached:
                                reached.add(b)
                                if b in left:
                                    remaining -= 1
                                    if not remaining:
                                        return True
                                members = waiting.get(b)
                                if members:
                                    queue.append(members)
        return reached if target is None else False


def _require_within(attrs: AbstractSet, allowed: Collection, what: str) -> None:
    """Refuse the members of ``attrs`` missing from ``allowed`` with
    :class:`UnknownAttributeError`: ``what``, a colon, then the stray
    names in name order."""
    stray = attrs.difference(allowed)
    if stray:
        raise UnknownAttributeError(f"{what}: {' '.join(map(str, sorted(stray)))}")


class _Lattice:
    """The subset lattices of the schemes inside ``sigma``'s universe, on
    int masks, for the searches that close every subset of a scheme:
    keys, BCNF and 3NF, and projection.

    Each attribute of ``sigma.universe`` owns one bit, in name order.
    The universe, not the scheme: a closure may pass through attributes
    outside the scheme on its way back in.  ``sigma`` is compiled once
    into ``(lhs, rhs)`` mask pairs, listed under each bit of their left
    side, and every scheme scanned reuses them; pairs with an empty left
    side seed the closure of the empty set.  :meth:`mask` and
    :meth:`attrs` convert between attribute sets and masks.
    """

    __slots__ = ("names", "bit", "waiting", "bottom")

    def __init__(self, sigma: "FDSet"):
        self.names = tuple(sigma.universe)
        bit = self.bit = {a: 1 << i for i, a in enumerate(self.names)}
        self.waiting: dict = {}
        bottom = 0
        for fd in sigma:
            lhs = sum(bit[a] for a in _members(fd.lhs))
            rhs = sum(bit[a] for a in _members(fd.rhs))
            if not lhs:
                bottom |= rhs
            for a in _members(fd.lhs):
                self.waiting.setdefault(bit[a], []).append((lhs, rhs))
        self.bottom = self._grow(bottom, bottom)

    def mask(self, attrs: AttributeSet) -> int:
        """The bits of ``attrs``, which must lie inside the universe."""
        _require_within(attrs, self.bit, "attributes outside the universe")
        return sum(self.bit[a] for a in _members(attrs))

    def attrs(self, mask: int) -> AttributeSet:
        """The attributes of the bits of ``mask``."""
        names = self.names
        return _attrset(names[i] for i in range(mask.bit_length()) if mask >> i & 1)

    def _grow(self, closed: int, new: int) -> int:
        """The closure of ``closed``, which is closed already under every
        member that does not wait on a bit of ``new``."""
        waiting = self.waiting
        while new:
            b = new & -new
            new ^= b
            for lhs, rhs in waiting.get(b, ()):
                if not lhs & ~closed and rhs & ~closed:
                    new |= rhs & ~closed
                    closed |= rhs
        return closed

    def scan(self, full: int) -> Iterator[tuple]:
        """Yield ``(s, closure(s), prev)`` for every subset ``s`` of the
        scheme ``full``, in (size, canonical) order: smaller subsets
        first, and subsets of one size in lexicographic name order, the
        order of ``itertools.combinations``.  This order fixes the
        witness each search reports first.

        The subsets of one size are those of the size before, in their
        order, each extended by every scheme bit above its last one.  So
        every ``s - last``, and indeed every ``s - a``, was visited one
        size earlier, and ``prev`` maps each of them to its closure.
        ``s`` is closed from the closure of ``s - last``: unchanged when
        that already holds ``last``, and otherwise grown by firing only
        the members that wait on newly reached bits.  Only two sizes are
        held at once.
        """
        grow = self._grow
        bits = []
        while full:
            bits.append(full & -full)
            full ^= bits[-1]
        # the bit length of a subset's last bit -> the scheme bits above it
        above = {0: bits}
        for i, b in enumerate(bits):
            above[b.bit_length()] = bits[i + 1 :]
        prev = {0: self.bottom}
        yield 0, self.bottom, {}
        for _ in bits:
            cur = {}
            for base, closed in prev.items():
                for last in above[base.bit_length()]:
                    s = base | last
                    image = closed if closed & last else grow(closed | last, last)
                    cur[s] = image
                    yield s, image, prev
            prev = cur


def _free(s: int, prev: dict) -> bool:
    """Whether no bit of ``s`` lies in the closure of the rest of ``s``,
    read from ``prev``, the closures of its one-smaller subsets.

    A superkey is a key exactly when it is free, and a projection needs
    only the left sides that are free: dropping a bit in the closure of
    the rest keeps the image."""
    rest = s
    while rest:
        b = rest & -rest
        if prev[s ^ b] & b:
            return False
        rest ^= b
    return True


class FDSet:
    """An ordered, duplicate-free collection of dependencies over a universe.

    Insertion order is preserved (the cover algorithms scan in collection
    order) and structural duplicates are dropped on construction.  When no
    universe is given it defaults to the union of the dependencies'
    attributes; an explicit universe must contain every mentioned
    attribute.

    Closure, implication, equivalence and redundancy all ask one
    :class:`_ClosureIndex`, built on the first such question and kept for
    the life of the set; implication tests stop as soon as the right side
    is reached.  The index is never changed after it is built, so the set
    stays safe to share across threads: two threads racing to build it
    each build an equal one, and either may be kept.  It is not pickled.
    """

    __slots__ = ("_fds", "_universe", "_index")

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
        self._index = None
        mentioned = _attrset(
            frozenset().union(*(fd.lhs for fd in kept), *(fd.rhs for fd in kept))
        )
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

    def __reduce__(self):
        return (FDSet, (self._fds, self._universe))

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
        return _attrset(self._closure_index().close(x))

    def implies(self, fd: FD) -> bool:
        """Whether every relation satisfying this set satisfies ``fd``.

        Decided semantically: ``fd.rhs`` must lie inside the closure of
        ``fd.lhs``.
        """
        _require_within(fd.attributes, self._universe, "dependency attributes outside the universe")
        return self._closure_index().close(fd.lhs, target=fd.rhs)

    def _closure_index(self) -> _ClosureIndex:
        index = self._index
        if index is None:
            index = self._index = _ClosureIndex(self._fds)
        return index

    def _covers(self, other: "FDSet") -> bool:
        close = self._closure_index().close
        return all(close(fd.lhs, target=fd.rhs) for fd in other)

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
        close = self._closure_index().close
        return any(close(fd.lhs, i, fd.rhs) for i, fd in enumerate(self._fds))
