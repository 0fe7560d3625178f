"""Attributes, attribute sets, functional dependencies, and relation schemes.

A functional dependency ``X -> Y`` states that any two rows agreeing on
the attributes ``X`` also agree on the attributes ``Y``.  :class:`FDSet`
holds a finite, ordered, duplicate-free collection of dependencies over a
fixed universe of attributes and answers the classic questions about it:
attribute-set closure, implication, equivalence, and redundancy.

All values here are immutable after construction and every operation is a
pure function of its inputs, so everything is safe to share across
threads.  (An :class:`FDSet` fills a private closure cache on first use,
and never changes it afterwards.)  A relation scheme pairs an attribute
set with its local dependencies, and a database schema lists schemes.
"""

from __future__ import annotations

import re
import weakref
from operator import attrgetter
from typing import AbstractSet, Collection, Iterable, Iterator, Optional, Sequence, Union

from .errors import UnknownAttributeError, UniverseMismatchError

__all__ = ["Attribute", "AttributeSet", "FD", "FDSet", "AttrsLike", "RelationScheme", "DatabaseSchema"]

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

    A ``frozenset`` method given an attribute set as its argument, such
    as ``frozenset.isdisjoint``, iterates it through :meth:`__iter__` and
    so sorts it once; call the method on the attribute set instead, as
    in ``attrs.isdisjoint(names)``, and the plain argument is probed
    unsorted.
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


def _mentioned(fds: Collection["FD"]) -> frozenset:
    """Every attribute on either side of some member of ``fds``."""
    return frozenset().union(*(fd.lhs for fd in fds), *(fd.rhs for fd in fds))


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
    touches plus the seed.  ``rhs[i]`` holds the right side of member
    ``i`` as a tuple, built with ``waiting``, so a firing walks it
    without reading the dependency or iterating an attribute set.

    The only change an index ever sees is :meth:`sweep`, which marks
    dropped members dead with a count of ``-1``, which never reaches
    zero; it runs only on a private index.  The index an :class:`FDSet`
    caches is never changed.
    """

    __slots__ = ("fds", "need", "rhs", "waiting", "free")

    def __init__(self, fds: Sequence[FD]):
        self.fds = fds
        self.need = [len(fd.lhs) or 1 for fd in fds]
        self.rhs = []
        self.waiting: dict = {}
        self.free = [i for i, fd in enumerate(fds) if not fd.lhs]
        for i, fd in enumerate(fds):
            self.rhs.append(tuple(_members(fd.rhs)))
            for a in _members(fd.lhs):
                self.waiting.setdefault(a, []).append(i)

    def sweep(self) -> list:
        """The greedy non-redundancy sweep: in member order, drop each
        member implied by the other live members, so later members are
        tested against the already shrunk set.  Returns the survivors in
        order.

        Member ``i`` is marked dead before its test, so the closure does
        not fire it, and revived when the others do not imply it.
        """
        fds, need = self.fds, self.need
        for i, fd in enumerate(fds):
            n, need[i] = need[i], -1
            if not self.close(fd.lhs, fd.rhs):
                need[i] = n
        return [fd for fd, n in zip(fds, need) if n >= 0]

    def close(self, seed: Iterable[Attribute], target: AbstractSet | None = None):
        """The closure of ``seed`` under the live members, as a plain set.

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
            rhs = self.rhs
            while queue:
                for i in queue.pop():
                    count[i] -= 1
                    if not count[i]:
                        for b in rhs[i]:
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
    int masks, for the searches that close subsets of a scheme: the first
    BCNF or 3NF witness, and the cover of a scheme's own dependencies
    that projection, and the keys and 3NF verdict of a narrower scheme,
    start from.

    Each attribute of ``sigma.universe`` owns one bit, in name order.
    The universe, not the scheme: a closure may pass through attributes
    outside the scheme on its way back in.  ``sigma`` is compiled once
    into ``(lhs, rhs)`` mask pairs, kept in order in ``pairs`` and listed
    under each bit of their left side, and every scheme scanned reuses
    them; pairs with an empty left side seed the closure of the empty
    set.  ``used`` is the union of the bits the pairs mention, and
    ``left`` the union of their left-side bits: the only bits that fire
    anything, and the only ones :meth:`scan` walks.  :meth:`mask` and
    :meth:`attrs` convert between attribute sets and masks.

    A scheme that holds its dependencies, one whose mask covers ``used``,
    has ``pairs`` as a cover of its own dependencies; any other scheme
    has :meth:`cover`, built by one scan, and :meth:`project` sweeps
    that cover into the projection of ``sigma`` onto the scheme.  The
    scan's map of the subsets one size smaller, ``prev``, is read only
    here, by :meth:`cover`.
    """

    __slots__ = ("names", "bit", "pairs", "used", "left", "waiting", "bottom")

    def __init__(self, sigma: "FDSet"):
        self.names = tuple(sigma.universe)
        bit = self.bit = {a: 1 << i for i, a in enumerate(self.names)}
        self.pairs = []
        self.waiting: dict = {}
        bottom = used = 0
        for fd in sigma:
            lhs = sum(bit[a] for a in _members(fd.lhs))
            rhs = sum(bit[a] for a in _members(fd.rhs))
            self.pairs.append((lhs, rhs))
            used |= lhs | rhs
            if not lhs:
                bottom |= rhs
            for a in _members(fd.lhs):
                self.waiting.setdefault(bit[a], []).append((lhs, rhs))
        self.used = used
        self.left = sum(self.waiting)
        self.bottom = self._grow(bottom, bottom)

    def mask(self, attrs: AttributeSet) -> int:
        """The bits of ``attrs``, which must lie inside the universe."""
        _require_within(attrs, self.bit, "attributes outside the universe")
        return sum(self.bit[a] for a in _members(attrs))

    def attrs(self, mask: int) -> AttributeSet:
        """The attributes of the bits of ``mask``."""
        names = self.names
        return _attrset(names[i] for i in range(mask.bit_length()) if mask >> i & 1)

    def close(self, s: int) -> int:
        """The closure of the mask ``s``."""
        s |= self.bottom
        return self._grow(s, s)

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
        """Yield ``(s, closure(s), prev)`` for the subsets ``s`` of
        ``full & left``, the bits of the scheme ``full`` that are some
        left side: every free one whose closure does not cover ``full &
        left``, every one whose closure does that is reached from such a
        subset by adding one bit above its last one, and some that are
        not free, in (size, canonical) order: smaller subsets first, and
        subsets of one size in lexicographic name order, the order of
        ``itertools.combinations``.  This order fixes the witness each
        search reports first.  A subset is free when no member lies in
        the closure of the others.

        The subsets of one size are those of the size before, in their
        order, each extended by every bit of ``full & left`` above its
        last one.  ``s`` is closed from the closure of its base ``s -
        last`` by firing only the members that wait on newly reached
        bits.  Two kinds of subset are never extended, so none of their
        proper supersets is closed.  A subset whose closure covers
        ``full & left`` is yielded, but not extended (see Pruning
        below).  A subset whose ``last`` already lies in the closure of
        its base is not even yielded: it is not free, and neither is any
        set holding it.  No search needs a subset that is not free: keys
        are free; the first BCNF or 3NF witness is free, since dropping a
        member the rest determine leaves a smaller set with the same
        closure, which violates too and comes first; and :meth:`cover`
        skips every candidate that is not free.

        Leaving out the bits that are no left side changes no answer.
        Such a bit ``a`` fires nothing, so ``closure(S) = closure(S - a)
        | a`` for every ``S`` holding it.

        * First witness.  If ``S`` holds ``a`` and violates, then ``S -
          a`` is no superkey, determines every dependent of ``S``, so
          violates too, and comes first.
        * Cover.  ``img(S) = img(S - a) | a``, so the filter in
          :meth:`cover` skipped ``S`` already.
        * Pruning.  If ``closure(P)`` covers ``full & left``, every
          larger ``T`` inside ``full & left`` lies inside ``closure(P)``
          and so has ``P``'s closure: ``P`` comes first as a witness, and
          ``T``'s candidate carries ``P``'s image.
        * Keys.  Lucchesi and Osborn's search reads only the cover,
          which is still a cover.

        ``prev`` maps every subset of the size before that was yielded
        and whose closure does not cover ``full & left`` to its
        closure, and holds no other subset, so a one-smaller subset
        missing from it is a superkey, or has a closure that covers
        ``full & left``, or is not free.  Only two sizes are held at
        once.
        """
        full &= self.left
        grow = self._grow
        bits = []
        rest = full
        while rest:
            bits.append(rest & -rest)
            rest ^= bits[-1]
        # the bit length of a subset's last bit -> the scheme bits above it
        above = {0: bits}
        for i, b in enumerate(bits):
            above[b.bit_length()] = bits[i + 1 :]
        prev = {0: self.bottom} if full & ~self.bottom else {}
        yield 0, self.bottom, {}
        while prev:
            cur = {}
            for base, closed in prev.items():
                for last in above[base.bit_length()]:
                    if closed & last:
                        continue
                    s = base | last
                    image = grow(closed | last, last)
                    if full & ~image:
                        cur[s] = image
                    yield s, image, prev
            prev = cur

    def cover(self, full: int) -> Iterator[tuple]:
        """Yield a cover of the dependencies of the scheme ``full``, as
        it scans: the mask pairs ``(S, img(S) - S)``, where ``img(S)``
        is ``closure(S) & full``, for the subsets ``S`` the scan yields,
        in scan order, except those skipped below.  Each candidate ``S
        -> img(S) - S`` is implied and lies inside the scheme, and the
        candidates of every subset imply every dependency inside it; the
        pairs kept imply the same, since sweeping them gives what
        sweeping every candidate gives, as shown below.

        A subset is skipped when its proper subsets already give its
        image: ``img(S)`` lies inside ``S`` and the images of the ``S -
        a``, read from the closures the scan holds in ``prev``.  A
        missing ``S - a`` is a superkey, has a closure that covers ``full
        & left``, or is not free, and its image is taken as all of
        ``full``: the scheme's own mask, not the scan's ``full & left``.
        That only ever skips an ``S`` that is not free, which is sound
        (below): ``S`` lies inside ``full & left``, so in the first two
        cases ``S - a`` determines ``a``, and in the third ``S`` holds a
        set that is not free.  Every ``S`` that is not free, with an
        ``a`` in the closure of the rest, is skipped so: ``S - a`` has
        the closure of ``S``, or is missing.  If ``S`` is free, so is
        every ``S - a``, and none is missing.

        Skipping leaves unchanged what the greedy non-redundancy sweep
        makes of the candidates of every subset in (size, canonical)
        order; a subset the scan does not yield is not free, or holds a
        bit that is no left side, which this test would skip (see
        :meth:`scan`), and counts as skipped.  An ``S`` that is not free
        carries the image of that ``S - a``.  The sweep would drop a free ``S`` that the test
        skips: closing ``S - a`` never fires ``S``, which is free, so
        the other candidates give each ``img(S - a)`` and with them
        ``img(S)``.  Nor does ``S`` decide the fate of another candidate
        ``T -> ...``.  ``S`` can fire in the closure of ``T`` only
        inside ``img(T)``, and then ``T`` lies in no ``img(S - a)``, or
        ``S`` would lie there too and not be free.  So the candidate
        under test never fires while an ``S - a`` is closed, the others
        give each ``img(S - a)`` without ``S`` or any other skipped
        candidate (by induction on the size of the image, which shrinks
        from ``S`` to ``S - a``), and ``S`` adds nothing.
        """
        for s, closed, prev in self.scan(full):
            image = closed & full
            if not image & ~s:
                continue
            given = rest = s
            while rest and image & ~given:
                b = rest & -rest
                given |= prev.get(s ^ b, full)
                rest ^= b
            if image & ~given:
                yield s, image & ~s

    def project(self, full: int) -> "FDSet":
        """The projection of ``sigma`` onto the scheme ``full``: the
        pairs of :meth:`cover` as dependencies, in scan order, after the
        greedy non-redundancy sweep.  Its universe is the scheme."""
        fds = [FD(self.attrs(lhs), self.attrs(rhs)) for lhs, rhs in self.cover(full)]
        return FDSet(_ClosureIndex(fds).sweep(), universe=self.attrs(full))


class FDSet:
    """An ordered, duplicate-free collection of dependencies over a universe.

    Insertion order is preserved (the cover algorithms scan in collection
    order) and structural duplicates are dropped on construction: every
    member is checked to be an :class:`FD` first, then one
    ``dict.fromkeys`` keeps each first occurrence, hashing each member
    once.  That dict is kept beside the ordered members, so ``fd in
    sigma`` is one hash lookup.  When no universe is given it defaults to
    the union of the dependencies' attributes; an explicit universe must
    contain every mentioned attribute.

    Implication and equivalence answer a stated member before any
    closure: a set implies its own members, so :meth:`implies` returns
    ``True`` for one, and :meth:`equivalent` closes only the members of
    each side that the other side does not state.  Every closure asks one
    :class:`_ClosureIndex`, built on the first such question and kept for
    the life of the set; implication tests stop as soon as the right side
    is reached.  The index is never changed after it is built, so the set
    stays safe to share across threads: two threads racing to build it
    each build an equal one, and either may be kept.  It is not pickled.
    Redundancy runs the non-redundancy sweep, which changes the index it
    runs on, so it builds a private one.
    """

    __slots__ = ("_fds", "_members", "_universe", "_index")

    def __init__(self, fds: Iterable[FD] = (), universe: AttrsLike | None = None):
        fds = tuple(fds)
        for fd in fds:
            if not isinstance(fd, FD):
                raise TypeError(f"expected FD, got {type(fd).__name__}")
        self._members = dict.fromkeys(fds)
        self._fds = tuple(self._members)
        self._index = None
        mentioned = _attrset(_mentioned(self._fds))
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
        return isinstance(fd, FD) and fd in self._members

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
        ``fd.lhs``.  A member of this set is implied without a closure.
        """
        _require_within(fd.attributes, self._universe, "dependency attributes outside the universe")
        return fd in self._members or self._closure_index().close(fd.lhs, target=fd.rhs)

    def _closure_index(self) -> _ClosureIndex:
        index = self._index
        if index is None:
            index = self._index = _ClosureIndex(self._fds)
        return index

    def _covers(self, other: "FDSet") -> bool:
        """Whether this set implies every member of ``other``; only the
        members this set does not state are closed."""
        unstated = [fd for fd in other._fds if fd not in self._members]
        if not unstated:
            return True
        close = self._closure_index().close
        return all(close(fd.lhs, target=fd.rhs) for fd in unstated)

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
        """Whether some member is already implied by the others.

        Asks the non-redundancy sweep on a private index: the sweep drops
        nothing until it reaches the first member the others imply.
        """
        return len(_ClosureIndex(self._fds).sweep()) < len(self._fds)


class _Record:
    """A frozen record: the value classes of fdkit, without the cost of
    importing and running ``dataclasses`` when a process starts.

    A subclass annotates its fields in order, gives trailing ones a
    default by assignment, and may set ``_compared`` to the number of
    leading fields that equality and hashing read (all of them when
    unset); a subclass that annotates nothing keeps its parent's fields.
    A record equals only a record of its own class.
    ``__post_init__`` runs once the fields are bound and may rebind them
    with ``object.__setattr__``; any other assignment or deletion raises
    ``AttributeError``, and arguments that do not name each required
    field once, and no other field twice, raise ``TypeError``.  The
    ``repr`` lists every field, and a record pickles and copies through
    its ``__dict__``, where a field left at its default is not stored.
    """

    _compared = None

    def __init_subclass__(cls):
        cls._fields = fields = tuple(cls.__annotations__) or cls._fields
        cls._required = sum(not hasattr(cls, f) for f in fields)
        cls._key = attrgetter(*fields[: cls._compared])

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or not self._required <= len(args) <= len(fields):
            named = {*fields[: len(args)], *kwargs}
            if len(named) < len(args) + len(kwargs) or not set(fields[: self._required]) <= named <= set(fields):
                raise TypeError(f"{type(self).__name__}() takes {fields}, the first {self._required} required")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name, value in kwargs.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._key(self) == self._key(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class RelationScheme(_Record):
    """An attribute set together with its local dependencies.

    The local dependency set's universe is normalised to the scheme's
    attributes; a dependency mentioning anything else is rejected.  The
    name does not take part in equality.
    """

    attrs: AttributeSet
    fds: FDSet
    name: Optional[str] = None
    _compared = 2

    def __post_init__(self):
        attrs = AttributeSet(self.attrs)
        object.__setattr__(self, "attrs", attrs)
        if not (isinstance(self.fds, FDSet) and self.fds.universe == attrs):
            object.__setattr__(self, "fds", FDSet(self.fds, universe=attrs))

    def __str__(self) -> str:
        label = self.name or "scheme"
        return f"{label}({', '.join(self.attrs.names)})"


class DatabaseSchema(_Record):
    """An ordered collection of relation schemes.

    The universe is the union of the schemes' attributes, and the global
    dependency set is the union of the local ones over that universe.
    """

    schemes: tuple

    def __post_init__(self):
        object.__setattr__(self, "schemes", tuple(self.schemes))
        for s in self.schemes:
            if not isinstance(s, RelationScheme):
                raise TypeError(f"expected RelationScheme, got {type(s).__name__}")

    @property
    def universe(self) -> AttributeSet:
        return _attrset(frozenset().union(*(s.attrs for s in self.schemes)))

    def global_fds(self) -> FDSet:
        return FDSet([fd for s in self.schemes for fd in s.fds], universe=self.universe)

    def __iter__(self):
        return iter(self.schemes)

    def __len__(self) -> int:
        return len(self.schemes)
