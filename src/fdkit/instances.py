"""Finite relation instances: projection, join, and dependency satisfaction.

This module doubles as the library's independent testing ground.  It can
build the classic two-row witness that refutes any non-implied dependency,
it hosts :func:`oracle_implies`, a brute-force implication check that
never touches the closure machinery, and its token-unification repair
also runs the tableau chase that decides losslessness.

Relations have set semantics: duplicate rows collapse and row order never
affects a result.  A relation stores its rows as value tuples in the name
order of its scheme, and builds :class:`Row` objects only where it hands
rows out.  Rendering sorts rows so golden files stay stable.
"""

from __future__ import annotations

import csv
import io
import random
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import CoverageError, RelationFormatError, check_limit
from .fds import FD, Attribute, AttributeSet, AttrsLike, FDSet, _attrset, _require_within

__all__ = [
    "Row",
    "Relation",
    "join",
    "is_lossless_on",
    "two_tuple_witness",
    "oracle_implies",
    "random_satisfying_instance",
    "DEFAULT_ORACLE_LIMIT",
]

Token = Union[str, int]

DEFAULT_ORACLE_LIMIT = 12


class Row:
    """A tuple over a fixed attribute scheme: one value per attribute.

    Values are opaque atomic tokens compared structurally; they carry no
    ordering semantics.
    """

    __slots__ = ("_values", "_hash")

    def __init__(self, assignment: Mapping):
        values = {}
        for key, value in assignment.items():
            a = key if isinstance(key, Attribute) else Attribute(key)
            values[a] = value
        self._values = values
        self._hash = None

    @property
    def scheme(self) -> AttributeSet:
        return _attrset(self._values)

    def __getitem__(self, attr) -> Token:
        try:
            return self._values[attr]
        except KeyError:
            _require_within({attr}, self._values, "attribute outside the row's scheme")
            raise

    def restrict(self, y: AttrsLike) -> "Row":
        """The same row narrowed to the attributes ``y`` (a subset of the
        scheme).  Restricting to the full scheme is the identity."""
        y = AttributeSet(y)
        _require_within(y, self._values, "attributes outside the row's scheme")
        return Row({a: self._values[a] for a in y})

    def items(self):
        return sorted(self._values.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Row) and self._values == other._values

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._values.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{a.name}: {v!r}" for a, v in self.items())
        return f"Row({{{inner}}})"


class Relation:
    """A finite set of rows over a scheme.

    A relation stores its scheme and a frozenset of value tuples, each
    holding one value per attribute in the scheme's name order.
    Equality, hashing, projection, join and satisfaction work on those
    tuples; :class:`Row` objects are built only where rows are handed
    out: :attr:`rows`, iteration and :meth:`sorted_rows`.
    """

    __slots__ = ("_scheme", "_tuples")

    def __init__(self, scheme: AttrsLike, rows: Iterable = ()):
        self._scheme = AttributeSet(scheme)
        attrs = tuple(self._scheme)
        # itemgetter returns a tuple for two keys or more; the values of a
        # row of width 0 or 1 are in name order as they stand
        pick = itemgetter(*attrs) if len(attrs) > 1 else lambda values: tuple(values.values())
        collected = []
        for r in rows:
            row = r if isinstance(r, Row) else Row(r)
            if self._scheme != row._values.keys():
                raise ValueError(
                    f"row scheme {row.scheme} does not match relation scheme {self._scheme}"
                )
            collected.append(pick(row._values))
        self._tuples = frozenset(collected)

    @classmethod
    def from_rows(cls, scheme: AttrsLike, rows: Iterable[Sequence[Token]]) -> "Relation":
        """Build from positional value tuples in canonical attribute order."""
        attrs = tuple(AttributeSet(scheme))
        out = []
        for values in rows:
            values = tuple(values)
            if len(values) != len(attrs):
                raise ValueError(
                    f"expected {len(attrs)} values per row, got {len(values)}"
                )
            out.append(values)
        return _relation(attrs, out, cls)

    @property
    def scheme(self) -> AttributeSet:
        return self._scheme

    @property
    def rows(self) -> frozenset:
        """The rows, as a frozenset of :class:`Row` objects built afresh
        on each access."""
        attrs = tuple(self._scheme)
        return frozenset(_row(attrs, values) for values in self._tuples)

    def sorted_rows(self) -> list:
        """The rows as :class:`Row` objects built afresh, sorted by their
        rendered values in name order."""
        attrs = tuple(self._scheme)
        return [_row(attrs, values) for values in sorted(self._tuples, key=_rendered)]

    def __iter__(self) -> Iterator[Row]:
        """Iterate over :meth:`sorted_rows`."""
        return iter(self.sorted_rows())

    def __len__(self) -> int:
        return len(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Relation)
            and self._scheme == other._scheme
            and self._tuples == other._tuples
        )

    def __hash__(self) -> int:
        return hash((self._scheme, self._tuples))

    def __repr__(self) -> str:
        return f"Relation({self._scheme!r}, {len(self._tuples)} rows)"

    def project(self, y: AttrsLike) -> "Relation":
        """Projection onto ``y``: restrict every row, collapsing duplicates."""
        y = AttributeSet(y)
        _require_within(y, self._scheme, "attributes outside the scheme")
        return _relation(*self._table(y))

    def _table(self, y: AttributeSet) -> tuple:
        """The projection onto ``y`` (a subset of the scheme) as a table:
        ``y``'s attributes in name order and the frozenset of the distinct
        value tuples on them, in that order."""
        attrs = tuple(y)
        if len(attrs) == len(self._scheme):
            return attrs, self._tuples
        return attrs, frozenset(map(_picker(tuple(self._scheme), attrs), self._tuples))

    def satisfies(self, fd: FD) -> bool:
        """Whether no two rows agree on ``fd.lhs`` yet differ on ``fd.rhs``."""
        _require_within(fd.attributes, self._scheme, "attributes outside the scheme")
        return _conflict(tuple(self._scheme), fd, self._tuples) is None

    def satisfies_all(self, sigma: FDSet) -> bool:
        """Whether the relation satisfies every dependency in ``sigma``;
        ``True`` for an empty ``sigma``."""
        return all(self.satisfies(fd) for fd in sigma)

    def to_csv(self) -> str:
        """Render as CSV: a header of attribute names in canonical order,
        then rows sorted lexicographically by their rendered values."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self._scheme)
        writer.writerows(sorted(map(_rendered, self._tuples)))
        return buffer.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Relation":
        """Parse the CSV format written by :meth:`to_csv`.

        Values are kept as bare string tokens, so parse / render / parse
        is the identity once rows are sorted.
        """
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise RelationFormatError("relation CSV needs a header row")
        try:
            attrs = tuple(Attribute(name.strip()) for name in header)
        except ValueError as exc:
            raise RelationFormatError(str(exc))
        if len(set(attrs)) != len(attrs):
            raise RelationFormatError("duplicate attribute in CSV header")
        rows = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(attrs):
                raise RelationFormatError(
                    f"line {lineno}: expected {len(attrs)} values, got {len(record)}"
                )
            rows.append(tuple(record))
        return _relation(attrs, rows, cls)


def _picker(attrs: tuple, keys: Iterable[Attribute]) -> Callable:
    """A function from a value tuple over ``attrs`` to the tuple of its
    values on ``keys``, in that order.  Fewer than two values are picked
    as a slice, which is a tuple too."""
    positions = [attrs.index(a) for a in keys]
    if len(positions) < 2:
        return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))
    return itemgetter(*positions)


def _conflict(attrs: tuple, fd: FD, rows: Iterable[tuple]) -> Optional[tuple]:
    """The first two value tuples over ``attrs``, in ``rows`` order, that
    agree on ``fd.lhs`` but not on ``fd.rhs``, as their images on
    ``fd.rhs``: ``(earlier, later)``.  ``None`` when ``rows`` satisfy
    ``fd``."""
    lhs = _picker(attrs, fd.lhs)
    rhs = _picker(attrs, fd.rhs)
    groups: dict = {}
    for values in rows:
        image = rhs(values)
        prior = groups.setdefault(lhs(values), image)
        if prior != image:
            return prior, image
    return None


def _rendered(values: tuple) -> tuple:
    """A value tuple as rendered: each value as its ``str``."""
    return tuple(map(str, values))


def _row(attrs: tuple, values: tuple) -> Row:
    """The row with ``values`` on ``attrs``, a checked scheme's own
    attributes, so the checks of ``Row`` are skipped."""
    row = object.__new__(Row)
    row._values = dict(zip(attrs, values))
    row._hash = None
    return row


def _relation(attrs: tuple, tuples: Iterable[tuple], cls: type = Relation) -> Relation:
    """The ``cls`` relation over ``attrs``, a checked scheme's own
    attributes in any order, whose rows are the value tuples ``tuples``,
    in ``attrs`` order.

    The tuples are stored permuted into name order, the order that
    equality, hashing and rendering read them in.
    """
    rel = object.__new__(cls)
    rel._scheme = _attrset(attrs)
    order = tuple(rel._scheme)
    if order != attrs:
        tuples = map(_picker(attrs, order), tuples)
    rel._tuples = frozenset(tuples)
    return rel


# The identity of the natural join: no attributes and one empty row.
_UNIT = ((), ((),))


def _hash_join(left: tuple, right: tuple) -> tuple:
    """One step of the natural join of two tables, ``(attrs, tuples)``
    pairs whose tuples are distinct, left unbuilt.

    Indexes ``right`` on the attributes it shares with ``left`` and
    returns the result's attributes, ``left``'s followed by the rest of
    ``right``'s, and a lazy sequence of ``(t, rests)``: each tuple ``t``
    of ``left`` with the list of the rest-values of the ``right`` tuples
    that agree with it.  The result's tuples are the ``t + r`` for ``r``
    in ``rests``, all distinct, so their number is the sum of the
    lengths of the lists.
    """
    lattrs, ltuples = left
    rattrs, rtuples = right
    shared = [a for a in rattrs if a in lattrs]
    rest = tuple(a for a in rattrs if a not in lattrs)
    rkey = _picker(rattrs, shared)
    rrest = _picker(rattrs, rest)
    index: dict = {}
    for values in rtuples:
        index.setdefault(rkey(values), []).append(rrest(values))
    lkey = _picker(lattrs, shared)
    return lattrs + rest, ((values, index.get(lkey(values), ())) for values in ltuples)


def _join_to_last(tables: Sequence[tuple]) -> tuple:
    """Join ``tables`` left to right, building every step but the last,
    which is returned unbuilt as :func:`_hash_join` gives it.  The first
    table is the left side of the first step; a lone table is joined to
    the identity, so that its one step too is returned unbuilt."""
    if not tables:
        raise ValueError("join requires at least one relation")
    acc = tables[0] if len(tables) > 1 else _UNIT
    for table in tables[1:-1]:
        attrs, matches = _hash_join(acc, table)
        acc = attrs, [t + r for t, rests in matches for r in rests]
    return _hash_join(acc, tables[-1])


def join(relations: Sequence[Relation]) -> Relation:
    """Natural join: all tuples over the union scheme whose restriction to
    each input scheme appears in that input.

    Computed pairwise left to right by hash joins on value tuples; the
    result is independent of the order.  Disjoint schemes produce a full
    cross product.
    """
    attrs, matches = _join_to_last([rel._table(rel.scheme) for rel in relations])
    return _relation(attrs, (t + r for t, rests in matches for r in rests))


def is_lossless_on(instance: Relation, parts: Sequence[AttrsLike]) -> bool:
    """Whether joining the projections onto ``parts`` rebuilds ``instance``
    exactly.

    The join of projections always contains the original, so ``False``
    means strictly lossy for this instance.  The parts must cover the
    scheme.

    Since the join contains the instance, it equals the instance exactly
    when it has no more rows.  So the last step of the join is counted,
    not built, and the count stops as soon as it exceeds
    ``len(instance)``; the answer is exact.
    """
    parts = [AttributeSet(p) for p in parts]
    union = _attrset(frozenset().union(*parts))
    if union != instance.scheme:
        raise CoverageError(
            f"parts cover {union}, expected the full scheme {instance.scheme}"
        )
    _, matches = _join_to_last([instance._table(p) for p in parts])
    size, limit = 0, len(instance)
    for _, rests in matches:
        size += len(rests)
        if size > limit:
            return False
    return True


def two_tuple_witness(sigma: FDSet, x: AttrsLike) -> Relation:
    """The two-row relation over the universe whose rows agree exactly on
    the closure of ``x``.

    It satisfies ``sigma``, and it satisfies ``x -> Y`` exactly when ``Y``
    lies inside the closure, so it refutes every non-implied dependency
    with left side ``x``.  When the closure is the whole universe the two
    rows coincide and collapse to one.
    """
    closure = sigma.closure(AttributeSet(x))
    attrs = tuple(sigma.universe)
    v = tuple("0" if a in closure else "1" for a in attrs)
    return _relation(attrs, [("0",) * len(attrs), v])


def oracle_implies(sigma: FDSet, fd: FD, limit: int = DEFAULT_ORACLE_LIMIT) -> bool:
    """Brute-force implication check over all two-row relation patterns.

    Enumerates every pattern of two rows over the universe: the first row
    is a constant tuple and the second agrees with it exactly on a chosen
    subset ``W`` (encoded as a bitmask over the canonical attribute
    order).  Such a relation satisfies ``S -> T`` precisely when ``S`` not
    inside ``W`` or ``T`` inside ``W``.  The answer is ``False`` exactly
    when some pattern satisfies ``sigma`` but not ``fd``.

    Two-row patterns suffice to refute any non-implied dependency, and
    nothing here calls the closure machinery, so this is an independent
    oracle for :meth:`FDSet.implies`.  Universes beyond ``limit``
    attributes are refused.
    """
    _require_within(fd.attributes, sigma.universe, "dependency attributes outside the universe")
    n = len(sigma.universe)
    check_limit("implication oracle", n, limit)
    position = {a: i for i, a in enumerate(sigma.universe)}

    def mask(attrs: AttributeSet) -> int:
        m = 0
        for a in attrs:
            m |= 1 << position[a]
        return m

    body = [(mask(f.lhs), mask(f.rhs)) for f in sigma]
    lhs_mask = mask(fd.lhs)
    rhs_mask = mask(fd.rhs)
    for w in range(1 << n):
        if lhs_mask & w == lhs_mask and rhs_mask & w != rhs_mask:
            for s, t in body:
                if s & w == s and t & w != t:
                    break
            else:
                return False
    return True


def _unify(sigma: FDSet, rows: list) -> list:
    """Repair ``rows``, value tuples over ``sigma``'s universe in name
    order, until they satisfy ``sigma``, and return the repaired tuples.

    Each step takes the first dependency, in ``sigma``'s order, with a
    :func:`_conflict`, and renames the later row's first differing token
    to the earlier row's token everywhere.  This is the chase step of
    Aho, Beeri & Ullman.  Each step merges two tokens, so the number of
    distinct tokens strictly decreases and the loop terminates.
    """
    attrs = tuple(sigma.universe)
    while True:
        conflict = next(filter(None, (_conflict(attrs, fd, rows) for fd in sigma)), None)
        if conflict is None:
            return rows
        keep, drop = next((k, d) for k, d in zip(*conflict) if k != d)
        rows = [tuple(keep if t == drop else t for t in values) for values in rows]


def _chase(sigma: FDSet, parts: Sequence[AttributeSet]) -> Relation:
    """The chased tableau of the decomposition of ``sigma``'s universe
    into ``parts`` (Aho, Beeri & Ullman, TODS 1979).

    The tableau has one value tuple per part: the part's own attributes
    carry the attribute's bare name, every other cell a token of its
    own.  :func:`_unify` repairs it into a relation ``T`` that satisfies
    ``sigma``, and the decomposition is lossless exactly when
    ``is_lossless_on(T, parts)``; otherwise ``T`` itself is a lossy
    instance.
    """
    attrs = tuple(sigma.universe)
    rows = [
        tuple(a.name if a in part else f"{a.name}.{i}" for a in attrs)
        for i, part in enumerate(parts)
    ]
    return _relation(attrs, _unify(sigma, rows))


def _fixpoint(sigma: FDSet, seed: Iterable[Attribute]) -> set:
    """Closure of ``seed`` under ``sigma`` by the naive fixpoint: pass
    over the dependencies, firing each whose left side is reached, until
    a pass adds nothing.  The generator uses it so that its instances stay
    an independent check on the closure kernel."""
    reached = set(seed)
    grew = True
    while grew:
        grew = False
        for fd in sigma:
            if fd.lhs <= reached and not fd.rhs <= reached:
                reached |= fd.rhs
                grew = True
    return reached


def random_satisfying_instance(
    sigma: FDSet,
    rng: random.Random,
    max_witnesses: int = 3,
    max_merges: int = 2,
) -> Relation:
    """A pseudo-random relation over the universe that satisfies ``sigma``.

    Starts from a union of two-row witnesses over random seeds (all rows
    share values on the closure of the empty set, other value spaces are
    disjoint, so every pairwise agreement set is closed and the union
    satisfies ``sigma``).  Optional merges copy one row's values onto
    another over a random closed set; any violations that introduces are
    repaired by the chase step of :func:`_unify` until the instance
    satisfies ``sigma`` again.

    Raises ``ValueError`` when ``max_witnesses`` is below 1 or
    ``max_merges`` below 0.
    """
    if max_witnesses < 1:
        raise ValueError(f"max_witnesses must be at least 1, got {max_witnesses}")
    if max_merges < 0:
        raise ValueError(f"max_merges must be at least 0, got {max_merges}")
    attrs = tuple(sigma.universe)
    if not attrs:
        return _relation(attrs, [()])
    base = _fixpoint(sigma, ())
    rows: list = []
    for w in range(rng.randint(1, max_witnesses)):
        closed = _fixpoint(sigma, [a for a in attrs if rng.random() < 0.5])
        u = tuple(f"{a.name}.base" if a in base else f"{a.name}.{w}a" for a in attrs)
        v = tuple(t if a in closed else f"{a.name}.{w}b" for a, t in zip(attrs, u))
        rows += [u, v]
    for _ in range(rng.randint(0, max_merges)):
        i, j = rng.sample(range(len(rows)), 2)
        merged = _fixpoint(sigma, [a for a in attrs if rng.random() < 0.5])
        rows[j] = tuple(p if a in merged else q for a, p, q in zip(attrs, rows[i], rows[j]))
    return _relation(attrs, _unify(sigma, rows))
