"""Finite relation instances: projection, join, and dependency satisfaction.

This module doubles as the library's independent testing ground.  It can
build the classic two-row witness that refutes any non-implied dependency,
it hosts :func:`oracle_implies`, a brute-force implication check that
never touches the closure machinery, and it runs the tableau chase that
decides losslessness, by congruence closure over the tableau's cells.
The random-instance generator repairs its rows with the older token
renaming loop, :func:`_unify`.

Relations have set semantics: duplicate rows collapse and row order never
affects a result.  A relation stores its rows as value tuples in the name
order of its scheme, and builds :class:`Row` objects only where it hands
rows out.  Rendering sorts rows so golden files stay stable.
"""

from __future__ import annotations

import csv
import io
import random
from collections import Counter
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import DEFAULT_LIMIT, CoverageError, RelationFormatError, check_limit
from .fds import FD, Attribute, AttributeSet, AttrsLike, FDSet, _attrset, _require_within

__all__ = [
    "Row",
    "Relation",
    "join",
    "is_lossless_on",
    "two_tuple_witness",
    "oracle_implies",
    "random_satisfying_instance",
]

Token = Union[str, int]


def _pattern_columns(width: int) -> tuple[int, ...]:
    """Each attribute's column over the ``2**width`` two-row patterns:
    column ``i`` is an int whose bit ``w`` is ``(w >> i) & 1``.  Adding
    attribute ``k`` doubles the patterns: the ones from ``2**k`` on copy
    the earlier columns and are the ones that agree on ``k``."""
    columns, size = [], 1
    for _ in range(width):
        columns = [c | c << size for c in columns] + [((1 << size) - 1) << size]
        size <<= 1
    return tuple(columns)


_BLOCK_WIDTH = 12
_PATTERN_COLUMNS = _pattern_columns(_BLOCK_WIDTH)


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
        attrs = tuple(self._scheme)
        return _conflict(_picker(attrs, fd.lhs), _picker(attrs, fd.rhs), self._tuples) is None

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


def _conflict(lhs: Callable, rhs: Callable, rows: Iterable[tuple]) -> Optional[tuple]:
    """The first two value tuples of ``rows``, in their order, that agree
    on the picker ``lhs`` but not on the picker ``rhs``, as their images
    under ``rhs``: ``(earlier, later)``.  ``None`` when ``rows`` satisfy
    the dependency the pickers stand for."""
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


def _shared_keys(lattrs: tuple, rattrs: tuple) -> tuple:
    """The pickers of the attributes two tables share, in ``rattrs``
    order: the one for ``lattrs`` tuples, then the one for ``rattrs``
    tuples."""
    shared = [a for a in rattrs if a in lattrs]
    return _picker(lattrs, shared), _picker(rattrs, shared)


def _hash_join(left: tuple, right: tuple) -> tuple:
    """One step of the natural join of two tables, ``(attrs, tuples)``
    pairs whose tuples are distinct.

    Indexes ``right`` on the attributes it shares with ``left`` and
    returns the result's attributes, ``left``'s followed by the rest of
    ``right``'s, and a lazy iterator of the result's tuples, all
    distinct: each tuple of ``left`` followed by the rest-values of each
    ``right`` tuple that agrees with it.
    """
    lattrs, ltuples = left
    rattrs, rtuples = right
    lkey, rkey = _shared_keys(lattrs, rattrs)
    rest = tuple(a for a in rattrs if a not in lattrs)
    rrest = _picker(rattrs, rest)
    index: dict = {}
    for values in rtuples:
        index.setdefault(rkey(values), []).append(rrest(values))
    return lattrs + rest, (t + r for t in ltuples for r in index.get(lkey(t), ()))


def _join_to_last(tables: Sequence[tuple]) -> tuple:
    """Join every table but the last, left to right, and return that
    join and the last table, for the last step to be built or counted.
    A lone table is returned beside the identity of the join."""
    if not tables:
        raise ValueError("join requires at least one relation")
    acc = tables[0] if len(tables) > 1 else _UNIT
    for table in tables[1:-1]:
        attrs, tuples = _hash_join(acc, table)
        acc = attrs, list(tuples)
    return acc, tables[-1]


def join(relations: Sequence[Relation]) -> Relation:
    """Natural join: all tuples over the union scheme whose restriction to
    each input scheme appears in that input.

    Computed pairwise left to right by hash joins on value tuples; the
    result is independent of the order.  Disjoint schemes produce a full
    cross product.
    """
    attrs, tuples = _hash_join(*_join_to_last([rel._table(rel.scheme) for rel in relations]))
    return _relation(attrs, tuples)


def is_lossless_on(instance: Relation, parts: Sequence[AttrsLike]) -> bool:
    """Whether joining the projections onto ``parts`` rebuilds ``instance``
    exactly.

    The join of projections always contains the original, so ``False``
    means strictly lossy for this instance.  The parts must cover the
    scheme.

    Since the join contains the instance, it equals the instance exactly
    when it has no more rows.  So the last step of the join is counted,
    not built: each tuple of the join before it adds the number of tuples
    of the last part that agree with it, and the count stops as soon as
    it exceeds ``len(instance)``; the answer is exact.
    """
    parts = [AttributeSet(p) for p in parts]
    union = _attrset(frozenset().union(*parts))
    if union != instance.scheme:
        raise CoverageError(
            f"parts cover {union}, expected the full scheme {instance.scheme}"
        )
    (lattrs, ltuples), (rattrs, rtuples) = _join_to_last([instance._table(p) for p in parts])
    lkey, rkey = _shared_keys(lattrs, rattrs)
    matches = Counter(map(rkey, rtuples)).get
    size, limit = 0, len(instance)
    for values in ltuples:
        size += matches(lkey(values), 0)
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


def oracle_implies(sigma: FDSet, fd: FD, limit: int = DEFAULT_LIMIT) -> bool:
    """Brute-force implication check over all two-row relation patterns.

    Enumerates every pattern of two rows over the universe: the first row
    is a constant tuple and the second agrees with it exactly on a chosen
    subset ``W``.  Such a relation satisfies ``S -> T`` precisely when
    ``S`` not inside ``W`` or ``T`` inside ``W``.  The answer is ``False``
    exactly when some pattern satisfies ``sigma`` but not ``fd``.

    The patterns are tested in blocks of up to 4096, one bit each of a
    Python int.  Over the first twelve attributes in the canonical order,
    pattern ``w`` agrees on attribute ``i`` when bit ``i`` of ``w`` is
    set, so attribute ``i`` owns a fixed column whose bit ``w`` is
    ``(w >> i) & 1``, and the AND of a set's columns holds the patterns
    that agree on the whole set.  A wider universe takes one block for
    each setting of its higher attributes, where each of their columns is
    all ones or empty.  The candidates of a block start as the patterns
    that agree on ``fd``'s left side but not its right, and each member
    ``S -> T`` of ``sigma`` keeps only those that disagree somewhere on
    ``S`` or agree on all of ``T``.  So every pattern is still tested
    against every dependency until one rejects it, as a loop over the
    patterns would; one big-integer operation tests a whole block.  The
    work stays exponential in the width.

    Two-row patterns suffice to refute any non-implied dependency, and
    nothing here calls the closure machinery, so this is an independent
    oracle for :meth:`FDSet.implies`.  Universes beyond ``limit``
    attributes are refused.
    """
    _require_within(fd.attributes, sigma.universe, "dependency attributes outside the universe")
    n = len(sigma.universe)
    check_limit("implication oracle", n, limit)
    low = min(n, _BLOCK_WIDTH)
    full = (1 << (1 << low)) - 1
    universe = tuple(sigma.universe)
    column = dict(zip(universe, _PATTERN_COLUMNS))
    higher = universe[low:]

    def agree(attrs: AttributeSet) -> int:
        patterns = full
        for a in attrs:
            patterns &= column[a]
        return patterns

    for block in range(1 << (n - low)):
        for j, a in enumerate(higher):
            column[a] = full if block >> j & 1 else 0
        candidates = agree(fd.lhs) & ~agree(fd.rhs)
        for f in sigma:
            if not candidates:
                break
            candidates &= ~agree(f.lhs) | agree(f.rhs)
        if candidates:
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

    Every step starts again from the first dependency and rewrites every
    row, so the work grows with rows times merges; :func:`_chase` avoids
    that with congruence closure.  :func:`random_satisfying_instance`
    keeps this loop: its inputs hold two rows per witness and need few
    merges, and on 8-row inputs a prototype union-find repair took about
    0.18 ms per instance where this loop took about 0.10 ms (Python 3.11,
    two shared cores).
    """
    attrs = tuple(sigma.universe)
    pickers = [(_picker(attrs, fd.lhs), _picker(attrs, fd.rhs)) for fd in sigma]
    while True:
        conflict = next(filter(None, (_conflict(lhs, rhs, rows) for lhs, rhs in pickers)), None)
        if conflict is None:
            return rows
        keep, drop = next((k, d) for k, d in zip(*conflict) if k != d)
        rows = [tuple(keep if t == drop else t for t in values) for values in rows]


def _no_key(row: list) -> tuple:
    """The key of every row under a dependency with an empty left side."""
    return ()


def _chase_classes(sigma: FDSet, parts: Sequence[AttributeSet]) -> tuple:
    """The tableau chase of the decomposition of ``sigma``'s universe
    into ``parts`` (Aho, Beeri & Ullman, TODS 1979), by congruence
    closure (Downey, Sethi & Tarjan, JACM 1980).  The parts must cover
    the universe.

    Returns the chased rows, one per part, and the distinguished row,
    each a list of class ids in the universe's name order.  The cells of
    column ``c`` are the ints from ``c * (len(parts) + 1)``: the first is
    the distinguished symbol, which every part holding the attribute
    starts with, and ``i + 1`` further on is row ``i``'s own token.  The
    classes form a union-find, merged by size: each class's rows are
    listed under its id, and when a class merges into a larger one its
    rows take the larger one's id.  So a cell's class is read off its
    row, and the distinguished class of a column need not be the
    distinguished id.

    Each dependency keeps a table from the class ids of a row's left
    side to the first row with that key; a second row with the key
    queues the union of the two rows' right sides.  When a class merges,
    only its moved rows are keyed again, and only under the dependencies
    whose left side holds the column.  An entry whose key holds a merged
    id is stale, and no later key can match it.  A dependency whose
    right side lies inside its left side merges nothing and is skipped.
    Each row moves at most log(rows) times per column, so the work is
    about (rows * width + len(sigma) * rows) * log(rows), whatever the
    order of the dependencies, and the classes are the ones every order
    of chase steps ends in.
    """
    attrs = tuple(sigma.universe)
    step = len(parts) + 1
    column = {a: c for c, a in enumerate(attrs)}
    bases = range(0, len(attrs) * step, step)
    rows, members = [], {}
    for i, part in enumerate(parts):
        rows.append([b if a in part else b + i + 1 for b, a in zip(bases, attrs)])
        for a in part:
            members.setdefault(column[a] * step, []).append(i)
    first = [members[b][0] for b in bases]
    tables: list = []
    waiting: list = [[] for _ in attrs]
    for fd in sigma:
        if fd.rhs <= fd.lhs:
            continue
        lhs = [column[a] for a in fd.lhs]
        entry = (itemgetter(*lhs) if lhs else _no_key, [column[a] for a in fd.rhs if a not in fd.lhs], {})
        tables.append(entry)
        for c in lhs:
            waiting[c].append(entry)
    pending = []
    for key, rhs, table in tables:
        for i, row in enumerate(rows):
            j = table.setdefault(key(row), i)
            if j != i:
                pending.append((j, i, rhs))
    while pending:
        j, i, rhs = pending.pop()
        for c in rhs:
            x, y = rows[j][c], rows[i][c]
            if x == y:
                continue
            # a class no merge has built yet is one row's own token
            into = members.pop(x, None) or [x % step - 1]
            moved = members.pop(y, None) or [y % step - 1]
            if len(into) < len(moved):
                x, into, moved = y, moved, into
            for r in moved:
                rows[r][c] = x
            into += moved
            members[x] = into
            for key, later, table in waiting[c]:
                for r in moved:
                    p = table.setdefault(key(rows[r]), r)
                    if p != r:
                        pending.append((p, r, later))
    return rows, [rows[i][c] for c, i in enumerate(first)]


def _chase(sigma: FDSet, parts: Sequence[AttributeSet]) -> Optional[Relation]:
    """``None`` when the decomposition of ``sigma``'s universe into
    ``parts`` is lossless, else a lossy instance: the chased tableau of
    :func:`_chase_classes`.  The parts must cover the universe.

    The decomposition is lossless exactly when some chased row is the
    distinguished row; no projection is joined, and no token is built.
    Otherwise the tableau, which satisfies ``sigma``, is the
    counterexample: the join of its projections holds the distinguished
    row.  Each class is then named by the bare attribute name if it
    holds the distinguished symbol, else by ``name.i`` for the lowest
    row ``i`` in the class.
    """
    rows, distinguished = _chase_classes(sigma, parts)
    if distinguished in rows:
        return None
    attrs = tuple(sigma.universe)
    names = [a.name for a in attrs]
    tokens = [{d: name} for d, name in zip(distinguished, names)]
    out = []
    for i, row in enumerate(rows):
        # rows are read in order, so the first row to show a class is its lowest
        out.append(tuple(t.get(x) or t.setdefault(x, f"{name}.{i}") for t, x, name in zip(tokens, row, names)))
    return _relation(attrs, out)


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
