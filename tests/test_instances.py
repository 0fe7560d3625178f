"""Relation instances: projection, join, satisfaction, witnesses, and the
brute-force implication oracle, anchored on the worked golden tables."""

import hashlib
import itertools
import random
import time
from collections import Counter
from collections.abc import Mapping
from operator import itemgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdkit import (
    FD,
    Attribute,
    AttributeSet,
    CoverageError,
    FDSet,
    LimitExceededError,
    Relation,
    RelationFormatError,
    Row,
    UnknownAttributeError,
    is_lossless_on,
    join,
    oracle_implies,
    random_satisfying_instance,
    two_tuple_witness,
)
from fdkit.fds import _ClosureIndex
from fdkit.instances import _chase

from util import LETTERS, fd, fdset, load_relation, random_fdset, random_subset


@pytest.fixture(scope="module")
def tables():
    return {name: load_relation(name) for name in "ijklmn"}


class TestRow:
    def test_restrict_and_identity(self):
        row = Row({"A": "0", "B": "1"})
        assert row.restrict("A") == Row({"A": "0"})
        assert row.restrict("A B") == row

    def test_restrict_outside_scheme_fails(self):
        with pytest.raises(UnknownAttributeError):
            Row({"A": "0"}).restrict("B")

    def test_getitem(self):
        row = Row({"A": "0"})
        assert row["A"] == "0"
        with pytest.raises(UnknownAttributeError):
            row["B"]

    def test_getitem_by_plain_name_and_attribute(self):
        row = Row({"A": "0", Attribute("B"): "1"})
        assert row["B"] == row[Attribute("B")] == "1"
        assert row[Attribute("A")] == "0"
        with pytest.raises(UnknownAttributeError, match=r"^attribute outside the row's scheme: C$"):
            row[Attribute("C")]
        with pytest.raises(UnknownAttributeError, match=r"^attribute outside the row's scheme: 1x$"):
            row["1x"]


class TestRelation:
    def test_set_semantics(self):
        r1 = Relation.from_rows("A B", [("0", "1"), ("0", "1"), ("1", "1")])
        r2 = Relation.from_rows("A B", [("1", "1"), ("0", "1")])
        assert len(r1) == 2
        assert r1 == r2

    def test_rows_must_match_scheme(self):
        with pytest.raises(ValueError):
            Relation("A B", [Row({"A": "0"})])

    def test_sorted_rendering(self):
        r = Relation.from_rows("A B", [("1", "0"), ("0", "1")])
        assert r.to_csv() == "A,B\n0,1\n1,0\n"

    def test_agrees_with_checking_every_row(self):
        # a dict row whose key order passed is read as it stands; the same
        # rows each checked as a Row give the same relation, or the same
        # refusal at the same row
        rng = random.Random(31)
        kinds = Counter()
        for _ in range(600):
            scheme = rng.choice(["", "A", "A B", "A B C", "C B A D"])
            rows = _constructor_rows(rng, AttributeSet(scheme).names)
            got = _relation_outcome(Relation, scheme, rows)
            assert got == _relation_outcome(_generic_relation, scheme, rows), (scheme, rows)
            kinds[got[0] if isinstance(got[0], type) else "built"] += 1
        assert kinds["built"] >= 200 and kinds[ValueError] >= 100 and kinds[TypeError] >= 20

    def test_dict_rows_of_one_key_order_are_checked_once(self, monkeypatch):
        built = Counter()
        monkeypatch.setattr(Row, "__init__", _counted(built, Row.__init__))
        rows = [{"B": i, "A": i % 3} for i in range(50)] + [{"A": 0, "B": 50}]
        assert Relation("A B", rows) == Relation.from_rows("A B", [(r["A"], r["B"]) for r in rows])
        assert built["calls"] == 2
        with pytest.raises(ValueError, match="^row scheme A C does not match relation scheme A B$"):
            Relation("A B", rows + [{"A": 0, "C": 1}])


class _Mapped(Mapping):
    """A read-only mapping that is not a ``dict``."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


class _SubDict(dict):
    pass


def _counted(counter, method):
    def call(self, *args):
        counter["calls"] += 1
        return method(self, *args)

    return call


def _generic_row(assignment):
    """A :class:`Row` whose every key goes through :class:`Attribute`."""
    values = {}
    for key, value in assignment.items():
        a = key if isinstance(key, Attribute) else Attribute(key)
        values[a] = value
    row = object.__new__(Row)
    row._values = values
    row._hash = None
    return row


def _generic_relation(scheme, rows):
    """A :class:`Relation` whose every row is checked as a :class:`Row`."""
    scheme = AttributeSet(scheme)
    attrs = tuple(scheme)
    pick = itemgetter(*attrs) if len(attrs) > 1 else lambda values: tuple(values.values())
    collected = []
    for r in rows:
        row = r if isinstance(r, Row) else _generic_row(r)
        if scheme != row._values.keys():
            raise ValueError(f"row scheme {row.scheme} does not match relation scheme {scheme}")
        collected.append(pick(row._values))
    return Relation.from_rows(scheme, collected)


def _relation_outcome(build, scheme, rows) -> tuple:
    """The relation built, with its stored tuples, or the type and message
    of what building it raised."""
    try:
        rel = build(scheme, iter(rows))
    except Exception as exc:
        return type(exc), str(exc)
    return rel, rel._scheme.names, rel._tuples


def _constructor_rows(rng, names) -> list:
    """Up to eight seeded rows over ``names``: mostly dicts in two or three
    key orders, now and then a :class:`Row`, a dict subclass, another
    mapping, a row with a key missing, extra or misnamed, or a value that
    cannot be hashed."""
    orders = [rng.sample(names, len(names)) for _ in range(rng.randint(1, 3))]
    rows = []
    for _ in range(rng.randint(0, 8)):
        keys = list(rng.choice(orders))
        values = [rng.choice(["0", "1", 0, 1, (0,)]) for _ in keys]
        flaw = rng.randrange(40)
        if flaw == 0 and keys:
            keys.pop()
        elif flaw == 1:
            keys.append(rng.choice(["Z", "A", "D"]))
            values.append("0")
        elif flaw == 2 and keys:
            keys[rng.randrange(len(keys))] = rng.choice(["9B", 1, None, "", b"A"])
        elif flaw == 3 and values:
            values[rng.randrange(len(values))] = ["unhashable"]
        elif flaw == 4:
            keys = [Attribute(k) if rng.random() < 0.5 else _Key(k) for k in keys]
        assignment = dict(zip(keys, values))
        wrap = rng.randrange(12)
        if wrap == 0:
            assignment = _SubDict(assignment)
        elif wrap == 1:
            assignment = _Mapped(assignment)
        elif wrap == 2 and flaw != 2:
            assignment = Row(assignment)
        rows.append(assignment)
    return rows


class _Key(str):
    """A ``str`` subclass, accepted as a name like ``str`` itself."""


class TestProjection:
    def test_golden_m_projects_to_n(self, tables):
        assert tables["m"].project("A B") == tables["n"]

    def test_golden_m_projects_to_l(self, tables):
        assert tables["m"].project("B C") == tables["l"]

    def test_projection_to_full_scheme_is_identity(self, tables):
        assert tables["i"].project("A B C") == tables["i"]

    def test_golden_i_projects_to_two_rows(self, tables):
        assert tables["i"].project("A B") == Relation.from_rows(
            "A B", [("0", "0"), ("1", "0")]
        )

    def test_rejects_attributes_outside_scheme(self, tables):
        with pytest.raises(UnknownAttributeError):
            tables["i"].project("A Z")


class TestJoin:
    def test_golden_k_join_l_is_m(self, tables):
        assert join([tables["k"], tables["l"]]) == tables["m"]

    def test_golden_projections_of_j_join_to_i(self, tables):
        parts = [tables["j"].project("A B"), tables["j"].project("B C")]
        assert join(parts) == tables["i"]

    def test_single_relation_join_is_identity(self, tables):
        assert join([tables["i"]]) == tables["i"]

    def test_disjoint_schemes_cross_product(self):
        left = Relation.from_rows("A", [("0",), ("1",)])
        right = Relation.from_rows("B", [("x",), ("y",)])
        assert len(join([left, right])) == 4

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            join([])

    def test_join_is_order_insensitive(self, tables):
        rng = random.Random(3)
        rels = [
            tables["k"],
            tables["l"],
            Relation.from_rows("A C", [("0", "0"), ("0", "1")]),
        ]
        reference = join(rels)
        for perm in itertools.permutations(rels):
            assert join(list(perm)) == reference


class TestSatisfies:
    def test_student_table_satisfies_department_supervisor(self):
        student = load_relation("student")
        assert student.satisfies(fd("DEPARTMENT -> SUPERVISOR"))
        assert not student.satisfies(fd("SUPERVISOR -> STUDENT"))

    def test_vacuous_dependency_always_satisfied(self, tables):
        for name in "ijklmn":
            assert tables[name].satisfies(FD(tables[name].scheme, ()))
            # empty right side
            first = tuple(tables[name].scheme)[0]
            assert tables[name].satisfies(FD([first], ()))

    def test_four_row_table_satisfies_its_generator(self):
        table = load_relation("abcde")
        assert table.satisfies(fd("E -> C D"))
        assert table.satisfies_all(fdset("E -> C", "E -> D"))

    def test_satisfies_all_empty_set(self, tables):
        assert tables["i"].satisfies_all(FDSet((), universe="A B C"))

    def test_agreeing_rows_with_differing_dependents(self):
        r = Relation.from_rows("A B", [("0", "0"), ("0", "1")])
        assert not r.satisfies(fd("A -> B"))
        assert not r.satisfies_all(fdset("A -> B"))

    def test_rejects_attributes_outside_scheme(self, tables):
        with pytest.raises(UnknownAttributeError):
            tables["k"].satisfies(fd("A -> Z"))

    def test_satisfaction_depends_only_on_projected_columns(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(2, 5)
            scheme = AttributeSet(LETTERS[:n])
            rel = _random_relation(rng, scheme)
            lhs = random_subset(rng, scheme, allow_empty=False)
            rhs = random_subset(rng, scheme, allow_empty=False)
            f = FD(lhs, rhs)
            assert rel.satisfies(f) == rel.project(lhs | rhs).satisfies(f)


def _random_relation(rng, scheme, max_rows=6, alphabet=("0", "1", "2")):
    rows = [
        {a: rng.choice(alphabet) for a in scheme}
        for _ in range(rng.randint(1, max_rows))
    ]
    return Relation(scheme, rows)


class TestDecompositionContainment:
    def test_join_of_projections_contains_original(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 5)
            scheme = AttributeSet(LETTERS[:n])
            rel = _random_relation(rng, scheme)
            parts = _random_cover_parts(rng, scheme)
            joined = join([rel.project(p) for p in parts])
            assert rel.rows <= joined.rows

    def test_projection_of_join_contained_in_inputs(self):
        rng = random.Random(6)
        for _ in range(50):
            schemes = [
                AttributeSet(rng.sample(LETTERS[:5], rng.randint(1, 4)))
                for _ in range(rng.randint(2, 3))
            ]
            rels = [_random_relation(rng, s) for s in schemes]
            joined = join(rels)
            for rel in rels:
                assert joined.project(rel.scheme).rows <= rel.rows


def _random_cover_parts(rng, scheme):
    attrs = list(scheme)
    parts = []
    remaining = set(attrs)
    while remaining:
        part = set(rng.sample(attrs, rng.randint(1, len(attrs))))
        parts.append(AttributeSet(part))
        remaining -= part
    return parts


class TestLossless:
    def test_golden_i_decomposition_is_lossless(self, tables):
        assert is_lossless_on(tables["i"], ["A B", "B C"])

    def test_golden_m_decomposition_joins_back_exactly(self, tables):
        # the projections of M are N and L, and N join L rebuilds M's two
        # rows, so this decomposition is lossless for M
        assert join([tables["n"], tables["l"]]) == tables["m"]
        assert is_lossless_on(tables["m"], ["A B", "B C"])

    def test_golden_j_decomposition_is_lossy(self, tables):
        assert not is_lossless_on(tables["j"], ["A B", "B C"])

    def test_single_part_is_trivially_lossless(self, tables):
        assert is_lossless_on(tables["i"], ["A B C"])

    def test_parts_must_cover_the_scheme(self, tables):
        with pytest.raises(CoverageError):
            is_lossless_on(tables["i"], ["A B"])

    def test_functional_split_is_lossless(self):
        # whenever the instance satisfies X -> Y, splitting into XY and XZ
        # loses nothing
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(3, 6)
            scheme = AttributeSet(LETTERS[:n])
            attrs = list(scheme)
            rng.shuffle(attrs)
            cut1 = rng.randint(1, n - 2)
            cut2 = rng.randint(cut1 + 1, n - 1)
            x = AttributeSet(attrs[:cut1])
            y = AttributeSet(attrs[cut1:cut2])
            z = AttributeSet(attrs[cut2:])
            rel = _repair_to_satisfy(_random_relation(rng, scheme), FD(x, y))
            assert is_lossless_on(rel, [x | y, x | z])


    def test_edge_cases(self):
        unit = Relation((), [{}])
        with pytest.raises(ValueError, match=r"^join requires at least one relation$"):
            is_lossless_on(unit, [])
        pair = Relation.from_rows("A B", [(1, 2), (3, 4)])
        with pytest.raises(CoverageError):
            is_lossless_on(pair, [])
        assert is_lossless_on(pair, ["A B"])
        assert is_lossless_on(pair, ["A B", "A B"])
        assert is_lossless_on(pair, ["A B", "B"])
        assert not is_lossless_on(pair, ["A", "B"])  # a cross product: four rows
        assert not is_lossless_on(pair, [AttributeSet("A"), ["B"], ()])
        assert is_lossless_on(Relation("A B"), ["A", "B"])
        assert is_lossless_on(unit, [""])
        assert is_lossless_on(unit, [(), ()])
        assert is_lossless_on(Relation(()), [()])


def _repair_to_satisfy(rel, f):
    chosen = {}
    rows = []
    for row in rel:
        key = tuple(row[a] for a in f.lhs)
        image = chosen.setdefault(key, {a: row[a] for a in f.rhs})
        patched = {a: row[a] for a in rel.scheme}
        patched.update(image)
        rows.append(patched)
    out = Relation(rel.scheme, rows)
    assert out.satisfies(f)
    return out


def _plain_table(attrs, tuples, onto):
    """Set-of-tuples projection of ``tuples`` (over ``attrs``) onto the
    names ``onto``, in that order."""
    return {tuple(t[attrs.index(a)] for a in onto) for t in tuples}


def _plain_join(tables):
    """Nested-loop natural join of ``(names, tuples)`` tables, as a list
    of dicts from name to value."""
    rows = [{}]
    for attrs, tuples in tables:
        rows = [
            {**row, **dict(zip(attrs, t))}
            for row in rows
            for t in tuples
            if all(row.get(a, v) == v for a, v in zip(attrs, t))
        ]
    return rows


def _rows_of(relation, attrs):
    return {tuple(row[a] for a in attrs) for row in relation.rows}


class TestEngineAgainstPlainSets:
    def test_project_join_and_losslessness(self):
        # a plain set-of-tuples reference, sharing no code with fdkit
        rng = random.Random(31)
        seen = set()
        for _ in range(400):
            width = rng.randint(0, 7)
            names = LETTERS[:width]
            domain = rng.randint(1, 3)
            tuples = {
                tuple(rng.randrange(domain) for _ in names) for _ in range(rng.randint(0, 40))
            }
            rel = Relation.from_rows(names, tuples)

            onto = sorted(rng.sample(names, rng.randint(0, width)))
            got = rel.project(onto)
            assert got.scheme == AttributeSet(onto)
            assert _rows_of(got, onto) == _plain_table(names, tuples, onto)

            parts = [sorted(rng.sample(names, rng.randint(0, width))) for _ in range(rng.randint(1, 5))]
            missing = sorted(set(names).difference(*parts))
            if missing and rng.random() < 0.8:
                rng.choice(parts).extend(missing)
            if set(names).difference(*parts):
                with pytest.raises(CoverageError):
                    is_lossless_on(rel, parts)
                seen.add("uncovered")
                continue
            joined = _plain_join([(p, _plain_table(names, tuples, p)) for p in parts])
            want = {tuple(row[a] for a in names) for row in joined} == tuples
            given_parts = [rng.choice([p, " ".join(p), AttributeSet(p)]) for p in parts]
            assert is_lossless_on(rel, given_parts) == want
            seen.add(want)
            seen.update(len(p) for p in parts if len(p) < 2)
            seen.add(min(len(parts), 3))

            rels = []
            for _ in range(rng.randint(1, 4)):
                scheme = sorted(rng.sample(LETTERS[:6], rng.randint(0, 3)))
                values = {
                    tuple(rng.randrange(domain) for _ in scheme) for _ in range(rng.randint(0, 8))
                }
                rels.append((scheme, values))
            union = sorted(set().union(*(s for s, _ in rels)))
            got = join([Relation.from_rows(s, v) for s, v in rels])
            assert got.scheme == AttributeSet(union)
            assert _rows_of(got, union) == {
                tuple(row[a] for a in union) for row in _plain_join(rels)
            }
        # lossy and lossless verdicts, uncovered schemes, empty and
        # one-attribute parts and three or more parts all occurred
        assert seen >= {True, False, "uncovered", 0, 1, 3}


class TestTwoTupleWitness:
    def test_agreement_is_exactly_the_closure(self):
        sigma = fdset("A -> B", universe="A B C")
        witness = two_tuple_witness(sigma, "A")
        rows = list(witness)
        assert len(rows) == 2
        agree = AttributeSet([a for a in sigma.universe if rows[0][a] == rows[1][a]])
        assert agree == AttributeSet("A B")

    def test_full_closure_collapses_to_one_row(self):
        sigma = FDSet((), universe="A B")
        assert len(two_tuple_witness(sigma, "A B")) == 1

    def test_unrelated_dependency_leaves_rows_apart(self):
        sigma = fdset("B -> C", universe="A B C")
        witness = two_tuple_witness(sigma, "A")
        rows = list(witness)
        agree = AttributeSet([a for a in sigma.universe if rows[0][a] == rows[1][a]])
        assert agree == AttributeSet("A")

    def test_witness_properties(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randint(1, 5)
            universe = AttributeSet(LETTERS[:n])
            sigma = random_fdset(rng, universe, max_fds=6)
            x = random_subset(rng, universe)
            witness = two_tuple_witness(sigma, x)
            assert witness.satisfies_all(sigma)
            closed = sigma.closure(x)
            for a in universe:
                assert witness.satisfies(FD(x, [a])) == (a in closed)


def _pattern_oracle(sigma, f):
    """The implication oracle as one loop step per two-row pattern ``w``,
    a bitmask of the attributes on which the rows agree: the reference
    for the bit-parallel blocks of :func:`oracle_implies`."""
    position = {a: i for i, a in enumerate(sigma.universe)}

    def mask(attrs):
        return sum(1 << position[a] for a in attrs)

    body = [(mask(g.lhs), mask(g.rhs)) for g in sigma]
    lhs, rhs = mask(f.lhs), mask(f.rhs)
    for w in range(1 << len(position)):
        if lhs & w == lhs and rhs & w != rhs and all(s & w != s or t & w == t for s, t in body):
            return False
    return True


def _oracle_case(rng, width):
    """A dependency set over ``width`` attributes and a question, with
    empty and trivial sides, and past the twelfth attribute now and then
    sides drawn only from the attributes beyond it."""
    pool = [f"A{i:02d}" for i in range(width)]

    def side():
        source = pool[12:] if width > 12 and rng.random() < 0.25 else pool
        return rng.sample(source, rng.randint(0, min(3, len(source))))

    def dependency():
        lhs = side()
        rhs = rng.sample(lhs, rng.randint(0, len(lhs))) if rng.random() < 0.1 else side()
        return FD(lhs, rhs)

    sigma = FDSet([dependency() for _ in range(rng.randint(0, 2 * width))], universe=pool)
    return sigma, dependency()


class TestOracleImplies:
    def test_transitive_consequence(self):
        assert oracle_implies(fdset("B -> C", "A -> B"), fd("A -> C"))

    def test_nothing_implied_without_dependencies(self):
        assert not oracle_implies(FDSet((), universe="A B"), fd("A -> B"))

    def test_no_reverse_direction(self):
        assert not oracle_implies(fdset("A -> B"), fd("B -> A"))

    def test_limit_refusal(self):
        sigma = FDSet((), universe=LETTERS[:6])
        with pytest.raises(LimitExceededError):
            oracle_implies(sigma, fd("A -> B"), limit=5)

    def test_answers_without_the_closure_kernel(self, monkeypatch):
        # the oracle, the instance generator and the chase are independent
        # checks on the closure kernel, so they must keep working when the
        # kernel is unavailable
        sigma = fdset("B -> C", "A -> B")
        rng = random.Random(11)
        sigmas = [random_fdset(rng, LETTERS[:6], min_fds=1) for _ in range(20)]

        def unavailable(*args, **kwargs):
            raise AssertionError("called the closure kernel")

        monkeypatch.setattr(_ClosureIndex, "__init__", unavailable)
        monkeypatch.setattr(_ClosureIndex, "close", unavailable)
        monkeypatch.setattr(FDSet, "closure", unavailable)
        assert oracle_implies(sigma, fd("A -> C"))
        assert not oracle_implies(sigma, fd("C -> A"))
        for other in [sigma] + sigmas:
            instance = random_satisfying_instance(other, rng, max_witnesses=4, max_merges=4)
            assert instance.satisfies_all(other)
            tableau = _chase(other, [AttributeSet([a]) for a in other.universe])
            assert tableau is None or tableau.satisfies_all(other)

    def test_blocks_match_the_pattern_loop_and_the_closure_kernel(self):
        # widths 13-15 take two to eight blocks of 4096 patterns
        answers = []
        for width in range(16):
            for seed in range(12):
                sigma, f = _oracle_case(random.Random(100 * width + seed), width)
                answer = oracle_implies(sigma, f, limit=15)
                assert answer == _pattern_oracle(sigma, f) == sigma.implies(f), (width, seed)
                answers.append((width > 12, answer))
        assert {(True, True), (True, False), (False, True), (False, False)} <= set(answers)

    def test_a_raised_limit_answers_a_wide_chain(self):
        names = [f"A{i:02d}" for i in range(20)]
        sigma = FDSet([FD(a, b) for a, b in zip(names, names[1:])], universe=names)
        start = time.perf_counter()
        assert oracle_implies(sigma, FD(names[0], names[-1]), limit=20)
        assert not oracle_implies(sigma, FD(names[-1], names[0]), limit=20)
        assert time.perf_counter() - start < 5.0

    def test_matches_materialized_two_row_relations(self):
        # the bitmask patterns are exactly the two-row relations whose rows
        # agree on the chosen subset; check the encoding against real
        # relations, exhaustively for a small universe
        universe = AttributeSet(LETTERS[:3])
        rng = random.Random(10)
        for _ in range(30):
            sigma = random_fdset(rng, universe, max_fds=4)
            f = FD(random_subset(rng, universe), random_subset(rng, universe))
            refuted = False
            for size in range(4):
                for combo in itertools.combinations(list(universe), size):
                    agree = set(combo)
                    u = {a: "0" for a in universe}
                    v = {a: ("0" if a in agree else "1") for a in universe}
                    rel = Relation(universe, [u, v])
                    if rel.satisfies_all(sigma) and not rel.satisfies(f):
                        refuted = True
            assert oracle_implies(sigma, f) == (not refuted)


class TestCsvRoundTrip:
    def test_parse_render_parse_identity(self):
        for name in ("i", "j", "k", "l", "m", "n", "student", "abcde"):
            rel = load_relation(name)
            again = Relation.from_csv(rel.to_csv())
            assert again == rel
            assert again.to_csv() == rel.to_csv()

    def test_values_with_spaces_survive(self):
        rel = load_relation("student")
        assert any("Graph Theory" in str(row) for row in rel)

    def test_header_required(self):
        with pytest.raises(RelationFormatError):
            Relation.from_csv("")

    def test_duplicate_header_rejected(self):
        with pytest.raises(RelationFormatError):
            Relation.from_csv("A,A\n0,0\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(RelationFormatError):
            Relation.from_csv("A,B\n0\n")

    @given(
        st.lists(
            st.tuples(
                st.text("ab", min_size=1, max_size=3),
                st.text("ab", min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_round_trip_on_generated_relations(self, pairs):
        rel = Relation.from_rows("A B", pairs)
        assert Relation.from_csv(rel.to_csv()) == rel


class TestImplicationSoundness:
    def test_implied_dependencies_hold_in_every_satisfying_instance(self):
        # whenever the closure machinery claims an implication, no instance
        # satisfying the premises may refute the conclusion
        rng = random.Random(22)
        checked = 0
        for _ in range(400):
            n = rng.randint(2, 5)
            scheme = AttributeSet(LETTERS[:n])
            sigma = random_fdset(rng, scheme, max_fds=5)
            rel = _random_relation(rng, scheme, alphabet=("0", "1"))
            if not rel.satisfies_all(sigma):
                continue
            checked += 1
            f = FD(
                random_subset(rng, scheme, allow_empty=False),
                random_subset(rng, scheme, allow_empty=False),
            )
            if sigma.implies(f):
                assert rel.satisfies(f)
        assert checked > 50

    def test_witness_instances_also_respect_implications(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(1, 5)
            scheme = AttributeSet(LETTERS[:n])
            sigma = random_fdset(rng, scheme, max_fds=5)
            rel = random_satisfying_instance(sigma, rng)
            f = FD(
                random_subset(rng, scheme, allow_empty=False),
                random_subset(rng, scheme),
            )
            if sigma.implies(f):
                assert rel.satisfies(f)


class TestRandomSatisfyingInstance:
    def test_always_satisfies_its_dependencies(self):
        rng = random.Random(21)
        for _ in range(80):
            n = rng.randint(1, 6)
            sigma = random_fdset(rng, LETTERS[:n], max_fds=6)
            instance = random_satisfying_instance(sigma, rng)
            assert instance.scheme == sigma.universe
            assert instance.satisfies_all(sigma)

    def test_deterministic_for_a_fixed_seed(self):
        sigma = fdset("A -> B", "B -> C")
        one = random_satisfying_instance(sigma, random.Random(5))
        two = random_satisfying_instance(sigma, random.Random(5))
        assert one == two

    @pytest.mark.parametrize(
        "kwargs, name",
        [({"max_witnesses": 0}, "max_witnesses"), ({"max_merges": -1}, "max_merges")],
    )
    def test_refuses_empty_ranges_by_argument_name(self, kwargs, name):
        # refused before any draw, for the empty universe too
        for sigma in (fdset("A -> B"), FDSet((), universe="")):
            rng = random.Random(5)
            state = rng.getstate()
            with pytest.raises(ValueError, match=f"^{name} must be at least"):
                random_satisfying_instance(sigma, rng, **kwargs)
            assert rng.getstate() == state


def _built_every_way(tuples):
    """The relation over A B C D holding the string tuples ``tuples`` (in
    name order), from each constructor and from a projection."""
    dicts = [dict(zip("DBAC", (d, b, a, c))) for a, b, c, d in tuples]
    text = "C,A,D,B\n" + "".join(f"{c},{a},{d},{b}\n" for a, b, c, d in reversed(tuples))
    wide = [(a, b, c, cc, d) for a, b, c, d in tuples for cc in "pq"]
    return [
        Relation("D B A C", dicts),
        Relation("A B C D", [Row(r) for r in dicts]),
        Relation.from_rows("A B C D", tuples),
        Relation.from_csv(text),
        Relation.from_rows("A B C CC D", wide).project("A B C D"),
    ]


def _assert_all_alike(relations, tuples):
    want = Relation.from_rows("A B C D", tuples)
    rows = {Row(dict(zip("ABCD", t))) for t in tuples}
    assert want.rows == rows and len(want) == len(rows)
    for rel in relations:
        assert rel == want and hash(rel) == hash(want)
        assert rel.to_csv() == want.to_csv()
        assert [repr(r) for r in rel.sorted_rows()] == [repr(r) for r in want.sorted_rows()]
        assert rel.rows == rows


class TestCanonicalOrder:
    # a relation holds its value tuples in name order however it was built;
    # the hash join returns its attributes in another order, which must not
    # leak into equality, hashing or rendering
    def test_constructors_projection_and_joins_agree(self):
        ac = [("0", "1"), ("1", "0"), ("1", "1")]
        bd = [("x", "y"), ("z", "y")]
        tuples = [(a, b, c, d) for a, c in ac for b, d in bd]
        parts = [
            Relation.from_rows("B D", bd),
            Relation.from_rows("A C", ac),
            Relation.from_rows("C", [(c,) for _, c in ac]),
        ]
        joins = [join(list(order)) for order in itertools.permutations(parts)]
        _assert_all_alike(_built_every_way(tuples) + joins, tuples)

    def test_chase_output_agrees(self):
        chased = _chase(FDSet((), universe="A B C D"), [AttributeSet("B D"), AttributeSet("A C")])
        tuples = [("A.0", "B", "C.0", "D"), ("A", "B.1", "C", "D.1")]
        _assert_all_alike(_built_every_way(tuples) + [chased], tuples)


def _pin_value(rng, attr):
    # integers in columns A, C, E and strings in B, D, F: a column never
    # mixes 1 and "1", which render alike and so sort in hash order
    if LETTERS.index(attr) % 2 == 0:
        return rng.randrange(4)
    return rng.choice(("0", "1", "x y", "a,b", 'q"t'))


def _pin_relation(rng, width):
    names = rng.sample(LETTERS[:6], width)
    rows = [{a: _pin_value(rng, a) for a in names} for _ in range(rng.randint(0, 8))]
    return Relation(names, rows)


def _pin_render(relation):
    return "|".join(
        [str(relation.scheme), str(len(relation)), relation.to_csv()]
        + [repr(row) for row in relation.sorted_rows()]
    )


def _pin_outcome(call):
    try:
        result = call()
    except Exception as exc:  # the pinned outcome is the error's type
        return type(exc).__name__
    return _pin_render(result) if isinstance(result, Relation) else repr(result)


class TestPinnedOutputs:
    def test_relation_outputs_are_unchanged(self):
        # renderings, projections, joins and verdicts of a seeded family of
        # relations, byte for byte as the engine gave them when relations
        # still stored Row objects
        rng = random.Random(57)
        digest = hashlib.sha256()
        for _ in range(300):
            rel = _pin_relation(rng, rng.randint(0, 6))
            names = list(rel.scheme)
            onto = rng.sample(names, rng.randint(0, len(names)))
            others = [_pin_relation(rng, rng.randint(0, 4)) for _ in range(rng.randint(0, 3))]
            parts = [rng.sample(names, rng.randint(0, len(names))) for _ in range(rng.randint(0, 3))]
            fds = [
                FD(*(rng.sample(names, rng.randint(0, len(names))) for _ in "lr")) for _ in range(2)
            ] + [FD("A", "F")]
            outcomes = [_pin_render(rel), _pin_outcome(lambda: rel.project(onto))]
            outcomes.append(_pin_outcome(lambda: join([rel] + others)))
            outcomes.append(_pin_outcome(lambda: join(others)))
            outcomes.append(_pin_outcome(lambda: is_lossless_on(rel, parts)))
            outcomes += [_pin_outcome(lambda f=f: rel.satisfies(f)) for f in fds]
            digest.update("\n".join(outcomes).encode())
        assert digest.hexdigest() == "14f5818e3ab78269688219f68918c4f8853880f3f291e581cfdca3f04e09f2bd"

    def test_chase_and_witness_outputs_are_unchanged(self):
        # the counterexamples of seeded decompositions, a marker for each
        # lossless one, and two-row witnesses, byte for byte as the chase
        # gave them when it first named each class by the distinguished
        # symbol or its lowest row
        rng = random.Random(61)
        digest = hashlib.sha256()
        for _ in range(1000):
            names = LETTERS[: rng.randint(1, 8)]
            sigma = random_fdset(rng, names)
            parts = [set(random_subset(rng, names)) for _ in range(rng.randint(1, 4))]
            for a in names:
                rng.choice(parts).add(a)
            parts = [AttributeSet(p) for p in parts]
            chased = _chase(sigma, parts)
            digest.update(b"lossless" if chased is None else chased.to_csv().encode())
            digest.update(two_tuple_witness(sigma, random_subset(rng, names)).to_csv().encode())
        assert digest.hexdigest() == "300ed9f4b63b1b76c6954c5ddec0351ce56e3db0a0d023aa42be9fbe694b44af"
