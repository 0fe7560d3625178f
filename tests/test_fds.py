"""Attribute, AttributeSet, FD, and FDSet behaviour, including the
closure laws."""

import gc
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdkit import (
    FD,
    Attribute,
    AttributeSet,
    DatabaseSchema,
    FDSet,
    HittingSetInstance,
    Relation,
    RelationScheme,
    Row,
    UniverseMismatchError,
    UnknownAttributeError,
    canonical_cover,
    check_3nf,
    check_bcnf,
    enumerate_keys,
    is_prime,
    is_superkey,
    minimum_cover,
    nonredundant_cover,
    oracle_implies,
    parse_schema,
    project_fds,
    reduce_to_schema,
    reduced_cover,
    solve_hitting_set,
)
from fdkit import fds
from fdkit.design import _lucchesi_osborn
from fdkit.fds import _ClosureIndex, _Lattice

from util import LETTERS, fd, fdset, random_fdset, random_subset


class TestAttribute:
    def test_equality_is_by_name(self):
        assert Attribute("A") == Attribute("A")
        assert Attribute("A") != Attribute("a")

    def test_hashable_and_ordered(self):
        assert len({Attribute("A"), Attribute("A"), Attribute("B")}) == 2
        assert sorted([Attribute("B"), Attribute("A")])[0].name == "A"

    @pytest.mark.parametrize("name", ["", "1A", "A-B", "A B", None, 3])
    def test_rejects_bad_names(self, name):
        with pytest.raises((ValueError, TypeError)):
            Attribute(name)

    def test_underscore_names_allowed(self):
        assert Attribute("__C").name == "__C"

    def test_is_its_name(self):
        assert isinstance(Attribute("A"), str)
        assert Attribute("A") == "A" and "A" == Attribute("A")
        assert hash(Attribute("A")) == hash("A")
        assert Attribute("A") != "B" and Attribute("A") < "B"

    def test_name_is_a_plain_str_and_repr_is_unchanged(self):
        assert type(Attribute("A").name) is str
        assert type(str(Attribute("A"))) is str
        assert repr(Attribute("A")) == "Attribute('A')"
        assert f"{Attribute('A')}" == "A"

    def test_has_no_instance_dict(self):
        assert not hasattr(Attribute("A"), "__dict__")

    def test_rewrapping_keeps_the_name(self):
        again = Attribute(Attribute("A"))
        assert type(again) is Attribute and again == Attribute("A")

    def test_one_object_per_name(self):
        assert Attribute("A12") is Attribute("A12")
        assert AttributeSet("A12 B").names == ("A12", "B")
        assert next(iter(AttributeSet("A12"))) is Attribute("A12")

    def test_names_nothing_uses_leave_the_shared_table(self, monkeypatch):
        # the table drops the names nothing else holds whenever it has
        # doubled: parsing documents of ever new names keeps it bounded, a
        # sweep leaves exactly the names in use, and those stay shared
        kept = Attribute("kept_name")
        monkeypatch.setattr(fds, "_SWEEP_FLOOR", 3000)
        monkeypatch.setattr(fds, "_sweep_at", 0)
        gc.collect()
        swept_on = Attribute("swept_on")  # the first name built sweeps the table
        before = len(fds._INTERNED)
        bound = max(3000, 2 * before) + 2000
        for doc in range(10):
            names = [f"fresh{doc}_{i}" for i in range(2000)]
            assert parse_schema(f"fd {' '.join(names[1:])} -> {names[0]}\n").ok
            assert len(fds._INTERNED) <= bound
        gc.collect()
        fds._sweep()
        assert len(fds._INTERNED) == before
        assert Attribute("kept_name") is kept and Attribute("swept_on") is swept_on


class TestAttributeSet:
    def test_splits_strings_on_commas_and_whitespace(self):
        assert AttributeSet("A B") == AttributeSet(["A", "B"])
        assert AttributeSet("A,B , C") == AttributeSet("A B C")
        assert AttributeSet("ABC") == AttributeSet(["ABC"])

    def test_iterates_in_name_order(self):
        assert AttributeSet("C A B").names == ("A", "B", "C")
        assert str(AttributeSet("B A")) == "A B"

    def test_may_be_empty(self):
        empty = AttributeSet()
        assert not empty and len(empty) == 0 and str(empty) == ""

    def test_set_algebra(self):
        ab, bc = AttributeSet("A B"), AttributeSet("B C")
        assert ab | bc == AttributeSet("A B C")
        assert ab & bc == AttributeSet("B")
        assert ab - bc == AttributeSet("A")
        assert AttributeSet("A") <= ab and AttributeSet("A") < ab
        assert ab <= ab and not ab < ab
        assert "A" in ab and Attribute("B") in ab and "C" not in ab

    def test_invalid_name_is_simply_not_a_member(self):
        assert "1x" not in AttributeSet("A")
        assert "" not in AttributeSet("A")

    def test_hashable(self):
        assert len({AttributeSet("A B"), AttributeSet("B A")}) == 1

    def test_is_a_frozenset(self):
        assert isinstance(AttributeSet("A B"), frozenset)

    def test_operators_keep_the_name_order(self):
        # 200 names, so that hash order would show
        names = [f"N{i}" for i in range(200)]
        left = AttributeSet(names[::2] + names[100:])
        right = AttributeSet(names[50:150])
        for got, want in (
            (left | right, set(left) | set(right)),
            (left & right, set(left) & set(right)),
            (left - right, set(left) - set(right)),
        ):
            assert type(got) is AttributeSet
            assert list(got) == sorted(want)
            assert got.names == tuple(sorted(want))

    def test_rewrapping_returns_the_same_set(self):
        s = AttributeSet("B A")
        assert AttributeSet(s) is s

    def test_equals_and_hashes_like_a_frozenset_of_its_names(self):
        s = AttributeSet("B A")
        assert s == frozenset({"A", "B"}) and s == {"A", "B"}
        assert hash(s) == hash(frozenset({"A", "B"}))
        assert AttributeSet() == frozenset()

    def test_operators_refuse_a_non_set(self):
        with pytest.raises(TypeError, match="unsupported operand"):
            AttributeSet("A") | "B"

    def test_pickle_keeps_type_and_order(self):
        s = AttributeSet([f"N{i}" for i in range(200)])
        back = pickle.loads(pickle.dumps(s))
        assert type(back) is AttributeSet
        assert back == s and list(back) == list(s)

    def test_agrees_with_building_every_member_by_attribute(self):
        # known names resolve in one pass; the same inputs built member by
        # member give the same set, or the same refusal
        for members, container in _constructor_cases(random.Random(29)):
            got = _outcome(AttributeSet, container(members))
            want = _outcome(_generic_attrset, container(members))
            assert got == want, (members, container)
            if isinstance(got[0], AttributeSet):
                assert all(type(a) is Attribute and a is Attribute(a) for a in got[0])


class _Name(str):
    """A ``str`` subclass, accepted as a name like ``str`` itself."""


def _generic_attrset(members):
    """:class:`AttributeSet` as built member by member: each member that
    is not an attribute goes through :class:`Attribute`."""
    if isinstance(members, AttributeSet):
        return members
    if isinstance(members, str):
        members = fds._split(members)
    return fds._attrset(m if isinstance(m, Attribute) else Attribute(m) for m in members)


def _outcome(build, *args) -> tuple:
    """What ``build(*args)`` returns, with its names in order, or the type
    and message of what it raises."""
    try:
        value = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return value, type(value), tuple(value)


_fresh = iter(range(10**9))


def _constructor_member(rng):
    kind = rng.randrange(10)
    if kind < 4:
        return rng.choice(["A", "B", "C", Attribute("D")])
    if kind == 4:
        return f"never_seen_{next(_fresh)}"
    if kind == 5:
        return _Name(rng.choice(["A", f"never_seen_{next(_fresh)}"]))
    return rng.choice(["9B", "", "A-B", 1, b"A", None, ["A"], 2.5])


def _constructor_cases(rng):
    """Seeded member lists, most of them of valid names, each in every
    container that can hold it: a list, a tuple, a generator, a set and,
    when every member is a ``str``, the text of their names."""
    for _ in range(400):
        size = rng.randrange(6)
        if rng.random() < 0.5:
            members = [rng.choice(["A", "B", "C", Attribute("D"), "A"]) for _ in range(size)]
        else:
            members = [_constructor_member(rng) for _ in range(size)]
        yield members, list
        yield members, tuple
        yield members, lambda ms: (m for m in ms)
        if all(isinstance(m, str) for m in members):
            yield members, rng.choice([" ", ",", ", "]).join
        try:
            yield set(members), set
        except TypeError:
            pass


class TestFD:
    def test_structural_equality(self):
        assert fd("A B -> C") == FD(["B", "A"], "C")
        assert fd("A -> B") != fd("B -> A")
        assert len({fd("A -> B"), fd("A -> B")}) == 1

    def test_rhs_may_be_empty(self):
        vacuous = fd("A ->")
        assert not vacuous.rhs
        assert str(vacuous) == "A ->"

    def test_attributes_union(self):
        assert fd("A B -> C").attributes == AttributeSet("A B C")


class TestFDSet:
    def test_preserves_order_and_drops_duplicates(self):
        sigma = fdset("A -> B", "B -> C", "A -> B")
        assert [str(f) for f in sigma] == ["A -> B", "B -> C"]
        assert len(sigma) == 2
        assert sigma[1] == fd("B -> C")
        assert fd("A -> B") in sigma

    def test_universe_defaults_to_mentioned_attributes(self):
        assert fdset("A -> B", "B -> C").universe == AttributeSet("A B C")

    def test_explicit_universe_must_contain_everything(self):
        fdset("A -> B", universe="A B C")
        with pytest.raises(UnknownAttributeError):
            fdset("A -> D", universe="A B C")

    def test_empty_set_keeps_its_universe(self):
        sigma = FDSet((), universe="A B")
        assert sigma.universe == AttributeSet("A B")
        assert len(sigma) == 0

    def test_membership_is_by_value_and_false_for_anything_else(self):
        sigma = fdset("A -> B", "B C -> D")
        assert FD(["C", "B"], "D") in sigma
        assert fd("A -> B") in sigma and fd("A -> D") not in sigma
        assert fd("B -> A") not in sigma and FD("A", "B C") not in sigma
        assert "A -> B" not in sigma and ("A", "B") not in sigma
        assert [1] not in sigma and {"A": "B"} not in sigma

    def test_a_member_that_is_no_fd_is_refused_before_hashing(self):
        with pytest.raises(TypeError) as caught:
            FDSet([FD("A", "B"), ["x"]])
        assert str(caught.value) == "expected FD, got list"


class TestClosure:
    def test_transitive_chain(self):
        sigma = fdset("B -> C", "A -> B")
        assert sigma.closure("A") == AttributeSet("A B C")

    def test_no_dependencies_means_no_growth(self):
        assert FDSet((), universe="A B").closure("A") == AttributeSet("A")

    def test_unfired_dependency_adds_nothing(self):
        sigma = fdset("E -> C D", universe="A B C D E")
        assert sigma.closure("A B") == AttributeSet("A B")
        # cross-checked against the instance-based oracle
        for a in AttributeSet("C D E"):
            assert not oracle_implies(sigma, FD("A B", [a]))

    def test_empty_left_side_always_fires(self):
        sigma = FDSet([FD((), "A")], universe="A B")
        assert sigma.closure(()) == AttributeSet("A")

    def test_rejects_attributes_outside_universe(self):
        with pytest.raises(UnknownAttributeError):
            fdset("A -> B").closure("Z")


class TestImplies:
    def test_transitive_consequence(self):
        assert fdset("B -> C", "A -> B").implies(fd("A -> C"))

    def test_reflexivity_without_dependencies(self):
        assert FDSet((), universe="A").implies(fd("A -> A"))

    def test_no_reverse_direction(self):
        sigma = fdset("A -> B")
        assert not sigma.implies(fd("B -> A"))
        assert not oracle_implies(sigma, fd("B -> A"))

    def test_rejects_unknown_attributes(self):
        with pytest.raises(UnknownAttributeError):
            fdset("A -> B").implies(fd("A -> Z"))


class TestEquivalent:
    def test_added_transitive_consequence(self):
        delta = fdset("A -> B", "B -> C")
        sigma = fdset("A -> B", "B -> C", "A -> C")
        assert delta.equivalent(sigma)

    def test_reflexive(self):
        sigma = fdset("A -> B", "B -> C")
        assert sigma.equivalent(sigma)

    def test_direction_matters(self):
        assert not fdset("A -> B").equivalent(fdset("B -> A"))

    def test_universe_mismatch_is_an_error(self):
        with pytest.raises(UniverseMismatchError):
            fdset("A -> B").equivalent(fdset("A -> B", universe="A B C"))

    def test_a_non_fdset_is_refused(self):
        sigma = fdset("A -> B")
        for other in (list(sigma), fd("A -> B"), [[1]]):
            with pytest.raises(TypeError) as caught:
                sigma.equivalent(other)
            assert str(caught.value) == f"expected FDSet, got {type(other).__name__}"


class TestIsRedundant:
    def test_transitive_member_is_redundant(self):
        assert fdset("A -> B", "B -> C", "A -> C").is_redundant()

    def test_singleton_is_not(self):
        assert not fdset("A -> B").is_redundant()

    def test_mutual_pair_is_not(self):
        assert not fdset("A -> B", "B -> A").is_redundant()


_SIGMA = fdset("A -> B", universe="A B C")
_SCHEME = RelationScheme("A B C", _SIGMA)
_RELATION = Relation.from_rows("A B", [("0", "1")])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: FDSet([fd("A -> B C D")], universe="A B"), "attributes outside the universe: C D"),
        (lambda: _SIGMA.closure("A Z Y"), "attributes outside the universe: Y Z"),
        (lambda: enumerate_keys(RelationScheme("A Z Y", []), _SIGMA), "attributes outside the universe: Y Z"),
        (lambda: _SIGMA.implies(fd("A -> Z")), "dependency attributes outside the universe: Z"),
        (lambda: project_fds(_SIGMA, "A Z"), "projection attributes outside the universe: Z"),
        (lambda: oracle_implies(_SIGMA, fd("Z -> A")), "dependency attributes outside the universe: Z"),
        (lambda: is_superkey(_SCHEME, _SIGMA, "Z A Y"), "attributes outside the scheme: Y Z"),
        (lambda: is_prime(_SCHEME, _SIGMA, "Z"), "attributes outside the scheme: Z"),
        (lambda: Row({"A": "0"}).restrict("Z A Y"), "attributes outside the row's scheme: Y Z"),
        (lambda: Row({"A": "0"})["Z"], "attribute outside the row's scheme: Z"),
        (lambda: _RELATION.project("Z A Y"), "attributes outside the scheme: Y Z"),
        (lambda: _RELATION.satisfies(fd("A -> Z")), "attributes outside the scheme: Z"),
    ],
)
def test_stray_attributes_are_named_in_order(call, message):
    with pytest.raises(UnknownAttributeError) as excinfo:
        call()
    assert str(excinfo.value) == message


@st.composite
def sigma_and_two_subsets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pool = LETTERS[:n]
    body = draw(
        st.lists(
            st.tuples(
                st.sets(st.sampled_from(pool), min_size=1, max_size=3),
                st.sets(st.sampled_from(pool), max_size=3),
            ),
            max_size=8,
        )
    )
    sigma = FDSet([FD(l, r) for l, r in body], universe=pool)
    x = draw(st.sets(st.sampled_from(pool), max_size=n))
    y = draw(st.sets(st.sampled_from(pool), max_size=n))
    return sigma, AttributeSet(x), AttributeSet(y)


class TestClosureLaws:
    @given(sigma_and_two_subsets())
    def test_extensive_monotone_idempotent(self, case):
        sigma, x, y = case
        cx = sigma.closure(x)
        assert x <= cx
        assert sigma.closure(cx) == cx
        if x <= y:
            assert cx <= sigma.closure(y)
        assert cx <= sigma.closure(x | y)

    @given(sigma_and_two_subsets())
    def test_union_and_augmentation_rules(self, case):
        sigma, x, y = case
        cx, cy = sigma.closure(x), sigma.closure(y)
        # combining two implied dependencies implies their union
        assert sigma.implies(FD(x | y, cx | cy))
        # augmenting both sides of an implied dependency keeps it implied
        assert sigma.implies(FD(x | y, cx | y))


class TestClosureAgainstOracle:
    def test_random_small_universes_agree(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 5)
            universe = AttributeSet(LETTERS[:n])
            sigma = random_fdset(rng, universe, max_fds=6)
            x = random_subset(rng, universe)
            closed = sigma.closure(x)
            for a in universe:
                assert (a in closed) == oracle_implies(sigma, FD(x, [a]))


def _plain_closure(fds, seed) -> set:
    """Closure by the naive fixpoint, independent of fdkit's index."""
    reached = set(seed)
    grew = True
    while grew:
        grew = False
        for f in fds:
            if f.lhs <= reached and not f.rhs <= reached:
                reached |= f.rhs
                grew = True
    return reached


def _plain_sweep(fds) -> list:
    work = list(fds)
    i = 0
    while i < len(work):
        rest = work[:i] + work[i + 1 :]
        if work[i].rhs <= _plain_closure(rest, work[i].lhs):
            work = rest
        else:
            i += 1
    return work


def _plain_reduced(fds) -> list:
    work = list(fds)
    for i, f in enumerate(fds):
        lhs = f.lhs
        for a in tuple(lhs):
            trial = lhs - AttributeSet([a])
            if f.rhs <= _plain_closure(work, trial):
                lhs = trial
                work[i] = FD(lhs, f.rhs)
    return work


def _plain_minimum(fds) -> list:
    return _plain_sweep(dict.fromkeys(FD(f.lhs, _plain_closure(fds, f.lhs)) for f in fds))


def _plain_subsets(x):
    for k in range(len(x) + 1):
        for c in combinations(sorted(x), k):
            yield AttributeSet(c)


def _plain_candidates(fds, x) -> list:
    """``S -> image - S`` for every subset ``S`` of ``x`` whose image
    grows and no smaller subset keeps, with no filter beyond that."""
    out = []
    for s in _plain_subsets(x):
        image = _plain_closure(fds, s) & x
        if image <= s:
            continue
        if any(_plain_closure(fds, s - {a}) & x >= image for a in s):
            continue
        out.append(FD(s, image - s))
    return out


def _plain_projection(fds, x) -> list:
    return _plain_sweep(_plain_candidates(fds, x))


def _random_sides(rng, pool, n):
    # now and then an empty side, which the index handles apart
    return rng.sample(pool, rng.randint(0 if rng.random() < 0.05 else 1, min(3, n)))


class TestClosureIndex:
    def test_matches_a_plain_fixpoint(self):
        rng = random.Random(17)
        for _ in range(500):
            n = rng.randint(2, 12)
            pool = [f"A{i}" for i in range(n)]
            fds = [FD(_random_sides(rng, pool, n), _random_sides(rng, pool, n)) for _ in range(rng.randint(0, 2 * n))]
            sigma = FDSet(fds, universe=pool)
            fds = sigma.fds
            for _ in range(4):
                x = AttributeSet(rng.sample(pool, rng.randint(0, n)))
                assert sigma.closure(x) == _plain_closure(fds, x)
                f = FD(rng.sample(pool, rng.randint(0, 2)), rng.sample(pool, rng.randint(0, min(3, n))))
                assert sigma.implies(f) == (f.rhs <= _plain_closure(fds, f.lhs))
            # shared members, a canonical split of one, a merge of two and a
            # random fd, so each direction answers stated and closed members
            members = rng.sample(fds, len(fds) // 2)
            rewritten = [f for f in fds if f not in members]
            if rewritten:
                f = rng.choice(rewritten)
                members += [FD(f.lhs, [a]) for a in f.rhs]
            if len(rewritten) >= 2:
                f, g = rng.sample(rewritten, 2)
                members.append(FD(f.lhs | g.lhs, f.rhs | g.rhs))
            members.append(FD(_random_sides(rng, pool, n), _random_sides(rng, pool, n)))
            other = FDSet(members, universe=pool)
            for a, b in ((sigma, other), (other, sigma)):
                assert a.equivalent(b) == (
                    all(f.rhs <= _plain_closure(a.fds, f.lhs) for f in b)
                    and all(f.rhs <= _plain_closure(b.fds, f.lhs) for f in a)
                )
                assert all(a.implies(f) == (f.rhs <= _plain_closure(a.fds, f.lhs)) for f in b)
            assert sigma.is_redundant() == (len(_plain_sweep(fds)) < len(fds))
            assert reduced_cover(sigma) == FDSet(_plain_reduced(fds), universe=pool)
            assert nonredundant_cover(sigma) == FDSet(_plain_sweep(fds), universe=pool)
            assert canonical_cover(sigma) == FDSet([FD(f.lhs, [a]) for f in fds for a in f.rhs], universe=pool)
            assert minimum_cover(sigma) == FDSet(_plain_minimum(fds), universe=pool)
            x = AttributeSet(rng.sample(pool, rng.randint(1, min(n, 6))))
            assert project_fds(sigma, x) == FDSet(_plain_projection(fds, x), universe=x)

    def test_built_once_per_dependency_set(self, monkeypatch):
        # the index must not be rebuilt per closure: equivalence builds at
        # most one per side, none for a side whose members the other states,
        # implication of a member none, and the covers a fixed number
        # whatever the input size
        builds = []
        build = _ClosureIndex.__init__

        def counted(self, fds):
            builds.append(len(fds))
            build(self, fds)

        monkeypatch.setattr(_ClosureIndex, "__init__", counted)

        def chain(n):
            return [FD(f"A{i}", f"A{i + 1}") for i in range(n)]

        def builds_of(call):
            builds.clear()
            call()
            return len(builds)

        for n in (40, 400):
            sigma = FDSet(chain(n))
            assert builds_of(lambda: FDSet(chain(n)).implies(FD(f"A{n // 2}", f"A{n // 2 + 1}"))) == 0
            assert builds_of(lambda: sigma.equivalent(FDSet(reversed(chain(n))))) == 0
            assert builds_of(lambda: FDSet(chain(n)).equivalent(FDSet(chain(n)[:-1], universe=sigma.universe))) <= 1
        rng = random.Random(5)
        for cover in (minimum_cover, reduced_cover, nonredundant_cover):
            counts = set()
            for n in (40, 400):
                counts.add(builds_of(lambda: cover(FDSet(chain(n)))))
                pool = [f"A{i}" for i in range(n // 4)]
                sigma = FDSet([FD(rng.sample(pool, 3), rng.sample(pool, 1)) for _ in range(n)], universe=pool)
                counts.add(builds_of(lambda: cover(sigma)))
            assert len(counts) == 1 and counts.pop() <= 2, cover.__name__

    def test_sweep_on_a_private_index_drops_what_a_plain_sweep_drops(self):
        rng = random.Random(23)
        for _ in range(500):
            n = rng.randint(1, 10)
            pool = [f"A{i}" for i in range(n)]
            fds = FDSet([FD(_random_sides(rng, pool, n), _random_sides(rng, pool, n)) for _ in range(rng.randint(0, 2 * n))]).fds
            assert _ClosureIndex(fds).sweep() == _plain_sweep(fds)

    def test_cached_index_is_not_pickled(self):
        sigma = fdset("A B -> C", "C -> D E", "E ->")
        before = pickle.dumps(sigma)
        assert sigma.closure("A B") == AttributeSet("A B C D E")
        assert sigma.implies(fd("A B -> E")) and sigma.is_redundant()
        assert pickle.dumps(sigma) == before
        back = pickle.loads(before)
        assert back == sigma and back.closure("A B") == AttributeSet("A B C D E")


def _plain_keys(fds, x) -> list:
    keys = []
    for s in _plain_subsets(x):
        if x <= _plain_closure(fds, s) and not any(k <= s for k in keys):
            keys.append(s)
    return keys


def _plain_witness(fds, x, nonprime_only):
    """The first (determinant, dependents) that breaks BCNF, or with
    ``nonprime_only`` 3NF, in (size, lexicographic) order."""
    primes = set().union(*_plain_keys(fds, x))
    for s in _plain_subsets(x):
        inside = _plain_closure(fds, s) & x
        dependents = inside - s
        if not dependents or inside == x:
            continue
        if nonprime_only:
            dependents = sorted(dependents - primes)[:1]
            if not dependents:
                continue
        return s, AttributeSet(dependents)
    return None


_SEEN = (
    "empty lhs",
    "one attribute",
    "narrower",
    "whole bcnf satisfies",
    "whole bcnf violates",
    "whole 3nf satisfies",
    "whole 3nf violates",
    "narrower 3nf satisfies",
    "narrower 3nf violates",
)


class TestLatticeScan:
    """Keys, the first BCNF and 3NF witnesses and projection, read from
    one subset scan or from a cover of a scheme's own dependencies,
    against brute force over ``itertools`` order and a plain fixpoint
    closure.  A scheme that holds its dependencies ("whole") has its
    dependencies as that cover, and a narrower one a cover from the
    scan; both must agree."""

    def _agree(self, schema, rng, seen):
        sigma = schema.global_fds()
        fds = sigma.fds
        seen["empty lhs"] += any(not f.lhs for f in fds)
        mentioned = set().union(*(f.attributes for f in fds))
        for report, nonprime_only in ((check_bcnf(schema), False), (check_3nf(schema), True)):
            expected = []
            for i, scheme in enumerate(schema):
                found = _plain_witness(fds, scheme.attrs, nonprime_only)
                if found is not None:
                    expected.append((i, *found))
                verdict = "satisfies" if found is None else "violates"
                if mentioned <= scheme.attrs:
                    seen[f"whole {report.form} {verdict}"] += 1
                elif nonprime_only:
                    seen[f"narrower 3nf {verdict}"] += 1
            assert [(w.scheme_index, w.determinant, w.dependents) for w in report.witnesses] == expected
        for scheme in schema:
            x = scheme.attrs
            seen["one attribute"] += len(x) == 1
            seen["narrower"] += x < sigma.universe
            keys = _plain_keys(fds, x)
            assert enumerate_keys(scheme, sigma) == frozenset(keys)
            for a in x:
                assert is_prime(scheme, sigma, a) == any(a in k for k in keys)
            for y in (x, AttributeSet(rng.sample(sorted(x), rng.randint(0, len(x))))):
                assert project_fds(sigma, y) == FDSet(_plain_projection(fds, y), universe=y)

    def test_random_schemas_agree_with_brute_force(self):
        rng = random.Random(23)
        seen = dict.fromkeys(_SEEN, 0)
        for _ in range(150):
            n = rng.randint(0, 10)
            pool = [f"A{i}" for i in range(n)]
            fds = [FD(_random_sides(rng, pool, n), _random_sides(rng, pool, n)) for _ in range(rng.randint(0, 2 * n))]
            schemes = [RelationScheme(pool, FDSet(fds, universe=pool))]
            for _ in range(rng.randint(0, 2) if n else 0):
                part = rng.sample(pool, rng.randint(1, n))
                schemes.append(RelationScheme(part, [f for f in fds if f.lhs | f.rhs <= set(part)]))
            self._agree(DatabaseSchema(schemes), rng, seen)
        assert all(seen.values()), seen

    def test_hitting_set_reductions_agree_with_brute_force(self):
        # their target scheme's closures pass through attributes outside it
        rng = random.Random(29)
        seen = dict.fromkeys(_SEEN, 0)
        for _ in range(25):
            n = rng.randint(1, 4)
            ground = tuple(f"p{i}" for i in range(n))
            subsets = tuple(
                tuple(rng.sample(ground, rng.randint(1, min(3, n)))) for _ in range(rng.randint(1, 3))
            )
            self._agree(reduce_to_schema(HittingSetInstance(ground, subsets)), rng, seen)
        assert seen["narrower"]

    def test_superkey_dense_schemas_agree_with_brute_force(self):
        # most subsets hold a superkey here, so the scan prunes most of
        # the lattice: the closure of the empty set may cover a scheme,
        # single attributes may be keys, a scheme may be empty, and
        # closures may leave a scheme and come back
        rng = random.Random(37)
        seen = dict.fromkeys(_SEEN, 0)
        kinds = dict.fromkeys(("bottom covers", "single-attribute keys", "empty scheme", "passes outside"), 0)
        for _ in range(120):
            n = rng.randint(1, 10)
            pool = [f"A{i}" for i in range(n)]
            fds = [FD(_random_sides(rng, pool, n), _random_sides(rng, pool, n)) for _ in range(rng.randint(0, n))]
            kind = rng.randrange(4)
            if kind == 0:
                fds.append(FD((), rng.sample(pool, rng.randint(n // 2, n))))
            elif kind == 1:
                fds += [FD(a, b) for a, b in zip(pool, pool[1:] + pool[:1])]
            elif kind == 2:
                fds.append(FD(pool[:1], pool))
            else:
                # a chain, so that the scheme of the even attributes
                # below has closures that step through the odd ones
                fds += [FD(a, b) for a, b in zip(pool, pool[1:])]
            rng.shuffle(fds)
            sigma = FDSet(fds, universe=pool)
            schemes = [RelationScheme(pool, sigma), RelationScheme((), FDSet((), universe=()))]
            if kind == 3:
                schemes.append(RelationScheme(pool[::2], [f for f in fds if f.attributes <= set(pool[::2])]))
            for _ in range(rng.randint(0, 2)):
                part = rng.sample(pool, rng.randint(1, n))
                schemes.append(RelationScheme(part, [f for f in fds if f.attributes <= set(part)]))
            schema = DatabaseSchema(schemes)
            closure_of_nothing = sigma.closure(())
            for scheme in schema:
                x = scheme.attrs
                kinds["empty scheme"] += not x
                kinds["bottom covers"] += bool(x) and x <= closure_of_nothing
                kinds["single-attribute keys"] += len(x) > 1 and any(x <= sigma.closure([a]) for a in x)
                inside = [f for f in sigma if f.attributes <= x]
                kinds["passes outside"] += any(not sigma.closure([a]) & x <= _plain_closure(inside, [a]) for a in x)
            self._agree(schema, rng, seen)
        assert all(seen.values()) and all(kinds.values()), (seen, kinds)

    def test_lucchesi_osborn_keys_match_the_scan(self):
        # every scheme here is its sigma's whole universe, so it holds its
        # dependencies, and both its pairs and the scan's cover are covers
        # of them; the hitting-set reductions are adversarial inputs
        rng = random.Random(47)
        cases = []
        for _ in range(200):
            n = rng.randint(0, 12)
            pool = [f"A{i}" for i in range(n)]
            fds = [FD(_random_sides(rng, pool, n), _random_sides(rng, pool, n)) for _ in range(rng.randint(0, 2 * n))]
            cases.append(FDSet(fds, universe=pool))
        solvable = [0, 0]
        for _ in range(40):
            n = rng.randint(1, 5)
            ground = tuple(f"p{i}" for i in range(n))
            subsets = tuple(
                tuple(rng.sample(ground, rng.randint(1, min(3, n)))) for _ in range(rng.randint(1, 4))
            )
            instance = HittingSetInstance(ground, subsets)
            solvable[solve_hitting_set(instance) is None] += 1
            cases.append(reduce_to_schema(instance).global_fds())
        pairs = [f"A{i:02d}" for i in range(16)]
        cases.append(FDSet([FD(pairs[i], pairs[i ^ 1]) for i in range(16)]))
        assert all(solvable), solvable
        empty_lhs = 0
        widths = set()
        for sigma in cases:
            empty_lhs += any(not f.lhs for f in sigma)
            lattice = _Lattice(sigma)
            full = lattice.mask(sigma.universe)
            found = list(_lucchesi_osborn(lattice, full, lattice.pairs))
            assert len(set(found)) == len(found)
            assert sorted(found) == sorted(_lucchesi_osborn(lattice, full, lattice.cover(full)))
            if len(sigma.universe) <= 12:
                widths.add(len(sigma.universe))
                plain = _plain_keys(sigma.fds, sigma.universe)
                assert sorted(found) == sorted(lattice.mask(k) for k in plain)
        assert len(found) == 256  # the mutual pairs, the last case
        assert empty_lhs
        assert widths == set(range(13))

    def test_whole_schemes_skip_the_scan(self, monkeypatch):
        # keys, primes and satisfied verdicts of a scheme that holds its
        # dependencies never scan; a narrower scheme and a violated check
        # still do
        class Scanned(Exception):
            pass

        def scan(self, full):
            raise Scanned

        monkeypatch.setattr(_Lattice, "scan", scan)
        pool = [f"A{i:02d}" for i in range(16)]
        cyclic = FDSet([FD(a, b) for a, b in zip(pool, pool[1:] + pool[:1])])
        scheme = RelationScheme(pool, cyclic)
        assert enumerate_keys(scheme, cyclic) == frozenset(AttributeSet([a]) for a in pool)
        assert all(is_prime(scheme, cyclic, a) for a in pool)
        assert check_bcnf(DatabaseSchema([scheme])).satisfied
        assert check_3nf(DatabaseSchema([scheme])).satisfied
        # a trivial dependency breaks no form, whatever its left side
        keyed = FDSet([FD(pool[0], pool), FD(pool[1], pool[1])])
        assert check_bcnf(DatabaseSchema([RelationScheme(pool, keyed)])).satisfied
        narrower = RelationScheme(pool[::2], FDSet((), universe=pool[::2]))
        with pytest.raises(Scanned):
            enumerate_keys(narrower, cyclic)
        with pytest.raises(Scanned):
            is_prime(narrower, cyclic, pool[0])
        # mutual pairs: every attribute is prime, so 3NF holds and BCNF fails
        pairs = FDSet([FD(a, pool[i ^ 1]) for i, a in enumerate(pool)])
        assert check_3nf(DatabaseSchema([RelationScheme(pool, pairs)])).satisfied
        with pytest.raises(Scanned):
            check_bcnf(DatabaseSchema([RelationScheme(pool, pairs)]))
        chain = FDSet([FD(a, b) for a, b in zip(pool, pool[1:])])
        with pytest.raises(Scanned):
            check_3nf(DatabaseSchema([RelationScheme(pool, chain)]))

    def test_scan_yields_each_superkey_free_subset_once_in_order(self):
        # the scan walks only the scheme bits that are some left side,
        # "left"; it reaches a subset from its base, the subset without
        # its last bit, and yields it when the base was yielded, its
        # closure does not cover left and it does not determine the last
        # bit; so it yields every free subset of left whose closure does
        # not cover left, once, in (size, canonical) order, with its
        # closure and the closures of the stored subsets one size
        # smaller: those yielded whose closures do not cover left
        rng = random.Random(41)
        pruned = unfree = idle = empty = 0
        for case in range(400):
            n = rng.randint(0, 9)
            pool = [f"A{i}" for i in range(n)]
            fds = [FD(_random_sides(rng, pool, n), _random_sides(rng, pool, n)) for _ in range(rng.randint(0, 2 * n))]
            if case % 8 == 0 and n:
                fds.append(FD((), rng.sample(pool, rng.randint(1, n))))
            sigma = FDSet(fds, universe=pool)
            lattice = _Lattice(sigma)
            assert lattice.left == lattice.mask(AttributeSet([a for f in sigma.fds for a in f.lhs]))
            full = lattice.mask(AttributeSet(rng.sample(pool, rng.randint(0, n))))
            left = full & lattice.left
            idle += bool(full & ~left)
            empty += any(not f.lhs for f in sigma.fds)
            positions = [i for i in range(n) if left >> i & 1]
            by_size = [[sum(1 << i for i in c) for c in combinations(positions, k)] for k in range(len(positions) + 1)]
            closure = {
                s: lattice.mask(AttributeSet(_plain_closure(sigma.fds, lattice.attrs(s))))
                for subsets in by_size
                for s in subsets
            }
            covering = {s: not left & ~image for s, image in closure.items()}
            bits = {s: [1 << i for i in positions if s >> i & 1] for s in closure}
            free = {s: all(not closure[s ^ b] & b for b in bits[s]) for s in closure}
            # each step of a subset's bits, lowest first, as (prefix, bit)
            steps = {s: [(s & (b - 1), b) for b in bits[s]] for s in closure}
            expected = {s for s in closure if all(not covering[p] and not closure[p] & b for p, b in steps[s])}
            stored = {s for s in expected if not covering[s]}
            yielded = []
            checked = None
            for s, image, prev in lattice.scan(full):
                assert image == closure[s]
                if s:
                    top = 1 << (s.bit_length() - 1)
                    assert not closure[s ^ top] & top, (sigma, lattice.attrs(s))
                if prev is not checked:
                    size = bin(s).count("1")
                    assert prev == {t: closure[t] for t in by_size[size - 1] if t in stored} if size else not prev
                    checked = prev
                yielded.append(s)
            assert yielded == [s for subsets in by_size for s in subsets if s in expected]
            assert {s for s in closure if free[s] and not covering[s]} <= expected
            pruned += len(closure) - len(yielded)
            unfree += sum(not free[s] for s in expected)
        assert pruned and unfree and idle and empty

    def test_scan_never_holds_a_bit_that_is_no_left_side(self):
        # k attributes that are no left side, some right sides and some
        # unmentioned, change neither the subsets the scan yields nor
        # their number; at k = 30 a walk over every scheme bit would
        # yield each of the 2^15 subsets of the unmentioned ones alone
        core = ["L0", "L1", "L2", "L3", "L4"]
        ring = [FD(a, b) for a, b in zip(core[:3], core[1:4])] + [FD("L3 L4", "L0")]
        counts = []
        for k in (0, 1, 4, 30):
            idle = [f"X{i:02d}" for i in range(k)]
            fds = ring + [FD(core[i % 5 : i % 5 + 2], x) for i, x in enumerate(idle[::2])]
            sigma = FDSet(fds, universe=core + idle)
            lattice = _Lattice(sigma)
            away = lattice.mask(AttributeSet(idle))
            yielded = [s for s, _, _ in lattice.scan(lattice.mask(sigma.universe))]
            assert not any(s & away for s in yielded)
            counts.append(len(yielded))
        assert len(set(counts)) == 1 and counts[0] > 1

    def test_narrower_schemes_scan_once(self, monkeypatch):
        # a narrower scheme's keys and 3NF verdict come from the cover of
        # one scan, even when a determinant is not a superkey; its BCNF
        # check scans for the witness; is_prime reads the cover as the
        # scan yields it, and stops both at the first key holding its
        # attribute
        scanned = []
        scan = _Lattice.scan

        def counted(self, full):
            scanned.append([self.attrs(full), 0])
            for item in scan(self, full):
                scanned[-1][1] += 1
                yield item

        monkeypatch.setattr(_Lattice, "scan", counted)
        sigma = fdset("A B -> C", "C -> B", "C -> D")
        schema = DatabaseSchema(
            [RelationScheme("A B C", sigma.fds[:2]), RelationScheme("C D", sigma.fds[2:])]
        )
        assert check_3nf(schema).satisfied
        assert [s for s, _ in scanned] == [AttributeSet("A B C"), AttributeSet("C D")]
        scanned.clear()
        scheme = schema.schemes[0]
        assert enumerate_keys(scheme, sigma) == {AttributeSet("A B"), AttributeSet("A C")}
        assert scanned == [[AttributeSet("A B C"), 7]]  # 0, A, B, C, A B, A C, B C
        scanned.clear()
        # the first key, A C, needs no pair; A B comes with the pair A B -> C
        assert is_prime(scheme, sigma, "A") and not scanned
        assert is_prime(scheme, sigma, "B")
        assert scanned == [[AttributeSet("A B C"), 5]]
        scanned.clear()
        report = check_bcnf(schema)
        assert [(w.determinant, w.dependents) for w in report.witnesses] == [(AttributeSet("C"), AttributeSet("B"))]
        assert [s for s, _ in scanned] == [AttributeSet("A B C"), AttributeSet("C D")]

    def test_projection_filter_keeps_the_unfiltered_sweep(self):
        # projection drops subset-implied candidates before its sweep;
        # the result must be what the sweep makes of every candidate
        rng = random.Random(43)
        cases = []
        for _ in range(60):
            n = rng.randint(2, 12)
            pool = [f"A{i}" for i in range(n)]
            fds = [FD(_random_sides(rng, pool, n), _random_sides(rng, pool, n)) for _ in range(rng.randint(0, 2 * n))]
            cases.append(FDSet(fds, universe=pool))
        for _ in range(25):
            n = rng.randint(1, 4)
            ground = tuple(f"p{i}" for i in range(n))
            subsets = tuple(
                tuple(rng.sample(ground, rng.randint(1, min(3, n)))) for _ in range(rng.randint(1, 3))
            )
            cases.append(reduce_to_schema(HittingSetInstance(ground, subsets)).global_fds())
        widest = 0
        for sigma in cases:
            pool = sorted(sigma.universe)
            for x in (AttributeSet(pool), AttributeSet(rng.sample(pool, rng.randint(0, len(pool))))):
                candidates = _plain_candidates(sigma.fds, x)
                got = project_fds(sigma, x)
                assert got == FDSet(_plain_sweep(candidates), universe=x)
                assert got == nonredundant_cover(FDSet(candidates, universe=x))
                widest = max(widest, len(x))
        assert widest == 12
