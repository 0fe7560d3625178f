"""Attribute, AttributeSet, FD, and FDSet behaviour, including the
closure laws."""

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdkit import (
    FD,
    Attribute,
    AttributeSet,
    FDSet,
    Relation,
    RelationScheme,
    Row,
    UniverseMismatchError,
    UnknownAttributeError,
    is_prime,
    is_superkey,
    oracle_implies,
    project_fds,
)

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
