"""Cover rewrites: reduced, non-redundant, canonical, minimum, projection."""

import random
import time

import pytest

from fdkit import (
    FD,
    AttributeSet,
    FDSet,
    LimitExceededError,
    canonical_cover,
    minimum_cover,
    nonredundant_cover,
    oracle_implies,
    project_fds,
    reduced_cover,
)

from util import (
    LETTERS,
    exhaustive_minimum_cover_size,
    fd,
    fdset,
    random_fdset,
)


class TestReducedCover:
    def test_removable_left_attribute_is_dropped(self):
        assert reduced_cover(fdset("A B -> C", "B -> A")) == fdset("B -> C", "B -> A")

    def test_singleton_left_sides_untouched(self):
        assert reduced_cover(fdset("A -> B")) == fdset("A -> B")

    def test_unreducible_pair_left_side_kept(self):
        assert reduced_cover(fdset("A C -> B")) == fdset("A C -> B")

    def test_result_is_equivalent(self):
        rng = random.Random(11)
        for _ in range(40):
            sigma = random_fdset(rng, LETTERS[: rng.randint(1, 5)], max_fds=6)
            assert reduced_cover(sigma).equivalent(sigma)

    def test_every_left_side_is_reduced(self):
        rng = random.Random(12)
        for _ in range(40):
            sigma = random_fdset(rng, LETTERS[: rng.randint(1, 5)], max_fds=6)
            out = reduced_cover(sigma)
            for f in out:
                for a in f.lhs:
                    slimmer = FD(f.lhs - AttributeSet([a]), f.rhs)
                    assert not out.implies(slimmer)


class TestNonredundantCover:
    def test_drops_the_late_transitive_member(self):
        sigma = fdset("A -> B", "B -> C", "A -> C")
        assert nonredundant_cover(sigma) == fdset("A -> B", "B -> C")

    def test_singleton_untouched(self):
        assert nonredundant_cover(fdset("A -> B")) == fdset("A -> B")

    def test_duplicates_already_gone_at_construction(self):
        assert nonredundant_cover(fdset("A -> B", "A -> B")) == fdset("A -> B")

    def test_result_is_equivalent_and_nonredundant(self):
        rng = random.Random(13)
        for _ in range(40):
            sigma = random_fdset(rng, LETTERS[: rng.randint(1, 5)], max_fds=7)
            out = nonredundant_cover(sigma)
            assert out.equivalent(sigma)
            assert not out.is_redundant()


class TestCanonicalCover:
    def test_splits_wide_right_sides_in_order(self):
        out = canonical_cover(fdset("E -> C D"))
        assert [str(f) for f in out] == ["E -> C", "E -> D"]

    def test_already_canonical_is_kept(self):
        assert canonical_cover(fdset("A -> A")) == fdset("A -> A")

    def test_empty_right_sides_are_dropped(self):
        out = canonical_cover(FDSet([fd("A ->")], universe="A B"))
        assert len(out) == 0
        assert out.universe == AttributeSet("A B")

    def test_all_members_have_singleton_right_sides(self):
        rng = random.Random(14)
        for _ in range(40):
            sigma = random_fdset(
                rng, LETTERS[: rng.randint(1, 5)], max_fds=6, allow_empty_rhs=True
            )
            out = canonical_cover(sigma)
            assert out.equivalent(sigma)
            assert all(len(f.rhs) == 1 for f in out)


class TestMinimumCover:
    def test_rewrites_to_closed_dependencies(self):
        out = minimum_cover(fdset("A -> B", "B -> C", "A -> C"))
        assert out == fdset("A -> A B C", "B -> B C")

    def test_empty_input(self):
        assert minimum_cover(FDSet()) == FDSet()

    def test_single_dependency_is_closed(self):
        assert minimum_cover(fdset("A -> B")) == fdset("A -> A B")

    def test_equal_left_side_groups_collapse(self):
        # the per-dependency pass alone would keep a redundant third member
        out = minimum_cover(fdset("A B -> C", "A -> B", "B -> A"))
        assert out == fdset("A -> A B C", "B -> A B C")

    def test_left_sides_keep_their_first_order(self):
        sigma = fdset("A -> B", "C -> B", "A -> C")
        out = minimum_cover(sigma)
        assert out == fdset("A -> A B C", "C -> B C")
        assert len(out) == exhaustive_minimum_cover_size(sigma)

    def test_sweep_runs_over_the_closed_left_sides_in_order(self):
        # B C closes through C -> A C and then A B, so the sweep drops it
        sigma = fdset("C -> A", "B C -> D", "A -> C", "A B -> C")
        out = minimum_cover(sigma)
        assert out == fdset("C -> A C", "A -> A C", "A B -> A B C D")
        assert len(out) == exhaustive_minimum_cover_size(sigma)

    def test_one_closure_per_distinct_left_side(self, monkeypatch):
        # a canonical input repeats a left side once per right attribute
        sigma = canonical_cover(fdset("A -> B C D", "B -> C D", "A -> E"))
        asked = []
        close = FDSet.closure
        monkeypatch.setattr(FDSet, "closure", lambda self, x: asked.append(x) or close(self, x))
        assert minimum_cover(sigma) == fdset("A -> A B C D E", "B -> B C D")
        assert asked == [AttributeSet("A"), AttributeSet("B")]

    def test_minimum_properties_on_random_inputs(self):
        rng = random.Random(15)
        for _ in range(60):
            sigma = random_fdset(rng, LETTERS[: rng.randint(2, 5)], max_fds=7)
            out = minimum_cover(sigma)
            assert out.equivalent(sigma)
            assert not out.is_redundant()
            for f in out:
                assert f.rhs == out.closure(f.lhs)
            assert len(out) == exhaustive_minimum_cover_size(sigma)


class TestProjectFds:
    def test_transitivity_survives_projection(self):
        sigma = fdset("A -> B", "B -> C")
        out = project_fds(sigma, "A C")
        assert out == FDSet([fd("A -> C")], universe="A C")
        # instance-based double check over the projected universe
        assert oracle_implies(out, fd("A -> C"))
        assert not oracle_implies(out, fd("C -> A"))

    def test_empty_input_projects_to_empty(self):
        out = project_fds(FDSet((), universe="A B C"), "A B")
        assert len(out) == 0 and out.universe == AttributeSet("A B")

    def test_projection_keeps_contained_dependency(self):
        sigma = fdset("E -> C D", universe="A B C D E")
        out = project_fds(sigma, "C D E")
        assert out.equivalent(FDSet([fd("E -> C D")], universe="C D E"))

    def test_result_universe_is_the_projection(self):
        assert project_fds(fdset("A -> B"), "A").universe == AttributeSet("A")

    def test_limit_refusal(self):
        sigma = FDSet((), universe=LETTERS[:5])
        with pytest.raises(LimitExceededError):
            project_fds(sigma, LETTERS[:5], limit=4)

    def test_rejects_attributes_outside_universe(self):
        from fdkit import UnknownAttributeError

        with pytest.raises(UnknownAttributeError):
            project_fds(fdset("A -> B"), "A Z")

    def test_narrow_projection_of_a_wide_universe_is_prompt(self):
        # A -> Pi, A -> Qi, Pi -> Ci, Qi -> Ci, C0 ... C15 -> T over 50
        # attributes.  The subset scan closes three subsets of A T, while
        # projection by attribute elimination in name order takes the Cs
        # before the Ps and Qs, and its time grows about fourfold with
        # each step in k.
        k = 16
        texts = [f"A -> P{i}" for i in range(k)] + [f"A -> Q{i}" for i in range(k)]
        texts += [f"P{i} -> C{i}" for i in range(k)] + [f"Q{i} -> C{i}" for i in range(k)]
        sigma = fdset(*texts, " ".join(f"C{i}" for i in range(k)) + " -> T")
        assert len(sigma.universe) == 50
        start = time.perf_counter()
        assert project_fds(sigma, "A T") == FDSet([fd("A -> T")], universe="A T")
        assert time.perf_counter() - start < 5

    def test_projection_is_sound_and_complete(self):
        # every projected consequence is kept, nothing new is invented
        rng = random.Random(16)
        for _ in range(30):
            n = rng.randint(2, 5)
            universe = AttributeSet(LETTERS[:n])
            sigma = random_fdset(rng, universe, max_fds=6)
            x = AttributeSet(rng.sample(list(universe), rng.randint(1, n)))
            out = project_fds(sigma, x)
            for f in out:
                assert f.attributes <= x
                assert sigma.implies(f)
            from itertools import combinations

            pool = list(x)
            for size in range(len(pool) + 1):
                for combo in combinations(pool, size):
                    s = AttributeSet(combo)
                    assert out.closure(s) == sigma.closure(s) & x
