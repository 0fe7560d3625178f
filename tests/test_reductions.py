"""Exact hitting sets and their translation to BCNF-violation instances."""

import random

import pytest

from fdkit import (
    AttributeSet,
    HittingSetInstance,
    InstanceFormatError,
    LimitExceededError,
    ReservedNameError,
    check_bcnf,
    parse_instance,
    reduce_to_schema,
    render_instance,
    solve_hitting_set,
)


def worked_example():
    return HittingSetInstance(
        tuple(f"p{i}" for i in range(1, 9)),
        (
            ("p1", "p2", "p3"),
            ("p2", "p3", "p4"),
            ("p1", "p7", "p8"),
            ("p5", "p6", "p7"),
        ),
    )


def _is_exact_hitting_set(instance, w):
    return all(len(w & subset) == 1 for subset in instance.subsets)


class TestInstance:
    def test_validation(self):
        with pytest.raises(InstanceFormatError):
            HittingSetInstance((), (("a",),))
        with pytest.raises(InstanceFormatError):
            HittingSetInstance(("a",), ())
        with pytest.raises(InstanceFormatError):
            HittingSetInstance(("a",), ((),))
        with pytest.raises(InstanceFormatError):
            HittingSetInstance(("a",), (("b",),))
        with pytest.raises(InstanceFormatError):
            HittingSetInstance(("a", "a"), (("a",),))

    def test_parse_render_round_trip(self):
        text = "elements: a b c\nset: a b\nset: c\n"
        instance = parse_instance(text)
        assert render_instance(instance) == text
        assert parse_instance(render_instance(instance)) == instance

    def test_parse_skips_comments_and_blanks(self):
        instance = parse_instance("# heading\n\nelements: a b # trailing\nset: a\n")
        assert instance.ground == (instance.ground[0], instance.ground[1])
        assert len(instance.subsets) == 1

    @pytest.mark.parametrize(
        "text",
        [
            "set: a\n",  # missing elements line
            "elements: a\nelements: a\nset: a\n",
            "elements: a\nset:\n",
            "elements: a\nwhatever: a\n",
            "elements: a\nset: b\n",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(InstanceFormatError):
            parse_instance(text)


class TestSolver:
    def test_worked_example_has_a_solution(self):
        instance = worked_example()
        w = solve_hitting_set(instance)
        assert w is not None
        assert _is_exact_hitting_set(instance, w)
        # e.g. p2 p5 p8 is one valid answer; the solver must agree that
        # its own pick is valid and stay deterministic
        assert solve_hitting_set(instance) == w

    def test_singleton(self):
        instance = HittingSetInstance(("a",), (("a",), ("a",)))
        assert solve_hitting_set(instance) == AttributeSet("a")

    def test_forced_double_hit_has_no_solution(self):
        instance = HittingSetInstance(("a", "b"), (("a", "b"), ("a",), ("b",)))
        assert solve_hitting_set(instance) is None

    def test_result_is_lexicographically_least(self):
        instance = HittingSetInstance(("a", "b"), (("a", "b"),))
        assert solve_hitting_set(instance) == AttributeSet("a")

    def test_limit_refusal(self):
        instance = HittingSetInstance(tuple("abcdef"), (("a",),))
        with pytest.raises(LimitExceededError):
            solve_hitting_set(instance, limit=5)

    def test_deep_search_under_a_raised_limit(self, tmp_path, capsys):
        # 1200 disjoint one-element sets: the only answer picks every
        # element, a path deeper than the interpreter's recursion limit
        from fdkit.cli import main

        n = 1200
        ground = tuple(f"e{i}" for i in range(n))
        instance = HittingSetInstance(ground, tuple((e,) for e in ground))
        assert solve_hitting_set(instance, limit=n) == AttributeSet(ground)
        path = tmp_path / "deep.hs"
        path.write_text(render_instance(instance))
        assert main(["hitting-set", str(path), "--limit", str(n)]) == 0
        assert capsys.readouterr().out.split() == sorted(ground)

    def test_agrees_with_brute_force(self):
        from itertools import combinations

        rng = random.Random(51)
        for _ in range(80):
            n = rng.randint(1, 6)
            ground = tuple(f"p{i}" for i in range(n))
            subsets = tuple(
                tuple(rng.sample(ground, rng.randint(1, n)))
                for _ in range(rng.randint(1, 4))
            )
            instance = HittingSetInstance(ground, subsets)
            found = solve_hitting_set(instance)
            exists = any(
                _is_exact_hitting_set(instance, AttributeSet(combo))
                for size in range(n + 1)
                for combo in combinations(ground, size)
            )
            assert (found is not None) == exists
            if found is not None:
                assert _is_exact_hitting_set(instance, found)


class TestReduceToSchema:
    def test_smallest_instance_layout(self):
        schema = reduce_to_schema(HittingSetInstance(("a",), (("a",),)))
        attrs = [s.attrs for s in schema.schemes]
        assert attrs == [
            AttributeSet("a B1"),
            AttributeSet("B1 __C"),
            AttributeSet("a __C __D"),
        ]
        membership, collector, target = schema.schemes
        assert [str(f) for f in membership.fds] == ["a -> B1"]
        assert [str(f) for f in collector.fds] == ["B1 -> __C"]
        assert [str(f) for f in target.fds] == ["__C __D -> a"]

    def test_no_pair_dependencies_for_singleton_subsets(self):
        schema = reduce_to_schema(
            HittingSetInstance(("a", "b"), (("a",), ("b",)))
        )
        target = schema.schemes[-1]
        assert [str(f) for f in target.fds] == ["__C __D -> a b"]

    def test_worked_example_counts(self):
        instance = worked_example()
        schema = reduce_to_schema(instance)
        memberships = sum(len(s) for s in instance.subsets)
        assert memberships == 12
        # one scheme per membership, plus the collector and the target
        assert len(schema.schemes) == memberships + 2
        target = schema.schemes[-1]
        # pair dependencies are deduplicated across subsets: p2 p3 is
        # shared by the first two subsets
        pair_fds = [f for f in target.fds if f.rhs == AttributeSet("__C __D")]
        assert len(pair_fds) == 11
        assert len(schema.global_fds()) == memberships + 1 + 11 + 1

    def test_worked_example_target_fds_in_order(self):
        # pairs in subset order, each subset's in name order; the shared
        # p2 p3 appears once, where the first subset puts it
        target = reduce_to_schema(worked_example()).schemes[-1]
        assert [str(f) for f in target.fds] == [
            "__C __D -> p1 p2 p3 p4 p5 p6 p7 p8",
            "p1 p2 -> __C __D",
            "p1 p3 -> __C __D",
            "p2 p3 -> __C __D",
            "p2 p4 -> __C __D",
            "p3 p4 -> __C __D",
            "p1 p7 -> __C __D",
            "p1 p8 -> __C __D",
            "p7 p8 -> __C __D",
            "p5 p6 -> __C __D",
            "p5 p7 -> __C __D",
            "p6 p7 -> __C __D",
        ]

    def test_name_collision_refused(self):
        with pytest.raises(ReservedNameError):
            reduce_to_schema(HittingSetInstance(("B1", "x"), (("x",),)))
        with pytest.raises(ReservedNameError):
            reduce_to_schema(HittingSetInstance(("__C",), (("__C",),)))

    def test_violation_exactly_when_hittable(self):
        rng = random.Random(52)
        for _ in range(40):
            n = rng.randint(1, 6)
            ground = tuple(f"p{i}" for i in range(n))
            subsets = tuple(
                tuple(rng.sample(ground, rng.randint(1, min(3, n))))
                for _ in range(rng.randint(1, 4))
            )
            instance = HittingSetInstance(ground, subsets)
            schema = reduce_to_schema(instance)
            witness = solve_hitting_set(instance)
            report = check_bcnf(schema)
            assert (witness is not None) == (not report.satisfied)
            if witness is not None:
                sigma = schema.global_fds()
                expected = (
                    witness
                    | AttributeSet([s.name for s in _set_attrs(schema)])
                    | AttributeSet(["__C"])
                )
                assert sigma.closure(witness) == expected


def _set_attrs(schema):
    collector = schema.schemes[-2]
    return [a for a in collector.attrs if a.name.startswith("B")]
