"""Keys, normal-form checks, BCNF decomposition, 3NF synthesis, and
representation checking."""

import hashlib
import random
import time
from collections import Counter
from itertools import combinations

import pytest

from fdkit import (
    FD,
    AttributeSet,
    DatabaseSchema,
    FDSet,
    LimitExceededError,
    Relation,
    RelationScheme,
    UniverseMismatchError,
    UnknownAttributeError,
    bcnf_decompose,
    canonical_cover,
    check_3nf,
    check_bcnf,
    check_represents,
    enumerate_keys,
    find_key,
    is_determinant,
    is_lossless_on,
    is_prime,
    is_superkey,
    nonredundant_cover,
    random_satisfying_instance,
    reduced_cover,
    synthesize_3nf,
)

from fdkit.fds import _Lattice
from fdkit.instances import _chase, _chase_classes, _unify

from util import LETTERS, fd, fdset, random_fdset


def student_scheme():
    return RelationScheme(
        "DEPARTMENT STUDENT SUPERVISOR",
        fdset("DEPARTMENT -> SUPERVISOR", universe="DEPARTMENT STUDENT SUPERVISOR"),
        name="Student",
    )


def student_schema():
    return DatabaseSchema((student_scheme(),))


def _classes(column):
    """The partition of a column's cells: each cell's class, numbered in
    the order the classes first appear."""
    seen: dict = {}
    return [seen.setdefault(value, len(seen)) for value in column]


def universal(attrs, *fd_texts):
    return RelationScheme(attrs, fdset(*fd_texts, universe=attrs))


def without_fds(parts):
    return DatabaseSchema(tuple(RelationScheme(p, FDSet((), universe=p)) for p in parts))


def _random_schema(rng, max_attrs=6):
    n = rng.randint(2, max_attrs)
    universe = AttributeSet(LETTERS[:n])
    sigma = random_fdset(rng, universe, max_fds=6)
    attrs = list(universe)
    schemes = []
    covered = set()
    for _ in range(rng.randint(1, 3)):
        part = AttributeSet(rng.sample(attrs, rng.randint(1, n)))
        covered.update(part)
        local = FDSet([f for f in sigma if f.attributes <= part], universe=part)
        schemes.append(RelationScheme(part, local))
    leftover = universe - AttributeSet(covered)
    if leftover:
        schemes.append(RelationScheme(universe, sigma))
    return DatabaseSchema(tuple(schemes))


class TestSchemeTypes:
    def test_local_dependencies_must_fit_the_scheme(self):
        with pytest.raises(UnknownAttributeError):
            RelationScheme("A B", fdset("A -> C"))

    def test_keeps_a_dependency_set_over_exactly_its_attributes(self):
        f = fdset("A -> B", universe="A B C")
        assert RelationScheme(AttributeSet("A B C"), f).fds is f
        # any other set is rebuilt over the scheme's attributes
        for other in (fdset("A -> B", universe="A B C D"), fdset("A -> B"), [fd("A -> B")]):
            assert RelationScheme("A B C", other).fds == f

    def test_universe_is_the_union(self):
        db = DatabaseSchema(
            (universal("A B", "A -> B"), universal("B C", "B -> C"))
        )
        assert db.universe == AttributeSet("A B C")
        assert db.global_fds() == fdset("A -> B", "B -> C", universe="A B C")


class TestDeterminantsAndKeys:
    def test_department_is_a_determinant(self):
        scheme = student_scheme()
        assert is_determinant(scheme, scheme.fds, "DEPARTMENT")

    def test_full_scheme_is_never_a_determinant(self):
        scheme = student_scheme()
        assert not is_determinant(scheme, scheme.fds, scheme.attrs)

    def test_nothing_determines_without_dependencies(self):
        scheme = universal("A B C")
        assert not is_determinant(scheme, scheme.fds, "A")

    def test_superkey_by_transitivity(self):
        scheme = universal("A B C", "A -> B", "B -> C")
        assert is_superkey(scheme, scheme.fds, "A")

    def test_full_attribute_set_is_a_superkey(self):
        scheme = universal("A B C")
        assert is_superkey(scheme, scheme.fds, "A B C")

    def test_partial_closure_is_not_a_superkey(self):
        scheme = universal("A B C", "A -> B")
        assert not is_superkey(scheme, scheme.fds, "A")

    def test_find_key_shrinks_to_the_chain_head(self):
        scheme = universal("A B C", "A -> B", "B -> C")
        assert find_key(scheme, scheme.fds) == AttributeSet("A")

    def test_find_key_without_dependencies_keeps_everything(self):
        scheme = universal("A B C")
        assert find_key(scheme, scheme.fds) == AttributeSet("A B C")

    def test_find_key_for_student_scheme(self):
        scheme = student_scheme()
        assert find_key(scheme, scheme.fds) == AttributeSet("DEPARTMENT STUDENT")

    def test_enumerate_keys_on_mutual_pair(self):
        scheme = universal("A B C", "A -> B", "B -> A", "B -> C")
        assert enumerate_keys(scheme, scheme.fds) == frozenset(
            {AttributeSet("A"), AttributeSet("B")}
        )

    def test_enumerate_keys_without_dependencies(self):
        scheme = universal("A B")
        assert enumerate_keys(scheme, scheme.fds) == frozenset({AttributeSet("A B")})

    def test_enumerate_keys_simple_head(self):
        scheme = universal("A B", "A -> B")
        assert enumerate_keys(scheme, scheme.fds) == frozenset({AttributeSet("A")})

    def test_enumerate_keys_limit_refusal(self):
        scheme = universal("A B C D E")
        with pytest.raises(LimitExceededError):
            enumerate_keys(scheme, scheme.fds, limit=4)

    def test_find_key_is_a_minimal_member_of_all_keys(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 5)
            scheme = RelationScheme(LETTERS[:n], random_fdset(rng, LETTERS[:n], max_fds=5))
            sigma = scheme.fds
            key = find_key(scheme, sigma)
            assert is_superkey(scheme, sigma, key)
            for a in key:
                assert not is_superkey(scheme, sigma, key - AttributeSet([a]))
            assert key in enumerate_keys(scheme, sigma)

    def test_prime_attribute_in_some_key(self):
        scheme = universal("A B C", "A -> B", "B -> A", "B -> C")
        assert is_prime(scheme, scheme.fds, "B")

    def test_every_attribute_prime_without_dependencies(self):
        scheme = universal("A B C")
        assert all(is_prime(scheme, scheme.fds, a) for a in scheme.attrs)

    def test_dependent_only_attribute_is_not_prime(self):
        scheme = universal("A B C", "A -> B", "A -> C")
        assert not is_prime(scheme, scheme.fds, "C")


class TestCheckBcnf:
    def test_student_schema_violates_with_department_witness(self):
        report = check_bcnf(student_schema())
        assert not report.satisfied
        assert report.verdict == "violates"
        (witness,) = report.witnesses
        assert witness.determinant == AttributeSet("DEPARTMENT")
        assert witness.dependents == AttributeSet("SUPERVISOR")

    def test_dependency_free_schema_satisfies(self):
        report = check_bcnf(DatabaseSchema((universal("A B C"),)))
        assert report.satisfied and not report.witnesses

    def test_witnesses_replay_through_the_predicates(self):
        schema = student_schema()
        sigma = schema.global_fds()
        for witness in check_bcnf(schema).witnesses:
            scheme = schema.schemes[witness.scheme_index]
            assert is_determinant(scheme, sigma, witness.determinant)
            assert not is_superkey(scheme, sigma, witness.determinant)

    def test_limit_refusal(self):
        with pytest.raises(LimitExceededError):
            check_bcnf(DatabaseSchema((universal("A B C D E"),)), limit=3)


class TestCheck3nf:
    def test_student_schema_violates_via_nonprime_supervisor(self):
        report = check_3nf(student_schema())
        assert not report.satisfied
        (witness,) = report.witnesses
        assert witness.determinant == AttributeSet("DEPARTMENT")
        assert witness.dependents == AttributeSet("SUPERVISOR")
        assert witness.reason == "nonprime-dependent"

    def test_prime_dependent_is_tolerated(self):
        scheme = universal("A B C", "A B -> C", "C -> A")
        report = check_3nf(DatabaseSchema((scheme,)))
        assert report.satisfied

    def test_matches_the_definition_on_random_schemas(self):
        # 3NF from its definition: a violation is a subset X of a scheme
        # that is no superkey there and determines an attribute of the
        # scheme outside X that lies in no key.  Keys are found here by
        # brute force, and the expected witness is the first such X in
        # (size, canonical) order with its first such attribute.
        rng = random.Random(37)
        violations = 0
        for _ in range(150):
            schema = _random_schema(rng, max_attrs=9)
            sigma = schema.global_fds()
            expected = []
            for index, scheme in enumerate(schema.schemes):
                attrs = tuple(scheme.attrs)
                subsets = [
                    AttributeSet(c)
                    for size in range(len(attrs) + 1)
                    for c in combinations(attrs, size)
                ]
                superkeys = [x for x in subsets if scheme.attrs <= sigma.closure(x)]
                keys = [k for k in superkeys if not any(t < k for t in superkeys)]
                primes = {a for k in keys for a in k}
                for x in subsets:
                    if x in superkeys:
                        continue
                    inside = sigma.closure(x) & scheme.attrs
                    nonprime = [a for a in inside - x if a not in primes]
                    if nonprime:
                        expected.append((index, x, AttributeSet(nonprime[:1])))
                        break
            report = check_3nf(schema)
            assert report.satisfied == (not expected)
            got = [(w.scheme_index, w.determinant, w.dependents) for w in report.witnesses]
            assert got == expected
            violations += len(expected)
        assert violations > 0

    def test_bcnf_outputs_pass(self):
        rng = random.Random(32)
        for _ in range(25):
            schema = _random_schema(rng, max_attrs=5)
            decomposed = bcnf_decompose(schema)
            assert check_bcnf(decomposed).satisfied
            assert check_3nf(decomposed).satisfied

    def test_bcnf_implies_3nf_on_random_schemas(self):
        rng = random.Random(33)
        seen_pass = 0
        for _ in range(120):
            schema = _random_schema(rng, max_attrs=5)
            if check_bcnf(schema).satisfied:
                seen_pass += 1
                assert check_3nf(schema).satisfied
        assert seen_pass > 0


class TestBcnfDecompose:
    def test_wide_dependency_splits_off_its_closure(self):
        schema = DatabaseSchema((universal("A B C D E", "E -> C D"),))
        out = bcnf_decompose(schema)
        assert [s.attrs for s in out.schemes] == [
            AttributeSet("C D E"),
            AttributeSet("A B E"),
        ]
        assert out.schemes[0].fds.equivalent(fdset("E -> C D", universe="C D E"))
        assert len(out.schemes[1].fds) == 0

    def test_already_normalized_schema_is_unchanged(self):
        schema = DatabaseSchema(
            (universal("A B", "A -> B"), universal("B C", "B -> C"))
        )
        assert bcnf_decompose(schema) == schema

    def test_student_schema_single_step(self):
        out = bcnf_decompose(student_schema())
        assert [s.attrs for s in out.schemes] == [
            AttributeSet("DEPARTMENT SUPERVISOR"),
            AttributeSet("DEPARTMENT STUDENT"),
        ]

    def test_output_always_passes_and_universe_is_kept(self):
        rng = random.Random(34)
        for _ in range(40):
            schema = _random_schema(rng, max_attrs=5)
            out = bcnf_decompose(schema)
            assert check_bcnf(out).satisfied
            assert out.universe == schema.universe

    def test_splits_are_lossless_on_satisfying_instances(self):
        rng = random.Random(35)
        for _ in range(25):
            n = rng.randint(2, 5)
            sigma = random_fdset(rng, LETTERS[:n], max_fds=5)
            schema = DatabaseSchema((RelationScheme(LETTERS[:n], sigma),))
            out = bcnf_decompose(schema)
            parts = [s.attrs for s in out.schemes]
            for _ in range(10):
                instance = random_satisfying_instance(sigma, rng)
                assert is_lossless_on(instance, parts)

    def test_outputs_are_unchanged(self):
        # deep splits of seeded schemas of 10-16 attributes, refusals
        # included, with each scheme's name, attributes and dependencies
        rng = random.Random(73)
        digest = hashlib.sha256()
        refused = deep = 0
        for _ in range(200):
            names = [f"A{i:02d}" for i in range(rng.randint(10, 16))]
            fds = [
                FD(rng.sample(names, rng.randint(1, 2)), rng.sample(names, rng.randint(1, 3)))
                for _ in range(rng.randint(4, len(names)))
            ]
            whole = RelationScheme(names, FDSet(fds, universe=names), name="U")
            narrower = RelationScheme(rng.sample(names, rng.randint(2, len(names))), (), name="N")
            schema = DatabaseSchema((whole, narrower))
            try:
                out = bcnf_decompose(schema, limit=rng.choice((12, 20)))
            except LimitExceededError as exc:
                refused += 1
                digest.update(f"{exc}\n".encode())
                continue
            deep += len(out.schemes) >= 5
            for s in out.schemes:
                digest.update(f"{s.name} {' '.join(s.attrs.names)} | {s.fds}\n".encode())
            digest.update(b"--\n")
        assert refused >= 50 and deep >= 100
        assert digest.hexdigest() == "5e5c20aa39bff5554a0bb7a7662f7862a6ac734733d0baf51a6648921b0b3b76"

    def test_builds_one_lattice_and_projects_each_final_part_once(self, monkeypatch):
        calls = Counter()

        def counted(name, method):
            def call(self, *args):
                calls[name] += 1
                return method(self, *args)

            return call

        monkeypatch.setattr(_Lattice, "__init__", counted("lattice", _Lattice.__init__))
        monkeypatch.setattr(_Lattice, "cover", counted("cover", _Lattice.cover))
        kept = universal("B C", "B -> C")
        schema = DatabaseSchema((universal("A B C D E F", "A -> B", "B -> C", "D -> E"), kept))
        out = bcnf_decompose(schema)
        assert [s.attrs for s in out.schemes] == [
            AttributeSet("B C"),
            AttributeSet("A B"),
            AttributeSet("D E"),
            AttributeSet("A D F"),
            AttributeSet("B C"),
        ]
        assert out.schemes[-1] is kept
        assert calls == {"lattice": 1, "cover": 4}

    def test_refusal_after_a_split_names_the_output_index(self):
        schema = DatabaseSchema((universal("A B C", "A -> B"), universal("D E F G H I")))
        with pytest.raises(LimitExceededError) as info:
            bcnf_decompose(schema, limit=5)
        assert str(info.value) == "BCNF decomposition of scheme 2 refused: size 6 exceeds the limit of 5"


class TestSynthesize3nf:
    def test_chain_produces_two_schemes_and_drops_the_key_scheme(self):
        out = synthesize_3nf(universal("A B C", "A -> B", "B -> C"))
        assert [s.attrs for s in out.schemes] == [
            AttributeSet("A B"),
            AttributeSet("B C"),
        ]
        assert out.schemes[0].fds.equivalent(fdset("A -> B", universe="A B"))
        assert out.schemes[1].fds.equivalent(fdset("B -> C", universe="B C"))

    def test_no_dependencies_yields_the_whole_universe(self):
        out = synthesize_3nf(universal("A B C"))
        assert [s.attrs for s in out.schemes] == [AttributeSet("A B C")]
        assert len(out.schemes[0].fds) == 0

    def test_same_left_sides_merge_and_key_scheme_survives(self):
        out = synthesize_3nf(universal("A B C D E", "E -> C", "E -> D"))
        assert [s.attrs for s in out.schemes] == [
            AttributeSet("C D E"),
            AttributeSet("A B E"),
        ]
        assert len(out.schemes[1].fds) == 0

    def test_verbatim_mode_keeps_per_dependency_schemes(self):
        out = synthesize_3nf(universal("A B C", "A -> B", "B -> C"), verbatim=True)
        assert [s.attrs for s in out.schemes] == [
            AttributeSet("A B"),
            AttributeSet("B C"),
            AttributeSet("A"),
        ]
        assert len(out.schemes[2].fds) == 0

    def test_wide_scheme_is_refused_beyond_the_limit(self):
        attrs = [f"A{i}" for i in range(16)]
        uni = RelationScheme(attrs, FDSet([FD(attrs[:1], attrs[1:])]))
        with pytest.raises(LimitExceededError):
            synthesize_3nf(uni, limit=4)

    def test_wide_star_within_a_raised_limit_is_one_scheme(self):
        # only A00 is a left side, so projecting onto all 40 attributes
        # scans two subsets, not the 2^39 without A00
        attrs = [f"A{i:02d}" for i in range(40)]
        star = FDSet([FD(attrs[:1], attrs[1:])])
        out = synthesize_3nf(RelationScheme(attrs, star), limit=40)
        assert [s.attrs for s in out.schemes] == [AttributeSet(attrs)]
        assert out.schemes[0].fds == star

    def test_output_invariants_on_random_inputs(self):
        rng = random.Random(36)
        for _ in range(50):
            n = rng.randint(2, 6)
            uni = universal(LETTERS[:n])
            sigma = random_fdset(rng, uni.attrs, max_fds=6)
            uni = RelationScheme(uni.attrs, sigma)
            for verbatim in (False, True):
                out = synthesize_3nf(uni, verbatim=verbatim)
                union = AttributeSet()
                for s in out.schemes:
                    assert s.attrs <= uni.attrs
                    union = union | s.attrs
                assert union == uni.attrs
                assert check_3nf(out).satisfied
                report = check_represents(out, uni)
                assert report.dependency_preserving
                assert report.counterexample is None

    def test_outputs_are_unchanged(self):
        # merged and verbatim outputs, refusals included, on seeded schemas;
        # no cover scheme ever equals the key (it would be a smaller superkey
        # inside a minimal one), so the key scheme always carries no fds
        rng = random.Random(43)
        digest = hashlib.sha256()
        refused = 0
        for _ in range(600):
            n = rng.randint(1, 9)
            uni = RelationScheme(LETTERS[:n], random_fdset(rng, LETTERS[:n], max_fds=8))
            delta = nonredundant_cover(reduced_cover(canonical_cover(uni.fds)))
            key = find_key(uni, delta)
            assert all(f.lhs | f.rhs != key for f in delta)
            limit = rng.choice((3, 16))
            for verbatim in (False, True):
                try:
                    out = synthesize_3nf(uni, verbatim=verbatim, limit=limit)
                except LimitExceededError as exc:
                    refused += 1
                    digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                    continue
                for s in out.schemes:
                    digest.update(f"{' '.join(s.attrs.names)} | {s.fds}\n".encode())
                digest.update(b"--\n")
        assert refused >= 100
        assert digest.hexdigest() == "97c7ef0803eb5e0fae262c2a229d09dfd8866dbbce702e113b579bc00f451cb5"

    def test_builds_one_lattice_and_projects_each_scheme_once(self, monkeypatch):
        calls = Counter()

        def counted(name, method):
            def call(self, *args):
                calls[name] += 1
                return method(self, *args)

            return call

        monkeypatch.setattr(_Lattice, "__init__", counted("lattice", _Lattice.__init__))
        monkeypatch.setattr(_Lattice, "project", counted("project", _Lattice.project))
        out = synthesize_3nf(universal("A B C D E", "A -> B", "B -> C", "D -> E"))
        assert [s.attrs for s in out.schemes] == [
            AttributeSet("A B"),
            AttributeSet("B C"),
            AttributeSet("D E"),
            AttributeSet("A D"),
        ]
        # the key scheme A D carries no dependencies and is not projected
        assert calls == {"lattice": 1, "project": 3}

    def test_a_400_attribute_chain_is_synthesized_within_half_a_second(self):
        # one lattice per call: compiling a lattice of the whole cover for
        # each of the 399 link schemes made this take 0.5-0.8 s
        attrs = [f"C{i:03d}" for i in range(400)]
        links = FDSet([FD([x], [y]) for x, y in zip(attrs, attrs[1:])], universe=attrs)
        start = time.perf_counter()
        out = synthesize_3nf(RelationScheme(attrs, links))
        elapsed = time.perf_counter() - start
        assert [s.attrs for s in out.schemes] == [AttributeSet(p) for p in zip(attrs, attrs[1:])]
        assert all(len(s.fds) == 1 for s in out.schemes)
        assert elapsed < 0.5, elapsed


class TestCheckRepresents:
    def test_universal_scheme_represents_itself(self):
        uni = universal("A B C", "A -> B")
        # under -> A the chase renames the second row's bare A to the first
        # row's token, so no row holds every bare name, yet the split is lossless
        unit = universal("A B", "-> A")
        cases = [
            (DatabaseSchema((uni,)), uni),
            (DatabaseSchema((universal("B"), universal("A", "-> A"))), unit),
        ]
        for schema, whole in cases:
            report = check_represents(schema, whole)
            assert report.ok
            assert report.dependency_preserving
            assert report.lossless_verdict == "no-counterexample-found"

    def test_disjoint_halves_without_dependencies_lose_rows(self):
        uni = universal("A B C D")
        schema = DatabaseSchema((universal("A B"), universal("C D")))
        report = check_represents(schema, uni)
        assert report.lossless_verdict == "counterexample"
        assert report.counterexample is not None
        assert not is_lossless_on(
            report.counterexample, [AttributeSet("A B"), AttributeSet("C D")]
        )

    def test_synthesized_output_is_dependency_preserving(self):
        uni = universal("A B C D", "A -> B", "B C -> D")
        report = check_represents(synthesize_3nf(uni), uni)
        assert report.dependency_preserving

    def test_universe_mismatch_is_an_error(self):
        uni = universal("A B C")
        schema = DatabaseSchema((universal("A B"),))
        with pytest.raises(UniverseMismatchError):
            check_represents(schema, uni)

    def test_dropped_dependency_is_detected(self):
        uni = universal("A B C", "A -> B", "B -> C")
        schema = DatabaseSchema((universal("A B", "A -> B"), universal("A C")))
        report = check_represents(schema, uni)
        assert not report.dependency_preserving

    def test_lossy_triangle_is_caught(self):
        # sampling 100 instances missed this with most seeds
        uni = universal("A B C", "A B -> C")
        parts = [AttributeSet("A C"), AttributeSet("A B"), AttributeSet("B C")]
        report = check_represents(without_fds(parts), uni)
        assert report.lossless_verdict == "counterexample"
        assert report.counterexample.satisfies_all(uni.fds)
        assert not is_lossless_on(report.counterexample, parts)

    def test_many_singleton_parts_are_answered_without_a_join(self):
        for n in (9, 40):
            names = [f"S{i:02d}" for i in range(n)]
            parts = [AttributeSet([a]) for a in names]
            start = time.perf_counter()
            report = check_represents(without_fds(parts), universal(names))
            assert time.perf_counter() - start < 1
            assert report.lossless_verdict == "counterexample"
            # joining all n projections builds n ** (n - 1) rows; the join of
            # the projections onto a coarser split lies inside that join, so
            # the coarser split being lossy shows that these parts are too
            assert not is_lossless_on(report.counterexample, [parts[0], AttributeSet(names[1:])])

    def test_chase_agrees_with_the_closure_test_and_with_sampling(self):
        rng = random.Random(47)
        binary = lossy = sampled_lossy = 0
        for _ in range(600):
            n = rng.randint(2, 8)
            attrs = LETTERS[:n]
            sigma = random_fdset(rng, attrs, max_fds=6)
            uni = RelationScheme(attrs, sigma)
            parts = [set() for _ in range(rng.randint(2, 4))]
            for a in attrs:
                for p in rng.sample(parts, rng.randint(1, 2)):
                    p.add(a)
            parts = [AttributeSet(p) for p in parts if p]
            report = check_represents(without_fds(parts), uni)
            lossless = report.lossless_verdict == "no-counterexample-found"
            assert report.counterexample == _chase(sigma, parts)
            if lossless:
                assert report.counterexample is None
            else:
                lossy += 1
                assert report.lossless_verdict == "counterexample"
                assert report.counterexample.satisfies_all(sigma)
                assert not is_lossless_on(report.counterexample, parts)
            if len(parts) == 2:
                binary += 1
                closed = sigma.closure(parts[0] & parts[1])
                assert lossless == (parts[0] <= closed or parts[1] <= closed)
            for _ in range(10):
                instance = random_satisfying_instance(sigma, rng)
                if not is_lossless_on(instance, parts):
                    sampled_lossy += 1
                    assert not lossless
                    break
        assert binary >= 100 and 100 <= lossy <= 500 and sampled_lossy >= 100

    def test_congruence_chase_agrees_with_the_renaming_chase(self):
        # the tableau repaired by _unify, which restarts after every merge,
        # splits each column's cells into the same classes; only the token
        # names may differ
        rng = random.Random(53)
        lossy = renamed = 0
        for case in range(5000):
            names = LETTERS[: rng.randint(1, 8)]
            sigma = random_fdset(rng, names, max_fds=8)
            parts = [set() for _ in range(rng.randint(1, 5))]
            for a in names:
                for p in rng.sample(parts, rng.randint(1, len(parts))):
                    p.add(a)
            parts = [AttributeSet(p) for p in parts]
            attrs = tuple(sigma.universe)
            tableau = [tuple(a.name if a in p else f"{a.name}.{i}" for a in attrs) for i, p in enumerate(parts)]
            repaired = _unify(sigma, tableau)
            rows, distinguished = _chase_classes(sigma, parts)
            for c in range(len(attrs)):
                assert _classes(r[c] for r in repaired) == _classes(r[c] for r in rows), case
            lossless = distinguished in rows
            assert lossless == is_lossless_on(Relation.from_rows(attrs, repaired), parts), case
            if len(parts) == 2:
                closed = sigma.closure(parts[0] & parts[1])
                assert lossless == (parts[0] <= closed or parts[1] <= closed), case
            counterexample = _chase(sigma, parts)
            assert (counterexample is None) == lossless, case
            if counterexample is not None:
                lossy += 1
                renamed += counterexample != Relation.from_rows(attrs, repaired)
                assert counterexample.satisfies_all(sigma), case
                assert not is_lossless_on(counterexample, parts), case
        assert lossy >= 1000 and 0 < renamed < lossy

    def test_chains_are_chased_in_polynomial_time_in_either_order(self):
        # the 3NF synthesis of a chain has one scheme per link; a chase
        # that restarts after every merge took 8.8 s on 100 attributes
        for n in (100, 200):
            names = [f"A{i:03d}" for i in range(n)]
            links = [FD([x], [y]) for x, y in zip(names, names[1:])]
            for fds in (links, links[::-1]):
                uni = RelationScheme(names, FDSet(fds, universe=names))
                synthesized = synthesize_3nf(uni)
                middle = len(synthesized.schemes) // 2
                dropped = DatabaseSchema(synthesized.schemes[:middle] + synthesized.schemes[middle + 1 :])
                for schema, verdict in ((synthesized, "no-counterexample-found"), (dropped, "counterexample")):
                    start = time.perf_counter()
                    report = check_represents(schema, uni)
                    assert time.perf_counter() - start < 1
                    assert report.lossless_verdict == verdict
                    if report.counterexample is not None:
                        assert report.counterexample.satisfies_all(uni.fds)

    def test_random_instances_are_unchanged(self):
        # the generator keeps the renaming repair that the chase no longer
        # uses, and still returns exactly the relations it returned
        rng = random.Random(41)
        digest = hashlib.sha256()
        for case in range(300):
            n = rng.randint(1, 7)
            sigma = random_fdset(rng, LETTERS[:n], max_fds=6)
            for kwargs in ({}, {"max_witnesses": 4, "max_merges": 4}):
                instance = random_satisfying_instance(sigma, random.Random(case), **kwargs)
                digest.update(instance.to_csv().encode())
        assert digest.hexdigest() == "07678388c6d5576824d1b96216de2608d4e1e8fe9a022e29780794a658cc0288"
