"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them all).

Every randomized criterion runs with a fixed seed, so the suite is
reproducible; the stated case counts and time caps are asserted, not
aspirational.
"""

import json
import math
import random
import time
from itertools import combinations

from fdkit import (
    FD,
    AttributeSet,
    DatabaseSchema,
    FDSet,
    Relation,
    RelationScheme,
    bcnf_decompose,
    canonical_cover,
    check_3nf,
    check_bcnf,
    check_represents,
    is_determinant,
    is_lossless_on,
    is_superkey,
    join,
    minimum_cover,
    nonredundant_cover,
    oracle_implies,
    parse_schema,
    reduced_cover,
    solve_hitting_set,
    synthesize_3nf,
    HittingSetInstance,
    reduce_to_schema,
)
from fdkit.cli import main

from util import (
    LETTERS,
    exhaustive_minimum_cover_size,
    load_relation,
    random_fdset,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {verdict} {name}{suffix}")
    assert ok, f"criterion {number:02d} failed: {name}{suffix}"


def test_criterion_01_golden_projection_join_tables():
    start = time.perf_counter()
    tables = {name: load_relation(name) for name in "ijklmn"}
    i, j, k, l, m, n = (tables[x] for x in "ijklmn")
    checks = [
        join([i.project("A B"), i.project("B C")]) == i,
        join([j.project("A B"), j.project("B C")]) == i,
        join([k, l]) == m,
        m.project("A B") == n,
        m.project("B C") == l,
    ]
    elapsed = time.perf_counter() - start
    report(
        1,
        "golden projection and join tables",
        all(checks) and elapsed < 1.0,
        f"5 exact equalities in {elapsed:.3f}s",
    )


def test_criterion_02_implication_oracle_equivalence():
    rng = random.Random(20260202)
    start = time.perf_counter()
    cases = 1000
    checked = 0
    disagreements = 0
    for case in range(cases):
        n = 4 + case % 3
        universe = AttributeSet(LETTERS[:n])
        sigma = random_fdset(rng, universe, max_fds=8, min_fds=1)
        attrs = list(universe)
        for size in range(n + 1):
            for combo in combinations(attrs, size):
                lhs = AttributeSet(combo)
                for a in attrs:
                    fd = FD(lhs, [a])
                    checked += 1
                    if sigma.implies(fd) != oracle_implies(sigma, fd):
                        disagreements += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        "closure implication agrees with the brute-force oracle",
        disagreements == 0 and elapsed < 60.0,
        f"{cases} dependency sets, {checked} canonical fds, "
        f"{disagreements} disagreements in {elapsed:.1f}s",
    )


def test_criterion_03_closure_laws():
    rng = random.Random(20260303)
    failures = 0
    pairs = 10_000
    for _ in range(pairs):
        n = rng.randint(1, 6)
        universe = AttributeSet(LETTERS[:n])
        sigma = random_fdset(rng, universe, max_fds=8)
        pool = list(universe)
        x = AttributeSet(rng.sample(pool, rng.randint(0, n)))
        y = x | AttributeSet(rng.sample(pool, rng.randint(0, n)))
        cx = sigma.closure(x)
        if not x <= cx:
            failures += 1
        elif sigma.closure(cx) != cx:
            failures += 1
        elif not cx <= sigma.closure(y):
            failures += 1
    report(
        3,
        "closure is extensive, monotone, and idempotent",
        failures == 0,
        f"{pairs} randomized pairs, {failures} failures",
    )


def test_criterion_04_cover_pipeline():
    rng = random.Random(20260404)
    cases = 1000
    failures = 0
    exhaustive_checked = 0
    for _ in range(cases):
        n = rng.randint(3, 6)
        sigma = random_fdset(rng, LETTERS[:n], max_fds=8, min_fds=1)
        ok = True
        minimum = minimum_cover(sigma)
        for cover in (
            reduced_cover(sigma),
            nonredundant_cover(sigma),
            canonical_cover(sigma),
            minimum,
        ):
            ok = ok and cover.equivalent(sigma)
        ok = ok and not minimum.is_redundant()
        ok = ok and all(f.rhs == minimum.closure(f.lhs) for f in minimum)
        if n <= 5:
            exhaustive_checked += 1
            ok = ok and len(minimum) == exhaustive_minimum_cover_size(sigma)
        if not ok:
            failures += 1
    report(
        4,
        "cover pipeline equivalence and minimum-cover cardinality",
        failures == 0,
        f"{cases} dependency sets, {exhaustive_checked} exhaustively "
        f"size-checked, {failures} failures",
    )


def test_criterion_05_functional_split_losslessness():
    table = load_relation("abcde")
    golden = join([table.project("A B E"), table.project("C D E")]) == table
    rng = random.Random(20260505)
    instances = 1000
    failures = 0
    for _ in range(instances):
        n = rng.randint(3, 7)
        scheme = AttributeSet(LETTERS[:n])
        attrs = list(scheme)
        rng.shuffle(attrs)
        cut1 = rng.randint(1, n - 1)
        cut2 = rng.randint(cut1, n - 1) if cut1 < n - 1 else cut1
        x = AttributeSet(attrs[:cut1])
        y = AttributeSet(attrs[cut1 : cut2 + 1])
        z = AttributeSet(attrs[cut2 + 1 :])
        rows = [
            {a: rng.choice("012") for a in scheme}
            for _ in range(rng.randint(2, 6))
        ]
        forced = {}
        for row in rows:
            key = tuple(row[a] for a in x)
            image = forced.setdefault(key, {a: row[a] for a in y})
            row.update(image)
        instance = Relation(scheme, rows)
        assert instance.satisfies(FD(x, y))
        if not is_lossless_on(instance, [x | y, x | z]):
            failures += 1
    report(
        5,
        "splitting on a satisfied dependency is lossless",
        golden and failures == 0,
        f"golden 4-row table plus {instances} randomized instances, "
        f"{failures} failures",
    )


def _random_hitting_instance(rng):
    n = rng.randint(2, 8)
    ground = tuple(f"p{i}" for i in range(1, n + 1))
    subsets = tuple(
        tuple(rng.sample(ground, rng.randint(1, min(3, n))))
        for _ in range(rng.randint(1, 5))
    )
    return HittingSetInstance(ground, subsets)


def test_criterion_06_hitting_set_reduction_biconditional():
    rng = random.Random(20260606)
    start = time.perf_counter()
    instances = [
        HittingSetInstance(
            tuple(f"p{i}" for i in range(1, 9)),
            (
                ("p1", "p2", "p3"),
                ("p2", "p3", "p4"),
                ("p1", "p7", "p8"),
                ("p5", "p6", "p7"),
            ),
        )
    ]
    instances += [_random_hitting_instance(rng) for _ in range(200)]
    mismatches = 0
    closure_failures = 0
    solved = 0
    for instance in instances:
        witness = solve_hitting_set(instance)
        schema = reduce_to_schema(instance)
        violated = not check_bcnf(schema).satisfied
        if (witness is not None) != violated:
            mismatches += 1
        if witness is not None:
            solved += 1
            sigma = schema.global_fds()
            set_names = AttributeSet(
                [f"B{j + 1}" for j in range(len(instance.subsets))]
            )
            expected = witness | set_names | AttributeSet(["__C"])
            if sigma.closure(witness) != expected:
                closure_failures += 1
    elapsed = time.perf_counter() - start
    report(
        6,
        "hitting set exists exactly when the reduced schema violates BCNF",
        mismatches == 0 and closure_failures == 0 and elapsed < 120.0,
        f"{len(instances)} instances ({solved} solvable), "
        f"{mismatches} mismatches, {closure_failures} closure-equation "
        f"failures in {elapsed:.1f}s",
    )


def test_criterion_07_3nf_synthesis_represents_its_input():
    rng = random.Random(20260707)
    cases = 500
    failures = 0
    for _ in range(cases):
        n = rng.randint(2, 8)
        sigma = random_fdset(rng, LETTERS[:n], max_fds=6)
        universal = RelationScheme(LETTERS[:n], sigma)
        out = synthesize_3nf(universal)
        ok = check_3nf(out).satisfied
        rep = check_represents(out, universal)
        ok = ok and rep.dependency_preserving
        ok = ok and rep.counterexample is None
        if not ok:
            failures += 1
    report(
        7,
        "synthesized 3NF schemas represent their inputs",
        failures == 0,
        f"{cases} universal schemas, lossless by the chase, "
        f"{failures} failures",
    )


def _random_database_schema(rng):
    n = rng.randint(2, 6)
    universe = AttributeSet(LETTERS[:n])
    sigma = random_fdset(rng, universe, max_fds=6)
    pool = list(universe)
    schemes = []
    for _ in range(rng.randint(1, 3)):
        attrs = AttributeSet(rng.sample(pool, rng.randint(1, n)))
        local = FDSet([f for f in sigma if f.attributes <= attrs], universe=attrs)
        schemes.append(RelationScheme(attrs, local))
    union = AttributeSet()
    for s in schemes:
        union = union | s.attrs
    if union != universe:
        schemes.append(RelationScheme(universe, sigma))
    return DatabaseSchema(tuple(schemes))


def test_criterion_08_bcnf_implies_3nf():
    rng = random.Random(20260808)
    passing = 0
    counterexamples = 0
    for case in range(400):
        schema = _random_database_schema(rng)
        if case % 4 == 0:
            schema = bcnf_decompose(schema)
        if check_bcnf(schema).satisfied:
            passing += 1
            if not check_3nf(schema).satisfied:
                counterexamples += 1
    report(
        8,
        "every schema passing the BCNF check passes the 3NF check",
        counterexamples == 0 and passing >= 100,
        f"{passing} BCNF-clean schemas, {counterexamples} counterexamples",
    )


def test_criterion_09_closure_scales_subquadratically():
    sizes = [1000, 2154, 4642, 10000]
    timings = []
    for n in sizes:
        attrs = [f"A{i:05d}" for i in range(n)]
        sigma = FDSet(
            [FD([attrs[i]], [attrs[i + 1]]) for i in range(n - 1)],
            universe=attrs,
        )
        seed = AttributeSet([attrs[0]])
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            closed = sigma.closure(seed)
            best = min(best, time.perf_counter() - start)
        assert len(closed) == n
        timings.append(best)
    logs = [(math.log(s), math.log(t)) for s, t in zip(sizes, timings)]
    mean_x = sum(x for x, _ in logs) / len(logs)
    mean_y = sum(y for _, y in logs) / len(logs)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in logs) / sum(
        (x - mean_x) ** 2 for x, _ in logs
    )
    detail = ", ".join(
        f"n={s}: {t * 1000:.1f}ms" for s, t in zip(sizes, timings)
    )
    report(
        9,
        "chain-family closure grows subquadratically",
        slope < 1.5,
        f"fit exponent {slope:.2f} ({detail})",
    )


def test_criterion_10_cli_contract(tmp_path, capsys):
    chain = tmp_path / "chain.fd"
    chain.write_text("fd B -> C\nfd A -> B\n")
    student = tmp_path / "student.fd"
    student.write_text(
        "scheme Student(STUDENT, DEPARTMENT, SUPERVISOR)\n"
        "fd DEPARTMENT -> SUPERVISOR\n"
    )
    clean = tmp_path / "clean.fd"
    clean.write_text("scheme S(A,B)\nscheme T(B,C)\nfd A -> B\nfd B -> C\n")
    equiv = tmp_path / "equiv.fd"
    equiv.write_text("fd A -> B\nfd B -> C\nfd A -> C\n")
    abcde = tmp_path / "abcde.fd"
    abcde.write_text("scheme R(A,B,C,D,E)\nfd E -> C D\n")
    broken = tmp_path / "broken.fd"
    broken.write_text("scheme S(A\n")
    hittable = tmp_path / "hittable.hs"
    hittable.write_text("elements: a b\nset: a\nset: b\n")
    unhittable = tmp_path / "unhittable.hs"
    unhittable.write_text("elements: a b\nset: a b\nset: a\nset: b\n")

    matrix = [
        (["closure", "--of", "A", "--schema", str(chain)], 0),
        (["implies", "A -> C", "--schema", str(chain)], 0),
        (["implies", "B -> A", "--schema", str(chain)], 1),
        (["equivalent", str(equiv), "--schema", str(chain)], 0),
        (["mincover", "--schema", str(chain)], 0),
        (["nonredundant", "--schema", str(equiv)], 0),
        (["reduce-fds", "--schema", str(chain)], 0),
        (["canonical", "--schema", str(abcde)], 0),
        (["keys", "--schema", str(chain)], 0),
        (["keys", "--all", "--schema", str(chain)], 0),
        (["check", "--nf", "bcnf", "--schema", str(student)], 1),
        (["check", "--nf", "bcnf", "--schema", str(clean)], 0),
        (["check", "--nf", "3nf", "--schema", str(student)], 1),
        (["check", "--nf", "3nf", "--schema", str(clean)], 0),
        (["decompose", "--bcnf", "--schema", str(abcde)], 0),
        (["synthesize", "--3nf", "--schema", str(chain)], 0),
        (["synthesize", "--3nf", "--verbatim-3nf", "--schema", str(chain)], 0),
        (["represents", str(chain), "--schema", str(clean)], 0),
        (["hitting-set", str(hittable)], 0),
        (["hitting-set", str(unhittable)], 1),
        (["reduce", str(hittable)], 0),
        (["oracle", "implies", "A -> C", "--schema", str(chain)], 0),
        (["oracle", "implies", "C -> A", "--schema", str(chain)], 1),
        (["implies", "A -> Z", "--schema", str(chain)], 2),
        (["check", "--nf", "bcnf", "--schema", str(broken)], 2),
        (["nope"], 2),
        (["keys", "--all", "--schema", str(abcde), "--limit", "3"], 3),
        (["hitting-set", str(hittable), "--limit", "1"], 3),
    ]
    wrong = []
    for argv, expected in matrix:
        code = main(argv)
        capsys.readouterr()
        if code != expected:
            wrong.append((argv, expected, code))

    # JSON reports replay to identical verdicts against the library
    replays_ok = True
    doc = parse_schema(chain.read_text()).document

    code = main(["implies", "A -> C", "--schema", str(chain), "--json"])
    payload = json.loads(capsys.readouterr().out)
    fd = FD(payload["result"]["fd"]["lhs"], payload["result"]["fd"]["rhs"])
    replays_ok &= payload["exit_status"] == code == 0
    replays_ok &= doc.fds.implies(fd) == payload["result"]["implied"] is True

    main(["check", "--nf", "bcnf", "--schema", str(student), "--json"])
    payload = json.loads(capsys.readouterr().out)
    schema = parse_schema(student.read_text()).document.database_schema()
    sigma = schema.global_fds()
    replays_ok &= payload["result"]["verdict"] == "violates"
    for witness in payload["result"]["witnesses"]:
        det = AttributeSet(witness["determinant"])
        scheme = schema.schemes[witness["scheme_index"]]
        replays_ok &= is_determinant(scheme, sigma, det)
        replays_ok &= not is_superkey(scheme, sigma, det)

    main(["closure", "--of", "A", "--schema", str(chain), "--json"])
    payload = json.loads(capsys.readouterr().out)
    replays_ok &= (
        list(doc.fds.closure(AttributeSet(payload["result"]["of"])).names)
        == payload["result"]["closure"]
    )

    with capsys.disabled():
        report(
            10,
            "CLI exit statuses and JSON replays",
            not wrong and replays_ok,
            f"{len(matrix)} invocations, {len(wrong)} wrong statuses, "
            f"replays {'ok' if replays_ok else 'broken'}",
        )
