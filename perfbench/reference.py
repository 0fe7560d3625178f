"""Reference computations and answer checks for the benchmark.

Nothing here imports fdkit.  Dependencies are plain pairs of frozensets
of attribute names, closures come from a plain fixpoint loop, and
relations are sets of value tuples, so every check is independent of the
closure kernel and of the instance engine it is checking.  fdkit answers
are read only through their public attributes (iteration, ``.lhs``,
``.rhs``, ``.name``, ``.schemes`` and so on).

A check returns nothing when the answer is right and raises
:class:`Mismatch` when it is wrong.
"""

from __future__ import annotations


class Mismatch(Exception):
    """An fdkit answer disagrees with the reference."""


def fail(what: str, got, want) -> None:
    raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


# --- plain data -------------------------------------------------------------

def spec_fds(pairs) -> tuple:
    """Normalise ``[(lhs names, rhs names), ...]`` to frozenset pairs."""
    return tuple((frozenset(lhs), frozenset(rhs)) for lhs, rhs in pairs)


def names(attrs) -> frozenset:
    """Attribute names of an fdkit AttributeSet (or any iterable of
    attributes or names)."""
    return frozenset(getattr(a, "name", a) for a in attrs)


def plain_fds(fdset) -> tuple:
    """The dependencies of an fdkit FDSet as frozenset pairs, in order."""
    return tuple((names(fd.lhs), names(fd.rhs)) for fd in fdset)


# --- closure and its consequences -------------------------------------------

def closure(fds, seed) -> frozenset:
    """Attribute-set closure by plain fixpoint iteration: fire every
    dependency whose left side is reached, repeat until nothing changes."""
    reached = set(seed)
    pending = list(fds)
    changed = True
    while changed:
        changed = False
        waiting = []
        for lhs, rhs in pending:
            if lhs <= reached:
                if not rhs <= reached:
                    reached |= rhs
                    changed = True
            else:
                waiting.append((lhs, rhs))
        pending = waiting
    return frozenset(reached)


def implies(fds, lhs, rhs) -> bool:
    return frozenset(rhs) <= closure(fds, lhs)


def covers_all(fds, others) -> bool:
    """Whether ``fds`` implies every dependency of ``others``."""
    seen: dict = {}
    for lhs, rhs in others:
        if lhs not in seen:
            seen[lhs] = closure(fds, lhs)
        if not rhs <= seen[lhs]:
            return False
    return True


def equivalent(f, g) -> bool:
    return covers_all(f, g) and covers_all(g, f)


def is_key(fds, attrs, key) -> bool:
    """``key`` determines ``attrs`` and no proper subset of it does."""
    attrs = frozenset(attrs)
    if not attrs <= closure(fds, key):
        return False
    return all(not attrs <= closure(fds, key - {a}) for a in key)


# --- answer checks ------------------------------------------------------------

def check_equal(what: str, got, want) -> None:
    if got != want:
        fail(what, got, want)


def check_cover(
    sigma,
    cover,
    *,
    nonredundant: bool = False,
    closed: bool = False,
    reduced: bool = False,
    singleton: bool = False,
) -> None:
    """Properties a cover rewrite must have.

    ``sigma`` is the input and ``cover`` the answer, both as frozenset
    pairs.  Always checked: equivalence with the input.  Optional: no
    member implied by the others, every right side equal to the closure
    of its left side, no removable left-side attribute, and
    single-attribute right sides.
    """
    if not covers_all(sigma, cover):
        raise Mismatch("cover has a dependency the input does not imply")
    if not covers_all(cover, sigma):
        raise Mismatch("cover does not imply the input")
    for i, (lhs, rhs) in enumerate(cover):
        if singleton and len(rhs) != 1:
            fail("right side size", sorted(rhs), "one attribute")
        if closed and rhs != closure(cover, lhs):
            fail(f"right side of {sorted(lhs)}", sorted(rhs), "its closure")
        if nonredundant:
            rest = cover[:i] + cover[i + 1 :]
            if rhs <= closure(rest, lhs):
                fail("redundant dependency", (sorted(lhs), sorted(rhs)), "none")
        if reduced:
            for a in lhs:
                if rhs <= closure(cover, lhs - {a}):
                    fail("removable left-side attribute", a, "none")


def check_split_schema(x, y, z, parts) -> None:
    """The schema that splitting on the one dependency ``X -> Y`` must
    give, by BCNF decomposition or by 3NF synthesis: ``X | Y`` carrying
    the dependency and the key scheme ``X | Z`` carrying nothing.
    ``parts`` lists (attribute names, dependency pairs) per scheme."""
    x, y, z = frozenset(x), frozenset(y), frozenset(z)
    ref_fd = ((x, y),)
    check_equal("schemes", sorted(sorted(a) for a, _ in parts), sorted([sorted(x | y), sorted(x | z)]))
    for attrs, fds in parts:
        want = ref_fd if attrs == x | y else ()
        if not equivalent(fds, want):
            fail(f"local dependencies of {sorted(attrs)}", fds, want)


def reduction(ground, subsets) -> list:
    """The schemes of the hitting-set reduction, built from its
    documented definition: (attribute names, dependency pairs) for each
    membership scheme, the collector and the target, in order."""
    set_names = [f"B{j + 1}" for j in range(len(subsets))]
    schemes = []
    for j, subset in enumerate(subsets):
        for a in sorted(subset):
            schemes.append((frozenset({a, set_names[j]}), spec_fds([((a,), (set_names[j],))])))
    schemes.append((frozenset(set_names) | {"__C"}, spec_fds([(set_names, ("__C",))])))
    target = [(("__C", "__D"), tuple(ground))]
    for subset in subsets:
        ordered = sorted(subset)
        for i, a in enumerate(ordered):
            target += [((a, b), ("__C", "__D")) for b in ordered[i + 1 :]]
    schemes.append((frozenset(ground) | {"__C", "__D"}, spec_fds(target)))
    return schemes


def check_bcnf_witness(fds, scheme_attrs, witness) -> None:
    """A BCNF witness must replay: its determinant lies in the scheme,
    determines something more inside it, but not all of it."""
    scheme_attrs = frozenset(scheme_attrs)
    x = names(witness.determinant)
    inside = closure(fds, x) & scheme_attrs
    if not x <= scheme_attrs:
        fail("determinant inside its scheme", sorted(x), sorted(scheme_attrs))
    if not (x < inside and inside < scheme_attrs):
        fail("determinant replay", sorted(x), "a non-superkey determinant")
    check_equal("dependents", names(witness.dependents), inside - x)


def check_3nf_witness(fds, scheme_attrs, primes, witness) -> None:
    """A 3NF witness ``X -> A`` must replay: X is no superkey of the
    scheme, X determines A, and A is in no key."""
    scheme_attrs = frozenset(scheme_attrs)
    x = names(witness.determinant)
    dependents = names(witness.dependents)
    reached = closure(fds, x)
    if scheme_attrs <= reached:
        fail("3NF determinant", sorted(x), "not a superkey")
    if len(dependents) != 1 or not dependents <= reached - x:
        fail("3NF dependent", sorted(dependents), "one attribute X determines")
    if dependents & frozenset(primes):
        fail("3NF dependent", sorted(dependents), "a nonprime attribute")


def check_exact_hitting_set(subsets, witness) -> None:
    """Exactly one chosen element in every subset."""
    chosen = names(witness)
    for s in subsets:
        if len(chosen & frozenset(s)) != 1:
            fail("hits of subset " + " ".join(sorted(s)), len(chosen & frozenset(s)), 1)


# --- relations as sets of tuples ----------------------------------------------

def table(relation) -> tuple:
    """An fdkit Relation as (attribute names in name order, set of value
    tuples)."""
    attrs = tuple(sorted(names(relation.scheme)))
    rows = frozenset(
        tuple(value for _, value in sorted((a.name, v) for a, v in row.items()))
        for row in relation.rows
    )
    return attrs, rows


def project(tab, attrs) -> tuple:
    cols, rows = tab
    keep = tuple(sorted(attrs))
    index = [cols.index(a) for a in keep]
    return keep, frozenset(tuple(r[i] for i in index) for r in rows)


def natural_join(left, right) -> tuple:
    lcols, lrows = left
    rcols, rrows = right
    common = [a for a in lcols if a in rcols]
    out_cols = tuple(sorted(set(lcols) | set(rcols)))
    buckets: dict = {}
    for r in rrows:
        buckets.setdefault(tuple(r[rcols.index(a)] for a in common), []).append(r)
    out = set()
    for l in lrows:
        key = tuple(l[lcols.index(a)] for a in common)
        for r in buckets.get(key, ()):
            value = dict(zip(rcols, r))
            value.update(zip(lcols, l))
            out.add(tuple(value[a] for a in out_cols))
    return out_cols, frozenset(out)


def join_all(tables) -> tuple:
    acc = tables[0]
    for t in tables[1:]:
        acc = natural_join(acc, t)
    return acc


def satisfies(tab, fds) -> bool:
    cols, rows = tab
    for lhs, rhs in fds:
        li = [cols.index(a) for a in sorted(lhs)]
        ri = [cols.index(a) for a in sorted(rhs)]
        seen: dict = {}
        for r in rows:
            image = tuple(r[i] for i in ri)
            if seen.setdefault(tuple(r[i] for i in li), image) != image:
                return False
    return True


def lossless_on(tab, parts) -> bool:
    return join_all([project(tab, p) for p in parts]) == tab


def check_lossy_counterexample(fds, parts, relation) -> None:
    """A lossiness counterexample must satisfy the dependencies and join
    back from its projections to a strictly larger relation."""
    tab = table(relation)
    if not satisfies(tab, fds):
        raise Mismatch("counterexample violates the dependencies")
    joined = join_all([project(tab, p) for p in parts])
    if not (joined[0] == tab[0] and joined[1] > tab[1]):
        raise Mismatch("counterexample joins back without extra rows")
