"""Keys, determinants, BCNF and 3NF checking, decomposition, and synthesis.

A relation scheme is a pair of an attribute set and its local dependency
set; a database schema is an ordered list of schemes whose attribute sets
union to the universe.  Every predicate below evaluates implication
against the schema's combined dependency set, and every search runs in a
fixed canonical order so reported witnesses are deterministic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .covers import canonical_cover, nonredundant_cover, project_fds, reduced_cover
from .errors import DEFAULT_LIMIT, UniverseMismatchError, check_limit
from .fds import Attribute, AttributeSet, AttrsLike, DatabaseSchema, FDSet, RelationScheme
from .fds import _Lattice, _Record, _require_within
from .instances import Relation, _chase

__all__ = [
    "Violation",
    "NormalFormReport",
    "RepresentsReport",
    "is_determinant",
    "is_superkey",
    "find_key",
    "enumerate_keys",
    "is_prime",
    "check_bcnf",
    "check_3nf",
    "bcnf_decompose",
    "synthesize_3nf",
    "check_represents",
]


class Violation(_Record):
    """One replayable normal-form witness.

    ``determinant`` is the offending attribute set of the named scheme and
    ``dependents`` the attributes it determines there beyond itself; for a
    3NF witness ``dependents`` is the single nonprime attribute.
    """

    scheme_index: int
    determinant: AttributeSet
    dependents: AttributeSet
    reason: str

    def to_dict(self) -> dict:
        return {
            "scheme_index": self.scheme_index,
            "determinant": list(self.determinant.names),
            "dependents": list(self.dependents.names),
            "reason": self.reason,
        }


class NormalFormReport(_Record):
    """Outcome of a normal-form check; ``violates`` implies at least one
    witness, and each witness can be re-checked independently."""

    form: str
    satisfied: bool
    witnesses: tuple

    @property
    def verdict(self) -> str:
        return "satisfies" if self.satisfied else "violates"

    def to_dict(self) -> dict:
        return {
            "form": self.form,
            "verdict": self.verdict,
            "witnesses": [w.to_dict() for w in self.witnesses],
        }


class RepresentsReport(_Record):
    """Outcome of comparing a schema against a universal scheme.

    Both verdicts are exact.  ``lossless_verdict`` is
    ``no-counterexample-found`` when the decomposition is lossless, and
    ``counterexample`` when it is lossy, with ``counterexample`` holding
    an instance that satisfies the universal dependencies and does not
    join back from its projections.
    """

    dependency_preserving: bool
    lossless_verdict: str
    counterexample: Optional[Relation]

    @property
    def ok(self) -> bool:
        return self.dependency_preserving and self.counterexample is None

    def to_dict(self) -> dict:
        return {
            "dependency_preserving": self.dependency_preserving,
            "lossless": self.lossless_verdict,
            "counterexample": (
                self.counterexample.to_csv() if self.counterexample else None
            ),
        }


def is_determinant(scheme: RelationScheme, sigma: FDSet, x: AttrsLike) -> bool:
    """Whether ``x`` determines at least one scheme attribute beyond itself."""
    x = AttributeSet(x)
    _require_within(x, scheme.attrs, "attributes outside the scheme")
    return bool((sigma.closure(x) & scheme.attrs) - x)


def is_superkey(scheme: RelationScheme, sigma: FDSet, x: AttrsLike) -> bool:
    """Whether ``x`` determines every attribute of the scheme."""
    x = AttributeSet(x)
    _require_within(x, scheme.attrs, "attributes outside the scheme")
    return scheme.attrs <= sigma.closure(x)


def find_key(scheme: RelationScheme, sigma: FDSet) -> AttributeSet:
    """One key (minimal superkey), found by shrinking from the full scheme.

    Attributes are tried for removal in canonical order, which fixes the
    key the search lands on.
    """
    x = scheme.attrs
    for a in tuple(scheme.attrs):
        trial = x - AttributeSet([a])
        if scheme.attrs <= sigma.closure(trial):
            x = trial
    return x


def enumerate_keys(scheme: RelationScheme, sigma: FDSet, limit: int = DEFAULT_LIMIT) -> frozenset:
    """Every key of the scheme, by Lucchesi and Osborn's algorithm, in
    time polynomial in the number of keys once the scheme has a cover of
    its own dependencies.

    A scheme that holds its dependencies, one that holds every attribute
    ``sigma``'s dependencies mention, has ``sigma`` itself as that
    cover.  Any other scheme gets one from a single subset scan (see
    :meth:`~fdkit.fds._Lattice.cover`), which is exponential in the
    number of the scheme's attributes that are some dependency's left
    side.  Schemes beyond ``limit`` attributes are refused either way.
    """
    check_limit("key enumeration", len(scheme.attrs), limit)
    lattice = _Lattice(sigma)
    full = lattice.mask(scheme.attrs)
    return frozenset(map(lattice.attrs, _lucchesi_osborn(lattice, full, _cover(lattice, full))))


def is_prime(
    scheme: RelationScheme,
    sigma: FDSet,
    a: Attribute | str,
    limit: int = DEFAULT_LIMIT,
) -> bool:
    """Whether ``a`` belongs to some key of the scheme.

    The key search of :func:`enumerate_keys`, stopped at the first key
    holding ``a``; for a narrower scheme, the scan that builds its cover
    stops there too.
    """
    a = AttributeSet([a])
    _require_within(a, scheme.attrs, "attributes outside the scheme")
    check_limit("key enumeration", len(scheme.attrs), limit)
    lattice = _Lattice(sigma)
    bit = lattice.mask(a)
    full = lattice.mask(scheme.attrs)
    return any(bit & key for key in _lucchesi_osborn(lattice, full, _cover(lattice, full)))


def _cover(lattice: _Lattice, full: int) -> Iterable[tuple]:
    """A cover of the scheme ``full``'s own dependencies, as mask pairs
    inside it: ``lattice.pairs`` when the scheme holds every bit they
    mention, and otherwise the pairs one scan yields as it goes."""
    return lattice.cover(full) if lattice.used & ~full else lattice.pairs


def _lucchesi_osborn(lattice: _Lattice, full: int, cover: Iterable[tuple]) -> Iterator[int]:
    """The keys of the scheme ``full`` as masks, from ``cover``, a cover
    of the scheme's own dependencies as mask pairs inside it (Lucchesi
    and Osborn, JCSS 1978).

    Start from one key; for each key ``K`` found and each pair
    ``(X, Y)``, ``S = X | (K & ~Y)`` is a superkey, since ``S``
    determines ``Y`` and so all of ``K``.  Unless a known key lies
    inside ``S``, shrink ``S`` to a key, which is new.  The pairs are
    read as they come, so a scan's cover yields its first keys before
    the scan ends: each pair meets every key found so far, and each new
    key every pair read so far.  Every key turns up: were one missed,
    take a largest set ``M`` holding it and no key found.  ``M``
    determines the scheme but is not all of it, so some pair has ``X``
    inside ``M`` and a bit ``a`` of ``Y`` outside; some found ``K`` lies
    inside ``M | a``, so its ``S`` lies inside ``M``, and so does the
    found key inside ``S``.  Superkeys are shrunk by dropping each bit
    in ascending (canonical) order whenever the rest still determines
    the scheme.

    The test for a known key inside ``S`` tries the cheap cases first:
    ``S`` often holds ``K`` itself, and is often a known key, as when
    one key trades an attribute for another.  Only then are the known
    keys tried one by one.
    """
    close = lattice.close

    def shrink(s: int) -> int:
        rest = s
        while rest:
            b = rest & -rest
            rest ^= b
            if not full & ~close(s ^ b):
                s ^= b
        return s

    keys = [shrink(full)]
    known = set(keys)
    yield keys[0]
    pairs = []
    met = 1  # keys[:met] have met every pair read before the newest
    for pair in cover:
        pairs.append(pair)
        for i, key in enumerate(keys):  # keys found below join the loop
            for lhs, rhs in pairs if i >= met else (pair,):
                s = lhs | key & ~rhs
                if key & ~s and s not in known and all(k & ~s for k in keys):
                    keys.append(shrink(s))
                    known.add(keys[-1])
                    yield keys[-1]
        met = len(keys)


def _first_violation(lattice: _Lattice, full: int, nonprime_only: bool):
    """First determinant of the scheme ``full`` that is not a superkey,
    scanning subsets in (size, canonical) order.  Returns the masks
    ``(determinant, dependents)``, or None.

    With ``nonprime_only`` a determinant counts only when it determines a
    nonprime attribute of the scheme, and the dependents shrink to the
    first such attribute: the definition of 3NF, checked directly.

    A scheme that holds its dependencies, and every 3NF check, is first
    decided from a cover of the scheme's own dependencies (see
    :func:`_cover`): the scheme violates iff some pair ``(V, W)`` with
    ``W - V`` holding an attribute (for 3NF a nonprime one) has a ``V``
    that is not a superkey.  If an implied ``X -> A`` violates, the pair
    that first adds ``A`` to the closure of ``X`` under the cover has
    ``V`` inside ``closure(X)``, so ``V`` is not a superkey, and ``A``
    lies in ``W - V``; conversely such a pair is itself a violation.
    The primes are computed, from the same cover, only when some pair
    with a ``V`` that is not a superkey adds an attribute.  A scheme
    that satisfies the form is answered from the cover, and one that
    violates it scans, so the witness is the same first violation
    either way.  A narrower scheme's BCNF check only scans: its cover
    would cost a whole scan before the scan that stops at the witness.
    """
    primes = 0
    if nonprime_only or not lattice.used & ~full:
        cover = list(_cover(lattice, full))
        added = 0  # the attributes the violating pairs add
        for lhs, rhs in cover:
            # a pair whose sides make up the scheme has a superkey on its left
            if full & ~(lhs | rhs) and full & ~lattice.close(lhs):
                added |= rhs & ~lhs
        if added and nonprime_only:
            for key in _lucchesi_osborn(lattice, full, cover):
                primes |= key
        if not added & ~primes:
            return None
    for s, closed, _ in lattice.scan(full):
        inside = closed & full
        if inside == s or inside == full:
            continue
        dependents = inside & ~s & ~primes
        if dependents:
            if nonprime_only:
                dependents &= -dependents
            return s, dependents
    return None


def _check_normal_form(schema: DatabaseSchema, limit: int, form: str) -> NormalFormReport:
    """Report the first violation of ``form`` ("bcnf" or "3nf") in each
    scheme, refusing schemes beyond ``limit`` attributes."""
    lattice = _Lattice(schema.global_fds())
    nonprime_only = form == "3nf"
    reason = "nonprime-dependent" if nonprime_only else "determinant-not-superkey"
    witnesses = []
    for index, scheme in enumerate(schema.schemes):
        check_limit(f"{form.upper()} check of scheme {index}", len(scheme.attrs), limit)
        found = _first_violation(lattice, lattice.mask(scheme.attrs), nonprime_only)
        if found is not None:
            witnesses.append(Violation(index, *map(lattice.attrs, found), reason))
    return NormalFormReport(form, not witnesses, tuple(witnesses))


def check_bcnf(schema: DatabaseSchema, limit: int = DEFAULT_LIMIT) -> NormalFormReport:
    """Report whether every determinant of every scheme is a superkey.

    Implication runs against the schema's combined dependency set.  The
    subset scan is exponential in the number of the scheme's attributes
    that are some dependency's left side (the question itself is
    NP-complete), and schemes beyond ``limit`` attributes are refused.
    Each witness is the scheme's first non-superkey determinant in
    (size, canonical) subset order, with everything it determines there.
    """
    return _check_normal_form(schema, limit, "bcnf")


def check_3nf(schema: DatabaseSchema, limit: int = DEFAULT_LIMIT) -> NormalFormReport:
    """Report whether any scheme has a non-superkey determinant of a
    nonprime attribute.

    The same subset scan as :func:`check_bcnf`, keeping only determinants
    that determine a nonprime attribute inside the scheme: each witness
    is the first such determinant in (size, canonical) subset order, and
    its dependent is the first such attribute.  Schemes beyond ``limit``
    attributes are refused.
    """
    return _check_normal_form(schema, limit, "3nf")


def bcnf_decompose(schema: DatabaseSchema, limit: int = DEFAULT_LIMIT) -> DatabaseSchema:
    """Split schemes on their violating determinants until the schema
    passes :func:`check_bcnf`.

    Each step picks the first violation in (scheme index, canonical subset
    order), splits off the violating determinant with everything it
    determines inside the scheme, and keeps the rest: the scheme is
    replaced by ``closure(X) & attrs`` and ``attrs - dependents``, and
    the first part is split fully before the second.  Each binary step
    is lossless because the first part's seed determines the overlap.
    The splits read only attribute sets, as masks over one lattice of the
    combined dependencies.  A scheme that never splits is kept as it is;
    each final part of one that does gets, once, the projection of the
    combined dependencies onto it.  Dependency preservation is not
    guaranteed; compare the result against the original with
    :func:`check_represents`.
    """
    lattice = _Lattice(schema.global_fds())
    out = []
    for scheme in schema.schemes:
        check_limit(f"BCNF decomposition of scheme {len(out)}", len(scheme.attrs), limit)
        todo, parts = [lattice.mask(scheme.attrs)], []
        while todo:
            full = todo.pop()
            if found := _first_violation(lattice, full, nonprime_only=False):
                s, dependents = found
                todo += [full & ~dependents, s | dependents]
            else:
                parts.append(full)
        if len(parts) == 1:
            out.append(scheme)
        else:
            out += [RelationScheme(lattice.attrs(p), lattice.project(p)) for p in parts]
    return DatabaseSchema(tuple(out))


def synthesize_3nf(
    universal: RelationScheme,
    verbatim: bool = False,
    limit: int = DEFAULT_LIMIT,
) -> DatabaseSchema:
    """Synthesize a dependency-preserving 3NF schema for ``universal``.

    Builds a canonical, left-reduced, non-redundant cover, emits one
    scheme per dependency (left side plus its attribute) carrying the
    cover projected onto it, and appends a key scheme with an empty
    dependency set.  The redundancy sweep runs after left reduction:
    shrinking a left side can make another dependency newly redundant,
    and keeping such a dependency would fold a transitive dependency
    into its group's scheme and break the normal-form guarantee.

    By default schemes emitted for dependencies with the same left side
    are merged, exact duplicates collapse, and schemes whose attributes
    sit inside another scheme's are dropped (the key scheme included);
    ``verbatim=True`` skips all of that clean-up and returns the raw
    per-dependency output.  Projection is exponential in the number of a
    scheme's attributes that are some dependency's left side, and an
    emitted scheme beyond ``limit`` attributes is refused.
    """
    delta = nonredundant_cover(reduced_cover(canonical_cover(universal.fds)))
    key = find_key(universal, delta)
    if verbatim:
        attr_sets = [fd.lhs | fd.rhs for fd in delta] + [key]
    else:
        grouped: dict = {}  # left side -> its scheme's attributes, in cover order
        for fd in delta:
            grouped[fd.lhs] = grouped.get(fd.lhs, fd.lhs) | fd.rhs
        merged = list(dict.fromkeys([*grouped.values(), key]))
        attr_sets = [s for s in merged if not any(s < other for other in merged)]
    # no cover scheme equals the key (its left side would be a superkey
    # inside a minimal one), so only the key scheme skips projection
    key_fds = FDSet((), universe=key)
    return DatabaseSchema(
        tuple(
            RelationScheme(s, key_fds if s == key else project_fds(delta, s, limit=limit))
            for s in attr_sets
        )
    )


def check_represents(schema: DatabaseSchema, universal: RelationScheme) -> RepresentsReport:
    """Compare a schema against the universal scheme it should represent.

    Dependency preservation is decided exactly: the union of the local
    dependency sets must be equivalent to the universal one.  So is
    losslessness, by the tableau chase of the schema's parts under the
    universal dependencies (see :func:`~fdkit.instances._chase`): the
    decomposition is lossless exactly when the chased tableau holds the
    distinguished row, and no projection is joined.  Otherwise the
    tableau, which satisfies the universal dependencies and does not
    join back from its projections, is returned as the counterexample.

    Both answers take polynomial time.  The chase runs by congruence
    closure, in about ``(k * n + k * m) * log(k)`` steps for ``k``
    schemes, ``n`` attributes and ``m`` universal dependencies, so no
    input is refused and there is no ``limit``.
    """
    if schema.universe != universal.attrs:
        raise UniverseMismatchError(
            f"schema universe {schema.universe} differs from universal attrs {universal.attrs}"
        )
    preserved = schema.global_fds().equivalent(universal.fds)
    counterexample = _chase(universal.fds, [s.attrs for s in schema.schemes])
    if counterexample is None:
        return RepresentsReport(preserved, "no-counterexample-found", None)
    return RepresentsReport(preserved, "counterexample", counterexample)
