"""Keys, determinants, BCNF and 3NF checking, decomposition, and synthesis.

A relation scheme is a pair of an attribute set and its local dependency
set; a database schema is an ordered list of schemes whose attribute sets
union to the universe.  Every predicate below evaluates implication
against the schema's combined dependency set, and every search runs in a
fixed canonical order so reported witnesses are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .covers import canonical_cover, nonredundant_cover, project_fds, reduced_cover
from .errors import UniverseMismatchError, check_limit
from .fds import Attribute, AttributeSet, AttrsLike, FDSet, _attrset, _free, _Lattice, _require_within
from .instances import Relation, _chase, is_lossless_on

__all__ = [
    "RelationScheme",
    "DatabaseSchema",
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
    "DEFAULT_SEARCH_LIMIT",
]

DEFAULT_SEARCH_LIMIT = 16


@dataclass(frozen=True)
class RelationScheme:
    """An attribute set together with its local dependencies.

    The local dependency set's universe is normalised to the scheme's
    attributes; a dependency mentioning anything else is rejected.
    """

    attrs: AttributeSet
    fds: FDSet
    name: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        attrs = AttributeSet(self.attrs)
        object.__setattr__(self, "attrs", attrs)
        if not (isinstance(self.fds, FDSet) and self.fds.universe == attrs):
            object.__setattr__(self, "fds", FDSet(self.fds, universe=attrs))

    def __str__(self) -> str:
        label = self.name or "scheme"
        return f"{label}({', '.join(self.attrs.names)})"


@dataclass(frozen=True)
class DatabaseSchema:
    """An ordered collection of relation schemes.

    The universe is the union of the schemes' attributes, and the global
    dependency set is the union of the local ones over that universe.
    """

    schemes: tuple

    def __post_init__(self):
        object.__setattr__(self, "schemes", tuple(self.schemes))
        for s in self.schemes:
            if not isinstance(s, RelationScheme):
                raise TypeError(f"expected RelationScheme, got {type(s).__name__}")

    @property
    def universe(self) -> AttributeSet:
        return _attrset(frozenset().union(*(s.attrs for s in self.schemes)))

    def global_fds(self) -> FDSet:
        fds = []
        for s in self.schemes:
            fds.extend(s.fds)
        return FDSet(fds, universe=self.universe)

    def __iter__(self):
        return iter(self.schemes)

    def __len__(self) -> int:
        return len(self.schemes)


@dataclass(frozen=True)
class Violation:
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


@dataclass(frozen=True)
class NormalFormReport:
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


@dataclass(frozen=True)
class RepresentsReport:
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


def enumerate_keys(
    scheme: RelationScheme, sigma: FDSet, limit: int = DEFAULT_SEARCH_LIMIT
) -> frozenset:
    """Every key of the scheme, by exhaustive subset search.

    Subsets are closed in ascending size, and a superkey is kept when
    none of its one-smaller subsets is a superkey, so everything kept is
    minimal.  No proper superset of a superkey is closed: the scan never
    extends a superkey, since nothing above one can be minimal.
    Exponential by design; schemes beyond ``limit`` attributes are
    refused.
    """
    check_limit("key enumeration", len(scheme.attrs), limit)
    lattice = _Lattice(sigma)
    return frozenset(map(lattice.attrs, _keys(lattice, lattice.mask(scheme.attrs))))


def is_prime(
    scheme: RelationScheme,
    sigma: FDSet,
    a: Attribute | str,
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> bool:
    """Whether ``a`` belongs to some key of the scheme.

    The key search stops at the first key holding ``a``.
    """
    a = AttributeSet([a])
    _require_within(a, scheme.attrs, "attributes outside the scheme")
    check_limit("key enumeration", len(scheme.attrs), limit)
    lattice = _Lattice(sigma)
    bit = lattice.mask(a)
    return any(bit & key for key in _keys(lattice, lattice.mask(scheme.attrs)))


def _keys(lattice: _Lattice, full: int) -> Iterator[int]:
    """The keys of the scheme ``full`` as masks, in scan order: the free
    superkeys."""
    for s, closed, prev in lattice.scan(full):
        if not full & ~closed and _free(s, prev):
            yield s


def _first_violation(lattice: _Lattice, scheme: RelationScheme, nonprime_only: bool):
    """First determinant of the scheme that is not a superkey, scanning
    subsets in (size, canonical) order.  Returns (determinant, dependents)
    or None.

    With ``nonprime_only`` a determinant counts only when it determines a
    nonprime attribute of the scheme, and the dependents shrink to the
    first such attribute: the definition of 3NF, checked directly.  The
    primes are computed once, at the first non-superkey determinant.
    """
    full = lattice.mask(scheme.attrs)
    primes = None
    for s, closed, _ in lattice.scan(full):
        inside = closed & full
        if inside == s or inside == full:
            continue
        dependents = inside & ~s
        if nonprime_only:
            if primes is None:
                primes = 0
                for key in _keys(lattice, full):
                    primes |= key
            dependents &= ~primes
            if not dependents:
                continue
            dependents &= -dependents
        return lattice.attrs(s), lattice.attrs(dependents)
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
        found = _first_violation(lattice, scheme, nonprime_only)
        if found is not None:
            witnesses.append(Violation(index, *found, reason))
    return NormalFormReport(form, not witnesses, tuple(witnesses))


def check_bcnf(schema: DatabaseSchema, limit: int = DEFAULT_SEARCH_LIMIT) -> NormalFormReport:
    """Report whether every determinant of every scheme is a superkey.

    Implication runs against the schema's combined dependency set.  The
    subset scan is exponential in scheme width (the question itself is
    NP-complete), so schemes beyond ``limit`` attributes are refused.
    Each witness is the scheme's first non-superkey determinant in
    (size, canonical) subset order, with everything it determines there.
    """
    return _check_normal_form(schema, limit, "bcnf")


def check_3nf(schema: DatabaseSchema, limit: int = DEFAULT_SEARCH_LIMIT) -> NormalFormReport:
    """Report whether any scheme has a non-superkey determinant of a
    nonprime attribute.

    The same subset scan as :func:`check_bcnf`, keeping only determinants
    that determine a nonprime attribute inside the scheme: each witness
    is the first such determinant in (size, canonical) subset order, and
    its dependent is the first such attribute.  Schemes beyond ``limit``
    attributes are refused.
    """
    return _check_normal_form(schema, limit, "3nf")


def bcnf_decompose(schema: DatabaseSchema, limit: int = DEFAULT_SEARCH_LIMIT) -> DatabaseSchema:
    """Split schemes on their violating determinants until the schema
    passes :func:`check_bcnf`.

    Each step picks the first violation in (scheme index, canonical subset
    order), splits off the violating determinant with everything it
    determines inside the scheme, and keeps the rest: the scheme is
    replaced by ``closure(X) & attrs`` and ``attrs - dependents``.  Each
    binary step is lossless because the first part's seed determines the
    overlap.  Local dependency sets are recomputed as projections of the
    combined dependencies.  Dependency preservation is not guaranteed;
    compare the result against the original with :func:`check_represents`.
    """
    sigma = schema.global_fds()
    lattice = _Lattice(sigma)
    schemes = list(schema.schemes)
    i = 0
    while i < len(schemes):
        scheme = schemes[i]
        check_limit(f"BCNF decomposition of scheme {i}", len(scheme.attrs), limit)
        found = _first_violation(lattice, scheme, nonprime_only=False)
        if found is None:
            i += 1
            continue
        x, dependents = found
        part1 = x | dependents
        part2 = scheme.attrs - dependents
        schemes[i : i + 1] = [
            RelationScheme(part1, project_fds(sigma, part1, limit=limit)),
            RelationScheme(part2, project_fds(sigma, part2, limit=limit)),
        ]
    return DatabaseSchema(tuple(schemes))


def synthesize_3nf(
    universal: RelationScheme,
    verbatim: bool = False,
    limit: int = DEFAULT_SEARCH_LIMIT,
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
    per-dependency output.  Projection is exponential in scheme width, so
    an emitted scheme beyond ``limit`` attributes is refused.
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
    universal dependencies: the chased tableau satisfies them, and it
    joins back from its projections exactly when the decomposition is
    lossless.  Otherwise it is returned as the counterexample.
    """
    if schema.universe != universal.attrs:
        raise UniverseMismatchError(
            f"schema universe {schema.universe} differs from universal attrs {universal.attrs}"
        )
    preserved = schema.global_fds().equivalent(universal.fds)
    parts = [s.attrs for s in schema.schemes]
    tableau = _chase(universal.fds, parts)
    if is_lossless_on(tableau, parts):
        return RepresentsReport(preserved, "no-counterexample-found", None)
    return RepresentsReport(preserved, "counterexample", tableau)
