"""Hitting-set instances and their translation into hard schema-design inputs.

An exact hitting set picks one element from each given subset.  Deciding
whether one exists is NP-complete, and :func:`reduce_to_schema` turns any
instance into a database schema that violates BCNF exactly when a hitting
set exists, which makes the translation a generator of adversarial inputs
for the normal-form checkers.  :func:`solve_hitting_set` is the matching
exhaustive oracle.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .dsl import RESERVED_C, RESERVED_D
from .errors import DEFAULT_LIMIT, InstanceFormatError, ReservedNameError, check_limit
from .fds import FD, Attribute, AttributeSet, DatabaseSchema, FDSet, RelationScheme, _Record

__all__ = [
    "HittingSetInstance",
    "parse_instance",
    "render_instance",
    "solve_hitting_set",
    "reduce_to_schema",
]


class HittingSetInstance(_Record):
    """A ground set of element symbols and a family of subsets of it."""

    ground: tuple
    subsets: tuple

    def __post_init__(self):
        ground = tuple(map(Attribute, self.ground))
        if len(set(ground)) != len(ground):
            raise InstanceFormatError("duplicate element in the ground set")
        subsets = tuple(AttributeSet(s) for s in self.subsets)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "subsets", subsets)
        if not self.ground or not self.subsets:
            raise InstanceFormatError("need at least one element and one subset")
        universe = frozenset(self.ground)
        for s in self.subsets:
            if not s:
                raise InstanceFormatError("subsets must be non-empty")
            if not s <= universe:
                stray = " ".join(sorted(s.difference(universe)))
                raise InstanceFormatError(f"subset uses unknown elements: {stray}")


def parse_instance(text: str) -> HittingSetInstance:
    """Parse the instance file format.

    One ``elements: p1 p2 ...`` line, then one ``set: p1 p2`` line per
    subset.  Blank lines and ``#`` comments are skipped.
    """
    elements = None
    subsets = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, body = line.partition(":")
        head = head.strip()
        names = body.split()
        if head == "elements":
            if elements is not None:
                raise InstanceFormatError(f"line {lineno}: second elements line")
            elements = names
        elif head == "set":
            if not names:
                raise InstanceFormatError(f"line {lineno}: empty set")
            subsets.append(names)
        else:
            raise InstanceFormatError(f"line {lineno}: expected 'elements:' or 'set:'")
    if elements is None:
        raise InstanceFormatError("missing elements line")
    try:
        return HittingSetInstance(tuple(elements), tuple(subsets))
    except ValueError as exc:
        raise InstanceFormatError(str(exc))


def render_instance(instance: HittingSetInstance) -> str:
    lines = ["elements: " + " ".join(a.name for a in instance.ground)]
    for s in instance.subsets:
        lines.append("set: " + " ".join(s.names))
    return "\n".join(lines) + "\n"


def solve_hitting_set(
    instance: HittingSetInstance, limit: int = DEFAULT_LIMIT
) -> Optional[AttributeSet]:
    """The lexicographically least W with exactly one element in every
    subset, or None when no such W exists.

    Depth-first search over element combinations in canonical name order;
    a branch dies as soon as some subset is hit twice, since supersets
    only hit more.  The search keeps its path as a list of chosen
    element indices, not as nested calls, so a deep search under a
    raised limit needs no deep stack.  Exhaustive, so grounds beyond
    ``limit`` elements are refused.
    """
    check_limit("hitting-set search", len(instance.ground), limit)
    elements = sorted(instance.ground)
    sets = instance.subsets
    containing = [
        [j for j, s in enumerate(sets) if e in s] for e in elements
    ]
    counts = [0] * len(sets)
    chosen = []
    i = 0
    while True:
        if i < len(elements):
            if not any(counts[j] for j in containing[i]):
                chosen.append(i)
                for j in containing[i]:
                    counts[j] = 1
                if all(counts):
                    return AttributeSet(elements[k] for k in chosen)
        elif chosen:
            i = chosen.pop()
            for j in containing[i]:
                counts[j] = 0
        else:
            return None
        i += 1


def reduce_to_schema(instance: HittingSetInstance) -> DatabaseSchema:
    """Translate a hitting-set instance into a database schema that
    violates BCNF exactly when the instance has a hitting set.

    With elements ``A1..An`` and subsets ``B1..Bm`` the schema holds, in
    order:

    * one two-attribute scheme ``(Ai Bj, {Ai -> Bj})`` per membership
      ``Ai in Bj``;
    * the collector scheme ``(B1..Bm __C, {B1..Bm -> __C})``;
    * the target scheme ``(A1..An __C __D)`` with ``__C __D -> A1..An``
      plus ``Ai Aj -> __C __D`` for every distinct pair sharing some
      ``Bk``, once each: :class:`FDSet` keeps the first of equal
      dependencies.

    Subset attributes are named ``B1..Bm`` positionally; a clash between
    those generated names, the reserved ``__C``/``__D``, and the element
    names raises :class:`ReservedNameError`.  The construction is
    polynomial in elements times subsets.
    """
    elements = list(instance.ground)
    set_names = [Attribute(f"B{j + 1}") for j in range(len(instance.subsets))]
    taken = set(elements)
    for name in set_names + [RESERVED_C, RESERVED_D]:
        if name in taken:
            raise ReservedNameError(f"element name collides with generated attribute: {name}")
    schemes = []
    for j, subset in enumerate(instance.subsets):
        for a in subset:
            schemes.append(
                RelationScheme(
                    AttributeSet([a, set_names[j]]),
                    FDSet([FD([a], [set_names[j]])]),
                )
            )
    all_sets = AttributeSet(set_names)
    schemes.append(
        RelationScheme(
            all_sets | AttributeSet([RESERVED_C]),
            FDSet([FD(all_sets, [RESERVED_C])]),
        )
    )
    ground_set = AttributeSet(elements)
    cd = AttributeSet([RESERVED_C, RESERVED_D])
    target_fds = [FD(cd, ground_set)]
    for subset in instance.subsets:
        target_fds += (FD(pair, cd) for pair in combinations(subset, 2))
    schemes.append(RelationScheme(ground_set | cd, FDSet(target_fds)))
    return DatabaseSchema(tuple(schemes))
