"""Seeded input families, as plain data.

Every generator takes a ``random.Random`` and returns names and
dependencies as tuples of strings, plus whatever the family makes known
by construction (closures, keys, hitting sets).  The seed changes
attribute names, and so the canonical (name) order the searches walk,
and the random parts of each family; the shape and size of every input
are fixed by the arguments, so the cost of a question class does not
depend on the seed.
"""

from __future__ import annotations

import random


def attr_names(rng: random.Random, n: int, prefix: str) -> list:
    """``n`` distinct identifiers whose name order is a random
    permutation of their position."""
    return [f"{prefix}{k}" for k in rng.sample(range(10 * n), n)]


def chain(rng: random.Random, n: int, prefix: str = "c") -> list:
    """Names ``a0..a(n-1)`` with the chain ``a(i) -> a(i+1)``; the closure
    of ``a(i)`` is the suffix from ``i``."""
    return attr_names(rng, n, prefix)


def chain_fds(order: list) -> list:
    return [((order[i],), (order[i + 1],)) for i in range(len(order) - 1)]


def block_chain(rng: random.Random, blocks: int, width: int, prefix: str = "b") -> list:
    """``blocks`` disjoint blocks of ``width`` names, chained block to
    block: every dependency is wide and the closure of block i is the
    union of blocks i onwards."""
    flat = attr_names(rng, blocks * width, prefix)
    return [tuple(flat[i * width : (i + 1) * width]) for i in range(blocks)]


def random_fds(rng: random.Random, universe: list, count: int, lhs_max: int = 3, rhs_max: int = 2) -> list:
    """``count`` distinct random dependencies with small, non-empty sides."""
    seen = set()
    out = []
    while len(out) < count:
        lhs = tuple(sorted(rng.sample(universe, rng.randint(1, lhs_max))))
        rhs = tuple(sorted(rng.sample(universe, rng.randint(1, rhs_max))))
        if (lhs, rhs) not in seen:
            seen.add((lhs, rhs))
            out.append((lhs, rhs))
    return out


def cyclic_keys(rng: random.Random, width: int, block: int = 2, tail: int = 2) -> dict:
    """A BCNF-clean scheme whose keys are known.

    The names split into blocks ``K0..K(k-1)`` of ``block`` attributes
    plus ``tail`` extra attributes; ``K(i) -> K(i+1)`` cyclically and
    ``K0 -> tail``.  A set containing a whole block determines
    everything, any other set determines only itself, so the keys are
    exactly the blocks, the tail attributes are nonprime, and every
    determinant is a superkey (BCNF and 3NF hold).  A normal-form check
    has to scan the whole subset lattice to prove it.
    """
    k = (width - tail) // block
    flat = attr_names(rng, width, "k")
    blocks = [tuple(flat[i * block : (i + 1) * block]) for i in range(k)]
    rest = tuple(flat[k * block :])
    fds = [(blocks[i], blocks[(i + 1) % k]) for i in range(k)]
    if rest:
        fds.append((blocks[0], rest))
    return {"attrs": tuple(flat), "fds": fds, "keys": blocks, "tail": rest}


def wide_fd(rng: random.Random, nx: int, ny: int, nz: int) -> dict:
    """Disjoint name groups X, Y, Z with the one dependency ``X -> Y``.

    The only key is ``X | Z``; when Z is empty the scheme is in BCNF,
    otherwise X is a non-superkey determinant of every Y attribute.
    """
    flat = attr_names(rng, nx + ny + nz, "w")
    rng.shuffle(flat)
    x, y, z = tuple(flat[:nx]), tuple(flat[nx : nx + ny]), tuple(flat[nx + ny :])
    return {"attrs": tuple(sorted(flat)), "x": x, "y": y, "z": z, "fds": [(x, y)]}


def hitting_set(rng: random.Random, n: int, m: int, solvable: bool) -> dict:
    """A planted exact hitting-set instance over ``n`` elements and ``m``
    subsets.

    Solvable: a hidden set W is chosen and every subset holds exactly one
    member of W.  Unsolvable: the first three subsets are the pairs of a
    triangle, which no set can hit exactly once each (that would be a
    proper two-colouring of an odd cycle), and the rest are random.
    Every other subset has three elements, so the reduction's size does
    not depend on the seed.
    """
    ground = attr_names(rng, n, "p")
    hidden = rng.sample(ground, max(2, n // 3))
    others = [g for g in ground if g not in hidden]
    subsets = []
    if not solvable:
        a, b, c = rng.sample(ground, 3)
        subsets += [(a, b), (b, c), (a, c)]
    while len(subsets) < m:
        if solvable:
            subset = tuple(sorted([rng.choice(hidden)] + rng.sample(others, 2)))
        else:
            subset = tuple(sorted(rng.sample(ground, 3)))
        if subset not in subsets:
            subsets.append(subset)
    return {"ground": tuple(ground), "subsets": tuple(subsets), "solvable": solvable}


def forest(rng: random.Random, n: int, roots: int) -> dict:
    """A forest of binary trees on ``n`` seeded names, one dependency
    ``parent -> child`` per edge (node i >= roots hangs under node
    (i - roots) // 2).  Each dependency is the only way to reach its
    child, so the set is its own reduced, non-redundant cover; the roots
    form the only key."""
    order = attr_names(rng, n, "t")
    fds = [((order[(i - roots) // 2],), (order[i],)) for i in range(roots, n)]
    return {"attrs": tuple(sorted(order)), "fds": fds, "roots": tuple(order[:roots])}


def functional_table(rng: random.Random, rows: int, cols: dict) -> tuple:
    """Rows over named columns, where ``cols`` maps a column to ``None``
    (free, drawn from ``rows // 3`` values) or to a tuple of source
    columns and a value count: the column is then a fixed function of
    its sources, so the table satisfies ``sources -> column``."""
    order = list(cols)
    tables: dict = {}
    out = set()
    while len(out) < rows:
        row: dict = {}
        for c in order:
            spec = cols[c]
            if spec is None:
                row[c] = rng.randrange(max(2, rows // 3))
            else:
                src, size = spec
                key = (c,) + tuple(row[s] for s in src)
                if key not in tables:
                    tables[key] = rng.randrange(size)
                row[c] = tables[key]
        out.add(tuple(row[c] for c in order))
    return tuple(order), sorted(out)
