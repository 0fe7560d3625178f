"""Fingerprint what fdkit's parser, closure kernel, design and cover
functions return on a fixed set of inputs.

Imports fdkit from the ``src`` directory of the checkout this file lives
in and calls its public functions over seeded random schemas and the
schemas of seeded hitting-set reductions.  Each random schema has 1-11
attributes, now and then a dependency with an empty left or right side,
and two random narrower schemes beside the whole one.  Each reduction's
schemes are narrower schemes whose closures pass through attributes
outside them.  Each function family (keys, every ``is_prime``,
``find_key``, the projection onto every scheme, both checks, both
decompositions and the four covers) is hashed on its own.  So are
``closure`` and ``implies`` over seeded dependency sets of up to 30
attributes, ``equivalent`` both ways between seeded dependency sets of
up to 20 attributes and five rewrites of each (its members reordered,
one dropped, one split into one-attribute right sides, two merged, and
a random dependency added), ``implies member`` asking each such set
about every member of each of its rewrites, most of which it states
itself, ``parse_schema`` and ``parse_fd_text`` over seeded messy
documents: invalid and reserved names, stray commas, both arrows,
comments, repeated lines, and list texts repeated at different offsets,
``oracle_implies`` over seeded dependency sets of 0-12 attributes under
the default limit and of 13-15 under a limit of 15, and the verdicts of
``is_lossless_on`` and ``check_represents`` on seeded random instances
and decompositions of up to 6 attributes, ``bcnf_decompose deep`` over
seeded schemas of 12-16 attributes whose whole scheme splits many times,
beside a narrower scheme, and ``check_represents parts`` over seeded
decompositions of 3-8 attributes into 3-7 parts, many of them of one
attribute, and ``check_represents chains`` over the 3NF syntheses of
seeded chains of 30-80 attributes, with the dependencies in forward and
in reversed order, each whole and with one inner scheme dropped, and
``constructors``: ``AttributeSet``, ``FD``, ``Row``, ``Relation`` and
``Relation.from_rows`` over seeded inputs, among them known, new and
invalid names, non-``str`` and unhashable members, a ``str`` subclass,
and dict rows in several key orders beside other mappings, ``Row``
objects and rows with a missing, extra or misnamed key; a refusal is
hashed as its ``type: message``.
Prints one line per family: the sha256 of every answer it gave, in
order, then the family's name and the number of calls.

Run it in two checkouts and diff the two outputs to see which families a
change touches.  Running it twice under different ``PYTHONHASHSEED``
values checks that every answer is deterministic.  Exits 1 if any call
raises.

Usage: python tools/lib_outputs.py
"""

import hashlib
import random
import sys
from collections.abc import Mapping
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fdkit import (  # noqa: E402
    FD,
    AttributeSet,
    DatabaseSchema,
    FDSet,
    HittingSetInstance,
    Relation,
    RelationScheme,
    Row,
    bcnf_decompose,
    canonical_cover,
    check_3nf,
    check_bcnf,
    check_represents,
    enumerate_keys,
    find_key,
    is_lossless_on,
    is_prime,
    minimum_cover,
    nonredundant_cover,
    oracle_implies,
    parse_fd_text,
    parse_schema,
    project_fds,
    random_satisfying_instance,
    reduce_to_schema,
    reduced_cover,
    synthesize_3nf,
)

SCHEMAS = 3000
INSTANCES = 200
WIDTH = 11
KERNELS = 1500
KERNEL_WIDTH = 30
DOCUMENTS = 3000
ORACLES = 500
ORACLE_WIDTH = 12
WIDE_ORACLES = 50
WIDE_ORACLE_WIDTH = 15
LABS = 600
LAB_WIDTH = 6
REWRITES = 500
REWRITE_WIDTH = 20
DEEP_SPLITS = 150
DEEP_WIDTH = 16
PARTED = 400
MAX_PARTS = 7
CHAINS = 40
CHAIN_WIDTHS = (30, 80)
CONSTRUCTORS = 1500
CONSTRUCTOR_NAMES = ("A", "B", "C", "D", "__C")
BAD_NAMES = ("9B", "A-B", "\u00e9", "__C", "__D")
ARROWS = ("->", "->", "\u2192")


def _side(rng, pool, low):
    return rng.sample(pool, rng.randint(low, min(3, len(pool))))


def random_fds(rng, pool) -> FDSet:
    """Up to twice as many dependencies as ``pool`` has attributes, now
    and then with an empty left or right side."""
    fds = [
        FD(_side(rng, pool, 0 if rng.random() < 0.05 else 1), _side(rng, pool, 0))
        for _ in range(rng.randint(0, 2 * len(pool)))
    ]
    return FDSet(fds, universe=pool)


def random_schema(rng) -> DatabaseSchema:
    """The whole scheme of a random dependency set, then two narrower
    schemes that carry no dependencies of their own."""
    pool = [f"A{i:02d}" for i in range(rng.randint(1, WIDTH))]
    sigma = random_fds(rng, pool)
    narrower = [RelationScheme(rng.sample(pool, rng.randint(1, len(pool))), ()) for _ in range(2)]
    return DatabaseSchema([RelationScheme(pool, sigma), *narrower])


def random_reduction(rng) -> DatabaseSchema:
    ground = tuple(f"p{i}" for i in range(1, rng.randint(1, 8) + 1))
    subsets = tuple(tuple(_side(rng, list(ground), 1)) for _ in range(rng.randint(1, 5)))
    return reduce_to_schema(HittingSetInstance(ground, subsets))


def random_kernel(rng):
    """A dependency set of 1-30 attributes, with now and then an empty
    side, and the closure and implication questions asked of it."""
    pool = [f"K{i:02d}" for i in range(rng.randint(1, KERNEL_WIDTH))]
    sigma = random_fds(rng, pool)
    for _ in range(4):
        yield "closure", partial(sigma.closure, rng.sample(pool, rng.randint(0, min(4, len(pool)))))
        yield "implies", partial(sigma.implies, FD(_side(rng, pool, 0), _side(rng, pool, 0)))


def rewrites(rng, sigma):
    """Five rewrites of ``sigma``'s members: reordered, one dropped, one
    split into one-attribute right sides, two merged into one, and a
    random dependency added.  The ones that need more members than
    ``sigma`` has are left out."""
    fds = list(sigma)
    pool = list(sigma.universe)
    yield rng.sample(fds, len(fds))
    if fds:
        i = rng.randrange(len(fds))
        yield fds[:i] + fds[i + 1 :]
        i = rng.randrange(len(fds))
        yield fds[:i] + [FD(fds[i].lhs, [a]) for a in fds[i].rhs] + fds[i + 1 :]
    if len(fds) >= 2:
        i, j = sorted(rng.sample(range(len(fds)), 2))
        merged = FD(fds[i].lhs | fds[j].lhs, fds[i].rhs | fds[j].rhs)
        yield fds[:i] + [merged] + fds[i + 1 : j] + fds[j + 1 :]
    yield fds + [FD(_side(rng, pool, 0), _side(rng, pool, 0))]


def random_rewrite(rng):
    """A dependency set of 1-20 attributes, asked whether it is
    equivalent to each of its rewrites, both ways, and whether it
    implies each member of each rewrite."""
    pool = [f"E{i:02d}" for i in range(rng.randint(1, REWRITE_WIDTH))]
    sigma = random_fds(rng, pool)
    for fds in rewrites(rng, sigma):
        other = FDSet(fds, universe=pool)
        yield "equivalent", partial(sigma.equivalent, other)
        yield "equivalent", partial(other.equivalent, sigma)
        for fd in other:
            yield "implies member", partial(sigma.implies, fd)


def random_oracle(rng, low, high, **limit):
    """A dependency set of ``low`` to ``high`` attributes, the universe
    empty now and then, and four implication questions for the oracle."""
    pool = [f"O{i:02d}" for i in range(rng.randint(low, high))]
    sigma = random_fds(rng, pool)
    for _ in range(4):
        yield "oracle_implies", partial(oracle_implies, sigma, FD(_side(rng, pool, 0), _side(rng, pool, 0)), **limit)


def random_lab(rng):
    """A random instance that satisfies a random dependency set, and a
    decomposition into up to four covering parts: whether the instance
    joins back from its projections, and how the decomposition with the
    projected dependencies represents the whole scheme."""
    pool = [f"L{i}" for i in range(rng.randint(1, LAB_WIDTH))]
    sigma = random_fds(rng, pool)
    parts = [rng.sample(pool, rng.randint(1, len(pool))) for _ in range(rng.randint(1, 3))]
    rest = [a for a in pool if not any(a in part for part in parts)]
    if rest:
        parts.append(rest)
    instance = random_satisfying_instance(sigma, rng, max_witnesses=rng.randint(1, 4), max_merges=rng.randint(0, 3))
    yield "is_lossless_on", partial(is_lossless_on, instance, parts)
    schema = DatabaseSchema([RelationScheme(part, project_fds(sigma, part)) for part in parts])
    yield "check_represents", lambda: check_represents(schema, RelationScheme(pool, sigma)).to_dict()


def random_deep_split(rng):
    """A dependency set of 12-16 attributes, about one dependency per
    attribute with one or two on the left, so that the whole scheme
    splits many times, and a narrower scheme beside it."""
    pool = [f"B{i:02d}" for i in range(rng.randint(DEEP_WIDTH - 4, DEEP_WIDTH))]
    fds = [FD(rng.sample(pool, rng.randint(1, 2)), _side(rng, pool, 1)) for _ in range(rng.randint(4, len(pool)))]
    narrower = RelationScheme(rng.sample(pool, rng.randint(2, len(pool))), (), name="N")
    schema = DatabaseSchema([RelationScheme(pool, FDSet(fds, universe=pool), name="U"), narrower])
    yield "bcnf_decompose deep", partial(bcnf_decompose, schema)


def random_parts(rng):
    """A decomposition of a random dependency set of 3-8 attributes into
    3-7 covering parts, each of one attribute two times in five, with
    the projected dependencies: how it represents the whole scheme."""
    pool = [f"P{i}" for i in range(rng.randint(3, 8))]
    sigma = random_fds(rng, pool)
    size = rng.randint(3, MAX_PARTS)
    parts = [rng.sample(pool, 1 if rng.random() < 0.4 else rng.randint(1, len(pool))) for _ in range(size - 1)]
    rest = [a for a in pool if not any(a in part for part in parts)]
    parts.append(rest or rng.sample(pool, 1))
    schema = DatabaseSchema([RelationScheme(part, project_fds(sigma, part)) for part in parts])
    yield "check_represents parts", lambda: check_represents(schema, RelationScheme(pool, sigma)).to_dict()


def random_chain(rng):
    """A chain ``C00 -> C01 -> ...`` of 30-80 attributes, its links in
    forward and in reversed order: how the 3NF synthesis represents the
    whole scheme, and how it does without the scheme of one inner link,
    which is lossy."""
    pool = [f"C{i:02d}" for i in range(rng.randint(*CHAIN_WIDTHS))]
    links = [FD([x], [y]) for x, y in zip(pool, pool[1:])]
    k = rng.randrange(1, len(pool) - 2)
    for fds in (links, links[::-1]):
        universal = RelationScheme(pool, FDSet(fds, universe=pool))
        synthesized = synthesize_3nf(universal)
        dropped = DatabaseSchema([s for s in synthesized if s.attrs != AttributeSet(pool[k : k + 2])])
        for schema in (synthesized, dropped):
            yield "check_represents chains", lambda s=schema, u=universal: check_represents(s, u).to_dict()


class _Name(str):
    """A ``str`` subclass, which fdkit accepts as a name."""


class _SubDict(dict):
    """A ``dict`` subclass."""


class _Mapped(Mapping):
    """A mapping that is not a ``dict``."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


def _built(build, *args) -> str:
    """A text for what ``build(*args)`` returns, or for its refusal as
    ``type: message``, so that refusals are answers too."""
    try:
        value = build(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(value, Relation):
        return repr((value.scheme, sorted(map(repr, value.rows))))
    return repr(value)


def _members(rng, tag) -> list:
    """0-5 members, each most often a known name, else a name not seen
    before, a ``str`` subclass, an invalid name or a value that is not a
    ``str`` (unhashable now and then)."""
    out = []
    for i in range(rng.randrange(6)):
        kind = rng.randrange(12)
        if kind < 6:
            out.append(rng.choice(CONSTRUCTOR_NAMES))
        elif kind == 6:
            out.append(f"F{tag}_{i}")
        elif kind == 7:
            out.append(_Name(rng.choice([*CONSTRUCTOR_NAMES, f"G{tag}_{i}"])))
        else:
            out.append(rng.choice(["9B", "", "A-B", 1, b"A", None, ["A"]]))
    return out


def _rows(rng, names) -> list:
    """0-6 rows over ``names``: mostly dicts in one to three key orders,
    now and then a dict subclass, another mapping or a ``Row``, and now
    and then a key missing, added or misnamed, or an unhashable value."""
    orders = [rng.sample(names, len(names)) for _ in range(rng.randint(1, 3))]
    rows = []
    for _ in range(rng.randrange(7)):
        keys = list(rng.choice(orders))
        values = [rng.choice(["0", "1", 0, 1, (0,)]) for _ in keys]
        flaw = rng.randrange(30)
        if flaw == 0 and keys:
            keys.pop()
        elif flaw == 1:
            keys.append(rng.choice(["Z", "A"]))
            values.append("1")
        elif flaw == 2 and keys:
            keys[rng.randrange(len(keys))] = rng.choice(["9B", 1, None, b"A"])
        elif flaw == 3 and values:
            values[rng.randrange(len(values))] = ["unhashable"]
        row = dict(zip(keys, values))
        wrap = rng.randrange(10)
        if wrap == 0:
            row = _Mapped(row)
        elif wrap == 1:
            row = _SubDict(row)
        elif wrap == 2 and flaw != 2:
            row = Row(row)
        rows.append(row)
    return rows


def random_constructors(rng, k):
    """``AttributeSet`` over seeded members in a list, a tuple, a
    generator, a set and the text of their names, ``FD`` over two such
    lists, and ``Row``, ``Relation`` and ``Relation.from_rows`` over
    seeded rows of schemes of 0-4 attributes."""
    members = _members(rng, f"{k}a")
    yield "constructors", partial(_built, AttributeSet, members)
    yield "constructors", partial(_built, AttributeSet, tuple(members))
    yield "constructors", lambda: _built(AttributeSet, (m for m in members))
    if sum(not isinstance(m, str) or not m.isidentifier() for m in members) <= 1:
        # at most one bad member, so the one refused is not chosen by hash order
        yield "constructors", partial(_built, lambda: AttributeSet(set(members)))
    if all(isinstance(m, str) for m in members):
        yield "constructors", partial(_built, AttributeSet, rng.choice([" ", ",", ", "]).join(members))
    yield "constructors", partial(_built, FD, members, _members(rng, f"{k}b"))
    scheme = rng.sample(CONSTRUCTOR_NAMES, rng.randint(0, 4))
    rows = _rows(rng, scheme)
    for row in rows:
        yield "constructors", partial(_built, Row, row)
    named = rng.choice([scheme, " ".join(scheme)])
    yield "constructors", lambda: _built(Relation, named, iter(rows))
    values = [tuple(r.values()) if isinstance(r, dict) else (0,) * len(scheme) for r in rows]
    yield "constructors", partial(_built, Relation.from_rows, scheme, values)


def random_list(rng, good, mess) -> str:
    """A list text of 1-3 names, now and then none, joined by mixed
    separators; with ``mess``, now and then a bad name or a leading or
    trailing comma."""
    size = 0 if rng.random() < 0.05 else rng.randint(1, 3)
    names = [rng.choice(BAD_NAMES) if rng.random() < 0.02 * mess else rng.choice(good) for _ in range(size)]
    text = rng.choice([", ", ",", " ", " ,  ", "\t"]).join(names)
    return ("," if rng.random() < 0.05 * mess else "") + text + ("," if rng.random() < 0.05 * mess else "")


def random_document(rng) -> str:
    """A schema document whose list texts often repeat, on other lines
    and sides and at other offsets.  Three documents in five are messy:
    bad names, stray commas and bad lines, and in about one of four of
    those the first repeated text holds a bad name."""
    good = [f"D{i}" for i in range(rng.randint(1, 8))]
    mess = rng.random() < 0.6
    shared = [random_list(rng, good, mess) for _ in range(3)]
    if mess and rng.random() < 0.25:
        shared[0] += " " + rng.choice(BAD_NAMES)

    def pick() -> str:
        return rng.choice(shared) if rng.random() < 0.5 else random_list(rng, good, mess)

    lines = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.1:
            line = f"scheme S{rng.randint(0, 3)}({pick()})"
        elif kind < 0.15:
            line = f"universe {pick() if mess else ', '.join(good)}"
        elif kind < 0.2 and mess:
            line = rng.choice(["", "# a comment", "bogus D0", "fd D0 D1", "scheme S(D0"])
        else:
            line = f"fd {pick()} {rng.choice(ARROWS)} {pick()}"
        if rng.random() < 0.1:
            line += "  # note -> D0"
        lines.append(" " * rng.randint(0, 2) + line)
    for _ in range(rng.randint(0, 3)):
        if lines:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    return "\n".join(lines) + rng.choice(["", "\n"])


def _parsed(text: str) -> str:
    """Every diagnostic of ``text``, then its document rendered, with the
    source line of each declaration."""
    result = parse_schema(text)
    out = [str(d) for d in result.diagnostics]
    doc = result.document
    if doc is not None:
        out += [doc.render(), repr((doc.scheme_lines, doc.fd_lines, doc.universe_line))]
    return "\n".join(out)


def _parsed_fd(text: str) -> str:
    try:
        return str(parse_fd_text(text))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def random_parse(rng):
    text = random_document(rng)
    yield "parse_schema", partial(_parsed, text)
    for line in text.splitlines():
        if line.lstrip().startswith("fd "):
            yield "parse_fd_text", partial(_parsed_fd, line.lstrip()[3:])


def _text(value) -> str:
    """A text for ``value`` that does not depend on hash order."""
    if isinstance(value, frozenset) and not isinstance(value, AttributeSet):
        return repr(sorted(map(str, value)))
    return repr(value)


def families(schema: DatabaseSchema):
    """Every (family, call) pair asked of ``schema``, in a fixed order."""
    sigma = schema.global_fds()
    for scheme in schema:
        yield "enumerate_keys", partial(enumerate_keys, scheme, sigma)
        yield "find_key", partial(find_key, scheme, sigma)
        yield "project_fds", partial(project_fds, sigma, scheme.attrs)
        for a in scheme.attrs:
            yield "is_prime", partial(is_prime, scheme, sigma, a)
    yield "check_bcnf", partial(check_bcnf, schema)
    yield "check_3nf", partial(check_3nf, schema)
    yield "bcnf_decompose", partial(bcnf_decompose, schema)
    universal = RelationScheme(sigma.universe, sigma)
    yield "synthesize_3nf", partial(synthesize_3nf, universal)
    yield "synthesize_3nf verbatim", partial(synthesize_3nf, universal, verbatim=True)
    for cover in (minimum_cover, canonical_cover, reduced_cover, nonredundant_cover):
        yield cover.__name__, partial(cover, sigma)


def main() -> int:
    digests: dict = {}
    calls: dict = {}
    failed = 0
    schemas = [random_schema(random.Random(k)) for k in range(SCHEMAS)]
    schemas += [random_reduction(random.Random(5000 + k)) for k in range(INSTANCES)]
    inputs = [families(schema) for schema in schemas]
    inputs += [random_kernel(random.Random(10000 + k)) for k in range(KERNELS)]
    inputs += [random_parse(random.Random(20000 + k)) for k in range(DOCUMENTS)]
    inputs += [random_oracle(random.Random(30000 + k), 0, ORACLE_WIDTH) for k in range(ORACLES)]
    inputs += [
        random_oracle(random.Random(35000 + k), ORACLE_WIDTH + 1, WIDE_ORACLE_WIDTH, limit=WIDE_ORACLE_WIDTH)
        for k in range(WIDE_ORACLES)
    ]
    inputs += [random_lab(random.Random(40000 + k)) for k in range(LABS)]
    inputs += [random_rewrite(random.Random(50000 + k)) for k in range(REWRITES)]
    inputs += [random_deep_split(random.Random(60000 + k)) for k in range(DEEP_SPLITS)]
    inputs += [random_parts(random.Random(70000 + k)) for k in range(PARTED)]
    inputs += [random_chain(random.Random(80000 + k)) for k in range(CHAINS)]
    inputs += [random_constructors(random.Random(90000 + k), k) for k in range(CONSTRUCTORS)]
    for k, asked in enumerate(inputs):
        for name, call in asked:
            try:
                answer = _text(call())
            except Exception as exc:
                failed += 1
                answer = f"RAISED {type(exc).__name__}: {exc}"
                print(f"RAISED {type(exc).__name__} in {name} of input {k}", file=sys.stderr)
            digests.setdefault(name, hashlib.sha256()).update(answer.encode() + b"\n")
            calls[name] = calls.get(name, 0) + 1
    for name, digest in digests.items():
        print(f"{digest.hexdigest()}  {name}  ({calls[name]} calls)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
