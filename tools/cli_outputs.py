"""Fingerprint what every fdkit subcommand prints on a fixed set of inputs.

Calls ``fdkit.cli.main`` in-process, from the ``src`` directory of the
checkout this file lives in, over seeded random schemas and hitting-set
instances.  Every subcommand runs on each input, plain and with
``--json``; a few runs add ``--limit 3`` or read a broken schema, so
exit statuses 2 and 3 show up too.  A few wider schemas, of 9-12
attributes, go through ``keys --all`` and ``check`` only, on a scheme
that holds its dependencies and on a narrower one.  What ``reduce``
prints for each hitting-set instance goes through ``check`` and
``keys --all`` on its target scheme: narrower schemes whose closures
pass through attributes outside them.  Last, every searching
subcommand runs with no ``--limit`` on inputs one narrower than the
default limit, at it and one wider, so the default's answers and
refusals show.  Prints one line per invocation: the sha256 of its exit
status, stdout and stderr, then its arguments.

Run it in two checkouts and diff the two outputs to see exactly which
invocations a change touches.  Running it twice under different
``PYTHONHASHSEED`` values checks that every command is deterministic.
Exits 1 if any invocation raises instead of returning a status.

Usage: python tools/cli_outputs.py
"""

import contextlib
import hashlib
import io
import os
import random
import shlex
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fdkit.cli import main as fdkit_main  # noqa: E402
from fdkit.errors import DEFAULT_LIMIT  # noqa: E402

SCHEMAS = 60
INSTANCES = 30
WIDE = 8
LETTERS = "ABCDEFG"
WIDE_LETTERS = "ABCDEFGHIJKL"


def _side(rng, pool, low):
    return rng.sample(pool, rng.randint(low, min(3, len(pool))))


def _fd_text(lhs, rhs) -> str:
    return f"{', '.join(lhs)} -> {', '.join(rhs)}".rstrip()


def _write_schemas(rng, k: int) -> dict:
    """The files of schema ``k``: the universal schema, the same
    dependencies over declared schemes, and a random part of the
    dependencies for ``equivalent``.  Returns the names and one attribute
    list and dependency to ask about."""
    pool = list(LETTERS[: rng.randint(2, len(LETTERS))])
    fds = [_fd_text(_side(rng, pool, 1), _side(rng, pool, 0)) for _ in range(rng.randint(0, 2 * len(pool)))]
    if fds and rng.random() < 0.2:
        fds.append(rng.choice(fds))  # a duplicate, which draws a warning
    universe = f"universe {', '.join(pool)}\n"
    fd_lines = "".join(f"fd {f}\n" for f in fds)
    schemes = []
    for _ in range(rng.randint(1, 3)):
        schemes.append(sorted(rng.sample(pool, rng.randint(1, len(pool)))))
    schemes[-1] = sorted(set(schemes[-1]) | (set(pool) - set().union(*schemes)))
    names = {"u": f"u{k}.fd", "d": f"d{k}.fd", "o": f"o{k}.fd"}
    Path(names["u"]).write_text(universe + fd_lines)
    Path(names["d"]).write_text(
        "".join(f"scheme R{i + 1}({', '.join(s)})\n" for i, s in enumerate(schemes)) + fd_lines
    )
    part = [f for f in fds if rng.random() < 0.7]
    Path(names["o"]).write_text(universe + "".join(f"fd {f}\n" for f in part))
    names["of"] = " ".join(_side(rng, pool, 1))
    names["fd"] = _fd_text(_side(rng, pool, 1), _side(rng, pool, 1))
    return names


def _write_wide(rng, k: int) -> dict:
    """The files of wide schema ``k``: the universal schema, and the same
    dependencies over the whole universe and a narrower scheme.  Schemas
    0 and 1 are mutual pairs (``A <-> B``, ``C <-> D``, ...), 2 also has
    a dependency with an empty right side, 3 is a cycle, and the rest
    are random."""
    pool = list(WIDE_LETTERS[: rng.randint(9, len(WIDE_LETTERS))])
    if k < 2:
        fds = [_fd_text([a], [b]) for x, y in zip(pool[::2], pool[1::2]) for a, b in ((x, y), (y, x))]
    elif k == 3:
        fds = [_fd_text([a], [b]) for a, b in zip(pool, pool[1:] + pool[:1])]
    else:
        fds = [_fd_text(_side(rng, pool, 1), _side(rng, pool, 1)) for _ in range(rng.randint(len(pool) // 2, len(pool)))]
    if k == 2:
        fds.append(_fd_text(_side(rng, pool, 1), []))
    attrs = ", ".join(pool)
    part = ", ".join(sorted(rng.sample(pool, rng.randint(2, len(pool) - 1))))
    fd_lines = "".join(f"fd {f}\n" for f in fds)
    names = {"u": f"w{k}.fd", "d": f"wd{k}.fd"}
    Path(names["u"]).write_text(f"universe {attrs}\n" + fd_lines)
    Path(names["d"]).write_text(f"scheme W({attrs})\nscheme N({part})\n" + fd_lines)
    return names


def _write_instance(rng, k: int) -> str:
    ground = [f"p{i}" for i in range(1, rng.randint(1, 8) + 1)]
    lines = [f"elements: {' '.join(ground)}"]
    lines += [f"set: {' '.join(rng.sample(ground, rng.randint(1, min(3, len(ground)))))}" for _ in range(rng.randint(1, 5))]
    name = f"h{k}.hs"
    Path(name).write_text("\n".join(lines) + "\n")
    return name


def _write_reduction(instance: str, k: int) -> tuple:
    """Write the schema ``reduce`` prints for ``instance`` to a file, with
    the reserved names ``__C`` and ``__D``, which schema files may not
    use, renamed ``C_`` and ``D_``; the attributes keep their name order.
    Returns the file's name and the name of its target scheme, the last
    one declared."""
    _, text, _ = run(["reduce", instance])
    text = text.replace("__C", "C_").replace("__D", "D_")
    name = f"r{k}.fd"
    Path(name).write_text(text)
    target = [line for line in text.splitlines() if line.startswith("scheme ")][-1]
    return name, target.split()[1].split("(")[0]


def invocations() -> list:
    """Every argument list, in a fixed order; writes the input files into
    the current directory."""
    out = []
    for k in range(SCHEMAS):
        f = _write_schemas(random.Random(k), k)
        u, d = ["--schema", f["u"]], ["--schema", f["d"]]
        out += [
            ["closure", "--of", f["of"], *u],
            ["implies", f["fd"], *u],
            ["oracle", "implies", f["fd"], *u],
            ["equivalent", f["o"], *u],
            ["mincover", *u],
            ["nonredundant", *u],
            ["reduce-fds", *u],
            ["canonical", *u],
            ["keys", *u],
            ["keys", "--all", *u],
            ["keys", "--scheme", "R1", *d],
            ["check", "--nf", "bcnf", *d],
            ["check", "--nf", "3nf", *d],
            ["decompose", "--bcnf", *d],
            ["synthesize", "--3nf", *u],
            ["represents", f["u"], *d],
        ]
        if k < 5:
            out += [
                ["keys", "--all", "--limit", "3", *u],
                ["check", "--nf", "bcnf", "--limit", "3", *d],
                ["synthesize", "--3nf", "--limit", "3", *u],
            ]
    for k in range(WIDE):
        f = _write_wide(random.Random(2000 + k), k)
        u, d = ["--schema", f["u"]], ["--schema", f["d"]]
        out += [
            ["keys", "--all", *u],
            ["keys", "--all", "--scheme", "N", *d],
            ["check", "--nf", "bcnf", *u],
            ["check", "--nf", "3nf", *u],
            ["check", "--nf", "bcnf", *d],
            ["check", "--nf", "3nf", *d],
        ]
    for k in range(INSTANCES):
        h = _write_instance(random.Random(1000 + k), k)
        out += [["hitting-set", h], ["reduce", h]]
        r, target = _write_reduction(h, k)
        out += [
            ["check", "--nf", "3nf", "--schema", r],
            ["check", "--nf", "bcnf", "--schema", r],
            ["keys", "--all", "--scheme", target, "--schema", r],
        ]
        if k < 5:
            out.append(["hitting-set", h, "--limit", "3"])
    for n in (DEFAULT_LIMIT - 1, DEFAULT_LIMIT, DEFAULT_LIMIT + 1):
        names = [f"A{i}" for i in range(n)]
        Path(f"star{n}.fd").write_text(f"fd A0 -> {', '.join(names[1:])}\n")
        Path(f"one{n}.hs").write_text(f"elements: {' '.join(names)}\nset: {' '.join(names)}\n")
        star = ["--schema", f"star{n}.fd"]
        out += [
            ["keys", "--all", *star],
            ["check", "--nf", "bcnf", *star],
            ["check", "--nf", "3nf", *star],
            ["decompose", "--bcnf", *star],
            ["synthesize", "--3nf", *star],
            ["oracle", "implies", "A0 -> A1", *star],
            ["hitting-set", f"one{n}.hs"],
        ]
    Path("broken.fd").write_text("scheme S(A\n")
    out += [["mincover", "--schema", "broken.fd"], ["closure", "--of", "A", "--schema", "missing.fd"]]
    return [argv + extra for argv in out for extra in ([], ["--json"])]


def run(argv: list) -> tuple:
    """The exit status, stdout and stderr of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = fdkit_main(argv)
    return status, out.getvalue(), err.getvalue()


def main() -> int:
    os.environ.pop("FDKIT_LIMIT", None)
    sys.stdin = io.StringIO()  # every invocation names its files
    failed = 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for argv in invocations():
            args = shlex.join(argv)
            try:
                status, out, err = run(argv)
            except Exception as exc:
                failed += 1
                print(f"RAISED {type(exc).__name__}  {args}")
                continue
            digest = hashlib.sha256(repr((status, out, err)).encode()).hexdigest()
            print(f"{digest}  {args}")
        os.chdir(home)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
