"""Command-line interface.

Exit status contract, designed so shell pipelines can branch on verdicts:

* 0: the queried property holds / output was produced
* 1: the queried property fails (non-implication, a normal-form
  violation, no hitting set, a representation failure)
* 2: usage, parse, or input errors
* 3: an exponential-search limit refusal

Diagnostics go to stderr, results to stdout.  ``--json`` switches stdout
to a one-line JSON report (see docs/formats.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from .dsl import SchemaDocument, _fd_line, parse_fd_text, parse_schema
from .errors import DEFAULT_LIMIT, FDKitError, LimitExceededError
from .fds import FD, AttributeSet, DatabaseSchema, RelationScheme

# Each subcommand imports the modules it needs beyond these when it runs,
# since each question is a fresh process that pays for every import:
# closure, implies and equivalent load none of design, covers, instances
# or reductions.

__all__ = ["main", "entry"]

LIMIT_ENV = "FDKIT_LIMIT"


class UsageError(Exception):
    pass


class _ParseFailed(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit itself
        raise UsageError(message)


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--schema", "-s", default="-", metavar="FILE",
        help="schema file to read (default: stdin)",
    )
    common.add_argument(
        "--json", action="store_true", help="emit a machine-readable JSON report"
    )
    common.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help=f"exponential-search guard (also ${LIMIT_ENV})",
    )
    return common


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="fdkit",
        description="Reason about functional dependencies over relational schemas.",
    )
    common = _common_options()
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("closure", parents=[common], help="closure of an attribute set")
    p.add_argument("--of", required=True, metavar="ATTRS", help="attributes to close over")
    p.set_defaults(func=_cmd_closure, command_name="closure")

    p = sub.add_parser("implies", parents=[common], help="does the schema imply an fd?")
    p.add_argument("fd", metavar="FD", help="dependency such as 'A, B -> C'")
    p.set_defaults(func=_cmd_implies, command_name="implies")

    p = sub.add_parser("equivalent", parents=[common], help="compare two dependency sets")
    p.add_argument("other", metavar="FILE", help="schema file to compare against")
    p.set_defaults(func=_cmd_equivalent, command_name="equivalent")

    for name, rewrite, blurb in (
        ("mincover", "minimum_cover", "print a minimum cover"),
        ("nonredundant", "nonredundant_cover", "print a non-redundant cover"),
        ("reduce-fds", "reduced_cover", "print a cover with reduced left sides"),
        ("canonical", "canonical_cover", "print a canonical (singleton right side) cover"),
    ):
        p = sub.add_parser(name, parents=[common], help=blurb)
        p.set_defaults(func=_cmd_cover, command_name=name, rewrite=rewrite)

    p = sub.add_parser("keys", parents=[common], help="find one key or all keys")
    p.add_argument("--all", action="store_true", help="enumerate every key")
    p.add_argument("--scheme", metavar="NAME", help="declared scheme to inspect (default: the universe)")
    p.set_defaults(func=_cmd_keys, command_name="keys")

    p = sub.add_parser("check", parents=[common], help="check a normal form")
    p.add_argument("--nf", required=True, choices=["bcnf", "3nf"])
    p.set_defaults(func=_cmd_check, command_name="check")

    p = sub.add_parser("decompose", parents=[common], help="decompose into BCNF")
    p.add_argument("--bcnf", action="store_true", help="target normal form (required)")
    p.set_defaults(func=_cmd_decompose, command_name="decompose")

    p = sub.add_parser("synthesize", parents=[common], help="synthesize a 3NF schema")
    p.add_argument("--3nf", action="store_true", dest="nf3", help="target normal form (required)")
    p.add_argument(
        "--verbatim-3nf", action="store_true", dest="verbatim",
        help="skip merge and subsumption clean-up of the synthesized schemes",
    )
    p.set_defaults(func=_cmd_synthesize, command_name="synthesize")

    p = sub.add_parser(
        "represents", parents=[common],
        help="does this schema represent a universal scheme?",
    )
    p.add_argument("universal", metavar="FILE", help="universal schema file")
    p.set_defaults(func=_cmd_represents, command_name="represents")

    p = sub.add_parser("hitting-set", parents=[common], help="solve an exact hitting-set instance")
    p.add_argument("instance", metavar="FILE", help="instance file")
    p.set_defaults(func=_cmd_hitting_set, command_name="hitting-set")

    p = sub.add_parser(
        "reduce", parents=[common],
        help="translate a hitting-set instance into a schema",
    )
    p.add_argument("instance", metavar="FILE", help="instance file")
    p.set_defaults(func=_cmd_reduce, command_name="reduce")

    p = sub.add_parser("oracle", help="instance-based oracles")
    osub = p.add_subparsers(dest="oracle_command", metavar="ORACLE")
    oi = osub.add_parser("implies", parents=[common], help="brute-force implication check")
    oi.add_argument("fd", metavar="FD", help="dependency such as 'A, B -> C'")
    oi.set_defaults(func=_cmd_implies, command_name="oracle implies")

    return parser


def _fail(message: str) -> None:
    print(f"fdkit: {message}", file=sys.stderr)


def _limit(ns) -> int:
    """The search limit: ``--limit``, else ``$FDKIT_LIMIT``, else the
    library's :data:`~fdkit.errors.DEFAULT_LIMIT`.  A value that is not a
    whole number of at least 0 is a usage error."""
    source, raw = ("--limit", ns.limit) if ns.limit is not None else (LIMIT_ENV, os.environ.get(LIMIT_ENV))
    if raw is None:
        return DEFAULT_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = -1  # refused below, as a negative limit is
    if limit < 0:
        raise UsageError(f"invalid {source} value: {raw!r}")
    return limit


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_document(path: str) -> SchemaDocument:
    display = "<stdin>" if path == "-" else path
    result = parse_schema(_read_source(path))
    for diag in result.diagnostics:
        print(f"{display}:{diag}", file=sys.stderr)
    if not result.ok:
        raise _ParseFailed()
    return result.document


def _fd_dict(fd: FD) -> dict:
    return {"lhs": list(fd.lhs.names), "rhs": list(fd.rhs.names)}


def _scheme_names(db: DatabaseSchema) -> list:
    """One name per scheme, in order: the declared name, else
    ``R<position>`` unless a scheme is declared with it, else the first
    ``R<position>_<k>``, k = 2, 3, ..., that no scheme is declared with.
    A generated name meets no declared name, and no other generated one,
    since each carries its own position."""
    declared = {s.name for s in db.schemes if s.name}
    names = []
    for i, scheme in enumerate(db.schemes, start=1):
        name = scheme.name
        if not name:
            name, k = f"R{i}", 1
            while name in declared:
                k += 1
                name = f"R{i}_{k}"
        names.append(name)
    return names


def _schema_lines(db: DatabaseSchema) -> list:
    """The schema in the schema language: its schemes under their
    output names, then each local fd once, in scheme order."""
    named = [RelationScheme(s.attrs, s.fds, n) for n, s in zip(_scheme_names(db), db.schemes)]
    return SchemaDocument(tuple(named), db.global_fds(), db.universe).render().splitlines()


def _schema_payload(db: DatabaseSchema) -> dict:
    return {
        "universe": list(db.universe.names),
        "schemes": [
            {
                "name": name,
                "attrs": list(scheme.attrs.names),
                "fds": [_fd_dict(fd) for fd in scheme.fds],
            }
            for name, scheme in zip(_scheme_names(db), db.schemes)
        ],
    }


def _finish(ns, code: int, lines, payload: dict) -> int:
    if ns.json:
        report = {"command": ns.command_name, "exit_status": code, "result": payload}
        print(json.dumps(report, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def _cmd_closure(ns) -> int:
    doc = _load_document(ns.schema)
    of = AttributeSet(ns.of)
    closed = doc.fds.closure(of)
    payload = {"of": list(of.names), "closure": list(closed.names)}
    return _finish(ns, 0, [str(closed)], payload)


def _cmd_implies(ns) -> int:
    """``implies`` decides by closure; ``oracle implies`` searches
    instances, under the search limit."""
    doc = _load_document(ns.schema)
    fd = parse_fd_text(ns.fd)
    if ns.command_name == "implies":
        implied = doc.fds.implies(fd)
    else:
        from .instances import oracle_implies

        implied = oracle_implies(doc.fds, fd, limit=_limit(ns))
    payload = {"fd": _fd_dict(fd), "implied": implied}
    return _finish(ns, 0 if implied else 1, ["true" if implied else "false"], payload)


def _cmd_equivalent(ns) -> int:
    doc = _load_document(ns.schema)
    other = _load_document(ns.other)
    same = doc.fds.equivalent(other.fds)
    payload = {"equivalent": same}
    return _finish(ns, 0 if same else 1, ["true" if same else "false"], payload)


def _cmd_cover(ns) -> int:
    from . import covers

    doc = _load_document(ns.schema)
    result = getattr(covers, ns.rewrite)(doc.fds)
    payload = {"fds": [_fd_dict(fd) for fd in result]}
    return _finish(ns, 0, [_fd_line(fd) for fd in result], payload)


def _cmd_keys(ns) -> int:
    from .design import enumerate_keys, find_key

    doc = _load_document(ns.schema)
    if ns.scheme is not None:
        scheme = doc.scheme_named(ns.scheme)
        if scheme is None:
            raise UsageError(f"keys: no scheme named {ns.scheme!r}")
    else:
        scheme = doc.universal_scheme()
    limit = _limit(ns)  # an invalid FDKIT_LIMIT is refused without --all too
    if ns.all:
        keys = sorted(
            enumerate_keys(scheme, doc.fds, limit=limit),
            key=lambda k: (len(k), k.names),
        )
        payload = {"scheme": list(scheme.attrs.names), "keys": [list(k.names) for k in keys]}
        return _finish(ns, 0, [str(k) for k in keys], payload)
    key = find_key(scheme, doc.fds)
    payload = {"scheme": list(scheme.attrs.names), "key": list(key.names)}
    return _finish(ns, 0, [str(key)], payload)


def _check_report_lines(db: DatabaseSchema, report) -> list:
    lines = [report.verdict]
    for w in report.witnesses:
        scheme = db.schemes[w.scheme_index]
        lines.append(
            f"scheme {w.scheme_index} ({scheme.attrs}): "
            f"determinant {w.determinant} -> {w.dependents} [{w.reason}]"
        )
    return lines


def _cmd_check(ns) -> int:
    from .design import check_3nf, check_bcnf

    doc = _load_document(ns.schema)
    db = doc.database_schema()
    report = (check_bcnf if ns.nf == "bcnf" else check_3nf)(db, limit=_limit(ns))
    payload = report.to_dict()
    payload["schemes"] = [list(s.attrs.names) for s in db.schemes]
    return _finish(ns, 0 if report.satisfied else 1, _check_report_lines(db, report), payload)


def _represents(schema: DatabaseSchema, universal: RelationScheme) -> tuple:
    """The :func:`check_represents` report and its two verdict lines."""
    from .design import check_represents

    rep = check_represents(schema, universal)
    preserving = str(rep.dependency_preserving).lower()
    return rep, [f"dependency preserving: {preserving}", f"lossless: {rep.lossless_verdict}"]


def _finish_schema(ns, out: DatabaseSchema, universal) -> int:
    """Print a produced schema, with the representation footer when it
    covers the universal scheme's attributes."""
    lines = _schema_lines(out)
    payload = _schema_payload(out)
    if out.universe == universal.attrs:
        rep, verdicts = _represents(out, universal)
        payload["dependency_preserving"] = rep.dependency_preserving
        payload["lossless"] = rep.lossless_verdict
        lines += ["# " + line for line in verdicts]
    return _finish(ns, 0, lines, payload)


def _cmd_decompose(ns) -> int:
    from .design import bcnf_decompose

    if not ns.bcnf:
        raise UsageError("decompose: pass --bcnf (the only supported target)")
    doc = _load_document(ns.schema)
    db = doc.database_schema()
    out = bcnf_decompose(db, limit=_limit(ns))
    return _finish_schema(ns, out, doc.universal_scheme())


def _cmd_synthesize(ns) -> int:
    from .design import synthesize_3nf

    if not ns.nf3:
        raise UsageError("synthesize: pass --3nf (the only supported target)")
    doc = _load_document(ns.schema)
    universal = doc.universal_scheme()
    out = synthesize_3nf(universal, verbatim=ns.verbatim, limit=_limit(ns))
    return _finish_schema(ns, out, universal)


def _cmd_represents(ns) -> int:
    doc = _load_document(ns.schema)
    universal_doc = _load_document(ns.universal)
    rep, lines = _represents(doc.database_schema(), universal_doc.universal_scheme())
    if rep.counterexample is not None:
        lines.append(rep.counterexample.to_csv().rstrip("\n"))
    return _finish(ns, 0 if rep.ok else 1, lines, rep.to_dict())


def _cmd_hitting_set(ns) -> int:
    from .reductions import parse_instance, solve_hitting_set

    instance = parse_instance(_read_source(ns.instance))
    witness = solve_hitting_set(instance, limit=_limit(ns))
    found = witness is not None
    payload = {"found": found, "witness": list(witness.names) if found else None}
    return _finish(ns, 0 if found else 1, [str(witness) if found else "none"], payload)


def _cmd_reduce(ns) -> int:
    from .reductions import parse_instance, reduce_to_schema

    instance = parse_instance(_read_source(ns.instance))
    schema = reduce_to_schema(instance)
    return _finish(ns, 0, _schema_lines(schema), _schema_payload(schema))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except UsageError as exc:
        message = str(exc)
        args = sys.argv[1:] if argv is None else list(argv)
        if args[:1] == ["oracle"] and args[1:2] and args[1].startswith("-"):
            message = "oracle: options go after 'implies', as in: oracle implies FD --schema FILE"
        _fail(message)
        return 2
    if ns.command is None:
        _fail("a subcommand is required (see fdkit --help)")
        return 2
    if ns.command == "oracle" and getattr(ns, "oracle_command", None) is None:
        _fail("oracle: a sub-command is required (try: oracle implies)")
        return 2
    try:
        return ns.func(ns)
    except _ParseFailed:
        return 2
    except LimitExceededError as exc:
        _fail(str(exc))
        return 3
    except (UsageError, FDKitError, OSError, ValueError) as exc:
        _fail(str(exc))
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
