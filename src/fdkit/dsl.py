"""Parser and renderer for the schema description language.

The format is line based::

    # comment to end of line
    universe A, B, C          # optional explicit universe
    scheme S(A, B, C)         # a named relation scheme
    fd A, B -> C              # a dependency; lists split on commas/spaces
    fd A ->                   # empty right side is allowed (vacuous)

Identifiers match ``[A-Za-z_][A-Za-z0-9_]*``; ``->`` may be written as a
Unicode arrow.  The names ``__C`` and ``__D`` are reserved for generated
schemas and rejected here.  Attributes used in dependencies must be
declared by some scheme or the universe line; when the file declares
neither, the universe is inferred from the dependencies themselves.

Parsing never raises on bad input: it returns a :class:`ParseResult`
whose diagnostics carry positions and stable codes, with ``document``
set only when there were no errors.
"""

from __future__ import annotations

import re
from typing import Optional

from .fds import FD, Attribute, AttributeSet, DatabaseSchema, FDSet, RelationScheme, _Record
from .fds import _NAME, _SPLIT, _mentioned, _require_within, _split

__all__ = [
    "Diagnostic",
    "ParseResult",
    "SchemaDocument",
    "parse_schema",
    "parse_fd_text",
    "RESERVED_C",
    "RESERVED_D",
    "RESERVED_NAMES",
]

# the attributes that generated schemas add (see reductions.reduce_to_schema)
RESERVED_C = Attribute("__C")
RESERVED_D = Attribute("__D")
RESERVED_NAMES = frozenset({RESERVED_C.name, RESERVED_D.name})

_SCHEME_LINE = re.compile(r"scheme\s+([^(\s]+)\s*\((.*)\)\s*\Z")
_ARROW = re.compile(r"->|→")


class Diagnostic(_Record):
    """One parser message with a stable code and a source position."""

    severity: str  # "error" or "warning"
    line: int
    column: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.severity}[{self.code}] {self.message}"


class SchemaDocument(_Record):
    """A parsed schema file: named schemes, the universal dependency set,
    and the universe they live in.

    Each scheme's local dependencies are the declared ones whose
    attributes all fit inside it.  Source lines are kept for tooling but
    do not participate in equality.
    """

    schemes: tuple
    fds: FDSet
    universe: AttributeSet
    explicit_universe: bool = False
    scheme_lines: tuple = ()
    fd_lines: tuple = ()
    universe_line: Optional[int] = None
    _compared = 4

    def scheme_named(self, name: str) -> Optional[RelationScheme]:
        for scheme in self.schemes:
            if scheme.name == name:
                return scheme
        return None

    def universal_scheme(self) -> RelationScheme:
        return RelationScheme(self.universe, self.fds)

    def database_schema(self) -> DatabaseSchema:
        """The declared schemes, or the whole universe as a single scheme
        when the file declares none."""
        if self.schemes:
            return DatabaseSchema(self.schemes)
        return DatabaseSchema((self.universal_scheme(),))

    def render(self) -> str:
        lines = []
        if self.explicit_universe:
            lines.append("universe " + ", ".join(self.universe.names))
        for scheme in self.schemes:
            lines.append(f"scheme {scheme.name}({', '.join(scheme.attrs.names)})")
        lines.extend(map(_fd_line, self.fds))
        return "\n".join(lines) + "\n"


class ParseResult(_Record):
    document: Optional[SchemaDocument]
    diagnostics: tuple

    @property
    def ok(self) -> bool:
        return self.document is not None

    @property
    def errors(self) -> tuple:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self) -> tuple:
        return tuple(d for d in self.diagnostics if d.severity == "warning")


def _fd_line(fd: FD) -> str:
    """``fd`` written as an ``fd`` line of the schema language."""
    return f"fd {', '.join(fd.lhs.names)} -> {', '.join(fd.rhs.names)}".rstrip()


def _column(text: str, start: int, i: int) -> int:
    """The 1-based column of name ``i`` of the list ``text``, where
    ``text`` begins at offset ``start`` of its source line."""
    starts = [0] + [m.end() for m in _SPLIT.finditer(text.strip())]
    return start + len(text) - len(text.lstrip()) + 1 + starts[i]


class _Parser:
    """One document's parse.  ``lists`` maps each valid list text met so
    far to its attribute set, so a text repeated on many lines is split
    and resolved once; it lives as long as the parser, one document."""

    def __init__(self):
        self.diagnostics: list = []
        self.scheme_decls: list = []  # (name, AttributeSet, line)
        self.fd_decls: dict = {}  # FD -> the line it first appears on
        self.universe_decl: Optional[tuple] = None  # (AttributeSet, line)
        self.lists: dict = {}

    def error(self, line: int, column: int, code: str, message: str) -> None:
        self.diagnostics.append(Diagnostic("error", line, column, code, message))

    def warn(self, line: int, column: int, code: str, message: str) -> None:
        self.diagnostics.append(Diagnostic("warning", line, column, code, message))

    def attr_list(self, text: str, start: int, lineno: int) -> Optional[AttributeSet]:
        """The attributes of the list ``text``, which begins at offset
        ``start`` of line ``lineno``, or ``None`` once its first invalid
        or reserved name is reported."""
        out = self.lists.get(text)
        if out is not None:
            return out
        names = _split(text)
        try:
            out = AttributeSet(names)
        except ValueError:
            pass
        # ``out.isdisjoint``, not the reverse: an AttributeSet argument
        # would be iterated in sorted order
        if out is not None and out.isdisjoint(RESERVED_NAMES):
            self.lists[text] = out
            return out
        for i, name in enumerate(names):
            if not _NAME.match(name):
                self.error(lineno, _column(text, start, i), "E110", f"invalid identifier: {name!r}")
                return None
            if name in RESERVED_NAMES:
                self.error(
                    lineno, _column(text, start, i), "E111", f"reserved attribute name: {name}"
                )
                return None

    def parse_line(self, raw: str, lineno: int) -> None:
        line = raw.split("#", 1)[0].strip()
        if not line:
            return
        lead = len(raw) - len(raw.lstrip())  # offset of ``line`` in ``raw``
        head = line.split(None, 1)[0]
        if head == "scheme":
            self.parse_scheme(line, lead, lineno)
        elif head == "fd":
            self.parse_fd(line, lead, lineno)
        elif head == "universe":
            self.parse_universe(line, lead, lineno)
        else:
            self.error(
                lineno,
                lead + 1,
                "E101",
                f"unknown directive {head!r}; expected scheme, fd, or universe",
            )

    def parse_scheme(self, line: str, lead: int, lineno: int) -> None:
        match = _SCHEME_LINE.match(line)
        if not match:
            self.error(lineno, 1, "E100", "expected: scheme Name(attr, ...)")
            return
        name, attr_text = match.group(1), match.group(2)
        name_col = lead + match.start(1) + 1
        if not _NAME.match(name):
            self.error(lineno, name_col, "E110", f"invalid scheme name: {name!r}")
            return
        attrs = self.attr_list(attr_text, lead + match.start(2), lineno)
        if attrs is None:
            return
        if not attrs:
            self.error(lineno, 1, "E100", "a scheme needs at least one attribute")
            return
        if any(name == existing for existing, _, _ in self.scheme_decls):
            self.error(lineno, name_col, "E120", f"duplicate scheme name: {name}")
            return
        self.scheme_decls.append((name, attrs, lineno))

    def parse_fd(self, line: str, lead: int, lineno: int) -> None:
        arrow = _ARROW.search(line, 2)
        if not arrow:
            self.error(lineno, 1, "E100", "expected: fd attrs -> attrs")
            return
        lhs = self.attr_list(line[2 : arrow.start()], lead + 2, lineno)
        if lhs is None:
            return
        if not lhs:
            self.error(lineno, 1, "E100", "a dependency needs a non-empty left side")
            return
        rhs = self.attr_list(line[arrow.end() :], lead + arrow.end(), lineno)
        if rhs is None:
            return
        if not rhs:
            self.warn(lineno, 1, "W200", "vacuous dependency: empty right side")
        fd = FD(lhs, rhs)
        if self.fd_decls.setdefault(fd, lineno) != lineno:
            self.warn(lineno, 1, "W201", f"duplicate dependency dropped: {fd}")

    def parse_universe(self, line: str, lead: int, lineno: int) -> None:
        if self.universe_decl is not None:
            self.error(lineno, 1, "E121", "duplicate universe declaration")
            return
        attrs = self.attr_list(line[len("universe") :], lead + len("universe"), lineno)
        if attrs is None:
            return
        if not attrs:
            self.error(lineno, 1, "E100", "a universe declaration needs attributes")
            return
        self.universe_decl = (attrs, lineno)


def parse_schema(text: str) -> ParseResult:
    """Parse a schema document, collecting every diagnostic.

    The returned result carries a document only when no error was found;
    warnings never block.
    """
    parser = _Parser()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parser.parse_line(raw, lineno)

    declared = set()  # empty exactly when the file declares no attribute
    for _, attrs, _ in parser.scheme_decls:
        declared.update(attrs)
    if parser.universe_decl is not None:
        declared.update(parser.universe_decl[0])
    fds = parser.fd_decls
    if declared and not declared.issuperset(_mentioned(fds)):
        for fd, lineno in fds.items():
            for a in sorted(fd.lhs.union(fd.rhs).difference(declared)):
                parser.error(
                    lineno,
                    1,
                    "E130",
                    f"attribute {a} is not declared by any scheme or the universe",
                )
    diagnostics = tuple(sorted(parser.diagnostics, key=lambda d: (d.line, d.column)))
    if any(d.severity == "error" for d in diagnostics):
        return ParseResult(None, diagnostics)

    sigma = FDSet(fds, universe=declared or None)
    schemes = []
    for name, attrs, _ in parser.scheme_decls:
        local = [fd for fd in sigma if fd.lhs <= attrs and fd.rhs <= attrs]
        schemes.append(RelationScheme(attrs, FDSet(local, universe=attrs), name=name))
    document = SchemaDocument(
        schemes=tuple(schemes),
        fds=sigma,
        universe=sigma.universe,
        explicit_universe=parser.universe_decl is not None,
        scheme_lines=tuple(line for _, _, line in parser.scheme_decls),
        fd_lines=tuple(fds.values()),
        universe_line=parser.universe_decl[1] if parser.universe_decl else None,
    )
    return ParseResult(document, diagnostics)


def parse_fd_text(text: str, universe: Optional[AttributeSet] = None) -> FD:
    """Parse a single ``A, B -> C`` string, as accepted on the command line.

    This is the document parser's ``fd`` rule, run on ``"fd " + text``:
    ``text`` parses exactly when that ``fd`` line would, to the same
    dependency, and otherwise raises ``ValueError`` with the rule's first
    error message.  Only text without an arrow gets a message of its own.
    Attribute membership is checked against ``universe`` when one is
    given, and a stray attribute raises :class:`UnknownAttributeError`,
    itself a ``ValueError``.
    """
    if not _ARROW.search(text):
        raise ValueError(f"expected 'attrs -> attrs', got {text!r}")
    parser = _Parser()
    parser.parse_fd("fd " + text, 0, 1)
    if not parser.fd_decls:
        raise ValueError(parser.diagnostics[0].message)
    (fd,) = parser.fd_decls
    if universe is not None:
        _require_within(fd.attributes, AttributeSet(universe), "attributes outside the universe")
    return fd
