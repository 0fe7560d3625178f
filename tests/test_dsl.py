"""Schema language parsing, diagnostics, and rendering."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fdkit
from fdkit import AttributeSet, UnknownAttributeError, parse_fd_text, parse_schema

from util import fd, fdset


def codes(result):
    return [d.code for d in result.diagnostics]


# What ``str.splitlines`` breaks a document at, and the comment mark: the
# characters that keep ``"fd " + text`` from being one ``fd`` line.
NOT_ONE_LINE = "#\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
FD_TOKENS = ["A", "B", "_x", "__C", "__D", "9B", "A-B", "é", "", ",", " ", "\t", "->", "→", "-", ">"]
fd_texts = st.lists(st.sampled_from(FD_TOKENS), max_size=10).map("".join) | st.text(
    st.characters(exclude_characters=NOT_ONE_LINE), max_size=30
)


class TestParsing:
    def test_minimal_document(self):
        result = parse_schema("scheme S(A,B,C)\nfd A -> B")
        assert result.ok and not result.diagnostics
        doc = result.document
        assert len(doc.schemes) == 1
        assert doc.schemes[0].name == "S"
        assert doc.schemes[0].attrs == AttributeSet("A B C")
        assert doc.fds == fdset("A -> B", universe="A B C")

    def test_wide_right_side(self):
        result = parse_schema("scheme R(A,B,C,D,E)\nfd E -> C D")
        assert result.ok
        assert result.document.fds == fdset("E -> C D", universe="A B C D E")

    def test_vacuous_dependency_warns_but_parses(self):
        result = parse_schema("fd A ->")
        assert result.ok
        assert codes(result) == ["W200"]
        assert list(result.document.fds) == [fd("A ->")]

    def test_comments_and_blank_lines(self):
        result = parse_schema("# a comment\n\nscheme S(A)  # trailing\n")
        assert result.ok and len(result.document.schemes) == 1

    def test_unicode_arrow_accepted(self):
        result = parse_schema("fd A → B")
        assert result.ok
        assert result.document.fds == fdset("A -> B")

    def test_whitespace_or_comma_separated_lists(self):
        one = parse_schema("scheme S(A, B, C)\nfd A B -> C").document
        two = parse_schema("scheme S(A B C)\nfd A, B -> C").document
        assert one == two

    def test_universe_declaration_extends_known_attributes(self):
        result = parse_schema("universe A, B, Z\nscheme S(A,B)\nfd A -> Z")
        assert result.ok
        assert result.document.universe == AttributeSet("A B Z")
        assert result.document.explicit_universe

    def test_universe_is_the_declared_attributes_without_a_universe_line(self):
        result = parse_schema("scheme S(A, B, D)\nscheme T(B, C)\nfd A -> B\n")
        assert result.ok
        doc = result.document
        assert doc.universe == AttributeSet("A B C D")
        assert doc.fds.universe == doc.universe
        assert not doc.explicit_universe
        assert doc.render() == "scheme S(A, B, D)\nscheme T(B, C)\nfd A -> B\n"

    def test_universe_inferred_when_nothing_is_declared(self):
        result = parse_schema("fd A -> B\nfd B -> C")
        assert result.ok
        doc = result.document
        assert doc.universe == AttributeSet("A B C")
        assert not doc.explicit_universe
        assert not doc.schemes

    def test_local_dependencies_assigned_by_membership(self):
        doc = parse_schema(
            "scheme S(A,B)\nscheme T(B,C)\nfd A -> B\nfd B -> C\n"
        ).document
        assert list(doc.schemes[0].fds) == [fd("A -> B")]
        assert list(doc.schemes[1].fds) == [fd("B -> C")]

    def test_positions_recorded(self):
        doc = parse_schema("# nothing\nscheme S(A)\nfd A -> A\n").document
        assert doc.scheme_lines == (2,)
        assert doc.fd_lines == (3,)


class TestDiagnostics:
    @pytest.mark.parametrize(
        "text,code",
        [
            ("scheme S(A", "E100"),
            ("scheme S()", "E100"),
            ("fd A B C", "E100"),
            ("fd -> B", "E100"),
            ("universe", "E100"),
            ("closure of A", "E101"),
            ("scheme S(A-B)", "E110"),
            ("scheme S(__C)", "E111"),
            ("fd __D -> A", "E111"),
            ("scheme S(A)\nscheme S(B)", "E120"),
            ("universe A\nuniverse B", "E121"),
            ("scheme S(A,B)\nfd A -> Z", "E130"),
        ],
    )
    def test_error_codes(self, text, code):
        result = parse_schema(text)
        assert not result.ok
        assert code in codes(result)

    def test_duplicate_dependency_warns(self):
        result = parse_schema("fd A -> B\nfd A -> B")
        assert result.ok
        assert codes(result) == ["W201"]
        assert len(result.document.fds) == 1

    def test_errors_carry_positions(self):
        for text, where in [
            ("fd A -> B\nbogus line", "2:1: error[E101]"),
            ("fd __C1, __C -> A", "1:10: error[E111]"),
            ("  fd A, __C -> B", "1:9: error[E111]"),
            ("fd A -> B, 9B", "1:12: error[E110]"),
            ("scheme S(A)\nscheme S(B)", "2:8: error[E120]"),
        ]:
            (diag,) = parse_schema(text).errors
            assert diag.severity == "error"
            assert str(diag).startswith(where), text

    def test_undeclared_attributes_reported_in_name_order(self):
        result = parse_schema("scheme S(A, B)\nfd Z, A -> Y\n")
        assert [str(d) for d in result.diagnostics] == [
            "2:1: error[E130] attribute Y is not declared by any scheme or the universe",
            "2:1: error[E130] attribute Z is not declared by any scheme or the universe",
        ]

    def test_a_repeated_list_is_placed_on_each_of_its_lines(self):
        result = parse_schema("fd A, 9B -> C\n  fd A, 9B -> C\nfd C -> A, 9B\nscheme S(__C)\nuniverse __C\n")
        assert [str(d) for d in result.diagnostics] == [
            "1:7: error[E110] invalid identifier: '9B'",
            "2:9: error[E110] invalid identifier: '9B'",
            "3:12: error[E110] invalid identifier: '9B'",
            "4:10: error[E111] reserved attribute name: __C",
            "5:10: error[E111] reserved attribute name: __C",
        ]

    def test_a_valid_list_seen_before_hides_no_bad_line(self):
        # "A, B" resolves first; later lists that extend it still fail
        result = parse_schema("fd A, B -> C\nfd A, B, 9B -> C\nfd A, B -> __D\nfd A, B -> C, \nfd A, B -> C\n")
        assert [str(d) for d in result.diagnostics] == [
            "2:10: error[E110] invalid identifier: '9B'",
            "3:12: error[E111] reserved attribute name: __D",
            "4:14: error[E110] invalid identifier: ''",
            "5:1: warning[W201] duplicate dependency dropped: A B -> C",
        ]

    def test_diagnostics_sorted_by_position(self):
        result = parse_schema("scheme S(A)\nfd A -> Z\nnonsense")
        assert [d.line for d in result.diagnostics] == sorted(
            d.line for d in result.diagnostics
        )

    @given(st.text(max_size=200))
    def test_parser_never_raises(self, text):
        result = parse_schema(text)
        assert result.document is not None or result.errors


# Parses a document whose names no interpreter has built yet, then again
# once they are interned, and prints both answers.
FRESH_PARSE = """
import sys
from fdkit import parse_schema
text = sys.stdin.read()
print(repr(parse_schema(text)))
print(repr(parse_schema(text)))
"""


def test_new_names_parse_as_interned_ones():
    src = str(Path(fdkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    text = "universe Fresh1, Fresh2, Fresh3\nscheme S(Fresh1, Fresh2)\nfd Fresh1 -> Fresh2\nfd Fresh1 -> Fresh2\n"
    # the second document has an undeclared attribute, so no document
    for doc in (text, text + "fd Fresh2, Fresh3 -> Fresh1 Fresh9\n"):
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_PARSE], input=doc, capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [repr(parse_schema(doc))] * 2


class TestRendering:
    @pytest.mark.parametrize(
        "text",
        [
            "scheme S(A,B,C)\nfd A -> B",
            "universe A, B, C\nfd A -> B, C",
            "fd A ->",
            "scheme S(A,B)\nscheme T(B,C)\nfd A -> B\nfd B -> C",
        ],
    )
    def test_parse_render_parse_identity(self, text):
        first = parse_schema(text).document
        second = parse_schema(first.render()).document
        assert second == first
        assert [s.name for s in second.schemes] == [s.name for s in first.schemes]

    def test_render_is_stable(self):
        doc = parse_schema("scheme S(C, A)\nfd C->A").document
        assert doc.render() == parse_schema(doc.render()).document.render()


class TestParseFdText:
    def test_accepts_the_cli_forms(self):
        assert parse_fd_text("A -> C") == fd("A -> C")
        assert parse_fd_text("A,B -> C D") == fd("A B -> C D")
        assert parse_fd_text("A → B") == fd("A -> B")
        assert parse_fd_text("A ->") == fd("A ->")

    @pytest.mark.parametrize("text", ["A B", "-> B", "A -> 1B", "__C -> A", "A -> B # note"])
    def test_rejects_malformed_input(self, text):
        with pytest.raises(ValueError):
            parse_fd_text(text)

    @given(fd_texts)
    def test_is_the_fd_line_rule(self, text):
        result = parse_schema("fd " + text)
        try:
            got = parse_fd_text(text)
        except ValueError as exc:
            assert result.errors
            if "->" in text or "→" in text:
                assert str(exc) == result.errors[0].message
            else:
                assert str(exc) == f"expected 'attrs -> attrs', got {text!r}"
        else:
            assert not result.errors
            assert list(result.document.fds) == [got]

    def test_universe_membership_check(self):
        with pytest.raises(ValueError):
            parse_fd_text("A -> Z", universe=AttributeSet("A B"))
        with pytest.raises(UnknownAttributeError) as caught:
            parse_fd_text("Z, A -> Y", universe=AttributeSet("A B"))
        assert str(caught.value) == "attributes outside the universe: Y Z"
