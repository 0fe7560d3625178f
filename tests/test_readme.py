"""The README's examples run and give what they state: the Python blocks
their comments, the shell session the output shown under each command."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from fdkit.cli import main

README = Path(__file__).parent.parent / "README.md"


def _blocks(lang="python"):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def _claims(block):
    """The ``(expression, comment)`` pairs of the block's one-line
    expression statements that end in a comment."""
    lines = block.splitlines()
    claims = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr) and node.lineno == node.end_lineno:
            line = lines[node.lineno - 1]
            comment = line[node.end_col_offset :].strip()
            if comment.startswith("# "):
                claims.append((ast.get_source_segment(block, node), comment[2:]))
    return claims


@pytest.fixture(scope="module")
def tour():
    """Each block run in turn in one namespace: its source, what it
    printed, and its claims with the values their expressions gave."""
    namespace: dict = {}
    runs = []
    for block in _blocks():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        claims = [(expr, comment, eval(expr, namespace)) for expr, comment in _claims(block)]
        runs.append((block, out.getvalue(), claims))
    return runs


def test_blocks_print_the_lines_their_comments_show(tour):
    for block, printed, _ in tour:
        shown = [line[2:].rstrip() for line in block.splitlines() if line.startswith("# ")]
        assert [line.rstrip() for line in printed.splitlines()] == shown


def test_expressions_give_the_values_their_comments_state(tour):
    for _, _, claims in tour:
        for expr, comment, value in claims:
            # a comment may name the value's type and may go on after a comma
            stated = comment.removeprefix(f"{type(value).__name__} ").partition(", ")[0]
            assert stated == str(value), expr


def test_the_documented_examples_are_checked(tour):
    printed = "".join(out for _, out, _ in tour)
    assert [line.rstrip() for line in printed.splitlines()] == ["C D E | E -> C D", "A B E |"]
    values = {expr: value for _, _, claims in tour for expr, _, value in claims}
    assert str(values["minimum_cover(sigma)"]) == "A -> A B C; B -> B C"
    assert values['is_lossless_on(rel, ["A B", "B C"])'] is True
    assert values['oracle_implies(sigma, FD("C", "A"))'] is False


def _session():
    """The shell session's commands, each with its exit-status claim
    (``# exits N``, else 0) and the lines shown under it."""
    (block,) = [b for b in _blocks("sh") if b.startswith("$ ")]
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            command, _, comment = line[2:].partition(" # ")
            status = re.search(r"exits (\d+)", comment)
            steps.append((shlex.split(command), int(status[1]) if status else 0, []))
        else:
            steps[-1][2].append(line)
    return steps


def test_the_cli_session_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = []
    for args, status, shown in _session():
        if args[0] == "printf":
            fmt, redirect, name = args[1:]
            assert redirect == ">" and not shown
            (tmp_path / name).write_text(fmt.replace("\\n", "\n"))
            continue
        assert args[0] == "fdkit"
        code = main(args[1:])
        out, _ = capsys.readouterr()
        assert (code, out.splitlines()) == (status, shown), args
        ran.append(args[1])
    assert ran == ["closure", "implies", "check", "synthesize"]
