"""Property test: no mutated program or query makes the CLI raise.

Programs and queries are the fixtures and queries on them, with lexemes
deleted, inserted and substituted. Every subcommand must end with one of
the documented exit codes (0, 1 or 2), never with a traceback, and never
through the last-resort ``internal error`` handler, which would hide the
crash. Faults injected into each subcommand check that handler itself.
"""

from __future__ import annotations

import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import argprof.cli
import argprof.interp
from argprof.cli import main
from helpers import FIXTURES, fixture_names

SOURCES = [(FIXTURES / name).read_text() for name in fixture_names()]
QUERIES = [
    "?- app(cons(1,nil), cons(2,nil), Z).",
    "?- concat(A, cons(1,nil), cons(2,nil)).",
    "?- dapp(cons(1,nil), nil, cons(2,nil), Z).",
    "?- last(cons(a,cons(b,nil)), X).",
    "?- swap_all(cons(pair(1,2),nil), R), same(R, R).",
    "?- add(s(z), s(s(z)), N).",
    "?- pick(cons(a,cons(b,nil)), X).",
    "?- rev(cons(1,cons(2,nil)), R).",
    "?- split(pair(1,2), A, B).",
    "?- X := cons(1,nil), X => cons(H,T), Y <= pair(H,T), X == X.",
]

# Comments, blank runs, words, operators, then any single character.
_LEXEME = re.compile(r"%[^\n]*|\s+|[A-Za-z0-9_]+|:-|\?-|:=|=>|<=|==|.")


def _lexemes(text: str) -> list[str]:
    return _LEXEME.findall(text)


VOCABULARY = sorted(
    {lex for text in SOURCES + QUERIES for lex in _lexemes(text)}
    | {"", "@", "%", "-", "?", ":", "=", "é", "\n", "99999999999999999999", "-x", "--limit"}
)


@st.composite
def mutated(draw, texts):
    lexemes = _lexemes(draw(st.sampled_from(texts)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(lexemes)))
        edit = draw(st.sampled_from(("delete", "insert", "substitute")))
        if edit == "insert" or i == len(lexemes):
            lexemes.insert(i, draw(st.sampled_from(VOCABULARY)))
        elif edit == "delete":
            del lexemes[i]
        else:
            lexemes[i] = draw(st.sampled_from(VOCABULARY))
    return "".join(lexemes)


def _run(argv: list[str], stdin_text: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI call."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=1000, deadline=None)
@given(mutated(SOURCES), mutated(QUERIES), st.data())
def test_mutated_inputs_never_raise(source, query, data):
    # compare mostly names declared predicates.
    names = st.sampled_from(re.findall(r"pred\s+([a-z]\w*)", source) + ["p"])
    for argv in (
        ["analyze", "-"],
        ["analyze", "--json", "-"],
        ["normalize", "-"],
        ["compare", "-", data.draw(names), data.draw(names)],
        ["run", "-", query, "--limit", "10000"],
    ):
        code, _, err = _run(argv, source)
        assert code in (0, 1, 2), argv
        assert "internal error" not in err, (argv, err)


APPEND = (FIXTURES / "append.lp").read_text()


@pytest.mark.parametrize("exc", [MemoryError(), KeyError("boom")])
@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["analyze", "-"], argprof.cli, "run_analysis"),
        (["normalize", "-"], argprof.cli, "plan"),
        (["compare", "-", "app", "app"], argprof.cli, "compare"),
        (["run", "-", "?- app(nil, nil, Z)."], argprof.interp, "solve"),
    ],
)
def test_unexpected_exception_is_one_internal_error_line(argv, module, name, exc, monkeypatch):
    def fault(*args, **kwargs):
        raise exc

    monkeypatch.setattr(module, name, fault)
    code, out, err = _run(argv, APPEND)
    assert code == 1
    assert out == ""
    assert err == f"argprof: internal error: {type(exc).__name__}: {exc}\n"
