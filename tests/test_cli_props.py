"""Property tests of the CLI.

No mutated program or query makes the CLI raise. Programs and queries are
the fixtures and queries on them, with lexemes deleted, inserted and
substituted. Every subcommand must end with one of the documented exit
codes (0, 1 or 2), never with a traceback, and never through the
last-resort ``internal error`` handler, which would hide the crash. Faults
injected into each subcommand check that handler itself.

The command-line reader is a subset of argparse: every line it reads, it
reads as argparse does, and its table names every argument of the parser.
"""

from __future__ import annotations

import argparse
import io
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, example, given, settings, strategies as st

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


PARSER = argprof.cli.build_parser()


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


ARGV_WORDS = sorted(
    set(argprof.cli._COMMANDS)
    | {"-", str(FIXTURES / "append.lp"), str(FIXTURES / "double_append.lp"), "app", "concat", "dapp"}
    | {QUERIES[0], QUERIES[2]}
    | {s for sub in _subparsers(PARSER).values() for a in sub._actions for s in a.option_strings}
    | {"--js", "--out", "--output=o.lp", "-oo.lp", "--limit=5", "10"}
    | {"--", "-h", "--help", "-5", "-0", " 7", " -5", "many", ""}
)


_WORDS = st.sampled_from(ARGV_WORDS)
_POSITIONALS = st.sampled_from([w for w in ARGV_WORDS if w == "-" or w[:1] != "-"])


@st.composite
def near_lines(draw):
    """A command with its number of positional words (now and then one more
    or one fewer) and up to two of its options, each with a value of any
    kind (or none) where it takes one, or words of any kind, in any order:
    few lines of any words start with a command and hold its positionals."""
    command = draw(st.sampled_from(sorted(argprof.cli._COMMANDS)))
    _, positionals, options = argprof.cli._COMMANDS[command]
    count = len(positionals) + draw(st.sampled_from((0, 0, 0, -1, 1)))
    groups = [[word] for word in draw(st.lists(_POSITIONALS, min_size=count, max_size=count))]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        option = draw(st.sampled_from([*options, None]))
        if option is None:
            groups.append([draw(_WORDS)])
        else:
            takes_value = options[option][1] is not None
            groups.append([option, *draw(st.lists(_WORDS, max_size=int(takes_value)))])
    return [command, *(word for group in draw(st.permutations(groups)) for word in group)][:6]


@settings(max_examples=3000, deadline=None)
@given(st.one_of(st.lists(_WORDS, max_size=6), near_lines()))
# int() reads a negative number after a blank; an option may lack its value.
@example(["run", "-", QUERIES[0], "--limit", " -5"])
@example(["normalize", "-", "-o"])
def test_reader_reads_a_line_as_argparse_does(argv):
    read = argprof.cli._read_line(argv)
    event("read" if read is not None else "left to argparse")
    if read is not None:
        assert vars(read) == vars(PARSER.parse_args(argv))


def test_reader_table_names_every_argument_of_the_parser():
    subparsers = _subparsers(PARSER)
    assert set(subparsers) == set(argprof.cli._COMMANDS)
    for command, sub in subparsers.items():
        func, positionals, options = argprof.cli._COMMANDS[command]
        assert sub.get_default("func") is func
        actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        assert tuple(a.dest for a in actions if not a.option_strings) == positionals
        assert {s for a in actions for s in a.option_strings} == set(options)
        for action in actions:
            for option in action.option_strings:
                dest, read = options[option]
                assert dest == action.dest
                # A flag is False unless given, an option with a value None.
                assert action.default == (False if read is None else None)
                assert (read is None) == (action.nargs == 0)
