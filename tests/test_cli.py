"""Command-line interface tests: subcommands, exit codes, output formats."""

from __future__ import annotations

import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest

import argprof.analysis
import argprof.cli
import argprof.domain
import argprof.interp
import argprof.ordering
from argprof import parse_program, run_analysis
from argprof.cli import main
from helpers import (
    FIXTURES,
    chain_source,
    compare_parts,
    count_calls,
    fixture_names,
    gen_mutual_source,
    gen_program_source,
    mutated_sources,
    rotating_recursion_source,
)

SRC = Path(__file__).resolve().parent.parent / "src"

REPORT_SCHEMA = {
    "type": "object",
    "required": ["predicates"],
    "additionalProperties": False,
    "properties": {
        "predicates": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "arity", "modes", "profile", "ordered", "permutation", "rounds"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "arity": {"type": "integer", "minimum": 0},
                    "modes": {"type": "array", "items": {"enum": ["in", "out"]}},
                    "profile": {"$ref": "#/$defs/profile"},
                    "ordered": {"$ref": "#/$defs/profile"},
                    "permutation": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                    "rounds": {
                        "type": "object",
                        "required": ["changing", "total"],
                        "additionalProperties": False,
                        "properties": {
                            "changing": {"type": "integer", "minimum": 0},
                            "total": {"type": "integer", "minimum": 0},
                        },
                    },
                },
            },
        }
    },
    "$defs": {
        "profile": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["arg", "osets"],
                "additionalProperties": False,
                "properties": {
                    "arg": {"type": "integer", "minimum": 1},
                    "osets": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ops", "target"],
                            "additionalProperties": False,
                            "properties": {
                                "ops": {"type": "array", "items": {"type": "string"}},
                                "target": {"type": "integer", "minimum": 1},
                            },
                        },
                    },
                },
            },
        }
    },
}


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def test_analyze_text_report(capsys):
    assert main(["analyze", fixture("double_append.lp")]) == 0
    out = capsys.readouterr().out
    assert "pred app/3" in out
    assert "psi_bot" in out
    assert "permutation: (2,3,1)" in out


def test_analyze_json_schema_and_content(capsys):
    assert main(["analyze", "--json", fixture("double_append.lp")]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, REPORT_SCHEMA)
    by_name = {p["name"]: p for p in report["predicates"]}
    app = by_name["app"]
    assert app["modes"] == ["in", "in", "out"]
    assert app["permutation"] == [1, 2, 3]
    assert app["profile"][0]["osets"] == [
        {"ops": ["construct:cons/2", "deconstruct:cons/2", "psi_bot"], "target": 3}
    ]
    assert by_name["concat"]["permutation"] == [2, 3, 1]
    assert by_name["concat"]["ordered"] == app["ordered"]
    assert app["rounds"] == {"changing": 1, "total": 2}


def test_analyze_trace_lines(capsys):
    assert main(["analyze", "--trace", fixture("append.lp")]) == 0
    out = capsys.readouterr().out
    assert "round=1 pred=app interactions=2 changed=true" in out
    assert "round=2 pred=app interactions=2 changed=false" in out
    assert "X ~> Z" in out


@pytest.mark.parametrize("name", fixture_names())
def test_analyze_trace_output_is_pinned(name, capsys):
    # The whole --trace report, byte for byte, as recorded in fixtures/trace.
    assert main(["analyze", "--trace", fixture(name)]) == 0
    expected = (FIXTURES / "trace" / name.replace(".lp", ".out")).read_text()
    assert capsys.readouterr().out == expected


def test_analyze_trace_on_rotating_recursion_is_pinned(tmp_path, capsys):
    # Five rounds of a recursive predicate whose later rounds only grow
    # its pairs, byte for byte as recorded before those rounds became
    # semi-naive.
    program = tmp_path / "rotating.lp"
    program.write_text(rotating_recursion_source(4, 20))
    assert main(["analyze", "--trace", str(program)]) == 0
    assert capsys.readouterr().out == (FIXTURES / "trace" / "rotating_4_20.out").read_text()


@pytest.mark.parametrize("name", fixture_names())
def test_analyze_json_trace_writes_the_trace_to_stderr(name, capsys):
    # stdout is the JSON document alone; stderr is the trace part of the
    # pinned --trace report, which ends where the text report begins.
    assert main(["analyze", "--json", fixture(name)]) == 0
    report = capsys.readouterr().out
    assert main(["analyze", "--json", "--trace", fixture(name)]) == 0
    captured = capsys.readouterr()
    assert captured.out == report
    json.loads(captured.out)
    pinned = (FIXTURES / "trace" / name.replace(".lp", ".out")).read_text()
    assert captured.err == pinned[: pinned.index("\npred ") + 1]
    assert captured.err.startswith("round=1 ")


def test_analyze_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.lp"
    empty.write_text("% nothing here\n")
    assert main(["analyze", "--json", str(empty)]) == 0
    assert json.loads(capsys.readouterr().out) == {"predicates": []}


def test_analyze_mutual_recursion_pins_even_odd_profiles(tmp_path, capsys):
    # even and odd call each other: each call is psi_bot, and each one's
    # flow holds the points of both.
    prog = tmp_path / "even_odd.lp"
    prog.write_text(
        ":- pred even(in,out).\neven(X,Y) :- X => z, Y <= true.\neven(X,Y) :- X => s(X1), odd(X1,Y).\n"
        ":- pred odd(in,out).\nodd(X,Y) :- X => s(X1), even(X1,Y).\n"
    )
    assert main(["analyze", str(prog)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    flow = "    arg 1: {deconstruct:s/1, deconstruct:s/1, psi_bot, psi_bot} -> 2\n    arg 2: (empty)\n"
    assert captured.out == "".join(
        f"pred {name}/2 modes=(in,out) rounds={rounds}\n  profile:\n{flow}  ordered:\n{flow}  permutation: (1,2)\n"
        for name, rounds in [("even", "2+1"), ("odd", "1+1")]
    )
    assert main(["run", str(prog), "?- odd(s(s(s(z))), Y)."]) == 0
    assert capsys.readouterr().out == "Y = true\n"


def test_mutual_recursion_groups_in_callee_first_order(tmp_path, capsys):
    # a and b call each other, and so do c and d; a calls c, so the
    # component {c, d} is analyzed before {a, b}.
    prog = tmp_path / "groups.lp"
    prog.write_text(
        ":- pred a(in).\na(X) :- b(X), c(X).\n:- pred b(in).\nb(X) :- a(X).\n"
        ":- pred c(in).\nc(X) :- d(X).\n:- pred d(in).\nd(X) :- c(X).\n"
    )
    assert main(["analyze", "--trace", str(prog)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[:4] == [
        f"round={k} pred={name} interactions=0 changed=false" for k, name in enumerate("cdab", 1)
    ]


def test_analyze_mode_violation_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.lp"
    bad.write_text(":- pred p(in,out).\np(X,Y) :- Y := Z.\n")
    assert main(["analyze", str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"{bad}:2:11: error: Z unbound at point 1" in err


def test_analyze_parse_error_has_position(tmp_path, capsys):
    bad = tmp_path / "syntax.lp"
    bad.write_text(":- pred p(in).\np(X) :- X => f(g(Y)).\n")
    assert main(["analyze", str(bad)]) == 1
    assert f"{bad}:2:16: error:" in capsys.readouterr().err


def test_analyze_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(":- pred p(out).\np(X) :- X <= nil.\n"))
    assert main(["analyze", "-"]) == 0
    assert "pred p/1" in capsys.readouterr().out


def test_normalize_to_stdout(capsys):
    assert main(["normalize", fixture("double_append.lp")]) == 0
    captured = capsys.readouterr()
    assert "concat(B,C,A) :- B => nil, A := C." in captured.out
    assert "concat/3: 2,3,1" in captured.err
    assert "app/3: 1,2,3" in captured.err


def test_normalize_to_file(tmp_path, capsys):
    out_file = tmp_path / "normalized.lp"
    assert main(["normalize", fixture("double_append.lp"), "-o", str(out_file)]) == 0
    assert "concat(B,C,A)" in out_file.read_text()
    assert "concat/3: 2,3,1" in capsys.readouterr().out


def test_normalize_of_no_predicates_prints_no_plan(tmp_path, capsys):
    empty = tmp_path / "empty.lp"
    empty.write_text("% nothing here\n")
    assert main(["normalize", str(empty)]) == 0
    assert capsys.readouterr() == ("", "")
    out_file = tmp_path / "normalized.lp"
    assert main(["normalize", str(empty), "-o", str(out_file)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out_file.read_text() == ""


def test_normalize_idempotent_bytes(tmp_path, capsys):
    first = tmp_path / "first.lp"
    second = tmp_path / "second.lp"
    assert main(["normalize", fixture("double_append.lp"), "-o", str(first)]) == 0
    assert main(["normalize", str(first), "-o", str(second)]) == 0
    assert first.read_text() == second.read_text()


def test_compare_equivalent(capsys):
    assert main(["compare", fixture("double_append.lp"), "app", "concat"]) == 0
    out = capsys.readouterr().out
    assert "equivalent: app <-> concat" in out
    assert "  1 <-> 2" in out
    assert "  2 <-> 3" in out
    assert "  3 <-> 1" in out


def test_compare_identity(capsys):
    assert main(["compare", fixture("append.lp"), "app", "app"]) == 0
    out = capsys.readouterr().out
    assert "equivalent: app <-> app" in out
    assert "  1 <-> 1" in out


def test_compare_distinct_exit_zero(capsys):
    assert main(["compare", fixture("double_append.lp"), "app", "dapp"]) == 0
    assert "distinct: app vs dapp: arity mismatch (3 vs 4)" in capsys.readouterr().out


@pytest.mark.xfail(
    strict=True,
    reason="the order keeps tied output arguments in source order, so q, which is p "
    "with its outputs swapped, gets another ordered profile (ROADMAP item 1)",
)
def test_compare_predicates_differing_only_in_argument_order(tmp_path, capsys):
    source = tmp_path / "swapped.lp"
    source.write_text(
        ":- pred p(in,out,out).\n"
        "p(X,Y,Z) :- Y := X, Z <= f(X).\n"
        ":- pred q(in,out,out).\n"
        "q(X,Z,Y) :- Y := X, Z <= f(X).\n"
    )
    assert main(["compare", str(source), "p", "q"]) == 0
    assert capsys.readouterr().out == "equivalent: p <-> q\n  1 <-> 1\n  2 <-> 3\n  3 <-> 2\n"


def test_compare_unknown_predicate(capsys):
    assert main(["compare", fixture("append.lp"), "app", "nosuch"]) == 1
    assert "unknown predicate 'nosuch'" in capsys.readouterr().err


def test_run_append(capsys):
    assert main(["run", fixture("append.lp"), "?- app(cons(1,nil),cons(2,nil),Z)."]) == 0
    assert capsys.readouterr().out.strip() == "Z = cons(1, cons(2, nil))"


def test_run_multiple_answers(capsys):
    assert main(["run", fixture("pick.lp"), "?- pick(cons(a,cons(b,nil)),X)."]) == 0
    assert capsys.readouterr().out == "X = a\n\nX = b\n"


def test_run_no_answers(capsys):
    assert main(["run", fixture("append.lp"), "?- app(pair(1,2),nil,Z)."]) == 0
    assert capsys.readouterr().out == ""


def test_run_step_limit_zero(capsys):
    assert main(["run", fixture("append.lp"), "?- app(nil,nil,Z).", "--limit", "0"]) == 1
    assert "step limit exceeded" in capsys.readouterr().err


def test_run_default_step_limit_is_the_interpreter_constant(monkeypatch, capsys):
    # With no --limit, run reads the interpreter's default when it runs: the
    # query needs more than 10 steps.
    monkeypatch.setattr(argprof.interp, "DEFAULT_STEP_LIMIT", 10)
    assert main(["run", fixture("append.lp"), "?- app(cons(1,cons(2,nil)),nil,Z)."]) == 1
    assert capsys.readouterr().err == "step limit exceeded\n"


@pytest.mark.parametrize("limit, shown", [(["--limit", "-1"], "-1"), (["--limit=-7"], "-7")])
def test_run_negative_step_limit_is_a_usage_error(limit, shown):
    code, out, err = _call(["run", fixture("append.lp"), "?- app(nil,nil,Z).", *limit])
    assert (code, out) == (2, "")
    assert err.endswith(f"argprof run: error: argument --limit: must not be negative: {shown}\n")


def test_run_normalized_program_with_permuted_query(tmp_path, capsys):
    normalized = tmp_path / "norm.lp"
    assert main(["normalize", fixture("concat.lp"), "-o", str(normalized)]) == 0
    capsys.readouterr()
    assert main(["run", fixture("concat.lp"), "?- concat(A,cons(1,nil),cons(2,nil))."]) == 0
    original = capsys.readouterr().out
    assert main(["run", str(normalized), "?- concat(cons(1,nil),cons(2,nil),A)."]) == 0
    assert capsys.readouterr().out == original


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["analyze", "--json", "double_append.lp"], False),
        (["normalize", "double_append.lp"], False),
        (["compare", "double_append.lp", "app", "concat"], False),
        (["run", "append.lp", "?- app(nil,nil,Z)."], True),
    ],
)
def test_only_run_imports_the_interpreter(argv, loaded):
    argv = [fixture(a) if a.endswith(".lp") else a for a in argv]
    code = (
        "import sys\n"
        "from argprof.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('argprof.interp' in sys.modules, file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    # normalize writes its plan to stderr first: the flag is the last line.
    assert (result.returncode, result.stderr.splitlines()[-1]) == (0, str(loaded))


def test_import_loads_neither_dataclasses_nor_inspect():
    # Start-up cost: the value classes are plain slotted classes, so
    # importing the command line generates no code and needs neither module.
    code = "import sys, argprof, argprof.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_missing_file_exit_1(capsys):
    assert main(["analyze", "/nonexistent/file.lp"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("/nonexistent/file.lp: error: [Errno 2] No such file or directory")
    # A directory is named too.
    assert main(["analyze", str(FIXTURES)]) == 1
    assert capsys.readouterr().err.startswith(f"{FIXTURES}: error: [Errno 21] Is a directory")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_run_answer_without_outputs_prints_true(capsys):
    assert main(["run", fixture("mixed.lp"), "?- same(1, 1)."]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["run", fixture("mixed.lp"), "?- same(1, 2)."]) == 0
    assert capsys.readouterr().out == ""


def test_run_deep_query_answers(capsys):
    deep = "nil"
    for i in range(1000):
        deep = f"cons({i},{deep})"
    assert main(["run", fixture("append.lp"), f"?- app({deep},nil,Z)."]) == 0
    captured = capsys.readouterr()
    expected = "".join(f"cons({i}, " for i in reversed(range(1000))) + "nil" + ")" * 1000
    assert captured.out == f"Z = {expected}\n"
    assert captured.err == ""


def test_run_recursion_error_is_a_diagnostic(monkeypatch, capsys):
    # The last-resort handler in main, for input that some step still
    # cannot take.
    def deep_solve(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(argprof.interp, "solve", deep_solve)
    assert main(["run", fixture("append.lp"), "?- app(nil,nil,Z)."]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input nested too deeply: Python recursion limit reached\n"


def test_run_reads_query_from_stdin(capsys, monkeypatch):
    # A 20 000-element list does not fit in one command-line argument
    # (Linux allows 128 KiB), so the query comes through stdin.
    deep = "nil"
    for i in range(20_000):
        deep = f"cons({i},{deep})"
    monkeypatch.setattr("sys.stdin", io.StringIO(f"?- app({deep},nil,Z).\n"))
    assert main(["run", fixture("append.lp"), "-"]) == 0
    captured = capsys.readouterr()
    expected = "".join(f"cons({i}, " for i in reversed(range(20_000))) + "nil" + ")" * 20_000
    assert captured.out == f"Z = {expected}\n"
    assert captured.err == ""


def test_run_query_errors_from_stdin_name_the_query(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("?- app(nil,nil,Z)"))
    assert main(["run", fixture("append.lp"), "-"]) == 1
    assert capsys.readouterr().err == "<query>:1:18: error: expected '.', found 'end of input'\n"


@pytest.mark.parametrize(
    "query, error",
    [
        ("?- app(X, nil, Z).", "<query>:1:4: error: non-ground input at goal atom 1"),
        ("?- app(nil, nil, Z),\n   nosuch(Z).", "<query>:2:4: error: unknown predicate 'nosuch' in query"),
        ("?- Z := nil, app(nil, nil).", "<query>:1:14: error: 'app' called with 2 arguments but declared with arity 3"),
    ],
)
def test_run_query_faults_name_the_query_atom(query, error, capsys):
    assert main(["run", fixture("append.lp"), query]) == 1
    assert capsys.readouterr().err == error + "\n"


def test_run_program_and_query_both_from_stdin_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "-", "-"])
    assert exc.value.code == 2
    assert "cannot both be read from stdin" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Input that is not UTF-8
# ---------------------------------------------------------------------------

# A byte 0xff at line 2, column 15.
NOT_UTF8 = b":- pred p(in).\np(X) :- X => n\xff.\n"


def test_non_utf8_file_is_a_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.lp"
    path.write_bytes(NOT_UTF8)
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{path}:2:15: error: invalid UTF-8 byte 0xff\n"


def test_non_utf8_stdin_is_a_diagnostic(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["analyze", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "<stdin>:2:15: error: invalid UTF-8 byte 0xff\n"


def test_non_utf8_on_a_strict_stdin_is_a_diagnostic(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(["analyze", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "<stdin>:2:15: error: invalid UTF-8 byte 0xff\n"


# ---------------------------------------------------------------------------
# A UTF-8 byte-order mark
# ---------------------------------------------------------------------------

BOM = "\ufeff"
P_SOURCE = ":- pred p(out).\np(X) :- X <= nil.\n"


def test_byte_order_mark_in_a_file_is_dropped_once(tmp_path, capsys):
    path = tmp_path / "bom.lp"
    path.write_text(BOM + P_SOURCE, encoding="utf-8")
    assert main(["analyze", str(path)]) == 0
    assert capsys.readouterr().out.startswith("pred p/1 ")
    path.write_text(BOM + BOM + P_SOURCE, encoding="utf-8")
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == f"{path}:1:1: error: unexpected character '\\ufeff'\n"


@pytest.mark.parametrize(
    ("argv", "stdin", "out"),
    [
        (["analyze", "-"], io.TextIOWrapper(io.BytesIO((BOM + P_SOURCE).encode()), encoding="utf-8"),
         "pred p/1 "),
        (["run", fixture("append.lp"), "-"], io.StringIO(BOM + "?- app(nil,nil,Z)."), "Z = nil\n"),
    ],
)
def test_byte_order_mark_on_stdin_is_dropped(argv, stdin, out, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", stdin)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(out)
    assert captured.err == ""


# ---------------------------------------------------------------------------
# The argument parser, built once and shared by every main call
# ---------------------------------------------------------------------------


def _call(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI call, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_gives_the_same_results_in_either_order(tmp_path):
    program = fixture("double_append.lp")
    written = tmp_path / "normalized.lp"
    calls = [
        ["analyze"],
        ["analyze", "--json", program],
        ["analyze", program],
        ["normalize", "-o", str(written), program],
        ["normalize", program],
        ["run", "-", "-"],
        ["--help"],
    ]

    def run_all(order):
        results = {}
        for i in order:
            code, out, err = _call(calls[i])
            results[i] = (code, out, err, written.read_text() if written.exists() else None)
            written.unlink(missing_ok=True)
        return results

    forward = run_all(range(len(calls)))
    assert forward == run_all(reversed(range(len(calls))))
    assert [forward[i][0] for i in range(len(calls))] == [2, 0, 0, 0, 0, 2, 0]
    assert forward[1][1].startswith("{") and not forward[2][1].startswith("{")
    assert forward[3][3] == forward[4][1]


def test_help_and_usage_errors_are_pinned(monkeypatch):
    # Recorded before the parser was shared; argparse wraps at $COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    recorded = json.loads((FIXTURES / "usage.json").read_text())
    assert len(recorded) == 11
    for case in recorded:
        assert _call(case["argv"]) == (case["code"], case["stdout"], case["stderr"]), case["argv"]


def test_main_never_builds_a_parser(monkeypatch, capsys):
    def fail():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(argprof.cli, "build_parser", fail)
    assert main(["analyze", fixture("append.lp")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Each profile built once per command; compare analyzes only its cone
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [["analyze", "--json"], ["normalize"]], ids=["analyze", "normalize"])
def test_each_profile_is_stripped_and_ordered_once(argv, tmp_path, monkeypatch):
    path = tmp_path / "chain6.lp"
    path.write_text(chain_source(6))
    stripped = count_calls(monkeypatch, argprof.domain.strip_points)
    ordered = count_calls(monkeypatch, argprof.ordering.oprof)
    assert _call([argv[0], str(path), *argv[1:]])[0] == 0
    assert sorted(s.owner for s, _ in stripped) == [f"p{i}" for i in range(7)]
    assert len(ordered) == 7


def test_compare_analyzes_only_the_predicates_it_reaches(monkeypatch, capsys):
    analyzed = count_calls(monkeypatch, argprof.analysis.analyze_predicate)
    monkeypatch.setattr("sys.stdin", io.StringIO(chain_source(6)))
    assert main(["compare", "-", "p0", "p1"]) == 0
    assert {pred.name for pred, *_ in analyzed} == {"p0", "p1"}
    assert capsys.readouterr().out.startswith("distinct: p0 vs p1: ")


_DECLARED = re.compile(r"^:- pred ([a-z][A-Za-z0-9_]*)\(", re.M)


def _call_with_stdin(argv: list[str], source: str) -> tuple[int, str, str]:
    saved = sys.stdin
    sys.stdin = io.StringIO(source)
    try:
        return _call(argv)
    finally:
        sys.stdin = saved


def test_compare_of_the_cone_matches_a_whole_program_verdict():
    sources = [(FIXTURES / name).read_text() for name in fixture_names()]
    rng = random.Random(0xBEEF)  # the test-07 corpus
    sources += [gen_program_source(rng) for _ in range(200)]
    sources += [chain_source(k) for k in range(1, 7)]
    rng = random.Random(0xBEEF)  # calls to any predicate, so cones that hold whole components
    sources += [gen_mutual_source(rng) for _ in range(100)]
    verdicts = 0
    for source in [*sources, *mutated_sources()]:
        names = _DECLARED.findall(source) or ["p"]
        # Each predicate against the next and against itself, and one name
        # that no source declares.
        pairs = [*zip(names, names[1:] + names[:1]), (names[0], names[0]), (names[-1], "nosuch")]
        # ``analyze`` reads and validates the file as ``compare`` does, so a
        # diagnostic of its is compare's too.
        code, _, err = _call_with_stdin(["analyze", "-"], source)
        program = env = None
        if not code:
            program = parse_program(source)
            env, _ = run_analysis(program)
        for p, q in pairs:
            if program is None:
                expected = (code, "", err)
            elif p not in program.predicates or q not in program.predicates:
                unknown = p if p not in program.predicates else q
                expected = (1, "", f"<stdin>: error: unknown predicate '{unknown}'\n")
            else:
                expected = (0, "".join(compare_parts(program, env, p, q)), "")
                verdicts += 1
            assert _call_with_stdin(["compare", "-", p, q], source) == expected, (source, p, q)
    assert verdicts > 900
