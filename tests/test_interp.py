"""Reference interpreter tests: answers, limits, modes, determinism."""

from __future__ import annotations

import random
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from argprof import (
    Assign,
    Call,
    Construct,
    Deconstruct,
    FunctorTerm,
    Predicate,
    Program,
    Query,
    RuntimeModeError,
    SolveError,
    SourceError,
    StepLimitExceeded,
    Var,
    format_ground,
    parse_program,
    parse_query,
    plan,
    rewrite,
    run_analysis,
    solve,
    validate_modes,
    validate_program,
)
from argprof import interp, modecheck, parse, syntax
from argprof.interp import _CALL, _FAULT, _compile_clause
from argprof.modecheck import unbound_output_text
from argprof.parse import _argument_terms
from argprof.syntax import term_names
from helpers import (
    TIE_FREE_FIXTURES,
    ReferenceSteps,
    answer_multiset,
    dropped_last_atoms,
    fixture_names,
    gen_ground_term,
    gen_input_term,
    gen_mutual_source,
    gen_program_source,
    load_fixture,
    map_bodies,
    mutated_sources,
    reference_format_ground,
    reference_programs,
    reference_solve,
    repeated_call_outputs,
    repeated_deconstruct_outputs,
    reversed_bodies,
)


def test_append_ground_lists():
    program = load_fixture("append.lp")
    query = parse_query("?- app(cons(1,nil), cons(2,nil), Z).")
    answers = solve(program, query)
    assert [format_ground(a["Z"]) for a in answers] == ["cons(1, cons(2, nil))"]


def test_append_base_case():
    program = load_fixture("append.lp")
    answers = solve(program, parse_query("?- app(nil, nil, Z)."))
    assert [a["Z"] for a in answers] == [FunctorTerm("nil")]


def test_concat_agrees_with_append_on_permuted_arguments():
    # concat(A,B,C) holds exactly when app(B,C,A) does; use append as an
    # independent oracle for the expected answer.
    concat = load_fixture("concat.lp")
    append = load_fixture("append.lp")
    rng = random.Random(11)
    for _ in range(25):
        b, c = gen_input_term(rng), gen_input_term(rng)
        qc = parse_query(f"?- concat(A, {format_ground(b)}, {format_ground(c)}).")
        qa = parse_query(f"?- app({format_ground(b)}, {format_ground(c)}, A).")
        assert answer_multiset(solve(concat, qc)) == answer_multiset(solve(append, qa))


def test_pick_enumerates_in_clause_order():
    program = load_fixture("pick.lp")
    answers = solve(program, parse_query("?- pick(cons(1,cons(2,cons(3,nil))), X)."))
    assert [format_ground(a["X"]) for a in answers] == ["1", "2", "3"]


def test_reverse():
    program = load_fixture("reverse.lp")
    answers = solve(program, parse_query("?- rev(cons(1,cons(2,nil)), R)."))
    assert [format_ground(a["R"]) for a in answers] == ["cons(2, cons(1, nil))"]


def test_failed_deconstruction_yields_no_answers():
    program = load_fixture("append.lp")
    assert solve(program, parse_query("?- app(pair(1,2), nil, Z).")) == []


def test_conjunctive_query():
    program = load_fixture("append.lp")
    answers = solve(program, parse_query("?- app(cons(1,nil), nil, Z), app(Z, Z, W)."))
    assert [format_ground(a["W"]) for a in answers] == ["cons(1, cons(1, nil))"]


def test_query_unification_atoms():
    program = load_fixture("append.lp")
    answers = solve(program, parse_query("?- X := cons(1,nil), X => cons(H,T)."))
    assert [(format_ground(a["H"]), format_ground(a["T"])) for a in answers] == [("1", "nil")]
    assert solve(program, parse_query("?- X := 1, Y := 2, X == Y.")) == []
    answers = solve(program, parse_query("?- Z <= pair(1,2)."))
    assert [format_ground(a["Z"]) for a in answers] == ["pair(1, 2)"]


def test_ground_query_input_is_not_copied():
    query = parse_query("?- X := cons(a,cons(b,nil)).")
    [answer] = solve(load_fixture("append.lp"), query)
    assert answer["X"] is query.goal[0].source


def test_step_limit_zero():
    program = load_fixture("append.lp")
    with pytest.raises(StepLimitExceeded):
        solve(program, parse_query("?- app(nil, nil, Z)."), max_steps=0)


def test_step_limit_large_enough():
    program = load_fixture("append.lp")
    answers = solve(program, parse_query("?- app(nil, nil, Z)."), max_steps=10)
    assert len(answers) == 1


def test_run_query_requires_ground_inputs():
    program = load_fixture("append.lp")
    with pytest.raises(RuntimeModeError):
        solve(program, parse_query("?- app(U, nil, Z)."))


def test_run_query_rejects_bound_output():
    program = load_fixture("append.lp")
    with pytest.raises(RuntimeModeError):
        solve(program, parse_query("?- app(nil, nil, cons(1,nil))."))


def test_initial_bindings():
    program = load_fixture("append.lp")
    from argprof.parse import Query
    from argprof.syntax import Call, Var

    query = Query((Call(0, 0, 0, "app", (Var("X"), Var("X"), Var("Z"))),))
    one = FunctorTerm("cons", (FunctorTerm("1"), FunctorTerm("nil")))
    answers = solve(program, query, bindings={"X": one})
    assert [format_ground(a["Z"]) for a in answers] == ["cons(1, cons(1, nil))"]


def test_answers_are_ground():
    def check(term: FunctorTerm) -> None:
        assert isinstance(term, FunctorTerm)
        for a in term.args:
            check(a)

    program = load_fixture("mixed.lp")
    answers = solve(program, parse_query("?- swap_all(cons(pair(1,2),cons(pair(3,4),nil)), R)."))
    assert len(answers) == 1
    check(answers[0]["R"])
    assert format_ground(answers[0]["R"]) == "cons(pair(2, 1), cons(pair(4, 3), nil))"


def test_answer_order_deterministic():
    program = load_fixture("pick.lp")
    query = parse_query("?- pick(cons(a,cons(b,nil)), X).")
    assert solve(program, query) == solve(program, query)


def test_multiple_output_predicate():
    program = load_fixture("split.lp")
    answers = solve(program, parse_query("?- split(pair(1,2), A, B)."))
    assert [(format_ground(a["A"]), format_ground(a["B"])) for a in answers] == [("1", "2")]


def test_no_runtime_mode_errors_on_validated_fixtures():
    # Agreement with the static checker: ground queries over validated
    # programs never trip the runtime mode guard.
    rng = random.Random(2026)
    for name in TIE_FREE_FIXTURES + ["split.lp"]:
        program = load_fixture(name)
        assert validate_modes(program).ok()
        for pname, pred in program.predicates.items():
            for _ in range(10):
                args = []
                outs = 0
                for mode in pred.modes:
                    if mode == "in":
                        args.append(format_ground(gen_input_term(rng)))
                    else:
                        outs += 1
                        args.append(f"O{outs}")
                arglist = f"({', '.join(args)})" if args else ""
                query = parse_query(f"?- {pname}{arglist}.")
                try:
                    solve(program, query, max_steps=200_000)
                except StepLimitExceeded:
                    pass
                except RuntimeModeError as exc:
                    pytest.fail(f"{name}:{pname}: runtime mode error {exc}")


# ---------------------------------------------------------------------------
# Differential oracle: the machine against the generator interpreter
# ---------------------------------------------------------------------------

ORACLE_LIMIT = 200_000

# Not mode-checked: each predicate trips one runtime check of a program atom.
UNCHECKED = """\
:- pred q(in,out,out).
q(X,Y,Z) :- Y := X, Z := X.
:- pred dupout(in,out).
dupout(X,Y) :- q(X,Y,Y).
:- pred unbound(in,out).
unbound(X,Y) :- Y := W.
:- pred twice(in,out).
twice(X,Y) :- Y := X, Y := X.
:- pred decdup(in,out).
decdup(X,Y) :- X => pair(A,A), Y := A.
:- pred testfree(in,out).
testfree(X,Y) :- X == W, Y := X.
:- pred consfree(in,out).
consfree(X,Y) :- Y <= f(X,W).
:- pred consbound(in,out).
consbound(X,Y) :- Y := X, Y <= f(X,X).
:- pred callbound(in,out).
callbound(X,Y) :- Y := X, q(X,Y,Z).
:- pred callfree(in,out).
callfree(X,Y) :- q(W,Y,Z).
:- pred noout(in,out).
noout(X,Y) :- X => nil.
:- pred alt(in,out).
alt(X,Y) :- X => nil, Y := X.
alt(X,Y) :- X => cons(H,T), Y := H.
alt(X,Y) :- Y := W.
:- pred consboth(in,out).
consboth(X,Y) :- Y := X, Y <= f(X,W).
:- pred assignboth(in,out).
assignboth(X,Y) :- Y := X, Y := W.
:- pred r(out,in).
:- pred callorder(in,out).
callorder(X,Y) :- Y := X, r(Y,W).
"""


def _outcome(run):
    """Answers with their binding order, or the error's class and text."""
    try:
        return "answers", [list(answer.items()) for answer in run()]
    except SolveError as exc:
        return type(exc), str(exc)


def _reference_outcome(program, query, bindings, steps):
    """The reference's outcome. A clause that ends with a head output
    unbound makes the reference raise the KeyError of looking its name up,
    in ``_solve_call`` of the clause's predicate; that outcome is the
    RuntimeModeError ``solve`` raises, with the mode checker's text."""
    try:
        return _outcome(lambda: reference_solve(program, query, bindings=bindings, steps=steps))
    except KeyError as exc:
        pred, tb = None, exc.__traceback__
        while tb is not None:
            if tb.tb_frame.f_code.co_name == "_solve_call":
                pred = tb.tb_frame.f_locals["pred"]
            tb = tb.tb_next
        if pred is None:
            raise
        (name,) = exc.args
        return RuntimeModeError, unbound_output_text(pred, name)


def assert_agrees(program, query, bindings=None, limit=ORACLE_LIMIT):
    """``solve`` gives the reference's outcome at ``limit``, again at
    exactly the steps the reference used, and runs out one step earlier."""
    steps = ReferenceSteps(limit)
    expected = _reference_outcome(program, query, bindings, steps)
    assert _outcome(lambda: solve(program, query, limit, bindings)) == expected
    if expected[0] is not StepLimitExceeded:
        assert _outcome(lambda: solve(program, query, steps.used, bindings)) == expected
        if steps.used:
            short = _outcome(lambda: solve(program, query, steps.used - 1, bindings))
            assert short == (StepLimitExceeded, f"step limit exceeded ({steps.used - 1})")
    return expected


def _fixture_queries(program, rng):
    """Well- and ill-moded queries on every predicate of ``program``."""
    for pname, pred in program.predicates.items():
        ground = [format_ground(gen_input_term(rng)) for _ in pred.modes]
        outs = [f"O{k}" for k in range(len(pred.modes))]

        def call(args):
            return f"{pname}({', '.join(args)})" if args else pname

        plain = [g if m == "in" else o for g, o, m in zip(ground, outs, pred.modes)]
        yield f"?- {call(plain)}."
        for k, mode in enumerate(pred.modes):
            args = list(plain)
            if mode == "in":
                args[k] = "U"  # unbound input
                yield f"?- {call(args)}."
                args[k] = f"cons(V,{ground[k]})"  # nested input, V bound first
                yield f"?- V := a, {call(args)}."
                yield f"?- {call(args)}."
            else:
                args[k] = "f(a)"  # term in an output position
                yield f"?- {call(args)}."
                yield f"?- {outs[k]} := a, {call(plain)}."  # bound output
        out_positions = [k for k, m in enumerate(pred.modes) if m == "out"]
        if len(out_positions) > 1:
            args = list(plain)
            args[out_positions[1]] = outs[out_positions[0]]  # repeated output
            yield f"?- {call(args)}."
        # A second call after the first (and, in pick.lp, backtracking into
        # an earlier atom with several answers).
        yield f"?- {call(plain)}, {call(plain)}."
        yield f"?- pick(cons(a,cons(b,nil)), P), {call(plain)}."


def test_oracle_fixture_predicates():
    rng = random.Random(404)
    checked = 0
    for name in fixture_names():
        program = load_fixture(name)
        for text in _fixture_queries(program, rng):
            assert_agrees(program, parse_query(text))
            checked += 1
    assert checked > 130


def test_oracle_query_atoms():
    program = load_fixture("pick.lp")
    texts = [
        "?- X := cons(a,nil), X => cons(H,T).",
        "?- X := cons(a,nil), X => cons(H,H).",
        "?- X := cons(a,nil), X => cons(a,T).",
        "?- X := cons(a,nil), X => nil.",
        "?- X := cons(a,nil), X => pair(a,T).",
        "?- X => cons(H,T).",
        "?- f(X) => cons(H,T).",
        "?- cons(a,nil) => cons(H,T), H == a.",
        "?- Z <= pair(1,2).",
        "?- Z <= pair(X,2).",
        "?- X := 1, Z <= pair(f(X),2), Z == pair(f(1),2).",
        "?- f(a) <= pair(1,2).",
        "?- f(a) <= pair(X,2).",
        "?- X := 1, X <= pair(X,2).",
        "?- X := 1, Y := 2, X == Y.",
        "?- X := f(a,b), X == f(a,b).",
        "?- X == f(a,b).",
        "?- f(a) == f(Y).",
        "?- a := b.",
        "?- X := Y.",
        "?- X := a, X := b.",
        "?- nosuch(a, X).",
        "?- pick(cons(a,nil), X), nosuch(X).",
        "?- pick(nil, X), nosuch(X).",
        "?- pick(cons(a,nil)).",
        "?- pick(cons(a,cons(b,cons(c,nil))), X), pick(cons(X,cons(b,nil)), Y), Y == b.",
        "?- pick(cons(a,cons(b,nil)), X), X => a, Y := X.",
        "?- pick(cons(a,cons(b,nil)), X), Y <= cons(X,nil), pick(Y, Z).",
        "?- pick(cons(a,cons(b,nil)), X), pick(cons(X,Y), Z).",
        "?- pick(cons(a,cons(b,nil)), X), X => b, pick(nil, Z).",
        # A deconstruct whose input is built when its atom is reached.
        "?- X := a, f(X,X) => f(H,H).",
        "?- X := a, f(X,X) => g(H,H).",
        "?- X := a, f(X,X) => f(a,T).",
        "?- cons(a,nil) => pair(H,H).",
        "?- pick(cons(a,cons(b,nil)), X), f(X,X) => f(H,H).",
    ]
    outcomes = {text: assert_agrees(program, parse_query(text)) for text in texts}
    assert outcomes["?- X := a, f(X,X) => f(H,H)."] == (RuntimeModeError, "H already bound at goal atom 2")
    assert outcomes["?- X := a, f(X,X) => g(H,H)."] == ("answers", [])
    assert outcomes["?- X := a, f(X,X) => f(a,T)."] == (RuntimeModeError, "output position holds a term at goal atom 2")
    assert outcomes["?- cons(a,nil) => pair(H,H)."] == ("answers", [])
    assert outcomes["?- pick(cons(a,cons(b,nil)), X), f(X,X) => f(H,H)."][0] is RuntimeModeError
    # An atom with an unbound input and a bound output reports the input.
    for text in ("?- Z := nil, Z <= cons(X,nil).", "?- Z := nil, Z := X.", "?- H := a, L => cons(H,T)."):
        assert assert_agrees(program, parse_query(text)) == (RuntimeModeError, "non-ground input at goal atom 2")


def test_oracle_unchecked_program_atoms():
    program = parse_program(UNCHECKED)
    outcomes = {}
    for pname in program.predicates:
        if pname in ("q", "r"):
            continue
        for arg in ("nil", "pair(a,a)", "cons(a,nil)"):
            outcomes[pname, arg] = assert_agrees(program, parse_query(f"?- {pname}({arg}, Y)."))
    # Each check is reached, and each reports its atom's point.
    assert outcomes["unbound", "nil"] == (RuntimeModeError, "W unbound at point 4")
    assert outcomes["twice", "nil"] == (RuntimeModeError, "Y already bound at point 6")
    assert outcomes["dupout", "nil"] == (RuntimeModeError, "Y already bound at point 3")
    assert outcomes["decdup", "pair(a,a)"] == (RuntimeModeError, "A already bound at point 7")
    assert outcomes["noout", "nil"] == (RuntimeModeError, "output argument Y of noout/2 not bound at clause end")
    # The third clause is reached after the first clause's answer too.
    assert outcomes["alt", "nil"] == (RuntimeModeError, "W unbound at point 22")
    assert outcomes["alt", "pair(a,a)"] == (RuntimeModeError, "W unbound at point 22")
    # An atom whose inputs and outputs both fail reports its first input;
    # a call walks its arguments in position order, here an output first.
    assert outcomes["consboth", "nil"] == (RuntimeModeError, "W unbound at point 24")
    assert outcomes["assignboth", "nil"] == (RuntimeModeError, "W unbound at point 26")
    assert outcomes["callorder", "nil"] == (RuntimeModeError, "Y already bound at point 28")


def _fault_points(program):
    """Predicate name -> the point and error text of each fault its clauses
    compile to, the checks that fail where they stand; the point of a
    fault at a clause's end is None."""
    return {
        name: [
            (instr[3] and instr[3].point, instr[2][1])
            for clause in pred.clauses
            for instr in _compile_clause(pred, clause, program.predicates)[3]
            if instr[0] == _FAULT
        ]
        for name, pred in program.predicates.items()
    }


def test_validated_programs_compile_without_faults():
    # The compiler's mode walk agrees with the mode checker: every clause
    # of a validated program compiles to instructions that check nothing.
    corpus = random.Random(0xBEEF)
    programs = [load_fixture(name) for name in fixture_names()]
    programs += [parse_program(gen_program_source(corpus)) for _ in range(200)]
    clauses = 0
    for program in programs:
        assert validate_program(program).ok()
        assert not any(_fault_points(program).values())
        clauses += sum(len(pred.clauses) for pred in program.predicates.values())
    assert clauses == 1313


def test_unchecked_atoms_compile_to_faults():
    # Each program atom whose check fails compiles to one fault, and the
    # rest of its body is not compiled. A call that repeats an output runs
    # before its fault; a clause's first deconstruct of a head input is
    # done by selection, so its fault is the clause's first instruction. A
    # clause that reaches its end with a head output unbound faults there.
    program = parse_program(UNCHECKED)
    faults = _fault_points(program)
    points = {name: [point for point, _ in pairs] for name, pairs in faults.items()}
    assert points == {
        "q": [],
        "dupout": [3],
        "unbound": [4],
        "twice": [6],
        "decdup": [7],
        "testfree": [9],
        "consfree": [11],
        "consbound": [13],
        "callbound": [15],
        "callfree": [16],
        "noout": [None],
        "alt": [22],
        "consboth": [24],
        "assignboth": [26],
        "r": [],
        "callorder": [28],
    }
    kinds = {
        name: [instr[0] for instr in _compile_clause(program.predicates[name], clause, program.predicates)[3]]
        for name in ("dupout", "decdup", "noout")
        for clause in program.predicates[name].clauses
    }
    assert kinds == {"dupout": [_CALL, _FAULT], "decdup": [_FAULT], "noout": [_FAULT]}
    # Each fault carries the error named when it was compiled: the one
    # test_oracle_unchecked_program_atoms sees raised.
    texts = {point: text for pairs in faults.values() for point, text in pairs}
    assert texts[3] == "Y already bound at point 3"
    assert texts[4] == "W unbound at point 4"
    assert texts[6] == "Y already bound at point 6"
    assert texts[7] == "A already bound at point 7"
    assert texts[None] == "output argument Y of noout/2 not bound at clause end"
    assert texts[22] == "W unbound at point 22"
    assert texts[24] == "W unbound at point 24"
    assert texts[26] == "W unbound at point 26"
    assert texts[28] == "Y already bound at point 28"


def test_compiled_faults_are_the_first_mode_violations():
    # In each clause, the first violation the mode checker reports, at an
    # atom or at the clause's end, is the error of the one fault the
    # compiled clause holds; a clause the checker passes holds none.
    # A clause call whose first output is repeated in its second output
    # position raises the repeat only on return, after any other fault of
    # the call; the reversed corpus gives such calls unbound inputs. A
    # first deconstruct that repeats an output faults whether or not
    # selection does it.
    corpus = reference_programs("corpus")
    repeated = [repeated_call_outputs(reversed_bodies(p)) for p in corpus]
    repeated_ids = {id(p) for p in repeated}
    programs = [
        parse_program(UNCHECKED),
        *map(reversed_bodies, corpus),
        *map(dropped_last_atoms, corpus),
        *repeated,
        *map(repeated_deconstruct_outputs, corpus),
    ]
    faulty = ends = repeated_faulty = 0
    for program in programs:
        for pred in program.predicates.values():
            for clause in pred.clauses:
                # The program with this clause alone: the checker's reports are its.
                alone = {
                    name: Predicate(name, p.modes, p.args, (clause,) if p is pred else ())
                    for name, p in program.predicates.items()
                }
                reported = [v.message for v in validate_modes(Program(alone)).violations]
                named = [
                    instr[2][1] for instr in _compile_clause(pred, clause, program.predicates)[3] if instr[0] == _FAULT
                ]
                assert named == reported[:1], (pred.name, clause)
                faulty += bool(reported)
                ends += bool(reported) and reported[0].endswith(" at clause end")
                repeated_faulty += bool(reported) and id(program) in repeated_ids
    assert faulty > 1800
    assert ends > 1000
    assert repeated_faulty > 900


def test_a_keyed_deconstruct_that_faults_is_done_by_selection():
    # A clause's first deconstruct of a head input is done by selection,
    # its step charged, even when it fails a mode check: its fault is then
    # the clause's first instruction, which charges nothing. Each query
    # admits the clause, and its outcome and steps are the reference's.
    outcomes = Counter()
    for program in map(repeated_deconstruct_outputs, reference_programs("corpus")):
        for pname, pred in program.predicates.items():
            for clause in pred.clauses:
                first = clause.body[0] if clause.body else None
                if first.__class__ is not Deconstruct or len(first.args) < 2:
                    continue
                if first.var not in pred.split(pred.args)[0]:
                    continue
                # Its frame is its head inputs and its key's outputs.
                _, pad, _, code = _compile_clause(pred, clause, program.predicates)
                assert code[0][0] == _FAULT and code[0][3] is first and pad == ()
                key = FunctorTerm(first.functor, (FunctorTerm("a"),) * len(first.args))
                args = tuple(
                    (key if t == first.var else FunctorTerm("a")) if m == "in" else Var(f"O{k}")
                    for k, (t, m) in enumerate(zip(pred.args, pred.modes))
                )
                kind, _ = assert_agrees(program, Query((Call(0, 0, 0, pname, args),)), limit=200)
                outcomes[kind] += 1
    assert outcomes == {RuntimeModeError: 52, StepLimitExceeded: 10}


def test_a_clause_call_raises_a_repeated_output_after_an_unbound_input():
    # q binds its outputs only as it returns, so the repeated Y is found
    # after the unbound W: the checker's first violation is the error
    # solve raises, and the reference raises it too.
    program = parse_program(
        ":- pred q(out,out,in).\nq(Y,Z,X) :- Y := X, Z := X.\n:- pred d(in,out).\nd(X,Y) :- q(Y,Y,W).\n"
    )
    assert [v.message for v in validate_program(program).violations] == [
        "W unbound at point 3",
        "Y already bound at point 3",
    ]
    query = parse_query("?- d(a, Y).")
    assert _outcome(lambda: solve(program, query)) == (RuntimeModeError, "W unbound at point 3")
    assert_agrees(program, query)


def test_unvalidated_programs_raise_only_solve_errors():
    # On programs not mode-checked, ``solve`` raises nothing but
    # SolveErrors: a clause that ends with a head output unbound raises a
    # RuntimeModeError, where the reference raises the KeyError of the
    # output's name. Within 200 steps, which the recursive reference runs
    # within Python's recursion limit, each outcome is the reference's.
    corpus = reference_programs("corpus")
    mutated = []
    for source in mutated_sources():
        try:
            mutated.append(parse_program(source))
        except SourceError:
            pass
    groups = {
        "dropped": [dropped_last_atoms(p) for p in corpus],
        "reversed": [reversed_bodies(p) for p in corpus],
        "mutated": mutated,
    }
    rng = random.Random(32)
    kinds = {}
    for group, programs in groups.items():
        counts = kinds[group] = Counter()
        for program in programs:
            for pname, pred in program.predicates.items():
                args = tuple(gen_input_term(rng) if m == "in" else Var(f"O{k}") for k, m in enumerate(pred.modes))
                query = Query((Call(0, 0, 0, pname, args),))
                assert_agrees(program, query, limit=200)
                kind, result = _outcome(lambda: solve(program, query, 2_000))
                if kind != "answers":
                    kind = "clause end" if result.endswith(" at clause end") else kind.__name__
                counts[kind] += 1
    assert kinds == {
        "dropped": {"clause end": 273, "StepLimitExceeded": 222, "answers": 161},
        "reversed": {"RuntimeModeError": 554, "StepLimitExceeded": 18, "answers": 84},
        "mutated": {"StepLimitExceeded": 2, "answers": 2},
    }


# Not mode-checked: clauses whose first atom may or may not select them. A
# clause starting with a deconstruct of a head input is passed over, at the
# reference's step cost, when its functor or arity differs from the input.
# From halves on: clauses whose last call is or is not a tail call, and a
# predicate keyed at two input positions.
SELECTION = """\
:- pred mid(in,out).
mid(X,Y) :- X => nil, Y := X.
mid(X,Y) :- Y := X.
mid(X,Y) :- X => cons(H,T), Y := H.
:- pred outdec(in,out).
outdec(X,Y) :- X => nil, Y := X.
outdec(X,Y) :- Y => nil.
:- pred localdec(in,out).
localdec(X,Y) :- X => cons(H,T), Y := H.
localdec(X,Y) :- W => nil, Y := X.
:- pred rep(in,in,out).
rep(X,Z,Y) :- X => nil, Y := X.
rep(X,Z,Y) :- X => cons(H,T), Y := H.
:- pred arity(in,out).
arity(X,Y) :- X => f(A), Y := A.
arity(X,Y) :- X => g(A,B), Y := B.
arity(X,Y) :- X => h, Y := X.
:- pred dd(in,out).
dd(X,Y) :- X => nil, Y := X.
dd(X,Y) :- X => pair(A,A), Y := A.
dd(X,Y) :- X => cons(H,T), Y := H.
:- pred empty(in,out).
empty(X,Y) :- X => nil, Y := X.
empty(X,Y).
empty(X,Y) :- X => cons(H,T), Y := H.
:- pred halves(in,out,out).
halves(X,A,B) :- X => pair(A,B).
halves(X,A,B) :- X => cons(A,B).
:- pred both(in,out,out).
both(X,A,B) :- X => pair(A,B).
both(X,A,B) :- X => pair(B,A).
both(X,A,B) :- halves(X,A,B).
:- pred tail(in,out,out).
tail(X,A,B) :- both(X,A,B).
:- pred swapped(in,out,out).
swapped(X,A,B) :- both(X,B,A).
:- pred partial(in,out,out).
partial(X,A,B) :- B := X, mid(X,A).
:- pred dupcall(in,out,out).
dupcall(X,A,B) :- B := X, halves(X,A,A).
:- pred nobind(in,out).
nobind(X,Y) :- mid(X,Z).
:- pred none(in,out).
:- pred callnone(in,out).
callnone(X,Y) :- none(X,Y).
:- pred twokeys(in,in,out).
twokeys(X,Y,Z) :- X => nil, Z := Y.
twokeys(X,Y,Z) :- Y => nil, Z := X.
twokeys(X,Y,Z) :- Z := X.
twokeys(X,Y,Z) :- X => cons(H,T), Z := H.
twokeys(X,Y,Z) :- Y => cons(H,T), Z := H.
"""


def _selection_program():
    """SELECTION, with what the parser rejects: every functor ``arity``
    deconstructs, the only ``g`` and ``h``, made ``f``, at arities 1, 2
    and 0."""
    def renamed(body):
        d = body[0] if body else None
        if d.__class__ is Deconstruct and d.functor in ("g", "h"):
            return (Deconstruct(d.point, d.line, d.col, d.var, "f", d.args), *body[1:])
        return body

    return map_bodies(parse_program(SELECTION), renamed)


def test_oracle_clause_selection():
    program = _selection_program()
    inputs = ("nil", "cons(a,nil)", "pair(a,a)", "pair(a,b)", "f", "f(a)", "f(a,b)", "g(a)")
    outcomes = {}
    for pname in ("mid", "outdec", "localdec", "arity", "dd", "empty"):
        for arg in inputs:
            outcomes[pname, arg] = assert_agrees(program, parse_query(f"?- {pname}({arg}, Y)."))
            assert_agrees(program, parse_query(f"?- {pname}({arg}, Y), mid({arg}, Z)."))
            # A fault after the call comes before the steps of the clauses
            # the call passed over.
            assert_agrees(program, parse_query(f"?- {pname}({arg}, Y), Y := a."))
    for first in inputs[:3]:
        for second in inputs[:3]:
            outcomes["rep", first, second] = assert_agrees(program, parse_query(f"?- rep({first}, {second}, Y)."))
            outcomes["twokeys", first, second] = assert_agrees(
                program, parse_query(f"?- twokeys({first}, {second}, Z).")
            )
    # Last calls: a tail call returns to its caller's caller; a last call
    # whose outputs are the head outputs permuted, or only some of them, or
    # repeat one, returns as any call does.
    for pname in ("halves", "both", "tail", "swapped", "partial", "dupcall"):
        for arg in inputs:
            outcomes[pname, arg] = assert_agrees(program, parse_query(f"?- {pname}({arg}, A, B)."))
            assert_agrees(program, parse_query(f"?- {pname}({arg}, A, B), A := b."))
            # A last call in a query keeps a plain call.
            assert_agrees(program, parse_query(f"?- mid({arg}, Y), {pname}({arg}, A, B)."))
    for pname in ("nobind", "callnone"):
        for arg in inputs:
            outcomes[pname, arg] = assert_agrees(program, parse_query(f"?- {pname}({arg}, Y)."))
            assert_agrees(program, parse_query(f"?- {pname}({arg}, Y), Y := a."))
    # A keyless clause between keyed ones is still entered.
    assert outcomes["mid", "nil"] == ("answers", [[("Y", FunctorTerm("nil"))]] * 2)
    assert outcomes["mid", "pair(a,a)"][1] == [[("Y", FunctorTerm("pair", (FunctorTerm("a"), FunctorTerm("a"))))]]
    # A first deconstruct of a head output or a local variable selects
    # nothing and raises its fault.
    assert outcomes["outdec", "cons(a,nil)"] == (RuntimeModeError, "Y unbound at point 8")
    assert outcomes["outdec", "nil"] == (RuntimeModeError, "Y unbound at point 8")
    assert outcomes["localdec", "nil"] == (RuntimeModeError, "W unbound at point 11")
    # The same functor at another arity is another key.
    assert outcomes["arity", "f(a,b)"] == ("answers", [[("Y", FunctorTerm("b"))]])
    assert outcomes["arity", "f"] == ("answers", [[("Y", FunctorTerm("f"))]])
    # A matching deconstruct still checks its outputs.
    assert outcomes["dd", "pair(a,b)"] == (RuntimeModeError, "A already bound at point 25")
    # A clause with an empty body admits every input.
    assert outcomes["empty", "g(a)"] == (RuntimeModeError, "output argument Y of empty/2 not bound at clause end")
    # Keys at two input positions: each clause is tested at its own, and a
    # keyless clause between them admits every input.
    nil, a = FunctorTerm("nil"), FunctorTerm("a")
    assert outcomes["twokeys", "nil", "nil"] == ("answers", [[("Z", nil)]] * 3)
    one = FunctorTerm("cons", (a, nil))
    assert outcomes["twokeys", "cons(a,nil)", "nil"][1] == [[("Z", one)], [("Z", one)], [("Z", a)]]
    assert outcomes["twokeys", "pair(a,a)", "pair(a,a)"] == (
        "answers",
        [[("Z", FunctorTerm("pair", (a, a)))]],
    )
    # Answers come back through tail calls in the same order, and through
    # calls that permute the outputs with them swapped.
    ab, ba = [("A", a), ("B", FunctorTerm("b"))], [("A", FunctorTerm("b")), ("B", a)]
    assert outcomes["tail", "pair(a,b)"] == ("answers", [ab, ba, ab])
    assert outcomes["swapped", "pair(a,b)"] == ("answers", [ba, ab, ba])
    assert outcomes["tail", "cons(a,nil)"] == ("answers", [[("A", a), ("B", nil)]])
    assert outcomes["partial", "nil"] == ("answers", [[("A", nil), ("B", nil)]] * 2)
    # A repeated output still raises on return, and an unbound head output
    # at the clause's end; a call to a predicate without clauses fails.
    assert outcomes["dupcall", "pair(a,b)"] == (RuntimeModeError, "A already bound at point 43")
    assert outcomes["dupcall", "nil"] == ("answers", [])
    assert outcomes["nobind", "nil"] == (RuntimeModeError, "output argument Y of nobind/2 not bound at clause end")
    assert all(outcomes["callnone", arg] == ("answers", []) for arg in inputs)


# Clauses that bind their own variables after a call that leaves choice
# points, so backtracking must undo bindings in a clause still running.
NONDET = """\
:- pred pick(in,out).
pick(L,X) :- L => cons(E,Es), X := E.
pick(L,X) :- L => cons(E,Es), pick(Es,X).
:- pred pairs(in,out).
pairs(L,P) :- pick(L,X), pick(L,Y), P <= pair(X,Y).
:- pred firstb(in,out).
firstb(L,Y) :- pick(L,X), X => b, Y := X.
:- pred twob(in,out).
twob(L,P) :- pairs(L,P), P => pair(X,Y), X == Y, Y => b.
:- pred two(out).
two(X) :- X <= a.
two(X) :- X <= b.
"""


def test_oracle_backtracking_inside_clauses():
    program = parse_program(NONDET)
    assert validate_modes(program).ok()
    for lst in ("nil", "cons(a,nil)", "cons(a,cons(b,nil))", "cons(b,cons(a,cons(b,cons(c,nil))))"):
        for pname in ("pairs", "firstb", "twob"):
            assert_agrees(program, parse_query(f"?- {pname}({lst}, R)."))
    # The last alternative of the second call is entered while the first
    # call's choice point remains, so later bindings must still be undone.
    assert len(assert_agrees(program, parse_query("?- two(X), two(Y), Z := X."))[1]) == 4
    answers = solve(program, parse_query("?- pairs(cons(a,cons(b,nil)), P)."))
    assert [format_ground(a["P"]) for a in answers] == ["pair(a, a)", "pair(a, b)", "pair(b, a)", "pair(b, b)"]


# A clause that binds locals from a call's answer, then calls again: when
# backtracking re-enters the second call, then the first, the frame they
# return into is written again in place, and the locals bound before each
# call must be the ones its continuation reads.
REUSE = """\
:- pred pick(in,out).
pick(L,X) :- L => cons(E,Es), X := E.
pick(L,X) :- L => cons(E,Es), pick(Es,X).
:- pred mix(in,out).
mix(L,P) :- pick(L,X), X => pair(A,B), pick(L,Y), Y => pair(C,D), Q <= pair(A,D), P <= pair(Q,C).
"""
REUSE_QUERY = "?- mix(cons(pair(a,b),cons(pair(c,d),cons(e,nil))), P)."


def test_backtracking_into_calls_reuses_the_callers_frame():
    program = parse_program(REUSE)
    assert validate_modes(program).ok()
    outcome = assert_agrees(program, parse_query(REUSE_QUERY))
    assert [format_ground(p) for [(_, p)] in outcome[1]] == [
        "pair(pair(a, b), a)",
        "pair(pair(a, d), c)",
        "pair(pair(c, b), a)",
        "pair(pair(c, d), c)",
    ]


def test_oracle_nrev_and_bindings():
    program = parse_program((Path(__file__).parent.parent / "perfbench" / "nrev.lp").read_text())
    for n in range(13):
        items = ",".join("abcd"[k % 4] for k in range(n))
        lst = "nil"
        for e in reversed(items.split(",") if n else []):
            lst = f"cons({e},{lst})"
        assert_agrees(program, parse_query(f"?- nrev({lst}, R)."))
        assert_agrees(program, parse_query(f"?- app({lst}, {lst}, R)."))
    query = parse_query("?- nrev(L, R), app(R, L, S).")
    one = FunctorTerm("cons", (FunctorTerm("a"), FunctorTerm("cons", (FunctorTerm("b"), FunctorTerm("nil")))))
    assert_agrees(program, query, bindings={"L": one})
    assert_agrees(program, query, bindings={"L": one, "S": one})


def test_oracle_every_step_limit():
    # Each limit below what a query needs ends it at the same step, with
    # the same error, as in the reference.
    nrev = parse_program((Path(__file__).parent.parent / "perfbench" / "nrev.lp").read_text())
    cases = [
        (load_fixture("pick.lp"), "?- pick(cons(a,cons(b,cons(c,nil))), X), X => c, Y := X."),
        (load_fixture("pick.lp"), "?- X := cons(a,nil), pick(X, Y), Y => cons(H,T)."),
        (load_fixture("pick.lp"), "?- X := a, f(X) <= g(X)."),
        (load_fixture("mixed.lp"), "?- swap_all(cons(pair(1,2),cons(pair(3,4),nil)), R), same(R, R)."),
        (load_fixture("reverse.lp"), "?- rev(cons(1,cons(2,cons(3,nil))), R), rev(R, S)."),
        (nrev, "?- nrev(cons(a,cons(b,cons(c,cons(d,nil)))), R)."),
        (parse_program(UNCHECKED), "?- alt(nil, Y)."),
    ]
    for program, text in cases:
        query = parse_query(text)
        steps = ReferenceSteps(ORACLE_LIMIT)
        _outcome(lambda: reference_solve(program, query, steps=steps))
        for limit in range(steps.used + 1):
            expected = _outcome(lambda: reference_solve(program, query, limit))
            assert _outcome(lambda: solve(program, query, limit)) == expected, (text, limit)


def test_oracle_soundness_queries():
    # The random ground queries of acceptance test 09, on every fixture
    # predicate, original and normalized.
    from test_acceptance import _query_for

    rng = random.Random(0xC0FFEE)
    for name in fixture_names():
        program = load_fixture(name)
        normalized = rewrite(program, plan(program, run_analysis(program)[0]))
        for pname, pred in program.predicates.items():
            for _ in range(10):
                query, _args = _query_for(pred, rng)
                assert_agrees(program, query)
                assert_agrees(normalized, query)


# The test-07 corpus backtracks into calls far more than the fixtures do.
# The reference nests generator frames as it takes steps: at a 500-step
# limit it exceeds Python's default recursion limit on 97 of the corpus
# queries. It runs in a thread with a deep stack (``_with_deep_stack``), so
# the oracle reaches the soundness test's limit.
CORPUS_ORACLE_LIMIT = 2_000
CORPUS_SOUNDNESS_LIMIT = 2_000


def _with_deep_stack(run):
    """``run()`` in one worker thread with a 512 MiB stack and a recursion
    limit to match; what it raises is raised here."""
    outcome = []

    def target():
        try:
            outcome.append(run())
        except BaseException as exc:
            outcome.append(exc)

    stack_size = threading.stack_size(512 * 2**20)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200_000)
    try:
        worker = threading.Thread(target=target)
        worker.start()
        worker.join(timeout=600)
    finally:
        threading.stack_size(stack_size)
        sys.setrecursionlimit(limit)
    assert not worker.is_alive(), "the worker thread did not finish within 600 s"
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


def _corpus_queries(generate=gen_program_source):
    """Each test-07 corpus program, or each of 200 programs ``generate``
    makes from the corpus seed, with one seeded well-moded query per
    predicate: (predicate, query, query arguments)."""
    from test_acceptance import _query_for

    corpus = random.Random(0xBEEF)
    rng = random.Random(0x5EED)
    for _ in range(200):
        program = parse_program(generate(corpus))
        yield program, [(pred, *_query_for(pred, rng)) for pred in program.predicates.values()]


def test_oracle_corpus_predicates():
    def run():
        outcomes = Counter()
        for program, queries in _corpus_queries():
            for _pred, query, _args in queries:
                outcomes[assert_agrees(program, query, limit=CORPUS_ORACLE_LIMIT)[0]] += 1
        return outcomes

    outcomes = _with_deep_stack(run)
    assert sum(outcomes.values()) == 656
    assert outcomes["answers"] > 100 and outcomes[StepLimitExceeded] > 100


def _limited_outcome(program, query):
    try:
        return answer_multiset(solve(program, query, CORPUS_SOUNDNESS_LIMIT))
    except StepLimitExceeded:
        return "step-limit"


def _assert_normalization_sound(generate) -> None:
    # Test 09: the original and the normalized program give the same
    # outcome on each query, its arguments permuted for the latter.
    answered = 0
    for program, queries in _corpus_queries(generate):
        normalization = plan(program, run_analysis(program)[0])
        normalized = rewrite(program, normalization)
        for pred, query, args in queries:
            permuted = tuple(args[orig - 1] for orig in normalization[pred.name])
            expected = _limited_outcome(program, query)
            assert _limited_outcome(normalized, Query((Call(0, 0, 0, pred.name, permuted),))) == expected
            answered += expected != "step-limit"
    assert answered > 100


def test_corpus_normalization_soundness():
    _assert_normalization_sound(gen_program_source)


def test_mutual_normalization_soundness():
    # Programs whose calls may go to any predicate, so that many hold a
    # call-graph cycle through several predicates.
    _assert_normalization_sound(gen_mutual_source)


@pytest.mark.parametrize(
    ("program_file", "text", "steps"),
    [
        ("append.lp", "?- app(nil, nil, Z).", 5),
        ("pick.lp", "?- pick(cons(a,cons(b,nil)),X).", 14),
        ("mixed.lp", "?- swap_all(cons(pair(1,2),cons(pair(3,4),nil)), R).", 21),
        ("append.lp", "?- X <= cons(a,nil), app(X, X, Z).", 11),
        ("nrev.lp", "?- nrev(" + "".join(f"cons({e}," for e in "abcdefghij") + "nil" + ")" * 10 + ", R).", 340),
        ("REUSE", REUSE_QUERY, 75),
    ],
)
def test_step_counts(program_file, text, steps):
    if program_file == "nrev.lp":
        program = parse_program((Path(__file__).parent.parent / "perfbench" / "nrev.lp").read_text())
    elif program_file == "REUSE":
        program = parse_program(REUSE)
    else:
        program = load_fixture(program_file)
    query = parse_query(text)
    assert solve(program, query, max_steps=steps)
    with pytest.raises(StepLimitExceeded):
        solve(program, query, max_steps=steps - 1)


# ---------------------------------------------------------------------------
# Depth: long inputs and answers use no recursion
# ---------------------------------------------------------------------------


def _list_text(elements) -> str:
    return "".join(f"cons({e}," for e in elements) + "nil" + ")" * len(elements)


def _list_term(elements) -> FunctorTerm:
    term = FunctorTerm("nil")
    for e in reversed(elements):
        term = FunctorTerm("cons", (FunctorTerm(e), term))
    return term


def test_deep_terms_print_compare_and_hash():
    deep = _list_term(["1"] * 5000)
    same = _list_term(["1"] * 5000)
    other = _list_term(["1"] * 4999 + ["2"])
    text = format_ground(deep)
    assert text == "cons(1, " * 5000 + "nil" + ")" * 5000
    assert reference_format_ground(deep) == text
    assert deep == same and deep is not same
    assert deep != other and not deep == other
    assert hash(deep) == hash(same)
    assert repr(deep).count("FunctorTerm(") == 10001
    assert len({deep, same, other}) == 2


def test_format_ground_on_a_100000_deep_term():
    deep = _list_term(["a", "b"] * 50_000)
    assert format_ground(deep) == reference_format_ground(deep) == "cons(a, cons(b, " * 50_000 + "nil" + ")" * 100_000
    # A spine whose first arguments are terms holding a variable, and one
    # of arity-3 nodes.
    pairs = FunctorTerm("nil")
    triples = FunctorTerm("nil")
    for k in range(100_000):
        pairs = FunctorTerm("cons", (FunctorTerm("pair", (FunctorTerm("a"), Var("X"))), pairs))
        triples = FunctorTerm("t", (FunctorTerm(str(k % 3)), FunctorTerm("b"), triples))
    text = "cons(pair(a, X), " * 100_000 + "nil" + ")" * 100_000
    assert format_ground(pairs) == reference_format_ground(pairs) == text
    text = "".join(f"t({k % 3}, b, " for k in reversed(range(100_000))) + "nil" + ")" * 100_000
    assert format_ground(triples) == reference_format_ground(triples) == text
    # A list whose elements are pairs of constants: one part per node.
    swapped = FunctorTerm("nil")
    for _ in range(100_000):
        swapped = FunctorTerm("cons", (FunctorTerm("pair", (FunctorTerm("b"), FunctorTerm("a"))), swapped))
    text = "cons(pair(b, a), " * 100_000 + "nil" + ")" * 100_000
    assert format_ground(swapped) == reference_format_ground(swapped) == text


def test_format_ground_of_lists_of_random_elements():
    # Elements of every shape the spine walk tells apart: constants, pairs
    # of constants, pairs holding a variable or a compound, other arities.
    rng = random.Random(1353)
    for _ in range(300):
        term = FunctorTerm("nil") if rng.random() < 0.5 else Var("T")
        for _ in range(rng.randint(0, 12)):
            element = gen_ground_term(rng, rng.randint(0, 3))
            if rng.random() < 0.2:
                element = FunctorTerm("pair", (element, Var("X")))
            term = FunctorTerm(rng.choice(["cons", "cons", "pair"]), (element, term))
        assert format_ground(term) == reference_format_ground(term)


# Terms of up to 30 leaves, at arities 0 to 4; a few leaves are variables,
# which format_ground prints by name.
_TERMS = st.recursive(
    st.builds(FunctorTerm, st.sampled_from(["nil", "a", "0", "z", "f"])) | st.builds(Var, st.sampled_from("XY")),
    lambda args: st.builds(
        FunctorTerm, st.sampled_from(["cons", "pair", "f", "s"]), st.lists(args, min_size=1, max_size=4).map(tuple)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_TERMS)
def test_format_ground_agrees_with_the_callback_walk(term):
    assert format_ground(term) == reference_format_ground(term)


def _holds_var(term) -> bool:
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            return True
        stack.extend(t.args)
    return False


def _recorded(query: Query) -> set[tuple[int, int]]:
    """The (atom, argument) positions of the terms in ``query``'s record."""
    return {
        (k, j)
        for k, atom in enumerate(query.goal)
        for j, t in enumerate(_argument_terms(atom))
        if id(t) in query.nonground
    }


_QUERY_TERMS = _TERMS | st.builds(gen_input_term, st.randoms(use_true_random=False))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_QUERY_TERMS, min_size=1, max_size=4),
    st.lists(_QUERY_TERMS, min_size=6, max_size=6),
    st.lists(_QUERY_TERMS, max_size=3),
    st.lists(_QUERY_TERMS, max_size=3),
)
def test_parse_query_records_the_terms_that_hold_a_variable(call_args, operands, made, taken):
    # Every kind of atom: a call, an assign, a test, a construct and a
    # deconstruct, whose argument terms may nest and hold variables.
    a, b, c, d, e, f = operands
    goal = (
        Call(0, 0, 0, "p", tuple(call_args)),
        Assign(0, 0, 0, a, b),
        syntax.Test(0, 0, 0, c, d),
        Construct(0, 0, 0, e, "f", tuple(made)),
        Deconstruct(0, 0, 0, f, "g", tuple(taken)),
    )
    by_hand = Query(goal)
    g = format_ground
    parsed = parse_query(
        f"?- {g(FunctorTerm('p', tuple(call_args)))}, {g(a)} := {g(b)}, {g(c)} == {g(d)}, "
        f"{g(e)} <= {g(FunctorTerm('f', tuple(made)))}, {g(f)} => {g(FunctorTerm('g', tuple(taken)))}."
    )
    expected = {
        (k, j)
        for k, atom in enumerate(goal)
        for j, t in enumerate(_argument_terms(atom))
        if isinstance(t, FunctorTerm) and _holds_var(t)
    }
    assert _recorded(parsed) == _recorded(by_hand) == expected
    assert Query(parsed.goal).nonground == parsed.nonground
    # The record joins neither the key nor the repr.
    assert parsed == by_hand and hash(parsed) == hash(by_hand)
    assert repr(parsed) == repr(Query(parsed.goal)) == f"Query(goal={parsed.goal!r})"


def test_ground_inputs_are_never_walked(monkeypatch):
    # The parser records which input terms hold a variable, so between the
    # text and the answer no ground input is walked for its names.
    walked = []

    def counting(term):
        walked.append(term)
        return term_names(term)

    for module in (syntax, parse, modecheck, interp):
        if hasattr(module, "term_names"):
            monkeypatch.setattr(module, "term_names", counting)
    one, two = ["a", "b", "c"] * 50, ["d", "e"] * 75
    query = parse_query(f"?- app({_list_text(one)}, {_list_text(two)}, Z).")
    assert solve(load_fixture("append.lp"), query) == [{"Z": _list_term(one + two)}]
    assert walked == []
    # The count is live: an input that holds a variable is walked.
    query = parse_query("?- X := a, app(cons(X,nil), nil, Z).")
    assert solve(load_fixture("append.lp"), query) == [{"X": FunctorTerm("a"), "Z": _list_term(["a"])}]
    assert len(walked) == 1


def test_repr_matches_the_field_layout():
    assert repr(FunctorTerm("nil")) == "FunctorTerm(functor='nil', args=())"
    assert repr(FunctorTerm("s", (FunctorTerm("z"),))) == (
        "FunctorTerm(functor='s', args=(FunctorTerm(functor='z', args=()),))"
    )
    assert repr(FunctorTerm("pair", (FunctorTerm("1"), FunctorTerm("2")))) == (
        "FunctorTerm(functor='pair', args=(FunctorTerm(functor='1', args=()), "
        "FunctorTerm(functor='2', args=())))"
    )


def test_same_on_deep_terms():
    program = load_fixture("mixed.lp")
    deep = _list_text(["a"] * 5000)
    assert solve(program, parse_query(f"?- same({deep}, {deep}).")) == [{}]
    assert solve(program, parse_query(f"?- same({deep}, {_list_text(['a'] * 4999 + ['b'])}).")) == []


def test_app_and_rev_on_1000_elements():
    elements = [str(k % 7) for k in range(1000)]
    answers = solve(load_fixture("append.lp"), parse_query(f"?- app({_list_text(elements)}, nil, Z)."))
    assert answers == [{"Z": _list_term(elements)}]
    answers = solve(load_fixture("reverse.lp"), parse_query(f"?- rev({_list_text(elements)}, R)."))
    assert answers == [{"R": _list_term(elements[::-1])}]


def test_app_on_20000_elements_within_the_default_limit():
    elements = ["a", "b", "c", "d"] * 5000
    answers = solve(load_fixture("append.lp"), parse_query(f"?- app({_list_text(elements)}, cons(z,nil), Z)."))
    assert answers == [{"Z": _list_term(elements + ["z"])}]


def test_pick_on_20000_elements_is_linear_in_its_answers():
    # Each answer comes from a last call 1 to 20 000 levels deep, and
    # returns to the query in one step, not through every level above it.
    elements = [str(k) for k in range(20_000)]
    query = parse_query(f"?- pick({_list_text(elements)}, X).")
    start = time.perf_counter()
    answers = solve(load_fixture("pick.lp"), query)
    assert time.perf_counter() - start < 5.0
    assert [a["X"].functor for a in answers] == elements


def test_determinate_calls_leave_nothing_to_undo():
    # Every call of nrev and app selects its one matching clause, so no
    # choice point, and no bindings it could return to, outlive the call:
    # the peak stays far below the bindings of every body entered, which a
    # choice point per call would keep alive.
    program = parse_program((Path(__file__).parent.parent / "perfbench" / "nrev.lp").read_text())
    query = parse_query(f"?- nrev({_list_text(['a', 'b', 'c'] * 100)}, R).")
    tracemalloc.start()
    try:
        answers = solve(program, query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answers == [{"R": _list_term(["c", "b", "a"] * 100)}]
    assert peak < 2 * 2**20


def test_deep_query_parses_without_recursion():
    query = parse_query(f"?- app({_list_text(['a'] * 5000)}, nil, Z).")
    term = query.goal[0].args[0]
    depth = 0
    while term.args:
        term = term.args[1]
        depth += 1
    assert depth == 5000 and term.functor == "nil"
