"""Mode-correctness validation tests."""

from __future__ import annotations

import random

import pytest

import helpers
from argprof import (
    format_ground,
    parse_program,
    parse_query,
    run_analysis,
    syntax,
    validate_modes,
    validate_program,
)
from argprof.interp import SolveError, solve
from argprof.modecheck import BOUND, NOT_VAR, REPEATED, UNBOUND, bind_passing, mode_faults
from argprof.parse import SourceError
from argprof.syntax import (
    Assign,
    Call,
    Clause,
    Construct,
    Deconstruct,
    FunctorTerm,
    Predicate,
    Program,
    Var,
    atom_flow,
)
from helpers import (
    count_calls,
    fixture_names,
    gen_program_source,
    load_fixture,
    mutated_sources,
    query_sources,
    reference_programs,
    reference_validate_modes,
    reversed_bodies,
)


FLOW = """\
:- pred q(in,out,in,out,in).
:- pred p(in,out).
p(X,Y) :- X => pair(A,A), B <= f(A,X), B == X, C := B, q(C,D,A,E,C), Y := D.
"""


@pytest.mark.parametrize(
    "index, inputs, outputs",
    [
        (0, ["X"], ["A", "A"]),  # deconstruct: V into each Yi
        (1, ["A", "X"], ["B"]),  # construct: each Yi into V
        (2, ["B", "X"], []),  # test: consumes both, produces nothing
        (3, ["B"], ["C"]),  # assign: W into V
        (4, ["C", "A", "C"], ["D", "E"]),  # call: by the callee's modes
    ],
)
def test_atom_flow(index, inputs, outputs):
    program = parse_program(FLOW)
    atom = program.predicates["p"].clauses[0].body[index]
    ins, outs = atom_flow(atom, program.predicates)
    assert ([v.name for v in ins], [v.name for v in outs]) == (inputs, outputs)


def test_atom_flow_rejects_a_non_atom():
    with pytest.raises(TypeError):
        atom_flow(object(), {})


@pytest.mark.parametrize("name", fixture_names())
def test_fixtures_are_valid(name):
    report = validate_program(load_fixture(name))
    assert report.ok(), report.render(name)


def test_use_before_bind():
    program = parse_program(":- pred p(in,out). p(X,Y) :- Y := Z.")
    report = validate_modes(program)
    assert [v.message for v in report.violations] == ["Z unbound at point 1"]


def test_double_bind():
    program = parse_program(":- pred p(in,out). p(X,Y) :- Y := X, Y := X.")
    report = validate_modes(program)
    assert [v.message for v in report.violations] == ["Y already bound at point 2"]


def test_unbound_output_at_clause_end():
    program = parse_program(":- pred p(in,out). p(X,Y) :- X => nil.")
    report = validate_modes(program)
    assert len(report.violations) == 1
    assert "output argument Y" in report.violations[0].message


def test_output_head_arg_used_as_input():
    program = parse_program(":- pred p(in,out). p(X,Y) :- X == Y, Y := X.")
    report = validate_modes(program)
    assert any("Y unbound at point 1" == v.message for v in report.violations)


def test_repeated_output_in_one_atom():
    program = parse_program(":- pred p(in,out). p(X,Y) :- X => cons(E,E), Y := E.")
    report = validate_modes(program)
    assert any("E already bound at point 1" == v.message for v in report.violations)


def test_call_modes_respected():
    src = """
    :- pred q(in,out).
    q(A,B) :- B := A.
    :- pred p(in,out).
    p(X,Y) :- q(Y,X).
    """
    report = validate_modes(parse_program(src))
    messages = {v.message for v in report.violations}
    assert "Y unbound at point 2" in messages
    assert "X already bound at point 2" in messages


def test_call_violations_in_argument_order():
    # A call's checks of its inputs and of its bound outputs are made in
    # argument order, as the interpreter makes them when it enters the
    # call: here a bound output comes before an unbound input. Only a
    # repeated output, raised on return, is listed after them.
    src = """
    :- pred q(out,in).
    :- pred p(in,out).
    p(X,Y) :- q(X,Y).
    """
    report = validate_modes(parse_program(src))
    assert [v.message for v in report.violations] == ["X already bound at point 1", "Y unbound at point 1"]


def test_mode_faults_of_each_kind():
    predicates = parse_program(":- pred q(out,in,out,out,out).").predicates
    query = parse_query("?- q(f(a), g(X), B, Y, Y).")
    (atom,) = query.goal
    ins, outs = atom_flow(atom, predicates)
    faults = mode_faults(atom, ins, outs, {"B"}, predicates, query.nonground)
    assert [(format_ground(t), kind) for t, kind in faults] == [
        ("f(a)", NOT_VAR),
        ("g(X)", UNBOUND),
        ("B", BOUND),
        ("Y", REPEATED),
    ]
    faults = mode_faults(atom, ins, outs, {"X"}, predicates, query.nonground)
    assert [format_ground(t) for t, _ in faults] == ["f(a)", "Y"]


def test_report_rendering():
    program = parse_program(":- pred p(in,out). p(X,Y) :- Y := Z.")
    rendered = validate_modes(program).render("prog.lp")
    assert rendered == "prog.lp:1:30: error: Z unbound at point 1"


def test_acyclic_chain_accepted():
    src = """
    :- pred r(in).
    r(X) :- X => nil.
    :- pred q(in).
    q(X) :- r(X).
    :- pred p(in).
    p(X) :- q(X).
    """
    assert validate_program(parse_program(src)).ok()


def test_generated_programs_are_mode_correct():
    rng = random.Random(7)
    for _ in range(40):
        program = parse_program(gen_program_source(rng))
        report = validate_program(program)
        assert report.ok(), report.render()


def test_fact_with_output_argument_flagged():
    program = parse_program(":- pred p(in,out). p(X,Y).")
    report = validate_modes(program)
    assert len(report.violations) == 1
    assert "output argument Y" in report.violations[0].message


def test_clauseless_predicate_validates():
    assert validate_program(parse_program(":- pred p(in,out).")).ok()


# ---------------------------------------------------------------------------
# The per-class fast path against the walk over every atom
# ---------------------------------------------------------------------------


def _outcome(check, program):
    """The rendered report of ``check`` on ``program``, or the exception it raised."""
    try:
        return check(program).render()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_matches_walk(programs):
    for program in programs:
        assert _outcome(validate_modes, program) == _outcome(reference_validate_modes, program)


def test_fast_mode_check_matches_the_walk_on_well_moded_programs():
    programs = [p for group in ("fixtures", "corpus", "wide", "chain") for p in reference_programs(group)]
    assert all(validate_modes(p).ok() for p in programs)
    _assert_matches_walk(programs)


def test_fast_mode_check_matches_the_walk_on_reversed_bodies(monkeypatch):
    # A reversed body consumes names before it produces them, so the walk
    # finds every fault kind that a parsed atom of each class can show.
    kinds = set()

    def recorded(atom, *args):
        faults = mode_faults(atom, *args)
        kinds.update((type(atom).__name__, kind) for _, kind in faults)
        return faults

    monkeypatch.setattr(helpers, "mode_faults", recorded)
    _assert_matches_walk(reversed_bodies(p) for group in ("fixtures", "corpus") for p in reference_programs(group))
    assert kinds == {
        (cls, kind) for cls in ("Deconstruct", "Construct", "Assign", "Call") for kind in (UNBOUND, BOUND)
    } | {("Test", UNBOUND)}


# Each fault a parsed atom can show, per class, output repetition included.
ILL_MODED = [
    ":- pred p(in,out). p(X,Y) :- X => cons(E,E), Y := E.",
    ":- pred p(in,out). p(X,Y) :- X => cons(X,E), Y := E.",
    ":- pred p(in,out). p(X,Y) :- Z => cons(E,F), Y := E.",
    ":- pred p(in,out). p(X,Y) :- Y <= cons(X,Z).",
    ":- pred p(in,out). p(X,Y) :- X <= cons(Y,Y), Y := X.",
    ":- pred p(in,out). p(X,Y) :- Y := X, Y := X.",
    ":- pred p(in,out). p(X,Y) :- X == Z, Y := X.",
    ":- pred q(in,out,out). q(A,B,C) :- B := A, C := A. :- pred p(in,out). p(X,Y) :- q(X,Z,Z), Y := Z.",
    ":- pred q(in,out,out). q(A,B,C) :- B := A, C := A. :- pred p(in,out). p(X,Y) :- q(Z,X,Y).",
    ":- pred q(out,in). :- pred p(in,out). p(X,Y) :- q(X,Y).",
    ":- pred r(in,out,in). :- pred p(in,out). p(X,Y) :- r(X,Y,Y).",
]


def _hand_built() -> list[Program]:
    """Programs the parser cannot produce: a term that is not a variable in
    each argument position of each atom class."""
    x, y, z = Var("X"), Var("Y"), Var("Z")
    a, fx = FunctorTerm("a"), FunctorTerm("f", (x,))
    bodies = [
        (Assign(1, 1, 9, y, a),),
        (Assign(1, 1, 9, a, x), Assign(2, 1, 19, y, x)),
        (Deconstruct(1, 1, 9, fx, "g", (z,)), Assign(2, 1, 19, y, z)),
        (Deconstruct(1, 1, 9, x, "g", (a, z)), Assign(2, 1, 19, y, z)),
        (Construct(1, 1, 9, y, "g", (x, fx)),),
        (Construct(1, 1, 9, a, "g", (x,)), Assign(2, 1, 19, y, x)),
        (syntax.Test(1, 1, 9, x, a), Assign(2, 1, 19, y, x)),
        (Call(1, 1, 9, "q", (a, y)),),
        (Call(1, 1, 9, "q", (x, fx)), Assign(2, 1, 19, y, x)),
    ]
    q = Predicate("q", ("in", "out"), (x, y), ())
    return [Program({"p": Predicate("p", ("in", "out"), (x, y), (Clause(body),)), "q": q}) for body in bodies]


def test_fast_mode_check_matches_the_walk_on_mutated_programs():
    programs = []
    for source in mutated_sources():
        try:
            programs.append(parse_program(source))
        except SourceError:
            pass
    programs += [parse_program(source) for source in ILL_MODED]
    assert not any(validate_modes(p).ok() for p in programs[-len(ILL_MODED):])
    _assert_matches_walk(programs)


def test_a_term_in_a_clause_atom_is_reported_not_raised():
    # The walk, which binds only variables' names, raises on each of these.
    # The check reports the term, and the interpreter raises the same text
    # when it reaches the atom.
    terms = ["a", "a", "f(X)", "a", "f(X)", "a", "a", "a", "f(X)"]
    for program, term in zip(_hand_built(), terms, strict=True):
        assert _outcome(reference_validate_modes, program).startswith("AttributeError")
        message = f"{term} is not a variable at point 1"
        assert validate_program(program).render("hand.lp") == f"hand.lp:1:9: error: {message}"
        for arg in ("a", "f(a)", "g(a, b)"):
            try:
                answers = solve(program, parse_query(f"?- p({arg}, Y)."))
            except SolveError as exc:
                assert str(exc) == message
            else:
                assert answers == []  # X => g(a,Z) fails on another functor
    # The names a term holds are bound after its atom, so no fault follows.
    x, y, w = Var("X"), Var("Y"), Var("W")
    body = (Call(1, 1, 9, "q", (x, FunctorTerm("f", (w,)))), Assign(2, 1, 19, y, w))
    q = Predicate("q", ("in", "out"), (x, y), ())
    program = Program({"p": Predicate("p", ("in", "out"), (x, y), (Clause(body),)), "q": q})
    assert validate_modes(program).render() == "<input>:1:9: error: f(W) is not a variable at point 1"


def test_a_passing_atom_is_not_walked(monkeypatch):
    faults = count_calls(monkeypatch, mode_faults)
    flows = count_calls(monkeypatch, atom_flow)
    for program in reference_programs("corpus") + reference_programs("wide"):
        assert validate_program(program).ok()
        run_analysis(program)
    assert not faults and not flows


def _assert_one_rule(atoms, bound, predicates, nonground=None):
    """Walk ``atoms`` from the names ``bound``: ``bind_passing`` must pass
    each atom exactly when ``mode_faults`` lists nothing for it, and then
    give its ``atom_flow`` and bind its outputs."""
    for atom in atoms:
        ins, outs = atom_flow(atom, predicates)
        faults = mode_faults(atom, ins, outs, bound, predicates, nonground)
        passed, flows = set(bound), []
        failed = bind_passing(iter((atom,)), passed, predicates, nonground, flows)
        assert (failed is None) == (not faults), atom
        if failed is None:
            assert flows == [(ins, outs)] and passed == bound | {t.name for t in outs}
        bound |= {name for t in ins + outs for name in syntax.term_names(t)}


def test_bind_passing_passes_exactly_the_atoms_without_faults():
    # The one rule of which atoms pass, that the check and the interpreter
    # share, against the walk that names every fault: on clause atoms,
    # hand-built atoms that hold terms, and query atoms with nested terms.
    programs = [parse_program(source) for source in ILL_MODED] + _hand_built()
    for source in mutated_sources():
        try:
            programs.append(parse_program(source))
        except SourceError:
            pass
    for program in programs:
        for pred in program.predicates.values():
            for clause in pred.clauses:
                _assert_one_rule(clause.body, set(pred.input_arg_names()), program.predicates)
    program = parse_program(":- pred p(in,in,out).\np(A,B,C) :- C := A.\n")
    queries = 0
    for source in query_sources():
        try:
            query = parse_query(source)
        except SourceError:
            continue
        _assert_one_rule(query.goal, set(), program.predicates, query.nonground)
        queries += 1
    assert queries > 2000


def test_compiling_passing_atoms_walks_no_faults(monkeypatch):
    # The interpreter compiles by the same rule: where every atom passes,
    # neither mode_faults nor atom_flow is called.
    faults = count_calls(monkeypatch, mode_faults)
    flows = count_calls(monkeypatch, atom_flow)
    program = load_fixture("double_append.lp")
    answers = solve(program, parse_query("?- dapp(cons(a,nil), cons(b,nil), cons(c,nil), Z)."))
    assert answers and not faults and not flows
    with pytest.raises(SolveError):
        solve(program, parse_query("?- dapp(cons(a,nil), X, nil, Z)."))
    assert len(faults) == len(flows) == 1
