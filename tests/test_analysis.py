"""Atomic/predicate analysis, closure, projection and driver tests.

Expected interaction sets for the append/concat/double-append programs
were derived by hand from the analysis rules; the closure tests are also
checked against an independent naive fixpoint oracle.
"""

from __future__ import annotations

import random
import time

import pytest

from argprof import (
    ASSIGN,
    PSI_BOT,
    ConstructOp,
    DeconstructOp,
    InteractionSet,
    PsiOp,
    analyze_atom,
    analyze_predicate,
    argument_profiles,
    bottom,
    canon_op,
    parse_query,
    initial_environment,
    leq_sets,
    oprof,
    parse_program,
    project,
    round_counts,
    run_analysis,
    strip_points,
    transitive_closure,
    validate_program,
)
from argprof import analysis
from argprof.interp import solve
from argprof.analysis import _components
from argprof.syntax import Assign, Call, Clause, Construct, Predicate, Program, Var, format_ground
from helpers import (
    SetContext,
    chain_source,
    count_calls,
    cyclic_long_clause_source,
    gen_mutual_source,
    gen_program_source,
    gen_recursive_source,
    iset,
    load_fixture,
    naive_closure,
    random_chained_set,
    random_cyclic_set,
    reference_analyze_predicate,
    reference_atom_set,
    reference_components,
    reference_programs,
    reference_run_analysis,
    reference_strongly_connected,
    rotating_recursion_source,
    wide_source,
)
from test_domain import CONS, DECONS, PSI_A

APP_INPUTS = ["X", "Y"]


def _app_program():
    return load_fixture("append.lp")


def _atoms(program, name):
    pred = program.predicates[name]
    return [a for c in pred.clauses for a in c.body]


# ---------------------------------------------------------------------------
# Atomic analysis
# ---------------------------------------------------------------------------


def test_atom_deconstruct_under_empty_env():
    program = _app_program()
    env = initial_environment(program)
    atom = _atoms(program, "app")[2]  # X => cons(E,Es) at point 3
    assert analyze_atom(atom, env, program) == iset(
        "app", APP_INPUTS, [("X", "E", [(DECONS, 3)]), ("X", "Es", [(DECONS, 3)])]
    )


def test_atom_construct_under_empty_env():
    program = _app_program()
    env = initial_environment(program)
    atom = _atoms(program, "app")[4]  # Z <= cons(E,Zs) at point 5
    assert analyze_atom(atom, env, program) == iset(
        "app", APP_INPUTS, [("E", "Z", [(CONS, 5)]), ("Zs", "Z", [(CONS, 5)])]
    )


def test_atom_recursive_call_under_empty_env():
    program = _app_program()
    env = initial_environment(program)
    atom = _atoms(program, "app")[3]  # app(Es,Y,Zs) at point 4
    assert analyze_atom(atom, env, program) == iset(
        "app", APP_INPUTS, [("Es", "Zs", [(PSI_BOT, 4)]), ("Y", "Zs", [(PSI_BOT, 4)])]
    )


def test_atom_assign():
    program = _app_program()
    env = initial_environment(program)
    atom = _atoms(program, "app")[1]  # Z := Y at point 2
    assert analyze_atom(atom, env, program) == iset("app", APP_INPUTS, [("Y", "Z", [(ASSIGN, 2)])])


def test_atom_test_is_empty():
    program = load_fixture("mixed.lp")
    env = initial_environment(program)
    atom = _atoms(program, "same")[0]
    assert analyze_atom(atom, env, program).is_empty()


def test_atom_recursive_call_renames_current_entry():
    # With app's environment entry set to {Y~{:=2,psi_bot4}Z,
    # X~{decons3,psi_bot4,cons5}Z}, the recursive call app(Es,Y,Zs) renames
    # X to Es and Z to Zs and merges the recursion placeholder at point 4.
    program = _app_program()
    env = initial_environment(program)
    env["app"] = iset(
        "app",
        APP_INPUTS,
        [
            ("Y", "Z", [(ASSIGN, 2), (PSI_BOT, 4)]),
            ("X", "Z", [(DECONS, 3), (PSI_BOT, 4), (CONS, 5)]),
        ],
    )
    atom = _atoms(program, "app")[3]
    assert analyze_atom(atom, env, program) == iset(
        "app",
        APP_INPUTS,
        [
            ("Y", "Zs", [(ASSIGN, 2), (PSI_BOT, 4)]),
            ("Es", "Zs", [(DECONS, 3), (PSI_BOT, 4), (CONS, 5)]),
        ],
    )


def test_atom_nonrecursive_call_uses_psi_profile():
    program = load_fixture("double_append.lp")
    env, _ = run_analysis(program)
    call_app = next(a for a in program.atoms() if a.point == 11)
    result = analyze_atom(call_app, env, program)
    ops_l1 = result.get("L1", "L12")
    assert ops_l1[11] == PSI_A
    # same abstraction at the concat call site
    call_concat = next(a for a in program.atoms() if a.point == 12)
    result2 = analyze_atom(call_concat, env, program)
    assert result2.get("L12", "L4")[12] == PSI_A


def test_atom_call_with_aliased_actuals_drops_self_edges():
    src = """
    :- pred q(in,out).
    q(A,B) :- B := A.
    :- pred p(in,out).
    p(X,Y) :- q(X,X), Y := X.
    """
    program = parse_program(src)
    env = initial_environment(program)
    env["q"] = iset("q", ["A"], [("A", "B", [(ASSIGN, 1)])])
    call = next(a for a in program.atoms() if a.point == 2)
    assert analyze_atom(call, env, program).is_empty()


def test_atom_drops_flow_from_a_variable_into_itself():
    # Only programs the mode checker rejects hold such atoms.
    program = parse_program(":- pred p(in,out). p(X,Y) :- L := L, L => f(L,M), N <= g(N,M), Y := X.")
    env = initial_environment(program)
    atoms = _atoms(program, "p")
    assert analyze_atom(atoms[0], env, program).is_empty()
    assert analyze_atom(atoms[1], env, program) == iset("p", ["X"], [("L", "M", [(DeconstructOp("f", 2), 2)])])
    assert analyze_atom(atoms[2], env, program) == iset("p", ["X"], [("M", "N", [(ConstructOp("g", 2), 3)])])


@pytest.mark.parametrize("group", ["fixtures", "corpus", "reversed-corpus", "wide", "chain", "mutual"])
def test_every_atom_matches_the_reference_atom_set(group):
    # The reference reads each atom's inputs and outputs off atom_flow and
    # builds its set with make_interaction_set, not through _add_atom.
    for program in reference_programs(group):
        env, _ = run_analysis(program)
        for atom in program.atoms():
            assert analyze_atom(atom, env, program) == reference_atom_set(atom, env, program), atom


# ---------------------------------------------------------------------------
# Transitive closure and projection
# ---------------------------------------------------------------------------


def test_closure_composes_through_local():
    s = iset("app", APP_INPUTS, [("Y", "Zs", [(ASSIGN, 2)]), ("Zs", "Z", [(CONS, 5)])])
    closed = transitive_closure(s)
    assert closed.get("Y", "Z") == {2: ASSIGN, 5: CONS}


def test_closure_of_empty_is_empty():
    assert transitive_closure(bottom("p", [])).is_empty()


def test_closure_chain_matches_naive_oracle():
    ops = [(ASSIGN, 1), (CONS, 2), (DECONS, 3)]
    s = iset(
        "p",
        ["A"],
        [("A", "B", [ops[0]]), ("B", "C", [ops[1]]), ("C", "D", [ops[2]])],
    )
    closed = transitive_closure(s)
    assert closed.get("A", "D") == {1: ASSIGN, 2: CONS, 3: DECONS}
    assert closed.pairs == naive_closure(s.pairs)


def test_closure_matches_naive_oracle_on_random_sets():
    rng = random.Random(42)
    for _ in range(60):
        ctx = SetContext(rng)
        s = ctx.random_set(rng)
        assert transitive_closure(s).pairs == naive_closure(s.pairs)


def test_closure_matches_naive_oracle_on_chained_sets():
    rng = random.Random(7)
    for _ in range(60):
        s = random_chained_set(rng)
        assert transitive_closure(s).pairs == naive_closure(s.pairs)


def test_project_of_displayed_round_one_set():
    # Projecting the first-round interaction display (recursion edges noted
    # directly on the formal arguments) onto app's arguments.
    s = iset(
        "app",
        APP_INPUTS,
        [
            ("Y", "Z", [(ASSIGN, 2)]),
            ("X", "E", [(DECONS, 3)]),
            ("X", "Es", [(DECONS, 3)]),
            ("X", "Z", [(PSI_BOT, 4)]),
            ("Y", "Z", [(PSI_BOT, 4)]),
            ("E", "Z", [(CONS, 5)]),
            ("Zs", "Z", [(CONS, 5)]),
        ],
    )
    program = _app_program()
    projected = project(s, program.predicates["app"])
    assert projected == iset(
        "app",
        APP_INPUTS,
        [
            ("Y", "Z", [(ASSIGN, 2), (PSI_BOT, 4)]),
            ("X", "Z", [(DECONS, 3), (PSI_BOT, 4), (CONS, 5)]),
        ],
    )


def test_project_drops_local_only_interactions():
    s = iset("app", APP_INPUTS, [("L1", "L2", [(ASSIGN, 1)])])
    program = _app_program()
    assert project(s, program.predicates["app"]).is_empty()


def test_project_double_append_pre_projection():
    program = load_fixture("double_append.lp")
    pre = iset(
        "dapp",
        ["L1", "L2", "L3"],
        [
            ("L1", "L12", [(DECONS, 3), (PSI_BOT, 4), (CONS, 5), (PSI_A, 11)]),
            ("L2", "L12", [(ASSIGN, 2), (PSI_BOT, 4), (CONS, 5), (PSI_A, 11)]),
            ("L12", "L4", [(DECONS, 8), (PSI_BOT, 9), (CONS, 10), (PSI_A, 12)]),
            ("L3", "L4", [(ASSIGN, 7), (PSI_BOT, 9), (CONS, 10), (PSI_A, 12)]),
        ],
    )
    projected = project(pre, program.predicates["dapp"])
    assert projected == _expected_dapp_fixpoint()


def test_projection_soundness_on_fixtures():
    for name in ("append.lp", "double_append.lp", "reverse.lp", "mixed.lp"):
        program = load_fixture(name)
        env, _ = run_analysis(program)
        for pname, s in env.items():
            pred = program.predicates[pname]
            formals = set(pred.arg_names)
            outputs = pred.output_arg_names()
            for source, target in s.pairs:
                assert source in formals and target in formals
                assert target in outputs


def _over_arguments(s):
    """A predicate ``p`` whose arguments are the ``A`` variables of ``s``."""
    args = sorted({v for pair in s.pairs for v in pair if v.startswith("A")} | s.input_args)
    modes = tuple("in" if a in s.input_args else "out" for a in args)
    return Predicate("p", modes, tuple(Var(a) for a in args), (Clause(()),))


def test_project_matches_naive_oracle_on_random_sets(monkeypatch):
    # The chained sets sometimes loop back into an output argument; those
    # are projected too, with no clause closed, and agree with the naive
    # closure.
    closes = count_calls(monkeypatch, analysis.transitive_closure)
    rng = random.Random(11)
    sets = [random_chained_set(rng) for _ in range(60)]
    sets += [SetContext(rng).random_set(rng) for _ in range(60)]
    for s in sets:
        pred = _over_arguments(s)
        formals = set(pred.arg_names)
        expected = {pair: ops for pair, ops in naive_closure(s.pairs).items() if set(pair) <= formals}
        assert project(s, pred).pairs == expected
    assert not closes


# ---------------------------------------------------------------------------
# Predicate analysis
# ---------------------------------------------------------------------------


def _expected_app_fixpoint():
    return iset(
        "app",
        APP_INPUTS,
        [
            ("X", "Z", [(DECONS, 3), (PSI_BOT, 4), (CONS, 5)]),
            ("Y", "Z", [(ASSIGN, 2), (PSI_BOT, 4), (CONS, 5)]),
        ],
    )


def _expected_dapp_fixpoint():
    full = [
        (DECONS, 3),
        (PSI_BOT, 4),
        (CONS, 5),
        (PSI_A, 11),
        (DECONS, 8),
        (PSI_BOT, 9),
        (CONS, 10),
        (PSI_A, 12),
    ]
    return iset(
        "dapp",
        ["L1", "L2", "L3"],
        [
            ("L1", "L4", full),
            ("L2", "L4", [(ASSIGN, 2)] + full[1:]),
            ("L3", "L4", [(ASSIGN, 7), (PSI_BOT, 9), (CONS, 10), (PSI_A, 12)]),
        ],
    )


def test_predicate_analysis_first_round():
    # Under the empty environment the recursion edges land on Es/Y ~> Zs,
    # so the closure already threads the construction at point 5 into both
    # argument flows: the first round is the fixpoint.
    program = _app_program()
    env = initial_environment(program)
    result = analyze_predicate(program.predicates["app"], env, program)
    assert result == _expected_app_fixpoint()


def test_predicate_analysis_second_round_reaches_fixpoint():
    # Starting from the round-one display (no construction on the second
    # argument yet), one more round closes Y ~> Zs ~> Z and stabilizes.
    program = _app_program()
    env = initial_environment(program)
    env["app"] = iset(
        "app",
        APP_INPUTS,
        [
            ("Y", "Z", [(ASSIGN, 2), (PSI_BOT, 4)]),
            ("X", "Z", [(DECONS, 3), (PSI_BOT, 4), (CONS, 5)]),
        ],
    )
    result = analyze_predicate(program.predicates["app"], env, program)
    assert result == _expected_app_fixpoint()


def test_predicate_with_only_test_atom_is_bottom():
    program = load_fixture("mixed.lp")
    env = initial_environment(program)
    assert analyze_predicate(program.predicates["same"], env, program).is_empty()


def test_clause_join_order_irrelevant():
    from argprof import join_sets

    program = _app_program()
    env = initial_environment(program)
    pred = program.predicates["app"]
    clause_sets = []
    for clause in pred.clauses:
        acc = bottom("app", APP_INPUTS)
        for atom in clause.body:
            acc = join_sets(analyze_atom(atom, env, program), acc)
        clause_sets.append(project(acc, pred))
    forward = join_sets(clause_sets[0], clause_sets[1])
    backward = join_sets(clause_sets[1], clause_sets[0])
    assert forward == backward == analyze_predicate(pred, env, program)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def test_run_analysis_app_only():
    program = _app_program()
    env, trace = run_analysis(program)
    assert env["app"] == _expected_app_fixpoint()
    changing, total = round_counts(trace)["app"]
    assert changing == 1 and total == 2  # one growing round, one confirming


def test_clauses_built_by_hand_share_their_predicate_head():
    # Two clauses of p(X,Y) under (in,out), built by hand: each is read
    # with the predicate's one head, so the analysis keeps the flow of
    # both, as solve answers with both, and the program is the one parsed.
    x, y = Var("X"), Var("Y")
    clauses = (Clause((Assign(1, 2, 11, y, x),), 2, 1), Clause((Construct(2, 3, 11, y, "f", (x,)),), 3, 1))
    program = Program({"p": Predicate("p", ("in", "out"), (x, y), clauses, 1, 1)})
    assert program == parse_program(":- pred p(in,out).\np(X,Y) :- Y := X.\np(X,Y) :- Y <= f(X).\n")
    assert validate_program(program).ok()
    env, _ = run_analysis(program)
    assert env["p"] == iset("p", ["X"], [("X", "Y", [(ASSIGN, 1), (ConstructOp("f", 1), 2)])])
    answers = solve(program, parse_query("?- p(a, Z)."))
    assert [format_ground(a["Z"]) for a in answers] == ["a", "f(a)"]


def test_run_analysis_concat_only():
    program = load_fixture("concat.lp")
    env, _ = run_analysis(program)
    assert env["concat"] == iset(
        "concat",
        ["B", "C"],
        [
            ("B", "A", [(DECONS, 3), (PSI_BOT, 4), (CONS, 5)]),
            ("C", "A", [(ASSIGN, 2), (PSI_BOT, 4), (CONS, 5)]),
        ],
    )


def test_run_analysis_double_append():
    program = load_fixture("double_append.lp")
    env, _ = run_analysis(program)
    assert env["dapp"] == _expected_dapp_fixpoint()


def test_psi_canonical_string_stable_across_call_sites():
    program = load_fixture("double_append.lp")
    env, _ = run_analysis(program)
    ops = env["dapp"].get("L1", "L4")
    assert canon_op(ops[11]) == canon_op(ops[12])
    # a further analysis round leaves the abstraction untouched
    again = analyze_predicate(program.predicates["dapp"], env, program)
    assert again == env["dapp"]


def test_driver_is_deterministic():
    program = load_fixture("double_append.lp")
    env1, trace1 = run_analysis(program)
    env2, trace2 = run_analysis(program)
    assert env1 == env2
    assert [(t.round, t.predicate, t.changed) for t in trace1] == [
        (t.round, t.predicate, t.changed) for t in trace2
    ]
    assert [t.predicate for t in trace1][:2] == ["app", "app"]  # lexicographic pick


def test_driver_discharges_predicates_already_at_fixpoint():
    # 'same' analyzes to the empty set immediately; the driver must still
    # discharge it and move on.
    program = load_fixture("mixed.lp")
    env, trace = run_analysis(program)
    assert env["same"].is_empty()
    counts = round_counts(trace)
    assert counts["same"] == (0, 1)


def test_inner_loop_monotone():
    for name in ("double_append.lp", "reverse.lp", "mixed.lp"):
        program = load_fixture(name)
        _, trace = run_analysis(program)
        previous = {}
        for entry in trace:
            if entry.predicate in previous:
                assert leq_sets(previous[entry.predicate], entry.snapshot)
            previous[entry.predicate] = entry.snapshot


HALF = """
:- pred half(in,out).
half(X,Y) :- X => z, Y := X.
half(X,Y) :- X => s(X1), hodd(X1,Y1), Y <= s(Y1).
:- pred hodd(in,out).
hodd(X,Y) :- X => s(X1), half(X1,Y).
"""


def test_mutual_recursion_analyzes_to_the_components_fixpoint():
    # half and hodd call each other: each call is psi_bot and renames the
    # callee's current entry, so each predicate's pair holds the points of
    # both.
    program = parse_program(HALF)
    env, trace = run_analysis(program)
    every = [(ASSIGN, 2), (DeconstructOp("s", 1), 3), (PSI_BOT, 4), (ConstructOp("s", 1), 5),
             (DeconstructOp("s", 1), 6), (PSI_BOT, 7)]
    assert env == {"half": iset("half", ["X"], [("X", "Y", every)]),
                   "hodd": iset("hodd", ["X"], [("X", "Y", every)])}
    assert env == reference_run_analysis(program)[0]
    # half, then hodd, until hodd confirms half's last change, which is
    # then recorded as half's confirming round.
    assert [(t.round, t.predicate, t.changed) for t in trace] == [
        (1, "half", True), (2, "hodd", True), (3, "half", True), (4, "hodd", False), (5, "half", False)
    ]


def test_driver_takes_components_callee_first():
    # p and q call each other, and q calls b; r waits on p, and s on r. Of
    # the components eligible after b, {a} goes before {p, q} by least
    # member. Inside {p, q}, q, which calls p, comes after it; p's last
    # round changed it, and q confirmed that, so p's confirming round is
    # recorded.
    src = """
    :- pred s(in,out). s(X,Y) :- r(X,Y).
    :- pred r(in,out). r(X,Y) :- p(X,Y), a(X,Z).
    :- pred p(in,out). p(X,Y) :- q(X,Y).
    :- pred q(in,out). q(X,Y) :- p(X,Z), b(Z,Y). q(X,Y) :- Y <= f(X).
    :- pred a(in,out). a(X,Y) :- b(X,Y).
    :- pred b(in,out). b(X,Y) :- Y := X.
    """
    program = parse_program(src)
    assert validate_program(program).ok()
    env, trace = run_analysis(program)
    assert [(t.predicate, t.changed) for t in trace] == [
        ("b", True), ("b", False), ("a", True), ("a", False),
        ("p", True), ("q", True), ("p", True), ("q", False), ("p", False),
        ("r", True), ("r", False), ("s", True), ("s", False),
    ]
    assert env == reference_run_analysis(program)[0]


def test_driver_order_matches_reference_on_a_shuffled_call_dag():
    # 400 predicates declared in random order; each of the upper 300 calls
    # one or two of those below it, so the eligible set changes on every
    # step and its first predicate by name is seldom the next declared.
    rng = random.Random(7)
    names = [f"p{i}" for i in range(400)]
    lines = []
    for i, name in enumerate(names):
        calls = rng.sample(names[:i], min(i, rng.randint(1, 2))) if i >= 100 else []
        body = "".join(f"{q}(X,Z{k}), " for k, q in enumerate(calls))
        lines.append(f":- pred {name}(in,out). {name}(X,Y) :- {body}Y := X.")
    rng.shuffle(lines)
    program = parse_program("\n".join(lines))
    _, trace = run_analysis(program)
    _, ref_trace = reference_run_analysis(program)
    assert [(t.round, t.predicate, t.snapshot, t.changed) for t in trace] == ref_trace


def test_driver_scales_to_thousands_of_predicates():
    # A relapse guard against rescanning every remaining predicate on each
    # step, which took about 7 s on a 2-core machine; the heap takes about
    # 0.1 s. The predicates call nothing, so the reference driver takes them
    # by name, each in two rounds; its own scan is quadratic, so its trace
    # is built directly.
    names = [f"p{i}" for i in range(4000)]
    program = parse_program("".join(f":- pred {n}(in,out).\n{n}(X,Y) :- Y := X.\n" for n in names))
    start = time.perf_counter()
    _, trace = run_analysis(program)
    assert time.perf_counter() - start < 1.0
    env = initial_environment(program)
    expected = []
    for name in sorted(names):
        new = reference_analyze_predicate(program.predicates[name], env, program)
        expected += [(len(expected) + 1, name, new, True), (len(expected) + 2, name, new, False)]
    assert [(t.round, t.predicate, t.snapshot, t.changed) for t in trace] == expected


def _assert_bound_per_component(program, trace):
    """Test 07's bound on changing rounds, summed over each component."""
    counts = round_counts(trace)
    for scc in reference_strongly_connected(program.call_graph):
        changing = sum(counts[name][0] for name in scc)
        bound = sum((len(program.predicates[name].body_points()) + 1)
                    * program.predicates[name].arity * (program.predicates[name].arity - 1) for name in scc)
        assert changing <= bound, f"{sorted(scc)}: {changing} > {bound}"


def test_mutual_programs_match_the_reference_environment():
    # Calls may go to any predicate. The reference iterates each component
    # from scratch, its members together, until none changes; the driver's
    # worklist reaches the same least fixpoint in fewer rounds.
    mutual = 0
    for program in reference_programs("mutual"):
        assert validate_program(program).ok()
        env, trace = run_analysis(program)
        assert env == reference_run_analysis(program)[0]
        _assert_bound_per_component(program, trace)
        mutual += any(len(scc) > 1 for scc in reference_strongly_connected(program.call_graph))
    assert mutual > 50


def test_termination_and_bound_on_random_programs():
    rng = random.Random(1234)
    for _ in range(40):
        program = parse_program(gen_program_source(rng))
        assert validate_program(program).ok()
        _, trace = run_analysis(program)
        counts = round_counts(trace)
        for name, (changing, _) in counts.items():
            pred = program.predicates[name]
            n = pred.arity
            bound = (len(pred.body_points()) + 1) * n * (n - 1)
            assert changing <= bound, f"{name}: {changing} > {bound}"


def test_clauseless_predicate_analyzes_to_bottom():
    program = parse_program(":- pred p(in,out).")
    env, trace = run_analysis(program)
    assert env["p"].is_empty()
    assert round_counts(trace)["p"] == (0, 1)


def test_call_with_repeated_input_actuals_merges_renamed_edges():
    src = """
    :- pred mk(in,in,out).
    mk(A,B,C) :- C <= pair(A,B).
    :- pred dup(in,out).
    dup(V,W) :- mk(V,V,W).
    """
    program = parse_program(src)
    env, _ = run_analysis(program)
    ((pair, points),) = env["dup"].pairs.items()
    assert pair == ("V", "W")
    assert set(points) == {1, 2}
    assert points[1] == ConstructOp("pair", 2)
    assert isinstance(points[2], PsiOp)


# ---------------------------------------------------------------------------
# The driver against the reference analysis (join_sets folds, naive closure)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "group", ["fixtures", "corpus", "reversed-corpus", "wide", "chain", "rotating", "recursive"]
)
def test_run_analysis_matches_reference_analysis(group, monkeypatch):
    # Each round of the reference closes every clause from scratch; the
    # driver projects clauses onto their arguments, carries their atom and
    # call sets across rounds, joins into a later round only what grew,
    # and does not compute the confirming round of a predicate that never
    # calls itself. The traces agree entry by entry all the same, and the
    # driver analyzes exactly the rounds it does not skip. No clause is
    # closed.
    closes = count_calls(monkeypatch, analysis.transitive_closure)
    calls = count_calls(monkeypatch, analysis.analyze_predicate)
    for program in reference_programs(group):
        calls.clear()
        env, trace = run_analysis(program)
        ref_env, ref_trace = reference_run_analysis(program)
        assert env == ref_env
        assert [(t.round, t.predicate, t.snapshot, t.changed) for t in trace] == ref_trace
        confirming = [name for name, (_, total) in round_counts(trace).items()
                      if name not in program.call_graph[name] and total == 2]
        assert len(calls) == len(ref_trace) - len(confirming)
    assert not closes


def _trace_tuples(trace):
    return [(t.round, t.predicate, t.snapshot, t.changed) for t in trace]


def test_semi_naive_rounds_match_rounds_computed_afresh(monkeypatch):
    # Without its state, analyze_predicate projects every clause afresh,
    # which the reference checks above cover on the small sizes; here the
    # rotating family runs at n = 200, where only the projection can.
    programs = [parse_program(rotating_recursion_source(k, 200)) for k in (4, 8, 16)]
    rng = random.Random(2727)
    programs += [parse_program(gen_recursive_source(rng)) for _ in range(150)]
    with monkeypatch.context() as m:
        analyze = analysis.analyze_predicate
        m.setattr(
            analysis,
            "analyze_predicate",
            lambda pred, env, program, psi_ops=None, state=None: analyze(pred, env, program, psi_ops),
        )
        afresh = [run_analysis(p) for p in programs]
    for program, (ref_env, ref_trace) in zip(programs, afresh):
        env, trace = run_analysis(program)
        assert env == ref_env
        assert _trace_tuples(trace) == _trace_tuples(ref_trace)


def _rounds_adding_a_pair(program, trace, env):
    """Over each clause with a self-call and each round after the first,
    the number of rounds whose renamed set gave the clause a pair that its
    atom and call sets lacked the round before, counted with analyze_atom."""
    added = 0
    initial = initial_environment(program)
    for name, pred in program.predicates.items():
        snapshots = [initial[name]] + [t.snapshot for t in trace if t.predicate == name]
        for clause in pred.clauses:
            if not any(isinstance(a, Call) and a.pred == name for a in clause.body):
                continue
            keys = [
                set().union(*(analyze_atom(a, {**env, name: s}, program).pairs for a in clause.body))
                for s in snapshots[:-1]
            ]
            added += sum(new != old for old, new in zip(keys, keys[1:]))
    return added


@pytest.mark.parametrize("family", ["rotating", "recursive"])
def test_a_clause_is_projected_again_only_when_it_gains_a_pair(family, monkeypatch):
    # A structural guard, with no timing in it: the reachability masks of a
    # clause are computed in its first round and again only in a round
    # that adds it a pair. A round that only grows pairs joins what grew
    # over the masks it kept. The rotating family never adds a pair after
    # the first round.
    if family == "rotating":
        programs = [parse_program(rotating_recursion_source(k, n)) for k in (4, 8, 16) for n in (1, 20)]
    else:
        rng = random.Random(2728)
        programs = [parse_program(gen_recursive_source(rng)) for _ in range(150)]
        programs.append(parse_program(HAND_WRITTEN["self-call output through another output"]))
    total_added = 0
    for program in programs:
        with monkeypatch.context() as m:
            projections = count_calls(m, analysis._formal_flow)
            env, trace = run_analysis(program)
        added = _rounds_adding_a_pair(program, trace, env)
        clauses = sum(len(pred.clauses) for pred in program.predicates.values())
        assert len(projections) == clauses + added
        total_added += added
    if family == "rotating":
        assert total_added == 0
        assert [len(trace) for trace in (run_analysis(p)[1] for p in programs)] == [5, 5, 9, 9, 17, 17]
    else:
        assert total_added > 100


# In q, one clause gives Y ~> Z and the other Z ~> Y, so the output
# arguments of p and r lie on a flow cycle. The closure composes no walk
# through its own start (B ~> C ~> B), so a pair (C, B) joins (B, C) only
# through another variable on a walk from B to C; no clause is closed.
CYCLIC_OUTPUTS = """
:- pred q(in,out,out).
q(X,Y,Z) :- Y := X, Z := Y.
q(X,Y,Z) :- Z := X, Y := Z.
:- pred p(in,out,out).
p(A,B,C) :- q(A,B,C).
:- pred r(in,out,out,out).
r(A,B,C,D) :- q(A,B,C), D := B.
"""

HAND_WRITTEN = {
    "local cycle off the head": """
:- pred c(in,out).
c(X,Y) :- L := X, M := L, L := M, N <= s(M), Y := N.
""",
    "dead strands": """
:- pred d(in,in,out).
d(X,W,Y) :- D := X, E <= s(D), F => pair(G,H), K := W, K == D, Y := X.
""",
    "nil producers": """
:- pred n(in,out,out).
n(X,Y,Z) :- N <= nil, Y <= cons(X,N), M <= nil, Z := M.
""",
    # A reaches the head only through B, by the Y ~> Z that the first
    # round adds to s's set.
    "self-call output through another output": """
:- pred s(in,out,out).
s(X,Y,Z) :- Y <= nil, T <= s(Y), Z <= pair(X,T).
s(X,Y,Z) :- X => cons(E,Es), s(Es,A,B), Y := E, Z <= cons(E,B).
""",
}


def _assert_matches_reference(program):
    env, trace = run_analysis(program)
    ref_env, ref_trace = reference_run_analysis(program)
    assert env == ref_env
    assert [(t.round, t.predicate, t.snapshot, t.changed) for t in trace] == ref_trace


def test_arguments_on_a_flow_cycle_match_reference_analysis(monkeypatch):
    closes = count_calls(monkeypatch, analysis.transitive_closure)
    _assert_matches_reference(parse_program(CYCLIC_OUTPUTS))
    assert not closes


def test_project_matches_naive_oracle_on_cyclic_sets():
    # Sets whose arguments often lie on flow cycles. A pair (z, x) of two
    # arguments joins (x, z) only through a third variable; the sets where
    # no walk passes one, so that (x, z) lacks an operation of (z, x), are
    # counted too.
    rng = random.Random(23)
    on_cycle = lacking = 0
    for _ in range(800):
        s = random_cyclic_set(rng)
        pred = _over_arguments(s)
        formals = set(pred.arg_names)
        expected = {pair: ops for pair, ops in naive_closure(s.pairs).items() if set(pair) <= formals}
        assert project(s, pred).pairs == expected
        on_cycle += any((z, x) in expected for x, z in expected)
        lacking += any(
            (x, z) in expected and not ops.items() <= expected[(x, z)].items()
            for (z, x), ops in s.pairs.items()
            if {x, z} <= formals
        )
    assert on_cycle > 300 and lacking > 25


def test_chain_into_cyclic_outputs_matches_reference_analysis():
    _assert_matches_reference(parse_program(cyclic_long_clause_source(20)))


def test_long_clause_into_cyclic_outputs_analyzes_quickly():
    # A relapse guard against closing a clause whose arguments lie on a flow
    # cycle, not a measurement: projecting this clause takes about 10 ms,
    # closing it took over a second at n = 100.
    program = parse_program(cyclic_long_clause_source(2_000))
    start = time.perf_counter()
    env, _ = run_analysis(program)
    assert time.perf_counter() - start < 1.0
    assert set(env["p"].pairs) == {("A", "B"), ("A", "C"), ("B", "C"), ("C", "B")}
    assert len(env["p"].pairs[("A", "B")]) == 2_001 + 4  # every point of p and of q


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_clauses_match_reference_analysis(name, monkeypatch):
    closes = count_calls(monkeypatch, analysis.transitive_closure)
    _assert_matches_reference(parse_program(HAND_WRITTEN[name]))
    assert not closes


def test_call_sites_and_rounds_share_one_call_abstraction():
    # On chain k=6 every call site of p_i, in every round's snapshot, holds
    # the one PsiOp built when p_{i-1} was discharged.
    program = parse_program(chain_source(6))
    _, trace = run_analysis(program)
    for name, pred in program.predicates.items():
        points = {a.point for c in pred.clauses for a in c.body
                  if isinstance(a, Call) and a.pred != name}
        ops = [op for entry in trace if entry.predicate == name
               for sited in entry.snapshot.pairs.values() for pt, op in sited.items() if pt in points]
        assert all(isinstance(op, PsiOp) for op in ops)
        assert len(ops) >= 2 * len(points)
        assert len({id(op) for op in ops}) == (1 if points else 0), name


def test_kept_profiles_serve_only_the_argument_order_they_were_built_for():
    program = parse_program(
        ":- pred p(in,in,out).\np(X,Y,Z) :- X => cons(H,T), Z <= pair(H,Y).\n"
    )
    env, _ = run_analysis(program)
    pred, s = program.predicates["p"], env["p"]
    fresh = InteractionSet(s.owner, s.input_args, dict(s.pairs))

    def built_afresh(names):
        profile = strip_points(s, names)
        ordered = oprof(profile)
        return profile, ordered.profiles, ordered.permutation

    profile, ordered = argument_profiles(pred, s)
    assert (profile, ordered.profiles, ordered.permutation) == built_afresh(pred.arg_names)
    assert argument_profiles(pred, s)[1] is ordered
    # The kept value is neither part of the set's value nor of its text.
    assert s == fresh and repr(s) == repr(fresh)
    # Under another argument order the set is stripped and ordered afresh.
    clause = pred.clauses[0]
    swapped = Predicate("p", ("in", "in", "out"), (Var("Y"), Var("X"), Var("Z")), (Clause(clause.body),))
    other, other_ordered = argument_profiles(swapped, s)
    assert (other, other_ordered.profiles, other_ordered.permutation) == built_afresh(("Y", "X", "Z"))
    assert other != profile


def test_wide_recursive_clause_analyzes_quickly():
    # A relapse guard against a quadratic or exponential closure or join,
    # not a measurement: projecting its clauses takes well under 0.1 s here.
    program = parse_program(wide_source(random.Random(3), 16, 200))
    start = time.perf_counter()
    run_analysis(program)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# The call graph's components
# ---------------------------------------------------------------------------


def _assert_components(graph):
    """Kosaraju's components are Tarjan's, each member but the first calls
    one listed before it, and each node's callers are listed in the graph's
    order."""
    order, callers = _components(graph)
    assert sorted(map(sorted, order)) == sorted(map(sorted, reference_strongly_connected(graph))), graph
    for scc in order:
        place = {m: k for k, m in enumerate(scc)}
        assert all(any(place.get(q, k) < k for q in graph[m]) for k, m in enumerate(scc) if k), scc
    rank = {p: k for k, p in enumerate(graph)}
    assert sorted((q, p) for p in callers for q in callers[p]) == sorted((q, p) for q in graph for p in graph[q])
    assert all(sorted(qs, key=rank.__getitem__) == qs for qs in callers.values())
    return order


def test_components_come_in_the_reference_order_on_random_graphs():
    # Self-loops, isolated nodes and insertion orders that differ from the
    # sorted order all occur; the order must equal the reference's.
    rng = random.Random(33)
    for _ in range(5_000):
        names = [f"p{k}" for k in range(rng.randint(1, 14))]
        rng.shuffle(names)
        density = rng.uniform(0, 0.4)
        graph = {a: frozenset(b for b in names if rng.random() < density) for a in names}
        assert list(map(set, _assert_components(graph))) == reference_components(graph), graph


@pytest.mark.parametrize("ring", [True, False], ids=["ring", "chain"])
def test_components_of_a_deep_graph(ring):
    # p_k calls p_(k+1): the chain's components come from its far end, and
    # the ring's one component lists each member after the one it calls.
    n = 20_000
    graph = {f"p{k}": frozenset([f"p{(k + 1) % n}"] if ring or k + 1 < n else []) for k in range(n)}
    order = _assert_components(graph)
    if ring:
        assert order == [["p0"] + [f"p{k}" for k in range(n - 1, 0, -1)]]
    else:
        assert order == [[f"p{k}"] for k in range(n - 1, -1, -1)]


def test_driver_takes_components_in_the_reference_order():
    # Random call graphs over random programs: the components of the
    # trace's predicates, by first round, come in the reference order.
    rng = random.Random(36)
    for _ in range(200):
        program = parse_program(gen_mutual_source(rng))
        _, trace = run_analysis(program)
        expected = [frozenset(scc) for scc in reference_components(program.call_graph)]
        component = {name: scc for scc in expected for name in scc}
        assert list(dict.fromkeys(component[t.predicate] for t in trace)) == expected
