"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them)
and asserts its criterion at the stated tolerance.

Tests 02 and 03 assert original reference expectations for the append
predicate's intermediate analysis round that are inconsistent with the
atomic-analysis and closure rules asserted by test 01 and the unit suite:
under those rules the first round already composes the construction at
point 5 into the second argument's flow, so the expected intermediate
value and the two-changing-rounds count are not reproducible by any
implementation of the stated rules. Both are kept as strict expected
failures rather than silently weakened; the behavior the rules force is
asserted in test_analysis.py.
"""

from __future__ import annotations

import random
import time

import pytest

from argprof import (
    ASSIGN,
    PSI_BOT,
    analyze_atom,
    analyze_predicate,
    bottom,
    canon_profile_seq,
    compare,
    format_program,
    initial_environment,
    join_sets,
    leq_sets,
    parse_program,
    plan,
    rewrite,
    round_counts,
    run_analysis,
    solve,
    validate_program,
)
from argprof.normalize import Equivalent, ordered_profile_of
from argprof.parse import Query
from argprof.syntax import Call, FunctorTerm, Var
from helpers import (
    SetContext,
    TIE_FREE_FIXTURES,
    answer_multiset,
    fixture_names,
    gen_input_term,
    gen_program_source,
    iset,
    load_fixture,
)
from test_domain import CONS, DECONS


def _report(num: int, name: str, ok: bool, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")


def _timed(fn, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


APP_INPUTS = ["X", "Y"]


def test_01_atomic_analysis_reference():
    program = load_fixture("append.lp")
    env = initial_environment(program)
    atoms = {a.point: a for a in program.atoms()}
    expected = {
        3: iset("app", APP_INPUTS, [("X", "E", [(DECONS, 3)]), ("X", "Es", [(DECONS, 3)])]),
        5: iset("app", APP_INPUTS, [("E", "Z", [(CONS, 5)]), ("Zs", "Z", [(CONS, 5)])]),
        4: iset("app", APP_INPUTS, [("Es", "Zs", [(PSI_BOT, 4)]), ("Y", "Zs", [(PSI_BOT, 4)])]),
    }
    results = {pt: analyze_atom(atoms[pt], env, program) for pt in (3, 5, 4)}
    ok = results == expected
    elapsed = _timed(lambda: [analyze_atom(atoms[pt], env, program) for pt in (3, 5, 4)])
    _report(1, "atomic-analysis-reference", ok and elapsed < 0.001, f"{elapsed * 1e6:.0f}us")
    assert results == expected
    assert elapsed < 0.001


@pytest.mark.xfail(
    strict=True,
    reason="reference table for the first analysis round omits the construct "
    "operation that the transitive closure composes into the second "
    "argument's flow (second argument ~> local ~> output); the rules "
    "pinned by test 01 force points {2,4,5} here, not {2,4}",
)
def test_02_first_round_reference():
    program = load_fixture("append.lp")
    env = initial_environment(program)
    result = analyze_predicate(program.predicates["app"], env, program)
    expected = iset(
        "app",
        APP_INPUTS,
        [
            ("Y", "Z", [(ASSIGN, 2), (PSI_BOT, 4)]),
            ("X", "Z", [(DECONS, 3), (PSI_BOT, 4), (CONS, 5)]),
        ],
    )
    _report(2, "first-round-reference", result == expected, "expected failure, see module docstring")
    assert result == expected


@pytest.mark.xfail(
    strict=True,
    reason="the first round already reaches the fixpoint under the analysis "
    "rules (see test 02), so convergence takes one changing round, not two",
)
def test_03_fixpoint_reference():
    program = load_fixture("append.lp")
    env, trace = run_analysis(program)
    expected = iset(
        "app",
        APP_INPUTS,
        [
            ("X", "Z", [(DECONS, 3), (PSI_BOT, 4), (CONS, 5)]),
            ("Y", "Z", [(ASSIGN, 2), (PSI_BOT, 4), (CONS, 5)]),
        ],
    )
    value_ok = env["app"] == expected
    stable = analyze_predicate(program.predicates["app"], env, program) == env["app"]
    changing, _ = round_counts(trace)["app"]
    _report(
        3,
        "fixpoint-reference",
        value_ok and stable and changing == 2,
        f"value {'ok' if value_ok else 'WRONG'}, stable {'ok' if stable else 'WRONG'}, "
        f"{changing} changing round(s) where the reference says 2",
    )
    assert value_ok
    assert stable
    assert changing == 2


def test_04_clone_reordering():
    program = load_fixture("double_append.lp")
    env, _ = run_analysis(program)
    app, concat = program.predicates["app"], program.predicates["concat"]
    same_profile = canon_profile_seq(ordered_profile_of(app, env).profiles) == (
        canon_profile_seq(ordered_profile_of(concat, env).profiles)
    )
    rewritten = format_program(rewrite(program, plan(program, env)))
    heads_ok = (
        "concat(B,C,A) :- B => nil, A := C." in rewritten
        and "concat(B,C,A) :- B => cons(I,Is), concat(Is,C,As), A <= cons(I,As)." in rewritten
        and "app(X,Y,Z) :- X => nil, Z := Y." in rewritten
        and "app(X,Y,Z) :- X => cons(E,Es), app(Es,Y,Zs), Z <= cons(E,Zs)." in rewritten
    )
    verdict = compare(app, concat, env)
    witness_ok = isinstance(verdict, Equivalent) and verdict.mapping == {1: 2, 2: 3, 3: 1}
    ok = same_profile and heads_ok and witness_ok
    _report(4, "clone-reordering", ok)
    assert same_profile
    assert heads_ok
    assert witness_ok


def test_05_double_append_reference():
    from test_analysis import _expected_dapp_fixpoint

    program = load_fixture("double_append.lp")
    env, _ = run_analysis(program)
    exact = env["dapp"] == _expected_dapp_fixpoint()
    ops = env["dapp"].get("L1", "L4")
    from argprof import canon_op

    psi_stable = canon_op(ops[11]) == canon_op(ops[12])
    elapsed = _timed(lambda: run_analysis(program))
    ok = exact and psi_stable and elapsed < 0.050
    _report(5, "double-append-reference", ok, f"{elapsed * 1e3:.1f}ms")
    assert exact
    assert psi_stable
    assert elapsed < 0.050


def test_06_lattice_laws():
    rng = random.Random(0xA11CE)
    failures = 0
    trials = 1000
    for _ in range(trials):
        ctx = SetContext(rng)
        a, b, c = ctx.random_set(rng), ctx.random_set(rng), ctx.random_set(rng)
        empty = bottom(ctx.owner, ctx.inputs)
        ab = join_sets(a, b)
        laws = (
            join_sets(a, a) == a,
            ab == join_sets(b, a),
            join_sets(a, join_sets(b, c)) == join_sets(join_sets(a, b), c),
            join_sets(empty, a) == a and join_sets(a, empty) == a,
            leq_sets(a, b) == (ab == b),
            leq_sets(a, ab) and leq_sets(b, ab),
        )
        if not all(laws):
            failures += 1
    _report(6, "lattice-laws", failures == 0, f"{trials} triples, {failures} failures")
    assert failures == 0


def test_07_convergence_and_bound():
    rng = random.Random(0xBEEF)
    start = time.perf_counter()
    programs = 200
    violations = []
    for k in range(programs):
        program = parse_program(gen_program_source(rng))
        assert validate_program(program).ok()
        _, trace = run_analysis(program)  # halting is the criterion
        for name, (changing, _) in round_counts(trace).items():
            pred = program.predicates[name]
            n = pred.arity
            limit = (len(pred.body_points()) + 1) * n * (n - 1)
            if changing > limit:
                violations.append((k, name, changing, limit))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 30.0
    _report(7, "convergence-and-bound", ok, f"{programs} programs in {elapsed:.1f}s")
    assert not violations, violations
    assert elapsed < 30.0


def test_08_permutation_invariance():
    rng = random.Random(0xFACADE)
    checked = 0
    mismatches = []
    for name in TIE_FREE_FIXTURES:
        program = load_fixture(name)
        env, _ = run_analysis(program)
        baseline = {
            p: canon_profile_seq(ordered_profile_of(program.predicates[p], env).profiles)
            for p in program.predicates
        }
        for pname, pred in program.predicates.items():
            for _ in range(8):
                perm = list(range(1, pred.arity + 1))
                rng.shuffle(perm)
                shuffle_plan = {
                    other: tuple(range(1, program.predicates[other].arity + 1))
                    for other in program.predicates
                }
                shuffle_plan[pname] = tuple(perm)
                permuted = rewrite(program, shuffle_plan)
                env2, _ = run_analysis(permuted)
                after = canon_profile_seq(
                    ordered_profile_of(permuted.predicates[pname], env2).profiles
                )
                checked += 1
                if after != baseline[pname]:
                    mismatches.append((name, pname, tuple(perm)))
    ok = checked >= 100 and not mismatches
    _report(8, "permutation-invariance", ok, f"{checked} pairs, {len(mismatches)} mismatches")
    assert checked >= 100
    assert not mismatches, mismatches


def _query_for(pred, rng) -> tuple[Query, tuple]:
    args: list = []
    outs = 0
    for mode in pred.modes:
        if mode == "in":
            args.append(_to_qterm(gen_input_term(rng)))
        else:
            outs += 1
            args.append(Var(f"O{outs}"))
    return Query((Call(0, 0, 0, pred.name, tuple(args)),)), tuple(args)


def _to_qterm(term):
    return FunctorTerm(term.functor, tuple(_to_qterm(a) for a in term.args))


def _outcome(program, query):
    from argprof import StepLimitExceeded

    try:
        return answer_multiset(solve(program, query, max_steps=300_000))
    except StepLimitExceeded:
        return "step-limit"


def test_09_normalization_soundness():
    rng = random.Random(0xC0FFEE)
    queries = 50
    mismatches = []
    total = 0
    for name in fixture_names():
        program = load_fixture(name)
        env, _ = run_analysis(program)
        normalization = plan(program, env)
        normalized = rewrite(program, normalization)
        for pname, pred in program.predicates.items():
            perm = normalization[pname]
            for _ in range(queries):
                query, args = _query_for(pred, rng)
                permuted = Query((Call(0, 0, 0, pname, tuple(args[orig - 1] for orig in perm)),))
                total += 1
                if _outcome(program, query) != _outcome(normalized, permuted):
                    mismatches.append((name, pname, query))
    ok = not mismatches
    _report(9, "normalization-soundness", ok, f"{total} queries, {len(mismatches)} mismatches")
    assert not mismatches, mismatches[:3]


def test_10_normalization_idempotent():
    bad = []
    for name in fixture_names():
        program = load_fixture(name)
        env, _ = run_analysis(program)
        normalized = rewrite(program, plan(program, env))
        env2, _ = run_analysis(normalized)
        second = plan(normalized, env2)
        for pname, perm in second.items():
            if perm != tuple(range(1, len(perm) + 1)):
                bad.append((name, pname, perm))
    _report(10, "normalization-idempotent", not bad)
    assert not bad, bad
