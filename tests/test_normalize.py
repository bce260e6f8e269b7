"""Normalization planning, rewriting and profile-equivalence tests."""

from __future__ import annotations

import random

import pytest

from argprof import (
    Call,
    Distinct,
    Equivalent,
    PlanError,
    canon_profile_seq,
    compare,
    format_program,
    parse_program,
    plan,
    rewrite,
    run_analysis,
    solve,
    validate_program,
)
from argprof.normalize import ordered_profile_of
from argprof.syntax import cone
from helpers import (
    FIXTURES,
    TIE_FREE_FIXTURES,
    answer_multiset,
    fixture_names,
    gen_input_term,
    load_fixture,
    reference_canon_profile,
)


def _analyzed(name: str):
    program = load_fixture(name)
    env, _ = run_analysis(program)
    return program, env


def test_plan_double_append():
    program, env = _analyzed("double_append.lp")
    normalization = plan(program, env)
    assert normalization == {
        "app": (1, 2, 3),
        "concat": (2, 3, 1),
        "dapp": (1, 2, 3, 4),
    }


def test_rewrite_concat_heads_and_calls():
    program, env = _analyzed("double_append.lp")
    rewritten = rewrite(program, plan(program, env))
    out = format_program(rewritten)
    assert ":- pred concat(in,in,out)." in out
    assert "concat(B,C,A) :- B => nil, A := C." in out
    assert "concat(B,C,A) :- B => cons(I,Is), concat(Is,C,As), A <= cons(I,As)." in out
    # append is untouched, the double-append call site is permuted
    assert "app(X,Y,Z) :- X => nil, Z := Y." in out
    assert "dapp(L1,L2,L3,L4) :- app(L1,L2,L12), concat(L12,L3,L4)." in out


def test_rewrite_identity_plan_is_structural_identity():
    program, _ = _analyzed("append.lp")
    identity = {"app": (1, 2, 3)}
    assert rewrite(program, identity) == program


def test_rewrite_call_site_permutation():
    program, env = _analyzed("double_append.lp")
    rewritten = rewrite(program, plan(program, env))
    call = next(
        a
        for a in rewritten.atoms()
        if isinstance(a, Call) and a.pred == "concat" and rewritten.owner_of_point(a.point) == "dapp"
    )
    assert tuple(v.name for v in call.args) == ("L12", "L3", "L4")


def test_rewrite_keeps_every_point():
    # The last program's declarations are grouped above clauses written in
    # another order.
    sources = [(FIXTURES / name).read_text() for name in fixture_names()]
    sources.append(
        ":- pred q(in,out).\n:- pred p(in,out).\np(X,Y) :- Y := X.\nq(X,Y) :- p(X,Z), Y := Z.\n"
    )
    for source in sources:
        program = parse_program(source)
        env, _ = run_analysis(program)
        rewritten = rewrite(program, plan(program, env))
        placed = [(a.point, a.line, a.col) for a in program.atoms()]
        assert [(a.point, a.line, a.col) for a in rewritten.atoms()] == placed
        for name, pred in program.predicates.items():
            sub = cone(program, [name])
            for point in pred.body_points():
                assert program.owner_of_point(point) == rewritten.owner_of_point(point) == sub.owner_of_point(point) == name


def test_rewrite_missing_predicate_rejected():
    program, _ = _analyzed("append.lp")
    with pytest.raises(PlanError):
        rewrite(program, {})


def test_rewritten_program_still_validates():
    for name in TIE_FREE_FIXTURES:
        program, env = _analyzed(name)
        rewritten = rewrite(program, plan(program, env))
        assert validate_program(rewritten).ok(), name


def test_normalization_idempotent():
    for name in TIE_FREE_FIXTURES + ["split.lp"]:
        program, env = _analyzed(name)
        rewritten = rewrite(program, plan(program, env))
        env2, _ = run_analysis(rewritten)
        second = plan(rewritten, env2)
        for pred, perm in second.items():
            assert perm == tuple(range(1, len(perm) + 1)), (name, pred, perm)
        assert format_program(rewrite(rewritten, second)) == format_program(rewritten)


def test_analysis_invariant_under_rewrite():
    for name in TIE_FREE_FIXTURES:
        program, env = _analyzed(name)
        rewritten = rewrite(program, plan(program, env))
        env2, _ = run_analysis(rewritten)
        for pname in program.predicates:
            before = ordered_profile_of(program.predicates[pname], env).profiles
            after = ordered_profile_of(rewritten.predicates[pname], env2).profiles
            assert canon_profile_seq(before) == canon_profile_seq(after), (name, pname)


def test_compare_app_concat_equivalent():
    program, env = _analyzed("double_append.lp")
    verdict = compare(program.predicates["app"], program.predicates["concat"], env)
    assert isinstance(verdict, Equivalent)
    assert verdict.mapping == {1: 2, 2: 3, 3: 1}


def test_compare_reflexive_identity():
    program, env = _analyzed("append.lp")
    verdict = compare(program.predicates["app"], program.predicates["app"], env)
    assert isinstance(verdict, Equivalent)
    assert verdict.mapping == {1: 1, 2: 2, 3: 3}


def test_compare_arity_mismatch():
    program, env = _analyzed("double_append.lp")
    verdict = compare(program.predicates["app"], program.predicates["dapp"], env)
    assert isinstance(verdict, Distinct)
    assert verdict.reason == "arity mismatch (3 vs 4)"
    assert verdict.arities == (3, 4) and verdict.position is verdict.profiles is None


def test_compare_same_shape_different_functors():
    # Peano addition recurses exactly like append but over s/z, so the
    # profiles must differ in the functor-labeled operations.
    src = load_fixture("append.lp")
    add = load_fixture("nat_add.lp")
    combined = parse_program(format_program(src) + "\n" + format_program(add))
    env, _ = run_analysis(combined)
    verdict = compare(combined.predicates["app"], combined.predicates["add"], env)
    assert isinstance(verdict, Distinct)
    assert verdict.position == 1
    # The verdict keeps the two differing ordered profiles; its reason is
    # their canonical text.
    a, b = verdict.profiles
    assert a == ordered_profile_of(combined.predicates["app"], env).profiles[0]
    assert b == ordered_profile_of(combined.predicates["add"], env).profiles[0]
    assert verdict.reason == (
        f"ordered profiles differ at position 1: {reference_canon_profile(a)} vs {reference_canon_profile(b)}"
    )


def test_compare_is_equivalence_on_fixture():
    combined = parse_program(
        format_program(load_fixture("double_append.lp"))
        + "\n"
        + format_program(load_fixture("nat_add.lp"))
    )
    env, _ = run_analysis(combined)
    preds = list(combined.predicates.values())
    for p in preds:
        assert isinstance(compare(p, p, env), Equivalent)
    for p in preds:
        for q in preds:
            pq = compare(p, q, env)
            qp = compare(q, p, env)
            assert isinstance(pq, Equivalent) == isinstance(qp, Equivalent)
            for r in preds:
                if isinstance(pq, Equivalent) and isinstance(compare(q, r, env), Equivalent):
                    assert isinstance(compare(p, r, env), Equivalent)


# ---------------------------------------------------------------------------
# Semantics preservation (small-scale; the full sweep is in acceptance)
# ---------------------------------------------------------------------------


def test_rewritten_concat_answers_match():
    from argprof.parse import Query
    from argprof.syntax import Var

    program, env = _analyzed("concat.lp")
    normalization = plan(program, env)
    rewritten = rewrite(program, normalization)
    rng = random.Random(5)
    perm = normalization["concat"]
    for _ in range(30):
        front, back = gen_input_term(rng), gen_input_term(rng)
        args = (Var("A"), _to_q(front), _to_q(back))
        original = solve(program, Query((Call(0, 0, 0, "concat", args),)))
        permuted_args = tuple(args[orig - 1] for orig in perm)
        normalized = solve(rewritten, Query((Call(0, 0, 0, "concat", permuted_args),)))
        assert answer_multiset(original) == answer_multiset(normalized)


def _to_q(term):
    from argprof.syntax import FunctorTerm

    return FunctorTerm(term.functor, tuple(_to_q(a) for a in term.args))
