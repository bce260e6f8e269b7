"""Interaction-set lattice and profile extraction unit tests."""

from __future__ import annotations

import random

import pytest

from argprof import (
    ASSIGN,
    PSI_BOT,
    TEST,
    ArgumentProfile,
    ConstructOp,
    DeconstructOp,
    InteractionSet,
    PsiOp,
    WellDefinednessError,
    bottom,
    canon_op,
    canon_profile,
    join_sets,
    leq_sets,
    make_interaction_set,
    make_oset,
    make_profile,
    strip_points,
)
from helpers import SetContext, iset

DECONS = DeconstructOp("cons", 2)
CONS = ConstructOp("cons", 2)

PSI_A = PsiOp(
    (
        ArgumentProfile((make_oset([DECONS, CONS, PSI_BOT], 3),)),
        ArgumentProfile((make_oset([ASSIGN, CONS, PSI_BOT], 3),)),
        ArgumentProfile(()),
    )
)


def app_inputs():
    return ["X", "Y"]


def one_pair(source, target, ops):
    """The set holding the single interaction ``source ~{ops}~> target``."""
    return make_interaction_set("app", app_inputs(), {(source, target): ops})


def test_join_interaction_into_empty():
    s = join_sets(one_pair("X", "E", {3: DECONS}), bottom("app", app_inputs()))
    assert s == iset("app", app_inputs(), [("X", "E", [(DECONS, 3)])])


def test_join_interaction_unions_points():
    base = iset("app", app_inputs(), [("Y", "Z", [(ASSIGN, 2)])])
    joined = join_sets(one_pair("Y", "Z", {4: PSI_BOT}), base)
    assert joined == iset("app", app_inputs(), [("Y", "Z", [(ASSIGN, 2), (PSI_BOT, 4)])])


def test_join_interaction_replaces_at_same_point():
    # Incremental replacement must agree with re-deriving the set from
    # scratch under the new operation at that point.
    before = iset("app", app_inputs(), [("X", "Z", [(PSI_BOT, 4)])])
    incremental = join_sets(one_pair("X", "Z", {4: PSI_A}), before)
    from_scratch = iset("app", app_inputs(), [("X", "Z", [(PSI_A, 4)])])
    assert incremental == from_scratch


def test_join_rejects_self_interaction():
    with pytest.raises(WellDefinednessError):
        one_pair("X", "X", {1: ASSIGN})


def test_join_rejects_input_argument_target():
    with pytest.raises(WellDefinednessError):
        one_pair("Z", "X", {1: ASSIGN})


def test_join_rejects_empty_operation_set():
    with pytest.raises(WellDefinednessError):
        one_pair("X", "Z", {})


def test_constructor_copies_op_dicts():
    ops = {3: DECONS}
    s = one_pair("X", "Z", ops)
    ops[4] = PSI_BOT
    assert s.get("X", "Z") == {3: DECONS}


def test_join_sets_bottom_is_unit():
    s = iset("app", app_inputs(), [("X", "Z", [(DECONS, 3)])])
    assert join_sets(bottom("app", app_inputs()), s) == s
    assert join_sets(s, bottom("app", app_inputs())) == s


def test_join_sets_idempotent():
    s = iset("app", app_inputs(), [("X", "Z", [(DECONS, 3)]), ("Y", "Z", [(ASSIGN, 2)])])
    assert join_sets(s, s) == s


def test_join_sets_distinct_targets():
    a = iset("app", app_inputs(), [("X", "E", [(DECONS, 3)])])
    b = iset("app", app_inputs(), [("X", "Es", [(DECONS, 3)])])
    joined = join_sets(a, b)
    assert joined == iset(
        "app", app_inputs(), [("X", "E", [(DECONS, 3)]), ("X", "Es", [(DECONS, 3)])]
    )


def test_join_sets_owner_mismatch():
    with pytest.raises(Exception):
        join_sets(bottom("p", []), bottom("q", []))


def test_leq_bottom_and_reflexive():
    s = iset("app", app_inputs(), [("X", "Z", [(DECONS, 3)])])
    assert leq_sets(bottom("app", app_inputs()), s)
    assert leq_sets(s, s)
    assert not leq_sets(s, bottom("app", app_inputs()))


def test_leq_iff_join_equals_right():
    rng = random.Random(99)
    for _ in range(100):
        ctx = SetContext(rng)
        a, b = ctx.random_set(rng), ctx.random_set(rng)
        assert leq_sets(a, b) == (join_sets(a, b) == b)


def test_insertion_order_independence():
    rng = random.Random(3)
    ctx = SetContext(rng)
    s = ctx.random_set(rng)
    pairs = list(s.pairs.items())
    for _ in range(10):
        rng.shuffle(pairs)
        rebuilt = bottom(ctx.owner, ctx.inputs)
        for pair, ops in pairs:
            rebuilt = join_sets(make_interaction_set(ctx.owner, ctx.inputs, {pair: ops}), rebuilt)
        assert rebuilt == s


def test_strip_points_app_fixpoint():
    s = iset(
        "app",
        app_inputs(),
        [
            ("X", "Z", [(DECONS, 3), (PSI_BOT, 4), (CONS, 5)]),
            ("Y", "Z", [(ASSIGN, 2), (PSI_BOT, 4), (CONS, 5)]),
        ],
    )
    profile = strip_points(s, ["X", "Y", "Z"])
    assert profile == (
        make_profile([make_oset([DECONS, CONS, PSI_BOT], 3)]),
        make_profile([make_oset([CONS, ASSIGN, PSI_BOT], 3)]),
        ArgumentProfile(()),
    )


def test_strip_points_empty():
    profile = strip_points(bottom("p", ["A"]), ["A", "B"])
    assert profile == (ArgumentProfile(()), ArgumentProfile(()))


def test_strip_points_concat_fixpoint():
    s = iset(
        "concat",
        ["B", "C"],
        [
            ("B", "A", [(DECONS, 3), (PSI_BOT, 4), (CONS, 5)]),
            ("C", "A", [(ASSIGN, 2), (PSI_BOT, 4), (CONS, 5)]),
        ],
    )
    profile = strip_points(s, ["A", "B", "C"])
    assert profile == (
        ArgumentProfile(()),
        make_profile([make_oset([DECONS, CONS, PSI_BOT], 1)]),
        make_profile([make_oset([CONS, ASSIGN, PSI_BOT], 1)]),
    )


def test_strip_points_keeps_multiplicity():
    s = iset("p", ["A"], [("A", "B", [(DECONS, 1), (DECONS, 5)])])
    profile = strip_points(s, ["A", "B"])
    assert profile[0].osets[0].ops == (DECONS, DECONS)


def test_strip_points_rejects_locals():
    s = iset("p", ["A"], [("A", "L", [(ASSIGN, 1)])])
    with pytest.raises(Exception):
        strip_points(s, ["A", "B"])


def test_strip_points_rejects_input_targets():
    # Built directly: the checked constructors never let an input target in.
    s = InteractionSet("p", frozenset({"A", "B"}), {("A", "B"): {1: ASSIGN}})
    with pytest.raises(WellDefinednessError):
        strip_points(s, ["A", "B"])


def test_canon_op_base_forms():
    assert canon_op(DECONS) == "deconstruct:cons/2"
    assert canon_op(CONS) == "construct:cons/2"
    assert canon_op(ASSIGN) == "assign"
    assert canon_op(TEST) == "test"
    assert canon_op(PSI_BOT) == "psi_bot"


def test_canon_psi_profile():
    expected = (
        "psi:[{(construct:cons/2,deconstruct:cons/2,psi_bot)->3}"
        "|{(assign,construct:cons/2,psi_bot)->3}|{}]"
    )
    assert canon_op(PSI_A) == expected


def test_canon_profile_sorts_osets_by_target():
    profile = make_profile([make_oset([CONS], 3), make_oset([ASSIGN], 2)])
    assert canon_profile(profile) == "{(assign)->2;(construct:cons/2)->3}"


def test_canon_injective_on_corpus():
    ops = [
        ASSIGN,
        TEST,
        PSI_BOT,
        DECONS,
        CONS,
        ConstructOp("cons", 3),
        ConstructOp("nil", 0),
        DeconstructOp("nil", 0),
        DeconstructOp("s", 1),
        PSI_A,
        PsiOp((ArgumentProfile(()),)),
        PsiOp((ArgumentProfile(()), ArgumentProfile(()))),
        PsiOp((ArgumentProfile((make_oset([ASSIGN], 2),)), ArgumentProfile(()))),
        PsiOp((ArgumentProfile((make_oset([ASSIGN, ASSIGN], 2),)), ArgumentProfile(()))),
    ]
    strings = [canon_op(op) for op in ops]
    assert len(set(strings)) == len(ops)


def test_oset_ops_sorted_canonically():
    oset = make_oset([PSI_BOT, DECONS, ASSIGN, CONS], 2)
    assert [canon_op(o) for o in oset.ops] == sorted(canon_op(o) for o in oset.ops)


def test_duplicate_targets_rejected():
    with pytest.raises(Exception):
        make_profile([make_oset([ASSIGN], 2), make_oset([CONS], 2)])
