"""Feature extraction, the profile order and the ordered-profile operator."""

from __future__ import annotations

from argprof import (
    ASSIGN,
    PSI_BOT,
    ArgumentProfile,
    ConstructOp,
    DeconstructOp,
    PsiOp,
    canon_profile_seq,
    compare_profiles,
    features,
    make_oset,
    make_profile,
    oprof,
    run_analysis,
    strip_points,
)
from helpers import load_fixture

DECONS = DeconstructOp("cons", 2)
CONS = ConstructOp("cons", 2)

ALPHA_X = make_profile([make_oset([DECONS, CONS, PSI_BOT], 3)])
ALPHA_Y = make_profile([make_oset([CONS, ASSIGN, PSI_BOT], 3)])
EMPTY = ArgumentProfile(())

PSI_A = PsiOp(
    (
        make_profile([make_oset([DECONS, CONS, PSI_BOT], 3)]),
        make_profile([make_oset([ASSIGN, CONS, PSI_BOT], 3)]),
        EMPTY,
    )
)


def test_features_of_app_first_argument():
    assert features(ALPHA_X) == (1, 3, 1, 1, 1, 0)


def test_features_of_empty_profile():
    assert features(EMPTY) == (0, 0, 0, 0, 0, 0)


def test_features_of_dapp_second_argument():
    # Point-stripped multiset of the second double-append argument:
    # {assign, psi_bot, construct, psi_a, deconstruct, construct, psi_bot, psi_a}
    alpha = make_profile(
        [make_oset([ASSIGN, PSI_BOT, CONS, PSI_A, DECONS, CONS, PSI_BOT, PSI_A], 4)]
    )
    assert features(alpha) == (1, 8, 4, 2, 1, 1)


def test_psi_payloads_are_opaque():
    nested = PsiOp((make_profile([make_oset([ASSIGN, CONS, DECONS], 2)]),))
    alpha = make_profile([make_oset([nested], 2)])
    assert features(alpha) == (1, 1, 1, 0, 0, 0)


def test_compare_app_arguments():
    # First difference is the deconstruction count (1 vs 0), positive, so
    # the first argument's profile sorts before the second's.
    assert compare_profiles(ALPHA_X, ALPHA_Y) == -1
    assert compare_profiles(ALPHA_Y, ALPHA_X) == 1


def test_compare_equal_profiles():
    assert compare_profiles(ALPHA_X, ALPHA_X) == 0


def test_nonempty_sorts_before_empty():
    assert compare_profiles(ALPHA_X, EMPTY) == -1
    assert compare_profiles(EMPTY, ALPHA_Y) == 1


def test_feature_tie_broken_by_canonical_string():
    a = make_profile([make_oset([ConstructOp("cons", 2)], 2)])
    b = make_profile([make_oset([ConstructOp("pair", 2)], 2)])
    assert features(a) == features(b)
    assert compare_profiles(a, b) == -1  # "construct:cons/2" < "construct:pair/2"


def _analyzed_profile(fixture: str, name: str):
    program = load_fixture(fixture)
    env, _ = run_analysis(program)
    pred = program.predicates[name]
    return oprof(strip_points(env[name], pred.arg_names))


def test_oprof_app():
    ordered = _analyzed_profile("append.lp", "app")
    assert ordered.permutation == (1, 2, 3)
    assert ordered.profiles == (ALPHA_X, ALPHA_Y, EMPTY)


def test_oprof_concat_matches_app():
    app = _analyzed_profile("append.lp", "app")
    concat = _analyzed_profile("concat.lp", "concat")
    assert concat.permutation == (2, 3, 1)
    assert canon_profile_seq(concat.profiles) == canon_profile_seq(app.profiles)
    assert concat.profiles == app.profiles


def test_oprof_dapp_order():
    # Applying the feature order by hand to the four double-append
    # profiles: the first argument beats the second on deconstructions
    # (2 vs 1), the third has only 4 operations, the fourth is empty.
    ordered = _analyzed_profile("double_append.lp", "dapp")
    assert ordered.permutation == (1, 2, 3, 4)
    fvs = [features(p) for p in ordered.profiles]
    assert fvs == [
        (1, 8, 4, 2, 2, 0),
        (1, 8, 4, 2, 1, 1),
        (1, 4, 2, 1, 0, 1),
        (0, 0, 0, 0, 0, 0),
    ]


def test_oprof_remaps_targets_to_new_positions():
    # concat's interactions target its first argument, which sorts last, so
    # every o-set target becomes 3 after reordering.
    concat = _analyzed_profile("concat.lp", "concat")
    targets = [o.target for p in concat.profiles for o in p.osets]
    assert targets == [3, 3]


def test_oprof_keeps_empty_profiles():
    concat = _analyzed_profile("concat.lp", "concat")
    assert len(concat.profiles) == 3
    assert concat.profiles[2] == EMPTY


def test_oprof_idempotent():
    ordered = _analyzed_profile("double_append.lp", "dapp")
    again = oprof(ordered.profiles)
    assert again.permutation == (1, 2, 3, 4)
    assert again.profiles == ordered.profiles


def test_oprof_stable_on_ties():
    ordered = oprof((EMPTY, EMPTY, EMPTY))
    assert ordered.permutation == (1, 2, 3)


def test_ordered_profiles_nondecreasing():
    for fixture, name in [
        ("append.lp", "app"),
        ("concat.lp", "concat"),
        ("double_append.lp", "dapp"),
        ("reverse.lp", "rev_acc"),
    ]:
        ordered = _analyzed_profile(fixture, name)
        for a, b in zip(ordered.profiles, ordered.profiles[1:]):
            assert compare_profiles(a, b) <= 0
