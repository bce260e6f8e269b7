"""The structural profile order against the string key it replaced.

``helpers.reference_sort_key`` builds each profile's whole canonical string;
``compare_profiles``, ``oprof`` and ``make_oset`` build none. They must
agree on every permutation, every o-set's op order and every comparison,
including where one text is a proper prefix of another."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argprof import (
    ASSIGN,
    PSI_BOT,
    TEST,
    ConstructOp,
    DeconstructOp,
    PsiOp,
    canon_op,
    canon_profile,
    compare_profiles,
    make_oset,
    make_profile,
    oprof,
    parse_program,
    run_analysis,
    strip_points,
)
from argprof.domain import cmp_canon_op, cmp_canon_profile
from helpers import (
    chain_source,
    fixture_names,
    gen_program_source,
    load_fixture,
    reference_canon_op,
    reference_sort_key,
)


def _sign(a, b) -> int:
    return (a > b) - (a < b)


def _programs(group: str):
    if group == "fixtures":
        return [load_fixture(name) for name in fixture_names()]
    if group == "corpus":  # the test-07 corpus
        rng = random.Random(0xBEEF)
        return [parse_program(gen_program_source(rng)) for _ in range(200)]
    return [parse_program(chain_source(k)) for k in range(1, 8)]


@pytest.mark.parametrize("group", ["fixtures", "corpus", "chain"])
def test_permutations_and_op_order_match_string_key(group):
    checked = 0
    for program in _programs(group):
        env, _ = run_analysis(program)
        for name, pred in program.predicates.items():
            per_arg = strip_points(env[name], pred.arg_names)
            ordered = oprof(per_arg)
            keys = [reference_sort_key(p) for p in per_arg]
            expected = sorted(range(len(keys)), key=keys.__getitem__)
            assert ordered.permutation == tuple(i + 1 for i in expected), name
            for profile in per_arg + ordered.profiles:
                for oset in profile.osets:
                    assert list(oset.ops) == sorted(oset.ops, key=canon_op)
            for a in per_arg:
                for b in per_arg:
                    ka, kb = reference_sort_key(a), reference_sort_key(b)
                    assert compare_profiles(a, b) == _sign(ka, kb)
            checked += 1
    assert checked


# Functor names, arities and targets whose texts are prefixes of one another.
_NAMES = st.sampled_from(["a", "ab", "1", "10"])
_ARITIES = st.sampled_from([2, 20])
_TARGETS = [3, 35]

_base_ops = st.one_of(
    st.sampled_from([ASSIGN, TEST, PSI_BOT]),
    st.builds(ConstructOp, _NAMES, _ARITIES),
    st.builds(DeconstructOp, _NAMES, _ARITIES),
)


def _profiles_of(ops):
    osets = st.lists(
        st.tuples(st.lists(ops, min_size=1, max_size=3), st.sampled_from(_TARGETS)),
        max_size=len(_TARGETS),
        unique_by=lambda oset: oset[1],
    )
    return osets.map(lambda osets: make_profile(make_oset(o, t) for o, t in osets))


_ops = st.recursive(
    _base_ops, lambda inner: st.lists(_profiles_of(inner), max_size=3).map(PsiOp), max_leaves=8
)
_profiles = _profiles_of(_ops)


@settings(max_examples=300, deadline=None)
@given(st.lists(_profiles, min_size=2, max_size=4))
def test_profile_order_matches_string_key_on_prefix_texts(profiles):
    for a in profiles:
        for b in profiles:
            assert cmp_canon_profile(a, b) == _sign(canon_profile(a), canon_profile(b))
            ka, kb = reference_sort_key(a), reference_sort_key(b)
            assert compare_profiles(a, b) == _sign(ka, kb)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ops, min_size=1, max_size=6), st.sampled_from(_TARGETS))
def test_op_order_matches_strings_on_prefix_texts(ops, target):
    oset = make_oset(ops, target)
    assert [reference_canon_op(o) for o in oset.ops] == sorted(map(reference_canon_op, ops))
    for a in ops:
        for b in ops:
            assert cmp_canon_op(a, b) == _sign(reference_canon_op(a), reference_canon_op(b))
