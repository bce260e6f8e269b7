"""Property tests for the lattice laws and the profile order."""

from __future__ import annotations

import random
from functools import cmp_to_key

from hypothesis import given, settings, strategies as st

from argprof import (
    bottom,
    canon_profile,
    compare_profiles,
    features,
    join_sets,
    leq_sets,
    make_interaction_set,
    make_oset,
    make_profile,
)
from argprof.domain import (
    ASSIGN,
    PSI_BOT,
    TEST,
    ArgumentProfile,
    ConstructOp,
    DeconstructOp,
    PsiOp,
    cmp_canon_op,
)
from helpers import SetContext, reference_canon_op, reference_features


@st.composite
def set_triples(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    ctx = SetContext(rng)
    return ctx, ctx.random_set(rng), ctx.random_set(rng), ctx.random_set(rng)


@settings(max_examples=200, deadline=None)
@given(set_triples())
def test_join_idempotent(triple):
    _, a, _, _ = triple
    assert join_sets(a, a) == a


@settings(max_examples=200, deadline=None)
@given(set_triples())
def test_join_commutative(triple):
    _, a, b, _ = triple
    assert join_sets(a, b) == join_sets(b, a)


@settings(max_examples=200, deadline=None)
@given(set_triples())
def test_join_associative(triple):
    _, a, b, c = triple
    assert join_sets(a, join_sets(b, c)) == join_sets(join_sets(a, b), c)


@settings(max_examples=200, deadline=None)
@given(set_triples())
def test_bottom_is_unit(triple):
    ctx, a, _, _ = triple
    empty = bottom(ctx.owner, ctx.inputs)
    assert join_sets(empty, a) == a
    assert join_sets(a, empty) == a


@settings(max_examples=200, deadline=None)
@given(set_triples())
def test_order_join_coherence(triple):
    _, a, b, _ = triple
    assert leq_sets(a, b) == (join_sets(a, b) == b)
    assert leq_sets(a, join_sets(a, b))
    assert leq_sets(b, join_sets(a, b))


@settings(max_examples=200, deadline=None)
@given(set_triples())
def test_join_preserves_well_definedness(triple):
    ctx, a, b, _ = triple
    joined = join_sets(a, b)
    for (source, target), ops in joined.pairs.items():
        assert source != target
        assert target not in joined.input_args
        assert ops
        assert all(isinstance(point, int) for point in ops)
    # re-adding every interaction is a no-op
    rebuilt = joined
    for pair, ops in joined.pairs.items():
        rebuilt = join_sets(make_interaction_set(ctx.owner, ctx.inputs, {pair: ops}), rebuilt)
    assert rebuilt == joined


# ---------------------------------------------------------------------------
# The profile order is total
# ---------------------------------------------------------------------------

_OPS = [
    ASSIGN,
    PSI_BOT,
    ConstructOp("cons", 2),
    DeconstructOp("cons", 2),
    DeconstructOp("s", 1),
    PsiOp((ArgumentProfile((make_oset([ASSIGN], 1),)),)),
]


@st.composite
def profiles(draw):
    n_osets = draw(st.integers(min_value=0, max_value=3))
    targets = draw(
        st.lists(
            st.integers(min_value=1, max_value=5),
            min_size=n_osets,
            max_size=n_osets,
            unique=True,
        )
    )
    osets = []
    for target in targets:
        ops = draw(st.lists(st.sampled_from(_OPS), min_size=1, max_size=4))
        osets.append(make_oset(ops, target))
    return make_profile(osets)


@settings(max_examples=300, deadline=None)
@given(profiles(), profiles())
def test_order_total_and_antisymmetric(a, b):
    ab, ba = compare_profiles(a, b), compare_profiles(b, a)
    assert ab == -ba
    assert (ab == 0) == (canon_profile(a) == canon_profile(b))


@settings(max_examples=300, deadline=None)
@given(profiles())
def test_order_reflexive(a):
    assert compare_profiles(a, a) == 0


@settings(max_examples=300, deadline=None)
@given(profiles(), profiles(), profiles())
def test_order_transitive(a, b, c):
    if compare_profiles(a, b) <= 0 and compare_profiles(b, c) <= 0:
        assert compare_profiles(a, c) <= 0


@settings(max_examples=300, deadline=None)
@given(profiles())
def test_feature_counts_partition_operations(a):
    from argprof import features

    _, n_ops, n_psi, n_construct, n_deconstruct, n_assign = features(a)
    assert n_ops == n_psi + n_construct + n_deconstruct + n_assign


# ---------------------------------------------------------------------------
# O-set order and features over every kind of op
# ---------------------------------------------------------------------------

# Functors whose texts are prefixes of one another, and arities past 9.
_BASE_OPS = st.sampled_from([ASSIGN, TEST, PSI_BOT]) | st.builds(
    lambda cls, functor, arity: cls(functor, arity),
    st.sampled_from([ConstructOp, DeconstructOp]),
    st.sampled_from(["cons", "c", "consx", "pair", "s"]),
    st.sampled_from([0, 1, 2, 10, 20]),
)


def _psi_of(payloads):
    return PsiOp(make_profile(make_oset(ops, t) for t, ops in enumerate(osets, 1)) for osets in payloads)


# Psi ops nest psi ops in their payloads: a payload is a list of profiles,
# each a list of o-sets with targets 1, 2, ...
_OPS_OF_EVERY_KIND = st.recursive(
    _BASE_OPS,
    lambda ops: st.lists(
        st.lists(st.lists(ops, min_size=1, max_size=3), max_size=2), min_size=1, max_size=2
    ).map(_psi_of),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS_OF_EVERY_KIND, max_size=8))
def test_make_oset_sorts_in_the_canonical_order(ops):
    oset = make_oset(ops, 1)
    assert oset.ops == tuple(sorted(ops, key=cmp_to_key(cmp_canon_op)))
    assert [reference_canon_op(op) for op in oset.ops] == sorted(map(reference_canon_op, ops))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_OPS_OF_EVERY_KIND, min_size=1, max_size=5), max_size=3))
def test_features_match_the_isinstance_reference(osets):
    profile = make_profile(make_oset(ops, t) for t, ops in enumerate(osets, 1))
    assert features(profile) == reference_features(profile)
