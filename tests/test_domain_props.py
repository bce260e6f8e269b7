"""Property tests for the lattice laws and the profile order."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from argprof import (
    bottom,
    canon_profile,
    compare_profiles,
    join_sets,
    leq_sets,
    make_interaction_set,
    make_oset,
    make_profile,
)
from argprof.domain import (
    ASSIGN,
    PSI_BOT,
    ArgumentProfile,
    ConstructOp,
    DeconstructOp,
    PsiOp,
)
from helpers import SetContext


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
