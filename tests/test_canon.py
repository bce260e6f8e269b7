"""Canonical strings: kept psi strings against an uncached reference
serializer, and the cost of serializing and hashing deep call chains."""

from __future__ import annotations

import random
import time

import pytest

from argprof import (
    PsiOp,
    canon_op,
    canon_profile,
    oprof,
    parse_program,
    plan,
    run_analysis,
    strip_points,
)
from helpers import (
    chain_source,
    fixture_names,
    gen_program_source,
    load_fixture,
    reference_canon_op,
    reference_canon_profile,
)


def _programs(group: str):
    if group == "fixtures":
        return [load_fixture(name) for name in fixture_names()]
    if group == "corpus":  # the test-07 corpus
        rng = random.Random(0xBEEF)
        return [parse_program(gen_program_source(rng)) for _ in range(200)]
    return [parse_program(chain_source(k)) for k in range(1, 7)]


def _env_ops(env):
    return [op for s in env.values() for ops in s.pairs.values() for op in ops.values()]


@pytest.mark.parametrize("group", ["fixtures", "corpus", "chain"])
def test_canon_matches_reference_serializer(group):
    checked_ops = checked_profiles = 0
    for program in _programs(group):
        env, _ = run_analysis(program)
        for op in _env_ops(env):
            assert canon_op(op) == reference_canon_op(op)
            checked_ops += 1
        for name, pred in program.predicates.items():
            profiles = strip_points(env[name], pred.arg_names)
            ordered = oprof(profiles).profiles
            for profile in profiles + ordered:
                assert canon_profile(profile) == reference_canon_profile(profile)
                checked_profiles += 1
    assert checked_ops and checked_profiles


def test_psi_canonical_string_is_computed_once():
    env, _ = run_analysis(parse_program(chain_source(6)))
    psi_ops = [op for op in _env_ops(env) if isinstance(op, PsiOp)]
    assert psi_ops
    for op in psi_ops:
        first = canon_op(op)
        assert canon_op(op) is first


def test_psi_equality_and_hash_follow_canonical_string():
    env, _ = run_analysis(parse_program(chain_source(3)))
    op = next(op for op in _env_ops(env) if isinstance(op, PsiOp))
    twin = PsiOp(tuple(op.profiles))
    assert twin is op  # hash-consed
    assert twin == op and hash(twin) == hash(op)
    assert len({op, twin}) == 1
    assert op != PsiOp(op.profiles[:-1])
    assert op != canon_op(op)


def test_hashing_every_op_of_chain_8_is_fast():
    env, _ = run_analysis(parse_program(chain_source(8)))
    ops = _env_ops(env)
    assert max(len(canon_op(op)) for op in ops) > 8_000_000
    start = time.perf_counter()
    for op in ops:  # the first hash of each kept string is the only linear work
        hash(op)
    assert time.perf_counter() - start < 0.05


def test_chain_8_analyzes_and_plans_quickly():
    start = time.perf_counter()
    program = parse_program(chain_source(8))
    env, _ = run_analysis(program)
    plan(program, env)
    assert time.perf_counter() - start < 2.0


def _nested_psi_ops(ops):
    """Every PsiOp among ``ops`` and inside their payloads, once each."""
    seen: dict[int, PsiOp] = {}
    stack = [op for op in ops if isinstance(op, PsiOp)]
    while stack:
        op = stack.pop()
        if id(op) in seen:
            continue
        seen[id(op)] = op
        for profile in op.profiles:
            for oset in profile.osets:
                stack.extend(o for o in oset.ops if isinstance(o, PsiOp))
    return list(seen.values())


def test_psi_repr_is_bounded_and_identity_follows_canon():
    env, _ = run_analysis(parse_program(chain_source(6)))
    psi_ops = _nested_psi_ops(_env_ops(env))
    assert max(len(op.canon) for op in psi_ops) > 300_000
    for op in psi_ops:
        assert len(repr(op)) < 200
        twin = PsiOp(op.profiles)
        assert repr(twin) == repr(op)
        assert twin is op
    for a in psi_ops:
        for b in psi_ops:
            assert (a is b) == (a.canon == b.canon)
