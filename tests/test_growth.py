"""Growth in call depth and clause length, and what hash-consed psi ops
leave behind.

Ordering, equality and comparison build no canonical string, so analysis,
planning, ``normalize`` and an ``equivalent`` verdict stay polynomial in
call depth while the canonical strings grow exponentially. Clause analysis
projects each clause onto its arguments without closing its locals, so it
stays linear in a clause's chained flow."""

from __future__ import annotations

import gc
import io
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from argprof import (
    LexError,
    PsiOp,
    compare,
    parse_program,
    parse_query,
    plan,
    run_analysis,
    strip_points,
    validate_program,
)
from argprof.cli import main
from argprof.domain import _PSI_TABLE
from argprof.parse import tokenize
from helpers import (
    chain_source,
    long_clause_source,
    one_call_chain_source,
    output_ring_source,
    recursion_ring_source,
)


def _main_quietly(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


def test_chain_12_analyzes_and_plans_in_under_a_second():
    start = time.perf_counter()
    program = parse_program(chain_source(12))
    env, _ = run_analysis(program)
    plan(program, env)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "source", [chain_source(12), one_call_chain_source(25)], ids=["chain12", "one_call25"]
)
def test_normalize_deep_chains_in_under_a_second(tmp_path, source):
    path = tmp_path / "deep.lp"
    path.write_text(source)
    start = time.perf_counter()
    assert _main_quietly(["normalize", str(path)]) == 0
    assert time.perf_counter() - start < 1.0


def test_20000_predicate_ring_and_chain_validate_in_under_a_second():
    # A cycle through every predicate is a valid program, and neither depth
    # meets the recursion limit.
    n = 20_000
    ring = parse_program(recursion_ring_source(n))
    chain = parse_program(one_call_chain_source(n - 1))
    start = time.perf_counter()
    assert validate_program(ring).ok()
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert validate_program(chain).ok()
    assert time.perf_counter() - start < 1.0


def _long_list_query(end: str) -> str:
    """A query on a 100 000-element list, its elements separated by ", "
    and a newline after every 50th, followed by ``end``."""
    n = 100_000
    elements = "".join(f"cons({i % 7}, " + ("\n" if i % 50 == 49 else "") for i in range(n))
    return "?- app(" + elements + "nil" + ")" * n + end


def test_a_goal_atom_after_a_long_list_is_placed_in_linear_time():
    # The second goal atom is placed from the summed lengths of the 500 000
    # tokens before it and the table of the gaps between them: as the
    # token starts place it, where the source has it.
    source = _long_list_query(", nil, Z),\n  Z => cons(H, T).")
    start = time.perf_counter()
    query = parse_query(source)
    assert time.perf_counter() - start < 1.0
    listed = tokenize(source, starts=True)
    second = query.goal[1]
    assert (second.line, second.col) == listed.position(listed.texts.index("=>") - 1)
    offset = source.index("Z =>")
    assert (second.line, second.col) == (source.count("\n", 0, offset) + 1, offset - source.rindex("\n", 0, offset))


def test_a_bad_last_character_after_a_long_list_is_placed_in_linear_time():
    source = _long_list_query(", nil, Z).@")
    start = time.perf_counter()
    with pytest.raises(LexError) as exc:
        parse_query(source)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(LexError) as listed:
        tokenize(source, starts=True)
    found = exc.value.message, exc.value.line, exc.value.col
    assert found == (listed.value.message, listed.value.line, listed.value.col)
    assert found == ("unexpected character '@'", source.count("\n") + 1, len(source) - 1 - source.rindex("\n"))


def test_one_call_chain_answer_grows_by_one_op_per_level():
    # Level k of the one-call chain answers one pair X ~> Y of k + 1
    # points, so its first argument has one o-set of k + 1 ops: the
    # analysis's own answer holds Theta(k^2) ops over the chain, and no
    # analysis in this domain is sub-quadratic in the chain's depth.
    program = parse_program(one_call_chain_source(40))
    env, _ = run_analysis(program)
    for k in range(41):
        s = env[f"p{k}"]
        ((pair, points),) = s.pairs.items()
        (oset,) = strip_points(s, program.predicates[f"p{k}"].arg_names)[0].osets
        assert (pair, len(points), len(oset.ops)) == (("X", "Y"), k + 1, k + 1)


def test_output_ring_takes_linear_rounds():
    # A relapse guard for the order inside a component. Each member's pair
    # gathers all 3n + 1 points of the ring, so the answer, and the time,
    # grow as n^2. The worklist, members callee-first, takes 3n - 1 rounds
    # and about 0.3 s; rounds over the members in sorted order until none
    # changes took 159 600 rounds and 20 s, growing as n^3.
    n = 400
    program = parse_program(output_ring_source(n))
    start = time.perf_counter()
    env, trace = run_analysis(program)
    assert time.perf_counter() - start < 2.0
    assert len(trace) <= 3 * n
    for s in env.values():
        ((pair, points),) = s.pairs.items()
        assert (pair, len(points)) == (("X", "Y"), 3 * n + 1)


def test_long_clause_analyzes_in_under_a_second():
    # Closing the clause over its locals took minutes at 400 atoms; the
    # projection takes about 10 ms here.
    program = parse_program(long_clause_source(2000))
    start = time.perf_counter()
    env, _ = run_analysis(program)
    assert time.perf_counter() - start < 1.0
    ((pair, points),) = env["p"].pairs.items()
    assert pair == ("X", "Y")
    assert sorted(points) == list(range(1, 2002))


def test_arity_32_clause_with_flow_from_every_input_to_every_output():
    # 16 inputs feed one local, a chain of 200 assignments, and then all 16
    # outputs: 256 argument pairs of 202 points each. Closing the clause
    # took about 30 s.
    ins = [f"I{i}" for i in range(1, 17)]
    outs = [f"O{i}" for i in range(1, 17)]
    atoms = [f"L0 <= t({','.join(ins)})"] + [f"L{i} := L{i - 1}" for i in range(1, 201)]
    atoms += [f"{o} := L200" for o in outs]
    modes = ",".join(["in"] * 16 + ["out"] * 16)
    program = parse_program(f":- pred w({modes}).\nw({','.join(ins + outs)}) :- {', '.join(atoms)}.\n")
    start = time.perf_counter()
    env, _ = run_analysis(program)
    assert time.perf_counter() - start < 1.0
    assert set(env["w"].pairs) == {(i, o) for i in ins for o in outs}
    assert {len(points) for points in env["w"].pairs.values()} == {202}


def _psi_ops_reachable(ops) -> list[PsiOp]:
    seen: dict[int, PsiOp] = {}
    stack = [op for op in ops if isinstance(op, PsiOp)]
    while stack:
        op = stack.pop()
        if id(op) not in seen:
            seen[id(op)] = op
            for profile in op.profiles:
                for oset in profile.osets:
                    stack.extend(o for o in oset.ops if isinstance(o, PsiOp))
    return list(seen.values())


def test_chain_10_builds_no_canonical_string():
    # Psi ops are shared process-wide, and output by another test may have
    # built the strings of its own; no other test uses the functor link/2.
    # q10 is p10 with its two inputs swapped, so the verdict is equivalent.
    source = chain_source(10).replace("cons(", "link(") + (
        ":- pred q10(in,in,out).\nq10(Y,X,Z) :- p9(X,Y,T), p9(T,Y,Z).\n"
    )
    program = parse_program(source)
    env, _ = run_analysis(program)
    plan(program, env)
    verdict = compare(program.predicates["p10"], program.predicates["q10"], env)
    assert verdict.mapping == {1: 2, 2: 1, 3: 3}
    ops = [op for s in env.values() for ops in s.pairs.values() for op in ops.values()]
    psi_ops = _psi_ops_reachable(ops)
    assert len(psi_ops) >= 10
    assert all(op._canon is None for op in psi_ops)


def _table_sizes() -> tuple[int, int]:
    gc.collect()
    ops = list(_PSI_TABLE.values())
    return len(ops), sum(len(op.order) for op in ops)


def test_repeated_runs_leave_no_psi_ops_behind(tmp_path):
    # No other test uses the functor ring/2, so none of these psi ops is
    # live before the first run.
    path = tmp_path / "chain6.lp"
    path.write_text(chain_source(6).replace("cons(", "ring("))
    before = _table_sizes()
    assert _main_quietly(["analyze", str(path)]) == 0
    after_one = _table_sizes()
    for _ in range(49):
        assert _main_quietly(["analyze", str(path)]) == 0
    after_fifty = _table_sizes()
    assert after_fifty[0] <= after_one[0] and after_fifty[1] <= after_one[1]
    # The table holds its ops weakly: a finished run leaves none behind.
    assert after_one == before
