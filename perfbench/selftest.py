"""Self-test of the benchmark's own pieces. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that the frozen corpus generator still reproduces the test
helpers' generator at the test-07 seed, that the recorded source digests
match the generators, and that span arithmetic handles nesting.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

from corpus_gen import CORPUS_SEED, CORPUS_SIZE, gen_corpus  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import program_sources, sources_digest  # noqa: E402


def test_frozen_corpus_matches_test_helpers() -> None:
    import helpers

    rng = random.Random(CORPUS_SEED)
    expected = [helpers.gen_program_source(rng) for _ in range(CORPUS_SIZE)]
    assert gen_corpus(CORPUS_SEED, CORPUS_SIZE) == expected


def test_recorded_sources_match_generators() -> None:
    golden = json.loads((HERE / "golden.json").read_text())
    for name in ("corpus", "chain", "wide"):
        sources = [s for _, s in program_sources(name)]
        assert sources_digest(sources) == golden[name]["sources"], name
        assert sorted(golden[name]["items"]) == sorted(i for i, _ in program_sources(name)), name


def test_span_times_count_nesting_once() -> None:
    # a(0..100) contains b(10..60), which contains a(20..50) -- recursion
    # through b -- and b(70..90).
    t = Tracer()
    t.names = ["a", "b"]
    for nid, start, end, parent in ((0, 0, 100, -1), (1, 10, 60, 0), (0, 20, 50, 1), (1, 70, 90, 0)):
        t.name_id.append(nid)
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
        t.item.append(0)
        t.value.append(0)
    assert t.outer_times({"A": {"a"}, "B": {"b"}}) == {"A": 100, "B": 70}
    assert t.outer_times({"AB": {"a", "b"}}) == {"AB": 100}
    assert t.self_times() == [30, 20, 30, 20]


def main() -> int:
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
