"""Benchmark driver for argprof: end-to-end metrics and traced per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One workload runs in one process. The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable summary. ``--workload all``
runs every workload in its own child process and prints their results.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from spans import Tracer
from workloads import (
    WORKLOADS,
    CheckFailed,
    digest,
    program_sources,
    setup,
    sources_digest,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

MIN_PASSES = 5
TAIL_BEYOND = 10
SHOWN_FAILURES = 5
# domain.max_op_chars of the chain ladder when the benchmark was defined.
CHAIN_MAX_OP_CHARS = {"k2": 513, "k4": 12849, "k6": 321249}


def import_argprof() -> None:
    """Import argprof from this checkout's ``src``, and nowhere else."""
    if not (SRC / "argprof" / "cli.py").is_file():
        sys.exit(f"perfbench: no argprof sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import argprof.cli

    if Path(argprof.cli.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: imported argprof from {argprof.cli.__file__}, not from {SRC}")


def fresh_import() -> None:
    """Import argprof.cli again, as a new ``argprof`` process would, so
    import-time work counts in set-up."""
    for name in [n for n in sys.modules if n.split(".")[0] == "argprof"]:
        del sys.modules[name]
    importlib.import_module("argprof.cli")


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Tally:
    """Outcomes of every item run (and probe) in one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.probes = 0
        self.probes_failed = 0
        self.messages: list[str] = []

    def record(self, item_id: str, error: str | None, probe: bool = False) -> None:
        if probe:
            self.probes += 1
            self.probes_failed += error is not None
        else:
            self.attempted += 1
            self.failed += error is not None
        message = f"{item_id}: {error}"
        if error is not None and len(self.messages) < SHOWN_FAILURES and message not in self.messages:
            self.messages.append(message)


def describe(exc: Exception) -> str:
    if isinstance(exc, CheckFailed):
        return str(exc)
    return f"{type(exc).__name__}: {str(exc)[:120]}"


def run_checked(item, tally: Tally, probe: bool = False):
    """Run one item, timed; check its outputs afterwards, untimed.

    Returns (nanoseconds, digest or None, stdout bytes). Any exception the
    program raises, RecursionError included, counts as a failure.
    """
    gc.collect()  # start each item from the same collector state, as a new process would
    t0 = perf_counter_ns()
    try:
        outputs = item.run()
    except Exception as exc:  # the run goes on; the failure is counted
        elapsed = perf_counter_ns() - t0
        tally.record(item.id, describe(exc), probe)
        return elapsed, None, 0
    elapsed = perf_counter_ns() - t0
    try:
        item.check(outputs)
        error = None
    except Exception as exc:  # a failed check, or the program raising inside one
        error = describe(exc)
    tally.record(item.id, error, probe)
    return elapsed, digest(outputs), sum(len(o.stdout.encode()) for o in outputs)


def run_pass(workload, rng: random.Random, tally: Tally, tracer=None):
    """One pass over the items in a seeded order, then the probes.

    Returns (item id -> ns, item id -> digest, stdout bytes). Probes are
    checked but kept out of every timing.
    """
    order = list(workload.items)
    rng.shuffle(order)
    times, digests, nbytes = {}, {}, 0
    for item in order:
        if tracer is not None:
            tracer.begin_item(item.id)
        times[item.id], digests[item.id], b = run_checked(item, tally)
        nbytes += b
    for probe in workload.probes:
        if tracer is not None:
            tracer.begin_item(probe.id)
        run_checked(probe, tally, probe=True)
    return times, digests, nbytes


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def steady(samples) -> float:
    """The upper quartile of repeated timings of the same work.

    On the shared machines this benchmark was tuned on, the noise is mostly
    intermittent periods in which everything runs up to 40% faster; the
    upper quartile follows the steady state and varied less from run to
    run than the median did.
    """
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest value with TAIL_BEYOND values
    above it. With fewer than 2 * TAIL_BEYOND + 1 values that index would sit
    at or below the median, so the tail is then the top value."""
    return n - TAIL_BEYOND - 1 if n > 2 * TAIL_BEYOND else n - 1


def end_to_end(name: str, seed: int, seconds: float, golden: dict) -> dict:
    rng = random.Random(seed)
    tally = Tally()
    setups, passes, nbytes = [], [], []
    workload = None
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        # A set-up before every pass, so that set-up samples span the run as
        # pass samples do; the first workload made serves every pass.
        t0 = perf_counter()
        fresh_import()
        made = setup(name, seed, golden)
        setups.append(perf_counter() - t0)
        workload = workload or made
        times, _, b = run_pass(workload, rng, tally)
        passes.append(times)
        nbytes.append(b)

    per_item = sorted(steady([p[i] for p in passes]) / 1e6 for i in passes[0])
    n = len(per_item)
    tail_at = tail_index(n)
    checked = tally.attempted + tally.probes
    ok_share = (checked - tally.failed - tally.probes_failed) / checked
    metrics = {
        "setup_s": (steady(setups), "s"),
        "wall_s": (sum(per_item) / 1e3, "s"),
        "item_p50_ms": (statistics.median(per_item), "ms"),
        "item_tail_ms": (per_item[tail_at], "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "stdout_bytes": (statistics.median(nbytes), "B"),
        "ok_share": (ok_share, "share"),
    }
    notes = {
        "setup_s": f"upper quartile of {len(setups)} set-ups, one before each pass",
        "wall_s": f"sum over {n} items of each one's upper quartile over {len(passes)} passes",
        "item_p50_ms": f"median over {n} items of each one's upper quartile over {len(passes)} passes",
        "item_tail_ms": f"p{100 * (tail_at + 1) / n:.1f}: {n - tail_at - 1} of {n} items beyond",
        "stdout_bytes": "per pass",
        "ok_share": f"fail_share {1 - ok_share:.4f}: {tally.failed} of {tally.attempted} item runs "
        f"and {tally.probes_failed} of {tally.probes} depth probes failed",
    }
    return {"metrics": metrics, "notes": notes, "tally": tally, "correct": tally.failed == 0}


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

# Per-layer time metrics: the targets whose spans they cover.
LAYER_TIMES = {
    "parse.program_ms": {"parse.parse_program"},
    "parse.query_ms": {"parse.parse_query"},
    "modecheck.validate_ms": {"modecheck.validate_program"},
    "analysis.run_ms": {"analysis.run_analysis"},
    "analysis.predicate_ms": {"analysis.analyze_predicate"},
    "analysis.closure_ms": {"analysis.transitive_closure"},
    "domain.join_ms": {"domain.join_interaction", "domain.join_sets"},
    "domain.canon_ms": {"domain.canon_op", "domain.canon_profile", "domain.canon_profile_seq"},
    "ordering.oprof_ms": {"ordering.oprof"},
    "normalize.plan_ms": {"normalize.plan"},
    "normalize.rewrite_ms": {"normalize.rewrite"},
    "normalize.compare_ms": {"normalize.compare"},
    "syntax.format_ms": {"syntax.format_program"},
    "interp.solve_ms": {"interp.solve"},
}
# Per-layer counts: (target, "calls" | "sum" of the result values).
LAYER_COUNTS = {
    "parse.tokens": ("parse.tokenize", "sum"),
    "analysis.rounds": ("analysis.analyze_predicate", "calls"),
    "analysis.closure_calls": ("analysis.transitive_closure", "calls"),
    "analysis.interactions": ("analysis.transitive_closure", "sum"),
    "domain.join_calls": ("domain.join_interaction", "calls"),
    "ordering.oprof_calls": ("ordering.oprof", "calls"),
    "interp.answers": ("interp.solve", "sum"),
}


def chain_cross_check(tracer) -> tuple[bool, list[str]]:
    """Per chain depth: the longest canon_op string and run_analysis time."""
    longest: dict[str, int] = {}
    runs: dict[str, list[int]] = {}
    for i in tracer.spans_of("domain.canon_op"):
        item = tracer.item_ids[tracer.item[i]]
        longest[item] = max(longest.get(item, 0), tracer.value[i])
    for i in tracer.spans_of("analysis.run_analysis"):
        runs.setdefault(tracer.item_ids[tracer.item[i]], []).append(tracer.duration(i))
    lines, ok = [], True
    for item in sorted(runs):
        expected = CHAIN_MAX_OP_CHARS.get(item)
        mark = ""
        if expected is not None:
            ok &= longest.get(item) == expected
            mark = " (matches)" if longest.get(item) == expected else f" (expected {expected})"
        lines.append(
            f"chain {item}: run_analysis {statistics.median(runs[item]) / 1e6:.3f} ms (median of "
            f"{len(runs[item])}), max_op_chars {longest.get(item, 0)}{mark}"
        )
    return ok, lines


def per_layer(name: str, seed: int, seconds: float, golden: dict) -> dict:
    workload = setup(name, seed, golden)
    rng = random.Random(seed)
    tally = Tally()
    start = perf_counter()
    times, reference, _ = run_pass(workload, rng, tally)
    untraced_wall = sum(times.values()) / 1e9

    tracer = Tracer()
    tracer.install()
    traced_walls, mismatched = [], []
    try:
        while not traced_walls or perf_counter() - start < seconds:
            times, digests, _ = run_pass(workload, rng, tally, tracer)
            traced_walls.append(sum(times.values()) / 1e9)
            mismatched += [i for i, d in digests.items() if d != reference[i]]
    finally:
        tracer.uninstall()

    passes = len(traced_walls)
    metrics = {}
    for metric, ns in tracer.outer_times(LAYER_TIMES).items():
        metrics[metric] = (ns / passes / 1e6, "ms")
    for metric, (target, how) in LAYER_COUNTS.items():
        spans = tracer.spans_of(target)
        total = len(spans) if how == "calls" else sum(tracer.value[i] for i in spans)
        metrics[metric] = (total / passes, "count")
    canon = tracer.spans_of("domain.canon_op")
    metrics["domain.max_op_chars"] = (max((tracer.value[i] for i in canon), default=0), "chars")
    self_ns = tracer.self_times()
    cli_self = sum(self_ns[i] for i in tracer.spans_of("cli.main"))
    metrics["cli.self_ms"] = (cli_self / passes / 1e6, "ms")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - untraced_wall, "s")
    metrics["trace.spans"] = (len(tracer) / passes, "count")
    metrics["trace.absent_targets"] = (len(tracer.absent), "count")

    correct = tally.failed == 0 and not mismatched
    notes = {
        "trace.overhead_s": f"median traced pass {statistics.median(traced_walls):.3f} s "
        f"({passes} passes) minus untraced pass {untraced_wall:.3f} s",
    }
    extra = []
    if mismatched:
        extra.append(f"traced outputs differ from untraced ones for {sorted(set(mismatched))[:5]}")
    if tracer.absent:
        extra.append("absent wrap targets: " + ", ".join(tracer.absent))
    if name == "chain":
        ok, lines = chain_cross_check(tracer)
        extra += lines
        correct &= ok
    spans_file = OUT / f"spans-{name}-{seed}.json.gz"
    tracer.write(spans_file)
    extra.append(f"spans written to {spans_file.relative_to(ROOT)}")
    return {"metrics": metrics, "notes": notes, "tally": tally, "correct": correct, "extra": extra}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def record() -> int:
    """Record the sources and output digests of the program workloads.

    Use only when an output change is intended: the digests are the
    benchmark's byte-identical gate.
    """
    golden = {}
    for name in ("corpus", "chain", "wide"):
        workload = setup(name, 0, {})
        items = {}
        for item in workload.items:
            outputs = item.run()
            item.check(outputs)
            items[item.id] = digest(outputs)
        golden[name] = {
            "sources": sources_digest([s for _, s in program_sources(name)]),
            "items": items,
        }
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {sum(len(g['items']) for g in golden.values())} item digests in {GOLDEN.name}")
    return 0


def run_one(args: argparse.Namespace) -> int:
    golden = load_golden()
    measure = per_layer if args.trace else end_to_end
    result = measure(args.workload, args.seed, args.seconds, golden)
    tally = result["tally"]
    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}")
    for metric, (value, unit) in result["metrics"].items():
        note = result["notes"].get(metric, "")
        print(f"  {metric:24s} {value:14.4f} {unit:6s} {note}")
    for line in result.get("extra", []) + tally.messages:
        print(f"  {line}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in result["metrics"].items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after the other."""
    status, results = 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record golden.json from the current program")
    args = parser.parse_args(argv)
    import_argprof()
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
