"""The benchmark's workloads: how their inputs are made and how one item runs.

An item is the unit a user waits for: one program put through the CLI
commands, or one query answered on a program and on its normalized form.
Every item runs in-process through ``argprof.cli.main`` with stdin, stdout
and stderr replaced, so it pays exactly what ``argprof <command> -`` pays
after interpreter start-up.

The ``--seed`` of a run picks the order in which a pass visits the items
(``corpus``, ``chain``, ``wide``) or the ground query inputs (``interp``).
The programs of ``corpus``, ``chain`` and ``wide`` come from fixed
generator seeds, so their outputs can be checked against digests recorded
when the benchmark was defined.
"""

from __future__ import annotations

import hashlib
import io
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from corpus_gen import CORPUS_SEED, CORPUS_SIZE, gen_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "tests" / "fixtures"

WORKLOADS = ("corpus", "chain", "wide", "interp")

CHAIN_DEPTHS = range(1, 7)
WIDE_SEED = 0x51DE
WIDE_PROGRAMS = 16
# List lengths of the interp ladder; Peano numbers use at most NAT_MAX.
LADDER = (0, 1, 2, 5, 10, 25, 50, 100, 150)
NAT_MAX = 60
PROBE_LENGTH = 1000


class CheckFailed(Exception):
    """An item ran, but its output failed a check."""


@dataclass(frozen=True)
class Output:
    argv: tuple[str, ...]
    code: int
    stdout: str
    stderr: str


def call_cli(argv: list[str], stdin_text: str) -> Output:
    """Run ``argprof.cli.main(argv)`` with ``stdin_text`` as standard input.

    ``main`` is looked up on its module at every call, so a traced run that
    rebinds it is seen.
    """
    import argprof.cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
    try:
        code = argprof.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return Output(tuple(argv), code, out.getvalue(), err.getvalue())


def digest(outputs: list[Output]) -> str:
    """Digest of everything the commands of one item returned and printed."""
    h = hashlib.sha256()
    for o in outputs:
        for part in ("\0".join(o.argv), str(o.code), o.stdout, o.stderr):
            h.update(part.encode())
            h.update(b"\x1e")
    return h.hexdigest()[:16]


def sources_digest(sources: list[str]) -> str:
    return hashlib.sha256("\x1e".join(sources).encode()).hexdigest()[:16]


def _require_ok(outputs: list[Output]) -> None:
    for o in outputs:
        if o.code != 0:
            raise CheckFailed(f"{' '.join(o.argv)} exited {o.code}: {o.stderr.strip()[:200]}")


# ---------------------------------------------------------------------------
# Program items: corpus, chain, wide
# ---------------------------------------------------------------------------

_DECL_RE = re.compile(r"^:- pred ([a-z][A-Za-z0-9_]*)\(([^)]*)\)\.", re.M)
_PLAN_RE = re.compile(r"^[a-z][A-Za-z0-9_]*/(\d+): ([0-9,]*)$")


def first_equal_arity_pair(source: str) -> tuple[str, str] | None:
    """The first two declared predicates of equal arity, in declaration order."""
    seen: dict[int, str] = {}
    for name, modes in _DECL_RE.findall(source):
        arity = len(modes.split(",")) if modes else 0
        if arity in seen:
            return seen[arity], name
        seen[arity] = name
    return None


@dataclass
class ProgramItem:
    """``analyze --json`` and ``normalize`` on one program, plus ``compare``
    of its first two predicates of equal arity when it has them."""

    id: str
    source: str
    pair: tuple[str, str] | None
    golden: str | None = None
    # Set once the independent idempotence check has passed.
    idempotent: bool = field(default=False, compare=False)

    def run(self) -> list[Output]:
        outputs = [
            call_cli(["analyze", "-", "--json"], self.source),
            call_cli(["normalize", "-"], self.source),
        ]
        if self.pair:
            outputs.append(call_cli(["compare", "-", *self.pair], self.source))
        return outputs

    def check(self, outputs: list[Output]) -> None:
        _require_ok(outputs)
        if self.golden is not None and digest(outputs) != self.golden:
            raise CheckFailed(f"output digest {digest(outputs)} != recorded {self.golden}")
        if not self.idempotent:
            self.check_idempotent(outputs[1].stdout)
            self.idempotent = True

    @staticmethod
    def check_idempotent(normalized: str) -> None:
        """Normalizing the normalized program must give the identity plan."""
        again = call_cli(["normalize", "-"], normalized)
        _require_ok([again])
        if again.stdout != normalized:
            raise CheckFailed("normalizing the normalized program changed it")
        for line in again.stderr.splitlines():
            m = _PLAN_RE.match(line)
            if not m:
                raise CheckFailed(f"unexpected plan line {line!r}")
            identity = ",".join(str(i) for i in range(1, int(m.group(1)) + 1))
            if m.group(2) != identity:
                raise CheckFailed(f"second normalization is not the identity: {line}")


def chain_source(k: int) -> str:
    """``p_i(X,Y,Z) :- p_{i-1}(X,Y,T), p_{i-1}(T,Y,Z)`` for i = 1..k over
    ``p0`` = append: each level doubles the calls and nests one more psi."""
    lines = [
        ":- pred p0(in,in,out).",
        "p0(X,Y,Z) :- X => nil, Z := Y.",
        "p0(X,Y,Z) :- X => cons(E,Es), p0(Es,Y,Zs), Z <= cons(E,Zs).",
    ]
    for i in range(1, k + 1):
        lines.append(f":- pred p{i}(in,in,out).")
        lines.append(f"p{i}(X,Y,Z) :- p{i - 1}(X,Y,T), p{i - 1}(T,Y,Z).")
    return "\n".join(lines) + "\n"


def wide_source(rng: random.Random, arity: int, n_atoms: int, recursive: bool) -> str:
    """One predicate ``w`` of the given arity with a base clause and one long
    clause of ``n_atoms`` unifications.

    The long clause is a run of short strands: each starts at an input
    argument and chains five unifications through fresh local variables;
    the first strands end in the output arguments. A recursive program adds
    a third clause calling ``w`` itself, so its fixpoint takes extra rounds
    but no call ever carries a callee profile (no psi payload).
    """
    n_in = arity // 2
    modes = ["in"] * n_in + ["out"] * (arity - n_in)
    rng.shuffle(modes)
    head = [f"A{i}" for i in range(1, arity + 1)]
    ins = [v for v, m in zip(head, modes) if m == "in"]
    outs = [v for v, m in zip(head, modes) if m == "out"]
    head_text = f"w({','.join(head)})"
    lines = [f":- pred w({','.join(modes)}).",
             f"{head_text} :- " + ", ".join(f"{o} := {rng.choice(ins)}" for o in outs) + "."]

    atoms: list[str] = []
    fresh = 0

    def new() -> str:
        nonlocal fresh
        fresh += 1
        return f"L{fresh}"

    ends: list[str] = []
    budget = n_atoms - len(outs)
    while budget > 0:
        length = min(budget, 5)
        cur = rng.choice(ins)
        for _ in range(length):
            kind = rng.choice(("decon", "con", "assign", "test"))
            if kind == "decon":
                a, b = new(), new()
                atoms.append(f"{cur} => {rng.choice(('cons', 'pair'))}({a},{b})")
                cur = rng.choice((a, b))
            elif kind == "con":
                v = new()
                atoms.append(f"{v} <= {rng.choice(('s', 'box'))}({cur})")
                cur = v
            elif kind == "assign":
                v = new()
                atoms.append(f"{v} := {cur}")
                cur = v
            else:
                atoms.append(f"{cur} == {rng.choice(ins)}")
        budget -= length
        ends.append(cur)
    for i, o in enumerate(outs):
        atoms.append(f"{o} := {ends[i] if i < len(ends) else rng.choice(ins)}")
    lines.append(f"{head_text} :- {', '.join(atoms)}.")

    if recursive:
        call_args, assigns = [], []
        for v, m in zip(head, modes):
            if m == "in":
                call_args.append(rng.choice(ins))
            else:
                r = new()
                call_args.append(r)
                assigns.append(f"{v} := {r}")
        lines.append(f"{head_text} :- w({','.join(call_args)}), {', '.join(assigns)}.")
    return "\n".join(lines) + "\n"


def gen_wide(seed: int = WIDE_SEED, count: int = WIDE_PROGRAMS) -> list[str]:
    """Wide programs: arity 8..16, long clauses spread evenly over 40..200
    atoms, every other one recursive."""
    rng = random.Random(seed)
    return [
        wide_source(rng, rng.randint(8, 16), 40 + 160 * i // (count - 1), i % 2 == 1)
        for i in range(count)
    ]


def program_sources(workload: str) -> list[tuple[str, str]]:
    """(item id, source) for the program workloads, in a fixed order."""
    if workload == "corpus":
        return [(f"c{i:03d}", s) for i, s in enumerate(gen_corpus(CORPUS_SEED, CORPUS_SIZE))]
    if workload == "chain":
        return [(f"k{k}", chain_source(k)) for k in CHAIN_DEPTHS]
    if workload == "wide":
        return [(f"w{i:02d}", s) for i, s in enumerate(gen_wide())]
    raise ValueError(workload)


# ---------------------------------------------------------------------------
# Query items: interp
# ---------------------------------------------------------------------------

# Input argument kinds per (program, predicate); outputs get fresh variables.
QUERY_SPECS: dict[tuple[str, str], tuple[str, ...]] = {
    ("append.lp", "app"): ("list", "list"),
    ("concat.lp", "concat"): ("list", "list"),
    ("double_append.lp", "app"): ("list", "list"),
    ("double_append.lp", "concat"): ("list", "list"),
    # dapp's intermediate list is its first two inputs joined.
    ("double_append.lp", "dapp"): ("half", "half", "list"),
    ("last.lp", "last"): ("list",),
    ("mixed.lp", "same"): ("atom", "atom"),
    ("mixed.lp", "swap"): ("pair",),
    ("mixed.lp", "swap_all"): ("pairs",),
    ("nat_add.lp", "add"): ("nat", "nat"),
    ("pick.lp", "pick"): ("list",),
    ("reverse.lp", "rev"): ("list",),
    ("reverse.lp", "rev_acc"): ("list", "list"),
    ("split.lp", "split"): ("pair",),
    ("nrev.lp", "app"): ("list", "list"),
    ("nrev.lp", "nrev"): ("list",),
}
ATOMS = "abcd"


def list_term(elements: list[str]) -> str:
    term = "nil"
    for e in reversed(elements):
        term = f"cons({e},{term})"
    return term


def gen_input(rng: random.Random, kind: str, n: int) -> str:
    if kind in ("list", "half"):
        length = n // 2 if kind == "half" else n
        return list_term([rng.choice(ATOMS) for _ in range(length)])
    if kind == "pairs":
        return list_term([f"pair({rng.choice(ATOMS)},{rng.choice(ATOMS)})" for _ in range(n)])
    if kind == "nat":
        return "s(" * min(n, NAT_MAX) + "z" + ")" * min(n, NAT_MAX)
    if kind == "pair":
        return f"pair({rng.choice(ATOMS)},{rng.choice(ATOMS)})"
    if kind == "atom":
        return rng.choice(ATOMS)
    raise ValueError(kind)


def query_text(pred: str, args: list[str]) -> str:
    return f"?- {pred}({','.join(args)})."


def answer_multiset(stdout: str) -> Counter:
    """Answers as a multiset of binding sets; binding order within an answer
    follows the query's variable order, which normalization permutes."""
    blocks = stdout.strip("\n").split("\n\n") if stdout.strip() else []
    return Counter(frozenset(b.splitlines()) for b in blocks)


@dataclass
class QueryItem:
    """One query run on the original program and, with its arguments
    permuted by the normalization plan, on the normalized program."""

    id: str
    source: str
    query: str
    norm_source: str
    norm_query: str

    def run(self) -> list[Output]:
        return [
            call_cli(["run", "-", self.query], self.source),
            call_cli(["run", "-", self.norm_query], self.norm_source),
        ]

    def check(self, outputs: list[Output]) -> None:
        _require_ok(outputs)
        if answer_multiset(outputs[0].stdout) != answer_multiset(outputs[1].stdout):
            raise CheckFailed("original and normalized programs answer differently")


@dataclass
class ProbeItem:
    """A query on a long list whose single answer is known in advance."""

    id: str
    source: str
    query: str
    expected: str

    def run(self) -> list[Output]:
        return [call_cli(["run", "-", self.query], self.source)]

    def check(self, outputs: list[Output]) -> None:
        _require_ok(outputs)
        if outputs[0].stdout != self.expected:
            raise CheckFailed("wrong answer")


def format_list(elements: list[str]) -> str:
    """A list as ``run`` prints it: ``cons(a, cons(b, nil))``."""
    return "".join(f"cons({e}, " for e in elements) + "nil" + ")" * len(elements)


def normalize_program(source: str) -> tuple[str, dict[str, tuple[int, ...]]]:
    """The normalized program and its plan (new position -> original)."""
    out = call_cli(["normalize", "-"], source)
    _require_ok([out])
    plan = {}
    for line in out.stderr.splitlines():
        name, perm = line.split(": ")
        plan[name.split("/")[0]] = tuple(int(i) for i in perm.split(",")) if perm else ()
    return out.stdout, plan


def query_items(seed: int) -> list[QueryItem]:
    """Every predicate of QUERY_SPECS on every rung of the length ladder,
    with ground inputs drawn from ``seed``."""
    rng = random.Random(seed)
    programs: dict[str, tuple[str, str, dict]] = {}
    for fname in sorted({f for f, _ in QUERY_SPECS}):
        path = HERE / fname if fname == "nrev.lp" else FIXTURES / fname
        source = path.read_text()
        programs[fname] = (source, *normalize_program(source))
    modes_of = {}
    for fname, (source, _, _) in programs.items():
        for name, modes in _DECL_RE.findall(source):
            modes_of[fname, name] = modes.split(",")
    items = []
    for (fname, pred), kinds in QUERY_SPECS.items():
        source, norm_source, plan = programs[fname]
        for n in LADDER:
            inputs = iter([gen_input(rng, k, n) for k in kinds])
            args, n_out = [], 0
            for m in modes_of[fname, pred]:
                if m == "in":
                    args.append(next(inputs))
                else:
                    n_out += 1
                    args.append(f"Out{n_out}")
            permuted = [args[p - 1] for p in plan[pred]]
            items.append(QueryItem(
                f"{fname[:-3]}:{pred}:{n}", source, query_text(pred, args),
                norm_source, query_text(pred, permuted),
            ))
    return items


def probe_items(seed: int) -> list[ProbeItem]:
    """``app`` and ``rev`` on PROBE_LENGTH-element lists: input depth that the
    interpreter should handle but, when the benchmark was defined, did not."""
    rng = random.Random(seed ^ 0x9E37)
    elements = [rng.choice(ATOMS) for _ in range(PROBE_LENGTH)]
    term = list_term(elements)
    return [
        ProbeItem("probe:app", (FIXTURES / "append.lp").read_text(),
                  query_text("app", [term, "nil", "Z"]), f"Z = {format_list(elements)}\n"),
        ProbeItem("probe:rev", (FIXTURES / "reverse.lp").read_text(),
                  query_text("rev", [term, "Z"]), f"Z = {format_list(elements[::-1])}\n"),
    ]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    items: list
    probes: list = field(default_factory=list)


def setup(name: str, seed: int, golden: dict) -> Workload:
    """Make a workload's items; checks the generated programs against the
    recorded source digest so a drifting generator is caught early."""
    if name == "interp":
        return Workload(name, query_items(seed), probe_items(seed))
    sources = program_sources(name)
    recorded = golden.get(name, {})
    if recorded and sources_digest([s for _, s in sources]) != recorded["sources"]:
        raise CheckFailed(f"{name}: generated programs differ from the recorded ones")
    items = [
        ProgramItem(item_id, source, first_equal_arity_pair(source), recorded.get("items", {}).get(item_id))
        for item_id, source in sources
    ]
    return Workload(name, items)
