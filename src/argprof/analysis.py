"""The dataflow analysis: atomic and predicate analysis plus the driver.

The atomic analysis has one rule: an atom yields an interaction from each
variable it consumes to each other variable it produces (``atom_flow``),
carrying one operation at the atom's point. The operation names the kind:

  * ``V => f(Y1..Yn)`` flows from V into each Yi by ``deconstruct_f``,
  * ``V <= f(Y1..Yn)`` flows from each Yi into V by ``construct_f``,
  * ``V := W`` flows from W into V by ``assign``,
  * ``V == W`` produces nothing, so it yields nothing,
  * a call ``q(Y1..Ym)`` flows from its input actuals into its output
    actuals by ``psi_bot`` if it is directly recursive and by
    ``psi(<callee's ordered profile>)`` otherwise; it also yields the
    callee's current interaction set with formals renamed to actuals.

Clause analysis joins the atom results, closes them transitively (data
flowing through local variables composes into argument-to-argument flow)
and projects onto the formal arguments. The closure is semi-naive: each
step composes only the pairs the step before added or grew.

The driver analyzes predicates bottom-up over the call graph: each
predicate is iterated to a local fixpoint before any caller of it is
considered, which is what makes call abstractions stable, so each one is
built once, when its callee is discharged, and shared by every call site
in every round. The rounds of one predicate are incremental too. The
first round builds and closes each clause's set once, from every atom but
the environment entry its self-calls read; a clause without a self-call
is then finished. Each later round joins only the renamed entry into the
clauses that call themselves and closes over just the pairs it grew, and
only argument-to-argument pairs that grew reach the predicate's set. A
predicate that never calls itself reads only discharged callees, so its
second round cannot differ from its first: that confirming round is
recorded without being computed. Directly recursive programs always
converge because interaction sets over a predicate form a finite lattice
and each round only ever grows them.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from collections.abc import Iterable, Mapping

from .domain import (
    ASSIGN,
    PSI_BOT,
    ConstructOp,
    DeconstructOp,
    InteractionSet,
    Operation,
    Pair,
    PsiOp,
    TEST,
    _Builder,
    bottom,
    strip_points,
)
from .ordering import oprof
from .syntax import Assign, Atom, Call, Construct, Deconstruct, Predicate, Program, Record, atom_flow

Environment = dict[str, InteractionSet]


class AnalysisError(Exception):
    pass


class NonDirectRecursionError(AnalysisError):
    def __init__(self, remaining: list[str]):
        super().__init__(
            "no analyzable predicate left; mutual recursion among " + ", ".join(remaining)
        )
        self.remaining = remaining


class TraceEntry(Record):
    __slots__ = __match_args__ = ("round", "predicate", "snapshot", "changed")

    def __init__(self, round: int, predicate: str, snapshot: InteractionSet, changed: bool):
        self.round = round
        self.predicate = predicate
        self.snapshot = snapshot
        self.changed = changed


AnalysisTrace = list[TraceEntry]


def initial_environment(program: Program) -> Environment:
    return {
        name: bottom(name, pred.input_arg_names())
        for name, pred in program.predicates.items()
    }


def call_abstraction(callee: Predicate, callee_set: InteractionSet) -> PsiOp:
    """``psi(<callee's ordered profile>)`` for a call to an analyzed callee."""
    return PsiOp(oprof(strip_points(callee_set, callee.arg_names)).profiles)


def _add_renamed(
    out: _Builder,
    callee: Predicate,
    atom: Call,
    callee_set: InteractionSet,
    grown: dict[tuple[str, str], None],
) -> None:
    """Join ``callee_set`` with the callee's formals renamed to the call's
    actuals into ``out``, noting in ``grown`` each pair added or grown."""
    rename = {f.name: a.name for f, a in zip(callee.args, atom.args)}
    for (source, target), ops in callee_set.pairs.items():
        src, tgt = rename[source], rename[target]
        # Aliased actuals collapse the edge.
        if src != tgt and out.add(src, tgt, ops):
            grown[(src, tgt)] = None


def _add_flow(out: _Builder, atom: Atom, program: Program, op: Operation) -> None:
    """Join one interaction carrying ``op`` at the atom's point from each
    input of ``atom`` into each of its outputs with another name."""
    inputs, outputs = atom_flow(atom, program.predicates)
    by_point = {atom.point: op}
    for x in inputs:
        for y in outputs:
            if x.name != y.name:
                out.add(x.name, y.name, by_point)


def _add_atom(
    out: _Builder,
    atom: Atom,
    env: Environment,
    program: Program,
    psi_ops: Mapping[str, PsiOp] | None,
) -> None:
    """Join the interactions of one atom into ``out``; a non-recursive call
    takes its abstraction from ``psi_ops`` when given."""
    op: Operation
    if isinstance(atom, Deconstruct):
        op = DeconstructOp(atom.functor, len(atom.args))
    elif isinstance(atom, Construct):
        op = ConstructOp(atom.functor, len(atom.args))
    elif isinstance(atom, Assign):
        op = ASSIGN
    elif isinstance(atom, Call):
        if atom.pred not in env:
            raise AnalysisError(f"predicate '{atom.pred}' missing from environment")
        callee = program.predicates[atom.pred]
        callee_set = env[atom.pred]
        _add_renamed(out, callee, atom, callee_set, {})
        if atom.pred == out.owner:
            op = PSI_BOT
        elif psi_ops is not None:
            op = psi_ops[atom.pred]
        else:
            op = call_abstraction(callee, callee_set)
    else:
        op = TEST  # a test has no outputs
    _add_flow(out, atom, program, op)


def analyze_atom(atom: Atom, env: Environment, program: Program) -> InteractionSet:
    """Interactions contributed by one atom under the current environment."""
    owner = program.owner_of_point(atom.point)
    out = _Builder(owner, program.predicates[owner].input_arg_names())
    _add_atom(out, atom, env, program, None)
    return out.freeze()


def _close(out: _Builder, delta: dict[Pair, None] | None = None) -> dict[Pair, None]:
    """Close ``out`` in place under composition through shared variables,
    and return the pairs added or grown (every pair when ``delta`` is None).

    For pairwise-distinct X, Y, Z with X ~{O}~> Y and Y ~{O'}~> Z, the
    interaction X ~{O u O'}~> Z is merged in (union keyed by program
    point, O' winning at a shared point) until nothing changes.

    Evaluation is semi-naive: each step composes only the pairs added or
    grown by the step before, on either side, with the current pairs they
    meet through the successor and predecessor indexes. A pair that grows
    is composed again in the next step, so every composition of the final
    pairs is made at least once. ``delta`` names the pairs added or grown
    since ``out`` was last closed; the first step composes only those, with
    indexes over all pairs.
    """
    ops = out.ops
    # Dicts as insertion-ordered sets, so every run composes in one order.
    succ: dict[str, dict[str, None]] = {}
    pred: dict[str, dict[str, None]] = {}
    if delta is None:
        delta = dict.fromkeys(ops)
    changed = dict(delta)
    unindexed: Iterable[Pair] = ops  # every pair, then each step's new ones
    while delta:
        for x, y in unindexed:
            succ.setdefault(x, {})[y] = None
            pred.setdefault(y, {})[x] = None
        grown: dict[Pair, None] = {}
        for x, y in delta:
            # (x, y) then (y, z); y != z since there are no self-edges.
            for z in succ.get(y, ()):
                if z != x and out.add(x, z, {**ops[(x, y)], **ops[(y, z)]}):
                    grown[(x, z)] = None
            # (w, x) then (x, y)
            for w in pred.get(x, ()):
                if w != y and out.add(w, y, {**ops[(w, x)], **ops[(x, y)]}):
                    grown[(w, y)] = None
        changed.update(grown)
        delta = unindexed = grown
    return changed


def transitive_closure(s: InteractionSet) -> InteractionSet:
    """Least fixpoint of composing interactions through shared variables
    (see ``_close``)."""
    out = _Builder(s.owner, s.input_args)
    out.add_set(s)
    _close(out)
    return out.freeze()


def project(s: InteractionSet, pred: Predicate) -> InteractionSet:
    """Close ``s`` transitively, then keep only argument-to-argument flow."""
    closed = transitive_closure(s)
    formals = set(pred.arg_names)
    kept = {
        (x, y): ops for (x, y), ops in closed.pairs.items() if x in formals and y in formals
    }
    return InteractionSet(s.owner, s.input_args, kept)


class RoundState:
    """What one predicate's fixpoint rounds carry from round to round.

    ``acc`` is the predicate's set, joined over the clauses. ``open`` is
    None until the first round, which fills it with each clause that has a
    self-call, as its closed builder and its self-calls.
    """

    __slots__ = ("acc", "formals", "open")

    def __init__(self, pred: Predicate) -> None:
        self.acc = _Builder(pred.name, pred.input_arg_names())
        self.formals = frozenset(pred.arg_names)
        self.open: list[tuple[_Builder, list[Call]]] | None = None

    def keep_formal_pairs(self, clause: _Builder, pairs: Iterable[Pair]) -> None:
        """Join the argument-to-argument pairs among ``pairs`` of a closed
        clause builder into ``acc``, which shares their operation dicts."""
        formals, ops, acc = self.formals, clause.ops, self.acc
        for x, y in pairs:
            if x in formals and y in formals:
                acc.add(x, y, ops[(x, y)])


def analyze_predicate(
    pred: Predicate,
    env: Environment,
    program: Program,
    psi_ops: Mapping[str, PsiOp] | None = None,
    state: RoundState | None = None,
) -> InteractionSet:
    """Join, over the clauses, the projected closure of the body analysis.

    ``psi_ops`` maps discharged callees to their call abstractions; without
    it, the abstraction of a non-recursive call is built afresh.

    ``state`` carries the work of earlier rounds of the same predicate;
    without it, this is a one-shot analysis. The first round fills and
    closes each clause's builder from every atom except the sets its
    self-calls read from ``env``, which is all a clause without a self-call
    contributes. Every round then joins only those renamed sets and closes
    over just the pairs they grew. Within one run each program point
    carries one operation and ``env[pred.name]`` only grows, so this equals
    closing every clause afresh.
    """
    if state is None:
        state = RoundState(pred)
    if state.open is None:
        state.open = []
        for clause in pred.clauses:
            builder = _Builder(pred.name, state.acc.input_args)
            self_calls = []
            for atom in clause.body:
                if isinstance(atom, Call) and atom.pred == pred.name:
                    self_calls.append(atom)
                    _add_flow(builder, atom, program, PSI_BOT)
                else:
                    _add_atom(builder, atom, env, program, psi_ops)
            state.keep_formal_pairs(builder, _close(builder))
            if self_calls:
                state.open.append((builder, self_calls))
    own_set = env[pred.name]
    for builder, self_calls in state.open:
        grown: dict[Pair, None] = {}
        for atom in self_calls:
            _add_renamed(builder, pred, atom, own_set, grown)
        if grown:
            state.keep_formal_pairs(builder, _close(builder, grown))
    return state.acc.freeze()


def run_analysis(program: Program) -> tuple[Environment, AnalysisTrace]:
    """Analyze a whole program bottom-up to a global fixpoint.

    Among eligible predicates the lexicographically first is selected, so
    runs are deterministic. Each predicate is iterated until its computed
    set equals its environment entry (program points included), then
    discharged; a predicate that others call then gets its call
    abstraction built once, and every call site shares it. Raises
    NonDirectRecursionError if a call-graph cycle of
    length two or more blocks progress.
    """
    env = initial_environment(program)
    trace: AnalysisTrace = []
    psi_ops: dict[str, PsiOp] = {}
    # Per predicate, how many of its callees other than itself are not yet
    # analyzed, and who calls it; the heap holds the eligible predicates,
    # those with no such callee left.
    pending: dict[str, int] = {}
    callers: defaultdict[str, list[str]] = defaultdict(list)
    for p in program.predicates:
        callees = program.call_graph.get(p, frozenset()) - {p}
        pending[p] = len(callees)
        for q in callees:
            callers[q].append(p)
    ready = sorted(p for p, n in pending.items() if not n)  # a sorted list is a heap
    round_index = 0
    while ready:
        name = heapq.heappop(ready)
        pred = program.predicates[name]
        state = RoundState(pred)
        self_recursive = name in program.call_graph.get(name, ())
        while True:
            round_index += 1
            new = analyze_predicate(pred, env, program, psi_ops, state)
            changed = new != env[name]
            trace.append(TraceEntry(round_index, name, new, changed))
            if not changed:
                break
            env[name] = new
            if not self_recursive:
                # The next round reads only discharged callees, so it would
                # repeat this one: record it as the confirming round.
                round_index += 1
                trace.append(TraceEntry(round_index, name, new, False))
                break
        if callers[name]:
            psi_ops[name] = call_abstraction(pred, env[name])
        for caller in callers[name]:
            pending[caller] -= 1
            if not pending[caller]:
                heapq.heappush(ready, caller)
        del pending[name]
    if pending:
        raise NonDirectRecursionError(sorted(pending))
    return env, trace


def round_counts(trace: AnalysisTrace) -> dict[str, tuple[int, int]]:
    """Per predicate: (changing rounds, total rounds)."""
    counts: dict[str, tuple[int, int]] = {}
    for entry in trace:
        changing, total = counts.get(entry.predicate, (0, 0))
        counts[entry.predicate] = (changing + (1 if entry.changed else 0), total + 1)
    return counts
