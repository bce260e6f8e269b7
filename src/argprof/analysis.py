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

``_add_atom`` applies the rule with one switch on the atom's class, reading
each kind's inputs and outputs straight off its fields, as ``atom_flow``
defines them, and a call's through its callee's ``split``.

A predicate's argument profiles and ordered profile are built by one
function, ``argument_profiles``, which keeps them on the analyzed set: the
call abstraction reads them there, and so do the commands that print,
plan or compare profiles afterwards.

Clause analysis joins the atom results and keeps the flow from argument to
argument, with data flowing through local variables composed in. Only the
argument pairs of the closure are needed, so they are read off
reachability from the arguments instead of closing over every variable
(see ``_formal_flow``): linear in the clause's flow when each variable is
reached from few arguments, also when arguments lie on a flow cycle.

The driver analyzes predicates bottom-up over the call graph: each
predicate is iterated to a local fixpoint before any caller of it is
considered, which is what makes call abstractions stable, so each one is
built once, when its callee is discharged, and shared by every call site
in every round. The rounds of one predicate are semi-naive (Bancilhon
and Ramakrishnan, "An amateur's introduction to recursive query
processing strategies", SIGMOD 1986). The first round builds each
clause's atom and call sets once and projects them; a clause without a
self-call is then finished, and one with a self-call keeps, for each of
its pairs, the argument masks the projection joined it into. Each later
round renames only the pairs of the environment entry that grew since the
round before into those clauses, and applies the operations they bring
over the kept masks; only a round that adds a pair to a clause, which
changes its reachability, projects that clause again. A predicate that
never calls itself reads only discharged callees, so its second round
cannot differ from its first: that confirming round is recorded without
being computed. Directly recursive programs always converge because
interaction sets over a predicate form a finite lattice and each round
only ever grows them.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from collections.abc import Iterable, Mapping

from .domain import (
    ASSIGN,
    PSI_BOT,
    ArgumentProfile,
    ConstructOp,
    DeconstructOp,
    InteractionSet,
    Operation,
    Pair,
    PointOps,
    PsiOp,
    _Builder,
    bottom,
    strip_points,
)
from .ordering import OrderedProfile, oprof
from .syntax import Assign, Atom, Call, Construct, Deconstruct, Predicate, Program, Record, Test

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


def argument_profiles(
    pred: Predicate, s: InteractionSet
) -> tuple[tuple[ArgumentProfile, ...], OrderedProfile]:
    """The argument profiles of ``pred``'s analyzed set ``s`` and their
    ordered profile, built once and kept on ``s`` for the argument names
    they were built for."""
    names = pred.arg_names
    kept = s.kept_profiles
    if kept is not None and kept[0] == names:
        return kept[1], kept[2]
    profile = strip_points(s, names)
    ordered = oprof(profile)
    s.kept_profiles = (names, profile, ordered)
    return profile, ordered


def call_abstraction(callee: Predicate, callee_set: InteractionSet) -> PsiOp:
    """``psi(<callee's ordered profile>)`` for a call to an analyzed callee."""
    return PsiOp(argument_profiles(callee, callee_set)[1].profiles)


def _renaming(callee: Predicate, atom: Call) -> dict[str, str]:
    """The callee's formals mapped to the call's actuals."""
    return {f.name: a.name for f, a in zip(callee.args, atom.args)}


def _add_renamed(
    out: _Builder, rename: Mapping[str, str], pairs: Iterable[tuple[Pair, PointOps]]
) -> list[tuple[Pair, PointOps]]:
    """Join ``pairs`` with their variables renamed by ``rename`` into
    ``out``; returns each renamed pair that was added or grown, with the
    operations it brought."""
    grown = []
    for (source, target), ops in pairs:
        src, tgt = rename[source], rename[target]
        # Aliased actuals collapse the edge.
        if src != tgt and out.add(src, tgt, ops):
            grown.append(((src, tgt), ops))
    return grown


def _add_atom(
    out: _Builder,
    atom: Atom,
    env: Environment,
    program: Program,
    psi_ops: Mapping[str, PsiOp] | None,
) -> None:
    """Join the interactions of one atom into ``out``: one carrying the op
    of its kind at its point from each input into each output with another
    name, and for a call the callee's renamed set. A non-recursive call
    takes its abstraction from ``psi_ops`` when given. The inputs and
    outputs are read off the atom's fields as ``atom_flow`` defines them."""
    cls = atom.__class__
    if cls is Deconstruct:
        source = atom.var.name
        by_point = {atom.point: DeconstructOp(atom.functor, len(atom.args))}
        for y in atom.args:
            if y.name != source:
                out.add(source, y.name, by_point)
    elif cls is Construct:
        target = atom.var.name
        by_point = {atom.point: ConstructOp(atom.functor, len(atom.args))}
        for x in atom.args:
            if x.name != target:
                out.add(x.name, target, by_point)
    elif cls is Assign:
        source, target = atom.source.name, atom.target.name
        if source != target:
            out.add(source, target, {atom.point: ASSIGN})
    elif cls is Call:
        if atom.pred not in env:
            raise AnalysisError(f"predicate '{atom.pred}' missing from environment")
        callee = program.predicates[atom.pred]
        callee_set = env[atom.pred]
        _add_renamed(out, _renaming(callee, atom), callee_set.pairs.items())
        op: Operation
        if atom.pred == out.owner:
            op = PSI_BOT
        elif psi_ops is not None:
            op = psi_ops[atom.pred]
        else:
            op = call_abstraction(callee, callee_set)
        inputs, outputs = callee.split(atom.args)
        by_point = {atom.point: op}
        for x in inputs:
            for y in outputs:
                if x.name != y.name:
                    out.add(x.name, y.name, by_point)
    elif cls is not Test:  # a test has no outputs
        raise TypeError(f"not an atom: {atom!r}")


def analyze_atom(atom: Atom, env: Environment, program: Program) -> InteractionSet:
    """Interactions contributed by one atom under the current environment."""
    owner = program.owner_of_point(atom.point)
    out = _Builder(owner, program.predicates[owner].input_arg_names())
    _add_atom(out, atom, env, program, None)
    return out.freeze()


def _reach(start: dict[str, int], edges: dict[str, list[str]]) -> dict[str, int]:
    """For every variable, the union of the masks in ``start`` of the
    variables it is reached from along ``edges`` (itself included)."""
    mask = dict(start)
    work = list(start)
    while work:
        v = work.pop()
        have = mask[v]
        for w in edges.get(v, ()):
            old = mask.get(w, 0)
            if old | have != old:
                mask[w] = old | have
                work.append(w)
    return mask


Spans = dict[Pair, list[tuple[list[str], list[str]]]]


def _formal_flow(
    raw: Mapping[Pair, PointOps], formals: Iterable[str], spans: Spans | None = None
) -> dict[Pair, PointOps]:
    """The pairs of ``formals`` in the closure of the pairs ``raw`` (see
    ``transitive_closure``).

    They are read off reachability rather than closed (Reps, Horwitz and
    Sagiv, "Precise interprocedural dataflow analysis via graph
    reachability", POPL 1995). With ``src(v)`` the formals that reach v and
    ``tgt(v)`` those v reaches, each pair (u, v) of ``raw`` joins its
    operations into every (x, z) with x in src(u), z in tgt(v) and x != z:
    it lies on a walk x ~> u -> v ~> z. Composing no self-pair, the closure
    composes a walk of two pairs or more from x to z exactly when a
    variable inside it is neither x nor z: u or v, unless (u, v) is
    (z, x). So a pair (z, x) of formals joins (x, z) only when a variable
    w other than x and z has x in src(w) and z in tgt(w).

    Given ``spans``, each pair of ``raw`` that joins some (x, z) is mapped
    there to its products of sources and targets, as lists of formals: the
    flow is those products applied to the pairs' operations, and stays so
    while no pair is added to ``raw``.
    """
    bit = {x: 1 << i for i, x in enumerate(formals)}
    succ: dict[str, list[str]] = {}
    pred: dict[str, list[str]] = {}
    for u, v in raw:
        succ.setdefault(u, []).append(v)
        pred.setdefault(v, []).append(u)
    src = _reach(bit, succ)
    tgt = _reach(bit, pred)
    # Each pair's masks of sources and targets; a pair (z, x) that must not
    # join (x, z) joins the two products that leave it out.
    products = []
    for pair, ops in raw.items():
        u, v = pair
        sources, targets = src.get(u), tgt.get(v)
        b, c = bit.get(v), bit.get(u)
        if b and c and sources & b and not any(
            w != u and w != v and mask & b and tgt.get(w, 0) & c for w, mask in src.items()
        ):
            products += [(sources & ~b, targets, ops, pair), (b, targets & ~c, ops, pair)]
        else:
            products.append((sources, targets, ops, pair))
    named: dict[int, list[str]] = {}  # the formals in each mask met
    flow: dict[Pair, PointOps] = {}
    for sources, targets, ops, pair in products:
        if not (sources and targets):
            continue
        for mask in sources, targets:
            if mask not in named:
                named[mask] = [x for x, b in bit.items() if mask & b]
        xs, zs = named[sources], named[targets]
        if spans is not None:
            spans.setdefault(pair, []).append((xs, zs))
        for x in xs:
            for z in zs:
                if x != z:
                    have = flow.get((x, z))
                    if have is None:
                        flow[(x, z)] = dict(ops)
                    else:
                        have.update(ops)
    return flow


def transitive_closure(s: InteractionSet) -> InteractionSet:
    """Least fixpoint of composing interactions through shared variables.

    For pairwise-distinct X, Y, Z with X ~{O}~> Y and Y ~{O'}~> Z, the
    interaction X ~{O u O'}~> Z is merged in (union keyed by program
    point) until nothing changes. The pairs are read off as ``project``
    reads those of the arguments, with every variable of ``s`` taken as an
    argument (see ``_formal_flow``).
    """
    formals = dict.fromkeys(v for pair in s.pairs for v in pair)
    return InteractionSet(s.owner, s.input_args, _formal_flow(s.pairs, formals))


def project(s: InteractionSet, pred: Predicate) -> InteractionSet:
    """The argument-to-argument pairs of the transitive closure of ``s``."""
    return InteractionSet(s.owner, s.input_args, _formal_flow(s.pairs, pred.arg_names))


class RoundState:
    """What one predicate's fixpoint rounds carry from round to round.

    ``acc`` is the predicate's set, joined over the clauses. ``open`` is
    None until the first round, which fills it with each clause that has a
    self-call: the builder of its atom and call sets, the renaming of each
    self-call, and the spans of its last projection (see ``_formal_flow``).
    ``seen`` holds the pairs of the predicate's set as the self-calls last
    renamed it.
    """

    __slots__ = ("acc", "formals", "open", "seen")

    def __init__(self, pred: Predicate) -> None:
        self.acc = _Builder(pred.name, pred.input_arg_names())
        self.formals = pred.arg_names
        self.open: list[tuple[_Builder, list[dict[str, str]], Spans]] | None = None
        self.seen: Mapping[Pair, PointOps] = {}

    def join_clause(self, raw: _Builder, spans: Spans | None = None) -> None:
        """Join the argument-to-argument flow of a clause into ``acc``."""
        acc = self.acc
        for (x, y), ops in _formal_flow(raw.ops, self.formals, spans).items():
            acc.add(x, y, ops)

    def join_grown(self, spans: Spans, grown: list[tuple[Pair, PointOps]]) -> None:
        """Join into ``acc`` the operations each pair of ``grown`` brought
        to a clause, over that pair's spans."""
        acc = self.acc
        for pair, ops in grown:
            for xs, zs in spans.get(pair, ()):
                for x in xs:
                    for z in zs:
                        if x != z:
                            acc.add(x, z, ops)


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
    without it, this is a one-shot analysis. The first round fills each
    clause's builder from its atoms and projects it, which is all a clause
    without a self-call contributes. Each later round is semi-naive: the
    pairs of ``env[pred.name]`` that are new or grown since the round
    before (a grown pair holds a new op dict) are renamed into the builders
    of the clauses that call themselves. A clause that gains a pair is
    projected again; in one that only grows pairs, those pairs join their
    new operations over the spans kept from its last projection. Within
    one run each program point carries one operation and
    ``env[pred.name]`` only grows, so this equals analyzing every clause
    afresh.
    """
    if state is None:
        state = RoundState(pred)
    if state.open is None:
        state.open = []
        for clause in pred.clauses:
            raw = _Builder(pred.name, state.acc.input_args)
            for atom in clause.body:
                _add_atom(raw, atom, env, program, psi_ops)
            renames = [
                _renaming(pred, a) for a in clause.body if isinstance(a, Call) and a.pred == pred.name
            ]
            spans: Spans | None = {} if renames else None
            state.join_clause(raw, spans)
            if renames:
                state.open.append((raw, renames, spans))
    else:
        seen = state.seen
        delta = [(pair, ops) for pair, ops in env[pred.name].pairs.items() if seen.get(pair) is not ops]
        for raw, renames, spans in state.open:
            size = len(raw.ops)
            grown = [g for rename in renames for g in _add_renamed(raw, rename, delta)]
            if len(raw.ops) != size:
                # A new pair changes the clause's reachability.
                spans.clear()
                state.join_clause(raw, spans)
            else:
                state.join_grown(spans, grown)
    state.seen = env[pred.name].pairs
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
        callees = program.call_graph[p] - {p}
        pending[p] = len(callees)
        for q in callees:
            callers[q].append(p)
    ready = sorted(p for p, n in pending.items() if not n)  # a sorted list is a heap
    round_index = 0
    while ready:
        name = heapq.heappop(ready)
        pred = program.predicates[name]
        state = RoundState(pred)
        self_recursive = name in program.call_graph[name]
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
