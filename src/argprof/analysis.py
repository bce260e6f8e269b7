"""The dataflow analysis: atomic and predicate analysis plus the driver.

The atomic analysis has one rule: an atom yields an interaction from each
variable it consumes to each other variable it produces (``atom_flow``),
carrying one operation at the atom's point. The operation names the kind:

  * ``V => f(Y1..Yn)`` flows from V into each Yi by ``deconstruct_f``,
  * ``V <= f(Y1..Yn)`` flows from each Yi into V by ``construct_f``,
  * ``V := W`` flows from W into V by ``assign``,
  * ``V == W`` produces nothing, so it yields nothing,
  * a call ``q(Y1..Ym)`` flows from its input actuals into its output
    actuals by ``psi_bot`` if q is in the caller's strongly connected
    component of the call graph and by ``psi(<q's ordered profile>)``
    otherwise; it also yields q's current interaction set with formals
    renamed to actuals.

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

The driver analyzes the strongly connected components of the call graph
bottom-up, as Datalog engines evaluate strata (Ullman, "Principles of
Database and Knowledge-Base Systems", 1988): each component is iterated to
a local fixpoint before any caller of it is considered, which is what
makes call abstractions stable, so each one is built once, when its
callee's component is discharged, and shared by every call site in every
round. Inside a component a worklist analyzes a member again only when a
member it calls has changed, a chaotic iteration (Bourdoncle, "Efficient
chaotic iteration strategies with widenings", FMPA 1993); a directly
recursive predicate is a component of one member that calls itself.

The rounds of one predicate are semi-naive (Bancilhon and Ramakrishnan,
"An amateur's introduction to recursive query processing strategies",
SIGMOD 1986). The first round builds each clause's atom and call sets once
and projects them; a clause without a call into its component is then
finished, and one with such a call keeps, for each of its pairs, the
argument masks the projection joined it into. Each later round renames
only the pairs of the callees' entries that grew since the round before
into those clauses, and applies the operations they bring over the kept
masks; only a round that adds a pair to a clause, which changes its
reachability, projects that clause again. A member none of whose callees
changed since its last round would repeat that round: if it changed, its
confirming round is recorded without being computed. Every program
converges because interaction sets over a predicate form a finite lattice
and each round only ever grows them.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable, Mapping

from .domain import (
    ASSIGN,
    PSI_BOT,
    ArgumentProfile,
    ConstructOp,
    DeconstructOp,
    InteractionSet,
    Pair,
    PointOps,
    PsiOp,
    _Builder,
    bottom,
    strip_points,
)
from .ordering import OrderedProfile, oprof
from .syntax import Assign, Atom, Call, Construct, Deconstruct, Predicate, Program, Record, Test, cone

Environment = dict[str, InteractionSet]


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


def _outside_ops(program: Program, name: str, env: Environment) -> dict[str, PsiOp]:
    """The call abstractions, built from ``env``, of the callees of ``name``
    outside its component: those that do not reach it."""
    return {
        q: call_abstraction(program.predicates[q], env[q])
        for q in program.call_graph[name]
        if name not in cone(program, (q,)).predicates
    }


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
    psi_ops: Mapping[str, PsiOp],
) -> None:
    """Join the interactions of one atom into ``out``: one carrying the op
    of its kind at its point from each input into each output with another
    name, and for a call the callee's renamed set. A call's op is its
    callee's abstraction in ``psi_ops``, which holds every callee outside
    the caller's component, and ``psi_bot`` for any other callee. The
    inputs and outputs are read off the atom's fields as ``atom_flow``
    defines them."""
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
        callee = program.predicates[atom.pred]
        _add_renamed(out, _renaming(callee, atom), env[atom.pred].pairs.items())
        inputs, outputs = callee.split(atom.args)
        by_point = {atom.point: psi_ops.get(atom.pred, PSI_BOT)}
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
    _add_atom(out, atom, env, program, _outside_ops(program, owner, env))
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
    None until the first round, which fills it with each clause that calls
    into the predicate's component: the builder of its atom and call sets,
    the callee and renaming of each such call, and the spans of its last
    projection (see ``_formal_flow``). ``seen`` maps each of those callees
    to the pairs of its set as the calls last renamed it.
    """

    __slots__ = ("acc", "formals", "open", "seen")

    def __init__(self, pred: Predicate) -> None:
        self.acc = _Builder(pred.name, pred.input_arg_names())
        self.formals = pred.arg_names
        self.open: list[tuple[_Builder, list[tuple[str, dict[str, str]]], Spans]] | None = None
        self.seen: dict[str, Mapping[Pair, PointOps]] = {}

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

    ``psi_ops`` maps the callees outside ``pred``'s component to their call
    abstractions; without it, they are found and built afresh.

    ``state`` carries the work of earlier rounds of the same predicate;
    without it, this is a one-shot analysis. The first round fills each
    clause's builder from its atoms and projects it, which is all a clause
    without a call into the component contributes. Each later round is
    semi-naive: the pairs of each such callee's entry that are new or grown
    since the round before (a grown pair holds a new op dict) are renamed
    into the builders of the clauses that call it. A clause that gains a
    pair is projected again; in one that only grows pairs, those pairs join
    their new operations over the spans kept from its last projection.
    Within one run each program point carries one operation and the
    entries only grow, so this equals analyzing every clause afresh.
    """
    if psi_ops is None:
        psi_ops = _outside_ops(program, pred.name, env)
    if state is None:
        state = RoundState(pred)
    if state.open is None:
        state.open = []
        for clause in pred.clauses:
            raw = _Builder(pred.name, state.acc.input_args)
            for atom in clause.body:
                _add_atom(raw, atom, env, program, psi_ops)
            renames = [
                (a.pred, _renaming(program.predicates[a.pred], a))
                for a in clause.body if a.__class__ is Call and a.pred not in psi_ops
            ]
            spans: Spans | None = {} if renames else None
            state.join_clause(raw, spans)
            if renames:
                state.open.append((raw, renames, spans))
    else:
        delta = {
            q: [(pair, ops) for pair, ops in env[q].pairs.items() if seen.get(pair) is not ops]
            for q, seen in state.seen.items()
        }
        for raw, renames, spans in state.open:
            size = len(raw.ops)
            grown = [g for q, rename in renames for g in _add_renamed(raw, rename, delta[q])]
            if len(raw.ops) != size:
                # A new pair changes the clause's reachability.
                spans.clear()
                state.join_clause(raw, spans)
            else:
                state.join_grown(spans, grown)
    state.seen = {q: env[q].pairs for _, renames, _ in state.open for q, _ in renames}
    return state.acc.freeze()


def _components(graph: Mapping[str, frozenset[str]]) -> tuple[list[list[str]], dict[str, list[str]]]:
    """The strongly connected components of ``graph`` in the order the
    driver discharges them, and each node's callers.

    Kosaraju and Sharir's two passes find them, iterative to be safe on
    deep graphs. A depth-first pass, roots in ``graph`` order and successors
    sorted, lists each node as it finishes; a pass over the callers, latest
    finish first, makes each unplaced node and the unplaced callers it
    reaches one component, in the order it reaches them, so that each
    member but the first calls one listed before it. That pass places every
    component after each component that calls it, so it counts each one's
    calls out of it as it meets them. Of the components whose calls out all
    go to components taken before, the one with the least member is taken
    next.
    """
    finished: list[str] = []
    seen: set[str] = set()
    for root in graph:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(sorted(graph[root])))]
        while work:
            node, succs = work[-1]
            for succ in succs:
                if succ not in seen:
                    seen.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    break
            else:
                work.pop()
                finished.append(node)
    callers: dict[str, list[str]] = {node: [] for node in graph}
    for node, succs in graph.items():
        for succ in succs:
            callers[succ].append(node)
    component: dict[str, int] = {}
    sccs: list[list[str]] = []
    pending: list[int] = []  # per component, its calls out to components not yet taken
    for node in reversed(finished):
        if node in component:
            continue
        i = component[node] = len(sccs)
        scc = [node]
        for member in scc:  # scc grows as the walk finds callers
            for caller in callers[member]:
                j = component.get(caller)
                if j is None:
                    component[caller] = i
                    scc.append(caller)
                elif j != i:
                    pending[j] += 1
        sccs.append(scc)
        pending.append(0)
    order = []
    ready = [(min(scc), i) for i, scc in enumerate(sccs) if not pending[i]]
    heapq.heapify(ready)
    while ready:
        i = heapq.heappop(ready)[1]
        order.append(sccs[i])
        for member in sccs[i]:
            for caller in callers[member]:
                j = component[caller]
                if j != i:
                    pending[j] -= 1
                    if not pending[j]:
                        heapq.heappush(ready, (min(sccs[j]), j))
    return order, callers


def run_analysis(program: Program) -> tuple[Environment, AnalysisTrace]:
    """Analyze a whole program bottom-up to a global fixpoint.

    The strongly connected components of the call graph are discharged one
    at a time: of those whose calls out of themselves all go to discharged
    ones, the one with the lexicographically least member first, so runs
    are deterministic. A worklist takes a component's members callee-first
    and analyzes one again when a member it calls has changed since its
    last round, until none has; then each member whose last round changed
    gets its confirming round recorded. A predicate that another component
    calls gets its call abstraction built once, when that component comes
    up, and every call site shares it.
    """
    env = initial_environment(program)
    trace: AnalysisTrace = []
    psi_ops: dict[str, PsiOp] = {}
    graph, predicates = program.call_graph, program.predicates
    order, callers = _components(graph)
    for members in order:
        states = {name: RoundState(predicates[name]) for name in members}  # its keys: the component
        for name in members:
            for q in graph[name]:
                if q not in states and q not in psi_ops:
                    psi_ops[q] = call_abstraction(predicates[q], env[q])
        work, queued, last = deque(members), set(members), {}
        while work:
            name = work.popleft()
            queued.remove(name)
            new = analyze_predicate(predicates[name], env, program, psi_ops, states[name])
            last[name] = changed = new != env[name]
            trace.append(TraceEntry(len(trace) + 1, name, new, changed))
            if changed:
                env[name] = new
                for caller in callers[name]:
                    if caller in states and caller not in queued:
                        queued.add(caller)
                        work.append(caller)
        for name in members:
            if last[name]:
                # Its callees are as its last round read them: record the
                # round that would repeat it.
                trace.append(TraceEntry(len(trace) + 1, name, env[name], False))
    return env, trace


def round_counts(trace: AnalysisTrace) -> dict[str, tuple[int, int]]:
    """Per predicate: (changing rounds, total rounds)."""
    counts: dict[str, tuple[int, int]] = {}
    for entry in trace:
        changing, total = counts.get(entry.predicate, (0, 0))
        counts[entry.predicate] = (changing + (1 if entry.changed else 0), total + 1)
    return counts
