"""Reference interpreter: depth-first resolution with leftmost selection.

Execution follows the moded semantics: when an atom is selected, its input
positions must be ground and its output positions free, so every
successful derivation produces ground answers. Clauses are tried in source
order with backtracking; answer order is therefore deterministic, and the
answer multiset is independent of argument arrangement. Queries may use
nested ground terms in input positions, unlike program text which is flat.

A mandatory step limit bounds the search: every unification resolution and
every clause tried for a call counts as one derivation step.

The solver is one loop over an explicit machine, in the manner of the
classic Prolog engine (Warren, "An abstract Prolog instruction set", SRI
TN 309, 1983), so neither term depth nor derivation length touches
Python's recursion limit:

* **Instructions.** Each predicate's clauses are compiled on their first
  call in a ``solve``. The language is moded, so the names bound before
  each body atom are known when it is compiled: the head inputs and the
  outputs of the atoms to its left. One walk over a body gives each name a
  slot of the clause's frame, a list, in the order the names are bound, so
  an atom's outputs take consecutive slots. Which atoms pass their mode
  checks, ``modecheck.bind_passing`` decides, the rule the mode checker
  uses. An atom that passes becomes one instruction over slots that
  checks nothing at run time. The first atom that fails ends the code
  with a fault instruction, and the rest of the body is not compiled.
  When reached, the fault charges the atom's step (a call has none) and
  raises the error, named when compiled, of the first fault that
  ``modecheck.mode_faults``, the function the mode checker reports,
  lists, at ``point N``; that lists a program call's repeated outputs
  last, as the call finds them on return. A program call whose only
  faults are repeated outputs, and a deconstruct whose input passes, run
  first, with their outputs in slots of their own, and their fault
  charges nothing. A clause that reaches its end with a head output
  unbound faults there.
* **Continuations.** The machine runs one clause body at a time: its
  instructions, the index of the next one, its frame and the return
  record of the call that entered it. On reaching the end of a body it
  writes the clause's head outputs into the call's output slots of the
  caller's frame, in place, and resumes the caller after the call. A
  clause's last call whose outputs are the clause's head outputs, in order
  and without a repeat, is a tail call: the callee is entered with the
  running body's return record, so its outputs go straight to the clause's
  caller, which is what writing them into the clause's frame and then
  returning them would do. Each answer then costs one return however deep
  the last call that found it (last-call optimisation in that engine); a
  query's calls stay plain calls, since answers are read from its frame.
* **Choice points.** A call selects the callee's clauses that admit its
  input and enters the first of them directly. Each clause entered gets a
  frame of its own: its head input values followed by empty slots. Only
  if a later clause also admits the input does the call push a choice
  point: the callee's clauses, the mask of those still to enter, the next
  clause, the input values and the return record. A return record holds
  its caller's frame, which later returns write again, but a continuation
  reads only slots bound before it, and no slot bound before a call is
  written after it. So backtracking has nothing to undo or copy: it enters
  the next admitted clause of the choice point on top of the stack, which
  leaves the stack with its last one.
* **Clause selection.** As with ``switch_on_term`` in that engine, a
  clause whose body starts by deconstructing a head input has a key: the
  input's position and the functor and arity it expects. When a predicate
  is compiled, each key position gets a switch: a dict from a functor and
  arity to the bitmask of the clauses that admit it there, those keyed
  with it and those not keyed there, and the mask of the latter for any
  other value. A call ands the masks of its input values; with no key
  position every clause is admitted. A clause whose key differs from the
  call's input would fail its first atom, so it is passed over, and the 2
  steps of entering it and failing are charged with the entry of the next
  admitted clause, where the clause would have been tried. A keyed clause
  is always entered with its deconstruct done, its outputs bound from the
  input and its step charged, as selection has decided it: the key's input
  is a bound head input, so the deconstruct runs before any fault of its
  outputs, and such a fault is the clause's first instruction, which
  charges nothing. When no later clause is admitted, the call is
  determinate: it leaves no choice point, and the steps of the clauses
  after the entered one stay on the choice stack as a charge-only entry.
  Backtracking onto it only charges them, and adjacent ones merge.
* **Queries.** A query is compiled by the same body compiler into one
  flat goal on the same machine, with one frame that starts with the
  given bindings. Ground input terms are held in the frame as parsed;
  input terms that use query variables are built when their atom is
  reached, with an explicit stack, and share every subterm that holds no
  variable. Which are which, the mode check and the compiler read from the
  query's record, ``Query.nonground``, so no ground input is walked. A
  query atom that holds an unknown predicate, a term or a repeated
  variable in an output position, or an unbound variable in an input,
  becomes a fault instruction as in a clause. Errors name the
  query atom as ``goal atom i`` and carry it, which places them in the
  query's text.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Mapping
from operator import is_, itemgetter

from .modecheck import (
    NOT_VAR,
    REPEATED,
    UNBOUND,
    bind_passing,
    fault_text,
    mode_faults,
    unbound_output_text,
)
from .parse import Query
from .syntax import (
    Atom,
    Call,
    CallError,
    Clause,
    Construct,
    Deconstruct,
    FunctorTerm,
    Predicate,
    Program,
    Term,
    Test,
    Var,
    atom_flow,
)

__all__ = [
    "DEFAULT_STEP_LIMIT",
    "solve",
    "SolveError",
    "RuntimeModeError",
    "StepLimitExceeded",
]

DEFAULT_STEP_LIMIT = 1_000_000


class SolveError(Exception):
    """``atom`` is the atom whose fault raised the error, or None."""

    def __init__(self, message: str, atom: Atom | None = None):
        super().__init__(message)
        self.atom = atom


class RuntimeModeError(SolveError):
    """An atom was selected with a non-ground input or a bound output.

    On statically validated programs this only arises from ill-moded
    queries; on unvalidated programs it signals what the mode checker
    would have reported.
    """


class StepLimitExceeded(SolveError):
    def __init__(self, limit: int):
        super().__init__(f"step limit exceeded ({limit})")
        self.limit = limit


Answer = dict[str, FunctorTerm]

_Frame = list


def _build(t: Term, frame: _Frame, slots: Mapping[str, int]) -> FunctorTerm:
    """The ground value of query term ``t``, whose variables are bound in
    ``frame`` at ``slots``; a subterm that holds no variable is shared."""
    values: list[FunctorTerm] = []
    # Terms still to build, and one-tuples holding a term whose argument
    # values are built: it is its own value when they are its arguments.
    work: list[Term | tuple[FunctorTerm]] = [t]
    while work:
        item = work.pop()
        if isinstance(item, Var):
            values.append(frame[slots[item.name]])
        elif isinstance(item, FunctorTerm):
            if item.args:
                work.append((item,))
                work.extend(reversed(item.args))
            else:
                values.append(item)
        else:
            (term,) = item
            args = tuple(values[len(values) - len(term.args) :])
            del values[len(values) - len(term.args) :]
            values.append(term if all(map(is_, args, term.args)) else FunctorTerm(term.functor, args))
    return values[0]


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

# Instruction kinds. Every instruction is a tuple that starts with its kind;
# the numbers in it are slots of the running body's frame, and outputs take
# the slots from a first one up to an end:
#   (_DECONSTRUCT, input, functor, arity, first output, end)
#   (_CONSTRUCT, output, functor, argument getter)
#   (_ASSIGN, output, input)
#   (_TEST, left, right)
#   (_CALL, callee, input getter, first output, end, tail)
#   (_EVAL, output, query term, slots of the names bound in the frame)
#   (_FAULT, counts a step, (error class, text), atom)
# The four unification instructions come first: each charges one step. A
# tail call is a clause's last atom whose outputs are the clause's head
# outputs, in order: its callee returns straight to the clause's caller.
_DECONSTRUCT, _CONSTRUCT, _ASSIGN, _TEST, _CALL, _EVAL, _FAULT = range(7)

_Instr = tuple
_Getter = Callable[[_Frame], tuple[FunctorTerm, ...]]
# A selection key: the input position and the (functor, arity) of the
# deconstruct a clause starts with, when it deconstructs a head input.
_Key = tuple[int, tuple[str, int]]
# A compiled clause: its key, the empty slots that follow its head inputs
# and its key's outputs in its frame, the getter of its head outputs and
# its instructions after its key's deconstruct, which selection does.
_Clause = tuple[_Key | None, tuple[None, ...], _Getter, tuple[_Instr, ...]]
# A predicate's clause selection: for each key position, the position, a
# dict from a (functor, arity) to the bitmask of the clauses that admit an
# input with it there, and the mask of those that admit any other input.
_Switch = tuple[int, dict[tuple[str, int], int], int]
# A compiled predicate: its clauses, its switches and the mask of all its
# clauses. Clause k is bit k of a mask.
_Procedure = tuple[tuple[_Clause, ...], tuple[_Switch, ...], int]


def _getter(slots: list[int]) -> _Getter:
    """The values in ``slots`` of a frame, as a tuple."""
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        slot = slots[0]
        return lambda frame: (frame[slot],)
    return lambda frame: ()


def _input_slot(
    t: Term, slots: dict[str, int], frame: _Frame, code: list[_Instr], nonground: Container[int] | None
) -> int:
    """The slot of input ``t``: a variable's own, or for a query term a new
    one, set by an ``_EVAL`` added to ``code`` if ``nonground``, the
    query's record, names it, and holding it as parsed if not."""
    if t.__class__ is Var:
        return slots[t.name]
    slot = len(frame)
    if id(t) in nonground:
        code.append((_EVAL, slot, t, slots))
        frame.append(None)
    else:
        frame.append(t)
    return slot


def _error_text(atom: Atom, where: str, fault: tuple[Term, str], query: bool) -> str:
    """The text of ``fault``, a failing mode check of ``atom`` at ``where``."""
    term, kind = fault
    if kind is UNBOUND and query:
        return f"non-ground input at {where}"
    if kind is NOT_VAR and query:
        return f"output position holds a term at {where}"
    if kind is REPEATED and query and atom.__class__ is Call:
        return f"{term.name} repeated in output positions at {where}"
    return fault_text(term, kind, where)


def _compile_body(
    atoms: tuple[Atom, ...],
    predicates: Mapping[str, Predicate],
    slots: dict[str, int],
    frame: _Frame,
    nonground: Container[int] | None,
) -> tuple[_Instr, ...]:
    """The instructions of ``atoms``, a clause body or a query, in a frame
    whose bound names have ``slots``; ``frame`` holds its slots' initial
    values, and ``slots`` and ``frame`` grow with the names each atom binds
    and the query input terms it holds. ``nonground`` is None for a clause
    body, and a query's record of its input terms that hold a variable.

    Each atom that ``bind_passing`` passes where it stands becomes one
    instruction, its outputs taking the next slots in order. A query input
    term that is ground is held as parsed, any other is built by an
    ``_EVAL`` before its atom. The first atom that fails ends the code with
    a fault instruction that raises the error of the first fault
    ``mode_faults`` lists, and the rest of the body is not compiled; so
    does a query call of a predicate the program lacks, or of another
    arity. A program call whose only faults are repeated outputs, and a
    deconstruct whose input passes, become their instruction, with
    outputs in slots of their own, followed by the fault.
    """
    query = nonground is not None
    bound = set(slots)
    flows: list[tuple[tuple[Term, ...], tuple[Term, ...]]] = []
    atom = bind_passing(iter(atoms), bound, predicates, nonground, flows)
    passed = len(flows)  # the atoms before ``atom``
    fault: _Instr | None = None
    if atom is not None:
        is_call = atom.__class__ is Call
        callee = predicates.get(atom.pred) if is_call else None
        if query and is_call and (callee is None or len(atom.args) != callee.arity):
            text = f"unknown predicate '{atom.pred}' in query" if callee is None else CallError(atom, callee).message
            fault = (_FAULT, False, (SolveError, text), atom)
        else:
            ins, outs = atom_flow(atom, predicates)
            first_fault = mode_faults(atom, ins, outs, bound, predicates, nonground)[0]
            if is_call and not query:
                # A program call binds its outputs, a repeated one raising,
                # only as it returns: its repeated outputs are listed last.
                runs = first_fault[1] is REPEATED
            else:
                # A deconstruct binds its outputs only on a match. A
                # clause's input that is a term faults, as not a variable.
                runs = (
                    atom.__class__ is Deconstruct
                    and first_fault[1] is not UNBOUND
                    and (query or atom.var.__class__ is Var)
                )
            where = f"goal atom {passed + 1}" if query else f"point {atom.point}"
            error = RuntimeModeError, _error_text(atom, where, first_fault, query)
            fault = (_FAULT, not is_call and not runs, error, atom)
            if runs:
                flows.append((ins, outs))
    code: list[_Instr] = []
    for index, (atom, (ins, outs)) in enumerate(zip(atoms, flows)):
        args = [_input_slot(t, slots, frame, code, nonground) for t in ins]
        first = len(frame)
        for t in outs:
            if index < passed:  # the outputs of an atom that faults are not named
                slots[t.name] = len(frame)
            frame.append(None)
        end = len(frame)
        cls = atom.__class__
        if cls is Deconstruct:
            code.append((_DECONSTRUCT, args[0], atom.functor, len(outs), first, end))
        elif cls is Call:
            code.append((_CALL, atom.pred, _getter(args), first, end, False))
        elif cls is Construct:
            code.append((_CONSTRUCT, first, atom.functor, _getter(args)))
        elif cls is Test:
            code.append((_TEST, args[0], args[1]))
        else:
            code.append((_ASSIGN, first, args[0]))
    if fault is not None:
        code.append(fault)
    return tuple(code)


def _compile_clause(pred: Predicate, clause: Clause, predicates: Mapping[str, Predicate]) -> _Clause:
    """``clause`` of ``pred`` compiled: its frame starts with a slot for
    each head input. A deconstruct of a head input that the clause starts
    with is its key. Its input is bound, so the body's code starts with its
    ``_DECONSTRUCT``, outputs in the slots after the head inputs; selection
    decides it and binds them, so the instructions start after it, and a
    fault of the deconstruct is the first of them. A last call whose
    outputs are the head outputs in order becomes a tail call. Code that
    reaches the clause's end with a head output unbound ends with a fault."""
    head_ins, head_outs = pred.split(pred.args)
    slots = {v.name: pos for pos, v in enumerate(head_ins)}
    frame: _Frame = [None] * len(head_ins)
    first = clause.body[0] if clause.body else None
    key = None
    if first.__class__ is Deconstruct and first.var.__class__ is Var and first.var.name in slots:
        key = (slots[first.var.name], (first.functor, len(first.args)))
    code = _compile_body(clause.body, predicates, slots, frame, None)
    start = len(head_ins)
    if key is not None:
        start = code[0][5]
        code = code[1:]
    pad = tuple(frame[start:])
    out_slots = [slots.get(v.name) for v in head_outs]
    last = code[-1] if code else None
    if None in out_slots and (last is None or last[0] != _FAULT):
        # A clause that reaches its end with a head output unbound faults there.
        text = unbound_output_text(pred, head_outs[out_slots.index(None)].name)
        code += ((_FAULT, False, (RuntimeModeError, text), None),)
    elif last is not None and last[0] == _CALL and out_slots == list(range(last[3], last[4])):
        code = (*code[:-1], (*last[:5], True))
    return key, pad, _getter(out_slots), code


def _switches(clauses: tuple[_Clause, ...]) -> tuple[_Switch, ...]:
    """The switches of ``clauses``, one per key position in the order the
    positions first occur. A clause keyed at a position admits only the
    inputs with its functor and arity there; any other clause admits every
    input there."""
    keyed: dict[int, dict[tuple[str, int], int]] = {}
    for k, clause in enumerate(clauses):
        key = clause[0]
        if key is not None:
            sigs = keyed.get(key[0])
            if sigs is None:
                sigs = keyed[key[0]] = {}
            sigs[key[1]] = sigs.get(key[1], 0) | 1 << k
    switches = []
    for pos, sigs in keyed.items():
        other = (1 << len(clauses)) - 1
        for mask in sigs.values():
            other &= ~mask
        for sig in sigs:
            sigs[sig] |= other
        switches.append((pos, sigs, other))
    return tuple(switches)


class _Procedures(dict):
    """Predicate name -> its compiled clauses and their selection, each
    predicate compiled on its first call."""

    def __init__(self, program: Program):
        super().__init__()
        self.program = program

    def __missing__(self, name: str) -> _Procedure:
        pred = self.program.predicates[name]
        clauses = tuple([_compile_clause(pred, clause, self.program.predicates) for clause in pred.clauses])
        self[name] = procedure = clauses, _switches(clauses), (1 << len(clauses)) - 1
        return procedure


def _compile_goal(
    query: Query, program: Program, bindings: Mapping[str, FunctorTerm]
) -> tuple[tuple[_Instr, ...], _Frame, list[tuple[str, int]]]:
    """The instructions of ``query``, its frame holding ``bindings`` and its
    ground input terms, and the slots of its answer variables: the names
    it binds beyond ``bindings``, in binding order."""
    slots = {name: pos for pos, name in enumerate(bindings)}
    frame: _Frame = list(bindings.values())
    code = _compile_body(query.goal, program.predicates, slots, frame, query.nonground)
    return code, frame, list(slots.items())[len(bindings) :]


# ---------------------------------------------------------------------------
# The machine
# ---------------------------------------------------------------------------


def solve(
    program: Program,
    query: Query,
    max_steps: int = DEFAULT_STEP_LIMIT,
    bindings: Mapping[str, FunctorTerm] | None = None,
) -> list[Answer]:
    """All answers to ``query`` within the step limit, in search order.

    Each answer maps the query's output variables (those not initially
    bound) to ground terms. Raises StepLimitExceeded, RuntimeModeError or
    SolveError.
    """
    body, frame, answer = _compile_goal(query, program, dict(bindings or {}))
    procs = _Procedures(program)
    answers: list[Answer] = []
    budget = max_steps
    # The choice stack holds choice points,
    # [clauses, mask of the clauses left, next clause, input values, return record],
    # and charge-only entries, [None, steps].
    choices: list[list] = []
    # The running body: instructions, next index, frame, head output getter
    # and return record (call instruction, caller's body, index, frame,
    # head output getter, return record).
    i, outs, ret = 0, None, None

    while True:
        # Run the body until it fails, or a call selects the clauses in
        # ``mask`` to enter, from clause ``start`` on.
        mask = 0
        while True:
            if i == len(body):
                if ret is None:
                    answers.append({name: frame[slot] for name, slot in answer})
                    break
                values = outs(frame)
                instr, body, i, frame, outs, ret = ret
                # The caller's continuation reads only slots bound before
                # the call, so backtracking into it needs no copy.
                frame[instr[3] : instr[4]] = values
                continue

            instr = body[i]
            kind = instr[0]
            if kind <= _TEST:  # a unification: one step
                budget -= 1
                if budget < 0:
                    raise StepLimitExceeded(max_steps)
                if kind == _DECONSTRUCT:
                    value = frame[instr[1]]
                    if value.functor != instr[2] or len(value.args) != instr[3]:
                        break
                    frame[instr[4] : instr[5]] = value.args
                elif kind == _CONSTRUCT:
                    frame[instr[1]] = FunctorTerm(instr[2], instr[3](frame))
                elif kind == _ASSIGN:
                    frame[instr[1]] = frame[instr[2]]
                elif frame[instr[1]] != frame[instr[2]]:
                    break
            elif kind == _CALL:
                values = instr[2](frame)
                clauses, switches, mask = procs[instr[1]]
                for pos, sigs, other in switches:
                    value = values[pos]
                    mask &= sigs.get((value.functor, len(value.args)), other)
                if mask:
                    start = 0
                    if not instr[5]:
                        ret = (instr, body, i + 1, frame, outs, ret)
                elif clauses:
                    # No clause admits the input: each costs entering it
                    # and failing its first atom.
                    budget -= 2 * len(clauses)
                    if budget < 0:
                        raise StepLimitExceeded(max_steps)
                break
            elif kind == _EVAL:
                frame[instr[1]] = _build(instr[2], frame, instr[3])
            else:  # _FAULT
                if instr[1] and budget <= 0:
                    raise StepLimitExceeded(max_steps)
                error, text = instr[2]
                raise error(text, instr[3])
            i += 1

        if not mask:
            # Backtrack to the top choice point.
            while True:
                if not choices:
                    return answers
                choice = choices.pop()
                clauses = choice[0]
                if clauses is not None:
                    _, mask, start, values, ret = choice
                    break
                budget -= choice[1]  # a charge-only entry
                if budget < 0:
                    raise StepLimitExceeded(max_steps)

        # Enter the first clause in the mask, k. Each clause passed over
        # costs the 2 steps of entering it and failing its first atom. If
        # the mask holds a later clause, a choice point keeps it; if not,
        # the call is determinate, and the steps of the clauses after k are
        # charged when backtracking reaches them.
        low = mask & -mask
        k = low.bit_length() - 1
        mask ^= low
        key, pad, outs, body = clauses[k]
        if mask:
            choices.append([clauses, mask, k + 1, values, ret])
        elif k + 1 < len(clauses):
            if choices and choices[-1][0] is None:
                choices[-1][1] += 2 * (len(clauses) - k - 1)
            else:
                choices.append([None, 2 * (len(clauses) - k - 1)])
        # Entering k, and the deconstruct its selection decided.
        budget -= 2 * (k - start) + 1 + (key is not None)
        if budget < 0:
            raise StepLimitExceeded(max_steps)
        frame = [*values, *pad] if key is None else [*values, *values[key[0]].args, *pad]
        i = 0
