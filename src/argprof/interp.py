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
  call in a ``solve``: every body atom becomes one instruction holding its
  variable names, and a call site holds its callee and the names at its
  input and output positions. The instruction also keeps its atom, from
  which the text of an error (``point N``) is built only when one is raised.
* **Continuations.** The machine runs one clause body at a time: its
  instructions, the index of the next one, its variable bindings and the
  return record of the call that entered it. On reaching the end of a body
  it resumes the caller after the call, in a fresh copy of the caller's
  bindings with the clause's output arguments added.
* **Choice points.** A call pushes a choice point: the callee's clauses,
  the next one to try, the input values and the return record; its first
  clause is then entered the way backtracking enters the next one. Each
  clause entered gets bindings of its own, and a call returns into a copy
  of its caller's, so no bindings a return record holds are written after
  the call. Backtracking has nothing to undo: it enters the next clause of
  the choice point on top of the stack. A choice point leaves the stack
  when no clause after the one entered can match.
* **Clause selection.** As with ``switch_on_term`` in that engine, a clause
  whose body starts by deconstructing a head input has a key: the input's
  position and the functor and arity it expects. If the name is repeated
  among the head inputs, the key takes its last position, whose value the
  clause binds. A clause whose key differs from the call's input would
  fail its first atom, so backtracking passes over it without entering it
  and charges the 2 steps of entering it and failing, at the point where
  it would have tried it. A clause without a key, or whose key agrees, is
  entered and runs its deconstruct like any atom, so checks and errors are
  unchanged. When no later clause can match, the call is determinate: it
  leaves no choice point, and the steps of the clauses after the entered
  one stay on the choice stack as a charge-only entry. Backtracking onto
  it only charges them, and adjacent ones merge.
* **Queries.** A query is compiled into one flat goal on the same machine.
  Ground input terms are bound to fresh variables as parsed; input terms
  that use query variables are built when their atom is reached, with an
  explicit stack, and share every subterm that holds no variable. A query atom that holds
  an unknown predicate, or a term or a repeated variable in an output
  position, becomes an instruction that runs the atom's checks when
  reached and raises the first one that fails. Errors name the query atom
  as ``goal atom i``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from itertools import count
from operator import is_, itemgetter

from .parse import Query
from .syntax import (
    Assign,
    Atom,
    Call,
    Construct,
    Deconstruct,
    FunctorTerm,
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
    pass


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

_Env = dict[str, FunctorTerm]


def _build(t: Term, env: _Env) -> FunctorTerm | None:
    """The ground value of a query term, or None if a variable in it is unbound."""
    values: list[FunctorTerm] = []
    # Terms still to build, and one-tuples holding a term whose argument
    # values are built: it is its own value when they are its arguments.
    work: list[Term | tuple[FunctorTerm]] = [t]
    while work:
        item = work.pop()
        if isinstance(item, Var):
            value = env.get(item.name)
            if value is None:
                return None
            values.append(value)
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


def _where(atom: Atom, where: str | None) -> str:
    return where if where is not None else f"point {atom.point}"


def _fault(atom: Atom, where: str | None, env: _Env, program: Program) -> SolveError | None:
    """The error selecting ``atom`` in ``env`` raises, or None if it only fails.

    The machine's instructions detect that a mode check failed; this walks
    the atom's checks in their defined order to name the first one. A call
    checks its arguments in position order. Any other atom checks that its
    inputs are ground, then, unless it is a deconstruct whose functor
    differs and so only fails, that its outputs are free and distinct.
    ``where`` is the text of a query atom, None for a program atom.
    """
    query = where is not None
    where = _where(atom, where)
    taken = set(env)  # bound names, including outputs this atom has bound

    def need_ground(t: Term) -> SolveError | None:
        if _build(t, env) is not None:
            return None
        return RuntimeModeError(f"non-ground input at {where}" if query else f"{t.name} unbound at {where}")

    def need_free(t: Term) -> SolveError | None:
        if not isinstance(t, Var):
            return RuntimeModeError(f"output position holds a term at {where}")
        if t.name in taken:
            return RuntimeModeError(f"{t.name} already bound at {where}")
        return None

    if isinstance(atom, Call):
        callee = program.predicates.get(atom.pred)
        if callee is None:
            return SolveError(f"unknown predicate '{atom.pred}' in query")
        if len(atom.args) != callee.arity:
            return SolveError(
                f"'{atom.pred}' called with {len(atom.args)} arguments but declared with arity {callee.arity}"
            )
        outputs: set[str] = set()
        for t, mode in zip(atom.args, callee.modes):
            if mode == "in":
                err = need_ground(t)
            elif (err := need_free(t)) is None:
                if query and t.name in outputs:
                    err = RuntimeModeError(f"{t.name} repeated in output positions at {where}")
                outputs.add(t.name)
            if err is not None:
                return err
        return None
    ins, outs = atom_flow(atom, program.predicates)
    for t in ins:
        if (err := need_ground(t)) is not None:
            return err
    if isinstance(atom, Deconstruct):
        value = _build(atom.var, env)
        if value.functor != atom.functor or len(value.args) != len(atom.args):
            return None
    for t in outs:
        if (err := need_free(t)) is not None:
            return err
        taken.add(t.name)
    return None


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

# Instruction kinds. Every instruction is a tuple that starts with its kind
# and ends with the atom and query text it reports errors under:
#   (_CALL, callee, input getter, output names, first repeated output, atom, where)
#   (_DECONSTRUCT, var, functor, arity, names, names distinct, atom, where)
#   (_CONSTRUCT, var, functor, argument getter, atom, where)
#   (_TEST, left, right, atom, where)
#   (_ASSIGN, target, source, atom, where)
#   (_EVAL, name, query term, counts a step, atom, where)
#   (_FAULT, counts a step, atom, where)
_CALL, _DECONSTRUCT, _CONSTRUCT, _TEST, _ASSIGN, _EVAL, _FAULT = range(7)

_Instr = tuple
# A selection key: (input position, functor, arity) of the deconstruct a
# clause starts with, when it deconstructs a head input.
_Key = tuple[int, str, int]
# A compiled clause: head input names, head output names, instructions, key.
_Clause = tuple[tuple[str, ...], tuple[str, ...], tuple[_Instr, ...], _Key | None]


def _first_repeat(names: Iterable[str]) -> str | None:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


def _getter(names: tuple[str, ...]) -> Callable[[_Env], tuple[FunctorTerm, ...]]:
    """The values of ``names`` in bindings, as a tuple; KeyError names the
    first unbound one."""
    if len(names) > 1:
        return itemgetter(*names)
    if names:
        name = names[0]
        return lambda env: (env[name],)
    return lambda env: ()


def _compile_atom(flat: Atom, program: Program, atom: Atom, where: str | None) -> _Instr:
    """The instruction for ``flat``, an atom over variables; ``atom`` and
    ``where`` name it in errors."""
    if isinstance(flat, Deconstruct):
        names = tuple([v.name for v in flat.args])
        distinct = len(set(names)) == len(names)
        return (_DECONSTRUCT, flat.var.name, flat.functor, len(names), names, distinct, atom, where)
    if isinstance(flat, Call):
        ins, outs = program.predicates[flat.pred].split(tuple([v.name for v in flat.args]))
        return (_CALL, flat.pred, _getter(ins), outs, _first_repeat(outs), atom, where)
    if isinstance(flat, Construct):
        args = _getter(tuple([v.name for v in flat.args]))
        return (_CONSTRUCT, flat.var.name, flat.functor, args, atom, where)
    if isinstance(flat, Test):
        return (_TEST, flat.left.name, flat.right.name, atom, where)
    if isinstance(flat, Assign):
        return (_ASSIGN, flat.target.name, flat.source.name, atom, where)
    raise TypeError(f"not an atom: {flat!r}")


class _Procedures(dict):
    """Predicate name -> compiled clauses, each predicate compiled on its
    first call."""

    def __init__(self, program: Program):
        super().__init__()
        self.program = program

    def __missing__(self, name: str) -> tuple[_Clause, ...]:
        pred = self.program.predicates[name]
        clauses: list[_Clause] = []
        for clause in pred.clauses:
            head_ins, head_outs = pred.split(tuple([v.name for v in clause.head_args]))
            # Each name's last input position, whose value its binding keeps.
            position = {name: pos for pos, name in enumerate(head_ins)}
            key = None
            first = clause.body[0] if clause.body else None
            if isinstance(first, Deconstruct) and first.var.name in position:
                key = (position[first.var.name], first.functor, len(first.args))
            clauses.append(
                (
                    head_ins,
                    head_outs,
                    tuple([_compile_atom(atom, self.program, atom, None) for atom in clause.body]),
                    key,
                )
            )
        self[name] = result = tuple(clauses)
        return result


def _admits(clause: _Clause, values: tuple[FunctorTerm, ...]) -> bool:
    """Whether ``clause`` may match a call with input ``values``: a clause
    whose key names another functor or arity fails its first atom."""
    key = clause[3]
    if key is None:
        return True
    value = values[key[0]]
    return value.functor == key[1] and len(value.args) == key[2]


def _term_names(term: Term) -> Iterator[str]:
    """Variable names of ``term``, depth-first, left to right."""
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            yield t.name
        else:
            stack.extend(reversed(t.args))


def _query_terms(qa: Atom) -> tuple[Term, ...]:
    if isinstance(qa, Call):
        return qa.args
    if isinstance(qa, (Deconstruct, Construct)):
        return (qa.var, *qa.args)
    if isinstance(qa, Test):
        return (qa.left, qa.right)
    if isinstance(qa, Assign):
        return (qa.target, qa.source)
    raise TypeError(f"not a query atom: {qa!r}")


def _compile_goal(
    goal: tuple[Atom, ...], program: Program, env: _Env
) -> tuple[tuple[_Instr, ...], list[str]]:
    """The instructions of a query and its variable names in order of first
    occurrence, with its ground input terms bound in ``env`` under fresh
    names."""
    code: list[_Instr] = []
    names: dict[str, None] = {}
    serial = count(1)
    for index, qa in enumerate(goal, 1):
        where = f"goal atom {index}"
        counts_step = not isinstance(qa, Call)
        # One walk of each term records its variable names and tells
        # whether it is ground.
        ground: set[int] = set()  # ids of the atom's terms without variables
        for t in _query_terms(qa):
            has_var = False
            for name in _term_names(t):
                names[name] = None
                has_var = True
            if not has_var:
                ground.add(id(t))

        def holder(t: Term) -> Var:
            """A variable holding input term ``t``."""
            if isinstance(t, Var):
                return t
            name = f"#{next(serial)}"
            if id(t) in ground:
                env[name] = t
            else:
                code.append((_EVAL, name, t, counts_step, qa, where))
            return Var(name)

        flat: Atom | None = None
        if isinstance(qa, Call):
            callee = program.predicates.get(qa.pred)
            if callee is not None and len(qa.args) == callee.arity:
                outs = callee.split(qa.args)[1]
                if all(isinstance(t, Var) for t in outs) and _first_repeat(t.name for t in outs) is None:
                    args = tuple(t if m == "out" else holder(t) for t, m in zip(qa.args, callee.modes))
                    flat = Call(0, 0, 0, qa.pred, args)
        elif isinstance(qa, Deconstruct):
            if all(isinstance(t, Var) for t in qa.args):
                flat = Deconstruct(0, 0, 0, holder(qa.var), qa.functor, qa.args)
        elif isinstance(qa, Construct):
            if isinstance(qa.var, Var):
                flat = Construct(0, 0, 0, qa.var, qa.functor, tuple(holder(t) for t in qa.args))
        elif isinstance(qa, Test):
            flat = Test(0, 0, 0, holder(qa.left), holder(qa.right))
        elif isinstance(qa, Assign):
            if isinstance(qa.target, Var):
                flat = Assign(0, 0, 0, qa.target, holder(qa.source))
        if flat is None:
            code.append((_FAULT, counts_step, qa, where))
        else:
            code.append(_compile_atom(flat, program, qa, where))
    return tuple(code), list(names)


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
    env: _Env = dict(bindings or {})
    body, names = _compile_goal(query.goal, program, env)
    names = [name for name in names if name not in env]
    procs = _Procedures(program)
    answers: list[Answer] = []
    budget = max_steps
    # The choice stack holds choice points,
    # [clauses, next clause, input values, return record],
    # and charge-only entries, [None, steps].
    choices: list[list] = []
    # The running body: instructions, next index, bindings, clause output
    # names and return record
    # (call instruction, caller's body, index, bindings, outputs, return).
    i, heads_out, ret = 0, (), None

    while True:
        while True:
            if i == len(body):
                if ret is None:
                    answers.append({name: env[name] for name in names if name in env})
                    break
                values = [env[name] for name in heads_out]
                instr, body, i, env, heads_out, ret = ret
                if instr[4] is not None:
                    raise RuntimeModeError(f"{instr[4]} already bound at {_where(instr[5], instr[6])}")
                # A choice point may re-enter the caller's bindings as they
                # were at the call: continue in a copy.
                env = dict(env)
                env.update(zip(instr[3], values))
                continue

            instr = body[i]
            kind = instr[0]
            if kind == _DECONSTRUCT:
                budget -= 1
                if budget < 0:
                    raise StepLimitExceeded(max_steps)
                _, var, functor, arity, bound, distinct, atom, where = instr
                value = env.get(var)
                if value is None:
                    raise _fault(atom, where, env, program)
                if value.functor != functor or len(value.args) != arity:
                    break
                if not distinct or not env.keys().isdisjoint(bound):
                    raise _fault(atom, where, env, program)
                env.update(zip(bound, value.args))
            elif kind == _CALL:
                try:
                    values = instr[2](env)
                except KeyError:
                    raise _fault(instr[5], instr[6], env, program) from None
                if not env.keys().isdisjoint(instr[3]):
                    raise _fault(instr[5], instr[6], env, program)
                clauses = procs[instr[1]]
                if clauses:
                    # Backtracking below enters the first clause that can match.
                    choices.append([clauses, 0, values, (instr, body, i + 1, env, heads_out, ret)])
                break
            elif kind == _CONSTRUCT:
                budget -= 1
                if budget < 0:
                    raise StepLimitExceeded(max_steps)
                _, var, functor, args, atom, where = instr
                try:
                    value = FunctorTerm(functor, args(env))
                except KeyError:
                    raise _fault(atom, where, env, program) from None
                if var in env:
                    raise _fault(atom, where, env, program)
                env[var] = value
            elif kind == _ASSIGN:
                budget -= 1
                if budget < 0:
                    raise StepLimitExceeded(max_steps)
                _, target, source, atom, where = instr
                value = env.get(source)
                if value is None or target in env:
                    raise _fault(atom, where, env, program)
                env[target] = value
            elif kind == _TEST:
                budget -= 1
                if budget < 0:
                    raise StepLimitExceeded(max_steps)
                _, left, right, atom, where = instr
                a, b = env.get(left), env.get(right)
                if a is None or b is None:
                    raise _fault(atom, where, env, program)
                if a != b:
                    break
            elif kind == _EVAL:
                _, name, term, counts_step, atom, where = instr
                value = _build(term, env)
                if value is None:
                    if counts_step and budget <= 0:
                        raise StepLimitExceeded(max_steps)
                    raise _fault(atom, where, env, program)
                env[name] = value
            else:  # _FAULT
                _, counts_step, atom, where = instr
                if counts_step and budget <= 0:
                    raise StepLimitExceeded(max_steps)
                err = _fault(atom, where, env, program)
                if err is not None:
                    raise err
                budget -= counts_step
                break
            i += 1

        # Backtrack: enter the top choice point's next clause that admits
        # the input. Passing over a clause costs the 2 steps of entering it
        # and failing its first atom.
        while True:
            if not choices:
                return answers
            choice = choices.pop()
            clauses = choice[0]
            if clauses is None:  # a charge-only entry
                budget -= choice[1]
                if budget < 0:
                    raise StepLimitExceeded(max_steps)
                continue
            _, k, values, ret = choice
            n = len(clauses)
            first = k
            while k < n and not _admits(clauses[k], values):
                k += 1
            # The clauses passed over, and entering clause k if there is one.
            budget -= 2 * (k - first) + (k < n)
            if budget < 0:
                raise StepLimitExceeded(max_steps)
            if k == n:
                continue
            later = k + 1
            while later < n and not _admits(clauses[later], values):
                later += 1
            if later < n:
                choice[1] = k + 1
                choices.append(choice)
            elif k + 1 < n:
                # A determinate call: the clauses after this one only cost
                # their steps, charged when backtracking reaches them.
                if choices and choices[-1][0] is None:
                    choices[-1][1] += 2 * (n - k - 1)
                else:
                    choices.append([None, 2 * (n - k - 1)])
            head_ins, heads_out, body, _ = clauses[k]
            env = dict(zip(head_ins, values))
            i = 0
            break
