"""Static validation: mode correctness.

Mode checking simulates each clause left to right. The bound set starts as
the input head arguments; every atom reports its failing checks and binds
its inputs and outputs. At clause end every output head argument must be
bound. Violations are collected as ``SourceError``s, never raised. The
call graph may have cycles of any length: the analysis takes each
strongly connected component of it as one unit.

That an atom passes is decided by ``bind_passing``, one switch on its
class with set operations on its variables' names, the rule that the
interpreter's compiler shares. Every other atom, one that fails a check or
holds a term where a variable belongs, goes through ``atom_flow`` and
``mode_faults``: the one definition, which the interpreter also shares, of
which checks fail, in what order and with what text. A term where the
parser puts a variable (in a program built by hand) is such a fault.
"""

from __future__ import annotations

from collections.abc import Container, Iterator, Mapping

from .parse import SourceError
from .syntax import (
    Assign,
    Atom,
    Call,
    Construct,
    Deconstruct,
    Predicate,
    Program,
    Record,
    Term,
    Test,
    Var,
    atom_flow,
    format_ground,
    term_names,
)

# The kinds of mode fault: an input not bound; a term not a variable (an output,
# or any argument of a clause atom); an output bound, or repeated in its atom.
UNBOUND, NOT_VAR, BOUND, REPEATED = "unbound", "not a variable", "bound", "repeated"


class ValidationReport(Record):
    __slots__ = __match_args__ = ("violations",)

    def __init__(self) -> None:
        self.violations: list[SourceError] = []

    def ok(self) -> bool:
        return not self.violations

    def add(self, line: int, col: int, message: str) -> None:
        self.violations.append(SourceError(message, line, col))

    def render(self, filename: str = "<input>") -> str:
        return "\n".join(v.render(filename) for v in self.violations)


def mode_faults(
    atom: Atom,
    ins: tuple[Term, ...],
    outs: tuple[Term, ...],
    bound: Container[str],
    predicates: Mapping[str, Predicate],
    nonground: Container[int] | None = None,
) -> list[tuple[Term, str]]:
    """Each mode check ``atom`` fails where the names in ``bound`` are bound,
    as (term, kind), in the order the interpreter makes the checks: a
    call's arguments in position order, any other atom's inputs ``ins``
    then outputs ``outs``, its ``atom_flow``. An input must have all its
    names bound; an output must be a variable, not bound, not repeated. A
    program call binds its outputs only as it returns, so its repeated
    outputs come after its other faults. ``nonground`` is None for a
    clause atom, whose every argument must be a variable. A query's inputs
    may be nested terms, and ``nonground``, the query's record, holds the
    ids of those that hold a variable: each is walked for its names, and
    any other is ground."""
    faults = []
    outputs: list[str] = []
    if atom.__class__ is Call:
        terms, modes = atom.args, predicates[atom.pred].modes
        repeated = faults if nonground is not None else []
    else:
        terms, modes = ins + outs, ("in",) * len(ins) + ("out",) * len(outs)
        repeated = faults
    for t, mode in zip(terms, modes):
        if mode == "in":
            if t.__class__ is Var:
                if t.name not in bound:
                    faults.append((t, UNBOUND))
            elif nonground is None:
                faults.append((t, NOT_VAR))
            elif id(t) in nonground and not all(name in bound for name in term_names(t)):
                faults.append((t, UNBOUND))
        elif t.__class__ is not Var:
            faults.append((t, NOT_VAR))
        elif t.name in bound:
            faults.append((t, BOUND))
        elif t.name in outputs:
            repeated.append((t, REPEATED))
        else:
            outputs.append(t.name)
    return faults if repeated is faults else faults + repeated


def fault_text(term: Term, kind: str, where: str) -> str:
    """The text of a fault of ``term`` at ``where``."""
    what = "unbound" if kind is UNBOUND else "is not a variable" if kind is NOT_VAR else "already bound"
    return f"{format_ground(term)} {what} at {where}"


def unbound_output_text(pred: Predicate, name: str) -> str:
    """The text of head output ``name`` of ``pred`` not bound at a clause's end."""
    return f"output argument {name} of {pred.name}/{pred.arity} not bound at clause end"


def _term_passes(t: Term, bound: set[str], nonground: Container[int] | None) -> bool:
    """Whether input ``t``, not a variable, passes: a query's term (of
    whose ids ``nonground`` is the record) that is ground or whose names
    are bound."""
    return nonground is not None and (id(t) not in nonground or bound.issuperset(term_names(t)))


def bind_passing(
    atoms: Iterator[Atom],
    bound: set[str],
    predicates: Mapping[str, Predicate],
    nonground: Container[int] | None = None,
    flows: list[tuple[tuple[Term, ...], tuple[Term, ...]]] | None = None,
) -> Atom | None:
    """The first of ``atoms`` that fails a mode check, taken from the
    iterator, or None if none does. ``bound`` holds the names bound before
    the first atom, and gains those the atoms before the failing one bind;
    ``flows``, if given, gains their ``atom_flow``s.

    An atom passes, and ``mode_faults`` lists nothing for it, when its
    inputs are bound variables and its outputs distinct unbound variables.
    A query's input may also be a term: ``nonground``, the query's record,
    holds the ids of those that hold a variable, and one passes if its
    names are bound. A call of a predicate that ``predicates`` lacks, or
    with another number of arguments, does not pass."""
    for atom in atoms:
        cls = atom.__class__
        if cls is Assign:
            source, target = atom.source, atom.target
            if target.__class__ is not Var or target.name in bound:
                return atom
            if source.__class__ is Var:
                if source.name not in bound:
                    return atom
            elif not _term_passes(source, bound, nonground):
                return atom
            bound.add(target.name)
            if flows is not None:
                flows.append(((source,), (target,)))
        elif cls is Deconstruct:
            var, args = atom.var, atom.args
            if var.__class__ is Var:
                if var.name not in bound:
                    return atom
            elif not _term_passes(var, bound, nonground):
                return atom
            # As many names as arguments: all variables, all distinct.
            names = {t.name for t in args if t.__class__ is Var}
            if len(names) != len(args) or not bound.isdisjoint(names):
                return atom
            bound |= names
            if flows is not None:
                flows.append(((var,), args))
        elif cls is Construct:
            var, args = atom.var, atom.args
            if var.__class__ is not Var or var.name in bound:
                return atom
            names = [t.name for t in args if t.__class__ is Var]
            if not bound.issuperset(names) or len(names) != len(args) and not all(
                t.__class__ is Var or _term_passes(t, bound, nonground) for t in args
            ):
                return atom
            bound.add(var.name)
            if flows is not None:
                flows.append((args, (var,)))
        elif cls is Test:
            left, right = atom.left, atom.right
            if left.__class__ is Var:
                if left.name not in bound:
                    return atom
            elif not _term_passes(left, bound, nonground):
                return atom
            if right.__class__ is Var:
                if right.name not in bound:
                    return atom
            elif not _term_passes(right, bound, nonground):
                return atom
            if flows is not None:
                flows.append(((left, right), ()))
        else:
            callee = predicates.get(atom.pred)
            args = atom.args
            if callee is None or len(callee.modes) != len(args):
                return atom
            outputs: list[str] = []
            for t, mode in zip(args, callee.modes):
                if mode == "in":
                    if t.__class__ is Var:
                        if t.name not in bound:
                            return atom
                    elif not _term_passes(t, bound, nonground):
                        return atom
                elif t.__class__ is not Var or t.name in bound:
                    return atom
                else:
                    outputs.append(t.name)
            if len(set(outputs)) != len(outputs):
                return atom
            bound.update(outputs)
            if flows is not None:
                flows.append(callee.split(args))
    return None


def validate_modes(program: Program) -> ValidationReport:
    """Check every clause for mode-correct left-to-right execution.

    The atoms that ``bind_passing`` passes bind their outputs. Any other
    atom is checked by ``mode_faults`` over its ``atom_flow``, which names
    each fault, and binds all its names."""
    report = ValidationReport()
    predicates = program.predicates
    for pred in predicates.values():
        inputs = {v.name for v, mode in zip(pred.args, pred.modes) if mode == "in"}
        outputs = [v.name for v, mode in zip(pred.args, pred.modes) if mode == "out"]
        for clause in pred.clauses:
            bound = set(inputs)
            atoms = iter(clause.body)
            while (atom := bind_passing(atoms, bound, predicates)) is not None:
                ins, outs = atom_flow(atom, predicates)
                for term, kind in mode_faults(atom, ins, outs, bound, predicates):
                    report.add(atom.line, atom.col, fault_text(term, kind, f"point {atom.point}"))
                # Bind inputs too, to suppress cascading reports.
                bound.update([name for t in ins + outs for name in term_names(t)])
            if not bound.issuperset(outputs):
                for name in outputs:
                    if name not in bound:
                        report.add(clause.line, clause.col, unbound_output_text(pred, name))
    return report


def validate_program(program: Program) -> ValidationReport:
    """All static checks of a program: its mode correctness."""
    return validate_modes(program)
