"""Static validation: mode correctness and direct-recursion checks.

Mode checking simulates each clause left to right. The bound set starts as
the input head arguments; every atom must find its input variables bound
and its output variables unbound, and binds its outputs. At clause end
every output head argument must be bound. Violations are collected as
``SourceError``s, never raised.
"""

from __future__ import annotations

from .parse import SourceError
from .syntax import Program, Record, atom_flow


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

    def extend(self, other: "ValidationReport") -> None:
        self.violations.extend(other.violations)


def validate_modes(program: Program) -> ValidationReport:
    """Check every clause for mode-correct left-to-right execution."""
    report = ValidationReport()
    for pred in program.predicates.values():
        for clause in pred.clauses:
            head_ins, head_outs = pred.split(clause.head_args)
            bound = {v.name for v in head_ins}
            for atom in clause.body:
                inputs, outputs = atom_flow(atom, program.predicates)
                for v in inputs:
                    if v.name not in bound:
                        report.add(atom.line, atom.col, f"{v.name} unbound at point {atom.point}")
                seen_out: set[str] = set()
                for v in outputs:
                    if v.name in bound or v.name in seen_out:
                        report.add(atom.line, atom.col, f"{v.name} already bound at point {atom.point}")
                    seen_out.add(v.name)
                # Bind inputs too, to suppress cascading reports.
                bound.update(v.name for v in inputs)
                bound.update(seen_out)
            for v in head_outs:
                if v.name not in bound:
                    report.add(
                        clause.line,
                        clause.col,
                        f"output argument {v.name} of {pred.name}/{pred.arity} not bound at clause end",
                    )
    return report


def validate_direct_recursion(program: Program) -> ValidationReport:
    """Report every call-graph cycle of length >= 2 (self-loops are allowed)."""
    report = ValidationReport()
    for scc in _strongly_connected(program.call_graph):
        if len(scc) >= 2:
            members = ", ".join(sorted(scc))
            first = min(scc)
            pred = program.predicates[first]
            report.add(pred.line, pred.col, f"mutual recursion among {{{members}}}")
    return report


def _strongly_connected(graph: dict[str, frozenset[str]]) -> list[set[str]]:
    """Tarjan's algorithm, iterative to be safe on deep graphs."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[set[str]] = []
    counter = 0

    for root in graph:
        if root in index:
            continue
        work: list[tuple[str, list[str], int]] = [(root, sorted(graph.get(root, ())), 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succs, i = work.pop()
            advanced = False
            while i < len(succs):
                succ = succs[i]
                i += 1
                if succ not in index:
                    work.append((node, succs, i))
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, sorted(graph.get(succ, ())), 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            if low[node] == index[node]:
                scc: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.add(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def validate_program(program: Program) -> ValidationReport:
    """All static checks combined."""
    report = validate_modes(program)
    report.extend(validate_direct_recursion(program))
    return report
