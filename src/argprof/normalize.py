"""Argument-order normalization and profile-equivalence checking.

Normalization reorders every predicate's arguments into the order of its
ordered profile: clause heads, mode declarations and all call sites are
permuted consistently, so the rewritten program computes the same answers
with permuted argument positions. Two predicates are profile-equivalent
when their ordered profiles have identical canonical serializations, that
is, when they are structurally equal; the witness maps argument positions
of one onto the other through the two permutations. Equivalence of
ordered profiles is a necessary condition for one predicate being a
renaming of the other modulo argument order, not a sufficient one, so
results are reported as profile equivalence.

Both read each ordered profile as the analysis kept it on the predicate's
set (``analysis.argument_profiles``), so a predicate whose call
abstraction was built is not stripped and ordered again.
"""

from __future__ import annotations

from .analysis import Environment, argument_profiles
from .domain import ArgumentProfile, canon_profile_parts
from .ordering import OrderedProfile
from .syntax import Atom, Call, Clause, Predicate, Program, Record

NormalizationPlan = dict[str, tuple[int, ...]]


class PlanError(Exception):
    pass


def ordered_profile_of(pred: Predicate, env: Environment) -> OrderedProfile:
    """The ordered profile of an analyzed predicate, as the analysis kept it
    (see ``analysis.argument_profiles``)."""
    return argument_profiles(pred, env[pred.name])[1]


def plan(program: Program, env: Environment) -> NormalizationPlan:
    """Per predicate, the permutation (new position -> original position)
    realizing its ordered profile."""
    return {
        name: ordered_profile_of(pred, env).permutation
        for name, pred in program.predicates.items()
    }


def _permute(seq: tuple, permutation: tuple[int, ...]) -> tuple:
    return tuple(seq[orig - 1] for orig in permutation)


def rewrite(program: Program, normalization: NormalizationPlan) -> Program:
    """Apply a normalization plan to the whole program.

    Heads, mode declarations and call atoms are permuted by the owning or
    called predicate's permutation; atom order, variable names and
    everything else stay untouched, program points included: predicates
    and atoms keep their order, so the points still run 1..N in the order
    ``format_program`` prints them.
    """
    for name in program.predicates:
        if name not in normalization:
            raise PlanError(f"plan is missing predicate '{name}'")
    preds: dict[str, Predicate] = {}
    for name, pred in program.predicates.items():
        perm = normalization[name]
        clauses = []
        for clause in pred.clauses:
            body: list[Atom] = []
            for atom in clause.body:
                if isinstance(atom, Call):
                    args = _permute(atom.args, normalization[atom.pred])
                    body.append(Call(atom.point, atom.line, atom.col, atom.pred, args))
                else:
                    body.append(atom)
            clauses.append(Clause(tuple(body), clause.line, clause.col))
        preds[name] = Predicate(
            name, _permute(pred.modes, perm), _permute(pred.args, perm), tuple(clauses), pred.line, pred.col
        )
    return Program(preds)


class Equivalent(Record):
    """Profile equivalence with a positional witness: ``mapping[i]`` is the
    position in the second predicate playing the role of position i in the
    first (1-based)."""

    __slots__ = __match_args__ = ("mapping",)

    def __init__(self, mapping: dict[int, int]):
        self.mapping = mapping


class Distinct(Record):
    """Why two predicates are not profile-equivalent: their arities differ,
    or their ordered profiles first differ at ``position`` (1-based), where
    they are ``profiles``."""

    __slots__ = __match_args__ = ("arities", "position", "profiles")

    def __init__(
        self,
        arities: tuple[int, int],
        position: int | None = None,
        profiles: tuple[ArgumentProfile, ArgumentProfile] | None = None,
    ):
        self.arities = arities
        self.position = position
        self.profiles = profiles

    def reason_parts(self) -> list[str]:
        """The text of ``reason`` in parts, every op's text a part of its
        own (see ``canon_profile_parts``), for writing without joining."""
        if self.profiles is None:
            return [f"arity mismatch ({self.arities[0]} vs {self.arities[1]})"]
        parts = [f"ordered profiles differ at position {self.position}: "]
        canon_profile_parts(parts, self.profiles[0])
        parts.append(" vs ")
        canon_profile_parts(parts, self.profiles[1])
        return parts

    @property
    def reason(self) -> str:
        return "".join(self.reason_parts())


def compare(p: Predicate, q: Predicate, env: Environment) -> Equivalent | Distinct:
    """Decide profile equivalence of two analyzed predicates."""
    if p.arity != q.arity:
        return Distinct((p.arity, q.arity))
    op_p = ordered_profile_of(p, env)
    op_q = ordered_profile_of(q, env)
    # Structural equality is canonical equality: psi ops are hash-consed.
    for k, (a, b) in enumerate(zip(op_p.profiles, op_q.profiles), start=1):
        if a != b:
            return Distinct((p.arity, q.arity), k, (a, b))
    mapping = {op_p.permutation[k]: op_q.permutation[k] for k in range(p.arity)}
    return Equivalent(mapping)
