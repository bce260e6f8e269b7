"""The abstract domain of interactions and argument profiles.

An interaction ``V ~{O}~> W`` records that data flows from variable V into
variable W through the operations O, where O holds at most one operation
per program point. A well-defined interaction set keeps at most one
interaction per (source, target) pair, forbids self-edges, and only allows
output formal arguments as argument targets. Interaction sets over a fixed
predicate form a join semi-lattice: the join unions interactions pairwise
and, within a pair, unions their operations keyed by program point (an
incoming operation replaces any previous operation at the same point,
which is how re-analysis refreshes call abstractions). Sets stay immutable
to callers: each join fills a private builder, the one place where
interactions are merged and checked for well-definedness, and freezes it
once, so joining costs time linear in the sizes of its arguments.

Stripping program points turns an interaction set over formal arguments
into a predicate profile: per argument, a set of o-sets (operation
multiset, target position). Profiles are the values ordered, compared and
embedded in call abstractions.

Operations are either base unification operators (assign, test,
construct_f, deconstruct_f), the recursion placeholder ``psi_bot``, or
``psi(<ordered profile>)`` abstracting a call to an analyzed predicate.
Every operation has a canonical string form (see ``canon_op``); this
grammar is a stable external format used for equivalence keys and JSON
output:

    assign | test | construct:f/n | deconstruct:f/n | psi_bot
    psi:[profile|profile|...]
    profile  ::=  { oset ; oset ; ... }          osets sorted by target
    oset     ::=  ( op , op , ... ) -> target    ops sorted by canon_op

A psi payload holds its callee's profile, which holds the callee's own psi
operations, so the expanded text grows exponentially with call depth even
though the values themselves are shared. Each ``PsiOp`` therefore computes
its canonical string once, on first use, and keeps it; every later
serialization that meets the operation (a sort key, a profile, an enclosing
payload, a JSON op) reuses that shared string, so serializing costs time
linear in the length of the output. ``PsiOp`` equality and hashing go
through the same string. The external format is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence


class DomainError(ValueError):
    pass


class WellDefinednessError(DomainError):
    pass


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssignOp:
    pass


@dataclass(frozen=True)
class TestOp:
    pass


@dataclass(frozen=True)
class ConstructOp:
    functor: str
    arity: int


@dataclass(frozen=True)
class DeconstructOp:
    functor: str
    arity: int


@dataclass(frozen=True)
class PsiBotOp:
    """Placeholder for a directly recursive call with no profile yet."""


@dataclass(frozen=True)
class PsiOp:
    """Abstraction of a call: the callee's ordered, point-free profile.

    Only the ordered profile sequence is stored, so two call sites whose
    callees have equal ordered profiles produce the same operation no
    matter how each callee's arguments were originally arranged.

    Equality and hashing compare the canonical string, which ``canon_op``
    makes injective, instead of walking the nested payload.
    """

    profiles: tuple["ArgumentProfile", ...]

    @cached_property
    def canon(self) -> str:
        return "psi:" + canon_profile_seq(self.profiles)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PsiOp:
            return NotImplemented
        return self.canon == other.canon

    def __hash__(self) -> int:
        return hash(self.canon)


Operation = AssignOp | TestOp | ConstructOp | DeconstructOp | PsiBotOp | PsiOp

ASSIGN = AssignOp()
TEST = TestOp()
PSI_BOT = PsiBotOp()


def is_psi_based(op: Operation) -> bool:
    return isinstance(op, (PsiBotOp, PsiOp))


@dataclass(frozen=True)
class SitedOperation:
    op: Operation
    point: int


# ---------------------------------------------------------------------------
# Profiles (point-free view)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OSet:
    """One dataflow relation of an argument: an operation multiset and the
    position of the argument it flows into."""

    ops: tuple[Operation, ...]  # sorted by canon_op, multiplicity preserved
    target: int


@dataclass(frozen=True)
class ArgumentProfile:
    osets: tuple[OSet, ...]  # sorted by target, at most one per target

    def is_empty(self) -> bool:
        return not self.osets


@dataclass(frozen=True)
class PredicateProfile:
    """Per-argument profiles in original argument order."""

    per_arg: tuple[ArgumentProfile, ...]


EMPTY_PROFILE = ArgumentProfile(())


def make_oset(ops: Iterable[Operation], target: int) -> OSet:
    return OSet(tuple(sorted(ops, key=canon_op)), target)


def make_profile(osets: Iterable[OSet]) -> ArgumentProfile:
    by_target = sorted(osets, key=lambda o: o.target)
    targets = [o.target for o in by_target]
    if len(set(targets)) != len(targets):
        raise DomainError(f"duplicate target positions in profile: {targets}")
    return ArgumentProfile(tuple(by_target))


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def canon_op(op: Operation) -> str:
    """Injective, deterministic text form of an operation."""
    if isinstance(op, AssignOp):
        return "assign"
    if isinstance(op, TestOp):
        return "test"
    if isinstance(op, ConstructOp):
        return f"construct:{op.functor}/{op.arity}"
    if isinstance(op, DeconstructOp):
        return f"deconstruct:{op.functor}/{op.arity}"
    if isinstance(op, PsiBotOp):
        return "psi_bot"
    if isinstance(op, PsiOp):
        return op.canon
    raise TypeError(f"not an operation: {op!r}")


def canon_oset(oset: OSet) -> str:
    return "(" + ",".join(canon_op(o) for o in oset.ops) + ")->" + str(oset.target)


def canon_profile(profile: ArgumentProfile) -> str:
    return "{" + ";".join(canon_oset(o) for o in profile.osets) + "}"


def canon_profile_seq(profiles: Sequence[ArgumentProfile]) -> str:
    return "[" + "|".join(canon_profile(p) for p in profiles) + "]"


# ---------------------------------------------------------------------------
# Interactions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interaction:
    source: str
    target: str
    ops: tuple[SitedOperation, ...]  # sorted by point, one per point

    def by_point(self) -> dict[int, Operation]:
        return {s.point: s.op for s in self.ops}

    def points(self) -> tuple[int, ...]:
        return tuple(s.point for s in self.ops)

    def stripped_ops(self) -> tuple[Operation, ...]:
        """Operation multiset with points dropped, canonically sorted."""
        return tuple(sorted((s.op for s in self.ops), key=canon_op))


def make_interaction(source: str, target: str, sited: Iterable[tuple[Operation, int]]) -> Interaction:
    """Build an interaction from (operation, point) pairs.

    A later pair at an already-seen point replaces the earlier one.
    """
    if source == target:
        raise WellDefinednessError(f"self-interaction on {source}")
    by_point: dict[int, Operation] = {}
    for op, point in sited:
        by_point[point] = op
    if not by_point:
        raise WellDefinednessError(f"empty operation set on {source} ~> {target}")
    return _interaction(source, target, by_point)


def _interaction(source: str, target: str, by_point: dict[int, Operation]) -> Interaction:
    ops = tuple(SitedOperation(op, pt) for pt, op in sorted(by_point.items()))
    return Interaction(source, target, ops)


@dataclass(frozen=True)
class InteractionSet:
    """A well-defined interaction set for one predicate.

    ``input_args`` are the owner's input formal argument names; they are
    the only variables that may never appear as interaction targets.
    Instances are immutable to callers: every lattice operation returns a
    new set, built in place by a private builder and frozen once.
    """

    owner: str
    input_args: frozenset[str]
    interactions: dict[tuple[str, str], Interaction]

    def __iter__(self) -> Iterator[Interaction]:
        return iter(self.interactions.values())

    def __len__(self) -> int:
        return len(self.interactions)

    def get(self, source: str, target: str) -> Interaction | None:
        return self.interactions.get((source, target))

    def is_empty(self) -> bool:
        return not self.interactions


def bottom(owner: str, input_args: Iterable[str] = ()) -> InteractionSet:
    """The least element: the empty interaction set."""
    return InteractionSet(owner, frozenset(input_args), {})


def _check_well_defined(source: str, target: str, s: InteractionSet | _Builder) -> None:
    if source == target:
        raise WellDefinednessError(f"self-interaction on {source}")
    if target in s.input_args:
        raise WellDefinednessError(
            f"interaction targets input argument {target} of {s.owner}"
        )


class _Builder:
    """An interaction set under construction, the one place sets are merged.

    ``ops`` maps each (source, target) pair to its operations keyed by
    program point. A pair taken whole from a frozen set, or frozen by this
    builder, keeps its ``Interaction`` until it grows, so ``freeze``
    rebuilds only the pairs that were merged into since.
    """

    __slots__ = ("owner", "input_args", "ops", "_kept")

    def __init__(self, owner: str, input_args: frozenset[str]):
        self.owner = owner
        self.input_args = input_args
        self.ops: dict[tuple[str, str], dict[int, Operation]] = {}
        self._kept: dict[tuple[str, str], Interaction] = {}

    def add(self, source: str, target: str, by_point: dict[int, Operation]) -> bool:
        """Join ``source ~> target`` with the operations ``by_point`` into
        the set; an incoming operation replaces the one at the same point.
        A new pair keeps ``by_point`` itself, so callers pass a dict they
        no longer use. Returns whether the pair was added or changed."""
        _check_well_defined(source, target, self)
        if not by_point:
            raise WellDefinednessError(f"empty operation set on {source} ~> {target}")
        key = (source, target)
        have = self.ops.get(key)
        if have is None:
            self.ops[key] = by_point
            return True
        grown = False
        for point, op in by_point.items():
            old = have.get(point)
            if old is not op and old != op:
                have[point] = op
                grown = True
        if grown:
            self._kept.pop(key, None)
        return grown

    def add_set(self, s: InteractionSet) -> None:
        if s.owner != self.owner:
            raise DomainError(f"cannot join sets for {s.owner} and {self.owner}")
        for key, i in s.interactions.items():
            new = key not in self.ops
            self.add(i.source, i.target, i.by_point())
            if new:
                self._kept[key] = i

    def freeze(self) -> InteractionSet:
        kept = self._kept
        interactions = {
            key: kept.get(key) or _interaction(key[0], key[1], ops)
            for key, ops in self.ops.items()
        }
        self._kept = dict(interactions)
        return InteractionSet(self.owner, self.input_args, interactions)


def join_interaction(i: Interaction, s: InteractionSet) -> InteractionSet:
    """Add one interaction to a set.

    If the pair is new the interaction is inserted; otherwise the operation
    sets are unioned per program point, the incoming operation replacing
    any previous operation at the same point.
    """
    builder = _Builder(s.owner, s.input_args)
    builder.add_set(s)
    builder.add(i.source, i.target, i.by_point())
    return builder.freeze()


def join_sets(a: InteractionSet, b: InteractionSet) -> InteractionSet:
    """Join two sets over the same predicate by merging a into b, in time
    linear in their sizes."""
    builder = _Builder(b.owner, b.input_args)
    builder.add_set(b)
    builder.add_set(a)
    return builder.freeze()


def leq_sets(a: InteractionSet, b: InteractionSet) -> bool:
    """a is at most b: every interaction of a has a counterpart in b whose
    (operation, point) set is a superset."""
    if a.owner != b.owner:
        raise DomainError(f"cannot compare sets for {a.owner} and {b.owner}")
    for key, i in a.interactions.items():
        j = b.interactions.get(key)
        if j is None:
            return False
        if not set(i.ops) <= set(j.ops):
            return False
    return True


def strip_points(
    s: InteractionSet, args: Sequence[str], modes: Sequence[str]
) -> PredicateProfile:
    """Turn a projected interaction set into a predicate profile.

    ``args`` are the formal argument names in order; every interaction must
    relate two of them. Positions are 1-based; operation multiplicity is
    kept when points are dropped.
    """
    position = {name: idx + 1 for idx, name in enumerate(args)}
    osets: dict[int, list[OSet]] = {idx + 1: [] for idx in range(len(args))}
    for i in s:
        if i.source not in position or i.target not in position:
            raise DomainError(
                f"interaction {i.source} ~> {i.target} involves a non-argument variable"
            )
        tpos = position[i.target]
        if modes[tpos - 1] != "out":
            raise WellDefinednessError(
                f"interaction targets input argument {i.target} of {s.owner}"
            )
        osets[position[i.source]].append(make_oset(i.stripped_ops(), tpos))
    return PredicateProfile(
        tuple(make_profile(osets[idx + 1]) for idx in range(len(args)))
    )


# ---------------------------------------------------------------------------
# Rendering (diagnostics and traces)
# ---------------------------------------------------------------------------


def render_interaction(i: Interaction) -> str:
    ops = ", ".join(f"{canon_op(s.op)}@{s.point}" for s in i.ops)
    return f"{i.source} ~> {i.target} {{{ops}}}"


def render_interaction_set(s: InteractionSet) -> str:
    lines = [render_interaction(i) for _, i in sorted(s.interactions.items())]
    return "\n".join(lines)
