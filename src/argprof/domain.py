"""The abstract domain of interactions and argument profiles.

An interaction ``V ~{O}~> W`` records that data flows from variable V into
variable W through the operations O, where O holds at most one operation
per program point. A well-defined interaction set keeps at most one
interaction per (source, target) pair, forbids self-edges, and only allows
output formal arguments as argument targets. Interaction sets over a fixed
predicate form a join semi-lattice: the join unions interactions pairwise
and, within a pair, unions their operations keyed by program point (an
incoming operation replaces any previous operation at the same point,
which is how re-analysis refreshes call abstractions).

A set and the private builder that makes it store interactions the same
way: a dict from each (source, target) pair to a dict from program point
to operation. Every join fills a builder, the one place where interactions
are merged and checked for well-definedness, and freezes it once, so
joining costs time linear in the sizes of its arguments. One rule makes
sharing safe: once a set or a builder stores an op dict, nothing mutates
it. A pair that grows gets a new dict, so sets and builders share the op
dicts of every pair they have in common, freezing copies only the outer
dict, and unchanged pairs of successive sets compare by identity.

Stripping program points turns an interaction set over formal arguments
into a predicate profile: a tuple with one argument profile per argument,
each a set of o-sets (operation multiset, target position). Profiles are
the values ordered, compared and embedded in call abstractions. An
analyzed set keeps its profiles and their ordered profile once they are
built (``analysis.argument_profiles``), as a ``PsiOp`` keeps its canonical
string, so the call abstraction and every command that reads a profile
share one build.

Operations are either base unification operators (assign, test,
construct_f, deconstruct_f), the recursion placeholder ``psi_bot``, or
``psi(<ordered profile>)`` abstracting a call to an analyzed predicate.
Every operation has a canonical string form (see ``canon_op``); this
grammar is a stable external format used for JSON and text output:

    assign | test | construct:f/n | deconstruct:f/n | psi_bot
    psi:[profile|profile|...]
    profile  ::=  { oset ; oset ; ... }          osets sorted by target
    oset     ::=  ( op , op , ... ) -> target    ops sorted by canon_op

A psi payload holds its callee's profile, which holds the callee's own psi
operations, so the expanded text grows exponentially with call depth even
though the values themselves are shared, so only output builds it.
``PsiOp`` is hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006): one live object per distinct payload, so equality
and hashing are identity, and structural equality of profiles is equality
of their canonical strings. The order of canonical strings, which sorts
the ops of an o-set and breaks ties between profiles, is computed by
walking two values side by side (``cmp_canon_op``, ``cmp_canon_profile``),
with each psi-against-psi result memoized on the older op, so a comparison
costs at most the size of the shared structure. Each ``PsiOp`` builds its
canonical string only when output asks for it, and keeps it, so writing
costs time linear in the length of the output.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cmp_to_key
from itertools import count
from operator import attrgetter
from threading import Lock
from typing import TYPE_CHECKING, ClassVar, Iterable, Sequence
from weakref import WeakValueDictionary

from .syntax import Value

if TYPE_CHECKING:
    from .ordering import OrderedProfile


class DomainError(ValueError):
    pass


class WellDefinednessError(DomainError):
    pass


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class _NullaryOp(Value):
    """An operation without parameters: all ops of one class are equal."""

    __slots__ = ()
    canon: ClassVar[str]
    _key = attrgetter("canon")


class AssignOp(_NullaryOp):
    __slots__ = ()
    canon = "assign"


class TestOp(_NullaryOp):
    __slots__ = ()
    canon = "test"


class PsiBotOp(_NullaryOp):
    """Placeholder for a call into the caller's own component of the call
    graph (a self-call is the one-member case), whose callee has no
    profile yet."""

    __slots__ = ()
    canon = "psi_bot"


class _FunctorOp(Value):
    """A construction or deconstruction of ``functor/arity``. Its canonical
    string is built with the op, and is its key."""

    __slots__ = ("functor", "arity", "canon")
    __match_args__ = ("functor", "arity")
    kind: ClassVar[str]
    _key = attrgetter("canon")

    def __init__(self, functor: str, arity: int):
        self.functor = functor
        self.arity = arity
        self.canon = f"{self.kind}:{functor}/{arity}"


class ConstructOp(_FunctorOp):
    __slots__ = ()
    kind = "construct"


class DeconstructOp(_FunctorOp):
    __slots__ = ()
    kind = "deconstruct"


class PsiOp:
    """Abstraction of a call: the callee's ordered, point-free profile.

    Only the ordered profile sequence is stored, so two call sites whose
    callees have equal ordered profiles produce the same operation no
    matter how each callee's arguments were originally arranged.

    Psi ops are hash-consed: ``PsiOp(profiles)`` returns the live op with an
    equal payload if there is one, so structurally equal ops are the same
    object, and equality and hashing are identity. There is one table per
    process, so that ops from two analyses are equal exactly when their
    payloads are. It holds its ops weakly: an op lives only as long as
    something else refers to it. Never assign to an op's attributes.
    """

    __slots__ = ("profiles", "serial", "order", "_canon", "__weakref__")
    __match_args__ = ("profiles",)

    profiles: tuple["ArgumentProfile", ...]
    serial: int  # creation number, never reused
    order: dict[int, int]  # serial of a later op -> sign of comparing with it
    _canon: str | None

    def __new__(cls, profiles: Iterable["ArgumentProfile"]) -> PsiOp:
        # The payload hashes in time linear in its top-level size: nested
        # psi ops hash by identity.
        profiles = tuple(profiles)
        with _PSI_LOCK:
            op = _PSI_TABLE.get(profiles)
            if op is None:
                op = object.__new__(cls)
                op.profiles = profiles
                op.serial = next(_PSI_SERIALS)
                op.order = {}
                op._canon = None
                _PSI_TABLE[profiles] = op
        return op

    @property
    def canon(self) -> str:
        """The canonical string, built on first use and kept."""
        if self._canon is None:
            self._canon = "psi:" + canon_profile_seq(self.profiles)
        return self._canon

    def __repr__(self) -> str:
        # The payload grows exponentially with call depth: show its head.
        canon = self.canon
        if len(canon) <= 80:
            return f"PsiOp({canon!r})"
        return f"PsiOp({canon[:60]!r}... {len(canon)} chars)"


_PSI_TABLE: WeakValueDictionary[tuple["ArgumentProfile", ...], PsiOp] = WeakValueDictionary()
_PSI_SERIALS = count()
_PSI_LOCK = Lock()

Operation = AssignOp | TestOp | ConstructOp | DeconstructOp | PsiBotOp | PsiOp

ASSIGN = AssignOp()
TEST = TestOp()
PSI_BOT = PsiBotOp()


# ---------------------------------------------------------------------------
# Profiles (point-free view)
# ---------------------------------------------------------------------------


class OSet(Value):
    """One dataflow relation of an argument: an operation multiset and the
    position of the argument it flows into."""

    __slots__ = __match_args__ = ("ops", "target")
    _key = attrgetter("ops", "target")

    def __init__(self, ops: tuple[Operation, ...], target: int):
        self.ops = ops  # sorted by canon_op, multiplicity preserved
        self.target = target


class ArgumentProfile(Value):
    __slots__ = __match_args__ = ("osets",)
    _key = attrgetter("osets")

    def __init__(self, osets: tuple[OSet, ...]):
        self.osets = osets  # sorted by target, at most one per target


def make_oset(ops: Iterable[Operation], target: int) -> OSet:
    """The o-set of ``ops`` (a multiset) flowing into ``target``, its ops in
    the order of their canonical strings (``cmp_canon_op``).

    Base ops sort by the texts they hold. Every psi text starts with
    ``psi:``, which no base text does, so the psi ops, sorted among
    themselves by walking their payloads, go where ``psi:`` sorts among the
    base texts."""
    base: list[Operation] = []
    psi: list[Operation] = []
    for op in ops:
        (psi if op.__class__ is PsiOp else base).append(op)
    base.sort(key=_canon_text)
    if psi:
        psi.sort(key=_canon_order)
        at = bisect_left(base, "psi:", key=_canon_text)
        base[at:at] = psi
    return OSet(tuple(base), target)


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
    return op.canon


def canon_profile_parts(parts: list[str], profile: ArgumentProfile) -> None:
    """Append the text of ``canon_profile(profile)`` to ``parts``. Every
    op's text is a part of its own, so a psi payload kept on its ``PsiOp``
    is referred to, never copied, until the parts are joined or written."""
    parts.append("{")
    for n, oset in enumerate(profile.osets):
        parts.append(";(" if n else "(")
        for k, op in enumerate(oset.ops):
            if k:
                parts.append(",")
            parts.append(canon_op(op))
        parts.append(f")->{oset.target}")
    parts.append("}")


def canon_profile(profile: ArgumentProfile) -> str:
    parts: list[str] = []
    canon_profile_parts(parts, profile)
    return "".join(parts)


def canon_profile_seq(profiles: Sequence[ArgumentProfile]) -> str:
    parts = ["["]
    for n, profile in enumerate(profiles):
        if n:
            parts.append("|")
        canon_profile_parts(parts, profile)
    parts.append("]")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Canonical order without the strings
# ---------------------------------------------------------------------------
#
# Each function below gives the sign of comparing two canonical strings
# (``canon_op``, ``canon_profile``) by walking the two values side by side,
# so no string is built. The walk follows the grammar: a list compares its
# elements in turn, and when the elements it shares are equal, the
# punctuation after the shorter one decides. One element's text can be a
# proper prefix of another's only where the text ends in digits
# (``construct:cons/2`` against ``construct:cons/20``, target 3 against
# 35); bracketed texts never can. Ops are followed by ``,`` or ``)``, which
# sort below every digit, so within an o-set the shorter op and the shorter
# op list sort first. Targets are followed by ``;`` or ``}``, which sort
# above every digit, so within a profile the shorter target and the shorter
# o-set list sort last. Payload profiles are followed by ``|`` or ``]``, and
# ``]`` sorts below ``|``: the shorter payload sorts first.


def _sign(a: object, b: object) -> int:
    return (a > b) - (a < b)  # type: ignore[operator]


def cmp_canon_op(a: Operation, b: Operation) -> int:
    """The sign of ``canon_op(a)`` against ``canon_op(b)``."""
    if a is b:
        return 0
    a_psi, b_psi = a.__class__ is PsiOp, b.__class__ is PsiOp
    if a_psi and b_psi:
        return _cmp_psi(a, b)  # type: ignore[arg-type]
    # A psi text and a base text differ within their first four characters.
    return _sign("psi:" if a_psi else a.canon, "psi:" if b_psi else b.canon)


def _cmp_psi(a: PsiOp, b: PsiOp) -> int:
    """``cmp_canon_op`` of two distinct psi ops, kept on the older one."""
    if a.serial > b.serial:
        return -_cmp_psi(b, a)
    sign = a.order.get(b.serial)
    if sign is None:
        for x, y in zip(a.profiles, b.profiles):
            sign = cmp_canon_profile(x, y)
            if sign:
                break
        else:
            sign = _sign(len(a.profiles), len(b.profiles))
        a.order[b.serial] = sign
    return sign


def cmp_canon_profile(a: ArgumentProfile, b: ArgumentProfile) -> int:
    """The sign of ``canon_profile(a)`` against ``canon_profile(b)``."""
    for x, y in zip(a.osets, b.osets):
        if x is y:
            continue
        for p, q in zip(x.ops, y.ops):
            if p is not q:
                sign = cmp_canon_op(p, q)
                if sign:
                    return sign
        if len(x.ops) != len(y.ops):
            return _sign(len(x.ops), len(y.ops))
        if x.target != y.target:
            return _sign(f"{x.target};", f"{y.target};")
    return _sign(len(b.osets), len(a.osets))


_canon_order = cmp_to_key(cmp_canon_op)
_canon_text = attrgetter("canon")


# ---------------------------------------------------------------------------
# Interaction sets
# ---------------------------------------------------------------------------

Pair = tuple[str, str]
PointOps = dict[int, Operation]


class InteractionSet(Value):
    """A well-defined interaction set for one predicate.

    ``pairs`` maps each (source, target) pair to its operations keyed by
    program point. ``input_args`` are the owner's input formal argument
    names; they are the only variables that may never appear as targets.
    Neither ``pairs`` nor any op dict in it is ever mutated. A set holds
    dicts, so it is not hashable.

    ``kept_profiles`` is None until ``analysis.argument_profiles`` keeps
    the set's argument profiles there, as the argument names they were
    built for, the profiles and the ordered profile. It is derived from
    the fields, so it is left out of the key and the fields: the one kind
    of slot a record may have assigned after it is built (see ``Record``).
    """

    __slots__ = ("owner", "input_args", "pairs", "kept_profiles")
    __match_args__ = ("owner", "input_args", "pairs")
    _key = attrgetter("owner", "input_args", "pairs")
    __hash__ = None  # type: ignore[assignment]

    kept_profiles: tuple[tuple[str, ...], tuple[ArgumentProfile, ...], OrderedProfile] | None

    def __init__(self, owner: str, input_args: frozenset[str], pairs: dict[Pair, PointOps]):
        self.owner = owner
        self.input_args = input_args
        self.pairs = pairs
        self.kept_profiles = None

    def __len__(self) -> int:
        return len(self.pairs)

    def get(self, source: str, target: str) -> PointOps | None:
        return self.pairs.get((source, target))

    def is_empty(self) -> bool:
        return not self.pairs


def bottom(owner: str, input_args: Iterable[str] = ()) -> InteractionSet:
    """The least element: the empty interaction set."""
    return InteractionSet(owner, frozenset(input_args), {})


def make_interaction_set(
    owner: str, input_args: Iterable[str], pairs: dict[Pair, PointOps]
) -> InteractionSet:
    """The set holding ``pairs``, checked for well-definedness. The op
    dicts are copied, so the caller may go on using its own."""
    builder = _Builder(owner, frozenset(input_args))
    for (source, target), ops in pairs.items():
        builder.add(source, target, dict(ops))
    return builder.freeze()


class _Builder:
    """An interaction set under construction, the one place sets are merged
    and checked for well-definedness.

    ``ops`` is laid out as ``InteractionSet.pairs``. Only the outer dict
    changes: a pair that grows gets a new op dict, so op dicts are shared
    with the sets they came from and the sets frozen from this builder.
    """

    __slots__ = ("owner", "input_args", "ops")

    def __init__(self, owner: str, input_args: frozenset[str]):
        self.owner = owner
        self.input_args = input_args
        self.ops: dict[Pair, PointOps] = {}

    def add(self, source: str, target: str, by_point: PointOps) -> bool:
        """Join ``source ~> target`` with the operations ``by_point`` into
        the set; an incoming operation replaces the one at the same point.
        A new pair stores ``by_point`` itself, so it must never be mutated
        afterwards. Returns whether the pair was added or changed."""
        if source == target:
            raise WellDefinednessError(f"self-interaction on {source}")
        if target in self.input_args:
            raise WellDefinednessError(
                f"interaction targets input argument {target} of {self.owner}"
            )
        if not by_point:
            raise WellDefinednessError(f"empty operation set on {source} ~> {target}")
        key = (source, target)
        have = self.ops.get(key)
        if have is None:
            self.ops[key] = by_point
            return True
        for point, op in by_point.items():
            old = have.get(point)
            if old is not op and old != op:
                self.ops[key] = {**have, **by_point}
                return True
        return False

    def add_set(self, s: InteractionSet) -> None:
        if s.owner != self.owner:
            raise DomainError(f"cannot join sets for {s.owner} and {self.owner}")
        for (source, target), ops in s.pairs.items():
            self.add(source, target, ops)

    def freeze(self) -> InteractionSet:
        return InteractionSet(self.owner, self.input_args, dict(self.ops))


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
    for key, ops in a.pairs.items():
        have = b.pairs.get(key)
        if have is None or not ops.items() <= have.items():
            return False
    return True


def strip_points(s: InteractionSet, args: Sequence[str]) -> tuple[ArgumentProfile, ...]:
    """Turn a projected interaction set into its argument profiles, in
    original argument order.

    ``args`` are the formal argument names in order; every interaction must
    relate two of them. Positions are 1-based; operation multiplicity is
    kept when points are dropped.
    """
    position = {name: idx + 1 for idx, name in enumerate(args)}
    osets: dict[int, list[OSet]] = {idx + 1: [] for idx in range(len(args))}
    for (source, target), ops in s.pairs.items():
        if source not in position or target not in position:
            raise DomainError(
                f"interaction {source} ~> {target} involves a non-argument variable"
            )
        if target in s.input_args:
            raise WellDefinednessError(
                f"interaction targets input argument {target} of {s.owner}"
            )
        osets[position[source]].append(make_oset(ops.values(), position[target]))
    return tuple(make_profile(osets[idx + 1]) for idx in range(len(args)))


# ---------------------------------------------------------------------------
# Rendering (diagnostics and traces)
# ---------------------------------------------------------------------------


def render_interaction_set(s: InteractionSet) -> str:
    """One line per pair, sorted by pair, each listing its operations
    sorted by point."""
    lines = []
    for source, target in sorted(s.pairs):
        ops = s.pairs[(source, target)]
        sited = ", ".join(f"{canon_op(ops[pt])}@{pt}" for pt in sorted(ops))
        lines.append(f"{source} ~> {target} {{{sited}}}")
    return "\n".join(lines)
