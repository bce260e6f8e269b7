"""A total order on argument profiles and the ordered-profile operator.

Profiles are compared on a feature vector (number of o-sets, total
operations, psi-based operations, constructions, deconstructions,
assignments): the profile whose first differing feature is larger sorts
first. Profiles with equal features are ordered by their canonical
serialization, which makes the order total and deterministic; profiles
with identical serializations are equal.

Features come first, and the tie-break never builds a string: only when
two feature vectors are equal does it walk the two profiles side by side
(``domain.cmp_canon_profile``), in exactly the lexicographic order of
their canonical strings. Psi ops are hash-consed, so the walk passes over
an op shared by both profiles by identity, and two profiles are
canonically equal exactly when they are structurally equal. How the walk
settles a text that is a proper prefix of another is set out in the
comment block "Canonical order without the strings" in ``domain``.

``oprof`` sorts a predicate's argument profiles by this order (stable on
the original argument index for canonically equal profiles), keeps empty
profiles in the sequence, and rewrites every o-set target to the target
argument's new position. Ties keep source order: the tie-break compares
profiles whose targets are still source positions, and canonically equal
profiles, such as the empty profiles of all output arguments, stay in
source order. So two predicates that differ only by an argument
permutation can get different ordered profiles (ROADMAP item 1).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cmp_to_key

from .domain import (
    ArgumentProfile,
    AssignOp,
    ConstructOp,
    DeconstructOp,
    OSet,
    PsiBotOp,
    PsiOp,
    TestOp,
    cmp_canon_profile,
    make_profile,
)
from .syntax import Record


# The feature each op class counts towards (see ``features``); tests count
# towards none, so they take the last, unused slot.
_FEATURE_OF = {PsiBotOp: 0, PsiOp: 0, ConstructOp: 1, DeconstructOp: 2, AssignOp: 3, TestOp: 4}


def features(profile: ArgumentProfile) -> tuple[int, int, int, int, int, int]:
    """The feature vector (o-sets, ops, psi-based ops, constructions,
    deconstructions, assignments), counted over all o-sets; psi payloads
    are treated opaquely."""
    counts = [0, 0, 0, 0, 0]
    n_ops = 0
    feature_of = _FEATURE_OF
    for oset in profile.osets:
        n_ops += len(oset.ops)
        for op in oset.ops:
            counts[feature_of[op.__class__]] += 1
    return (len(profile.osets), n_ops, counts[0], counts[1], counts[2], counts[3])


def _feature_key(profile: ArgumentProfile) -> tuple[int, ...]:
    """Ascending order of this key is the profile order, up to ties."""
    return tuple(-f for f in features(profile))


def compare_profiles(a: ArgumentProfile, b: ArgumentProfile) -> int:
    """-1 if a sorts before b, 1 if after, 0 if canonically equal."""
    ka, kb = _feature_key(a), _feature_key(b)
    if ka != kb:
        return -1 if ka < kb else 1
    return cmp_canon_profile(a, b)


class OrderedProfile(Record):
    """Argument profiles sorted ascending, with targets remapped to new
    positions. ``permutation[k]`` is the original position (1-based) of the
    argument now at position k+1."""

    __slots__ = __match_args__ = ("profiles", "permutation")

    def __init__(self, profiles: tuple[ArgumentProfile, ...], permutation: tuple[int, ...]):
        self.profiles = profiles
        self.permutation = permutation


def oprof(per_arg: Sequence[ArgumentProfile]) -> OrderedProfile:
    """Order a predicate's argument profiles (``strip_points`` of its
    interaction set) by the profile order.

    Canonically equal profiles keep their original relative order, so the
    permutation is unique and re-applying oprof to an ordered profile is
    the identity.
    """
    keys = [_feature_key(p) for p in per_arg]
    indexed = sorted(range(len(keys)), key=keys.__getitem__)
    if len(set(keys)) < len(keys):
        # Some feature vectors tie: sorting the sorted list again compares
        # neighbours, and walks the profiles only where their features tie.
        def cmp(i: int, j: int) -> int:
            if keys[i] != keys[j]:
                return -1 if keys[i] < keys[j] else 1
            return cmp_canon_profile(per_arg[i], per_arg[j])

        indexed.sort(key=cmp_to_key(cmp))
    permutation = tuple(i + 1 for i in indexed)
    new_pos = {orig: new + 1 for new, orig in enumerate(permutation)}
    remapped = tuple(
        make_profile(
            OSet(o.ops, new_pos[o.target]) for o in per_arg[orig - 1].osets
        )
        for orig in permutation
    )
    return OrderedProfile(remapped, permutation)
