"""Equality and hashing of the value classes.

Syntax nodes, operations, o-sets, profiles and queries are plain classes
with ``__slots__``. Equality is false across classes, even between values
whose fields hold the same contents, and between a value and the tuple of
its fields. Two values of one class are equal exactly when their fields
are, leaving out ``line`` and ``col``, and equal values hash equally.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from argprof.domain import (
    ASSIGN,
    PSI_BOT,
    TEST,
    ArgumentProfile,
    AssignOp,
    ConstructOp,
    DeconstructOp,
    OSet,
    PsiBotOp,
    PsiOp,
    TestOp,
)
from argprof import syntax
from argprof.parse import Query
from argprof.syntax import (
    Assign,
    Call,
    Clause,
    Construct,
    Deconstruct,
    FunctorTerm,
    Predicate,
    Var,
)

names = st.sampled_from(["X", "Y", "nil", "cons", "f"])
contents = st.tuples(names, st.integers(0, 3), st.lists(names, max_size=3).map(lambda ns: tuple(map(Var, ns))))
positions = st.tuples(st.integers(0, 50), st.integers(0, 50))


def values(content, line=1, col=1):
    """One value of each class, built afresh from the same field contents;
    ``line`` and ``col`` place the atoms, clauses and predicates."""
    name, n, args = content
    var, term = Var(name), FunctorTerm(name, args)
    oset = OSet((ConstructOp(name, n), DeconstructOp(name, n)), len(args))
    return [
        var,
        FunctorTerm(name),
        Deconstruct(n, line, col, var, name, args),
        Construct(n, line, col, var, name, args),
        syntax.Test(n, line, col, var, term),
        Assign(n, line, col, var, term),
        Call(n, line, col, name, args),
        Clause((Call(n, line, col, name, args),), line, col),
        Predicate(name, ("in",) * n, args, (), line, col),
        ConstructOp(name, n),
        DeconstructOp(name, n),
        AssignOp(),
        TestOp(),
        PsiBotOp(),
        oset,
        ArgumentProfile((oset,)),
        Query((oset,)),
        PsiOp((ArgumentProfile((oset,)),)),
    ]


@settings(max_examples=200, deadline=None)
@given(contents)
def test_values_of_different_classes_never_compare_equal(content):
    built = values(content)
    assert len({type(v) for v in built}) == len(built)
    for i, a in enumerate(built):
        fields = tuple(getattr(a, name) for name in a.__match_args__)
        assert a != fields and not a == fields
        for b in built[i + 1 :]:
            assert a != b and not a == b
            assert b != a and not b == a


@settings(max_examples=200, deadline=None)
@given(contents, positions)
def test_equal_values_hash_equally_wherever_they_stand(content, position):
    # Built twice from the same contents, the second time at another line
    # and column: every value equals its twin, and hashes as it does.
    for a, b in zip(values(content), values(content, *position)):
        assert a == b and not a != b
        assert hash(a) == hash(b)


@settings(max_examples=200, deadline=None)
@given(contents, contents)
def test_values_of_one_class_are_equal_exactly_when_their_fields_are(one, other):
    def fields(value):
        return tuple(getattr(value, name) for name in value.__match_args__ if name not in ("line", "col"))

    for a, b in zip(values(one), values(other, 5, 7)):
        assert (a == b) == (fields(a) == fields(b))


def test_values_differing_only_in_line_and_col_compare_equal():
    var = Var("X")
    assert Call(1, 2, 3, "p", (var,)) == Call(1, 9, 9, "p", (var,))
    assert Clause((), 2, 3) == Clause((), 7, 1)
    assert Predicate("p", ("in",), (var,), (), 2, 3) == Predicate("p", ("in",), (var,), ())
    assert Call(1, 2, 3, "p", (var,)) != Call(2, 2, 3, "p", (var,))


def test_nullary_ops_equal_their_singletons():
    assert (AssignOp(), TestOp(), PsiBotOp()) == (ASSIGN, TEST, PSI_BOT)
    assert len({AssignOp(), ASSIGN, TestOp(), TEST, PsiBotOp(), PSI_BOT}) == 3


def test_records_print_their_fields_in_order():
    var = Var("X")
    assert repr(ConstructOp("cons", 2)) == "ConstructOp(functor='cons', arity=2)"
    assert repr(ASSIGN) == "AssignOp()"
    assert repr(OSet((ASSIGN,), 2)) == "OSet(ops=(AssignOp(),), target=2)"
    assert repr(Clause((), 1, 2)) == "Clause(body=(), line=1, col=2)"
    assert repr(Predicate("p", ("in",), (var,), ())) == (
        "Predicate(name='p', modes=('in',), args=(Var(name='X'),), clauses=(), line=0, col=0)"
    )
    assert repr(syntax.Test(1, 2, 3, var, var)) == (
        "Test(point=1, line=2, col=3, left=Var(name='X'), right=Var(name='X'))"
    )
