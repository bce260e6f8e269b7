"""Equality of the two value classes whose keys hold dicts.

A ``Program`` (compared by the parser differential tests) and an
``InteractionSet`` (compared by ``run_analysis`` to see whether a round
changed a predicate) are equal exactly when their key fields are: a
program's key is its predicates alone, as its call graph is derived from
them. They never equal a value of another class or the tuple of their
fields, and they are not hashable.
"""

from __future__ import annotations

import pytest

from argprof import ASSIGN, PSI_BOT, InteractionSet, Program, parse_program
from helpers import FIXTURES, iset


def test_program_and_interaction_set_compare_by_key_and_are_unhashable():
    source = (FIXTURES / "append.lp").read_text()
    program = parse_program(source)
    twin = parse_program(source)
    assert program is not twin and program == twin and not program != twin
    assert Program(program.predicates) == program
    assert Program({}) != program
    assert program != parse_program(source.replace("Z := Y", "Z := X"))

    edges = [("X", "Z", [(ASSIGN, 2)]), ("Y", "Z", [(PSI_BOT, 4)])]
    s = iset("app", ["X", "Y"], edges)
    assert s == iset("app", ["X", "Y"], edges) and not s != iset("app", ["X", "Y"], edges)
    assert InteractionSet(s.owner, s.input_args, dict(s.pairs)) == s
    assert s != iset("dapp", ["X", "Y"], edges)
    assert s != iset("app", ["X"], edges)
    assert s != iset("app", ["X", "Y"], edges[:1])
    assert s != iset("app", ["X", "Y"], [("X", "Z", [(ASSIGN, 3)]), edges[1]])

    for value in (program, s):
        fields = tuple(getattr(value, name) for name in value.__match_args__)
        assert value != fields and not value == fields
        with pytest.raises(TypeError):
            hash(value)
    assert program != s and s != program
