"""Parser, program-point assignment, call graph and round-trip tests."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from argprof import (
    Assign,
    Call,
    Construct,
    Deconstruct,
    LexError,
    ParseError,
    ProgramError,
    SourceError,
    format_program,
    parse_program,
    parse_query,
)
from argprof import parse, syntax
from argprof.parse import Tokens, tokenize
from helpers import (
    FIXTURES,
    MUTATION_CHARS,
    ODD_QUERY_CHARS,
    chain_source,
    fixture_names,
    gen_input_term,
    gen_program_source,
    load_fixture,
    mutated_sources,
    query_sources,
    reference_parse_program,
    reference_parse_query,
    reference_tokenize,
    token_sources,
    wide_source,
)

APP_SRC = """\
:- pred app(in,in,out).
app(X,Y,Z) :- X => nil, Z := Y.
app(X,Y,Z) :- X => cons(E,Es), app(Es,Y,Zs), Z <= cons(E,Zs).
"""


def test_parse_append():
    program = parse_program(APP_SRC)
    assert list(program.predicates) == ["app"]
    app = program.predicates["app"]
    assert app.arity == 3
    assert app.modes == ("in", "in", "out")
    assert [a.point for a in program.atoms()] == [1, 2, 3, 4, 5]
    kinds = [type(a) for a in program.atoms()]
    assert kinds == [Deconstruct, Assign, Deconstruct, Call, Construct]


def test_parse_minimal_program():
    program = parse_program(":- pred p(out). p(X) :- X <= nil.")
    assert [a.point for a in program.atoms()] == [1]
    (atom,) = program.atoms()
    assert isinstance(atom, Construct)
    assert atom.functor == "nil" and atom.args == ()


def test_nested_functor_rejected():
    with pytest.raises(ParseError):
        parse_program(":- pred p(in). p(X) :- X => f(g(Y)).")


def test_call_args_must_be_variables():
    with pytest.raises(ParseError):
        parse_program(":- pred p(in). p(X) :- p(nil).")


def test_duplicate_declaration_rejected():
    src = ":- pred p(in).\n:- pred p(in).\np(X) :- X => nil."
    with pytest.raises(ProgramError) as exc:
        parse_program(src)
    assert "duplicate" in str(exc.value)
    assert exc.value.line == 2


def test_functor_arity_conflict_rejected():
    src = ":- pred p(in,out). p(X,Y) :- X => cons(A,B), Y <= cons(A)."
    with pytest.raises(ProgramError) as exc:
        parse_program(src)
    assert "arity" in str(exc.value)


def test_undefined_call_rejected():
    with pytest.raises(ProgramError) as exc:
        parse_program(":- pred p(in). p(X) :- q(X).")
    assert "undefined" in str(exc.value)


def _hand_built_caller(call: Call) -> dict[str, syntax.Predicate]:
    """``p(X,Y) :- <call>.`` and ``:- pred q(in,out).``, built by hand, not
    parsed."""
    x, y = syntax.Var("X"), syntax.Var("Y")
    return {
        "p": syntax.Predicate("p", ("in", "out"), (x, y), (syntax.Clause((call,), 3, 1),), 2, 1),
        "q": syntax.Predicate("q", ("in", "out"), (x, y), (), 1, 1),
    }


@pytest.mark.parametrize(
    "pred, args, message",
    [
        ("r", ("X", "Y"), "call to undefined predicate 'r'"),
        ("q", ("X", "Y", "Z"), "'q' called with 3 arguments but declared with arity 2"),
    ],
    ids=["undefined", "arity"],
)
def test_program_rejects_a_call_without_its_callee(pred, args, message):
    # A call to a missing predicate or with the wrong arity is caught as the
    # program is built, and placed; the parser reports the same text.
    call = Call(1, 3, 9, pred, tuple(syntax.Var(a) for a in args))
    with pytest.raises(syntax.CallError) as exc:
        syntax.Program(_hand_built_caller(call))
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, 3, 9)
    assert str(exc.value) == message
    source = f":- pred q(in,out).\n:- pred p(in,out).\np(X,Y) :- {syntax.format_atom(call)}."
    with pytest.raises(ProgramError) as parsed:
        parse_program(source)
    assert parsed.value.render() == f"<input>:3:11: error: {message}"


def test_a_predicates_arity_is_the_length_of_its_modes():
    # A call is checked against the modes a callee declares, so no argument
    # of it is left neither checked nor bound.
    x, y = syntax.Var("X"), syntax.Var("Y")
    q = syntax.Predicate("q", ("in",), (x,), ())
    assert q.arity == 1
    clause = syntax.Clause((Call(1, 3, 9, "q", (x, y)),), 3, 1)
    with pytest.raises(syntax.CallError) as exc:
        syntax.Program({"p": syntax.Predicate("p", ("in", "out"), (x, y), (clause,)), "q": q})
    assert exc.value.message == "'q' called with 2 arguments but declared with arity 1"


def _head_error(args, clauses=()):
    """The ``CallError`` of a program whose one predicate ``q(in,out)``,
    declared at 1:1, has the head ``args`` and ``clauses``."""
    with pytest.raises(syntax.CallError) as exc:
        syntax.Program({"q": syntax.Predicate("q", ("in", "out"), args, clauses, 1, 1)})
    return exc.value.message, exc.value.line, exc.value.col


def test_program_rejects_a_clause_head_of_another_arity():
    # A head longer or shorter than its modes would leave an argument or a
    # mode without the other; it is caught as the program is built, placed
    # at the first clause, with the text the parser gives.
    x, y, z = syntax.Var("X"), syntax.Var("Y"), syntax.Var("Z")
    clauses = (syntax.Clause((syntax.Assign(1, 2, 10, y, x),), 2, 1), syntax.Clause((), 3, 1))
    message = "'q' declared with arity 2 but clause head has 3 arguments"
    assert _head_error((x, y, z), clauses) == (message, 2, 1)
    assert _head_error((x,), clauses)[1:] == (2, 1)
    with pytest.raises(ProgramError) as parsed:
        parse_program(":- pred q(in,out).\nq(X,Y,Z) :- Y := X.\nq(X,Y,Z).\n")
    assert parsed.value.render() == f"<input>:2:1: error: {message}"


def test_program_rejects_a_head_that_repeats_a_variable():
    # p(X,X) under (in,out) would both read and bind X. The head is placed
    # at the first clause, or at the declaration of a predicate without
    # one, with the text the parser gives.
    x = syntax.Var("X")
    message = "head arguments must be pairwise distinct variables"
    assert _head_error((x, x), (syntax.Clause((), 2, 1),)) == (message, 2, 1)
    assert _head_error((x, x)) == (message, 1, 1)
    assert _head_error((x, syntax.FunctorTerm("a"))) == (message, 1, 1)
    with pytest.raises(ProgramError) as parsed:
        parse_program(":- pred q(in,out).\nq(X,X).\n")
    assert parsed.value.render() == f"<input>:2:1: error: {message}"


def test_a_bad_head_is_reported_before_a_later_missing_declaration():
    # The head and the declaration are checked in order of first mention,
    # as are two bad heads, and any head before any call.
    head = "'p' declared with arity 1 but clause head has 2 arguments"
    sources = {
        ":- pred p(in).\np(X,Y).\nq(X).\n": f"2:1: error: {head}",
        "q(X).\n:- pred p(in).\np(X,Y).\n": "1:1: error: missing mode declaration for 'q'",
        ":- pred p(in).\n:- pred q(in).\nq(X,Y).\np(X,Y).\n": f"4:1: error: {head}",
        ":- pred q(in).\n:- pred p(in).\nq(X) :- r(X).\np(X,Y).\n": f"4:1: error: {head}",
    }
    for source, error in sources.items():
        with pytest.raises(ProgramError) as exc:
            parse_program(source)
        assert exc.value.render() == f"<input>:{error}"
        with pytest.raises(ProgramError) as ref:
            reference_parse_program(source)
        assert ref.value.render() == exc.value.render()


def test_bad_calls_are_reported_in_order_of_first_mention():
    # The program keeps b before a (the order of their first clauses), but
    # a is mentioned first, so its bad call is the one reported.
    source = ":- pred a(in).\n:- pred b(in).\nb(X) :- z(X).\na(X) :- y(X).\n"
    with pytest.raises(ProgramError) as exc:
        parse_program(source)
    assert exc.value.render() == "<input>:4:9: error: call to undefined predicate 'y'"
    with pytest.raises(ProgramError) as exc:
        parse_program(source.replace("y(X)", "b(X,X)"))
    assert exc.value.render() == "<input>:4:9: error: 'b' called with 2 arguments but declared with arity 1"


def test_head_args_must_be_distinct():
    with pytest.raises(ProgramError):
        parse_program(":- pred p(in,in). p(X,X).")


def test_clause_heads_must_agree():
    src = ":- pred p(in).\np(X) :- X => nil.\np(Y) :- Y => nil."
    with pytest.raises(ProgramError):
        parse_program(src)


def test_missing_mode_declaration_rejected():
    with pytest.raises(ProgramError):
        parse_program("p(X) :- X => nil.")


def test_missing_declaration_position_is_reported():
    try:
        parse_program("p(X) :- X => nil.")
    except ProgramError as exc:
        assert (exc.line, exc.col) == (1, 1)


def test_zero_arity_functor_forms():
    bare = parse_program(":- pred p(out). p(X) :- X <= nil.")
    parens = parse_program(":- pred p(out). p(X) :- X <= nil().")
    assert bare == parens
    assert "<= nil." in format_program(parens)


def test_integer_literals_are_functors():
    program = parse_program(":- pred p(out). p(X) :- X <= 42.")
    (atom,) = program.atoms()
    assert atom.functor == "42" and atom.args == ()


def test_test_atom_parses():
    program = parse_program(":- pred p(in,in). p(X,Y) :- X == Y.")
    (atom,) = program.atoms()
    assert isinstance(atom, syntax.Test)


def test_program_points_are_global_and_textual():
    program = load_fixture("double_append.lp")
    assert [a.point for a in program.atoms()] == list(range(1, 13))
    assert program.owner_of_point(5) == "app"
    assert program.owner_of_point(6) == "concat"
    assert program.owner_of_point(11) == "dapp"


def test_call_graph_double_append():
    program = load_fixture("double_append.lp")
    assert program.call_graph == {
        "app": frozenset({"app"}),
        "concat": frozenset({"concat"}),
        "dapp": frozenset({"app", "concat"}),
    }


def test_call_graph_single_nonrecursive():
    program = parse_program(":- pred p(out). p(X) :- X <= nil.")
    assert program.call_graph == {"p": frozenset()}


def test_call_graph_self_loop():
    program = parse_program(APP_SRC)
    assert program.call_graph == {"app": frozenset({"app"})}


@pytest.mark.parametrize("name", fixture_names())
def test_round_trip_fixtures(name):
    program = load_fixture(name)
    assert parse_program(format_program(program)) == program


def test_round_trip_random_programs():
    rng = random.Random(20260810)
    for _ in range(25):
        program = parse_program(gen_program_source(rng))
        assert parse_program(format_program(program)) == program


def test_round_trip_declarations_grouped_above_clauses_in_another_order():
    src = (
        ":- pred q(in,out).\n:- pred p(in,out).\n:- pred r(in).\n"
        "p(X,Y) :- Y := X.\nq(X,Y) :- p(X,Z), Y := Z.\n"
    )
    program = parse_program(src)
    assert list(program.predicates) == ["r", "p", "q"]
    assert {name: pred.body_points() for name, pred in program.predicates.items()} == {
        "r": [], "p": [1], "q": [2, 3]
    }
    assert parse_program(format_program(program)) == program


def test_comments_and_whitespace_ignored():
    src = "% leading comment\n:- pred p(out).\n  p(X) :-\n     X <= nil. % trailing\n"
    program = parse_program(src)
    assert list(program.predicates) == ["p"]


def test_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_program(":- pred p(in).\np(X) :- X =>\n.")
    assert exc.value.line == 3


def test_declared_predicate_without_clauses():
    program = parse_program(":- pred p(in,out).")
    pred = program.predicates["p"]
    assert pred.clauses == ()
    assert pred.arg_names == ("A1", "A2")
    assert parse_program(format_program(program)) == program


def test_lexical_error_position():
    from argprof import LexError

    with pytest.raises(LexError) as exc:
        parse_program(":- pred p(in).\np(X) :- X => @nil.")
    assert (exc.value.line, exc.value.col) == (2, 14)


# ---------------------------------------------------------------------------
# The tokenizer against the character-by-character reference
# ---------------------------------------------------------------------------

def _kind(text):
    """The kind the reference tokenizer gives a token with this text."""
    if not text:
        return "eof"
    if text[0].islower():
        return "name"
    if text[0].isupper() or text[0] == "_":
        return "var"
    return "int" if text[0].isdigit() else text


def _lex(tokenize_fn, source):
    """Tokens as (kind, text, line, col), or the LexError as (message, line, col)."""
    try:
        tokens = tokenize_fn(source)
    except LexError as exc:
        return (exc.message, exc.line, exc.col)
    if isinstance(tokens, Tokens):
        return [(_kind(text), text, *tokens.position(i)) for i, text in enumerate(tokens.texts)]
    return [(t.kind, t.text, t.line, t.col) for t in tokens]


def _reference_lex(source):
    """The reference result, with its one known defect mended: after a
    '(', ')', ',' or '.' that ends the input it puts end of input one
    column too far."""
    expected = _lex(reference_tokenize, source)
    if isinstance(expected, list) and len(expected) >= 2:
        kind, _, line, col = expected[-2]
        line_start = source.rfind("\n") + 1
        if kind in "(),." and line == expected[-1][2] and line_start + col == len(source):
            expected[-1] = ("eof", "", line, col + 1)
    return expected


def test_tokenize_matches_reference_on_fixtures_and_corpus():
    for source in token_sources():
        assert _lex(tokenize, source) == _reference_lex(source)


def test_tokenize_matches_reference_on_mutated_sources():
    for source in mutated_sources():
        assert _lex(tokenize, source) == _reference_lex(source), repr(source)


def test_positions_in_any_order_equal_those_in_order():
    # A query's tokens compute each position when asked, from the last one
    # asked for; a program's read them from one list. Either way the order
    # of the questions must not matter.
    rng = random.Random(11)
    for source in [*token_sources(), *mutated_sources()]:
        try:
            tokens = tokenize(source)
        except LexError:
            continue
        in_order = [tokens.position(i) for i in range(len(tokens))]
        listed = tokenize(source, starts=True)
        assert [listed.position(i) for i in range(len(tokens))] == in_order, repr(source)
        backwards = tokenize(source)
        assert [backwards.position(i) for i in reversed(range(len(tokens)))] == in_order[::-1], repr(source)
        shuffled = tokenize(source)
        order = list(range(len(tokens)))
        rng.shuffle(order)
        assert [shuffled.position(i) for i in order] == [in_order[i] for i in order], repr(source)


# Where a match that folds blanks, newlines and comments in front of its
# token could misplace a position, with the position each case must give.
@pytest.mark.parametrize(
    ("source", "last"),
    [
        (":- pred p(in).\r\np(X) :-\r\n\tX => nil.\r\n", ("eof", "", 4, 1)),
        ("p(X) :-\t\tX\t:= Y.", ("eof", "", 1, 17)),
        (":- pred p(in).\np(X) :-\n   \t  @ X.", ("unexpected character '@'", 3, 7)),
        ("\n\n \t \r\x0c", ("unexpected character '\\x0c'", 3, 5)),
        ("p(X).\n% the last line, no newline", ("eof", "", 2, 1)),
        ("p(X).\n  % the last line\n% and another", ("eof", "", 3, 1)),
        ("", ("eof", "", 1, 1)),
        (" \t\r\n\n  ", ("eof", "", 3, 3)),
        ("% only\n   % comments\n", ("eof", "", 3, 1)),
        ("% only\n\t% comments", ("eof", "", 2, 2)),
        ("p(X) :-\n  X => n\udcff.", ("invalid UTF-8 byte 0xff", 2, 9)),
        ("\n \udc80", ("invalid UTF-8 byte 0x80", 2, 2)),
        ("p(\ud800)", ("unexpected character '\\ud800'", 1, 3)),
        ("% \udcff in a comment\n", ("eof", "", 2, 1)),
        ("?- p(X). % c", ("eof", "", 1, 10)),
        ("?- p(X) % no period", ("eof", "", 1, 9)),
        ("?- p(X). % c\n", ("eof", "", 2, 1)),
        ("?- % goal\n  p(X, % in\n Y).", ("eof", "", 3, 5)),
    ],
)
def test_tokenize_matches_reference_where_gaps_fold(source, last):
    result = _lex(tokenize, source)
    assert result == _reference_lex(source)
    if isinstance(result, list):
        assert result[-1] == last
        assert len(tokenize(source)) == len(result)
        assert all(type(text) is str for text in tokenize(source).texts)
    else:
        assert result == last


@pytest.mark.parametrize(
    ("source", "eof"),
    [
        ("", (1, 1)),
        ("p(X)", (1, 5)),
        ("p(X).", (1, 6)),
        ("p(X,", (1, 5)),
        ("p(", (1, 3)),
        ("p(X).\n", (2, 1)),
        ("p(X) % done", (1, 6)),
        ("p(X). % done (", (1, 7)),
        ("p(X)\n  %", (2, 3)),
        ("p(X)\t\r", (1, 7)),
    ],
)
def test_end_of_input_column(source, eof):
    kind, _, line, col = _lex(tokenize, source)[-1]
    assert (kind, line, col) == ("eof", *eof)


def test_end_of_input_diagnostic_column():
    with pytest.raises(ParseError) as exc:
        parse_program(":- pred p(in).\np(X)")
    assert (exc.value.line, exc.value.col) == (2, 5)
    with pytest.raises(ParseError) as exc:
        parse_query("?- app(nil,nil,Z)")
    assert (exc.value.line, exc.value.col) == (1, 18)


# ---------------------------------------------------------------------------
# The parsers against the parsers over per-token objects
# ---------------------------------------------------------------------------


def _program_nodes(program):
    """Where every predicate, clause and atom is, by name, kind or point."""
    nodes = []
    for pred in program.predicates.values():
        nodes.append((pred.name, pred.line, pred.col))
        for clause in pred.clauses:
            nodes.append(("clause", clause.line, clause.col))
            nodes.extend((atom.point, atom.line, atom.col) for atom in clause.body)
    return nodes


def _query_nodes(query):
    return [(atom.point, atom.line, atom.col) for atom in query.goal]


def _outcome(parse, nodes, source):
    """The parse and where its nodes are, or the error's class, message and
    position."""
    try:
        result = parse(source)
    except SourceError as exc:
        return type(exc), exc.message, exc.line, exc.col
    return result, nodes(result)


_PROGRAMS = (parse_program, reference_parse_program, _program_nodes)
_QUERIES = (parse_query, reference_parse_query, _query_nodes)


def _agree(parsers, source):
    """Require both parsers' outcomes to be equal; return the error class,
    or None."""
    parse, reference, nodes = parsers
    expected = _outcome(reference, nodes, source)
    assert _outcome(parse, nodes, source) == expected, repr(source)
    return expected[0] if isinstance(expected[0], type) else None


def _parser_programs():
    sources = [(FIXTURES / name).read_text() for name in fixture_names()]
    rng = random.Random(0xBEEF)  # the test-07 corpus
    sources += [gen_program_source(rng) for _ in range(200)]
    sources += [wide_source(random.Random(seed), 11 + seed, 200) for seed in range(2)]
    sources += [chain_source(k) for k in range(1, 7)]
    return sources


def _parser_queries():
    rng = random.Random(11)
    queries = ["?- app(cons(1,nil), cons(2,nil), Z).", "?- X <= s(z), n(X, Y).", "?- p."]
    for _ in range(40):
        one, two = (syntax.format_ground(gen_input_term(rng)) for _ in range(2))
        queries.append(f"?- app({one}, {two}, Z),\n  {two} => cons(E, T), W <= pair({one}, E), V := W, V == nil().")
    return queries


_SNIPPETS = (":-", "?-", ":=", "=>", "<=", "==", "(", ")", ",", ".", "pred", "in", "out", "Z", "nil", "f(", "\n")


def _mutate(rng, source):
    """One to three edits: a character deleted, replaced or inserted, a
    token inserted, or a comment inserted between tokens or at the end."""
    chars = list(source)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        edit = rng.random()
        if edit < 0.15 and i < len(chars):
            del chars[i]
        elif edit < 0.3 and i < len(chars):
            chars[i] = rng.choice(MUTATION_CHARS)
        elif edit < 0.45:
            chars.insert(i, rng.choice(MUTATION_CHARS))
        elif edit < 0.6:
            chars.insert(i, rng.choice(_SNIPPETS))
        else:
            gaps = [k for k, char in enumerate(chars) if char in " \n"]
            if gaps and edit < 0.95:
                chars.insert(rng.choice(gaps), rng.choice((" % note\n", "%\n", "\t% (.\n")))
            else:
                chars.append(rng.choice(("% last", "\n  %", " %%")))
    return "".join(chars)


def test_parsers_match_reference_on_fixtures_corpus_wide_and_chain():
    for source in _parser_programs():
        assert _agree(_PROGRAMS, source) is None
    for source in _parser_queries():
        assert _agree(_QUERIES, source) is None


def test_parsers_match_reference_on_mutated_sources():
    rng = random.Random(0xC0FFEE)
    programs = [(FIXTURES / name).read_text() for name in fixture_names()]
    programs += [gen_program_source(rng, 3, 3, 5) for _ in range(60)]
    queries = _parser_queries()
    program_outcomes, query_outcomes = set(), set()
    for _ in range(10_000):
        program_outcomes.add(_agree(_PROGRAMS, _mutate(rng, rng.choice(programs))))
        query_outcomes.add(_agree(_QUERIES, _mutate(rng, rng.choice(queries))))
    # The mutations reach every outcome.
    assert program_outcomes == {None, LexError, ParseError, ProgramError}
    assert query_outcomes == {None, LexError, ParseError}


def test_query_sources_lex_and_parse_as_the_references_do():
    # A query of _SHORT characters or more is lexed by spacing out and
    # splitting, any other by one re.split; both must give the reference
    # tokenizer's tokens and positions, and the starts=True path's, and the
    # parse the reference parser's, or the same error at the same place.
    rng = random.Random(17)
    outcomes, messages, lengths = set(), set(), set()
    for source in query_sources():
        lexed = _lex(tokenize, source)
        assert lexed == _reference_lex(source), repr(source)
        if isinstance(lexed, list):
            tokens, listed = tokenize(source), tokenize(source, starts=True)
            assert tokens.texts == listed.texts, repr(source)
            order = list(range(len(tokens)))
            rng.shuffle(order)
            assert [tokens.position(i) for i in order] == [listed.position(i) for i in order], repr(source)
            lengths.add(len(source) >= parse._SHORT)
        else:
            messages.add(lexed[0])
        outcomes.add(_agree(_QUERIES, source))
    assert outcomes == {None, LexError, ParseError}
    assert lengths == {False, True}
    # Each odd character is rejected where it stands alone.
    odd = {char for char in ODD_QUERY_CHARS if "\udc80" <= char <= "\udcff"}
    assert {f"unexpected character {char!r}" for char in ODD_QUERY_CHARS if char not in odd} <= messages
    assert {f"invalid UTF-8 byte 0x{ord(char) - 0xDC00:02x}" for char in odd} <= messages


def test_query_constants_are_shared():
    # One term per constant name, as one Var per variable name; the query
    # is the one the reference parser builds, with a term per occurrence.
    query = parse_query("?- p(a, a, X).")
    assert query.goal[0].args[0] is query.goal[0].args[1]
    assert query == reference_parse_query("?- p(a, a, X).")
    text = "?- p(a, a, X), q(X, f(a, b), b)."
    query = parse_query(text)
    first, second = query.goal
    assert first.args[0] is first.args[1] is second.args[1].args[0]
    assert second.args[2] is second.args[1].args[1]
    assert first.args[2] is second.args[0]
    a = syntax.FunctorTerm("a")
    assert query == reference_parse_query(text)
    assert first == Call(0, 1, 4, "p", (a, syntax.FunctorTerm("a"), syntax.Var("X")))
    assert (first.line, first.col, second.line, second.col) == (1, 4, 1, 16)


def test_deep_list_query_parses_in_bounded_memory():
    # A 100 000-element list, 500 011 tokens. With a tuple and a computed
    # line and column per token, parsing it peaked at 116 MiB.
    source = "?- app(" + "cons(1," * 100_000 + "nil" + ")" * 100_000 + ", nil, Z)."
    tracemalloc.start()
    try:
        query = parse_query(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 90 * 2**20
    assert len(tokenize(source)) == 500_011
    assert query.goal[0].args[1:] == (syntax.FunctorTerm("nil"), syntax.Var("Z"))


# ---------------------------------------------------------------------------
# Queries: the program's atom classes, with nested terms
# ---------------------------------------------------------------------------


def test_parse_query_builds_syntax_atoms():
    F, V = syntax.FunctorTerm, syntax.Var
    query = parse_query(
        "?- app(cons(1,nil), N, Z),\n  s(z) => s(A), X <= f(g(Y), c),\n   nil == W, P := cons(a, Q)."
    )
    assert query.goal == (
        Call(0, 0, 0, "app", (F("cons", (F("1"), F("nil"))), V("N"), V("Z"))),
        Deconstruct(0, 0, 0, F("s", (F("z"),)), "s", (V("A"),)),
        Construct(0, 0, 0, V("X"), "f", (F("g", (V("Y"),)), F("c"))),
        syntax.Test(0, 0, 0, F("nil"), V("W")),
        Assign(0, 0, 0, V("P"), F("cons", (F("a"), V("Q")))),
    )
    assert [(a.point, a.line, a.col) for a in query.goal] == [
        (0, 1, 4), (0, 2, 3), (0, 2, 17), (0, 3, 4), (0, 3, 14)
    ]


def test_deep_queries_compare_hash_and_print():
    # Two separately parsed 5 000-deep lists share no subterm, so equality
    # walks them to the bottom; none of it may recurse on the depth.
    def query(last: str) -> str:
        return "?- p(" + "cons(1," * 4999 + f"cons({last},nil)" + ")" * 4999 + ", X)."

    one, two, other = parse_query(query("1")), parse_query(query("1")), parse_query(query("2"))
    assert one == two and one.goal[0].args[0] is not two.goal[0].args[0]
    assert one != other and not one == other
    assert hash(one) == hash(two)
    assert len({one, two, other}) == 2
    text = repr(one)
    assert text == repr(two) != repr(other)
    assert text.startswith(
        "Query(goal=(Call(point=0, line=1, col=4, pred='p', args=(FunctorTerm(functor='cons', "
        "args=(FunctorTerm(functor='1', args=()), FunctorTerm(functor='cons', args=("
    )
    assert text.endswith("FunctorTerm(functor='nil', args=())" + "))" * 5000 + ", Var(name='X'))),))")
    assert text.count("FunctorTerm(") == 10001


def test_functor_terms_holding_variables_compare_and_hash():
    F, V = syntax.FunctorTerm, syntax.Var
    t = F("f", (V("X"), F("g", (V("Y"),))))
    same = F("f", (V("X"), F("g", (V("Y"),))))
    assert t == same and hash(t) == hash(same)
    assert t != F("f", (V("Z"), F("g", (V("Y"),))))
    assert t != F("f", (V("X"), F("g", (F("Y"),))))
    assert F("X") != V("X") and V("X") != F("X")
    assert F("f", (V("X"),)) != F("f", (F("X"),))
    assert len({t, same, F("f", (V("X"), F("g", (V("Z"),))))}) == 2
    assert repr(F("f", (V("X"),))) == "FunctorTerm(functor='f', args=(Var(name='X'),))"
    assert syntax.format_ground(t) == "f(X, g(Y))"
