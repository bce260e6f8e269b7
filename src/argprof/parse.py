"""Lexer and parsers for the surface syntax.

Surface syntax, one program per UTF-8 file:

    % line comment
    :- pred app(in,in,out).
    app(X,Y,Z) :- X => nil, Z := Y.
    app(X,Y,Z) :- X => cons(E,Es), app(Es,Y,Zs), Z <= cons(E,Zs).

Operators: ``=>`` deconstruction, ``<=`` construction, ``:=`` assignment,
``==`` test. Variables start with an uppercase letter or ``_``; functor and
predicate names start with a lowercase letter; integer literals are 0-arity
functors. Zero-arity functors may be written bare (``nil``) or as ``nil()``;
they are emitted bare. A mode declaration is mandatory for every predicate
and clauses of one predicate must be contiguous.

Queries use the same lexer and build the same atom classes:
``?- app(cons(1,nil), cons(2,nil), Z).`` where input positions may hold
nested ground terms and output positions hold fresh variables.

Positions (line and column) are computed only for what carries one: atoms,
clauses, predicates and errors. Every atom and clause of a program needs
one, so a program is lexed by one ``re.split`` into gaps and tokens, whose
lengths sum to the start offsets of all its tokens in one list at once. A
query needs one per goal atom, and its terms may be long, so a query of
``_SHORT`` characters or more is lexed at C speed without offsets: its
punctuation is spaced out and its text split once with ``str.split``, and
each distinct chunk is checked once to be one token or several. A query
token's offset is computed only when asked, from the lengths of the tokens
before it plus a table of the query's runs of blanks, built on first use;
the same table places the first character of a chunk that is not all
tokens, the error's. The query parser also records which argument terms
hold a variable (``Query.nonground``), as it reads each one, so that
nothing after it need walk a ground input to learn that it is ground.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, islice
from operator import attrgetter
from typing import AbstractSet, Callable

from .syntax import (
    Assign,
    Atom,
    Call,
    CallError,
    Clause,
    Construct,
    Deconstruct,
    FunctorTerm,
    Mode,
    Predicate,
    Program,
    Term,
    Test,
    Value,
    Var,
    check_heads,
    term_names,
)


class SourceError(Exception):
    """An error tied to a position in the source text."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.line}:{self.col}: error: {self.message}"


class LexError(SourceError):
    pass


class ParseError(SourceError):
    pass


class ProgramError(SourceError):
    """Structural errors: duplicate definitions, arity conflicts, undefined calls."""


# Tokens by kind, the most frequent first: one-character punctuation, names
# and variables, two-character operators, integers. Comments are blanked
# before the split, so the gaps between tokens hold only blanks, newlines
# and characters that start no token.
_TOKEN = r"[(),.]|[A-Za-z_][A-Za-z0-9_]*|:-|:=|=>|<=|==|\?-|[0-9]+"
_SPLIT_RE = re.compile(f"({_TOKEN})")
_COMMENT_RE = re.compile(r"%[^\n]*")
# Tokens, each followed by a space: the distinct chunks of a query, joined.
_TOKENS_RE = re.compile(f"(?:(?:{_TOKEN}) )*")
# Below this many characters, one re.split lexes a query faster than
# spacing it out and splitting it.
_SHORT = 32

# The parsers tell a token's kind from its text with string comparisons. In
# ASCII '(' ')' ',' '.' sort below the digits, ':' '<' '=' '?' between the
# digits and the uppercase letters, and '_' between uppercase and lowercase,
# while the end of input is "". So a token t is
#   a name        iff t >= "a"
#   a variable    iff "A" <= t < "a"
#   an integer    iff "0" <= t < ":"


class Tokens:
    """The tokens of one source. ``texts`` ends with "" for the end of
    input. ``starts`` is the list of every token's start offset in the
    source, when ``tokenize`` built one, or else None. ``position(i)``
    places token ``i`` by its start offset: read from ``starts``, or else
    the summed lengths of the tokens before it plus the blanks and
    newlines before it. Those are looked up in a table of how many token
    characters come before each blank or newline, built on the first
    ``position``; the lengths are summed from the token last placed, so
    placing tokens in order costs time linear in the source, and in any
    other order gives the same result."""

    __slots__ = ("texts", "starts", "_text", "_line_starts", "_gaps", "_cursor")

    def __init__(self, text: str, texts: list[str], starts: list[int] | None):
        self.texts = texts
        self.starts = starts
        self._text = text  # the source with its comments blanked
        self._line_starts: list[int] | None = None
        self._gaps: list[int] | None = None
        self._cursor = 0, 0  # a token and the summed lengths of those before it

    def __len__(self) -> int:
        return len(self.texts)

    def position(self, i: int) -> tuple[int, int]:
        """Line and 1-based column of token ``i``."""
        if self._line_starts is None:
            self._line_starts = _line_starts(self._text)
        if self.starts is not None:
            return _position(self._line_starts, self.starts[i])
        if self._gaps is None:
            self._gaps = _gap_table(self._text)
        k, length = self._cursor
        if i >= k:
            length += sum(map(len, self.texts[k:i]))
        else:
            length -= sum(map(len, self.texts[i:k]))
        self._cursor = i, length
        # The blanks and newlines after ``length`` token characters or fewer
        # come before token i.
        return _position(self._line_starts, length + bisect_right(self._gaps, length))


def _line_starts(source: str) -> list[int]:
    """The offset at which each line starts (and one past the end)."""
    return list(accumulate((len(line) + 1 for line in source.split("\n")), initial=0))


def _position(line_starts: list[int], offset: int) -> tuple[int, int]:
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def _gap_table(text: str) -> list[int]:
    """For each blank or newline of ``text``, the number of characters
    before it that are neither: token characters, where the text lexes."""
    parts = text.replace("\t", " ").replace("\r", " ").replace("\n", " ").split(" ")
    return list(accumulate(map(len, parts)))[:-1]  # the last sum is before no gap


def tokenize(source: str, starts: bool = False) -> Tokens:
    """Split ``source`` into tokens, ending with the end of input. With
    ``starts``, as a program's parse asks, build the list of every token's
    start offset at once; without it, as a query's does, each is computed
    when ``position`` asks for it.

    Each comment is blanked to spaces of its length, so every offset stays
    that of the source; one that runs to the end of the input is cut, so
    that the end of input sits at its ``%``. Otherwise the end of input
    sits just past the last character.

    A query of ``_SHORT`` characters or more is split by ``str.split``: its
    punctuation spaced out and its tabs and newlines made spaces, one split
    at spaces gives its chunks, and each distinct chunk is checked once to
    be one token or, like ``X:=Y``, several. A program and a shorter query
    are split by one ``re.split`` into gaps and tokens. Either way the
    first character that starts no token raises a ``LexError``.
    """
    text = source
    if "%" in source:
        text = _COMMENT_RE.sub(lambda m: " " * len(m[0]) if m.end() < len(source) else "", source)
    offsets = None
    if not starts and len(text) >= _SHORT:
        texts = _split_query(text)
    else:
        parts = _SPLIT_RE.split(text)  # gap, token, gap, ..., token, gap
        if "".join(parts[::2]).strip(" \t\r\n"):
            raise _bad_character(text, parts)
        texts = parts[1::2]
        if starts:
            # A token starts where the gap before it ends, and the last gap
            # ends where the input does.
            offsets = list(islice(accumulate(map(len, parts)), 0, None, 2))
    texts.append("")
    return Tokens(text, texts, offsets)


def _split_query(text: str) -> list[str]:
    """The tokens of ``text``, split at its blanks, newlines and
    punctuation. Raises the ``LexError`` of the first character that
    starts no token."""
    spaced = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").replace(".", " . ")
    spaced = spaced.replace("\t", " ").replace("\r", " ").replace("\n", " ")
    chunks = list(filter(None, spaced.split(" ")))
    distinct = set(chunks)
    if _TOKENS_RE.fullmatch(" ".join(distinct) + " "):
        return chunks
    # Some chunk holds several tokens, such as X:=Y, or is not all tokens.
    split = {chunk: _SPLIT_RE.split(chunk) for chunk in distinct}  # gap, token, gap, ..., token, gap
    bad = [chunk for chunk, parts in split.items() if any(parts[::2])]
    if bad:
        # The first chunk that is not all tokens holds the first character
        # that starts no token; the chunk starts after ``length``
        # characters that are not blanks or newlines.
        k = min(map(chunks.index, bad))
        length = sum(map(len, chunks[:k]))
        raise _bad_character(text, split[chunks[k]], length + bisect_right(_gap_table(text), length))
    spaced_out = {chunk: " ".join(parts[1::2]) for chunk, parts in split.items()}
    return " ".join(map(spaced_out.__getitem__, chunks)).split()


def _bad_character(text: str, parts: list[str], offset: int = 0) -> LexError:
    """The error for the first character of a gap that is not a blank or a
    newline, where ``parts`` split ``text`` from ``offset`` on."""
    for k in range(0, len(parts), 2):
        rest = parts[k].lstrip(" \t\r\n")
        if rest:
            offset += len(parts[k]) - len(rest)
            break
        offset += len(parts[k]) + len(parts[k + 1])
    char = rest[0]
    # Input is decoded with surrogateescape, so a byte that is not UTF-8
    # arrives as a lone surrogate U+DC80..U+DCFF.
    if "\udc80" <= char <= "\udcff":
        message = f"invalid UTF-8 byte 0x{ord(char) - 0xDC00:02x}"
    else:
        message = f"unexpected character {char!r}"
    return LexError(message, *_position(_line_starts(text), offset))


class _Shared(dict):
    """One value per name within a parse, ``make(name)`` on the name's first
    use: a ``Var``, or a constant (a ``FunctorTerm`` without arguments). A
    term is never changed, so sharing it is safe."""

    def __init__(self, make: Callable[[str], Term]):
        super().__init__()
        self.make = make

    def __missing__(self, name: str) -> Term:
        term = self[name] = self.make(name)
        return term


def _expected(tokens: Tokens, what: str, i: int) -> ParseError:
    found = tokens.texts[i] or "end of input"
    return ParseError(f"expected {what}, found {found!r}", *tokens.position(i))


# ---------------------------------------------------------------------------
# Program parsing
# ---------------------------------------------------------------------------


def parse_program(source: str) -> Program:
    """Parse a program, assign program points and build the program, whose
    constructor checks every head and every call and builds the call graph.
    A predicate without clauses gets the head ``A1..An``.

    Raises LexError, ParseError or ProgramError, each carrying line/col. Of
    several bad heads or calls, the error names the first in the predicate
    mentioned first, any head before any call.
    """
    tokens = tokenize(source, starts=True)
    texts, where = tokens.texts, tokens.position
    # Atoms and clauses are placed straight from the token starts; ``where``
    # places only what a diagnostic names.
    starts, line_starts = tokens.starts, _line_starts(source)
    variables = _Shared(Var)
    functor_arity: dict[str, int] = {}
    # Predicates in order of first mention; None until declared.
    modes: dict[str, tuple[Mode, ...] | None] = {}
    declared_at: dict[str, int] = {}  # the index of the declaration's ':-'
    heads: dict[str, tuple[Var, ...]] = {}  # each predicate's, from its first clause
    clauses: dict[str, list[Clause]] = {}
    current: str | None = None  # the predicate of the last clause
    point = 0

    def var_list(i: int) -> tuple[tuple[Var, ...], int]:
        """The variables in parentheses from token ``i`` (none if it is not
        '('), and the index after them."""
        if texts[i] != "(":
            return (), i
        i += 1
        out = []
        if texts[i] != ")":
            while True:
                text = texts[i]
                if not "A" <= text < "a":
                    raise _expected(tokens, "'var'", i)
                out.append(variables[text])
                i += 1
                if texts[i] != ",":
                    break
                i += 1
        if texts[i] != ")":
            raise _expected(tokens, "')'", i)
        return tuple(out), i + 1

    def declaration(i: int) -> int:
        """``:- pred name(mode, ...).`` from the ':-' at ``i``; returns the
        index after it."""
        keyword = texts[i + 1]
        if not keyword >= "a":
            raise _expected(tokens, "'name'", i + 1)
        if keyword != "pred":
            raise ParseError(f"expected 'pred' after ':-', found {keyword!r}", *where(i + 1))
        name = texts[i + 2]
        if not name >= "a":
            raise _expected(tokens, "'name'", i + 2)
        if texts[i + 3] != "(":
            raise _expected(tokens, "'('", i + 3)
        j = i + 4
        declared: list[Mode] = []
        if texts[j] != ")":
            while True:
                mode = texts[j]
                if not mode >= "a":
                    raise _expected(tokens, "'name'", j)
                if mode != "in" and mode != "out":
                    raise ParseError(f"expected mode 'in' or 'out', found {mode!r}", *where(j))
                declared.append(mode)
                j += 1
                if texts[j] != ",":
                    break
                j += 1
        if texts[j] != ")":
            raise _expected(tokens, "')'", j)
        if texts[j + 1] != ".":
            raise _expected(tokens, "'.'", j + 1)
        if modes.get(name) is not None:
            raise ProgramError(f"duplicate predicate definition for '{name}'", *where(i + 2))
        modes[name] = tuple(declared)
        declared_at[name] = i
        return j + 2

    def atom(i: int) -> tuple[Atom, int]:
        """The body atom from token ``i``, and the index after it."""
        nonlocal point
        text = texts[i]
        if text >= "a":
            args, j = var_list(i + 1)
            point += 1
            line, col = _position(line_starts, starts[i])
            return Call(point, line, col, text, args), j
        if not "A" <= text < "a":
            raise _expected(tokens, "atom", i)
        op = texts[i + 1]
        if op == "=>" or op == "<=":
            functor = texts[i + 2]
            if not (functor >= "a" or "0" <= functor < ":"):
                raise _expected(tokens, "functor", i + 2)
            args, j = var_list(i + 3)
            seen = functor_arity.setdefault(functor, len(args))
            if seen != len(args):
                raise ProgramError(
                    f"functor '{functor}' used with arity {len(args)} but previously with arity {seen}",
                    *where(i + 2),
                )
            point += 1
            line, col = _position(line_starts, starts[i])
            cls = Deconstruct if op == "=>" else Construct
            return cls(point, line, col, variables[text], functor, args), j
        if op == ":=" or op == "==":
            right = texts[i + 2]
            if not "A" <= right < "a":
                raise _expected(tokens, "'var'", i + 2)
            point += 1
            line, col = _position(line_starts, starts[i])
            cls = Assign if op == ":=" else Test
            return cls(point, line, col, variables[text], variables[right]), i + 3
        raise ParseError(f"expected '=>', '<=', ':=' or '==', found {op!r}", *where(i + 1))

    def clause(i: int) -> int:
        """A clause from its head's name at ``i``; returns the index after it."""
        nonlocal current
        name = texts[i]
        if not name >= "a":
            raise _expected(tokens, "'name'", i)
        head, j = var_list(i + 1)
        if len(set(head)) != len(head):
            raise ProgramError("head arguments must be pairwise distinct variables", *where(i))
        body: list[Atom] = []
        if texts[j] == ":-":
            while True:
                next_atom, j = atom(j + 1)
                body.append(next_atom)
                if texts[j] != ",":
                    break
        if texts[j] != ".":
            raise _expected(tokens, "'.'", j)
        modes.setdefault(name, None)
        same = clauses.get(name)
        if same is None:
            same = clauses[name] = []
            heads[name] = head
        elif name != current:  # another predicate's clause came in between
            raise ProgramError(f"clauses of '{name}' must be contiguous", *where(i))
        elif heads[name] != head:
            raise ProgramError(f"clause head of '{name}' differs from previous clauses", *where(i))
        current = name
        line, col = _position(line_starts, starts[i])
        same.append(Clause(tuple(body), line, col))
        return j + 1

    i = 0
    while texts[i]:
        i = declaration(i) if texts[i] == ":-" else clause(i)

    # Points follow the text, so keep the predicates in the order of their
    # first clauses (a clause-less one at its declaration): the order in
    # which points run and format_program prints.
    def first_position(pred: Predicate) -> tuple[int, int]:
        first = pred.clauses[0] if pred.clauses else pred
        return first.line, first.col

    built: dict[str, Predicate] = {}
    try:
        for name, declared in modes.items():
            own = clauses.get(name, [])
            if declared is None:  # mentioned only by its clauses
                check_heads(built.values())  # a bad head mentioned before it comes first
                raise ProgramError(f"missing mode declaration for '{name}'", own[0].line, own[0].col)
            args = heads[name] if own else tuple(Var(f"A{k}") for k in range(1, len(declared) + 1))
            line, col = _position(line_starts, starts[declared_at[name]])
            built[name] = Predicate(name, declared, args, tuple(own), line, col)
        return Program({pred.name: pred for pred in sorted(built.values(), key=first_position)})
    except CallError as error:
        # Program checks the heads, then the calls, in the order it is given
        # the predicates: report the first bad one in order of first
        # mention, as the checks above do.
        try:
            Program(built)
        except CallError as first:
            error = first
        raise ProgramError(error.message, error.line, error.col) from None


# ---------------------------------------------------------------------------
# Query parsing
# ---------------------------------------------------------------------------


class Query(Value):
    """A goal: atoms of the program's classes with point 0, whose argument
    positions may hold nested terms.

    ``nonground`` holds the ids of the goal's argument terms that are
    ``FunctorTerm``s holding a variable, so that no ground input need be
    walked to learn that it is ground. ``parse_query`` records it as it
    reads the variables; a query built by hand derives it by walking its
    argument terms. It follows from the goal, so it joins neither the key
    nor the ``repr``."""

    __slots__ = ("goal", "nonground")
    __match_args__ = ("goal",)
    _key = attrgetter("goal")

    def __init__(self, goal: tuple[Atom, ...], nonground: AbstractSet[int] | None = None):
        self.goal = goal
        if nonground is None:
            terms = [t for atom in goal for t in _argument_terms(atom)]
            nonground = {id(t) for t in terms if t.__class__ is FunctorTerm and term_names(t)}
        self.nonground = nonground


def _argument_terms(atom: Atom) -> tuple[Term, ...]:
    """The terms in ``atom``'s argument positions (none if it is no atom)."""
    cls = atom.__class__
    if cls is Call:
        return atom.args
    if cls is Deconstruct or cls is Construct:
        return atom.var, *atom.args
    if cls is Assign:
        return atom.target, atom.source
    if cls is Test:
        return atom.left, atom.right
    return ()


def parse_query(source: str) -> Query:
    """Parse ``?- atom1, ..., atomN.`` with nested terms allowed."""
    tokens = tokenize(source)
    texts, where = tokens.texts, tokens.position
    variables = _Shared(Var)
    constants = _Shared(FunctorTerm)
    nonground: set[int] = set()

    def term(i: int) -> tuple[Term, int, list[int]]:
        """The term from token ``i``, the index after it, and the indexes of
        its arguments that are or hold a variable (with repeats)."""
        # The innermost open term, whose arguments are being read, is
        # ``functor`` and ``args``, None outside any; ``enclosing`` stacks
        # the open terms around it, so nesting depth costs no recursion.
        functor = args = None
        enclosing: list[tuple[str, list[Term]]] = []
        held: list[int] = []
        while True:
            text = texts[i]
            if text >= "a" or "0" <= text < ":":
                if texts[i + 1] == "(":
                    if texts[i + 2] != ")":
                        if args is not None:
                            enclosing.append((functor, args))
                        functor, args = text, []
                        i += 2
                        continue
                    i += 3
                else:
                    i += 1
                done: Term = constants[text]
            elif "A" <= text:
                done = variables[text]
                i += 1
                if args is not None:  # it is in the argument being read
                    held.append(len(enclosing[0][1] if enclosing else args))
            else:
                raise _expected(tokens, "functor", i)
            if args is None:
                return done, i, held
            args.append(done)
            text = texts[i]
            # Each ')' closes the innermost open term, an argument of the
            # one around it.
            while text == ")":
                done = FunctorTerm(functor, tuple(args))
                i += 1
                if not enclosing:
                    return done, i, held
                functor, args = enclosing.pop()
                args.append(done)
                text = texts[i]
            if text != ",":
                raise _expected(tokens, "')'", i)
            i += 1

    def record(args: tuple[Term, ...], held: list[int]) -> None:
        """Record the arguments ``held`` names that are terms holding a variable."""
        for k in held:
            if args[k].__class__ is FunctorTerm:
                nonground.add(id(args[k]))

    def atom(i: int) -> tuple[Atom, int]:
        """The goal atom from token ``i``, and the index after it."""
        start = i
        left, i, held = term(i)
        op = texts[i]
        if op != "=>" and op != "<=" and op != ":=" and op != "==":
            # No unification operator follows: the term itself is a call.
            if isinstance(left, FunctorTerm):
                record(left.args, held)
                return Call(0, *where(start), left.functor, left.args), i
            raise _expected(tokens, "atom", start)
        if held:
            nonground.add(id(left))
        right, j, right_held = term(i + 1)
        if op == "=>" or op == "<=":
            if isinstance(right, Var):
                raise _expected(tokens, "functor", i + 1)
            record(right.args, right_held)
            cls = Deconstruct if op == "=>" else Construct
            return cls(0, *where(start), left, right.functor, right.args), j
        if right_held:
            nonground.add(id(right))
        cls = Assign if op == ":=" else Test
        return cls(0, *where(start), left, right), j

    if texts[0] != "?-":
        raise _expected(tokens, "'?-'", 0)
    goal = []
    i = 1
    while True:
        next_atom, i = atom(i)
        goal.append(next_atom)
        if texts[i] != ",":
            break
        i += 1
    if texts[i] != ".":
        raise _expected(tokens, "'.'", i)
    if texts[i + 1]:
        raise _expected(tokens, "'eof'", i + 1)
    return Query(tuple(goal), nonground)
