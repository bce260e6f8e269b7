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
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, compress, islice
from operator import attrgetter
from typing import Callable

from .syntax import (
    Assign,
    Atom,
    Call,
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
    make_program,
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
# and variables, two-character operators, integers; and comments, split out
# with the tokens so that the gaps between them hold only blanks, newlines
# and characters that start no token.
_SPLIT_RE = re.compile(r"([(),.]|[A-Za-z_][A-Za-z0-9_]*|:-|:=|=>|<=|==|\?-|[0-9]+|%[^\n]*)")

# The parsers tell a token's kind from its text with string comparisons. In
# ASCII '(' ')' ',' '.' sort below the digits, ':' '<' '=' '?' between the
# digits and the uppercase letters, and '_' between uppercase and lowercase,
# while the end of input is "". So a token t is
#   a name        iff t >= "a"
#   a variable    iff "A" <= t < "a"
#   an integer    iff "0" <= t < ":"


class Tokens:
    """The tokens of one source. ``texts`` ends with "" for the end of
    input; ``starts`` holds the offset in the source at which each starts."""

    __slots__ = ("texts", "starts", "_source", "_line_starts")

    def __init__(self, source: str, texts: list[str], starts: list[int]):
        self.texts = texts
        self.starts = starts
        self._source = source
        self._line_starts: list[int] | None = None

    def __len__(self) -> int:
        return len(self.texts)

    def position(self, i: int) -> tuple[int, int]:
        """Line and 1-based column of token ``i``."""
        if self._line_starts is None:
            self._line_starts = _line_starts(self._source)
        return _position(self._line_starts, self.starts[i])


def _line_starts(source: str) -> list[int]:
    """The offset at which each line starts (and one past the end)."""
    return list(accumulate((len(line) + 1 for line in source.split("\n")), initial=0))


def _position(line_starts: list[int], offset: int) -> tuple[int, int]:
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def tokenize(source: str) -> Tokens:
    """Split ``source`` into tokens, ending with the end of input.

    The end of input sits just past the last character, or at the ``%``
    of a comment that runs to the end of the input.
    """
    parts = _SPLIT_RE.split(source)  # gap, token, gap, ..., token, gap
    if "".join(parts[::2]).strip(" \t\r\n"):
        raise _bad_character(source, parts)
    texts = parts[1::2]
    texts.append("")
    # A token starts where the gap before it ends, and the last gap ends
    # where the input does.
    starts = list(islice(accumulate(map(len, parts)), 0, None, 2))
    if "%" in source:
        if not parts[-1] and texts[-2][0] == "%":
            del texts[-2], starts[-1]  # the end of input moves to the comment
        keep = [text[:1] != "%" for text in texts]
        texts = list(compress(texts, keep))
        starts = list(compress(starts, keep))
    return Tokens(source, texts, starts)


def _bad_character(source: str, parts: list[str]) -> LexError:
    """The error for the first character of a gap that is not a blank or a
    newline."""
    offset = 0
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
    return LexError(message, *_position(_line_starts(source), offset))


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
    """Parse a program, assign program points and build the call graph.

    Raises LexError, ParseError or ProgramError, each carrying line/col.
    """
    tokens = tokenize(source)
    texts, where = tokens.texts, tokens.position
    variables = _Shared(Var)
    functor_arity: dict[str, int] = {}
    # Predicates in order of first mention; None until declared.
    modes: dict[str, tuple[Mode, ...] | None] = {}
    declared_at: dict[str, int] = {}  # the index of the declaration's ':-'
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
            return Call(point, *where(i), text, args), j
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
            cls = Deconstruct if op == "=>" else Construct
            return cls(point, *where(i), variables[text], functor, args), j
        if op == ":=" or op == "==":
            right = texts[i + 2]
            if not "A" <= right < "a":
                raise _expected(tokens, "'var'", i + 2)
            point += 1
            cls = Assign if op == ":=" else Test
            return cls(point, *where(i), variables[text], variables[right]), i + 3
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
        elif name != current:  # another predicate's clause came in between
            raise ProgramError(f"clauses of '{name}' must be contiguous", *where(i))
        elif same[0].head_args != head:
            raise ProgramError(f"clause head of '{name}' differs from previous clauses", *where(i))
        current = name
        same.append(Clause(head, tuple(body), *where(i)))
        return j + 1

    i = 0
    while texts[i]:
        i = declaration(i) if texts[i] == ":-" else clause(i)

    built: dict[str, Predicate] = {}
    for name, declared in modes.items():
        own = clauses.get(name, [])
        if declared is None:  # mentioned only by its clauses
            raise ProgramError(f"missing mode declaration for '{name}'", own[0].line, own[0].col)
        arity = len(declared)
        if own and len(own[0].head_args) != arity:  # every clause has the first one's head
            raise ProgramError(
                f"'{name}' declared with arity {arity} but clause head has {len(own[0].head_args)} arguments",
                own[0].line,
                own[0].col,
            )
        built[name] = Predicate(name, arity, declared, tuple(own), *where(declared_at[name]))

    for name, pred in built.items():
        for cl in pred.clauses:
            for atom in cl.body:
                if isinstance(atom, Call):
                    callee = built.get(atom.pred)
                    if callee is None:
                        raise ProgramError(f"call to undefined predicate '{atom.pred}'", atom.line, atom.col)
                    if callee.arity != len(atom.args):
                        raise ProgramError(
                            f"'{atom.pred}' called with {len(atom.args)} arguments but declared with arity {callee.arity}",
                            atom.line,
                            atom.col,
                        )

    # Points follow the text, so keep the predicates in the order of their
    # first clauses (a clause-less one at its declaration): the order in
    # which points run and format_program prints. The checks above report
    # in order of first mention.
    def first_position(pred: Predicate) -> tuple[int, int]:
        first = pred.clauses[0] if pred.clauses else pred
        return first.line, first.col

    return make_program({pred.name: pred for pred in sorted(built.values(), key=first_position)})


# ---------------------------------------------------------------------------
# Query parsing
# ---------------------------------------------------------------------------


class Query(Value):
    """A goal: atoms of the program's classes with point 0, whose argument
    positions may hold nested terms."""

    __slots__ = __match_args__ = ("goal",)
    _key = attrgetter("goal")

    def __init__(self, goal: tuple[Atom, ...]):
        self.goal = goal


def parse_query(source: str) -> Query:
    """Parse ``?- atom1, ..., atomN.`` with nested terms allowed."""
    tokens = tokenize(source)
    texts, where = tokens.texts, tokens.position
    variables = _Shared(Var)
    constants = _Shared(FunctorTerm)

    def term(i: int) -> tuple[Term, int]:
        """The term from token ``i``, and the index after it."""
        # An explicit stack of the terms whose arguments are being read, as
        # (functor, arguments so far), so nesting depth costs no recursion.
        open_terms: list[tuple[str, list[Term]]] = []
        while True:
            text = texts[i]
            if "A" <= text < "a":
                done: Term = variables[text]
                i += 1
            elif text >= "a" or "0" <= text < ":":
                if texts[i + 1] == "(":
                    if texts[i + 2] != ")":
                        open_terms.append((text, []))
                        i += 2
                        continue
                    i += 3
                else:
                    i += 1
                done = constants[text]
            else:
                raise _expected(tokens, "functor", i)
            # Attach the finished term to the terms it completes.
            while open_terms:
                functor, args = open_terms[-1]
                args.append(done)
                if texts[i] == ",":
                    i += 1
                    break
                if texts[i] != ")":
                    raise _expected(tokens, "')'", i)
                i += 1
                open_terms.pop()
                done = FunctorTerm(functor, tuple(args))
            else:
                return done, i

    def atom(i: int) -> tuple[Atom, int]:
        """The goal atom from token ``i``, and the index after it."""
        start = i
        left, i = term(i)
        op = texts[i]
        if op != "=>" and op != "<=" and op != ":=" and op != "==":
            # No unification operator follows: the term itself is a call.
            if isinstance(left, FunctorTerm):
                return Call(0, *where(start), left.functor, left.args), i
            raise _expected(tokens, "atom", start)
        right, j = term(i + 1)
        if op == "=>" or op == "<=":
            if isinstance(right, Var):
                raise _expected(tokens, "functor", i + 1)
            cls = Deconstruct if op == "=>" else Construct
            return cls(0, *where(start), left, right.functor, right.args), j
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
    return Query(tuple(goal))
