"""Lexer and recursive-descent parser for the surface syntax.

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
from dataclasses import dataclass
from typing import NamedTuple

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


class Token(NamedTuple):
    kind: str  # 'name' | 'var' | 'int' | punctuation | 'eof'
    text: str
    line: int
    col: int


# One match per token: whole lines of blanks and comments (group 1), the
# blanks before the token (group 2), then the token by kind (groups 3-6);
# at the end of the input, a last comment with no newline (group 7); or
# any other single character (group 8), which is an error.
_TOKEN_RE = re.compile(
    r"((?:[ \t\r]*(?:%[^\n]*)?\n)*)([ \t\r]*)"
    r"(?:(:-|\?-|:=|=>|<=|==|[(),.])|([a-z][A-Za-z0-9_]*)|([A-Z_][A-Za-z0-9_]*)|([0-9]+)"
    r"|((?:%[^\n]*)?)\Z|(.))",
    re.DOTALL,
)
_new_token = tuple.__new__  # skips the NamedTuple's Python-level __new__


def _bad_character(char: str) -> str:
    # Input is decoded with surrogateescape, so a byte that is not UTF-8
    # arrives as a lone surrogate U+DC80..U+DCFF.
    if "\udc80" <= char <= "\udcff":
        return f"invalid UTF-8 byte 0x{ord(char) - 0xDC00:02x}"
    return f"unexpected character {char!r}"


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, ending with an ``eof`` token.

    Columns are 1-based offsets from the start of the line. The ``eof``
    token sits just past the last character, or at the ``%`` of a comment
    that runs to the end of the input.
    """
    tokens: list[Token] = []
    append = tokens.append
    line, col = 1, 1
    for lines, blanks, punct, name, var, num, _, bad in _TOKEN_RE.findall(source):
        if lines:
            line += lines.count("\n")
            col = 1 + len(blanks)
        else:
            col += len(blanks)
        if punct:
            append(_new_token(Token, (punct, punct, line, col)))
            col += len(punct)
        elif name:
            append(_new_token(Token, ("name", name, line, col)))
            col += len(name)
        elif var:
            append(_new_token(Token, ("var", var, line, col)))
            col += len(var)
        elif num:
            append(_new_token(Token, ("int", num, line, col)))
            col += len(num)
        elif bad:
            raise LexError(_bad_character(bad), line, col)
        else:  # the end of the input, which every source reaches
            break
    append(_new_token(Token, ("eof", "", line, col)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    # -- shared small pieces -------------------------------------------------

    def variable(self) -> Var:
        tok = self.expect("var")
        return Var(tok.text)

    def var_list(self) -> tuple[Var, ...]:
        """Parenthesized comma-separated variables; absent parens mean arity 0."""
        # The parser's hottest loop, so it reads the tokens directly.
        tokens, pos = self.tokens, self.pos
        if tokens[pos].kind != "(":
            return ()
        out = []
        pos += 1  # at the token after '(' or after a ','
        if tokens[pos].kind != ")":
            while True:
                tok = tokens[pos]
                if tok.kind != "var":
                    self.pos = pos
                    self.expect("var")  # raises
                out.append(Var(tok.text))
                pos += 1
                if tokens[pos].kind != ",":
                    break
                pos += 1
        self.pos = pos
        self.expect(")")
        return tuple(out)

    def functor_name(self) -> Token:
        tok = self.peek()
        if tok.kind not in ("name", "int"):
            raise ParseError(f"expected functor, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.next()


# ---------------------------------------------------------------------------
# Program parsing
# ---------------------------------------------------------------------------


@dataclass
class _RawPred:
    name: str
    modes: tuple[Mode, ...] | None = None
    decl_line: int = 0
    decl_col: int = 0
    head_args: tuple[Var, ...] | None = None
    clauses: list[Clause] | None = None
    closed: bool = False  # a later predicate started; new clauses are an error


def parse_program(source: str) -> Program:
    """Parse a program, assign program points and build the call graph.

    Raises LexError, ParseError or ProgramError, each carrying line/col.
    """
    parser = _Parser(tokenize(source))
    preds: dict[str, _RawPred] = {}
    functor_arity: dict[str, tuple[int, int, int]] = {}  # name -> (arity, line, col)
    point = 0
    current: str | None = None

    def note_functor(name: str, arity: int, line: int, col: int) -> None:
        seen = functor_arity.get(name)
        if seen is None:
            functor_arity[name] = (arity, line, col)
        elif seen[0] != arity:
            raise ProgramError(
                f"functor '{name}' used with arity {arity} but previously with arity {seen[0]}",
                line,
                col,
            )

    def raw(name: str) -> _RawPred:
        if name not in preds:
            preds[name] = _RawPred(name)
        return preds[name]

    def parse_decl() -> None:
        tok = parser.expect(":-")
        kw = parser.expect("name")
        if kw.text != "pred":
            raise ParseError(f"expected 'pred' after ':-', found {kw.text!r}", kw.line, kw.col)
        name_tok = parser.expect("name")
        modes: list[Mode] = []
        parser.expect("(")
        if not parser.at(")"):
            while True:
                mtok = parser.expect("name")
                if mtok.text not in ("in", "out"):
                    raise ParseError(f"expected mode 'in' or 'out', found {mtok.text!r}", mtok.line, mtok.col)
                modes.append(mtok.text)
                if parser.at(","):
                    parser.next()
                    continue
                break
        parser.expect(")")
        parser.expect(".")
        pred = raw(name_tok.text)
        if pred.modes is not None:
            raise ProgramError(f"duplicate predicate definition for '{name_tok.text}'", name_tok.line, name_tok.col)
        pred.modes = tuple(modes)
        pred.decl_line, pred.decl_col = tok.line, tok.col

    def parse_atom() -> Atom:
        nonlocal point
        tokens, pos = parser.tokens, parser.pos
        tok = tokens[pos]
        if tok.kind == "var":
            left = Var(tok.text)
            op = tokens[pos + 1]
            parser.pos = pos + 2
            if op.kind in ("=>", "<="):
                ftok = parser.functor_name()
                args = parser.var_list()
                note_functor(ftok.text, len(args), ftok.line, ftok.col)
                point += 1
                cls = Deconstruct if op.kind == "=>" else Construct
                return cls(point, tok.line, tok.col, left, ftok.text, args)
            if op.kind == ":=":
                right = parser.variable()
                point += 1
                return Assign(point, tok.line, tok.col, left, right)
            if op.kind == "==":
                right = parser.variable()
                point += 1
                return Test(point, tok.line, tok.col, left, right)
            raise ParseError(f"expected '=>', '<=', ':=' or '==', found {op.text!r}", op.line, op.col)
        if tok.kind == "name":
            parser.pos = pos + 1
            args = parser.var_list()
            point += 1
            return Call(point, tok.line, tok.col, tok.text, args)
        raise ParseError(f"expected atom, found {tok.text or 'end of input'!r}", tok.line, tok.col)

    def parse_clause() -> None:
        nonlocal current
        name_tok = parser.expect("name")
        head_args = parser.var_list()
        if len(set(head_args)) != len(head_args):
            raise ProgramError("head arguments must be pairwise distinct variables", name_tok.line, name_tok.col)
        body: list[Atom] = []
        if parser.at(":-"):
            parser.next()
            body.append(parse_atom())
            while parser.at(","):
                parser.next()
                body.append(parse_atom())
        parser.expect(".")
        pred = raw(name_tok.text)
        if pred.closed:
            raise ProgramError(
                f"clauses of '{name_tok.text}' must be contiguous", name_tok.line, name_tok.col
            )
        if pred.head_args is None:
            pred.head_args = head_args
            pred.clauses = []
        elif pred.head_args != head_args:
            raise ProgramError(
                f"clause head of '{name_tok.text}' differs from previous clauses", name_tok.line, name_tok.col
            )
        if current is not None and current != name_tok.text:
            prev = preds.get(current)
            if prev is not None:
                prev.closed = True
        current = name_tok.text
        pred.clauses.append(Clause(head_args, tuple(body), name_tok.line, name_tok.col))

    while not parser.at("eof"):
        if parser.at(":-"):
            parse_decl()
        else:
            parse_clause()

    built: dict[str, Predicate] = {}
    for name, rp in preds.items():
        if rp.modes is None:
            line, col = (rp.clauses[0].line, rp.clauses[0].col) if rp.clauses else (0, 0)
            raise ProgramError(f"missing mode declaration for '{name}'", line, col)
        arity = len(rp.modes)
        clauses = tuple(rp.clauses or [])
        for cl in clauses:
            if len(cl.head_args) != arity:
                raise ProgramError(
                    f"'{name}' declared with arity {arity} but clause head has {len(cl.head_args)} arguments",
                    cl.line,
                    cl.col,
                )
        built[name] = Predicate(name, arity, rp.modes, clauses, rp.decl_line, rp.decl_col)

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


@dataclass(frozen=True)
class Query:
    """A goal: atoms of the program's classes with point 0, whose argument
    positions may hold nested terms."""

    goal: tuple[Atom, ...]


def parse_query(source: str) -> Query:
    """Parse ``?- atom1, ..., atomN.`` with nested terms allowed."""
    parser = _Parser(tokenize(source))
    parser.expect("?-")

    def qterm() -> Term:
        # An explicit stack of the terms whose arguments are being read, as
        # (functor, arguments so far), so nesting depth costs no recursion.
        open_terms: list[tuple[str, list[Term]]] = []
        while True:
            if parser.at("var"):
                term: Term = parser.variable()
            else:
                ftok = parser.functor_name()
                if parser.at("("):
                    parser.next()
                    if not parser.at(")"):
                        open_terms.append((ftok.text, []))
                        continue
                    parser.next()
                term = FunctorTerm(ftok.text)
            # Attach the finished term to the terms it completes.
            while open_terms:
                functor, args = open_terms[-1]
                args.append(term)
                if parser.at(","):
                    parser.next()
                    break
                parser.expect(")")
                open_terms.pop()
                term = FunctorTerm(functor, tuple(args))
            else:
                return term

    def qatom() -> Atom:
        tok = parser.peek()
        left = qterm()
        op = parser.peek()
        if op.kind not in ("=>", "<=", ":=", "=="):
            # No unification operator follows: the term itself is a call.
            if isinstance(left, FunctorTerm):
                return Call(0, tok.line, tok.col, left.functor, left.args)
            raise ParseError(f"expected atom, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        parser.next()
        rtok = parser.peek()
        right = qterm()
        if op.kind in ("=>", "<="):
            if isinstance(right, Var):
                raise ParseError(f"expected functor, found {rtok.text!r}", rtok.line, rtok.col)
            cls = Deconstruct if op.kind == "=>" else Construct
            return cls(0, tok.line, tok.col, left, right.functor, right.args)
        if op.kind == ":=":
            return Assign(0, tok.line, tok.col, left, right)
        return Test(0, tok.line, tok.col, left, right)

    goal = [qatom()]
    while parser.at(","):
        parser.next()
        goal.append(qatom())
    parser.expect(".")
    parser.expect("eof")
    return Query(tuple(goal))
