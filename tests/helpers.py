"""Shared test utilities: fixture loading, hand-rolled oracles and random
generators for programs, interaction sets and ground terms."""

from __future__ import annotations

import io
import json
import random
import re
import sys
from collections import Counter
from collections.abc import Callable, Iterator, Mapping, Sequence
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from argprof import (
    ASSIGN,
    PSI_BOT,
    AnalysisTrace,
    ArgumentProfile,
    AssignOp,
    ConstructOp,
    DeconstructOp,
    Environment,
    Equivalent,
    FunctorTerm,
    InteractionSet,
    OSet,
    Operation,
    Program,
    PsiBotOp,
    PsiOp,
    TEST,
    TestOp,
    Predicate,
    bottom,
    canon_op,
    canon_profile,
    compare,
    features,
    join_sets,
    make_interaction_set,
    oprof,
    parse_program,
    round_counts,
    run_analysis,
    strip_points,
)
from argprof.interp import DEFAULT_STEP_LIMIT, RuntimeModeError, SolveError, StepLimitExceeded
from argprof.modecheck import ValidationReport, fault_text, mode_faults
from argprof.parse import LexError, ParseError, ProgramError, Query
from argprof.syntax import (
    Assign,
    Atom,
    Call,
    Clause,
    Construct,
    Deconstruct,
    Mode,
    Term,
    Test,
    Var,
    atom_flow,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> Program:
    return parse_program((FIXTURES / name).read_text())


def fixture_names() -> list[str]:
    return sorted(p.name for p in FIXTURES.glob("*.lp"))


# Fixtures whose predicates all have pairwise-distinct argument profiles;
# these are the ones where the profile order pins a unique permutation.
TIE_FREE_FIXTURES = [
    "append.lp",
    "concat.lp",
    "double_append.lp",
    "pick.lp",
    "reverse.lp",
    "nat_add.lp",
    "last.lp",
    "mixed.lp",
]


def iset(owner: str, inputs: list[str], edges: list[tuple[str, str, list[tuple[Operation, int]]]]) -> InteractionSet:
    """Build an interaction set from (source, target, [(op, point)]) triples;
    a later operation at a point a pair already has replaces the earlier."""
    pairs: dict[tuple[str, str], dict[int, Operation]] = {}
    for source, target, sited in edges:
        pairs.setdefault((source, target), {}).update((pt, op) for op, pt in sited)
    return make_interaction_set(owner, inputs, pairs)


# ---------------------------------------------------------------------------
# Independent oracle: transitive closure by a naive from-scratch loop
# ---------------------------------------------------------------------------


def naive_closure(
    edges: dict[tuple[str, str], dict[int, Operation]]
) -> dict[tuple[str, str], dict[int, Operation]]:
    """Fixpoint of merging X->Y->Z compositions, written over plain dicts."""
    current = {pair: dict(ops) for pair, ops in edges.items()}
    while True:
        changed = False
        items = list(current.items())
        for (x, y), ops1 in items:
            for (y2, z), ops2 in items:
                if y != y2 or z == x or z == y:
                    continue
                merged = dict(ops1)
                merged.update(ops2)
                have = current.get((x, z))
                if have is None:
                    current[(x, z)] = merged
                    changed = True
                else:
                    union = dict(have)
                    union.update(merged)
                    if union != have:
                        current[(x, z)] = union
                        changed = True
        if not changed:
            return current


# ---------------------------------------------------------------------------
# Independent oracle: the analysis written as plain folds over join_sets
# and naive_closure
# ---------------------------------------------------------------------------


def reference_atom_set(atom: Atom, env: Environment, program: Program) -> InteractionSet:
    """The interactions of one atom, read off ``atom_flow``: the op of its
    kind at its point from each input into each output of another name. A
    call also yields its callee's set with formals renamed to actuals, a
    pair whose ends meet dropped, and its op is ``psi_bot`` for a call
    within its own predicate's component of the call graph, a callee that
    reaches the caller, and otherwise the psi of the callee's ordered
    profile."""
    owner = program.owner_of_point(atom.point)
    pairs: dict[tuple[str, str], dict[int, Operation]] = {}

    def join(source: str, target: str, ops: Mapping[int, Operation]) -> None:
        if source != target:
            pairs[(source, target)] = {**pairs.get((source, target), {}), **ops}

    if isinstance(atom, Deconstruct):
        op: Operation = DeconstructOp(atom.functor, len(atom.args))
    elif isinstance(atom, Construct):
        op = ConstructOp(atom.functor, len(atom.args))
    elif isinstance(atom, Assign):
        op = ASSIGN
    elif isinstance(atom, Call):
        callee = program.predicates[atom.pred]
        rename = {f.name: a.name for f, a in zip(callee.args, atom.args)}
        for (source, target), ops in env[atom.pred].pairs.items():
            join(rename[source], rename[target], ops)
        if _reaches(program.call_graph, atom.pred, owner):
            op = PSI_BOT
        else:
            op = PsiOp(oprof(strip_points(env[atom.pred], callee.arg_names)).profiles)
    else:
        op = TEST  # a test has no outputs
    ins, outs = atom_flow(atom, program.predicates)
    for x in ins:
        for y in outs:
            join(x.name, y.name, {atom.point: op})
    return make_interaction_set(owner, program.predicates[owner].input_arg_names(), pairs)


def _reaches(graph: Mapping[str, frozenset[str]], source: str, target: str) -> bool:
    """Whether a walk along ``graph`` leads from ``source`` to ``target``."""
    seen, work = {source}, [source]
    while work:
        p = work.pop()
        if p == target:
            return True
        for q in graph[p] - seen:
            seen.add(q)
            work.append(q)
    return False


def reference_analyze_predicate(pred: Predicate, env: dict, program: Program) -> InteractionSet:
    """One round of clause analysis: fold every atom's ``reference_atom_set``
    with the public ``join_sets``, close with ``naive_closure``, keep
    formal-to-formal flow, and join the clause results."""
    inputs = pred.input_arg_names()
    formals = set(pred.arg_names)
    acc = bottom(pred.name, inputs)
    for clause in pred.clauses:
        clause_set = bottom(pred.name, inputs)
        for atom in clause.body:
            clause_set = join_sets(reference_atom_set(atom, env, program), clause_set)
        closed = naive_closure(clause_set.pairs)
        projected = {pair: ops for pair, ops in closed.items() if set(pair) <= formals}
        acc = join_sets(make_interaction_set(pred.name, inputs, projected), acc)
    return acc


def reference_components(graph: dict[str, frozenset[str]]) -> list[set[str]]:
    """The components of Tarjan's algorithm in the order the driver takes
    them: the first by least member of those whose members' callees are all
    in it or in a component taken before."""
    remaining, taken, order = reference_strongly_connected(graph), set(), []
    while remaining:
        scc = min((c for c in remaining if all(q in c or q in taken for p in c for q in graph[p])), key=min)
        remaining.remove(scc)
        taken |= scc
        order.append(scc)
    return order


def reference_run_analysis(
    program: Program,
) -> tuple[dict[str, InteractionSet], list[tuple[int, str, InteractionSet, bool]]]:
    """The bottom-up driver over ``reference_analyze_predicate``: the
    components in ``reference_components`` order, each iterated until none
    of its members changes, every member analyzed from scratch in each
    round, all from the environment the round before left. Returns the
    environment and the trace, one (round, predicate, set, changed) per
    member and round, members by name."""
    env = {name: bottom(name, p.input_arg_names()) for name, p in program.predicates.items()}
    trace = []
    for scc in reference_components(program.call_graph):
        members = sorted(scc)
        changed = True
        while changed:
            new = {name: reference_analyze_predicate(program.predicates[name], env, program) for name in members}
            changed = False
            for name in members:
                trace.append((len(trace) + 1, name, new[name], new[name] != env[name]))
                changed |= new[name] != env[name]
            env.update(new)
    return env, trace


def reference_programs(group: str) -> list[Program]:
    """The programs of one named group that the oracles are run on."""
    if group == "fixtures":
        return [load_fixture(name) for name in fixture_names()]
    if group in ("corpus", "reversed-corpus"):  # the test-07 corpus
        rng = random.Random(0xBEEF)
        programs = [parse_program(gen_program_source(rng)) for _ in range(200)]
        return programs if group == "corpus" else [reversed_bodies(p) for p in programs]
    if group == "mutual":  # calls to any predicate
        rng = random.Random(0xBEEF)
        return [parse_program(gen_mutual_source(rng)) for _ in range(200)]
    if group == "chain":
        return [parse_program(chain_source(k)) for k in range(1, 7)]
    if group == "rotating":
        # The reference closes the chain over all its variables, n^2 / 2
        # pairs each round: k = 16 takes over a second at n = 20 and does
        # not finish in 100 s at n = 200.
        return [parse_program(rotating_recursion_source(k, 20)) for k in (4, 8, 16)]
    if group == "recursive":
        rng = random.Random(27)
        return [parse_program(gen_recursive_source(rng)) for _ in range(150)]
    if group == "wide":
        return [parse_program(wide_source(random.Random(seed), 11 + seed, 200)) for seed in range(2)]
    raise ValueError(group)


# ---------------------------------------------------------------------------
# Independent oracle: the mode check that walks every atom
# ---------------------------------------------------------------------------


def reference_validate_modes(program: Program) -> ValidationReport:
    """``validate_modes`` as it was before its per-class fast path: every
    atom goes through ``atom_flow`` and ``mode_faults``."""
    report = ValidationReport()
    for pred in program.predicates.values():
        head_ins, head_outs = pred.split(pred.args)
        for clause in pred.clauses:
            bound = {v.name for v in head_ins}
            for atom in clause.body:
                ins, outs = atom_flow(atom, program.predicates)
                for term, kind in mode_faults(atom, ins, outs, bound, program.predicates):
                    report.add(atom.line, atom.col, fault_text(term, kind, f"point {atom.point}"))
                # Bind inputs too, to suppress cascading reports.
                bound.update([v.name for v in ins + outs])
            for v in head_outs:
                if v.name not in bound:
                    report.add(
                        clause.line,
                        clause.col,
                        f"output argument {v.name} of {pred.name}/{pred.arity} not bound at clause end",
                    )
    return report


# ---------------------------------------------------------------------------
# Independent oracle: Tarjan's strongly connected components
# ---------------------------------------------------------------------------
#
# The cycle check argprof had before its Kosaraju passes, kept verbatim
# apart from its name: both must give the same components in the same order.


def reference_strongly_connected(graph: dict[str, frozenset[str]]) -> list[set[str]]:
    """Tarjan's algorithm, iterative to be safe on deep graphs."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[set[str]] = []
    counter = 0

    for root in graph:
        if root in index:
            continue
        work: list[tuple[str, list[str], int]] = [(root, sorted(graph.get(root, ())), 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, succs, i = work.pop()
            advanced = False
            while i < len(succs):
                succ = succs[i]
                i += 1
                if succ not in index:
                    work.append((node, succs, i))
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, sorted(graph.get(succ, ())), 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            if low[node] == index[node]:
                scc: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.add(member)
                    if member == node:
                        break
                sccs.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


# ---------------------------------------------------------------------------
# Independent oracle: the character-by-character tokenizer
# ---------------------------------------------------------------------------
#
# The tokenizer argprof had before its one-regex scanner, kept verbatim
# apart from its token class: every token and every LexError must agree,
# except the end-of-input column after a final '(', ')', ',' or '.', which
# this version advances by two.


@dataclass(frozen=True)
class ReferenceToken:
    kind: str
    text: str
    line: int
    col: int


_PUNCT = (":-", "?-", ":=", "=>", "<=", "==", "(", ")", ",", ".")
_NAME_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
_VAR_RE = re.compile(r"[A-Z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")


def reference_tokenize(source: str) -> list[ReferenceToken]:
    Token = ReferenceToken
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and source[i] != "\n":
                i += 1
            continue
        two = source[i : i + 2]
        if two in _PUNCT:
            tokens.append(Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in "(),.":
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        m = _NAME_RE.match(source, i)
        if m:
            tokens.append(Token("name", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _VAR_RE.match(source, i)
        if m:
            tokens.append(Token("var", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _INT_RE.match(source, i)
        if m:
            tokens.append(Token("int", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        if 0xDC80 <= ord(ch) <= 0xDCFF:  # a non-UTF-8 byte, decoded with surrogateescape
            raise LexError(f"invalid UTF-8 byte 0x{ord(ch) - 0xDC00:02x}", line, col)
        raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Independent oracle: the parser over per-token objects
# ---------------------------------------------------------------------------
#
# The lexer and parsers argprof had before it lexed with one re.split, kept
# verbatim apart from their names: one regular-expression match and one
# token tuple per token, each carrying its line and column. The parsers must
# agree with them on every Program, Query and position, and on every error.


class _RegexToken(NamedTuple):
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


def _regex_tokenize(source: str) -> list[_RegexToken]:
    """Split ``source`` into tokens, ending with an ``eof`` token.

    Columns are 1-based offsets from the start of the line. The ``eof``
    token sits just past the last character, or at the ``%`` of a comment
    that runs to the end of the input.
    """
    tokens: list[_RegexToken] = []
    append = tokens.append
    line, col = 1, 1
    for lines, blanks, punct, name, var, num, _, bad in _TOKEN_RE.findall(source):
        if lines:
            line += lines.count("\n")
            col = 1 + len(blanks)
        else:
            col += len(blanks)
        if punct:
            append(_new_token(_RegexToken, (punct, punct, line, col)))
            col += len(punct)
        elif name:
            append(_new_token(_RegexToken, ("name", name, line, col)))
            col += len(name)
        elif var:
            append(_new_token(_RegexToken, ("var", var, line, col)))
            col += len(var)
        elif num:
            append(_new_token(_RegexToken, ("int", num, line, col)))
            col += len(num)
        elif bad:
            raise LexError(_bad_character(bad), line, col)
        else:  # the end of the input, which every source reaches
            break
    append(_new_token(_RegexToken, ("eof", "", line, col)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_RegexToken]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _RegexToken:
        return self.tokens[self.pos]

    def next(self) -> _RegexToken:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _RegexToken:
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

    def functor_name(self) -> _RegexToken:
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


def reference_parse_program(source: str) -> Program:
    """Parse a program, assign program points and build the call graph.

    Raises LexError, ParseError or ProgramError, each carrying line/col.
    """
    parser = _Parser(_regex_tokenize(source))
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
        pred.clauses.append(Clause(tuple(body), name_tok.line, name_tok.col))

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
        if rp.head_args is not None and len(rp.head_args) != arity:
            raise ProgramError(
                f"'{name}' declared with arity {arity} but clause head has {len(rp.head_args)} arguments",
                clauses[0].line,
                clauses[0].col,
            )
        args = rp.head_args if rp.head_args is not None else tuple(Var(f"A{i}") for i in range(1, arity + 1))
        built[name] = Predicate(name, rp.modes, args, clauses, rp.decl_line, rp.decl_col)

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

    return Program({pred.name: pred for pred in sorted(built.values(), key=first_position)})


def reference_parse_query(source: str) -> Query:
    """Parse ``?- atom1, ..., atomN.`` with nested terms allowed."""
    parser = _Parser(_regex_tokenize(source))
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


# ---------------------------------------------------------------------------
# Independent oracle: canonical strings by uncached recursion
# ---------------------------------------------------------------------------


def reference_canon_op(op: Operation) -> str:
    """The canonical string, written from the grammar in the
    ``argprof.domain`` docstring. It walks every psi payload anew and keeps
    nothing, so it is exponential in call depth."""
    match op:
        case AssignOp():
            return "assign"
        case TestOp():
            return "test"
        case ConstructOp(functor, arity):
            return f"construct:{functor}/{arity}"
        case DeconstructOp(functor, arity):
            return f"deconstruct:{functor}/{arity}"
        case PsiBotOp():
            return "psi_bot"
        case PsiOp(profiles):
            return "psi:[" + "|".join(reference_canon_profile(p) for p in profiles) + "]"
    raise TypeError(f"not an operation: {op!r}")


def reference_canon_profile(profile: ArgumentProfile) -> str:
    osets = (
        "(" + ",".join(reference_canon_op(o) for o in oset.ops) + ")->" + str(oset.target)
        for oset in profile.osets
    )
    return "{" + ";".join(osets) + "}"


def reference_sort_key(profile: ArgumentProfile) -> tuple[tuple[int, ...], str]:
    """Ascending order of this key is the profile order.

    The key argprof sorted profiles by before its structural comparison,
    kept verbatim: it builds the profile's whole canonical string."""
    return tuple(-f for f in features(profile)), canon_profile(profile)


def reference_features(profile: ArgumentProfile) -> tuple[int, int, int, int, int, int]:
    """``features`` as argprof counted it before it read each op's kind
    from a dict keyed by class, kept verbatim: a chain of ``isinstance``
    tests per op."""
    n_ops = n_psi = n_con = n_dec = n_asn = 0
    for oset in profile.osets:
        for op in oset.ops:
            n_ops += 1
            if isinstance(op, (PsiBotOp, PsiOp)):
                n_psi += 1
            elif isinstance(op, ConstructOp):
                n_con += 1
            elif isinstance(op, DeconstructOp):
                n_dec += 1
            elif isinstance(op, AssignOp):
                n_asn += 1
    return (len(profile.osets), n_ops, n_psi, n_con, n_dec, n_asn)


def compare_parts(program: Program, env: Environment, p: str, q: str) -> list[str]:
    """The standard output of ``argprof compare`` for ``p`` and ``q`` in
    parts, with the verdict ``normalize.compare`` gives on the analyzed
    ``env``. A distinct reason keeps every op's text a part of its own, as
    it can be exponential in call depth."""
    verdict = compare(program.predicates[p], program.predicates[q], env)
    if isinstance(verdict, Equivalent):
        lines = [f"equivalent: {p} <-> {q}\n"]
        return lines + [f"  {i} <-> {verdict.mapping[i]}\n" for i in sorted(verdict.mapping)]
    return [f"distinct: {p} vs {q}: ", *verdict.reason_parts(), "\n"]


# ---------------------------------------------------------------------------
# Independent oracle: the analyze report through a dict and json.dumps
# ---------------------------------------------------------------------------
#
# The report builder argprof had before its streaming writer, kept verbatim:
# it copies every op into a dict and prints it with json.dumps or print.


def _profile_json(program: Program, env: Environment) -> dict:
    def args_json(profiles: Sequence[ArgumentProfile]) -> list[dict]:
        return [
            {
                "arg": idx + 1,
                "osets": [
                    {"ops": [canon_op(op) for op in oset.ops], "target": oset.target}
                    for oset in arg_profile.osets
                ],
            }
            for idx, arg_profile in enumerate(profiles)
        ]

    predicates = []
    for name, pred in program.predicates.items():
        profile = strip_points(env[name], pred.arg_names)
        ordered = oprof(profile)
        predicates.append(
            {
                "name": name,
                "arity": pred.arity,
                "modes": list(pred.modes),
                "profile": args_json(profile),
                "ordered": args_json(ordered.profiles),
                "permutation": list(ordered.permutation),
            }
        )
    return {"predicates": predicates}


def _attach_rounds(report: dict, trace: AnalysisTrace) -> None:
    counts = round_counts(trace)
    for entry in report["predicates"]:
        changing, total = counts.get(entry["name"], (0, 0))
        entry["rounds"] = {"changing": changing, "total": total}


def _print_text_report(report: dict) -> None:
    for entry in report["predicates"]:
        rounds = entry["rounds"]
        print(
            f"pred {entry['name']}/{entry['arity']} modes=({','.join(entry['modes'])}) "
            f"rounds={rounds['changing']}+{rounds['total'] - rounds['changing']}"
        )
        for part, key in (("profile", "profile"), ("ordered", "ordered")):
            print(f"  {part}:")
            for arg in entry[key]:
                if arg["osets"]:
                    rendered = "; ".join(
                        "{" + ", ".join(o["ops"]) + "} -> " + str(o["target"]) for o in arg["osets"]
                    )
                else:
                    rendered = "(empty)"
                print(f"    arg {arg['arg']}: {rendered}")
        perm = ",".join(str(i) for i in entry["permutation"])
        print(f"  permutation: ({perm})")


def reference_report(program: Program, as_json: bool) -> str:
    """What ``argprof analyze [--json]`` printed for ``program`` before the
    report was streamed."""
    env, trace = run_analysis(program)
    report = _profile_json(program, env)
    _attach_rounds(report, trace)
    if as_json:
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    out = io.StringIO()
    with redirect_stdout(out):
        _print_text_report(report)
    return out.getvalue()


# ---------------------------------------------------------------------------
# Random well-defined interaction sets over a fixed predicate context
# ---------------------------------------------------------------------------

_BASE_OPS: list[Operation] = [
    ASSIGN,
    PSI_BOT,
    ConstructOp("cons", 2),
    ConstructOp("nil", 0),
    DeconstructOp("cons", 2),
    DeconstructOp("s", 1),
    PsiOp((ArgumentProfile((OSet((ASSIGN,), 2),)), ArgumentProfile(()))),
]


class SetContext:
    """A fixed predicate shape: variables, input formals, and one operation
    per program point, so joins of generated sets never disagree on a point."""

    def __init__(self, rng: random.Random):
        n_args = rng.randint(2, 4)
        names = [f"A{i}" for i in range(1, n_args + 1)]
        n_inputs = rng.randint(1, n_args - 1)
        self.owner = "p"
        self.inputs = names[:n_inputs]
        self.locals = [f"L{i}" for i in range(1, rng.randint(2, 4))]
        self.variables = names + self.locals
        self.op_at = {pt: rng.choice(_BASE_OPS) for pt in range(1, rng.randint(4, 10))}
        self.pairs = [
            (s, t)
            for s in self.variables
            for t in self.variables
            if s != t and t not in self.inputs
        ]

    def random_set(self, rng: random.Random) -> InteractionSet:
        pairs = {}
        for pair in self.pairs:
            if rng.random() < 0.35:
                points = rng.sample(sorted(self.op_at), rng.randint(1, min(3, len(self.op_at))))
                pairs[pair] = {pt: self.op_at[pt] for pt in points}
        return make_interaction_set(self.owner, self.inputs, pairs)


def random_chained_set(rng: random.Random) -> InteractionSet:
    """A sparse set over 8-14 variables: one or two long paths through the
    locals, some edges of which are reversed into two-cycles, a path end
    that may loop back to its start, and a few shortcuts. Points are drawn
    from a wide range, so most edges carry points of their own; one
    operation per program point, as in the analysis."""
    n_vars = rng.randint(8, 14)
    n_args = rng.randint(2, 5)
    names = [f"A{i}" for i in range(1, n_args + 1)] + [f"L{i}" for i in range(1, n_vars - n_args + 1)]
    inputs = names[: rng.randint(1, n_args - 1)]
    targets = [v for v in names if v not in inputs]
    op_at = {pt: rng.choice(_BASE_OPS) for pt in range(1, 60)}
    edges = []

    def edge(x: str, y: str) -> None:
        if x != y:
            points = rng.sample(sorted(op_at), rng.randint(1, 2))
            edges.append((x, y, [(op_at[pt], pt) for pt in points]))

    for _ in range(rng.randint(1, 2)):
        path = [rng.choice(names)] + rng.sample(targets, rng.randint(3, len(targets)))
        for x, y in zip(path, path[1:]):
            edge(x, y)
            if y not in inputs and x in targets and rng.random() < 0.4:
                edge(y, x)
        if path[0] in targets and rng.random() < 0.5:
            edge(path[-1], path[0])
    for _ in range(rng.randint(0, 3)):
        edge(rng.choice(names), rng.choice(targets))
    return iset("p", inputs, edges)


def random_cyclic_set(rng: random.Random) -> InteractionSet:
    """A set over 2-10 variables, 2-4 of them arguments with at least two
    outputs, whose pairs are drawn at random at a density drawn per set, no
    pair into an input: many sets have a flow cycle through two output
    arguments. One operation per program point, as in the analysis."""
    n_vars = rng.randint(2, 10)
    n_args = rng.randint(2, min(4, n_vars))
    names = [f"A{i}" for i in range(1, n_args + 1)] + [f"L{i}" for i in range(1, n_vars - n_args + 1)]
    inputs = names[: rng.randint(0, n_args - 2)]
    density = rng.uniform(0.1, 0.6)
    op_at = {pt: rng.choice(_BASE_OPS) for pt in range(1, 30)}
    pairs = {
        (x, y): {pt: op_at[pt] for pt in rng.sample(sorted(op_at), rng.randint(1, 2))}
        for x in names
        for y in names
        if x != y and y not in inputs and rng.random() < density
    }
    return make_interaction_set("p", inputs, pairs)


# ---------------------------------------------------------------------------
# Random valid program generation (mode-correct and directly recursive
# by construction)
# ---------------------------------------------------------------------------

_FUNCTORS = [("nil", 0), ("cons", 2), ("z", 0), ("s", 1), ("pair", 2)]


def gen_program_source(rng: random.Random, max_preds: int = 6, max_args: int = 5, max_atoms: int = 12) -> str:
    """Emit the source of a random valid program.

    Bodies are built left to right against a bound-variable set, so mode
    checking succeeds; calls target earlier predicates or the predicate
    itself, so recursion is always direct.
    """
    return _gen_source(rng, max_preds, max_args, max_atoms, mutual=False)


def gen_mutual_source(rng: random.Random, max_preds: int = 6, max_args: int = 5, max_atoms: int = 12) -> str:
    """Emit the source of a random valid program as ``gen_program_source``
    does, but with every predicate's modes drawn first and each call free
    to target any predicate, so call-graph cycles may pass through several
    predicates."""
    return _gen_source(rng, max_preds, max_args, max_atoms, mutual=True)


def _gen_source(rng: random.Random, max_preds: int, max_args: int, max_atoms: int, mutual: bool) -> str:
    lines: list[str] = []
    n_preds = rng.randint(1, max_preds)

    def signature(k: int) -> tuple[str, tuple[str, ...]]:
        arity = rng.randint(1, max_args)
        return f"p{k}", tuple(rng.choice(("in", "out")) for _ in range(arity))

    # (name, modes) of every predicate a call may target besides its own.
    signatures = [signature(k) for k in range(n_preds)] if mutual else []
    for k in range(n_preds):
        name, modes = signatures[k] if mutual else signature(k)
        arity = len(modes)
        head = [f"A{i}" for i in range(1, arity + 1)]
        lines.append(f":- pred {name}({','.join(modes)}).")
        for _ in range(rng.randint(1, 3)):
            bound = [v for v, m in zip(head, modes) if m == "in"]
            atoms: list[str] = []
            fresh = 0

            def new_var() -> str:
                nonlocal fresh
                fresh += 1
                return f"L{fresh}"

            budget = rng.randint(0, max_atoms - arity - 1)
            for _ in range(budget):
                choice = rng.choice(["decon", "con", "assign", "test", "call", "call"])
                if choice == "decon" and bound:
                    f, n = rng.choice(_FUNCTORS)
                    outs = [new_var() for _ in range(n)]
                    args = f"({','.join(outs)})" if outs else ""
                    atoms.append(f"{rng.choice(bound)} => {f}{args}")
                    bound.extend(outs)
                elif choice == "con" and bound:
                    f, n = rng.choice(_FUNCTORS)
                    ins = [rng.choice(bound) for _ in range(n)]
                    target = new_var()
                    args = f"({','.join(ins)})" if ins else ""
                    atoms.append(f"{target} <= {f}{args}")
                    bound.append(target)
                elif choice == "con" and not bound:
                    target = new_var()
                    atoms.append(f"{target} <= nil")
                    bound.append(target)
                elif choice == "assign" and bound:
                    target = new_var()
                    atoms.append(f"{target} := {rng.choice(bound)}")
                    bound.append(target)
                elif choice == "test" and bound:
                    atoms.append(f"{rng.choice(bound)} == {rng.choice(bound)}")
                elif choice == "call":
                    candidates = list(signatures)
                    if not mutual and rng.random() < 0.5:
                        candidates.append((name, modes))
                    rng.shuffle(candidates)
                    for callee, callee_modes in candidates:
                        if any(m == "in" for m in callee_modes) and not bound:
                            continue
                        avail = list(bound)  # outputs of this call are not usable as its inputs
                        call_args = []
                        for m in callee_modes:
                            if m == "in":
                                call_args.append(rng.choice(avail))
                            else:
                                out = new_var()
                                call_args.append(out)
                                bound.append(out)
                        arglist = f"({','.join(call_args)})" if call_args else ""
                        atoms.append(f"{callee}{arglist}")
                        break
            for v, m in zip(head, modes):
                if m == "out":
                    if bound:
                        atoms.append(f"{v} := {rng.choice(bound)}")
                    else:
                        atoms.append(f"{v} <= nil")
            if atoms:
                lines.append(f"{name}({','.join(head)}) :- {', '.join(atoms)}.")
            else:
                lines.append(f"{name}({','.join(head)}).")
        if not mutual:
            signatures.append((name, modes))
    return "\n".join(lines) + "\n"


def chain_source(k: int) -> str:
    """``p_i(X,Y,Z) :- p_{i-1}(X,Y,T), p_{i-1}(T,Y,Z)`` for i = 1..k over
    ``p0`` = append: each level nests one more psi payload, so the expanded
    canonical strings grow about 25-fold per level."""
    lines = [
        ":- pred p0(in,in,out).",
        "p0(X,Y,Z) :- X => nil, Z := Y.",
        "p0(X,Y,Z) :- X => cons(E,Es), p0(Es,Y,Zs), Z <= cons(E,Zs).",
    ]
    for i in range(1, k + 1):
        lines.append(f":- pred p{i}(in,in,out).")
        lines.append(f"p{i}(X,Y,Z) :- p{i - 1}(X,Y,T), p{i - 1}(T,Y,Z).")
    return "\n".join(lines) + "\n"


def one_call_chain_source(depth: int) -> str:
    """``p0(X,Y) :- Y := X.`` and ``pI(X,Y) :- p(I-1)(X,Y).``: each level's
    one op is its callee's whole profile, so the longest op doubles per
    level."""
    lines = [":- pred p0(in,out).", "p0(X,Y) :- Y := X."]
    for i in range(1, depth + 1):
        lines += [f":- pred p{i}(in,out).", f"p{i}(X,Y) :- p{i - 1}(X,Y)."]
    return "\n".join(lines) + "\n"


def recursion_ring_source(n: int) -> str:
    """``pI(X) :- p(I+1)(X).`` for I = 0..n-1, with ``p(n-1)`` calling
    ``p0``: one cycle through all n predicates, ``p0`` declared on line 1."""
    lines = []
    for i in range(n):
        lines += [f":- pred p{i}(in).", f"p{i}(X) :- p{(i + 1) % n}(X)."]
    return "\n".join(lines) + "\n"


def output_ring_source(n: int) -> str:
    """``pI(X,Y) :- X => s(X1), p(I+1)(X1,Y1), Y <= s(Y1).`` for I =
    0..n-1, with ``p(n-1)`` calling ``p0``, and a base clause ``p0(X,Y) :-
    X => z, Y := X.``: one cycle through all n predicates, along which each
    one's pair gathers the points of all of them."""
    lines = [":- pred p0(in,out).", "p0(X,Y) :- X => z, Y := X."]
    for i in range(n):
        if i:
            lines.append(f":- pred p{i}(in,out).")
        lines.append(f"p{i}(X,Y) :- X => s(X1), p{(i + 1) % n}(X1,Y1), Y <= s(Y1).")
    return "\n".join(lines) + "\n"


def long_clause_source(n: int) -> str:
    """``p(X,Y) :- L1 := X, L2 := L1, ..., Ln := L(n-1), Y := Ln.``: one
    clause chaining n assignments through locals, then one into Y, so its
    one argument pair ``X ~> Y`` carries all n + 1 points."""
    atoms = ["L1 := X"] + [f"L{i} := L{i - 1}" for i in range(2, n + 1)] + [f"Y := L{n}"]
    return ":- pred p(in,out).\np(X,Y) :- " + ", ".join(atoms) + ".\n"


def map_bodies(program: Program, f: Callable[[tuple[Atom, ...]], tuple[Atom, ...]]) -> Program:
    """``program`` with every clause body replaced by ``f`` of it."""
    predicates = {}
    for name, pred in program.predicates.items():
        clauses = tuple(Clause(f(c.body), c.line, c.col) for c in pred.clauses)
        predicates[name] = Predicate(name, pred.modes, pred.args, clauses, pred.line, pred.col)
    return Program(predicates)


def reversed_bodies(program: Program) -> Program:
    """``program`` with every clause body in reverse, so that names are
    consumed before they are produced."""
    return map_bodies(program, lambda body: body[::-1])


def dropped_last_atoms(program: Program) -> Program:
    """``program`` with the last atom of every clause body dropped, so that
    some clauses end with a head output unbound."""
    return map_bodies(program, lambda body: body[:-1])


def repeated_call_outputs(program: Program) -> Program:
    """``program`` with each call of two output positions or more given its
    first output variable in its second output position too."""
    def repeat(atom: Atom) -> Atom:
        if atom.__class__ is not Call:
            return atom
        outs = [k for k, m in enumerate(program.predicates[atom.pred].modes) if m == "out"]
        if len(outs) < 2:
            return atom
        args = list(atom.args)
        args[outs[1]] = args[outs[0]]
        return Call(atom.point, atom.line, atom.col, atom.pred, tuple(args))

    return map_bodies(program, lambda body: tuple(map(repeat, body)))


def repeated_deconstruct_outputs(program: Program) -> Program:
    """``program`` with each clause whose first atom deconstructs into two
    arguments or more given that atom's first output variable in its
    second output position too."""
    def repeat(body: tuple[Atom, ...]) -> tuple[Atom, ...]:
        first = body[0] if body else None
        if first.__class__ is not Deconstruct or len(first.args) < 2:
            return body
        args = (first.args[0], first.args[0], *first.args[2:])
        return (Deconstruct(first.point, first.line, first.col, first.var, first.functor, args), *body[1:])

    return map_bodies(program, repeat)


def cyclic_long_clause_source(n: int) -> str:
    """``p(A,B,C) :- L1 := A, ..., Ln := L(n-1), q(Ln,B,C).``: the chain of
    ``long_clause_source`` ending in a call to ``q``, one of whose clauses
    flows Y into Z and the other Z into Y, so p's output arguments B and C
    lie on a flow cycle."""
    atoms = ["L1 := A"] + [f"L{i} := L{i - 1}" for i in range(2, n + 1)] + [f"q(L{n},B,C)"]
    return (
        ":- pred q(in,out,out).\nq(X,Y,Z) :- Y := X, Z := Y.\nq(X,Y,Z) :- Z := X, Y := Z.\n"
        ":- pred p(in,out,out).\np(A,B,C) :- " + ", ".join(atoms) + ".\n"
    )


def rotating_recursion_source(k: int, n: int) -> str:
    """``r(I1..Ik, O1..Ok)``: a base clause ``Oi := Ii`` and a clause that
    chains n assignments from I1, calls itself on its inputs rotated by one
    with fresh outputs R1..Rk, then builds ``O1 <= pair(R1, Ln)`` and sets
    ``Oi := Ri`` for the others. Each round reaches one rotation further,
    so the fixpoint takes k + 1 rounds."""
    ins = [f"I{i}" for i in range(1, k + 1)]
    outs = [f"O{i}" for i in range(1, k + 1)]
    rs = [f"R{i}" for i in range(1, k + 1)]
    head = f"r({','.join(ins + outs)})"
    chain = ["L1 := I1"] + [f"L{i} := L{i - 1}" for i in range(2, n + 1)]
    body = chain + [
        f"r({','.join(ins[1:] + ins[:1] + rs)})",
        f"O1 <= pair(R1,L{n})",
    ] + [f"{o} := {r}" for o, r in zip(outs[1:], rs[1:])]
    return "\n".join([
        f":- pred r({','.join(['in'] * k + ['out'] * k)}).",
        f"{head} :- " + ", ".join(f"{o} := {i}" for o, i in zip(outs, ins)) + ".",
        f"{head} :- " + ", ".join(body) + ".",
    ]) + "\n"


def gen_recursive_source(rng: random.Random, max_atoms: int = 8) -> str:
    """One directly recursive predicate ``r`` of up to three inputs and
    three outputs, with a base clause and one or two clauses of random
    atoms and self-calls that may flow outputs into outputs and alias
    their actuals, so later rounds both grow a clause's pairs and add new
    ones. No atom produces an input."""
    ins = [f"I{i}" for i in range(1, rng.randint(1, 3) + 1)]
    outs = [f"O{i}" for i in range(1, rng.randint(1, 3) + 1)]
    head = f"r({','.join(ins + outs)})"
    lines = [f":- pred r({','.join(['in'] * len(ins) + ['out'] * len(outs))}).",
             f"{head} :- " + ", ".join(f"{o} := {rng.choice(ins)}" for o in outs) + "."]
    for _ in range(rng.randint(1, 2)):
        produced = outs + ["L1", "L2", "L3"]
        every = ins + produced
        atoms = []
        for _ in range(rng.randint(1, max_atoms)):
            kind = rng.choice(("assign", "con", "decon", "test", "call", "call"))
            if kind == "assign":
                atoms.append(f"{rng.choice(produced)} := {rng.choice(every)}")
            elif kind == "con":
                atoms.append(f"{rng.choice(produced)} <= pair({rng.choice(every)},{rng.choice(every)})")
            elif kind == "decon":
                atoms.append(f"{rng.choice(every)} => s({rng.choice(produced)})")
            elif kind == "test":
                atoms.append(f"{rng.choice(every)} == {rng.choice(every)}")
            else:
                actuals = [rng.choice(every) for _ in ins] + [rng.choice(produced) for _ in outs]
                atoms.append(f"r({','.join(actuals)})")
        lines.append(f"{head} :- {', '.join(atoms)}.")
    return "\n".join(lines) + "\n"


def wide_source(rng: random.Random, arity: int, n_atoms: int) -> str:
    """One recursive predicate ``w`` whose long clause chains ``n_atoms``
    unifications through local variables, in strands of up to five atoms
    that start at an input argument and feed the output arguments."""
    modes = ["in"] * (arity // 2) + ["out"] * (arity - arity // 2)
    rng.shuffle(modes)
    head = [f"A{i}" for i in range(1, arity + 1)]
    ins = [v for v, m in zip(head, modes) if m == "in"]
    outs = [v for v, m in zip(head, modes) if m == "out"]
    head_text = f"w({','.join(head)})"
    atoms: list[str] = []
    ends: list[str] = []
    fresh = iter(f"L{i}" for i in range(1, 10 * n_atoms))
    while len(atoms) < n_atoms - len(outs):
        cur = rng.choice(ins)
        for _ in range(min(5, n_atoms - len(outs) - len(atoms))):
            kind = rng.choice(("decon", "con", "assign", "test"))
            if kind == "decon":
                a, b = next(fresh), next(fresh)
                atoms.append(f"{cur} => pair({a},{b})")
                cur = rng.choice((a, b))
            elif kind == "con":
                v = next(fresh)
                atoms.append(f"{v} <= s({cur})")
                cur = v
            elif kind == "assign":
                v = next(fresh)
                atoms.append(f"{v} := {cur}")
                cur = v
            else:
                atoms.append(f"{cur} == {rng.choice(ins)}")
        ends.append(cur)
    atoms += [f"{o} := {ends[i % len(ends)]}" for i, o in enumerate(outs)]
    call_args = [rng.choice(ins) if m == "in" else f"R{i}" for i, m in enumerate(modes)]
    back = [f"{v} := R{i}" for i, (v, m) in enumerate(zip(head, modes)) if m == "out"]
    return "\n".join([
        f":- pred w({','.join(modes)}).",
        f"{head_text} :- " + ", ".join(f"{o} := {rng.choice(ins)}" for o in outs) + ".",
        f"{head_text} :- {', '.join(atoms)}.",
        f"{head_text} :- w({','.join(call_args)}), {', '.join(back)}.",
    ]) + "\n"


# ---------------------------------------------------------------------------
# Independent oracle: the query interpreter as nested generators
# ---------------------------------------------------------------------------
#
# The interpreter argprof had before its choice-point machine: depth-first
# resolution written as recursive ``yield from`` chains, with a second
# evaluator for query atoms. It recurses on term depth and on derivation
# length, so only small queries can be given to it.


@dataclass
class ReferenceSteps:
    limit: int
    used: int = 0

    def bump(self) -> None:
        if self.used >= self.limit:
            raise StepLimitExceeded(self.limit)
        self.used += 1


Answer = dict[str, FunctorTerm]

_Env = dict[str, FunctorTerm]


def _bind(env: _Env, name: str, value: FunctorTerm, where: str) -> None:
    if name in env:
        raise RuntimeModeError(f"{name} already bound at {where}")
    env[name] = value


def _solve_body(
    program: Program, atoms: tuple[Atom, ...], i: int, env: _Env, steps: ReferenceSteps
) -> Iterator[None]:
    if i == len(atoms):
        yield None
        return
    atom = atoms[i]
    where = f"point {atom.point}"

    if isinstance(atom, Call):
        callee = program.predicates[atom.pred]
        in_vals: list[tuple[int, FunctorTerm]] = []
        out_vars: list[str] = []
        for pos, (v, m) in enumerate(zip(atom.args, callee.modes)):
            if m == "in":
                if v.name not in env:
                    raise RuntimeModeError(f"{v.name} unbound at {where}")
                in_vals.append((pos, env[v.name]))
            else:
                if v.name in env:
                    raise RuntimeModeError(f"{v.name} already bound at {where}")
                out_vars.append(v.name)
        for out_vals in _solve_call(program, callee, in_vals, steps):
            bound: list[str] = []
            try:
                for name, value in zip(out_vars, out_vals):
                    _bind(env, name, value, where)
                    bound.append(name)
                yield from _solve_body(program, atoms, i + 1, env, steps)
            finally:
                for name in bound:
                    del env[name]
        return

    steps.bump()
    bound = _eval_unification(atom, env, where)
    if bound is None:
        return
    try:
        yield from _solve_body(program, atoms, i + 1, env, steps)
    finally:
        for name in bound:
            del env[name]


def _eval_unification(atom: Atom, env: _Env, where: str) -> list[str] | None:
    """Resolve a unification atom; returns newly bound names, None on failure."""
    if isinstance(atom, Deconstruct):
        if atom.var.name not in env:
            raise RuntimeModeError(f"{atom.var.name} unbound at {where}")
        value = env[atom.var.name]
        if value.functor != atom.functor or len(value.args) != len(atom.args):
            return None
        bound: list[str] = []
        for v, sub in zip(atom.args, value.args):
            try:
                _bind(env, v.name, sub, where)
            except RuntimeModeError:
                for name in bound:
                    del env[name]
                raise
            bound.append(v.name)
        return bound
    if isinstance(atom, Construct):
        args = []
        for v in atom.args:
            if v.name not in env:
                raise RuntimeModeError(f"{v.name} unbound at {where}")
            args.append(env[v.name])
        _bind(env, atom.var.name, FunctorTerm(atom.functor, tuple(args)), where)
        return [atom.var.name]
    if isinstance(atom, Test):
        for v in (atom.left, atom.right):
            if v.name not in env:
                raise RuntimeModeError(f"{v.name} unbound at {where}")
        return [] if env[atom.left.name] == env[atom.right.name] else None
    if isinstance(atom, Assign):
        if atom.source.name not in env:
            raise RuntimeModeError(f"{atom.source.name} unbound at {where}")
        _bind(env, atom.target.name, env[atom.source.name], where)
        return [atom.target.name]
    raise TypeError(f"not a unification atom: {atom!r}")


def _solve_call(
    program: Program,
    pred: Predicate,
    in_vals: list[tuple[int, FunctorTerm]],
    steps: ReferenceSteps,
) -> Iterator[tuple[FunctorTerm, ...]]:
    """Yield output-argument tuples, one per solution, in clause order."""
    out_positions = [pos for pos, m in enumerate(pred.modes) if m == "out"]
    for clause in pred.clauses:
        steps.bump()
        env: _Env = {pred.args[pos].name: val for pos, val in in_vals}
        for _ in _solve_body(program, clause.body, 0, env, steps):
            yield tuple(env[pred.args[pos].name] for pos in out_positions)


# ---------------------------------------------------------------------------
# Query-level evaluation (nested ground terms allowed in input positions)
# ---------------------------------------------------------------------------


def _eval_qterm(t: Term, env: _Env) -> FunctorTerm | None:
    """Ground value of a query term, or None if a variable is unbound."""
    if isinstance(t, Var):
        return env.get(t.name)
    args: list[FunctorTerm] = []
    for a in t.args:
        v = _eval_qterm(a, env)
        if v is None:
            return None
        args.append(v)
    return FunctorTerm(t.functor, tuple(args))


def _require_ground(t: Term, env: _Env, where: str) -> FunctorTerm:
    value = _eval_qterm(t, env)
    if value is None:
        raise RuntimeModeError(f"non-ground input at {where}")
    return value


def _require_free_var(t: Term, env: _Env, where: str) -> str:
    if not isinstance(t, Var):
        raise RuntimeModeError(f"output position holds a term at {where}")
    if t.name in env:
        raise RuntimeModeError(f"{t.name} already bound at {where}")
    return t.name


def _solve_goal(
    program: Program, goal: tuple[Atom, ...], i: int, env: _Env, steps: ReferenceSteps
) -> Iterator[None]:
    if i == len(goal):
        yield None
        return
    qa = goal[i]
    where = f"goal atom {i + 1}"

    if isinstance(qa, Call):
        if qa.pred not in program.predicates:
            raise SolveError(f"unknown predicate '{qa.pred}' in query")
        callee = program.predicates[qa.pred]
        if len(qa.args) != callee.arity:
            raise SolveError(
                f"'{qa.pred}' called with {len(qa.args)} arguments but declared with arity {callee.arity}"
            )
        in_vals: list[tuple[int, FunctorTerm]] = []
        out_names: list[str] = []
        seen_out: set[str] = set()
        for pos, (t, m) in enumerate(zip(qa.args, callee.modes)):
            if m == "in":
                in_vals.append((pos, _require_ground(t, env, where)))
            else:
                name = _require_free_var(t, env, where)
                if name in seen_out:
                    raise RuntimeModeError(f"{name} repeated in output positions at {where}")
                seen_out.add(name)
                out_names.append(name)
        for out_vals in _solve_call(program, callee, in_vals, steps):
            for name, value in zip(out_names, out_vals):
                env[name] = value
            try:
                yield from _solve_goal(program, goal, i + 1, env, steps)
            finally:
                for name in out_names:
                    del env[name]
        return

    steps.bump()
    bound: list[str] = []
    ok = False
    if isinstance(qa, Deconstruct):
        value = _require_ground(qa.var, env, where)
        if value.functor == qa.functor and len(value.args) == len(qa.args):
            ok = True
            for t, sub in zip(qa.args, value.args):
                name = _require_free_var(t, env, where)
                env[name] = sub
                bound.append(name)
    elif isinstance(qa, Construct):
        args = tuple(_require_ground(a, env, where) for a in qa.args)
        name = _require_free_var(qa.var, env, where)
        env[name] = FunctorTerm(qa.functor, args)
        bound.append(name)
        ok = True
    elif isinstance(qa, Test):
        ok = _require_ground(qa.left, env, where) == _require_ground(qa.right, env, where)
    elif isinstance(qa, Assign):
        value = _require_ground(qa.source, env, where)
        name = _require_free_var(qa.target, env, where)
        env[name] = value
        bound.append(name)
        ok = True
    else:
        raise TypeError(f"not a query atom: {qa!r}")

    if ok:
        try:
            yield from _solve_goal(program, goal, i + 1, env, steps)
        finally:
            for name in bound:
                del env[name]
    else:
        for name in bound:
            del env[name]


def _goal_vars(goal: tuple[Atom, ...]) -> list[str]:
    """Variable names in order of first occurrence."""
    seen: list[str] = []

    def walk_term(t: Term) -> None:
        if isinstance(t, Var):
            if t.name not in seen:
                seen.append(t.name)
        else:
            for a in t.args:
                walk_term(a)

    for qa in goal:
        if isinstance(qa, Call):
            for a in qa.args:
                walk_term(a)
        elif isinstance(qa, (Deconstruct, Construct)):
            walk_term(qa.var)
            for a in qa.args:
                walk_term(a)
        elif isinstance(qa, Test):
            walk_term(qa.left)
            walk_term(qa.right)
        elif isinstance(qa, Assign):
            walk_term(qa.target)
            walk_term(qa.source)
    return seen


def reference_solve(
    program: Program,
    query: Query,
    max_steps: int = DEFAULT_STEP_LIMIT,
    bindings: Mapping[str, FunctorTerm] | None = None,
    steps: ReferenceSteps | None = None,
) -> list[Answer]:
    """All answers to ``query`` within the step limit, in search order.

    Each answer maps the query's output variables (those not initially
    bound) to ground terms. Raises StepLimitExceeded or RuntimeModeError.
    Pass ``steps`` to read the steps used, also after a raise.
    """
    steps = steps or ReferenceSteps(max_steps)
    env: _Env = dict(bindings or {})
    initial = set(env)
    order = [name for name in _goal_vars(query.goal) if name not in initial]
    answers: list[Answer] = []
    for _ in _solve_goal(program, query.goal, 0, env, steps):
        answers.append({name: env[name] for name in order if name in env})
    return answers


# ---------------------------------------------------------------------------
# Reference term printer: a callback per opening and closing
# ---------------------------------------------------------------------------


def reference_format_ground(t: Term) -> str:
    """``t`` in surface syntax, as ``format_ground`` printed it before it
    walked terms without a call per node: an explicit stack of terms and
    closing texts, with a callback that opens each term and one that closes
    it."""

    def opening(g: FunctorTerm) -> str:
        return g.functor + "(" if g.args else g.functor

    def closing(g: FunctorTerm) -> str:
        return ")" if g.args else ""

    out: list[str] = []
    stack: list[Term | str] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Var):
            out.append(str(item))
        else:
            out.append(opening(item))
            stack.append(closing(item))
            for k in range(len(item.args) - 1, -1, -1):
                stack.append(item.args[k])
                if k:
                    stack.append(", ")
    return "".join(out)


# ---------------------------------------------------------------------------
# Random ground terms and query answers
# ---------------------------------------------------------------------------


def gen_ground_term(rng: random.Random, depth: int = 4) -> FunctorTerm:
    if depth == 0 or rng.random() < 0.3:
        return FunctorTerm(rng.choice(["nil", "z", "0", "1", "2"]))
    f, n = rng.choice([f for f in _FUNCTORS if f[1] > 0])
    return FunctorTerm(f, tuple(gen_ground_term(rng, depth - 1) for _ in range(n)))


def gen_ground_list(rng: random.Random, max_len: int = 4) -> FunctorTerm:
    term = FunctorTerm("nil")
    for _ in range(rng.randint(0, max_len)):
        head = FunctorTerm(rng.choice(["0", "1", "2", "a", "b"]))
        term = FunctorTerm("cons", (head, term))
    return term


def gen_input_term(rng: random.Random) -> FunctorTerm:
    return gen_ground_list(rng) if rng.random() < 0.6 else gen_ground_term(rng)


def answer_multiset(answers: list[dict[str, FunctorTerm]]) -> Counter:
    return Counter(tuple(sorted(a.items())) for a in answers)


# ---------------------------------------------------------------------------
# Token sources, mutated sources and a call counter shared across modules
# ---------------------------------------------------------------------------

MUTATION_CHARS = "abXY_09 \t\r\n%(),.:-?=<>&é\f"


def token_sources() -> list[str]:
    """The fixtures, the test-07 corpus and two queries."""
    sources = [(FIXTURES / name).read_text() for name in fixture_names()]
    rng = random.Random(0xBEEF)  # the test-07 corpus
    sources += [gen_program_source(rng) for _ in range(200)]
    sources += ["?- app(cons(1,nil), cons(2,nil), Z).", "?- X <= s(z), n(X, Y)."]
    return sources


def mutated_sources() -> Iterator[str]:
    """10 000 windows of a few lines of the token sources, each with one to
    three characters deleted, replaced or inserted."""
    rng = random.Random(7)
    sources = token_sources()
    for _ in range(10_000):
        source = rng.choice(sources)
        start = rng.randrange(len(source))  # a window of a few lines
        chars = list(source[start:start + rng.randint(1, 160)])
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(chars) + 1)
            edit = rng.random()
            if edit < 0.3 and i < len(chars):
                del chars[i]
            elif edit < 0.6 and i < len(chars):
                chars[i] = rng.choice(MUTATION_CHARS)
            else:
                chars.insert(i, rng.choice(MUTATION_CHARS))
        yield "".join(chars)


# Characters that ``str.split()`` takes for blanks, or ``str.isidentifier``
# for letters, and parts of two-character operators, none of which starts
# a token on its own; and lone surrogates, one a non-UTF-8 byte.
ODD_QUERY_CHARS = (
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
    ":", "-", "<", "?", "\ud800", "\udc80", "é",
)
# What may stand between two tokens: mostly nothing, so that chunks such as
# X:=Y and ?-p( hold several tokens.
QUERY_GAPS = ("", "", "", " ", "  ", "\t", "\r\n", "\n", " % a note\n", "%\n")


def _query_term(rng: random.Random) -> list[str]:
    """The tokens of a query term: a variable, a constant or integer, or a
    list of up to 12 elements, some of them pairs."""
    pick = rng.random()
    if pick < 0.2:
        return [rng.choice(("X", "Y", "Out1", "_T"))]
    if pick < 0.35:
        return [rng.choice(("a", "nil", "0", "12", "z"))]
    tokens = []
    length = rng.randint(0, 12)
    for _ in range(length):
        tokens += ["cons", "("]
        if rng.random() < 0.2:
            tokens += ["pair", "(", rng.choice("ab"), ",", rng.choice(("1", "X")), ")"]
        else:
            tokens.append(rng.choice(("a", "b", "7", "Y")))
        tokens.append(",")
    return tokens + ["nil"] + [")"] * length


def _goal_atom(rng: random.Random) -> list[str]:
    """The tokens of a goal atom of a random class."""
    kind = rng.randrange(5)
    if kind == 0:
        return ["p", "(", *_query_term(rng), ",", *_query_term(rng), ",", "Z", ")"]
    if kind == 1:
        return [*_query_term(rng), "=>", "cons", "(", "H", ",", "T", ")"]
    if kind == 2:
        return ["W", "<=", "f", "(", *_query_term(rng), ",", "V", ")"]
    if kind == 3:
        return ["V", ":=", *_query_term(rng)]
    return [*_query_term(rng), "==", "U"]


def query_sources(count: int = 3000, seed: int = 0x51) -> Iterator[str]:
    """``count`` queries of one to three goal atoms, their tokens joined by
    random gaps. About one in four holds a character of ``ODD_QUERY_CHARS``
    or a chunk ``12ab``, and about one in six ends with a comment that ends
    the input. They run from a few characters to about a thousand."""
    rng = random.Random(seed)
    for _ in range(count):
        tokens = ["?-"]
        for k in range(rng.randint(1, 3)):
            if k:
                tokens.append(",")
            tokens += _goal_atom(rng)
        tokens.append(".")
        if rng.random() < 0.25:
            bad = rng.choice((*ODD_QUERY_CHARS, "12ab"))
            tokens.insert(rng.randrange(len(tokens) + 1), bad)
        gaps = [rng.choice(QUERY_GAPS) for _ in tokens]
        gaps[0] = rng.choice(("", "", " ", "\n"))  # before the first token
        source = "".join(gap + token for gap, token in zip(gaps, tokens))
        if rng.random() < 1 / 6:
            source += rng.choice((" % the end", "%", "\t%. (", "\n% last line"))
        yield source


def count_calls(monkeypatch, fn) -> list[tuple]:
    """The positional arguments of every call made to ``fn`` from now on,
    under any name any ``argprof`` module binds it to."""
    calls: list[tuple] = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "argprof":
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    return calls
