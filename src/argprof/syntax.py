"""Abstract syntax for the moded logic language: one vocabulary of atoms
for programs and queries.

A program is a set of predicates, each with a mandatory mode declaration,
one head of distinct variables as long as its modes, and a set of clauses
that share that head. Every call names one of the program's predicates
with that predicate's arity: ``Program(predicates)``, the one way to build
a program, checks the heads and the calls as it builds the call graph,
whether the predicates were parsed or built by hand. Clause bodies are flat:
``parse_program`` stores only ``Var``s in the argument positions of an
atom, so every term is an outermost functor applied to variables. Each
body atom carries a program point, unique across the whole program and
running 1..N in the order predicates are kept (the order of their first
clauses) and, within a predicate, in textual order.

A query (``parse.parse_query``) is a goal of the same atom classes, with
point 0; its argument positions may hold nested ``FunctorTerm``s. The
interpreter's values are ground ``FunctorTerm``s too, so a query's input
and the answers it computes are terms of one class.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, Iterator, Literal, Mapping, TypeVar

Mode = Literal["in", "out"]
T = TypeVar("T")


class Record:
    """Base of the value classes: plain classes with ``__slots__``, whose
    fields are named in ``__match_args__`` in constructor order. A record
    prints as ``Name(field=value, ...)``. Never assign to a record's fields
    once it is built. The one exception is a cache slot outside
    ``__match_args__`` and ``_key``, such as ``InteractionSet.kept_profiles``,
    which holds a value derived from the fields and may be filled in later.
    A plain record compares and hashes by identity; the classes whose
    values are compared derive from ``Value``."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Value(Record):
    """A record that compares by its key: ``_key``, an ``attrgetter`` of the
    fields that make up the value. Two values are equal exactly when they
    are of the same class and their keys are equal, so a value never equals
    one of another class or the tuple of its fields, and equal values hash
    equally. ``line`` and ``col`` only place a value in its source, so they
    never join a key. A class whose key holds a dict (``Program``,
    ``InteractionSet``) sets ``__hash__ = None``: its values are not
    hashable."""

    __slots__ = ()
    _key: Callable[[Value], object]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))


class Var(Value):
    __slots__ = __match_args__ = ("name",)
    _key = attrgetter("name")

    def __init__(self, name: str):
        self.name = name

    def __str__(self) -> str:
        return self.name


class FunctorTerm(Record):
    """A functor applied to terms: a nested term of a query, or a ground
    value the interpreter computes. Equality, hashing and printing use
    explicit stacks or look one level down, so they work at any depth."""

    __slots__ = __match_args__ = ("functor", "args")

    def __init__(self, functor: str, args: tuple[Term, ...] = ()):
        self.functor = functor
        self.args = args

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FunctorTerm):
            return NotImplemented
        pairs: list[tuple[Term, Term]] = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if isinstance(a, Var) or isinstance(b, Var):
                if a != b:  # a Var equals only a Var of its name
                    return False
            elif a.functor != b.functor or len(a.args) != len(b.args):
                return False
            else:
                pairs.extend(zip(a.args, b.args))
        return True

    def __hash__(self) -> int:
        # The functors of the term and its arguments, a Var argument standing
        # for itself: equal terms agree on them, and the cost does not grow
        # with depth.
        return hash((self.functor, tuple(getattr(a, "functor", a) for a in self.args)))

    def __repr__(self) -> str:
        # The explicit stack keeps the closings and separators still to write.
        out: list[str] = []
        stack: list[Term | str] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            elif isinstance(item, Var):
                out.append(repr(item))
            else:
                out.append(f"FunctorTerm(functor={item.functor!r}, args=(")
                stack.append(",))" if len(item.args) == 1 else "))")
                for k, arg in enumerate(reversed(item.args)):
                    stack += (", ", arg) if k else (arg,)
        return "".join(out)


Term = Var | FunctorTerm


def format_ground(t: Term) -> str:
    """``t`` in surface syntax, e.g. ``cons(1, nil)``; a variable prints as
    its name.

    A node whose leading arguments are constants, as each node of a list
    of constants is, is written as one part, and the walk goes on down its
    last argument, counting the parentheses to close at the end of that
    spine; so is a list node whose element has two constant arguments,
    such as ``pair(b, a)``. Any other node keeps the text still to write,
    its closing parenthesis and separators, on a stack beside the terms."""
    out: list[str] = []
    stack: list[Term | str] = [t]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        closes = 0
        while item.__class__ is not Var and item.args:
            args = item.args
            lead = args[0]
            # A list node, arity 2, is the common case: no slice, one part,
            # also when its element has two constant arguments.
            if len(args) == 2 and lead.__class__ is not Var and not lead.args:
                out.append(f"{item.functor}({lead.functor}, ")
            elif (
                len(args) == 2 and lead.__class__ is not Var and len(lead.args) == 2
                and (x := lead.args[0]).__class__ is not Var and not x.args
                and (y := lead.args[1]).__class__ is not Var and not y.args
            ):
                out.append(f"{item.functor}({lead.functor}({x.functor}, {y.functor}), ")
            elif len(args) != 2 and all(arg.__class__ is not Var and not arg.args for arg in args[:-1]):
                out.append(item.functor + "(" + "".join([arg.functor + ", " for arg in args[:-1]]))
            else:
                out.append(item.functor + "(")
                stack.append(")" * (closes + 1))
                for arg in args[:0:-1]:
                    stack.append(arg)
                    stack.append(", ")
                stack.append(lead)
                break
            closes += 1
            item = args[-1]
        else:
            out.append(item.name if item.__class__ is Var else item.functor)
            if closes:
                out.append(")" * closes)
    return "".join(out)


class Atom(Value):
    """Base of all body atoms. ``point`` is the global program point (0 in a
    query); ``line`` and ``col`` place the atom's first token. An atom's key
    is every field but ``line`` and ``col``."""

    __slots__ = ("point", "line", "col")


class _Unification(Atom):
    """The fields of ``V => f(X1,...,Xn)`` and ``V <= f(X1,...,Xn)``."""

    __slots__ = ("var", "functor", "args")
    __match_args__ = ("point", "line", "col", "var", "functor", "args")
    _key = attrgetter("point", "var", "functor", "args")

    def __init__(self, point: int, line: int, col: int, var: Term, functor: str, args: tuple[Term, ...]):
        self.point = point
        self.line = line
        self.col = col
        self.var = var
        self.functor = functor
        self.args = args


class Deconstruct(_Unification):
    """``V => f(X1,...,Xn)``: V is input, the Xi are output."""

    __slots__ = ()


class Construct(_Unification):
    """``V <= f(X1,...,Xn)``: the Xi are input, V is output."""

    __slots__ = ()


class Test(Atom):
    """``V == W``: both input."""

    __slots__ = ("left", "right")
    __match_args__ = ("point", "line", "col", "left", "right")
    _key = attrgetter("point", "left", "right")

    def __init__(self, point: int, line: int, col: int, left: Term, right: Term):
        self.point = point
        self.line = line
        self.col = col
        self.left = left
        self.right = right


class Assign(Atom):
    """``V := W``: W is input, V is output."""

    __slots__ = ("target", "source")
    __match_args__ = ("point", "line", "col", "target", "source")
    _key = attrgetter("point", "target", "source")

    def __init__(self, point: int, line: int, col: int, target: Term, source: Term):
        self.point = point
        self.line = line
        self.col = col
        self.target = target
        self.source = source


class Call(Atom):
    """``p(X1,...,Xn)``: moded per the callee's declaration."""

    __slots__ = ("pred", "args")
    __match_args__ = ("point", "line", "col", "pred", "args")
    _key = attrgetter("point", "pred", "args")

    def __init__(self, point: int, line: int, col: int, pred: str, args: tuple[Term, ...]):
        self.point = point
        self.line = line
        self.col = col
        self.pred = pred
        self.args = args


def atom_flow(atom: Atom, predicates: Mapping[str, Predicate]) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
    """The terms ``atom`` consumes and those it produces, each in textual
    order with repetitions: data flows from its inputs into its outputs. A
    call takes its modes from its callee in ``predicates``."""
    if isinstance(atom, Deconstruct):
        return (atom.var,), atom.args
    if isinstance(atom, Construct):
        return atom.args, (atom.var,)
    if isinstance(atom, Assign):
        return (atom.source,), (atom.target,)
    if isinstance(atom, Test):
        return (atom.left, atom.right), ()
    if isinstance(atom, Call):
        return predicates[atom.pred].split(atom.args)
    raise TypeError(f"not an atom: {atom!r}")


def term_names(term: Term) -> list[str]:
    """Variable names of ``term``, with repetitions, in no set order."""
    names = []
    stack = [term]
    while stack:
        t = stack.pop()
        if t.__class__ is Var:
            names.append(t.name)
        else:
            stack += t.args
    return names


class Clause(Value):
    """A clause's body; ``line`` and ``col`` place its head, which is its
    predicate's."""

    __slots__ = __match_args__ = ("body", "line", "col")
    _key = attrgetter("body")

    def __init__(self, body: tuple[Atom, ...], line: int = 0, col: int = 0):
        self.body = body
        self.line = line
        self.col = col


class Predicate(Value):
    """A predicate's declaration, its head's formal arguments ``args``,
    which every clause shares, and its clauses; ``line`` and ``col`` place
    its declaration. Its arity is the length of its modes."""

    __slots__ = __match_args__ = ("name", "modes", "args", "clauses", "line", "col")
    _key = attrgetter("name", "modes", "args", "clauses")

    def __init__(
        self,
        name: str,
        modes: tuple[Mode, ...],
        args: tuple[Var, ...],
        clauses: tuple[Clause, ...],
        line: int = 0,
        col: int = 0,
    ):
        self.name = name
        self.modes = modes
        self.args = args
        self.clauses = clauses
        self.line = line
        self.col = col

    @property
    def arity(self) -> int:
        return len(self.modes)

    @property
    def arg_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.args)

    def split(self, items: tuple[T, ...]) -> tuple[tuple[T, ...], tuple[T, ...]]:
        """``items``, one per argument position, split into those at input
        and those at output positions, each in argument order."""
        ins = tuple([t for t, m in zip(items, self.modes) if m == "in"])
        outs = tuple([t for t, m in zip(items, self.modes) if m == "out"])
        return ins, outs

    def input_arg_names(self) -> frozenset[str]:
        return frozenset(v.name for v in self.split(self.args)[0])

    def output_arg_names(self) -> frozenset[str]:
        return frozenset(v.name for v in self.split(self.args)[1])

    def body_points(self) -> list[int]:
        return [a.point for c in self.clauses for a in c.body]


class CallError(Exception):
    """A call that names no predicate of its program, or one of another
    arity, or a predicate whose head repeats a variable or is not as long
    as its modes: ``message`` says which, ``line`` and ``col`` place the
    call, or the head at the predicate's first clause (at its declaration
    if it has none)."""

    def __init__(self, site: Call | Predicate, callee: Predicate | None = None):
        if site.__class__ is Predicate:
            if len({v.name for v in site.args if v.__class__ is Var}) != len(site.args):
                message = "head arguments must be pairwise distinct variables"
            else:
                message = f"'{site.name}' declared with arity {site.arity} but clause head has {len(site.args)} arguments"
            site = site.clauses[0] if site.clauses else site
        elif callee is None:
            message = f"call to undefined predicate '{site.pred}'"
        else:
            message = f"'{site.pred}' called with {len(site.args)} arguments but declared with arity {callee.arity}"
        super().__init__(message)
        self.message = message
        self.line = site.line
        self.col = site.col


def check_heads(predicates: Iterable[Predicate]) -> None:
    """Raise ``CallError`` for the first of ``predicates`` whose head is not
    as long as its modes or does not hold distinct variables."""
    for pred in predicates:
        args = pred.args
        if len(args) != len(pred.modes) or len({v.name for v in args if v.__class__ is Var}) != len(args):
            raise CallError(pred)


class Program(Value):
    """The predicates by name and the call graph they make: an edge p -> q
    iff some clause of p calls q. Building a program checks every head,
    then every call, each in the order of ``predicates`` (and of their
    clauses), and raises ``CallError`` for the first head that does not fit
    its modes (``check_heads``) or, if none, the first call that does not
    name one of ``predicates`` with its arity. The call graph is derived,
    and left out of the key. A program holds dicts, so it is not
    hashable."""

    __slots__ = ("predicates", "call_graph")
    __match_args__ = ("predicates",)
    _key = attrgetter("predicates")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, predicates: dict[str, Predicate]):
        check_heads(predicates.values())
        graph: dict[str, frozenset[str]] = {}
        for name, pred in predicates.items():
            callees = set()
            for clause in pred.clauses:
                for atom in clause.body:
                    if atom.__class__ is Call:
                        callee = predicates.get(atom.pred)
                        if callee is None or callee.arity != len(atom.args):
                            raise CallError(atom, callee)
                        callees.add(atom.pred)
            graph[name] = frozenset(callees)
        self.predicates = predicates
        self.call_graph = graph

    def owner_of_point(self, point: int) -> str:
        """The name of the predicate whose clauses hold program point ``point``."""
        for name, pred in self.predicates.items():
            if point in pred.body_points():
                return name
        raise KeyError(point)

    def atoms(self) -> Iterator[Atom]:
        for pred in self.predicates.values():
            for clause in pred.clauses:
                yield from clause.body


def cone(program: Program, roots: Iterable[str]) -> Program:
    """The sub-program of the predicates ``roots`` and every predicate they
    reach in the call graph, in the program's order, points unchanged."""
    reached = set(roots)
    work = list(reached)
    while work:
        for callee in program.call_graph[work.pop()]:
            if callee not in reached:
                reached.add(callee)
                work.append(callee)
    return Program({name: p for name, p in program.predicates.items() if name in reached})


# ---------------------------------------------------------------------------
# Surface-syntax emission. Byte-stable for identical programs; re-parsing
# the output yields a structurally identical Program.
# ---------------------------------------------------------------------------


def format_functor(name: str, args: tuple[Var, ...]) -> str:
    if not args:
        return name
    return f"{name}({','.join(v.name for v in args)})"


def format_atom(atom: Atom) -> str:
    if isinstance(atom, Deconstruct):
        return f"{atom.var.name} => {format_functor(atom.functor, atom.args)}"
    if isinstance(atom, Construct):
        return f"{atom.var.name} <= {format_functor(atom.functor, atom.args)}"
    if isinstance(atom, Test):
        return f"{atom.left.name} == {atom.right.name}"
    if isinstance(atom, Assign):
        return f"{atom.target.name} := {atom.source.name}"
    if isinstance(atom, Call):
        return format_functor(atom.pred, atom.args)
    raise TypeError(f"not an atom: {atom!r}")


def format_clause(pred: Predicate, clause: Clause) -> str:
    head = format_functor(pred.name, pred.args)
    if not clause.body:
        return f"{head}."
    body = ", ".join(format_atom(a) for a in clause.body)
    return f"{head} :- {body}."


def format_predicate(pred: Predicate) -> str:
    lines = [f":- pred {pred.name}({','.join(pred.modes)})."]
    lines.extend(format_clause(pred, c) for c in pred.clauses)
    return "\n".join(lines)


def format_program(program: Program) -> str:
    blocks = [format_predicate(p) for p in program.predicates.values()]
    return "\n\n".join(blocks) + "\n" if blocks else ""
