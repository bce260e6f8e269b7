"""Command-line interface: analyze, normalize, compare and run.

Exit codes: 0 on success (including a Distinct compare verdict), 1 on
a diagnostic (a program that does not parse or validate, a failed query),
2 on usage errors. Any other exception (a bug, or memory exhausted) is
reported as one ``argprof: internal error:`` line with exit 1. When
standard output closes early (its reader, such as ``head``, stops), the
command ends quietly with exit 1. All output is deterministic: canonical
operation strings, sorted JSON keys.

The command lines README documents are read by ``_read_line``, without
argparse. argparse is imported, and its parser built, only by the first
call that prints help or a usage error or that uses a form only argparse
reads (an abbreviation, ``--opt=value``, ``-oOUT``, ``--``, ``-h``, an
option-like positional); it stays the one definition of all of those.
"""

from __future__ import annotations

import sys
from functools import cache
from types import SimpleNamespace
from typing import Callable, Sequence, TextIO

from .analysis import Environment, AnalysisTrace, argument_profiles, round_counts, run_analysis
from .domain import ArgumentProfile, Operation, PsiOp, canon_op, render_interaction_set
from .modecheck import validate_program
from .normalize import Equivalent, compare, plan, rewrite
from .parse import SourceError, parse_program, parse_query
from .syntax import Program, cone, format_ground, format_program


def _read_stdin() -> str:
    """All of standard input, decoded as ``_read_source`` decodes a file; a
    stream with no byte buffer (a ``StringIO`` put in its place) is read as
    the text it holds."""
    buffer = getattr(sys.stdin, "buffer", None)
    text = sys.stdin.read() if buffer is None else buffer.read().decode("utf-8", "surrogateescape")
    return text.removeprefix("\ufeff")


def _read_source(path: str) -> tuple[str, str]:
    # UTF-8 whatever the locale, with one leading byte-order mark dropped. A
    # byte that is not UTF-8 becomes a lone surrogate, which the lexer
    # reports with its position. A file that cannot be read is named in
    # its diagnostic, like every other one.
    if path == "-":
        return _read_stdin(), "<stdin>"
    try:
        with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
            return handle.read(), path
    except OSError as exc:
        raise _Failure(f"{path}: error: {exc}") from None


class _Failure(Exception):
    """A diagnostic: ``main`` prints it to stderr and returns exit 1."""


def _load_validated(path: str) -> tuple[Program, str]:
    """The parsed and validated program and its label for diagnostics."""
    source, label = _read_source(path)
    try:
        program = parse_program(source)
    except SourceError as exc:
        raise _Failure(exc.render(label)) from None
    report = validate_program(program)
    if not report.ok():
        raise _Failure(report.render(label))
    return program, label


def _json_list(items: Sequence[str], pad: str) -> str:
    """A JSON list of ``items``, each already written as JSON, whose
    closing bracket sits at indent ``pad``."""
    if not items:
        return "[]"
    return "[\n" + pad + "  " + (",\n" + pad + "  ").join(items) + "\n" + pad + "]"


def _op_texts(parts: list[str], ops: Sequence[Operation], sep: str) -> None:
    """The canonical texts of ``ops`` with ``sep`` between each two: a run
    of base-op texts is joined into one part, and a psi op's text is a part
    of its own, so its payload is written by reference."""
    run: list[str] = []  # the base-op texts since the last psi op, after "" if there was one
    for op in ops:
        if op.__class__ is PsiOp:
            if run:
                parts.append(sep.join(run) + sep)
            parts.append(canon_op(op))
            run = [""]
        else:
            run.append(canon_op(op))
    if run:
        parts.append(sep.join(run))


def _json_ops(parts: list[str], ops: Sequence[Operation], pad: str) -> None:
    """A JSON list of the texts of ``ops`` laid out as ``_json_list`` lays
    out a list of strings."""
    if not ops:
        parts.append("[]")
        return
    parts.append("[\n" + pad + '  "')
    _op_texts(parts, ops, '",\n' + pad + '  "')
    parts.append('"\n' + pad + "]")


def _json_profiles(parts: list[str], profiles: Sequence[ArgumentProfile]) -> None:
    if not profiles:
        parts.append("[]")
        return
    head = "[\n"
    for idx, arg in enumerate(profiles, 1):
        parts.append(f'{head}        {{\n          "arg": {idx},\n          "osets": ')
        if arg.osets:
            oset_head = "[\n"
            for oset in arg.osets:
                parts.append(oset_head + '            {\n              "ops": ')
                _json_ops(parts, oset.ops, "              ")
                parts.append(f',\n              "target": {oset.target}\n            }}')
                oset_head = ",\n"
            parts.append("\n          ]\n        }")
        else:
            parts.append("[]\n        }")
        head = ",\n"
    parts.append("\n      ]")


def _text_profiles(parts: list[str], label: str, profiles: Sequence[ArgumentProfile]) -> None:
    parts.append(f"  {label}:\n")
    for idx, arg in enumerate(profiles, 1):
        # Punctuation waits in ``pending`` until the next o-set is written.
        pending = f"    arg {idx}: " + ("" if arg.osets else "(empty)")
        for n, oset in enumerate(arg.osets):
            parts.append(pending + ("; {" if n else "{"))
            _op_texts(parts, oset.ops, ", ")
            pending = f"}} -> {oset.target}"
        parts.append(pending + "\n")


def write_report(
    out: TextIO, program: Program, env: Environment, trace: AnalysisTrace, as_json: bool
) -> None:
    """Write the ``analyze`` report of every predicate to ``out``.

    Each predicate's profiles are those ``argument_profiles`` kept, and it
    is written with one ``out.writelines`` call. In each o-set, a run of
    base-op texts is joined, with the punctuation between them, into one
    part. A psi op's text is always a part of its own, never joined to
    punctuation, so a payload kept on its ``PsiOp`` is written by reference
    and never copied.

    The JSON form is laid out exactly as ``json.dumps(report, indent=2,
    sort_keys=True)`` lays it out, but without escaping, because no string
    in it needs any: predicate names and functors are lexer names
    (``[a-z][A-Za-z0-9_]*``) or integers (``[0-9]+``), modes are ``in`` and
    ``out``, and canonical punctuation holds no ``"``, no ``\\`` and
    nothing outside ASCII.
    """
    counts = round_counts(trace)
    head = '{\n  "predicates": [\n'
    for name, pred in program.predicates.items():
        profile, ordered = argument_profiles(pred, env[name])
        changing, total = counts.get(name, (0, 0))
        parts: list[str] = []
        if as_json:
            parts.append(
                f'{head}    {{\n      "arity": {pred.arity},\n      "modes": '
                + _json_list([f'"{mode}"' for mode in pred.modes], "      ")
                + f',\n      "name": "{name}",\n      "ordered": '
            )
            _json_profiles(parts, ordered.profiles)
            parts.append(
                ',\n      "permutation": ' + _json_list(list(map(str, ordered.permutation)), "      ")
                + ',\n      "profile": '
            )
            _json_profiles(parts, profile)
            parts.append(
                f',\n      "rounds": {{\n        "changing": {changing},\n'
                f'        "total": {total}\n      }}\n    }}'
            )
            head = ",\n"
        else:
            parts.append(
                f"pred {name}/{pred.arity} modes=({','.join(pred.modes)}) "
                f"rounds={changing}+{total - changing}\n"
            )
            _text_profiles(parts, "profile", profile)
            _text_profiles(parts, "ordered", ordered.profiles)
            parts.append(f"  permutation: ({','.join(map(str, ordered.permutation))})\n")
        out.writelines(parts)
    if as_json:
        out.write("\n  ]\n}\n" if program.predicates else '{\n  "predicates": []\n}\n')


def cmd_analyze(args: SimpleNamespace) -> int:
    program, _ = _load_validated(args.file)
    env, trace = run_analysis(program)
    if args.trace:
        # With --json, stdout holds only the JSON document.
        out = sys.stderr if args.json else sys.stdout
        for entry in trace:
            print(
                f"round={entry.round} pred={entry.predicate} "
                f"interactions={len(entry.snapshot)} changed={str(entry.changed).lower()}",
                file=out,
            )
            dump = render_interaction_set(entry.snapshot)
            if dump:
                print(dump, file=out)
    write_report(sys.stdout, program, env, trace, args.json)
    return 0


def cmd_normalize(args: SimpleNamespace) -> int:
    program, _ = _load_validated(args.file)
    env, _ = run_analysis(program)
    normalization = plan(program, env)
    rewritten = rewrite(program, normalization)
    output = format_program(rewritten)
    plan_text = "".join(
        f"{name}/{program.predicates[name].arity}: " + ",".join(str(i) for i in normalization[name]) + "\n"
        for name in program.predicates
    )
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(output)
        except OSError as exc:
            raise _Failure(f"{args.output}: error: {exc}") from None
        sys.stdout.write(plan_text)
    else:
        sys.stdout.write(output)
        sys.stderr.write(plan_text)
    return 0


def cmd_compare(args: SimpleNamespace) -> int:
    program, label = _load_validated(args.file)
    for name in (args.pred1, args.pred2):
        if name not in program.predicates:
            raise _Failure(f"{label}: error: unknown predicate '{name}'")
    # A profile depends only on its predicate and what that calls, so only
    # the two and the predicates they reach are analyzed: the cone holds
    # every member of each component it enters, and the analysis of a
    # component reaches the same least fixpoint in any order. Validation
    # has read the whole program, so the predicates left out could change
    # neither the verdict nor any diagnostic.
    env, _ = run_analysis(cone(program, (args.pred1, args.pred2)))
    verdict = compare(program.predicates[args.pred1], program.predicates[args.pred2], env)
    if isinstance(verdict, Equivalent):
        print(f"equivalent: {args.pred1} <-> {args.pred2}")
        for i in sorted(verdict.mapping):
            print(f"  {i} <-> {verdict.mapping[i]}")
    else:
        # The profiles' text can be exponential in call depth: write it in
        # parts, never joined.
        sys.stdout.writelines(
            [f"distinct: {args.pred1} vs {args.pred2}: ", *verdict.reason_parts(), "\n"]
        )
    return 0


def cmd_run(args: SimpleNamespace) -> int:
    # Only this command needs the interpreter, so only it imports it.
    from . import interp

    program, _ = _load_validated(args.file)
    text = _read_stdin() if args.query == "-" else args.query
    try:
        query = parse_query(text)
    except SourceError as exc:
        raise _Failure(exc.render("<query>")) from None
    limit = interp.DEFAULT_STEP_LIMIT if args.limit is None else args.limit
    try:
        answers = interp.solve(program, query, max_steps=limit)
    except interp.StepLimitExceeded:
        raise _Failure("step limit exceeded") from None
    except interp.SolveError as exc:
        # The program is validated, so only a query atom can fault.
        raise _Failure(SourceError(str(exc), exc.atom.line, exc.atom.col).render("<query>")) from None
    blocks = []
    for answer in answers:
        if answer:
            blocks.append("\n".join(f"{name} = {format_ground(t)}" for name, t in answer.items()))
        else:
            blocks.append("true")
    if blocks:
        print("\n\n".join(blocks))
    return 0


def build_parser():
    """The argparse parser: the one definition of help, of usage errors and
    of every command-line form that ``_read_line`` leaves to it."""
    import argparse

    class _StepLimit(argparse.Action):
        """Stores ``--limit``; a negative limit, which would stop the query
        before its first step, is a usage error."""

        def __call__(self, parser, namespace, value, option_string=None):
            if value < 0:
                raise argparse.ArgumentError(self, f"must not be negative: {value}")
            setattr(namespace, self.dest, value)

    parser = argparse.ArgumentParser(
        prog="argprof",
        description="Argument-profile analysis, normalization and profile equivalence "
        "for a flat moded logic language.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="compute and print argument profiles")
    p_analyze.add_argument("file", help="program file, or - for stdin")
    p_analyze.add_argument("--json", action="store_true", help="machine-readable output")
    p_analyze.add_argument("--trace", action="store_true", help="print one line per analysis round")
    p_analyze.set_defaults(func=cmd_analyze)

    p_norm = sub.add_parser("normalize", help="rewrite the program into argument normal form")
    p_norm.add_argument("file", help="program file, or - for stdin")
    p_norm.add_argument("-o", "--output", help="write the rewritten program to this file")
    p_norm.set_defaults(func=cmd_normalize)

    p_cmp = sub.add_parser("compare", help="check two predicates for profile equivalence")
    p_cmp.add_argument("file", help="program file, or - for stdin")
    p_cmp.add_argument("pred1")
    p_cmp.add_argument("pred2")
    p_cmp.set_defaults(func=cmd_compare)

    p_run = sub.add_parser("run", help="run a query against the program")
    p_run.add_argument("file", help="program file, or - for stdin")
    p_run.add_argument(
        "query", help="query text, e.g. '?- app(cons(1,nil),nil,Z).', or - for stdin"
    )
    p_run.add_argument(
        "--limit", type=int, action=_StepLimit, default=None, help="derivation step limit"
    )
    p_run.set_defaults(func=cmd_run)

    return parser


# Built by the first call that needs it, then shared: parsing reads the
# parser and never changes it, so every main call in a process can share it.
@cache
def _parser():
    return build_parser()


def _step_count(text: str) -> int | None:
    """The ``--limit`` that ``text`` gives, or None where argparse would
    reject it (not an integer, or negative)."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if value >= 0 else None


# The command lines README documents, as ``_read_line`` reads them: each
# command's function, its positionals in order, and its options spelled in
# full, each with its dest and the reader of its value (None for a flag,
# which is False unless given; an option with a value is None unless given).
_COMMANDS: dict[str, tuple[Callable[[SimpleNamespace], int], tuple[str, ...], dict]] = {
    "analyze": (cmd_analyze, ("file",), {"--json": ("json", None), "--trace": ("trace", None)}),
    "normalize": (cmd_normalize, ("file",), {"-o": ("output", str), "--output": ("output", str)}),
    "compare": (cmd_compare, ("file", "pred1", "pred2"), {}),
    "run": (cmd_run, ("file", "query"), {"--limit": ("limit", _step_count)}),
}


def _read_line(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse makes of ``argv`` when it is a line of
    ``_COMMANDS``: a command, exactly its positionals and any of its options,
    where each positional and option value is ``-`` or does not start with
    ``-``. None for any other line, which argparse reads: abbreviations,
    ``--opt=value``, ``-oOUT``, ``--``, help, option-like values and every
    usage error."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, positionals, options = _COMMANDS[argv[0]]
    values = {dest: False if read is None else None for dest, read in options.values()}
    given = []
    rest = iter(argv[1:])
    for item in rest:
        if item == "-" or item[:1] != "-":
            given.append(item)
            continue
        if item not in options:
            return None
        dest, read = options[item]
        if read is None:
            values[dest] = True
            continue
        text = next(rest, "--")  # a missing value reads as one no option takes
        value = read(text) if text == "-" or text[:1] != "-" else None
        if value is None:
            return None
        values[dest] = value
    if len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(command=argv[0], func=func, **values)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_line(argv)
    if args is None:
        args = _parser().parse_args(argv, SimpleNamespace())
    if args.command == "run" and args.file == args.query == "-":
        _parser().error("the program and the query cannot both be read from stdin")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except _Failure as exc:
        print(exc, file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader went away, as ``head`` does: stop quietly
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # last resort: no step is known to recurse on input depth
        print("error: input nested too deeply: Python recursion limit reached", file=sys.stderr)
        return 1
    except Exception as exc:  # last resort: one line, not a traceback
        print(f"argprof: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
