"""Frozen copy of the random program generator behind the test-07 corpus.

``gen_program_source`` is kept byte-for-byte equivalent to the generator of
the same name in ``tests/helpers.py`` as it stood when this benchmark was
defined, so the ``corpus`` workload stays the same 200 programs even if the
test helpers change. ``selftest.py`` checks the equivalence.
"""

from __future__ import annotations

import random

CORPUS_SEED = 0xBEEF
CORPUS_SIZE = 200


def gen_corpus(seed: int = CORPUS_SEED, count: int = CORPUS_SIZE) -> list[str]:
    """The sources of ``count`` programs drawn from one generator seeded
    with ``seed``, in generation order (the test-07 corpus by default)."""
    rng = random.Random(seed)
    return [gen_program_source(rng) for _ in range(count)]


_FUNCTORS = [("nil", 0), ("cons", 2), ("z", 0), ("s", 1), ("pair", 2)]


def gen_program_source(rng: random.Random, max_preds: int = 6, max_args: int = 5, max_atoms: int = 12) -> str:
    """Emit the source of a random valid program.

    Bodies are built left to right against a bound-variable set, so mode
    checking succeeds; calls target earlier predicates or the predicate
    itself, so recursion is always direct.
    """
    lines: list[str] = []
    defined: list[tuple[str, tuple[str, ...]]] = []  # (name, modes)
    n_preds = rng.randint(1, max_preds)
    for k in range(n_preds):
        name = f"p{k}"
        arity = rng.randint(1, max_args)
        modes = tuple(rng.choice(("in", "out")) for _ in range(arity))
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
                    candidates = list(defined)
                    if rng.random() < 0.5:
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
        defined.append((name, modes))
    return "\n".join(lines) + "\n"
