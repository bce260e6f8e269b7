"""Spans around calls into argprof's public functions, from the outside.

``Tracer.install`` wraps each target function and rebinds the wrapper under
every name that held the original in any ``argprof`` module. Rebinding
everywhere matters because ``from .domain import canon_op`` copies the
binding: wrapping ``argprof.domain.canon_op`` alone would miss the calls
made through ``argprof.cli.canon_op``. Calls a module makes to its own
functions go through its globals, so they are seen as well, recursion
included. Only values bound as default arguments at definition time (such
as ``order=compare_profiles``) escape.

Each span records its target, start and end (``perf_counter_ns``), the span
that was open when it began, the item being run and one integer taken from
the result (a length, or 0). Spans stay in column arrays until the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

# (module, function, value taken from the result or None, recursion group).
# A call made while a span of its own recursion group is open is not
# recorded: the enclosing span already covers it. This keeps the span count
# proportional to the calls a caller makes rather than to the size of the
# nested canonical strings being built.
TARGETS: tuple[tuple[str, str, Callable | None, str | None], ...] = (
    ("argprof.cli", "main", None, None),
    ("argprof.parse", "tokenize", len, None),
    ("argprof.parse", "parse_program", None, None),
    ("argprof.parse", "parse_query", None, None),
    ("argprof.modecheck", "validate_program", None, None),
    ("argprof.analysis", "run_analysis", None, None),
    ("argprof.analysis", "analyze_predicate", None, None),
    ("argprof.analysis", "analyze_atom", None, None),
    ("argprof.analysis", "transitive_closure", len, None),
    ("argprof.domain", "join_interaction", None, None),
    ("argprof.domain", "join_sets", None, None),
    ("argprof.domain", "canon_op", len, "canon"),
    ("argprof.domain", "canon_profile", None, "canon"),
    ("argprof.domain", "canon_profile_seq", None, "canon"),
    ("argprof.domain", "strip_points", None, None),
    ("argprof.ordering", "oprof", None, None),
    ("argprof.ordering", "features", None, None),
    ("argprof.ordering", "compare_profiles", None, None),
    ("argprof.normalize", "plan", None, None),
    ("argprof.normalize", "rewrite", None, None),
    ("argprof.normalize", "compare", None, None),
    ("argprof.syntax", "format_program", None, None),
    ("argprof.interp", "solve", len, None),
)

NO_PARENT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # "module.function" per installed target
        self.absent: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.item = array("i")
        self.value = array("q")
        self.item_ids: list[str] = []
        self.current_item = -1
        self._open = NO_PARENT
        self._group: list[str | None] = []  # recursion group per name id
        self._bindings: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def begin_item(self, item_id: str) -> None:
        self.item_ids.append(item_id)
        self.current_item = len(self.item_ids) - 1

    def _wrap(self, fn: Callable, nid: int, measure: Callable | None) -> Callable:
        t = self
        name_id, start, end, parent, item, value = (
            t.name_id, t.start, t.end, t.parent, t.item, t.value
        )
        group = self._group[nid]
        same_group = [i for i, g in enumerate(self._group) if g is not None and g == group]

        def traced(*args, **kwargs):
            if same_group and t._open != NO_PARENT and name_id[t._open] in same_group:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            start.append(0)
            end.append(0)
            parent.append(t._open)
            item.append(t.current_item)
            value.append(0)
            outer, t._open = t._open, idx
            start[idx] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                t._open = outer
            if measure is not None:
                value[idx] = measure(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "argprof"]
        found = []
        for module_name, attr, measure, group in TARGETS:
            try:
                fn = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                fn = None
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self.names.append(f"{module_name.removeprefix('argprof.')}.{attr}")
            self._group.append(group)
            found.append((fn, measure))
        for nid, (fn, measure) in enumerate(found):
            wrapper = self._wrap(fn, nid, measure)
            for module in modules:
                for key, val in list(vars(module).items()):
                    if val is fn:
                        self._bindings.append((module, key, fn))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._bindings):
            setattr(module, key, fn)
        self._bindings.clear()

    # -- analysis -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def duration(self, i: int) -> int:
        return self.end[i] - self.start[i]

    def self_times(self) -> list[int]:
        """Per span: its duration minus the part its child spans cover.
        Children of one span never overlap (one thread), so that part is
        the sum of their durations."""
        child = [0] * len(self)
        for i, p in enumerate(self.parent):
            if p != NO_PARENT:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self))]

    def outer_times(self, groups: dict[str, set[str]]) -> dict[str, int]:
        """Per group of target names: the time inside any of them, counting a
        span nested in another span of the same group only once. That is the
        summed duration of the group's spans with no ancestor in the group.
        Groups must not share targets."""
        group_of = {self.names.index(n): g for g, names in groups.items()
                    for n in names if n in self.names}
        totals = dict.fromkeys(groups, 0)
        # Per span, the groups it lies within (itself included).
        within: list[frozenset] = [frozenset()] * len(self)
        empty = frozenset()
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        for i in range(len(self)):
            p = parent[i]
            enclosing = within[p] if p != NO_PARENT else empty
            g = group_of.get(name_id[i])
            if g is None:
                within[i] = enclosing
            elif g in enclosing:
                within[i] = enclosing
            else:
                within[i] = enclosing | {g}
                totals[g] += end[i] - start[i]
        return totals

    def spans_of(self, name: str) -> list[int]:
        if name not in self.names:
            return []
        nid = self.names.index(name)
        return [i for i, n in enumerate(self.name_id) if n == nid]

    def write(self, path: Path) -> None:
        """Write the spans as gzip-compressed JSON columns; starts are in ns
        from the first span, ends are given as durations."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self) else 0
        doc = {
            "names": self.names,
            "absent": self.absent,
            "items": self.item_ids,
            "name": self.name_id.tolist(),
            "start_ns": [t - origin for t in self.start],
            "duration_ns": [e - s for s, e in zip(self.start, self.end)],
            "parent": self.parent.tolist(),
            "item": self.item.tolist(),
            "value": self.value.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(doc, handle, separators=(",", ":"))
