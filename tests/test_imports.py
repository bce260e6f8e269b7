"""Every name a module of the package imports is used in that module.

``__init__.py`` is left out: it imports names to export them. A name counts
as used when it appears as a name anywhere in the module's syntax tree,
annotations included, other than in its import.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "argprof"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, None] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = None
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from os import path, sep\nimport re\nimport json as j\nprint(sep, j)\n"
    assert _unused_imports(source) == ["path", "re"]


def test_every_imported_name_is_used():
    unused = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(path.read_text(encoding="utf-8"))
    }
    assert unused == set()
