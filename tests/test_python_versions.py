"""The command line on the other Python versions the project supports.

pyproject.toml declares ``requires-python >= 3.10``. For each of
python3.10, python3.12 and python3.13 that can be started from PATH
(directly, or through pyenv when PATH holds its shims), run
``python -m argprof.cli`` with ``analyze --json`` and ``normalize`` on
every fixture, and ``analyze`` on a few malformed programs, and require
the exit code, stdout and stderr of the in-process run. The child needs
only the standard library, and ``-m`` runs ``main`` as the entry point
does.
"""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from argprof.cli import main
from helpers import FIXTURES, fixture_names

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = [["analyze", "--json"], ["normalize"]]
# Diagnostics: a lexical error, a parse error at the end of the input, and
# one at the '%' of a final comment with no newline.
MALFORMED = {
    "lex_error.lp": ":- pred p(in).\np(X) :- X => @nil.\n",
    "end_of_input.lp": ":- pred p(in).\np(X)",
    "final_comment.lp": ":- pred p(in).\np(X) :- X => nil % no period",
}


def _interpreter(version: str) -> str | None:
    """A runnable ``python<version>``, or None."""
    name = f"python{version}"
    candidates = [shutil.which(name)]
    if shutil.which("pyenv"):
        found = subprocess.run(["pyenv", "whence", "--path", name], capture_output=True, text=True)
        candidates += found.stdout.split()
    # The interpreter's own path skips a shim's start-up on every later run.
    probe = "import sys; print('%d.%d' % sys.version_info[:2], sys.executable)"
    for exe in filter(None, candidates):
        ran = subprocess.run([exe, "-c", probe], capture_output=True, text=True)
        found_version, _, path = ran.stdout.strip().partition(" ")
        if ran.returncode == 0 and found_version == version:
            return path or exe
    return None


def _in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_cli_output_matches_on_other_python_versions(version, tmp_path):
    if sys.version_info[:2] == tuple(map(int, version.split("."))):
        pytest.skip(f"python{version} runs this suite")
    exe = _interpreter(version)
    if exe is None:
        pytest.skip(f"python{version} is not on PATH")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    calls = [[*command, str(FIXTURES / name)] for name in fixture_names() for command in COMMANDS]
    for name, text in MALFORMED.items():
        (tmp_path / name).write_text(text)
        calls.append(["analyze", str(tmp_path / name)])

    def child(argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([exe, "-m", "argprof.cli", *argv], capture_output=True, text=True, env=env)

    with ThreadPoolExecutor(max_workers=2) as pool:  # two children at a time
        for argv, ran in zip(calls, pool.map(child, calls)):
            expected = _in_process(argv)
            assert expected[0] == (Path(argv[-1]).name in MALFORMED), (argv, expected)
            assert (ran.returncode, ran.stdout, ran.stderr) == expected, argv
