"""``argprof`` as the writer of a pipe whose reader stops early."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from helpers import chain_source

SRC = Path(__file__).resolve().parent.parent / "src"


def test_closed_stdout_ends_quietly_with_exit_1(tmp_path):
    # The chain-6 report is megabytes long, far more than a pipe buffers, so
    # the writer is still writing when the reader closes its end.
    path = tmp_path / "chain6.lp"
    path.write_text(chain_source(6))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "argprof.cli", "analyze", "--json", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert head == [b"{\n", b'  "predicates": [\n', b"    {\n"]
    assert err == b""
