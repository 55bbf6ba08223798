"""The benchmark drives the package through its lower-level API (the
visibility relation's pairs, build, greedy_cover); one short traced run
keeps that API working."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_traced_bench_run_is_correct():
    argv = ["--workload", "bowl-dense", "--seed", "1", "--seconds", "0.2", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(BENCH_RUN), *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
