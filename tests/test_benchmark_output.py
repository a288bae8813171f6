"""The benchmark runner's output contract, on the smallest trees.

Core claim:
    - ``perfbench/run.py`` exits 0 with nothing on standard error, and
      the last line of its standard output is its result, strict JSON
      (no NaN or Infinity), reporting a correct run with no failed
      invocation
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("workload", ["picard-coupled", "penalty-oracle"])
def test_last_stdout_line_is_the_strict_json_result(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1],
                        parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
