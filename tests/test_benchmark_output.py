"""The benchmark runner's output contract, on the smallest trees.

Core claim:
    - ``perfbench/run.py`` exits 0 with nothing on standard error, and
      the last line of its standard output is its result, strict JSON
      (no NaN or Infinity), reporting a correct run with no failed
      invocation
    - traced (``--trace 1``), that result gives a finite number for every
      per-layer metric ``BENCHMARK.json`` declares: a layer entry point
      renamed away would read as null
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _result(workload: str, *flags: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0", "--tiny", *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1],
                        parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", ["picard-coupled", "penalty-oracle"])
def test_last_stdout_line_is_the_strict_json_result(workload):
    _result(workload)


@pytest.mark.parametrize("workload", ["picard-coupled", "penalty-oracle"])
def test_traced_result_measures_every_layer(workload):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = _result(workload, "--trace", "1")["metrics"]
    values = {item["name"]: metrics.get(item["name"], {}).get("value")
              for item in declared}
    assert len(values) == 43
    unmeasured = sorted(name for name, value in values.items()
                        if not (isinstance(value, (int, float))
                                and math.isfinite(value)))
    assert unmeasured == []
