"""Record the picard-coupled root values that `run.py` checks solves against.

    python3 perfbench/record_reference.py

Solves every shock variant at the benchmark's size with ``picard_solve``
and writes ``reference.json``.  Run it only when the benchmark is defined
or its picard-coupled scenario changes, never to make a failing check pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from orbsde.oblique import picard_solve
    from orbsde.scenario import Scenario

    roots: dict[str, list[float]] = {}
    name = ""
    for variant in range(workloads.SHOCK_VARIANTS):
        (_, raw), = workloads.picard_coupled(variant)
        name = raw["name"]
        problem = Scenario.from_dict(raw).build_problem()
        solution = picard_solve(problem)
        roots[str(variant)] = list(solution.y_vector(problem.tree.root))
        print(variant, solution.sweeps, roots[str(variant)], flush=True)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump({name: roots}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
