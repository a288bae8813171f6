"""Seeded scenario generators, the commands of one pass, and output checks.

Each scenario file holds one tree size.  The seed draws only the
predictable shocks (``v_increments``, one sign per parent node and mode),
so every seed gives the same trees, while the answer, the set of node-modes
where the switching obstacle binds and the number of Picard sweeps change
from seed to seed.  Seeds are
taken modulo ``SHOCK_VARIANTS`` so that ``reference.json`` can hold the
root values of every variant.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SHOCK_VARIANTS = 64

PICARD_STEPS = 11            # 4,095 nodes
PENALTY_STEPS = 8            # 511 nodes
ORACLE_BINOMIAL_STEPS = 3    # 15 nodes: 2^14 strategies per start mode
ORACLE_CHAIN_STEPS = 8       # 9 nodes: 3^8 strategies per start mode

ROOT_TOL = 1e-9
LADDER_TOL = 1e-12
PROJECTION_TOL = 1e-3

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def _binomial_parents(steps: int) -> list[str]:
    """Ids of the non-leaf nodes, in the naming ``Scenario.build_tree`` uses."""
    out, frontier = [], ["r"]
    for _ in range(steps):
        out.extend(frontier)
        frontier = [pid + tag for pid in frontier for tag in "du"]
    return out


def _chain_parents(steps: int) -> list[str]:
    return [f"n{k}" for k in range(steps)]


def _shocks(rng: random.Random, parents: list[str], d: int, size: float) -> list[dict]:
    return [{pid: rng.choice((-size, size)) for pid in parents} for _ in range(d)]


def _costs(d: int, c: float) -> list[list[float]]:
    return [[0.0 if j == k else c for k in range(d)] for j in range(d)]


def _rng(seed: int) -> random.Random:
    return random.Random(seed % SHOCK_VARIANTS)


def _switching_system(name: str, steps: int, generators: list[dict],
                      seed: int) -> dict:
    """Three modes on a binomial price tree, costs 0.1, an upper barrier
    linear in time and a price-affine terminal; the seed draws shocks of
    +-0.1 per parent node and mode."""
    d = len(generators)
    up = 1.08
    return {
        "format": 1,
        "name": f"{name}-{steps}",
        "tree": {"kind": "binomial", "steps": steps, "dt": 1.0 / steps,
                 "p_up": 0.5, "x0": 1.0, "up": up, "down": 1.0 / up},
        "modes": d,
        "generators": generators,
        "costs": _costs(d, 0.1),
        "barriers": [{"kind": "linear", "intercept": 1.4, "slope": 1.1}] * d,
        "terminal": {"kind": "price-affine", "a": [0.08, 0.04, 0.0],
                     "b": [1.0, 1.0, 1.0]},
        "v_increments": _shocks(_rng(seed), _binomial_parents(steps), d, 0.1),
    }


def picard_coupled(seed: int, steps: int = PICARD_STEPS) -> list[tuple[str, dict]]:
    generators = [
        {"family": "affine-coupled", "a": 0.1 * j, "b": 0.3,
         "g": [0.0 if k == j else 0.05 for k in range(3)]}
        for j in range(3)
    ]
    return [("picard-coupled",
             _switching_system("picard-coupled", steps, generators, seed))]


TABLE_GRID = [-4.0 + 0.5 * i for i in range(17)]


def _table_profile(level: float) -> list[float]:
    """Nonlinear, strictly decreasing; kinked at every grid point."""
    return [level - 0.4 * x - 0.15 * x * abs(x) for x in TABLE_GRID]


def penalty_table(seed: int, steps: int = PENALTY_STEPS) -> list[tuple[str, dict]]:
    generators = [
        {"family": "table", "times": [0.0, 1.0], "grid": TABLE_GRID,
         "values": [_table_profile(0.1 * j), _table_profile(0.1 * j + 0.2)]}
        for j in range(3)
    ]
    return [("penalty-table",
             _switching_system("penalty-table", steps, generators, seed))]


def oracle_small(seed: int, binomial_steps: int = ORACLE_BINOMIAL_STEPS,
                 chain_steps: int = ORACLE_CHAIN_STEPS) -> list[tuple[str, dict]]:
    rng = _rng(seed)
    cap = max(binomial_steps, chain_steps)
    solver = {"stopping_depth_cap": cap}
    binomial = {
        "format": 1,
        "name": f"oracle-binomial-{binomial_steps}",
        "tree": {"kind": "binomial", "steps": binomial_steps, "dt": 0.5,
                 "p_up": 0.5, "x0": 1.0, "up": 1.2, "down": 0.85},
        "modes": 2,
        "generators": [{"family": "linear", "a": 0.3, "b": 0.2},
                       {"family": "linear", "a": -0.1, "b": 0.1}],
        "costs": [[0.0, 0.15], [0.2, 0.0]],
        "barriers": [{"kind": "constant", "value": 4.0}] * 2,
        "terminal": {"kind": "price-affine", "a": [0.0, 0.05], "b": [1.0, 0.95]},
        "v_increments": _shocks(rng, _binomial_parents(binomial_steps), 2, 0.15),
        "solver": solver,
    }
    chain = {
        "format": 1,
        "name": f"oracle-chain-{chain_steps}",
        "tree": {"kind": "chain", "steps": chain_steps, "dt": 1.0 / chain_steps},
        "modes": 3,
        "generators": [{"family": "linear", "a": 0.1 * j, "b": 0.2 + 0.1 * j}
                       for j in range(3)],
        "costs": _costs(3, 0.1),
        "barriers": [{"kind": "constant", "value": 4.0}] * 3,
        "terminal": {"kind": "table", "values": {f"n{chain_steps}": [1.0, 1.02, 1.04]}},
        "v_increments": _shocks(rng, _chain_parents(chain_steps), 3, 0.15),
        "solver": solver,
    }
    return [("oracle-binomial", binomial), ("oracle-chain", chain)]


# -- one pass of a workload ---------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One ``orbsde`` invocation of a pass.

    ``kind`` names the timing it adds to (``solve``, ``verify`` or
    ``sweep``).  ``output`` must be byte-identical in every pass of a run;
    ``check`` gets the exit code and the output directory and returns the
    problems it found.
    """

    kind: str
    argv: list[str]
    output: Path
    check: Callable[[int | str, Path], list[str]]


@dataclass(frozen=True)
class Workload:
    scenarios: Callable[[int, bool], list[tuple[str, dict]]]   # (seed, tiny)
    commands: Callable[[dict[str, Path], Path, int], list[Command]]


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_solve(seed: int) -> Callable[[int | str, Path], list[str]]:
    def check(code: int | str, out: Path) -> list[str]:
        if code != 0:
            return [f"solve exited {code}"]
        summary = _load_json(out / "summary.json")
        recorded = _load_json(REFERENCE_FILE).get(summary["scenario"])
        if recorded is None:       # sizes other than the benchmark's own
            return []
        roots = summary["root_values"]
        expected = recorded[str(seed % SHOCK_VARIANTS)]
        if len(roots) != len(expected) or not all(
                abs(a - b) <= ROOT_TOL for a, b in zip(roots, expected)):
            return [f"root values {roots} are not within {ROOT_TOL:g} of the "
                    f"recorded {expected}"]
        return []
    return check


def _check_verify(expected_notes: tuple[str, ...]) -> Callable[[int | str, Path], list[str]]:
    def check(code: int | str, out: Path) -> list[str]:
        if code != 0:
            return [f"verify exited {code}"]
        report = _load_json(out / "verification.json")
        return [f"unexpected note: {note}" for note in report["notes"]
                if not note.startswith(expected_notes)]
    return check


def _check_sweep(code: int | str, out: Path) -> list[str]:
    """Criterion 3: monotone in p and q, stiff end close to the projection."""
    if code != 0:
        return [f"sweep-penalization exited {code}"]
    table: dict[int, dict[tuple[float, float], float]] = {}
    projected: dict[int, float] = {}
    with open(out / "penalization.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            mode = int(row["mode"])
            table.setdefault(mode, {})[float(row["p"]), float(row["q"])] = float(row["root_y"])
            projected[mode] = float(row["projected_root_y"])
    problems = []
    for mode, values in table.items():
        ladder = sorted({p for p, _ in values})
        for fixed in ladder:
            along_p = [values[p, fixed] for p in ladder]
            along_q = [values[fixed, q] for q in ladder]
            if any(b < a - LADDER_TOL for a, b in zip(along_p, along_p[1:])):
                problems.append(f"mode {mode}: root decreases in p at q={fixed:g}")
            if any(b > a + LADDER_TOL for a, b in zip(along_q, along_q[1:])):
                problems.append(f"mode {mode}: root increases in q at p={fixed:g}")
        stiff = values[ladder[-1], ladder[-1]]
        if not abs(stiff - projected[mode]) <= PROJECTION_TOL:
            problems.append(f"mode {mode}: stiff root {stiff!r} is not within "
                            f"{PROJECTION_TOL:g} of the projected {projected[mode]!r}")
    if not table:
        problems.append("penalization.csv has no rows")
    return problems


def _picard_commands(files: dict[str, Path], work: Path, seed: int) -> list[Command]:
    scenario = str(files["picard-coupled"])
    solved, verified = work / "solve", work / "verify"
    csv_path = solved / "solution.csv"
    return [
        Command("solve", ["solve", scenario, "--out", str(solved)],
                csv_path, _check_solve(seed)),
        # the enumeration oracles refuse this size by their caps
        Command("verify", ["verify", scenario, "--solution", str(csv_path),
                           "--out", str(verified)],
                verified / "verification.json",
                _check_verify(("representation check skipped: subtree depth",
                               "brute-force cross-check skipped: generators "
                               "are coupled"))),
    ]


def _penalty_commands(files: dict[str, Path], work: Path, seed: int) -> list[Command]:
    out = work / "sweep"
    return [Command("sweep", ["sweep-penalization", str(files["penalty-table"]),
                              "--out", str(out)],
                    out / "penalization.csv", _check_sweep)]


def _oracle_commands(files: dict[str, Path], work: Path, seed: int) -> list[Command]:
    commands = []
    for label in ("oracle-binomial", "oracle-chain"):
        out = work / label
        commands.append(Command("verify", ["verify", str(files[label]),
                                           "--out", str(out)],
                                out / "verification.json", _check_verify(())))
    return commands


def _penalty_oracle_commands(files: dict[str, Path], work: Path,
                             seed: int) -> list[Command]:
    return _penalty_commands(files, work, seed) + _oracle_commands(files, work, seed)


# Two workloads rather than one per command, so that runs can be 60 s long:
# the machine's speed drifts over minutes, and a longer run averages more
# of that drift.  penalty-oracle still keeps the penalized kernel and the
# enumeration oracles apart from the Picard path of picard-coupled.
WORKLOADS = {
    "picard-coupled": Workload(
        lambda seed, tiny: picard_coupled(seed, 3 if tiny else PICARD_STEPS),
        _picard_commands),
    "penalty-oracle": Workload(
        lambda seed, tiny: (penalty_table(seed, 3) + oracle_small(seed, 2, 3) if tiny
                            else penalty_table(seed) + oracle_small(seed)),
        _penalty_oracle_commands),
}
