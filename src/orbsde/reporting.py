"""Deterministic artifact writers: solution CSV, summaries, diagnostics.

Identical inputs must produce byte-identical files: floats are printed
with 17 significant digits (round-trip exact), rows are emitted in
canonical node/mode order, JSON keys are sorted, JSON is strict (a NaN or
infinite value is written as the string "NaN", "Infinity" or
"-Infinity"), and line endings are LF regardless of platform.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Mapping

from .oblique import ObliqueProblem, SystemSolution
from .tree import AdaptedProcess, PredictableIncrements

CSV_HEADER = "node_id,time_index,time,mode,y,dk,da,dm\n"


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _strict(value):
    """``value`` with every non-finite float replaced by its JavaScript
    name as a string (``"NaN"``, ``"Infinity"``, ``"-Infinity"``), which
    strict JSON can carry."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def write_json(path: Path, payload) -> None:
    """``payload`` as strict JSON: sorted keys, two-space indent, and
    non-finite floats as the strings ``"NaN"``, ``"Infinity"`` and
    ``"-Infinity"``."""
    text = json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False)
    write_text(path, text + "\n")


def solution_csv_text(problem: ObliqueProblem, solution: SystemSolution) -> str:
    tree = problem.tree
    lines = [CSV_HEADER]
    for n in tree.nodes:
        for j in range(problem.d):
            lines.append(
                ",".join(
                    (
                        n.node_id,
                        str(n.t),
                        fmt(n.t * tree.dt),
                        str(j),
                        fmt(solution.y[j].values[n.index]),
                        fmt(solution.k[j].values[n.index]),
                        fmt(solution.a[j].values[n.index]),
                        fmt(solution.m_increments[j][n.index]),
                    )
                )
                + "\n"
            )
    return "".join(lines)


def load_solution_csv(path: Path, problem: ObliqueProblem) -> SystemSolution:
    """Rebuild a SystemSolution from a solve-emitted CSV (round-trip exact).

    Strict: every (node, mode) pair must appear exactly once, with a mode in
    range(d) and finite y, dk, da and dm.  Anything else raises ValueError
    naming the node id and the mode.
    """
    tree = problem.tree
    d = problem.d
    cells: list[list[tuple[float, ...] | None]] = [
        [None] * d for _ in range(tree.n_nodes)
    ]
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != CSV_HEADER.strip():
            raise ValueError(f"unexpected solution CSV header: {header!r}")
        for line in fh:
            if not line.strip():
                continue
            fields = line.rstrip("\n").split(",")
            if len(fields) != 8:
                raise ValueError(f"expected 8 fields, got {len(fields)}: {line!r}")
            node_id, _t, _time, mode = fields[:4]
            where = f"node {node_id!r} mode {mode}"
            if not tree.has_node(node_id):
                raise ValueError(f"{where}: unknown node id")
            try:
                j = int(mode)
                values = tuple(float(v) for v in fields[4:])
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from None
            if not 0 <= j < d:
                raise ValueError(f"{where}: mode outside range({d})")
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{where}: non-finite value in {fields[4:]}")
            row = cells[tree.index_of(node_id)]
            if row[j] is not None:
                raise ValueError(f"{where}: duplicate row")
            row[j] = values
    for n in tree.nodes:
        for j in range(d):
            if cells[n.index][j] is None:
                raise ValueError(f"node {n.node_id!r} mode {j}: missing row")
    y, k, a, m = (
        [tuple(row[j][col] for row in cells) for j in range(d)] for col in range(4)
    )
    return SystemSolution(
        y=tuple(AdaptedProcess(tree, vals) for vals in y),
        m_increments=tuple(m),
        k=tuple(PredictableIncrements(tree, vals) for vals in k),
        a=tuple(PredictableIncrements(tree, vals) for vals in a),
        sweeps=0,
        deltas=(),
    )


def summary_text(payload: Mapping) -> str:
    lines = [f"scenario: {payload.get('scenario', '')}"]
    root = payload.get("root_values")
    if root is not None:
        lines.append(
            "root values: "
            + ", ".join(f"Y^{j} = {fmt(v)}" for j, v in enumerate(root))
        )
    for key in ("sweeps", "final_delta", "max_flat_off_residual", "worst_residual"):
        if key in payload:
            val = payload[key]
            lines.append(f"{key.replace('_', ' ')}: "
                         f"{fmt(val) if isinstance(val, float) else val}")
    for line in payload.get("notes", []):
        lines.append(f"note: {line}")
    return "\n".join(lines) + "\n"
