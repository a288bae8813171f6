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
from array import array
from pathlib import Path
from typing import Mapping

import numpy as np

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
    """The solution as CSV, one row per (node, mode) in node/mode order.

    Each column is formatted once: the time per time index, the node id,
    time index and time per node, and y, dk, da and dm per (node, mode)."""
    tree = problem.tree
    times = [fmt(t * tree.dt) for t in range(tree.n_steps + 1)]
    modes = list(enumerate(zip((y.values for y in solution.y),
                               (k.values for k in solution.k),
                               (a.values for a in solution.a),
                               solution.m_increments)))
    lines = [CSV_HEADER]
    for n in tree.nodes:
        head, u = f"{n.node_id},{n.t},{times[n.t]},", n.index
        lines.extend(f"{head}{j},{fmt(y[u])},{fmt(k[u])},{fmt(a[u])},{fmt(m[u])}\n"
                     for j, (y, k, a, m) in modes)
    return "".join(lines)


def load_solution_csv(path: Path, problem: ObliqueProblem) -> SystemSolution:
    """Rebuild a SystemSolution from a solve-emitted CSV (round-trip exact).

    Strict: every (node, mode) pair must appear exactly once, with a mode in
    range(d) and finite y, dk, da and dm.  Anything else raises ValueError
    naming the node id and the mode.  The values fill one ``(n_nodes, 4)``
    array per mode.
    """
    tree = problem.tree
    d = problem.d
    n = tree.n_nodes
    seen = bytearray(d * n)   # slot j * n + u: mode j at node u
    slots, rows = array("q"), array("d")   # the rows read, in file order
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
                values = [float(v) for v in fields[4:]]
            except ValueError as err:
                raise ValueError(f"{where}: {err}") from None
            if not 0 <= j < d:
                raise ValueError(f"{where}: mode outside range({d})")
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{where}: non-finite value in {fields[4:]}")
            slot = j * n + tree.index_of(node_id)
            if seen[slot]:
                raise ValueError(f"{where}: duplicate row")
            seen[slot] = 1
            slots.append(slot)
            rows.extend(values)
    missing = np.argwhere(np.frombuffer(seen, dtype=np.uint8).reshape(d, n).T == 0)
    if missing.size:
        u, j = missing[0].tolist()
        raise ValueError(f"node {tree.node(u).node_id!r} mode {j}: missing row")
    cells = np.zeros((d * n, 4))
    cells[np.frombuffer(slots, dtype=np.int64)] = np.frombuffer(rows).reshape(-1, 4)
    y, k, a, m = (cells[:, col].reshape(d, n).tolist() for col in range(4))
    return SystemSolution(
        y=tuple(AdaptedProcess(tree, tuple(vals)) for vals in y),
        m_increments=tuple(tuple(vals) for vals in m),
        k=tuple(PredictableIncrements(tree, tuple(vals)) for vals in k),
        a=tuple(PredictableIncrements(tree, tuple(vals)) for vals in a),
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
