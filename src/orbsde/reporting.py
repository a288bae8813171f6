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


# nodes per block of the CSV writer: each block's rows are one template,
# and its values are formatted into it in one pass.  Small blocks keep the
# templates and value tuples small: one template for the whole file raised
# the writer's traced peak from 2.3 to 3.8 MB at 4,095 nodes and 3 modes
FORMAT_BLOCK = 256


def solution_csv_text(problem: ObliqueProblem, solution: SystemSolution) -> str:
    """The solution as CSV, one row per (node, mode) in node/mode order.

    The rows are written a block of FORMAT_BLOCK nodes at a time: the node
    id, time index, time and mode of each row are joined into one
    template, and the rows' y, dk, da and dm values, read off the arrays,
    are formatted into it in one ``"%.17g"`` pass (the digits of
    :func:`fmt`)."""
    tree = problem.tree
    times = [fmt(t * tree.dt) for t in range(tree.n_steps + 1)]
    ids, time = tree.ids, tree.arrays.time.tolist()
    modes = [f"{j}," for j in range(problem.d)]
    values = np.stack((solution.y_columns, solution.k_columns, solution.a_columns,
                       solution.m_columns), axis=2)
    row = "%.17g,%.17g,%.17g,%.17g\n"
    pieces = [CSV_HEADER]
    for at in range(0, tree.n_nodes, FORMAT_BLOCK):
        block = slice(at, at + FORMAT_BLOCK)
        heads = [f"{node_id.replace('%', '%%')},{t},{times[t]},{mode}"
                 for node_id, t in zip(ids[block], time[block]) for mode in modes]
        heads.append("")   # the template ends with the last row's values
        pieces.append(row.join(heads) % tuple(values[block].ravel().tolist()))
    return "".join(pieces)


# the size hint, in characters, of one block of lines of the fast load path
LOAD_BLOCK = 1 << 16


def load_solution_csv(path: Path, problem: ObliqueProblem) -> SystemSolution:
    """Rebuild a SystemSolution from a solve-emitted CSV (round-trip exact).

    Strict: every (node, mode) pair must appear exactly once, with a mode in
    range(d) and finite y, dk, da and dm.  Anything else raises ValueError
    naming the node id and the mode.

    A file whose rows are exactly the canonical ones, as ``solve`` writes
    them, loads on a fast path (:func:`_load_canonical`); any other file is
    read again from the start row by row (:func:`_load_rows`), which gives
    every error message.  The two paths parse values with ``float`` alike,
    so they give the same bits.
    """
    columns = _load_canonical(path, problem)
    if columns is None:
        columns = _load_rows(path, problem)
    return SystemSolution(problem.tree, *columns)


def _load_canonical(path: Path, problem: ObliqueProblem) -> tuple | None:
    """The ``(n_nodes, d)`` arrays Y, dK, dA and dM of a file whose rows are
    exactly the canonical rows in order, or None.

    The lines are read in blocks of about LOAD_BLOCK characters; each block
    is split into fields with one join and one split.  Its lines are rows
    of 8 fields when the fields number 8 per line and each line's break
    falls in a dm field (a line without one, the file's last, falls back).
    Its id and mode columns must equal those of the canonical rows it
    stands for, the modes spelled ``str(j)``; its values must parse with
    ``float``, and every value must be finite.  The time columns are not
    read, as the row-by-row loader does not read them.
    """
    tree, d = problem.tree, problem.d
    size = tree.n_nodes * d
    ids = [node_id for node_id in tree.ids for _ in range(d)]
    modes = [str(j) for j in range(d)] * tree.n_nodes
    values = np.empty((4, size))
    at = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().strip() != CSV_HEADER.strip():
                return None
            while lines := fh.readlines(LOAD_BLOCK):
                end = at + len(lines)
                fields = ",".join(lines).split(",")
                if (len(fields) != 8 * len(lines)
                        or "".join(fields[7::8]).count("\n") != len(lines)
                        or fields[0::8] != ids[at:end] or fields[3::8] != modes[at:end]):
                    return None
                for col in range(4):
                    values[col, at:end] = list(map(float, fields[4 + col::8]))
                at = end
    except (OSError, ValueError):   # the row-by-row loader says what went wrong
        return None
    if at != size or not np.isfinite(values).all():
        return None
    return tuple(values.reshape(4, tree.n_nodes, d))


def _load_rows(path: Path, problem: ObliqueProblem) -> tuple:
    """The ``(n_nodes, d)`` arrays Y, dK, dA and dM of any file, read row by
    row; raises ValueError naming the node id and the mode of the first
    row in the file that is refused, or of the first missing pair."""
    tree = problem.tree
    d = problem.d
    n = tree.n_nodes
    find = tree.index_map.get
    modes = {str(j): j for j in range(d)}   # other spellings go through int()
    isfinite = math.isfinite
    seen = bytearray(d * n)   # slot j * n + u: mode j at node u
    slots, rows = array("q"), array("d")   # the rows read, in file order
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != CSV_HEADER.strip():
            raise ValueError(f"unexpected solution CSV header: {header!r}")
        for line in fh:
            fields = line.rstrip("\n").split(",")
            if len(fields) != 8:
                if not line.strip():
                    continue
                raise ValueError(f"expected 8 fields, got {len(fields)}: {line!r}")
            node_id, _t, _time, mode, y, k, a, m = fields
            u = find(node_id)
            if u is None:
                raise ValueError(f"node {node_id!r} mode {mode}: unknown node id")
            j = modes.get(mode)
            try:
                if j is None:
                    j = int(mode)
                y, k, a, m = float(y), float(k), float(a), float(m)
            except ValueError as err:
                raise ValueError(f"node {node_id!r} mode {mode}: {err}") from None
            if not 0 <= j < d:
                raise ValueError(f"node {node_id!r} mode {mode}: mode outside range({d})")
            # a sum of finite values can overflow, so look again before failing
            if not isfinite(y + k + a + m) and not all(map(isfinite, (y, k, a, m))):
                raise ValueError(f"node {node_id!r} mode {mode}: "
                                 f"non-finite value in {fields[4:]}")
            slot = j * n + u
            if seen[slot]:
                raise ValueError(f"node {node_id!r} mode {mode}: duplicate row")
            seen[slot] = 1
            slots.append(slot)
            rows.extend((y, k, a, m))
    missing = np.argwhere(np.frombuffer(seen, dtype=np.uint8).reshape(d, n).T == 0)
    if missing.size:
        u, j = missing[0].tolist()
        raise ValueError(f"node {tree.ids[u]!r} mode {j}: missing row")
    cells = np.zeros((d * n, 4))
    cells[np.frombuffer(slots, dtype=np.int64)] = np.frombuffer(rows).reshape(-1, 4)
    return tuple(np.ascontiguousarray(cells[:, col].reshape(d, n).T) for col in range(4))


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
