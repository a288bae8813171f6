"""Print one digest line per CLI invocation of a fixed set, to diff two checkouts.

    python tests/output_digests.py > digests.txt

Run it in each checkout (the package is imported from the checkout's own
``src/``) and ``diff`` the two files: a change meant to keep every output
byte-identical must print the same lines.  pytest does not collect this
file (its name does not start with ``test_``).

The invocations run in process through ``orbsde.cli.main``: ``solve``,
``verify``, ``verify --solution``, ``sweep-penalization`` and
``brute-force`` on the bundled scenarios, on scenarios of the
benchmark's shapes (``perfbench/workloads.py``) at several seeds and
sizes and on an explicit tree (terminal table or price-affine),
``verify --solution`` on solution files edited in every way the loader
must either read exactly as before or refuse with the same message, and
on switch2x2 files edited to break each minimality check (and all of
them at once) and an oracle-binomial file whose two modes bind in a
cycle, so that the violation messages and their order are digested,
scenarios the commands refuse, oracle-chain with each input of the
scenario-to-problem path edited (accepted or refused), the oracle shapes
with start mode 1 refused (not mode 0) under ``brute-force`` and
``verify --solution``, and switch2x2 with a barrier given as a node
table (whole, and missing a node).  A line holds the
invocation's label, its exit code (or the exception that escaped
``main``), a hash of what it wrote to stderr, the warnings it raised, and
a hash of each file it wrote.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from orbsde.cli import main  # noqa: E402

import workloads  # noqa: E402


def _hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def invoke(label: str, argv: list, out: Path) -> str:
    """Run ``orbsde argv --out out`` and return its digest line."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as seen, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = str(main([str(a) for a in argv] + ["--out", str(out)]))
        except BaseException as exc:   # a traceback: record it, keep going
            code = f"raised {type(exc).__name__}: {exc}"
    parts = [label, f"exit={code}", f"stderr={_hash(err.getvalue().encode())}"]
    if seen:
        parts.append("warnings=" + "|".join(
            f"{w.category.__name__}: {w.message}" for w in seen))
    if out.is_dir():
        parts.extend(f"{path.name}={_hash(path.read_bytes())}"
                     for path in sorted(out.iterdir()))
    return " ".join(parts)


def _edits(text: str) -> dict[str, str]:
    """Solution files the loader must read as before or refuse as before:
    each an edit of a solve-emitted ``text``."""
    header, *rows = text.splitlines(keepends=True)

    def cells(row: str) -> list[str]:
        return row.rstrip("\n").split(",")

    def with_field(i: int, col: int, value: str) -> str:
        fields = cells(rows[i])
        fields[col] = value
        return header + "".join(rows[:i] + [",".join(fields) + "\n"] + rows[i + 1:])

    last = len(rows) - 1
    second = cells(rows[1])
    return {
        "as-written": text,
        "swapped-rows": header + "".join([rows[1], rows[0]] + rows[2:]),
        "reversed-rows": header + "".join(reversed(rows)),
        "crlf": text.replace("\n", "\r\n"),
        "trailing-blank": text + "\n",
        "blank-inside": header + "".join(rows[:2] + ["\n"] + rows[2:]),
        "no-final-newline": text.rstrip("\n"),
        "padded-value": with_field(1, 4, " " + second[4] + " "),
        "underscore-value": with_field(1, 4, "1_5"),
        "edited-times": header + "".join(
            ",".join(cells(r)[:1] + ["7", "0.25"] + cells(r)[3:]) + "\n" for r in rows),
        "mode-01": with_field(1, 3, "0" + second[3]),
        "mode-space": with_field(1, 3, " " + second[3]),
        "mode-1.0": with_field(1, 3, second[3] + ".0"),
        "mode-out-of-range": with_field(1, 3, "9"),
        "duplicate-row": header + "".join(rows[:2] + [rows[1]] + rows[3:]),
        "missing-row": header + "".join(rows[:last]),
        "extra-row": text + rows[0],
        "unknown-node": with_field(1, 0, "nowhere"),
        "seven-fields": header + "".join(rows[:1] + [",".join(second[:7]) + "\n"]
                                         + rows[2:]),
        "nine-fields": header + "".join(rows[:1] + [",".join(second + ["0"]) + "\n"]
                                        + rows[2:]),
        "nan-value": with_field(1, 4, "nan"),
        "inf-dm": with_field(last, 7, "inf"),
        "overflowing-value": with_field(1, 5, "1e309"),
        "word-value": with_field(1, 6, "one"),
        "empty-value": with_field(1, 7, ""),
        "dk-at-root": with_field(0, 5, "0.5"),
        "dk-one-sibling": with_field(last, 5, "0.25"),
        "da-one-sibling": with_field(last, 6, "0.25"),
        "bad-header": "node,t,time,mode,y,dk,da,dm\n" + "".join(rows),
        "header-only": header,
        "empty": "",
    }


def _set_cells(text: str, changes: list[tuple[list[str], int, str, Callable]]) -> str:
    """A solution file with, for each ``(nodes, mode, column, change)``,
    the column (y, dk, da or dm) of each node's row of the mode replaced
    by ``change`` of its value."""
    header, *rows = text.splitlines(keepends=True)
    cells = [row.rstrip("\n").split(",") for row in rows]
    at = {(fields[0], int(fields[3])): fields for fields in cells}
    for nodes, mode, column, change in changes:
        col = ("y", "dk", "da", "dm").index(column) + 4
        for node in nodes:
            at[node, mode][col] = repr(change(float(at[node, mode][col])))
    return header + "".join(",".join(fields) + "\n" for fields in cells)


def _minimality_edits(text: str) -> dict[str, str]:
    """switch2x2 solution files edited to break each check of
    ``verify_minimality`` (a push edited on both children of a parent, so
    that the loader reads it), and all of these edits at once."""
    checks = {
        "sandwich-lower": (["r"], 0, "y", lambda y: -5.0),
        "sandwich-upper": (["ru"], 1, "y", lambda y: 5.0),
        "increment-sign": (["rd", "ru"], 0, "dk", lambda dk: -0.25),
        "flat-off-lower": (["rd", "ru"], 1, "dk", lambda dk: 0.25),
        "flat-off-upper": (["rd", "ru"], 0, "da", lambda da: 0.25),
        "identity": (["rdd"], 0, "y", lambda y: y + 0.01),
        "martingale": (["rdd", "rdu"], 1, "dm", lambda dm: dm + 0.125),
    }
    edits = {name: _set_cells(text, [change]) for name, change in checks.items()}
    edits["all-minimality"] = _set_cells(text, list(checks.values()))
    return edits


def _binding_cycle() -> tuple[str, dict, dict]:
    """(label, scenario, edited scenario) of oracle-binomial and of the
    same with switching costs of 1e-11 and one terminal for both modes
    (valid: d = 2 has no triangle).  The edited scenario runs under
    ``verify --solution`` with the first one's solution, its root row
    made equal in both modes, where the two modes then bind in a cycle."""
    spec = dict(workloads.oracle_small(1))["oracle-binomial"]
    edited = copy.deepcopy(spec)
    edited["costs"] = [[0.0, 1e-11], [1e-11, 0.0]]
    edited["terminal"] = {"kind": "price-affine", "a": [0.0, 0.0], "b": [1.0, 1.0]}
    return "oracle-binomial-binding-cycle", spec, edited


def _explicit() -> list[tuple[str, dict]]:
    """Two modes on an explicit tree of 1, 2 and 3 children per parent, its
    nodes listed out of index order: with a terminal table (and a vector
    at a non-leaf, ignored) and with a price-affine terminal on the nodes'
    prices; v increments of mode 0 at every parent and at a leaf
    (ignored), of mode 1 at two parents."""
    nodes = [{"id": "r", "t": 0, "price": 1.0},
             {"id": "b", "t": 1, "parent": "r", "p": 0.3, "price": 1.0},
             {"id": "a", "t": 1, "parent": "r", "p": 0.3, "price": 1.15},
             {"id": "c", "t": 1, "parent": "r", "p": 0.4, "price": 0.9},
             {"id": "ab", "t": 2, "parent": "a", "p": 0.5, "price": 1.1},
             {"id": "aa", "t": 2, "parent": "a", "p": 0.5, "price": 1.3},
             {"id": "ba", "t": 2, "parent": "b", "p": 1.0},
             {"id": "cc", "t": 2, "parent": "c", "p": 0.5, "price": 0.7},
             {"id": "ca", "t": 2, "parent": "c", "p": 0.2, "price": 1.05},
             {"id": "cb", "t": 2, "parent": "c", "p": 0.3, "price": 0.85}]
    table = {"cc": [0.8, 0.78], "aa": [1.35, 1.3], "ab": [1.1, 1.12], "a": [9.0, 9.0],
             "ba": [1.0, 0.95], "ca": [1.02, 1.0], "cb": [0.9, 0.93]}
    spec = {
        "format": 1,
        "name": "explicit-2",
        "tree": {"kind": "explicit", "dt": 0.5, "nodes": nodes},
        "modes": 2,
        "generators": [{"family": "linear", "a": 0.3, "b": 0.2},
                       {"family": "linear", "a": -0.1, "b": 0.1}],
        "costs": [[0.0, 0.15], [0.2, 0.0]],
        "barriers": [{"kind": "constant", "value": 4.0}] * 2,
        "terminal": {"kind": "table", "values": table},
        "v_increments": [{"c": 0.1, "r": 0.1, "a": -0.15, "b": 0.05, "aa": 0.3},
                         {"c": -0.1, "r": 0.0}],
    }
    priced = copy.deepcopy(spec)
    priced["terminal"] = {"kind": "price-affine", "a": [0.0, 0.05], "b": [1.0, 0.95]}
    return [("explicit-table", spec), ("explicit-price", priced)]


def _scenarios() -> list[tuple[str, dict]]:
    bundled = [(path.stem, json.loads(path.read_text()))
               for path in sorted((ROOT / "scenarios").glob("*.json"))]
    shaped = []
    for seed in (1, 2, 3, 5):
        shaped += [(f"{name}-s{seed}", spec)
                   for name, spec in workloads.picard_coupled(seed, 5)
                   + workloads.penalty_table(seed, 4)
                   + workloads.oracle_small(seed)]
    for seed in (1, 7):
        shaped += [(f"{name}-11-s{seed}", spec)
                   for name, spec in workloads.picard_coupled(seed)]
    for seed in (1, 2, 7):
        shaped += [(f"{name}-8-s{seed}", spec)
                   for name, spec in workloads.penalty_table(seed)]
    return bundled + shaped + _explicit()


def _refused() -> list[tuple[str, str, dict]]:
    """(label, command, scenario) of inputs at the edge of what the commands
    accept: all but one of them refused."""
    oracle = dict(workloads.oracle_small(1))
    cases = []
    chain = copy.deepcopy(oracle["oracle-chain"])
    chain["v_increments"][1]["n0"] = -1e308
    cases += [("chain-v-1e308", cmd, chain) for cmd in ("brute-force", "verify")]
    binomial = copy.deepcopy(oracle["oracle-binomial"])
    binomial["costs"][0][1] = 1e308
    cases += [("binomial-cost-1e308", cmd, binomial) for cmd in ("verify", "solve")]
    price = copy.deepcopy(oracle["oracle-binomial"])
    price["tree"]["up"] = 1e200
    cases += [("binomial-up-1e200", cmd, price) for cmd in ("solve", "verify")]
    nan_v = copy.deepcopy(oracle["oracle-binomial"])
    nan_v["v_increments"][0]["r"] = float("nan")
    cases.append(("binomial-v-nan", "solve", nan_v))
    huge = copy.deepcopy(oracle["oracle-chain"])
    huge["costs"][1][2] = 1e308
    cases.append(("chain-cost-1e308", "verify", huge))
    # the scenario parser refuses every generator family that is not
    # monotone, so the CLI reaches the generator probes' findings through an
    # overflow at the probe points
    steep = copy.deepcopy(oracle["oracle-chain"])
    steep["generators"][2]["b"] = 1e308
    cases += [("chain-b-1e308", cmd, steep)
              for cmd in ("solve", "verify", "brute-force")]
    # accepted, not refused: a table row must not increase, so 1e308 fits
    # only at the grid's left end, and no probe point falls in its segment
    (_, table), = workloads.penalty_table(1, 4)
    table = copy.deepcopy(table)
    table["generators"][0]["values"][0][0] = 1e308
    cases.append(("table-value-1e308", "sweep-penalization", table))
    return cases + _build_path()


def _build_path() -> list[tuple[str, str, dict]]:
    """(label, command, scenario) of oracle-chain with one input of the
    scenario-to-problem path edited: v increments that float() reads
    ("nan" then refused by the validator) or refuses, a list in place of
    a map, an increment keyed at a leaf or at an unknown node, and a
    terminal table that misses the leaf or holds a 2-entry vector."""
    base = dict(workloads.oracle_small(1))["oracle-chain"]

    def v_out_of_n0(value):
        return lambda spec: spec["v_increments"][0].__setitem__("n0", value)

    edits = {
        "v-1.5": v_out_of_n0("1.5"), "v-1_5": v_out_of_n0("1_5"),
        "v-nan": v_out_of_n0("nan"), "v-true": v_out_of_n0(True),
        "v-x": v_out_of_n0("x"), "v-null": v_out_of_n0(None),
        "v-list": v_out_of_n0([1]), "v-10**400": v_out_of_n0(10**400),
        "v-at-leaf": lambda spec: spec["v_increments"][0].__setitem__("n8", 0.5),
        "v-a-list": lambda spec: spec["v_increments"].__setitem__(0, [0.1]),
        "v-unknown-node": lambda spec: spec["v_increments"][0].__setitem__("zz", 0.5),
        "terminal-misses-leaf": lambda spec: spec["terminal"].__setitem__(
            "values", {"n7": [1.0, 1.0, 1.0]}),
        "terminal-2-entries": lambda spec: spec["terminal"]["values"].__setitem__(
            "n8", [1.0, 1.02]),
    }
    cases = []
    for name, edit in edits.items():
        spec = copy.deepcopy(base)
        edit(spec)
        cases.append((f"oracle-chain-{name}", "solve", spec))
    return cases


def _start_mode_1_refused() -> list[tuple[str, dict, dict]]:
    """(label, scenario, edited scenario) of the two oracle shapes with a
    drift of -1e308 into mode 1's first edge: every strategy that starts in
    mode 1 is refused (``strategy-values``), start mode 0 is not.  The
    edited scenario runs under ``brute-force`` and under ``verify
    --solution`` with the solution of the unedited one, so the refusal
    comes after start mode 0's checks."""
    cases = []
    for name, first in (("oracle-binomial", "r"), ("oracle-chain", "n0")):
        spec = dict(workloads.oracle_small(1))[name]
        edited = copy.deepcopy(spec)
        edited["v_increments"][1][first] = -1e308
        cases.append((f"{name}-mode-1-v-1e308", spec, edited))
    return cases


def _table_barrier() -> list[tuple[str, str, dict]]:
    """(label, command, scenario) of switch2x2 with barrier 0 given as a
    ``table`` of its linear values, node by node, and of the same table
    missing one node, which is refused."""
    spec = json.loads((ROOT / "scenarios" / "switch2x2.json").read_text())
    linear, dt = spec["barriers"][0], spec["tree"]["dt"]
    values, level = {}, ["r"]
    for t in range(spec["tree"]["steps"] + 1):
        values.update((nid, linear["intercept"] + linear["slope"] * (t * dt))
                      for nid in level)
        level = [nid + tag for nid in level for tag in "du"]
    spec["barriers"][0] = {"kind": "table", "values": values}
    short = copy.deepcopy(spec)
    del short["barriers"][0]["values"]["rud"]
    return ([("switch2x2-table-barrier", cmd, spec)
             for cmd in ("solve", "verify", "sweep-penalization")]
            + [("switch2x2-table-barrier-missing-node", "solve", short)])


def main_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        lines = []
        for i, (label, spec) in enumerate(_scenarios()):
            path = work / f"s{i}.json"
            path.write_text(json.dumps(spec))
            size = spec["tree"].get("steps", 0)
            commands = (["solve", "verify", "sweep-penalization", "brute-force"]
                        if size <= 5 else ["solve", "sweep-penalization"])
            for command in commands:
                lines.append(invoke(f"{label} {command}", [command, path],
                                    work / f"o{i}-{command}"))
            solved = work / f"o{i}-solve" / "solution.csv"
            if not solved.is_file():
                continue
            edits = (_edits(solved.read_text()) if label in (
                "switch2x2", "picard-coupled-s1", "oracle-chain-s1")
                else {"as-written": solved.read_text()})
            if label == "switch2x2":
                edits.update(_minimality_edits(solved.read_text()))
            for name, text in edits.items():
                edited = work / f"e{i}-{name}.csv"
                edited.write_bytes(text.encode())
                lines.append(invoke(f"{label} verify --solution {name}",
                                    ["verify", path, "--solution", edited],
                                    work / f"v{i}-{name}"))
        for i, (label, command, spec) in enumerate(_refused() + _table_barrier()):
            path = work / f"r{i}.json"
            path.write_text(json.dumps(spec))
            lines.append(invoke(f"{label} {command}", [command, path], work / f"ro{i}"))
        for i, (label, spec, edited) in enumerate(_start_mode_1_refused()):
            base, path = work / f"m{i}-base.json", work / f"m{i}.json"
            base.write_text(json.dumps(spec))
            path.write_text(json.dumps(edited))
            solved = work / f"mo{i}-solve"
            lines.append(invoke(f"{label} brute-force", ["brute-force", path],
                                work / f"mo{i}-brute-force"))
            main(["solve", str(base), "--out", str(solved)])
            lines.append(invoke(f"{label} verify --solution",
                                ["verify", path, "--solution", solved / "solution.csv"],
                                work / f"mo{i}-verify"))
        label, spec, edited = _binding_cycle()
        base, path = work / "c-base.json", work / "c.json"
        base.write_text(json.dumps(spec))
        path.write_text(json.dumps(edited))
        main(["solve", str(base), "--out", str(work / "co-solve")])
        text = (work / "co-solve" / "solution.csv").read_text()
        root_y = next(row.split(",")[4] for row in text.splitlines()[1:])
        cyclic = work / "c-solution.csv"
        cyclic.write_text(_set_cells(text, [(["r"], 1, "y", lambda y: float(root_y))]))
        lines.append(invoke(f"{label} verify --solution", ["verify", path, "--solution", cyclic],
                            work / "co-verify"))
    print("\n".join(lines))


if __name__ == "__main__":
    main_digests()
