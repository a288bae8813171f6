"""Print one digest line per CLI invocation of a fixed set, to diff two checkouts.

    python tests/output_digests.py > digests.txt

Run it in each checkout (the package is imported from the checkout's own
``src/``) and ``diff`` the two files: a change meant to keep every output
byte-identical must print the same lines.  pytest does not collect this
file (its name does not start with ``test_``).

The invocations run in process through ``orbsde.cli.main``: ``solve``,
``verify``, ``verify --solution``, ``sweep-penalization`` and
``brute-force`` on the bundled scenarios and on scenarios of the
benchmark's shapes (``perfbench/workloads.py``) at several seeds and
sizes, ``verify --solution`` on solution files edited in every way the
loader must either read exactly as before or refuse with the same
message, scenarios the commands refuse, the oracle shapes with start
mode 1 refused (not mode 0) under ``brute-force`` and ``verify
--solution``, and switch2x2 with a barrier given as a node table (whole,
and missing a node).  A line holds the
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
    return bundled + shaped


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
    print("\n".join(lines))


if __name__ == "__main__":
    main_digests()
