"""CLI harness and scenario format.

Core claims:
    - scenario parse -> normalize -> serialize -> parse is the identity on
      the normalized form
    - identical inputs produce byte-identical CSVs and summaries
    - verify consumes solve's CSV via --solution and passes; corrupting the
      CSV turns verify into exit 4
    - exit codes: 0 ok, 2 validation (with machine-readable diagnostic and
      node coordinates), 3 non-convergence, 4 oracle mismatch
    - a solution CSV with a duplicated, missing or out-of-range row, or a
      non-finite value, and a NaN barrier, generator coefficient or v
      increment all exit 2 with coordinates
    - a failed solver invariant (binding cycle, binding obstacle with no
      attaining mode) exits 3 with kind internal-consistency and its node
    - a sweep budget below 1 or a NaN or negative tolerance, from a flag
      or the scenario, exits 2 with kind usage; the removed solver option
      subsolution_slack exits 2 as unknown; a NaN, infinite or descending
      table knot exits 2 naming the generator
    - the bundled no-solution discretization exits 2 pinpointing every node
      with the obstacle above the barrier; the bundled decoupled scenario's
      roots equal per-mode upper solves; the bundled switching scenario's
      picard root equals the brute-force root
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from orbsde.cli import main
from orbsde.scenario import Scenario


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


# -- scenario format ------------------------------------------------------------


def test_scenario_normalized_round_trip(scenarios_dir, tmp_path):
    for name in ("counterexample", "decoupled", "switch2x2"):
        sc = Scenario.from_file(scenarios_dir / f"{name}.json")
        text = sc.to_json()
        again = Scenario.from_dict(json.loads(text))
        assert again.normalized() == sc.normalized()
        assert again.to_json() == text


def test_scenario_rejects_unknown_family():
    from orbsde.scenario import ScenarioError

    bad = {
        "format": 1,
        "tree": {"kind": "chain", "steps": 1, "dt": 1.0},
        "modes": 2,
        "generators": [
            {"family": "quadratic", "a": 1.0},
            {"family": "constant", "a": 0.0},
        ],
        "costs": [[0, 1.0], [1.0, 0]],
        "barriers": [
            {"kind": "constant", "value": 1.0},
            {"kind": "constant", "value": 1.0},
        ],
        "terminal": {"kind": "table", "values": {"n1": [0.0, 0.0]}},
    }
    with pytest.raises(ScenarioError):
        Scenario.from_dict(bad)


def test_malformed_scenario_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": 2}')
    out = tmp_path / "out"
    assert run("solve", path, "--out", out) == 2
    diag = read_json(out / "diagnostic.json")
    assert diag["exit_code"] == 2
    assert diag["error"]["kind"] == "scenario"


def test_missing_scenario_file_exits_2(tmp_path):
    out = tmp_path / "out"
    assert run("solve", tmp_path / "nope.json", "--out", out) == 2
    assert (out / "diagnostic.json").exists()


# -- determinism ------------------------------------------------------------------


def test_solve_outputs_byte_identical(scenarios_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("solve", scenarios_dir / "switch2x2.json", "--out", out1) == 0
    assert run("solve", scenarios_dir / "switch2x2.json", "--out", out2) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert b"\r" not in (out1 / "solution.csv").read_bytes()


def test_seed_flag_accepted_and_inert(scenarios_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("solve", scenarios_dir / "switch2x2.json", "--out", out1,
               "--seed", 7) == 0
    assert run("solve", scenarios_dir / "switch2x2.json", "--out", out2,
               "--seed", 8) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()


# -- solve -> verify round trip ----------------------------------------------------


def test_verify_consumes_solved_csv(scenarios_dir, tmp_path):
    out = tmp_path / "out"
    assert run("solve", scenarios_dir / "switch2x2.json", "--out", out) == 0
    assert run(
        "verify", scenarios_dir / "switch2x2.json",
        "--solution", out / "solution.csv", "--out", tmp_path / "v",
    ) == 0
    results = read_json(tmp_path / "v" / "verification.json")
    assert results["mismatches"] == []
    assert results["checks"]["minimality"]["worst_residual"] <= 1e-10


def test_verify_with_missing_solution_file_exits_2(scenarios_dir, tmp_path):
    code = run(
        "verify", scenarios_dir / "switch2x2.json",
        "--solution", tmp_path / "nope.csv", "--out", tmp_path / "v",
    )
    assert code == 2
    diag = read_json(tmp_path / "v" / "diagnostic.json")
    assert diag["error"]["kind"] == "solution-file"


def test_verify_detects_corrupted_solution(scenarios_dir, tmp_path):
    out = tmp_path / "out"
    assert run("solve", scenarios_dir / "switch2x2.json", "--out", out) == 0
    csv_path = out / "solution.csv"
    lines = csv_path.read_text().splitlines(keepends=True)
    header, first, rest = lines[0], lines[1], lines[2:]
    cells = first.rstrip("\n").split(",")
    cells[4] = repr(float(cells[4]) + 0.25)
    csv_path.write_text(header + ",".join(cells) + "\n" + "".join(rest))
    code = run(
        "verify", scenarios_dir / "switch2x2.json",
        "--solution", csv_path, "--out", tmp_path / "v",
    )
    assert code == 4
    diag = read_json(tmp_path / "v" / "diagnostic.json")
    assert diag["error"]["kind"] == "oracle-mismatch"


def _with_cell(row: str, col: int, value: str) -> str:
    cells = row.rstrip("\n").split(",")
    cells[col] = value
    return ",".join(cells) + "\n"


# each edit gets the data rows (r mode 0 first, ruu mode 1 last) and
# returns the rows to write back; the error must name this node and mode
MALFORMED_SOLUTIONS = {
    "duplicated-row": (lambda rows: rows[:1] + rows, "r", 0),
    "nan-root-y": (lambda rows: [_with_cell(rows[0], 4, "nan"), *rows[1:]], "r", 0),
    "missing-row": (lambda rows: rows[:-1], "ruu", 1),
    "mode-out-of-range": (lambda rows: [_with_cell(rows[0], 3, "5"), *rows[1:]], "r", 5),
    "negative-mode": (lambda rows: [_with_cell(rows[0], 3, "-1"), *rows[1:]], "r", -1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SOLUTIONS))
def test_verify_rejects_malformed_solution_csv(scenarios_dir, tmp_path, case):
    edit, node_id, mode = MALFORMED_SOLUTIONS[case]
    out = tmp_path / "out"
    assert run("solve", scenarios_dir / "switch2x2.json", "--out", out) == 0
    csv_path = out / "solution.csv"
    header, *rows = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text(header + "".join(edit(rows)))
    code = run(
        "verify", scenarios_dir / "switch2x2.json",
        "--solution", csv_path, "--out", tmp_path / "v",
    )
    assert code == 2
    diag = read_json(tmp_path / "v" / "diagnostic.json")
    assert diag["error"]["kind"] == "solution-file"
    assert f"node '{node_id}' mode {mode}" in diag["error"]["detail"]


# -- exit-code contract -------------------------------------------------------------


def test_counterexample_exits_2_with_node_coordinates(scenarios_dir, tmp_path):
    out = tmp_path / "out"
    assert run("solve", scenarios_dir / "counterexample.json", "--out", out) == 2
    assert not (out / "solution.csv").exists()  # summary/diagnostic only
    diag = read_json(out / "diagnostic.json")
    flagged = {
        (v["node_id"], v["time_index"])
        for v in diag["violations"]
        if v["code"] == "mokobodzki"
    }
    assert flagged == {("n0", 0), ("n1", 1), ("n2", 2), ("n3", 3)}


def test_nan_barrier_exits_2_with_coordinates(scenarios_dir, tmp_path):
    spec = read_json(scenarios_dir / "switch2x2.json")
    spec["barriers"][0] = {"kind": "constant", "value": float("nan")}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run("solve", path, "--out", out) == 2
    assert not (out / "solution.csv").exists()
    diag = read_json(out / "diagnostic.json")
    assert diag["error"]["kind"] == "problem-validation"
    flagged = {
        (v["node_id"], v["time_index"], v["mode"])
        for v in diag["violations"]
        if v["code"] == "non-finite"
    }
    tree = Scenario.from_dict(spec).build_tree()[0]
    assert flagged == {(n.node_id, n.t, 0) for n in tree.nodes}


@pytest.mark.parametrize("where", ["generator", "v_increment"])
def test_nan_coefficient_exits_2_with_coordinates(scenarios_dir, tmp_path, where):
    spec = read_json(scenarios_dir / "switch2x2.json")
    if where == "generator":
        spec["generators"][0] = {"family": "constant", "a": float("nan")}
        expected = {(None, 0, 0), (None, 1, 0)}
    else:
        spec["v_increments"][0]["r"] = float("nan")
        expected = {("r", 0, 0)}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run("solve", path, "--out", out) == 2
    diag = read_json(out / "diagnostic.json")
    assert diag["error"]["kind"] == "problem-validation"
    assert {
        (v.get("node_id"), v["time_index"], v["mode"])
        for v in diag["violations"]
    } == expected
    assert {v["code"] for v in diag["violations"]} == {"non-finite"}


def test_binding_cycle_exits_3_with_node(scenarios_dir, tmp_path, monkeypatch):
    import orbsde.oblique

    monkeypatch.setattr(orbsde.oblique, "binding_graph_cycles",
                        lambda problem, solution: [("rd", (0, 1))])
    out = tmp_path / "out"
    assert run("solve", scenarios_dir / "switch2x2.json", "--out", out) == 3
    error = read_json(out / "diagnostic.json")["error"]
    assert (error["kind"], error["node_id"]) == ("internal-consistency", "rd")


def test_missing_attaining_mode_exits_3_with_node(scenarios_dir, tmp_path,
                                                  monkeypatch):
    from orbsde.oblique import CostMatrix

    # the greedy strategy's attaining-mode test reads costs 1 above the
    # obstacle's, so the obstacle binding at rd in mode 0 has no attainer
    at = CostMatrix.at
    monkeypatch.setattr(CostMatrix, "at", lambda self, t, j, k: at(self, t, j, k) + 1.0)
    out = tmp_path / "out"
    assert run("verify", scenarios_dir / "switch2x2.json", "--out", out) == 3
    error = read_json(out / "diagnostic.json")["error"]
    assert (error["kind"], error["node_id"]) == ("internal-consistency", "rd")


def test_non_convergence_exits_3(scenarios_dir, tmp_path):
    out = tmp_path / "out"
    code = run(
        "solve", scenarios_dir / "switch2x2.json",
        "--out", out, "--max-sweeps", 1, "--tol", 1e-14,
    )
    assert code == 3
    assert read_json(out / "diagnostic.json")["error"]["kind"] == "solver"


@pytest.mark.parametrize("command", ["solve", "verify", "sweep-penalization"])
@pytest.mark.parametrize("flags, solver", [
    (["--max-sweeps", 0], None),
    (["--max-sweeps", -2], None),
    (["--tol", "nan"], None),
    (["--tol=-1e-10"], None),
    ([], {"max_sweeps": 0}),
    ([], {"tol": float("nan")}),
])
def test_bad_budget_or_tolerance_exits_2(scenarios_dir, tmp_path, command,
                                         flags, solver):
    # these ended in an IndexError traceback (verify) or exit 3 (solve)
    spec = read_json(scenarios_dir / "switch2x2.json")
    if solver is not None:
        spec["solver"] = solver
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run(command, path, "--out", out, *flags) == 2
    error = read_json(out / "diagnostic.json")["error"]
    assert error["kind"] == "usage"
    assert "sweep budget must be >= 1" in error["detail"]


def test_removed_subsolution_slack_option_exits_2(scenarios_dir, tmp_path):
    spec = read_json(scenarios_dir / "switch2x2.json")
    spec["solver"] = {"subsolution_slack": 5.0}
    path = tmp_path / "slack.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run("solve", path, "--out", out) == 2
    error = read_json(out / "diagnostic.json")["error"]
    assert error["kind"] == "scenario"
    assert "unknown solver option 'subsolution_slack'" in error["detail"]


def test_brute_force_cap_exits_2(tmp_path):
    spec = {
        "format": 1,
        "name": "big",
        "tree": {"kind": "binomial", "steps": 5, "dt": 0.2},
        "modes": 2,
        "generators": [
            {"family": "constant", "a": 0.0},
            {"family": "constant", "a": 0.0},
        ],
        "costs": [[0, 0.5], [0.5, 0]],
        "barriers": [
            {"kind": "constant", "value": 5.0},
            {"kind": "constant", "value": 5.0},
        ],
        "terminal": {"kind": "price-affine", "a": [0.0, 0.1], "b": [1.0, 1.0]},
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run("brute-force", path, "--out", out) == 2
    assert read_json(out / "diagnostic.json")["error"]["kind"] == "enumeration-cap"


# -- bundled scenarios ---------------------------------------------------------------


def test_decoupled_scenario_roots_equal_upper_solves(scenarios_dir, tmp_path):
    from orbsde import ScalarRBSDEProblem, solve_upper

    assert run(
        "verify", scenarios_dir / "decoupled.json", "--out", tmp_path / "v"
    ) == 0
    sc = Scenario.from_file(scenarios_dir / "decoupled.json")
    problem = sc.build_problem()
    assert run(
        "solve", scenarios_dir / "decoupled.json", "--out", tmp_path / "s"
    ) == 0
    summary = read_json(tmp_path / "s" / "summary.json")
    for j in range(2):
        direct = solve_upper(
            ScalarRBSDEProblem(
                tree=problem.tree,
                terminal={
                    leaf: problem.terminal[leaf][j]
                    for leaf in problem.tree.leaves
                },
                generator=lambda t, y, _j=j: problem.generators[_j](
                    t, (y, y)
                ),
                v_increments=problem.v[j],
                upper=problem.upper[j],
            )
        )
        assert summary["root_values"][j] == pytest.approx(
            direct.y.values[problem.tree.root], abs=1e-10
        )


def test_switch2x2_verify_cross_checks_brute_force(scenarios_dir, tmp_path):
    assert run(
        "verify", scenarios_dir / "switch2x2.json", "--out", tmp_path / "v"
    ) == 0
    results = read_json(tmp_path / "v" / "verification.json")
    for row in results["checks"]["brute_force"]:
        assert row["brute_force"] == pytest.approx(
            row["system_root_value"], abs=1e-8
        )
        assert row["start_push"] == 0.0


def test_sweep_penalization_table(scenarios_dir, tmp_path):
    out = tmp_path / "out"
    assert run(
        "sweep-penalization", scenarios_dir / "switch2x2.json", "--out", out
    ) == 0
    lines = (out / "penalization.csv").read_text().splitlines()
    assert lines[0] == "p,q,mode,root_y,projected_root_y"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * 25
    # for fixed p, root values are nonincreasing in q
    for mode in ("0", "1"):
        for p in {r[0] for r in rows}:
            ys = [float(r[3]) for r in rows if r[0] == p and r[2] == mode]
            assert all(b <= a + 1e-12 for a, b in zip(ys, ys[1:]))


def test_explicit_tree_and_table_specs(tmp_path):
    spec = {
        "format": 1,
        "name": "explicit",
        "tree": {
            "kind": "explicit",
            "dt": 0.5,
            "nodes": [
                {"id": "root", "t": 0, "parent": None, "price": 1.0},
                {"id": "lo", "t": 1, "parent": "root", "p": 0.4, "price": 0.8},
                {"id": "hi", "t": 1, "parent": "root", "p": 0.6, "price": 1.3},
            ],
        },
        "modes": 2,
        "generators": [
            {
                "family": "table",
                "times": [0.0, 0.5],
                "grid": [-2.0, 0.0, 2.0],
                "values": [[0.5, 0.1, -0.4], [0.4, 0.0, -0.5]],
            },
            {"family": "constant", "a": 0.1},
        ],
        "costs": [[0, 0.3], [0.3, 0]],
        "barriers": [
            {"kind": "table", "values": {"root": 2.0, "lo": 1.9, "hi": 2.1}},
            {"kind": "constant", "value": 2.0},
        ],
        "terminal": {"kind": "table", "values": {"lo": [0.5, 0.4], "hi": [0.9, 1.0]}},
    }
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run("solve", path, "--out", out) == 0
    summary = read_json(out / "summary.json")
    assert summary["worst_residual"] <= 1e-10
    # monotone-violating table rows are rejected at parse time
    spec["generators"][0]["values"][0] = [0.1, 0.5, -0.4]
    path.write_text(json.dumps(spec))
    assert run("solve", path, "--out", out) == 2


@pytest.mark.parametrize("field, knots", [
    ("times", [0.0, float("nan")]),
    ("times", [float("-inf"), 0.0]),
    ("grid", [-1.0, float("nan")]),
    ("grid", [float("nan"), 1.0]),
    ("grid", [-1.0, float("inf")]),
    ("grid", [1.0, -1.0]),
])
def test_non_finite_or_descending_table_knots_exit_2(scenarios_dir, tmp_path,
                                                     field, knots):
    # a NaN knot passed the old sorted(...) == ... check, and solve exited 0
    spec = read_json(scenarios_dir / "switch2x2.json")
    table = {"family": "table", "times": [0.0, 1.0], "grid": [-1.0, 1.0],
             "values": [[0.1, 0.0], [0.1, 0.0]]}
    table[field] = knots
    spec["generators"][1] = table
    path = tmp_path / "knots.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run("solve", path, "--out", out) == 2
    error = read_json(out / "diagnostic.json")["error"]
    assert error["kind"] == "scenario"
    assert f"generator 1: table {field} must be finite and ascending" in error["detail"]


def test_brute_force_dump_matches_library(scenarios_dir, tmp_path):
    from orbsde import brute_force_value

    out = tmp_path / "out"
    assert run(
        "brute-force", scenarios_dir / "switch2x2.json", "--out", out
    ) == 0
    payload = read_json(out / "brute_force.json")
    sc = Scenario.from_file(scenarios_dir / "switch2x2.json")
    problem = sc.build_problem()
    for row in payload["modes"]:
        value, strategy = brute_force_value(
            problem, problem.tree.root, row["mode"]
        )
        assert row["value"] == pytest.approx(value, abs=0.0)
        assert row["argmax_strategy"] == strategy.as_id_dict()
