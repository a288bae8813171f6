"""CLI harness and scenario format.

Core claims:
    - scenario parse -> normalize -> serialize -> parse is the identity on
      the normalized form
    - identical inputs produce byte-identical CSVs and summaries, and every
      command's output files on the bundled scenarios, and the strategy
      oracle's on a table-generator scenario, keep pinned sha256 digests
    - a scenario missing a key or holding a value of the wrong type (one
      float() or int() cannot convert included) exits 2 with kind scenario,
      naming the section and the key; a value a section refuses (a negative
      slope, an unknown kind, a non-finite table value) names the section
    - v increments are read as float() reads them ("1.5", "1_5", "nan",
      true), one keyed at a leaf is ignored, and the build path's refusals
      (a v increment float() refuses, a list for a map, an unknown node, a
      terminal table that misses a leaf or holds a short vector) keep their
      messages; the built problem holds no per-node object made by the
      scenario module
    - verify consumes solve's CSV via --solution and passes; corrupting the
      CSV turns verify into exit 4
    - exit codes: 0 ok, 2 validation (with machine-readable diagnostic and
      node coordinates), 3 non-convergence, 4 oracle mismatch
    - a solution CSV with a duplicated, missing or out-of-range row, or a
      non-finite value, and a NaN barrier, generator coefficient or v
      increment all exit 2 with coordinates; of two bad rows the first in
      the file is named, and a mode is read as int() reads it ("01" and
      " 1" are mode 1, "1.0" is refused); a dk column that differs between
      siblings or is nonzero at the root exits 2 with the loader's message;
      an infinite or overflowing dt under a linear barrier exits 2 with no
      numpy warning
    - a failed solver invariant (binding cycle, binding obstacle with no
      attaining mode) exits 3 with kind internal-consistency and its node;
      costs that could bind in a cycle (two modes whose costs both ways sum
      to at most d * 1e-10) exit 2 with a cost-cycle finding per time index
    - a sweep budget below 1 or a NaN or negative tolerance, from a flag
      or the scenario, exits 2 with kind usage; the removed solver option
      subsolution_slack exits 2 as unknown; a NaN, infinite or descending
      table knot exits 2 naming the generator; brute-force on coupled
      generators exits 2 with the generator-coupled findings
    - solve and verify --solution on a coupled binomial scenario make no
      Node object (validate_problem neither), nor does sweep-penalization on
      a binomial scenario
    - every command validates its problem once, verify and brute-force take
      the decoupling verdict once, sweep-penalization walks the tree once
      for the solve and once per mode for its whole (p, q) ladder, and
      every problem-validation diagnostic gives the violation count as its
      detail; a NaN representation gap is an oracle mismatch, written to
      verification.json as the string "NaN" (strict JSON)
    - the outputs of the commands the benchmark times keep pinned sha256
      digests on three-step scenarios of the benchmark's shape
    - verify and brute-force value every start mode in one enumeration
      (verify then walks the d greedy strategies), each start mode's
      answer and refusal those of its own enumeration, and a refusal of
      start mode 1 comes after start mode 0's checks
    - arguments the parser refuses exit 2 with kind usage and a diagnostic
      in the --out directory they name, or in orbsde_out; -h exits 0
    - the bundled no-solution discretization exits 2 pinpointing every node
      with the obstacle above the barrier; the bundled decoupled scenario's
      roots equal per-mode upper solves; the bundled switching scenario's
      picard root equals the brute-force root
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbsde.cli
import orbsde.scenario
from orbsde.cli import main
from orbsde.oblique import SystemSolution, validate_problem
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
        assert again == sc
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


def _drop(key):
    return lambda spec: spec.pop(key)


MALFORMED_SCENARIOS = {
    "generator-missing-b": (
        lambda spec: spec["generators"].__setitem__(0, {"family": "linear", "a": 0.1}),
        "generators[0]: missing key 'b'"),
    "barrier-missing-value": (
        lambda spec: spec["barriers"].__setitem__(1, {"kind": "constant"}),
        "barriers[1]: missing key 'value'"),
    "tree-missing-steps": (
        lambda spec: _drop("steps")(spec["tree"]), "tree: missing key 'steps'"),
    "price-affine-missing-b": (
        lambda spec: _drop("b")(spec["terminal"]), "terminal: missing key 'b'"),
    "coefficient-is-a-list": (
        lambda spec: spec["generators"][1].__setitem__("a", [0.1]),
        "generators[1]: bad value for key 'a'"),
    "v-increments-entry-is-a-list": (
        lambda spec: spec["v_increments"].__setitem__(0, [0.1]), "v_increments[0]: "),
    # a value that float() or int() cannot convert
    "coefficient-not-a-number": (
        lambda spec: spec["generators"].__setitem__(1, {"family": "constant", "a": "abc"}),
        "generators[1]: bad value for key 'a' (could not convert"),
    "solver-option-not-an-integer": (
        lambda spec: spec.__setitem__("solver", {"max_sweeps": "x"}),
        "solver: bad value for key 'max_sweeps' (invalid literal"),
    # a value a section's parser refuses names the section
    "generator-b-negative": (
        lambda spec: spec["generators"].__setitem__(
            1, {"family": "linear", "a": 0.1, "b": -1}),
        "generators[1]: linear generator needs b >= 0"),
    "barrier-kind-unknown": (
        lambda spec: spec["barriers"].__setitem__(1, {"kind": "wavy"}),
        "barriers[1]: unknown barrier kind 'wavy'"),
    "tree-dt-zero": (
        lambda spec: spec["tree"].__setitem__("dt", 0.0), "tree: dt must be positive"),
    "terminal-kind-unknown": (
        lambda spec: spec["terminal"].__setitem__("kind", "wavy"),
        "terminal: unknown terminal kind 'wavy'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_names_section_and_key(scenarios_dir, tmp_path, case):
    edit, detail = MALFORMED_SCENARIOS[case]
    spec = read_json(scenarios_dir / "switch2x2.json")
    edit(spec)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run("solve", path, "--out", out) == 2
    error = read_json(out / "diagnostic.json")["error"]
    assert error["kind"] == "scenario"
    assert error["detail"].startswith(detail)


# -- the build path: scenario file to problem ------------------------------------


def _built(edit):
    """The oracle-chain scenario with ``edit`` applied, through JSON text as
    the CLI reads it, parsed and built."""
    spec = oracle_chain_scenario()
    edit(spec)
    return Scenario.from_dict(json.loads(json.dumps(spec))).build_problem()


def _v_out_of_n0(value):
    return lambda spec: spec["v_increments"][0].__setitem__("n0", value)


@pytest.mark.parametrize("value", ["1.5", "1_5", "nan", True])
def test_v_increments_are_read_as_float_reads_them(value):
    # the increment keyed at n0 is mode 0's on the edge into n1; a NaN is
    # the validator's to refuse, with its coordinates
    base, problem = _built(lambda spec: None), _built(_v_out_of_n0(value))
    expected = base.v_columns.copy()
    expected[1, 0] = float(value)
    np.testing.assert_array_equal(problem.v_columns, expected)
    report = [(v.code, v.message, v.node_id) for v in validate_problem(problem)]
    assert report == ([("non-finite", "dV^0 = nan", "n0")] if value == "nan" else [])


def test_a_v_increment_keyed_at_a_leaf_is_ignored():
    keyed = _built(lambda spec: spec["v_increments"][0].__setitem__("n8", 0.5))
    assert keyed.v_columns.tobytes() == _built(lambda spec: None).v_columns.tobytes()


BUILD_REFUSALS = {
    "v-increment-a-word": (
        _v_out_of_n0("x"), "v_increments[0]: could not convert string to float: 'x'"),
    "v-increment-null": (
        _v_out_of_n0(None), "v_increments[0]: float() argument must be a string or "
        "a real number, not 'NoneType'"),
    "v-increment-a-list": (
        _v_out_of_n0([1]), "v_increments[0]: float() argument must be a string or "
        "a real number, not 'list'"),
    "v-increment-overflows": (
        _v_out_of_n0(10**400), "v_increments[0]: int too large to convert to float"),
    "v-increments-a-list": (
        lambda spec: spec["v_increments"].__setitem__(0, [0.1]),
        "v_increments[0]: 'list' object has no attribute 'items'"),
    "v-increment-unknown-node": (
        lambda spec: spec["v_increments"][0].__setitem__("zz", 0.5),
        "v_increments references unknown node 'zz'"),
    "terminal-misses-a-leaf": (
        lambda spec: spec["terminal"].__setitem__("values", {"n7": [1.0, 1.0, 1.0]}),
        "terminal table misses leaf 'n8'"),
    "terminal-vector-of-two": (
        lambda spec: spec["terminal"]["values"].__setitem__("n8", [1.0, 1.02]),
        "terminal: terminal vector at 'n8' must have 3 entries"),
}


@pytest.mark.parametrize("case", sorted(BUILD_REFUSALS))
def test_build_path_refusals_keep_their_messages(case):
    from orbsde.scenario import ScenarioError

    edit, message = BUILD_REFUSALS[case]
    with pytest.raises(ScenarioError) as refused:
        _built(edit)
    assert str(refused.value) == message


def _blocks_held_by_the_scenario_module(steps: int) -> int:
    """The blocks that the scenario module has allocated and that are still
    held once the coupled benchmark shape at ``steps`` steps (v increments
    at every parent) is parsed and its problem built."""
    spec = benchmark_shaped_scenario("picard-coupled")
    spec["tree"]["steps"] = steps
    parents = Scenario.from_dict(spec).build_tree()[0].ids[:2**steps - 1]
    spec["v_increments"] = [{pid: 0.1 if (i + j) % 3 else -0.1
                             for i, pid in enumerate(parents)} for j in range(3)]
    text = json.dumps(spec)
    tracemalloc.start()
    try:
        scenario = Scenario.from_dict(json.loads(text))
        problem = scenario.build_problem()
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, orbsde.scenario.__file__)])
    finally:
        tracemalloc.stop()
    assert problem.terminal_rows.shape == (2**steps, 3)
    return sum(stat.count for stat in held.statistics("filename"))


def test_the_built_problem_holds_no_per_node_object_of_the_scenario_module():
    # the parsed v increments and the terminal rows are arrays, so what the
    # scenario module still holds once the problem is built hardly grows
    # from 31 nodes to 2,047: per-leaf rows would add thousands of blocks,
    # and numpy's cache of small buffers keeps a few per level of prices
    small = _blocks_held_by_the_scenario_module(4)
    assert _blocks_held_by_the_scenario_module(10) < small + 64


# -- determinism ------------------------------------------------------------------


def test_solve_outputs_byte_identical(scenarios_dir, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("solve", scenarios_dir / "switch2x2.json", "--out", out1) == 0
    assert run("solve", scenarios_dir / "switch2x2.json", "--out", out2) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert b"\r" not in (out1 / "solution.csv").read_bytes()


# sha256 of every output file, recorded before the solvers shared one
# backward walk; a refactor that is meant to keep the bytes must keep these
PINNED_OUTPUTS = {
    ("switch2x2", "solve"): {
        "solution.csv": "a48ac8ca69e22ade0ef9247338dd885683e0463a0ba276890c414726d21b8cee",
        "summary.json": "4ab48135ab0b3bb892f1a391e850f82ee17af936cddc8afbaa16038955dc06ab",
        "summary.txt": "d63854cb8f843dfc5e486eeb3c22d6aa936047026cdc61d83f591e51235bccc2",
    },
    ("switch2x2", "verify"): {
        "verification.json": "396899112f02a7dced7d0dc4d652df7603d2b3fc2b8611b875ca01d7fc3e0ad8",
        "verification.txt": "32648fc300c124958187434970a7f0819f2d6e68c56968e5b0f3dc42ef54fd5e",
    },
    ("switch2x2", "verify --solution"): {
        "verification.json": "396899112f02a7dced7d0dc4d652df7603d2b3fc2b8611b875ca01d7fc3e0ad8",
        "verification.txt": "32648fc300c124958187434970a7f0819f2d6e68c56968e5b0f3dc42ef54fd5e",
    },
    ("switch2x2", "sweep-penalization"): {
        "penalization.csv": "e72b238b5baf116ba3766f80f153314d91d04d26366c94239bbbd142f94ee288",
        "summary.json": "f8d32b17562723fc442ca5bf0306e86be79eaed1e2d686d26f437bdaca4d40f5",
    },
    ("switch2x2", "brute-force"): {
        "brute_force.json": "81e5de6d7e6cb4f144d921f4e6f161b0a944b1a20712d005f224aeb3054c16a5",
    },
    ("decoupled", "solve"): {
        "solution.csv": "5f2074566a2bb82151c58caeac9c67056ea0515997c070b24ef352935c1702c1",
        "summary.json": "4d1d8cd8baee4036408049116d51ae5c4ff1f601dd7d28dd3351e7f106b87ede",
        "summary.txt": "86bc51795b698a444882a6da9e5999112e1ea8569023c83f9275d754bf5be808",
    },
    ("decoupled", "verify"): {
        "verification.json": "711f0b8a9945e79e10c949b33d4fd3afe80ba0d1d0aa4617e26e101984b0dbe0",
        "verification.txt": "69f3c76d4739bbf12cb2723228bae912fb7300d37d1a29e19fa2629cb910d8a9",
    },
    ("decoupled", "verify --solution"): {
        "verification.json": "711f0b8a9945e79e10c949b33d4fd3afe80ba0d1d0aa4617e26e101984b0dbe0",
        "verification.txt": "69f3c76d4739bbf12cb2723228bae912fb7300d37d1a29e19fa2629cb910d8a9",
    },
    ("decoupled", "sweep-penalization"): {
        "penalization.csv": "42d3a28b8c3b2a92e2e594781dccf9dcbd5d853e02346811d6086e3291ddc90e",
        "summary.json": "d69c76bc3cf3b06b939d81561bddb5ce3c4df9e7b07d0163b4884bae78a742f5",
    },
    ("decoupled", "brute-force"): {
        "brute_force.json": "3e93e92e146ffb99c0085ff2fc9976a8e62a8ac4d8b540b3d7d4bf09eb409809",
    },
    ("counterexample", "solve"): {
        "diagnostic.json": "fcf35027110170e2c4752a4b36f6d11991de66355e92a6ceac5d81b4b92ed80e",
    },
}


def _digests(out: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def _pinned_run(scenario: Path, command: str, tmp_path: Path) -> dict[str, str]:
    """The digests of ``command``'s outputs on ``scenario``; ``verify
    --solution`` checks the CSV that ``solve`` writes first."""
    out = tmp_path / "out"
    if command == "verify --solution":
        assert run("solve", scenario, "--out", tmp_path / "solved") == 0
        run("verify", scenario, "--solution", tmp_path / "solved" / "solution.csv",
            "--out", out)
    else:
        run(command, scenario, "--out", out)
    return _digests(out)


@pytest.mark.parametrize("name,command", sorted(PINNED_OUTPUTS))
def test_outputs_pinned_across_commits(scenarios_dir, tmp_path, name, command):
    digests = _pinned_run(scenarios_dir / f"{name}.json", command, tmp_path)
    assert digests == PINNED_OUTPUTS[name, command]


def _table_generators() -> list[dict]:
    """Three kinked, strictly decreasing table generators, as in the
    benchmark's penalty-table workload."""
    grid = [-4.0 + 0.5 * i for i in range(17)]

    def profile(level):
        return [level - 0.4 * x - 0.15 * x * abs(x) for x in grid]

    return [
        {"family": "table", "times": [0.0, 1.0], "grid": grid,
         "values": [profile(0.1 * j), profile(0.1 * j + 0.2)]}
        for j in range(3)
    ]


def penalty_table_scenario() -> dict:
    """The shape of the benchmark's penalty-table workload at two steps:
    three modes with kinked table generators on a binomial price tree,
    fixed shocks."""
    return {
        "format": 1,
        "name": "penalty-table-2",
        "tree": {"kind": "binomial", "steps": 2, "dt": 0.5,
                 "p_up": 0.5, "x0": 1.0, "up": 1.08, "down": 1.0 / 1.08},
        "modes": 3,
        "generators": _table_generators(),
        "costs": [[0.0 if j == k else 0.1 for k in range(3)] for j in range(3)],
        "barriers": [{"kind": "linear", "intercept": 1.4, "slope": 1.1}] * 3,
        "terminal": {"kind": "price-affine", "a": [0.08, 0.04, 0.0],
                     "b": [1.0, 1.0, 1.0]},
        "v_increments": [{"r": -0.1, "rd": -0.1, "ru": 0.1},
                         {"r": -0.1, "rd": 0.1, "ru": 0.1},
                         {"r": 0.1, "rd": 0.1, "ru": -0.1}],
    }


def oracle_binomial_scenario() -> dict:
    """The shape of the benchmark's oracle-binomial scenario: two modes
    with decoupled linear generators on a 3-step binomial tree (2^14
    strategies per start mode), fixed shocks of +-0.15."""
    parents = ["r", "rd", "ru", "rdd", "rdu", "rud", "ruu"]
    signs = ["-+-++--", "+--+-++"]
    return {
        "format": 1,
        "name": "oracle-binomial-3",
        "tree": {"kind": "binomial", "steps": 3, "dt": 0.5,
                 "p_up": 0.5, "x0": 1.0, "up": 1.2, "down": 0.85},
        "modes": 2,
        "generators": [{"family": "linear", "a": 0.3, "b": 0.2},
                       {"family": "linear", "a": -0.1, "b": 0.1}],
        "costs": [[0.0, 0.15], [0.2, 0.0]],
        "barriers": [{"kind": "constant", "value": 4.0}] * 2,
        "terminal": {"kind": "price-affine", "a": [0.0, 0.05], "b": [1.0, 0.95]},
        "v_increments": [{pid: 0.15 if sign == "+" else -0.15
                          for pid, sign in zip(parents, row)} for row in signs],
        "solver": {"stopping_depth_cap": 8},
    }


# sha256 of the strategy oracle's outputs on table generators, recorded
# while the oracle still solved one strategy at a time
PINNED_TABLE_OUTPUTS = {
    "verify": {
        "verification.json": "1d63dba9d6ee8d62d3663b0964be4674034393aed38534d53127e18de2c9047e",
        "verification.txt": "7f51af250d3da9beb9e10a51deca020009b29d3c3417bbad4b232ebe2133ae28",
    },
    "brute-force": {
        "brute_force.json": "5a16a7fb096ce1a866328e68a1dda2b991561de386380c161ae1504cc06c9ce6",
    },
}


@pytest.mark.parametrize("command", sorted(PINNED_TABLE_OUTPUTS))
def test_table_oracle_outputs_pinned(tmp_path, command):
    path = tmp_path / "penalty-table-2.json"
    path.write_text(json.dumps(penalty_table_scenario()))
    assert run(command, path, "--out", tmp_path / "out") == 0
    assert _digests(tmp_path / "out") == PINNED_TABLE_OUTPUTS[command]


def benchmark_shaped_scenario(name: str) -> dict:
    """The shape of the benchmark's ``picard-coupled`` or ``penalty-table``
    scenario at three steps: three modes on a binomial price tree, costs
    0.1, an upper barrier linear in time, a price-affine terminal and fixed
    shocks of +-0.1 per parent node and mode."""
    generators = {
        "picard-coupled": [
            {"family": "affine-coupled", "a": 0.1 * j, "b": 0.3,
             "g": [0.0 if k == j else 0.05 for k in range(3)]}
            for j in range(3)
        ],
        "penalty-table": _table_generators(),
    }[name]
    parents = ["r", "rd", "ru", "rdd", "rdu", "rud", "ruu"]
    return {
        "format": 1,
        "name": f"{name}-3",
        "tree": {"kind": "binomial", "steps": 3, "dt": 1.0 / 3,
                 "p_up": 0.5, "x0": 1.0, "up": 1.08, "down": 1.0 / 1.08},
        "modes": 3,
        "generators": generators,
        "costs": [[0.0 if j == k else 0.1 for k in range(3)] for j in range(3)],
        "barriers": [{"kind": "linear", "intercept": 1.4, "slope": 1.1}] * 3,
        "terminal": {"kind": "price-affine", "a": [0.08, 0.04, 0.0],
                     "b": [1.0, 1.0, 1.0]},
        "v_increments": [
            {pid: 0.1 if (i + j) % 3 else -0.1 for i, pid in enumerate(parents)}
            for j in range(3)
        ],
    }


# sha256 of the outputs of the commands the benchmark times, on its
# scenarios at three steps; a change to the solver kernel that is meant to
# keep the bytes must keep these
PINNED_BENCHMARK_SHAPED = {
    ("picard-coupled", "solve"): {
        "solution.csv": "16fbc77dc4d94de98f08a7803996e0d41ee79ffe0283748b47a85fb9f0e6c279",
        "summary.json": "18f1c97213e330e079dfda3d063771e4c93f298722fe5d5c9c663c08df22ec94",
        "summary.txt": "8a6bf62128a11ba8f1177af9169788a814e755ffa00c6e2dfc61a8082a1b4896",
    },
    ("picard-coupled", "verify --solution"): {
        "verification.json": "54b32e34356bab82895e34ab51242df8e655b8f4d693bb6e757a3a8c68b69ebb",
        "verification.txt": "66f7a5c3677419fb0dfbf9136a9606df159d33cb1b6a37bf3896c1b06a9bad61",
    },
    ("penalty-table", "sweep-penalization"): {
        "penalization.csv": "d6c1fd400450b0721f10e8d63c818c238fd41066cd0e75add641306b235cc92d",
        "summary.json": "5e32e2561967d474fd124e332a96e14948188da4baeae05662e8320a35ed5d32",
    },
}


@pytest.mark.parametrize("name,command", sorted(PINNED_BENCHMARK_SHAPED))
def test_benchmark_shaped_outputs_pinned(tmp_path, name, command):
    path = tmp_path / f"{name}-3.json"
    path.write_text(json.dumps(benchmark_shaped_scenario(name)))
    digests = _pinned_run(path, command, tmp_path)
    assert digests == PINNED_BENCHMARK_SHAPED[name, command]


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
# returns the rows to write back; the error must name this node and mode,
# with this detail.  A mode spelling that int() reads ("01", " 1") is that
# mode, which the duplicate it makes shows.
MALFORMED_SOLUTIONS = {
    "duplicated-row": (lambda rows: rows[:1] + rows, "r", 0, "duplicate row"),
    "nan-root-y": (lambda rows: [_with_cell(rows[0], 4, "nan"), *rows[1:]], "r", 0,
                   "non-finite value in ['nan', "),
    "missing-row": (lambda rows: rows[:-1], "ruu", 1, "missing row"),
    "mode-out-of-range": (lambda rows: [_with_cell(rows[0], 3, "5"), *rows[1:]], "r", 5,
                          "mode outside range(2)"),
    "negative-mode": (lambda rows: [_with_cell(rows[0], 3, "-1"), *rows[1:]], "r", -1,
                      "mode outside range(2)"),
    "non-finite-before-duplicate": (
        lambda rows: [rows[0], _with_cell(rows[1], 5, "inf"), *rows[2:], rows[0]],
        "r", 1, "non-finite value in "),
    "mode-01-is-mode-1": (
        lambda rows: [rows[1], _with_cell(rows[0], 3, "01"), *rows[2:]],
        "r", "01", "duplicate row"),
    "mode-space-1-is-mode-1": (
        lambda rows: [rows[1], _with_cell(rows[0], 3, " 1"), *rows[2:]],
        "r", " 1", "duplicate row"),
    "mode-1_0-is-mode-10": (lambda rows: [_with_cell(rows[0], 3, "1_0"), *rows[1:]],
                            "r", "1_0", "mode outside range(2)"),
    "mode-1.0-is-refused": (lambda rows: [_with_cell(rows[0], 3, "1.0"), *rows[1:]],
                            "r", "1.0", "invalid literal for int() with base 10: '1.0'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SOLUTIONS))
def test_verify_rejects_malformed_solution_csv(scenarios_dir, tmp_path, case):
    edit, node_id, mode, detail = MALFORMED_SOLUTIONS[case]
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
    assert f"node '{node_id}' mode {mode}: {detail}" in diag["error"]["detail"]


# a dk column the loader refuses once every row is read: rd's edge differs
# from its sibling ru's, or the root's slot is not 0
INCREMENT_REFUSALS = {
    "sibling-unequal-dk": (lambda rows: [*rows[:2], _with_cell(rows[2], 5, "0.125"),
                                         *rows[3:]],
                           "increment not parent-measurable at node r"),
    "nonzero-root-dk": (lambda rows: [_with_cell(rows[0], 5, "0.5"), *rows[1:]],
                        "root slot of predictable increments must be 0"),
}


@pytest.mark.parametrize("case", sorted(INCREMENT_REFUSALS))
def test_verify_refuses_increments_not_decided_at_the_parent(scenarios_dir, tmp_path,
                                                             case):
    edit, detail = INCREMENT_REFUSALS[case]
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
    error = read_json(tmp_path / "v" / "diagnostic.json")["error"]
    assert (error["kind"], error["detail"]) == ("solution-file", detail)


@pytest.mark.parametrize("spelling", ["01", " 1", "1 ", "+1"])
def test_verify_reads_a_mode_as_int_does(scenarios_dir, tmp_path, spelling):
    out = tmp_path / "out"
    assert run("solve", scenarios_dir / "switch2x2.json", "--out", out) == 0
    header, first, second, *rest = (out / "solution.csv").read_text().splitlines(
        keepends=True)
    spelled = tmp_path / "spelled.csv"
    spelled.write_text(header + first + _with_cell(second, 3, spelling) + "".join(rest))
    for name, path in (("plain", out / "solution.csv"), ("spelled", spelled)):
        assert run("verify", scenarios_dir / "switch2x2.json",
                   "--solution", path, "--out", tmp_path / name) == 0
    plain, spelled_out = (sorted((tmp_path / name).iterdir())
                          for name in ("plain", "spelled"))
    assert [p.name for p in plain] == [p.name for p in spelled_out]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(plain, spelled_out))


# the loader's two paths: solve-emitted files, and edits that either path
# must read as the row-by-row loader reads them, or refuse with its message;
# True where the canonical fast path reads the edited file itself
LOADER_EDITS = {
    "as-written": (lambda rows: rows, True),
    "reordered-rows": (lambda rows: [rows[1], rows[0], *rows[2:]], False),
    "reversed-rows": (lambda rows: rows[::-1], False),
    "crlf": (lambda rows: [row.replace("\n", "\r\n") for row in rows], True),
    "trailing-blank-line": (lambda rows: [*rows, "\n"], False),
    "no-final-newline": (lambda rows: [*rows[:-1], rows[-1].rstrip("\n")], False),
    "padded-value": (lambda rows: [_with_cell(rows[0], 4, " 1.5 "), *rows[1:]], True),
    "underscore-value": (lambda rows: [_with_cell(rows[0], 4, "1_5"), *rows[1:]], True),
    "edited-time-columns": (lambda rows: [_with_cell(_with_cell(row, 1, "9"), 2, "x")
                                          for row in rows], True),
    "mode-01": (lambda rows: [rows[0], _with_cell(rows[1], 3, "01"), *rows[2:]], False),
    "duplicate-row": (lambda rows: [rows[0], rows[0], *rows[2:]], False),
    "missing-row": (lambda rows: rows[:-1], False),
    "extra-row": (lambda rows: [*rows, rows[0]], False),
    "nan-value": (lambda rows: [_with_cell(rows[0], 7, "nan"), *rows[1:]], False),
    "seven-fields": (lambda rows: [rows[0].rsplit(",", 1)[0] + "\n", *rows[1:]], False),
    "unknown-node": (lambda rows: [_with_cell(rows[0], 0, "nowhere"), *rows[1:]], False),
    "sibling-unequal-dk": (lambda rows: [*rows[:-1], _with_cell(rows[-1], 5, "0.25")],
                           True),
}


def _loaded(load, path, problem):
    """The bits of the arrays Y, dK, dA and dM that ``load`` gives (as a
    tuple or a SystemSolution), or its ValueError message."""
    try:
        loaded = load(path, problem)
    except ValueError as err:
        return str(err)
    if isinstance(loaded, SystemSolution):
        loaded = (loaded.y_columns, loaded.k_columns, loaded.a_columns,
                  loaded.m_columns)
    return [columns.view(np.int64).tolist() for columns in loaded]


def _row_by_row(path, problem):
    """The loader's slow path called directly: the row-by-row read and the
    solution's checks."""
    from orbsde.reporting import _load_rows

    return SystemSolution(problem.tree, *_load_rows(path, problem))


@pytest.mark.parametrize("block", [64, None])
@pytest.mark.parametrize("name", ["decoupled", "switch2x2", "picard-coupled",
                                  "penalty-table"])
def test_fast_load_path_is_bit_equal_to_the_row_loader(scenarios_dir, tmp_path,
                                                       monkeypatch, name, block):
    # every bundled scenario that solve solves (counterexample has no
    # solution), the benchmark's shapes, and blocks cut anywhere in a row group
    import orbsde.reporting as reporting

    if block is not None:
        monkeypatch.setattr(reporting, "LOAD_BLOCK", block)
    path = scenarios_dir / f"{name}.json"
    if not path.is_file():
        path = tmp_path / f"{name}.json"
        spec = benchmark_shaped_scenario(name)
        spec["tree"]["steps"] = 5
        path.write_text(json.dumps(spec))
    assert run("solve", path, "--out", tmp_path / "out") == 0
    problem = Scenario.from_file(path).build_problem()
    csv_path = tmp_path / "out" / "solution.csv"
    fast = reporting._load_canonical(csv_path, problem)
    assert fast is not None
    assert ([columns.view(np.int64).tolist() for columns in fast]
            == _loaded(reporting._load_rows, csv_path, problem))


def test_the_unsolvable_bundled_scenario_has_no_solution_file(scenarios_dir, tmp_path):
    assert run("solve", scenarios_dir / "counterexample.json", "--out", tmp_path) == 2
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize("block", [64, None])
@pytest.mark.parametrize("case", sorted(LOADER_EDITS))
def test_edited_files_load_or_refuse_as_the_row_loader_does(scenarios_dir, tmp_path,
                                                            monkeypatch, case, block):
    import orbsde.reporting as reporting

    if block is not None:
        monkeypatch.setattr(reporting, "LOAD_BLOCK", block)
    edit, fast = LOADER_EDITS[case]
    scenario = scenarios_dir / "switch2x2.json"
    assert run("solve", scenario, "--out", tmp_path / "out") == 0
    header, *rows = (tmp_path / "out" / "solution.csv").read_text().splitlines(
        keepends=True)
    edited = tmp_path / "edited.csv"
    edited.write_bytes((header + "".join(edit(rows))).encode())
    problem = Scenario.from_file(scenario).build_problem()
    assert (_loaded(reporting.load_solution_csv, edited, problem)
            == _loaded(_row_by_row, edited, problem))
    assert (reporting._load_canonical(edited, problem) is not None) == fast


@pytest.mark.parametrize("block", [1, 2, 256])
def test_csv_writer_matches_a_row_by_row_format(tmp_path, monkeypatch, block):
    # the writer's blocks of one-pass templates against every value
    # formatted on its own with fmt, on the coupled benchmark shape
    import orbsde.reporting as reporting
    from orbsde.oblique import solve_system
    from orbsde.reporting import CSV_HEADER, fmt

    monkeypatch.setattr(reporting, "FORMAT_BLOCK", block)
    path = tmp_path / "coupled-3.json"
    path.write_text(json.dumps(benchmark_shaped_scenario("picard-coupled")))
    problem = Scenario.from_file(path).build_problem()
    solution = solve_system(problem)
    tree = problem.tree
    expected = [CSV_HEADER] + [
        f"{tree.ids[u]},{t},{fmt(t * tree.dt)},{j},{fmt(solution.y[j][u])},"
        f"{fmt(solution.k[j][u])},{fmt(solution.a[j][u])},"
        f"{fmt(solution.m_increments[j][u])}\n"
        for u, t in enumerate(tree.arrays.time.tolist()) for j in range(problem.d)]
    assert reporting.solution_csv_text(problem, solution) == "".join(expected)


def test_rows_of_seven_and_nine_fields_are_refused_whatever_their_ids(tmp_path):
    # on a chain whose ids are its time indices, a row of 7 fields followed
    # by one of 9 leaves every id and mode column in place; the row loader
    # still names the short row
    import orbsde.reporting as reporting

    spec = {
        "format": 1,
        "tree": {"kind": "explicit", "dt": 0.5, "nodes": [
            {"id": "0", "t": 0, "parent": None}, {"id": "1", "t": 1, "parent": "0"},
            {"id": "2", "t": 2, "parent": "1"}]},
        "modes": 2,
        "generators": [{"family": "constant", "a": 0.1}] * 2,
        "costs": [[0, 0.3], [0.3, 0]],
        "barriers": [{"kind": "constant", "value": 2.0}] * 2,
        "terminal": {"kind": "table", "values": {"2": [0.5, 0.4]}},
    }
    path = tmp_path / "numeric.json"
    path.write_text(json.dumps(spec))
    assert run("solve", path, "--out", tmp_path / "out") == 0
    header, *rows = (tmp_path / "out" / "solution.csv").read_text().splitlines(
        keepends=True)
    short = rows[1].rsplit(",", 1)[0] + "\n"           # node 0, mode 1
    long_ = ",".join(["1", "1", "0.5", "0", "0", "0", "0", "0", "0"]) + "\n"
    edited = tmp_path / "edited.csv"
    edited.write_text(header + "".join([rows[0], short, long_, *rows[3:]]))
    problem = Scenario.from_file(path).build_problem()
    assert reporting._load_canonical(edited, problem) is None
    with pytest.raises(ValueError, match="expected 8 fields, got 7"):
        reporting.load_solution_csv(edited, problem)


def test_verify_of_reordered_rows_writes_what_the_written_order_does(scenarios_dir,
                                                                    tmp_path):
    scenario = scenarios_dir / "switch2x2.json"
    assert run("solve", scenario, "--out", tmp_path / "out") == 0
    header, *rows = (tmp_path / "out" / "solution.csv").read_text().splitlines(
        keepends=True)
    reordered = tmp_path / "reordered.csv"
    reordered.write_text(header + "".join(rows[::-1]))
    for name, path in (("written", tmp_path / "out" / "solution.csv"),
                       ("reordered", reordered)):
        assert run("verify", scenario, "--solution", path, "--out", tmp_path / name) == 0
    assert ((tmp_path / "written" / "verification.json").read_bytes()
            == (tmp_path / "reordered" / "verification.json").read_bytes())


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


@pytest.mark.parametrize("dt, first", [
    (float("inf"), {"code": "non-finite", "message": "dt = inf"}),
    (1e308, {"code": "non-finite", "message": "U^0 = inf", "mode": 0,
             "node_id": "rdd", "time_index": 2}),
])
def test_linear_barrier_of_a_non_finite_time_warns_nothing(scenarios_dir, tmp_path,
                                                          capsys, dt, first):
    # t * dt is 0 * inf at the root, or overflows: the barrier is refused as
    # data, with no numpy warning on the way
    spec = read_json(scenarios_dir / "switch2x2.json")
    spec["tree"]["dt"] = dt
    path = tmp_path / "dt.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("verify", path, "--out", out) == 2
    assert "Warning" not in capsys.readouterr().err
    diag = read_json(out / "diagnostic.json")
    assert diag["error"]["kind"] == "problem-validation"
    assert diag["violations"][0] == first


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


def test_solve_and_verify_search_for_binding_cycles_once(scenarios_dir, tmp_path,
                                                         monkeypatch):
    # the solver's acyclicity check and verify_minimality of its answer
    # share one search
    import orbsde.oblique

    searches = []
    edges = orbsde.oblique._binding_edges
    monkeypatch.setattr(orbsde.oblique, "_binding_edges",
                        lambda *args: searches.append(args) or edges(*args))
    for command in ("solve", "verify"):
        searches.clear()
        assert run(command, scenarios_dir / "switch2x2.json", "--out",
                   tmp_path / command) == 0
        assert len(searches) == 1


def test_missing_attaining_mode_exits_3_with_node(scenarios_dir, tmp_path,
                                                  monkeypatch):
    import orbsde.switching
    from orbsde.oblique import CostMatrix, _binding_edges

    # the greedy strategy's attaining-mode test reads costs 1 above the
    # obstacle's, so the obstacle binding at rd in mode 0 has no attainer
    monkeypatch.setattr(orbsde.switching, "_binding_edges", lambda costs, *args: (
        _binding_edges(CostMatrix(costs.values + 1.0), *args)))
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


@pytest.mark.parametrize("flags, detail", [
    # argparse reads a negative number in exponent form as an option
    (["--tol", "-1e-10"], "argument --tol: expected one argument"),
    (["--max-sweeps", "1.5"], "argument --max-sweeps: invalid int value: '1.5'"),
    (["--bogus"], "unrecognized arguments: --bogus"),
])
def test_refused_arguments_exit_2_with_a_diagnostic(scenarios_dir, tmp_path,
                                                    monkeypatch, flags, detail):
    # argparse raised SystemExit out of main and wrote no diagnostic
    scenario = scenarios_dir / "switch2x2.json"
    out = tmp_path / "out"
    assert run("solve", scenario, *flags, "--out", out) == 2
    payload = read_json(out / "diagnostic.json")
    assert payload == {"exit_code": 2, "error": {"kind": "usage", "detail": detail}}
    monkeypatch.chdir(tmp_path)
    assert run("solve", scenario, *flags) == 2
    assert read_json(tmp_path / "orbsde_out" / "diagnostic.json") == payload


def test_one_parser_serves_refused_and_accepted_calls_alike(scenarios_dir, tmp_path,
                                                            monkeypatch, capsys):
    # main builds its parser once per process; a refused call before or
    # after an accepted one writes what each writes alone
    scenario = scenarios_dir / "switch2x2.json"
    calls = {"refused": ["solve", scenario, "--max-sweeps", "1.5"],
             "accepted": ["solve", scenario]}

    def written(name: str, out: Path) -> tuple:
        code = run(*calls[name], "--out", out)
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        return code, capsys.readouterr().err, files

    alone = {}
    for name in calls:
        orbsde.cli._parser.cache_clear()
        alone[name] = written(name, tmp_path / f"alone-{name}")
    built = []
    monkeypatch.setattr(orbsde.cli, "build_parser", lambda build=orbsde.cli.build_parser: (
        built.append(1) or build()))
    orbsde.cli._parser.cache_clear()
    for order in (("refused", "accepted"), ("accepted", "refused")):
        for name in order:
            assert written(name, tmp_path / f"{'-'.join(order)}-{name}") == alone[name]
    assert alone["refused"][0] == 2 and alone["accepted"][0] == 0
    assert "usage: orbsde" in alone["refused"][1]
    assert len(built) == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        run("solve", "-h")
    assert done.value.code == 0
    assert "--max-sweeps" in capsys.readouterr().out


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


SRC = Path(__file__).resolve().parent.parent / "src"


def run_process(*argv, address_space_mb: int | None = None):
    """``orbsde argv`` in a new interpreter that imports this checkout's
    package, its address space capped at ``address_space_mb`` MiB when
    given; the completed process, its output as text."""
    import os
    import resource
    import subprocess
    import sys

    def cap():
        limit = address_space_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "orbsde.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120,
                          preexec_fn=None if address_space_mb is None else cap)


def oracle_chain_scenario() -> dict:
    """The shape of the benchmark's oracle-chain scenario: three modes with
    decoupled linear generators on an 8-step chain (3^8 strategies per
    start mode), fixed shocks of +-0.15."""
    signs = ["+-+--++-", "-++-+--+", "--+++-+-"]
    return {
        "format": 1,
        "name": "oracle-chain-8",
        "tree": {"kind": "chain", "steps": 8, "dt": 0.125},
        "modes": 3,
        "generators": [{"family": "linear", "a": 0.1 * j, "b": 0.2 + 0.1 * j}
                       for j in range(3)],
        "costs": [[0.0 if j == k else 0.1 for k in range(3)] for j in range(3)],
        "barriers": [{"kind": "constant", "value": 4.0}] * 3,
        "terminal": {"kind": "table", "values": {"n8": [1.0, 1.02, 1.04]}},
        "v_increments": [{f"n{i}": 0.15 if sign == "+" else -0.15
                          for i, sign in enumerate(row)} for row in signs],
        "solver": {"stopping_depth_cap": 8},
    }


def test_brute_force_refuses_strategy_values_that_overflow(tmp_path):
    # a drift of -1e308 into mode 1's first edge: every strategy that
    # starts in mode 1 sums to -inf or NaN
    spec = oracle_chain_scenario()
    spec["v_increments"][1]["n0"] = -1e308
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(spec))
    done = run_process("brute-force", path, "--out", tmp_path / "out")
    assert (done.returncode, "Traceback" in done.stderr) == (2, False)
    diag = read_json(tmp_path / "out" / "diagnostic.json")
    assert diag["error"]["kind"] == "problem-validation"
    assert diag["violations"] == [{
        "code": "strategy-values", "message": "no strategy has a start value above -inf",
        "node_id": "n0", "time_index": 0, "mode": 1}]


@pytest.mark.parametrize("command", ["verify", "brute-force"])
def test_one_enumeration_serves_every_start_mode(tmp_path, monkeypatch, command):
    # verify and brute-force value every start mode's strategies in one
    # enumeration (every mode allowed at the start), then verify walks the
    # d greedy strategies, one mode per node
    import orbsde.switching

    path = tmp_path / "chain.json"
    path.write_text(json.dumps(oracle_chain_scenario()))
    evaluate, starts = orbsde.switching._eval_strategy, []

    def recorded(ctx, allowed, single=False):
        starts.append(allowed[0])
        return evaluate(ctx, allowed, single)

    monkeypatch.setattr(orbsde.switching, "_eval_strategy", recorded)
    assert run(command, path, "--out", tmp_path / "out") == 0
    greedy = [[0], [1], [2]] if command == "verify" else []
    assert starts == [[0, 1, 2]] + greedy


@pytest.mark.parametrize("command", ["verify", "brute-force"])
def test_the_joint_enumeration_gives_each_start_modes_own_answer(tmp_path, command):
    # verify and brute-force read every start mode's answer off one
    # enumeration: each mode's brute_force_value, and start mode 1's own
    # refusal (a drift of -1e308 into its first edge) with its findings
    from orbsde import InvalidProblemError, brute_force_value

    spec = oracle_chain_scenario()
    path, refused = tmp_path / "chain.json", tmp_path / "refused.json"
    path.write_text(json.dumps(spec))
    problem = Scenario.from_dict(spec).build_problem()
    spec["v_increments"][1]["n0"] = -1e308
    refused.write_text(json.dumps(spec))
    assert run(command, path, "--out", tmp_path / "joint") == 0
    root = problem.tree.root
    own = [brute_force_value(problem, root, j) for j in range(problem.d)]
    if command == "verify":
        checks = read_json(tmp_path / "joint" / "verification.json")["checks"]
        assert [c["brute_force"] for c in checks["brute_force"]] == [v for v, _ in own]
    else:
        modes = read_json(tmp_path / "joint" / "brute_force.json")["modes"]
        assert [(m["value"], m["argmax_strategy"]) for m in modes] == [
            (v, strategy.as_id_dict()) for v, strategy in own]
    assert run("brute-force", refused, "--out", tmp_path / "joint-refused") == 2
    with pytest.raises(InvalidProblemError) as err:
        brute_force_value(Scenario.from_dict(spec).build_problem(), root, 1)
    diag = read_json(tmp_path / "joint-refused" / "diagnostic.json")
    assert diag["violations"] == [v.as_dict() for v in err.value.violations]


def test_verify_refuses_start_mode_1_after_mode_0s_checks(tmp_path, record):
    # the solution of the chain, verified against the chain with a drift of
    # -1e308 into mode 1's first edge: start mode 0's brute force, greedy
    # walk and martingale check run first, and then start mode 1's
    # strategy values are refused, as the per-mode enumerations refuse them
    spec = oracle_chain_scenario()
    path, refused = tmp_path / "chain.json", tmp_path / "refused.json"
    path.write_text(json.dumps(spec))
    spec["v_increments"][1]["n0"] = -1e308
    refused.write_text(json.dumps(spec))
    assert run("solve", path, "--out", tmp_path / "solved") == 0
    greedy = record(orbsde.cli, "construct_optimal_strategy")
    assert run("verify", refused, "--solution", tmp_path / "solved" / "solution.csv",
               "--out", tmp_path / "out") == 2
    assert [strategy.start_mode for strategy in greedy] == [0]
    diag = read_json(tmp_path / "out" / "diagnostic.json")
    assert diag["violations"] == [{
        "code": "strategy-values", "message": "no strategy has a start value above -inf",
        "node_id": "n0", "time_index": 0, "mode": 1}]


def test_verify_refuses_costs_whose_worst_case_total_overflows(tmp_path):
    # two steps of the largest cost, 1e308, overflow the diagnostic's sum,
    # and the strategy oracle could not value strategies that pay them
    spec = oracle_binomial_scenario()
    spec["costs"][0][1] = 1e308
    path = tmp_path / "binomial.json"
    path.write_text(json.dumps(spec))
    assert run("verify", path, "--out", tmp_path / "out") == 2
    diag = read_json(tmp_path / "out" / "diagnostic.json")
    assert diag["error"]["kind"] == "problem-validation"
    assert diag["violations"] == [{
        "code": "cost-overflow",
        "message": "c[0][1] = 1e+308 makes the worst-case switching cost overflow",
        "time_index": 2, "mode": 0}]
    # a total that does not overflow is still summed exactly
    spec["costs"][0][1] = 1e307
    path.write_text(json.dumps(spec))
    assert run("verify", path, "--out", tmp_path / "fits") == 0
    report = read_json(tmp_path / "fits" / "verification.json")
    assert report["worst_case_switching_cost"] == 3e307


@pytest.mark.parametrize("command", ["solve", "verify", "brute-force"])
def test_costs_that_could_bind_in_a_cycle_are_refused(tmp_path, command):
    # costs of 1e-11 both ways are positive and two modes have no triangle,
    # but with one terminal for both modes the components are equal at the
    # leaves, where each mode's obstacle binds the other within the binding
    # tolerance 1e-10; a pair summing to at most d * 1e-10 is refused
    spec = oracle_binomial_scenario()
    spec["costs"] = [[0.0, 1e-11], [1e-11, 0.0]]
    spec["terminal"] = {"kind": "price-affine", "a": [0.0, 0.0], "b": [1.0, 1.0]}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(spec))
    assert run(command, path, "--out", tmp_path / "out") == 2
    diag = read_json(tmp_path / "out" / "diagnostic.json")
    assert diag["error"]["kind"] == "problem-validation"
    message = ("c[0][1] + c[1][0] = 2e-11 <= 2e-10 (d times the binding tolerance): "
               "modes 0 and 1 can bind in a cycle")
    assert diag["violations"] == [{"code": "cost-cycle", "message": message,
                                   "time_index": t, "mode": 0} for t in range(4)]


def test_overflowing_binomial_price_warns_nothing(tmp_path):
    # the price 1e200^2 overflows: the terminal is refused as data, and no
    # numpy warning is printed before the refusal
    spec = oracle_binomial_scenario()
    spec["tree"]["up"] = 1e200
    path = tmp_path / "price.json"
    path.write_text(json.dumps(spec))
    done = run_process("solve", path, "--out", tmp_path / "out")
    assert done.returncode == 2
    assert "Warning" not in done.stderr
    assert read_json(tmp_path / "out" / "diagnostic.json")["violations"][0]["code"] == (
        "non-finite")


@pytest.mark.parametrize("kind, steps, nodes", [("binomial", 40, "binomial tree"),
                                                ("chain", 10**9, "chain tree")])
def test_tree_past_the_node_cap_exits_2_before_it_is_built(tmp_path, kind, steps,
                                                           nodes):
    # in a process of 512 MiB of address space: building the tree would end
    # in a MemoryError traceback there, not in a machine out of memory
    from orbsde.scenario import MAX_NODES

    spec = oracle_binomial_scenario() if kind == "binomial" else oracle_chain_scenario()
    spec["tree"]["steps"] = steps
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(spec))
    done = run_process("solve", path, "--out", tmp_path / "out", address_space_mb=512)
    assert (done.returncode, "Traceback" in done.stderr) == (2, False)
    error = read_json(tmp_path / "out" / "diagnostic.json")["error"]
    assert error == {"kind": "scenario", "detail": f"tree: steps = {steps} makes a "
                     f"{nodes} of more than {MAX_NODES} nodes"}


def test_node_cap_admits_the_17_step_binomial_tree():
    # checked on the spec alone: no tree is built here
    from orbsde.scenario import MAX_NODES, ScenarioError

    spec = oracle_binomial_scenario()
    for steps in (16, 17):
        spec["tree"]["steps"] = steps
        assert Scenario.from_dict(spec).tree_spec["steps"] == steps
    spec["tree"]["steps"] = 18
    with pytest.raises(ScenarioError, match="steps = 18 makes a binomial tree"):
        Scenario.from_dict(spec)
    chain = oracle_chain_scenario()
    chain["tree"]["steps"] = MAX_NODES - 1
    assert Scenario.from_dict(chain).tree_spec["steps"] == MAX_NODES - 1
    chain["tree"]["steps"] = MAX_NODES
    with pytest.raises(ScenarioError, match="makes a chain tree"):
        Scenario.from_dict(chain)


FUZZ_SECTIONS = ("generators", "barriers", "terminal", "v_increments", "costs")
FUZZ_VALUES = (0.0, -0.0, 1.0, -1.0, 5e-324, 1e-308, 1e308, -1e308,
               float("inf"), float("-inf"), float("nan"))


def _numeric_leaves(node, path=()):
    """The paths to the numbers under ``node``, a parsed JSON value."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path
    elif isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _numeric_leaves(child, path + (key,))


def _fuzz_bases() -> list[dict]:
    """The bundled scenarios and small ones of the benchmark's shapes."""
    bundled = sorted((SRC.parent / "scenarios").glob("*.json"))
    return [read_json(path) for path in bundled] + [
        benchmark_shaped_scenario("picard-coupled"),
        benchmark_shaped_scenario("penalty-table"),
        oracle_binomial_scenario(),
        oracle_chain_scenario(),
    ]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_one_mutated_number_is_solved_or_refused_without_a_traceback(data):
    # one number of the data (never the tree's steps) set to a nasty value
    # or scaled, then a command run in process: no exception escapes main,
    # no warning is raised, and the exit code is a documented one (exits 3
    # and 4 on data whose sums overflow included)
    import copy
    import tempfile

    spec = copy.deepcopy(data.draw(st.sampled_from(_fuzz_bases()), label="base"))
    *path, last = data.draw(st.sampled_from([
        (section,) + leaf for section in FUZZ_SECTIONS
        for leaf in _numeric_leaves(spec.get(section))]), label="leaf")
    node = spec
    for key in path:
        node = node[key]
    node[last] = data.draw(st.one_of(
        st.sampled_from(FUZZ_VALUES),
        st.sampled_from((-1.0, 10.0, 1e6, 1e-6, 1e300)).map(lambda c: c * node[last]),
    ), label="value")
    command = data.draw(st.sampled_from(
        ["solve", "verify", "sweep-penalization", "brute-force"]), label="command")
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(spec))
        code = run(command, scenario, "--out", Path(tmp) / "out")
    assert [str(w.message) for w in seen] == []
    assert code in (0, 2, 3, 4)


def test_brute_force_on_coupled_generators_exits_2(scenarios_dir, tmp_path):
    spec = read_json(scenarios_dir / "switch2x2.json")
    spec["generators"][0] = {"family": "affine-coupled", "a": 0.1, "b": 0.1,
                             "g": [0.0, 0.2]}
    path = tmp_path / "coupled.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run("brute-force", path, "--out", out) == 2
    diag = read_json(out / "diagnostic.json")
    assert diag["error"]["kind"] == "problem-validation"
    assert diag["error"]["detail"] == "2 violation(s); see diagnostic.json"
    assert {(v["code"], v["mode"], v["time_index"]) for v in diag["violations"]} == {
        ("generator-coupled", 0, 0), ("generator-coupled", 0, 1)
    }
    assert not (out / "brute_force.json").exists()


@pytest.mark.parametrize("command", ["solve", "verify", "verify --solution",
                                     "sweep-penalization", "brute-force"])
def test_each_command_validates_once(scenarios_dir, tmp_path, record, command):
    import orbsde.cli
    import orbsde.oblique

    scenario = scenarios_dir / "switch2x2.json"
    flags = ["--out", tmp_path / "out"]
    if command == "verify --solution":
        assert run("solve", scenario, "--out", tmp_path / "solved") == 0
        flags += ["--solution", tmp_path / "solved" / "solution.csv"]
    reports = [record(module, "validate_problem")
               for module in (orbsde.cli, orbsde.oblique)]
    assert run(command.split()[0], scenario, *flags) == 0
    assert sum(map(len, reports)) == 1


def test_solve_and_verify_solution_make_no_node(tmp_path, record):
    # the coupled benchmark shape at five steps, deeper than the
    # stopping-time enumeration cap, so verify --solution runs no oracle
    # that walks Node objects; validation, the solve, the CSV writer and
    # loader and the minimality check read the tree's columns only
    spec = benchmark_shaped_scenario("picard-coupled")
    spec["tree"]["steps"] = 5
    path = tmp_path / "coupled-5.json"
    path.write_text(json.dumps(spec))
    problem = Scenario.from_file(path).build_problem()
    assert validate_problem(problem) == []
    assert "nodes" not in vars(problem.tree)
    built = record(Scenario, "build_problem")
    assert run("solve", path, "--out", tmp_path / "solved") == 0
    assert run("verify", path, "--solution", tmp_path / "solved" / "solution.csv",
               "--out", tmp_path / "verified") == 0
    assert ["nodes" in vars(p.tree) for p in built] == [False, False]


@pytest.mark.parametrize("command", ["solve", "verify --solution"])
def test_commands_convert_the_upper_barriers_and_y_once(
        scenarios_dir, tmp_path, record, command):
    # the problem's per-mode upper barriers and drifts become arrays once
    # each, and nothing else does: the solution's arrays are the walk's or
    # the loader's own
    import orbsde.cli
    import orbsde.oblique

    scenario = scenarios_dir / "switch2x2.json"
    flags = ["--out", tmp_path / "out"]
    if command == "verify --solution":
        assert run("solve", scenario, "--out", tmp_path / "solved") == 0
        flags += ["--solution", tmp_path / "solved" / "solution.csv"]
    problems = record(Scenario, "build_problem")
    solutions = record(orbsde.cli, "solve_system" if command == "solve"
                       else "load_solution_csv")
    columns = record(orbsde.oblique, "_columns_of")
    assert run(command.split()[0], scenario, *flags) == 0
    (problem,), (solution,) = problems, solutions
    assert sorted(map(id, columns)) == sorted(
        map(id, (problem.upper_columns, problem.v_columns)))
    for once in (problem.upper_columns, problem.v_columns, solution.y_columns,
                 solution.k_columns, solution.a_columns, solution.m_columns):
        assert not once.flags.writeable


def test_solve_and_verify_solution_build_no_per_mode_view(tmp_path, record):
    # the coupled benchmark shape at five steps, past the oracles' caps:
    # solve, the CSV writer, the loader (both paths) and verify --solution
    # read the solution's arrays only, and make none of its per-mode
    # AdaptedProcess, PredictableIncrements or tuple views
    import orbsde.cli
    import orbsde.reporting

    spec = benchmark_shaped_scenario("picard-coupled")
    spec["tree"]["steps"] = 5
    path = tmp_path / "coupled-5.json"
    path.write_text(json.dumps(spec))
    solved = record(orbsde.cli, "solve_system")
    loaded = record(orbsde.cli, "load_solution_csv")
    slow = record(orbsde.reporting, "_load_rows")
    csv_path = tmp_path / "solved" / "solution.csv"
    assert run("solve", path, "--out", tmp_path / "solved") == 0
    text = csv_path.read_text()
    reordered = tmp_path / "reordered.csv"
    header, first, second, *rows = text.splitlines(keepends=True)
    reordered.write_text(header + second + first + "".join(rows))
    for source in (csv_path, reordered):
        assert run("verify", path, "--solution", source,
                   "--out", tmp_path / "verified") == 0
    assert len(slow) == 1   # the reordered file only
    views = {"y", "k", "a", "m_increments"}
    assert [views & set(vars(s)) for s in solved + loaded] == [set()] * 3


@pytest.mark.parametrize("command", ["verify", "brute-force"])
def test_oracle_commands_make_no_node(tmp_path, record, command):
    # the benchmark's oracle-binomial shape: the stopping-time and strategy
    # enumerations, the greedy strategy, the switched-martingale check and
    # the brute-force report read the tree's columns only
    spec = oracle_binomial_scenario()
    path = tmp_path / "oracle-binomial-3.json"
    path.write_text(json.dumps(spec))
    built = record(Scenario, "build_problem")
    assert run(command, path, "--out", tmp_path / "out") == 0
    assert ["nodes" in vars(p.tree) for p in built] == [False]
    if command == "verify":   # every oracle ran: none was skipped
        report = json.loads((tmp_path / "out" / "verification.json").read_text())
        assert report["notes"] == [] and report["mismatches"] == []


def test_sweep_makes_no_node(tmp_path, record):
    # the benchmark's penalty-table shape: the solve, the penalty ladder and
    # its K and A masses (each parent weighed by its reach probability) read
    # the tree's columns only
    path = tmp_path / "penalty-table-2.json"
    path.write_text(json.dumps(penalty_table_scenario()))
    built = record(Scenario, "build_problem")
    assert run("sweep-penalization", path, "--out", tmp_path / "out") == 0
    assert ["nodes" in vars(p.tree) for p in built] == [False]


@pytest.mark.parametrize("command", ["verify", "verify --solution", "brute-force"])
def test_switching_commands_take_the_decoupling_verdict_once(
        scenarios_dir, tmp_path, record, command):
    import orbsde.switching

    scenario = scenarios_dir / "switch2x2.json"
    flags = ["--out", tmp_path / "out"]
    if command == "verify --solution":
        assert run("solve", scenario, "--out", tmp_path / "solved") == 0
        flags += ["--solution", tmp_path / "solved" / "solution.csv"]
    verdicts = record(orbsde.switching, "decoupling_violations")
    assert run(command.split()[0], scenario, *flags) == 0
    assert verdicts == [[]]


def test_sweep_walks_once_per_mode(scenarios_dir, tmp_path, record):
    import orbsde.scalar

    walks = record(orbsde.scalar, "_backward_walk")
    assert run("sweep-penalization", scenarios_dir / "switch2x2.json",
               "--out", tmp_path / "out") == 0
    # solve_system over the d = 2 modes, then every mode's 25 pairs at once
    assert [y.shape[1] for y, *_ in walks] == [2, 25 * 2]


def test_sweep_ladder_columns_equal_each_modes_own_ladder(tmp_path):
    # the sweep's one ladder walk over every mode, on the benchmark's
    # kinked-table shape (bisection roots): each mode's columns equal its
    # own single-mode ladder bit for bit, Y at every node, dK, dA and both
    # masses
    from orbsde.oblique import mode_problem, solve_system
    from orbsde.scalar import _penalized_solve
    from orbsde.scenario import PENALTY_LADDER

    path = tmp_path / "penalty-table-3.json"
    path.write_text(json.dumps(benchmark_shaped_scenario("penalty-table")))
    problem = Scenario.from_file(path).build_problem()
    solution = solve_system(problem)
    pairs = [(p, q) for p in PENALTY_LADDER for q in PENALTY_LADDER]
    modes = [mode_problem(problem, solution, j) for j in range(problem.d)]
    fused = _penalized_solve(modes, *zip(*pairs))
    for j, mode in enumerate(modes):
        alone = _penalized_solve([mode], *zip(*pairs))
        cols = slice(j * len(pairs), (j + 1) * len(pairs))
        for field in ("y", "k", "a", "lower_mass", "upper_mass"):
            ours, own = getattr(fused, field)[..., cols], getattr(alone, field)
            assert ours.shape == own.shape
            assert ours.tobytes() == own.tobytes(), (j, field)


def test_solve_finds_one_root_per_mode_per_level(tmp_path, record):
    # the benchmark's penalty-table shape: the table generators read no
    # other component, so each mode's root at a parent is found once, in
    # round 1, however many rounds the obstacle takes, and the 3 modes'
    # roots in one batched find (levels t = 2, 1, 0 with 4, 2 and 1
    # parents)
    import orbsde.oblique

    path = tmp_path / "penalty-table-3.json"
    path.write_text(json.dumps(benchmark_shaped_scenario("penalty-table")))
    finds = record(orbsde.oblique, "_root_find_batch")
    solutions = record(orbsde.cli, "solve_system")
    assert run("solve", path, "--out", tmp_path / "out") == 0
    assert solutions[0].sweeps > 1
    assert [roots.size for roots, _ in finds] == [12, 6, 3]


def test_scenario_declares_what_each_generator_reads():
    # constant, linear and table read no other component; affine-coupled
    # reads each other component of nonzero weight (its own weight is b's)
    spec = benchmark_shaped_scenario("penalty-table")
    problem = Scenario.from_dict(spec).build_problem()
    assert problem.reads == ((), (), ())
    spec["generators"] = [
        {"family": "constant", "a": 0.1},
        {"family": "linear", "a": 0.0, "b": 0.2},
        {"family": "affine-coupled", "a": 0.0, "b": 0.3, "g": [0.1, 0.0, 0.7]},
    ]
    problem = Scenario.from_dict(spec).build_problem()
    assert problem.reads == ((), (), (0,))
    assert validate_problem(problem) == []
    coupled = Scenario.from_dict(benchmark_shaped_scenario("picard-coupled"))
    assert coupled.build_problem().reads == ((1, 2), (0, 2), (0, 1))


def test_verify_past_the_stopping_caps_builds_no_mode_problem(tmp_path, record):
    # picard-coupled's shape with the depth cap below the tree's depth: the
    # representation check is skipped before any mode problem is built
    spec = benchmark_shaped_scenario("picard-coupled")
    spec["solver"] = {"stopping_depth_cap": 2}
    path = tmp_path / "picard-coupled-3.json"
    path.write_text(json.dumps(spec))
    assert run("solve", path, "--out", tmp_path / "solved") == 0
    built = record(orbsde.cli, "mode_problem")
    assert run("verify", path, "--solution", tmp_path / "solved" / "solution.csv",
               "--out", tmp_path / "out") == 0
    assert built == []
    report = read_json(tmp_path / "out" / "verification.json")
    assert report["notes"][0] == ("representation check skipped: subtree depth 3 "
                                  "exceeds enumeration bound 2")


def test_non_finite_json_values_are_strings(scenarios_dir, tmp_path, monkeypatch):
    import math

    import orbsde.cli
    from orbsde.reporting import write_json

    monkeypatch.setattr(orbsde.cli, "verify_snell_representation",
                        lambda *args: math.nan)
    out = tmp_path / "out"
    assert run("verify", scenarios_dir / "switch2x2.json", "--out", out) == 4

    def refuse(constant):
        raise ValueError(f"bare {constant} in JSON")

    results = json.loads((out / "verification.json").read_text(),
                         parse_constant=refuse)
    assert results["checks"]["snell_representation_gap"] == "NaN"
    write_json(tmp_path / "x.json", {"v": [math.inf, -math.inf, (1.5, math.nan)]})
    assert json.loads((tmp_path / "x.json").read_text(), parse_constant=refuse) == {
        "v": ["Infinity", "-Infinity", [1.5, "NaN"]]}


def test_verify_enumerates_each_start_nodes_stopping_times_once(scenarios_dir, tmp_path,
                                                               record):
    # the d modes' representation checks share one enumeration per start
    # node (7 nodes, 2 modes: 7 enumerations, where each mode made its own)
    import orbsde.scalar

    enumerations = record(orbsde.scalar, "enumerate_stopping_times")
    checks = record(orbsde.cli, "verify_snell_representation")
    assert run("verify", scenarios_dir / "switch2x2.json", "--out", tmp_path / "v") == 0
    assert len(checks) == 2 and len(enumerations) == 7


def test_nan_representation_gap_is_a_mismatch(scenarios_dir, tmp_path, monkeypatch):
    import math

    import orbsde.cli

    monkeypatch.setattr(orbsde.cli, "verify_snell_representation",
                        lambda *args: math.nan)
    out = tmp_path / "out"
    assert run("verify", scenarios_dir / "switch2x2.json", "--out", out) == 4
    assert read_json(out / "diagnostic.json")["error"]["detail"].startswith(
        "stopped-payoff representation gap nan > 1e-09")


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
                generator=lambda t, nodes, y, _j=j: problem.generators[_j](
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


def test_node_ids_with_a_percent_sign_round_trip(tmp_path):
    # the CSV writer formats every value into one template: an id holding
    # "%" is written as it is, and verify --solution reads it back
    ids = ["50%", "lo%d", "hi%%"]
    spec = {
        "format": 1,
        "tree": {"kind": "explicit", "dt": 0.5, "nodes": [
            {"id": ids[0], "t": 0, "parent": None},
            {"id": ids[1], "t": 1, "parent": ids[0], "p": 0.4},
            {"id": ids[2], "t": 1, "parent": ids[0], "p": 0.6},
        ]},
        "modes": 2,
        "generators": [{"family": "linear", "a": 0.1, "b": 0.2},
                       {"family": "constant", "a": 0.1}],
        "costs": [[0, 0.3], [0.3, 0]],
        "barriers": [{"kind": "constant", "value": 2.0}] * 2,
        "terminal": {"kind": "table", "values": {ids[1]: [0.5, 0.4],
                                                 ids[2]: [0.9, 1.0]}},
    }
    path = tmp_path / "percent.json"
    path.write_text(json.dumps(spec))
    assert run("solve", path, "--out", tmp_path / "out") == 0
    csv_path = tmp_path / "out" / "solution.csv"
    rows = csv_path.read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [
        ids[0], ids[0], ids[2], ids[2], ids[1], ids[1]]
    assert run("verify", path, "--solution", csv_path, "--out", tmp_path / "v") == 0


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
    assert f"generators[1]: table {field} must be finite and ascending" in error["detail"]


def test_non_finite_table_values_exit_2(scenarios_dir, tmp_path):
    spec = read_json(scenarios_dir / "switch2x2.json")
    spec["generators"][1] = {"family": "table", "times": [0.0], "grid": [-1.0, 1.0],
                             "values": [[float("inf"), 0.0]]}
    path = tmp_path / "values.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert run("solve", path, "--out", out) == 2
    error = read_json(out / "diagnostic.json")["error"]
    assert error["detail"] == "generators[1]: table row 0 must be finite"


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
