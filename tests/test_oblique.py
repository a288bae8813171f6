"""Oblique system: obstacle algebra, validation, Picard solver, minimality.

Core claims:
    - evaluate_H is the cost-shifted max over other modes, independent of
      the own component and monotone
    - validate_problem certifies the Mokobodzki inequality pointwise (the
      no-solution discretization is flagged at every early node), the
      triangle condition, and the terminal sandwich
    - the subsolution starts below the limit; Picard sweeps are nodewise
      nondecreasing, upper increments grow sweepwise, and the limit passes
      every minimality check at 1e-10
    - with an inert obstacle the system degenerates to d independent
      upper-reflected solves; symmetric data give identical components
    - triangle costs exclude binding cycles; different valid corners lead
      to the same solution
    - a solve evaluates the obstacle once per parent per sweep; non-finite
      dt, costs, barriers, terminals, v increments and generator values
      are rejected with coordinates, and a terminal vector of the wrong
      length is a dimension finding naming the leaf; several findings are
      listed by node, mode and datum (non-finite data), and the Mokobodzki
      findings before the terminal ones
    - both validators probe the generators at every time index: a rise at
      any single time index is flagged there, and solve_system refuses
      such a problem instead of failing inside the solve; the probe grid
      comes from the validator's one gather of the terminal rows, and a
      problem never validated gathers them for its decoupling verdict
    - the single backward pass (solve_system) agrees with Picard at 1e-12
      on the criterion-5 systems, the bundled scenarios and random systems
      (coupled generators, deep v shocks, zero-cost obstacle cycles; both
      with a budget of 400 rounds or sweeps), or both raise the same
      error; it takes a pinned number of rounds on switch2x2, names the
      node whose round budget runs out, and both solvers start each node
      below its solution, so both find the least point of a coupled
      zero-cost cycle; of two failing parents of a level, the error names
      the higher-index one, whatever round it failed in
    - both solvers match the exact active-set oracle (tests/oracles.py) at
      1e-10 on random coupled systems and zero-cost cycles
    - a sweep budget below 1 or a NaN or negative tolerance is a ValueError
    - a NaN in a solution fails verify_minimality; a binding cycle in a
      solver's output raises InternalConsistencyError with its node
    - a Picard level step is one batched root find over every mode; the
      rounds find the modes that read no mode before them in one batch;
      a failing mode's error is the one it meets one mode at a time, and
      both batches run at a level of 128 parents (384 elements)
    - the d-walk search, one middle mode at a time, gives the one-array
      join's verdict; mode_problem gathers only the components a generator
      declares
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import orbsde.oblique
from orbsde import (
    AdaptedProcess,
    BracketingError,
    ConvergenceError,
    EventTree,
    InternalConsistencyError,
    InvalidProblemError,
    NonMonotoneSweepError,
    ObliqueProblem,
    PredictableIncrements,
    ScalarRBSDEProblem,
    build_subsolution,
    evaluate_H,
    picard_solve,
    solve_system,
    solve_two_barrier,
    solve_upper,
    validate_problem,
    verify_minimality,
)
from orbsde.oblique import CostMatrix, SystemSolution, _probe_table, mode_problem
from orbsde.scenario import Scenario
from gen import random_oblique_problem, zero_cost_cycle
from oracles import active_set_values

BIG = 1e6


def counterexample_problem(steps=8, dt=0.25) -> ObliqueProblem:
    """d = 2 chain over [0, 2]: U = (2, t), unit costs, terminal (2, 2)."""
    tree = EventTree.chain(steps, dt)
    return ObliqueProblem(
        tree=tree,
        d=2,
        terminal={tree.leaves[0]: (2.0, 2.0)},
        generators=(lambda t, y: 0.0, lambda t, y: 0.0),
        v=(PredictableIncrements.zero(tree), PredictableIncrements.zero(tree)),
        upper=(
            AdaptedProcess.constant(tree, 2.0),
            AdaptedProcess.from_fn(tree, lambda n: n.t * dt),
        ),
        costs=CostMatrix.constant(steps, [[0.0, 1.0], [1.0, 0.0]]),
    )


def inert_costs_problem(rng, d=2, depth=3):
    problem = random_oblique_problem(rng, d=d, max_depth=depth)
    return ObliqueProblem(
        tree=problem.tree,
        d=d,
        terminal=problem.terminal,
        generators=problem.generators,
        v=problem.v,
        upper=problem.upper,
        costs=CostMatrix.constant(
            problem.tree.n_steps,
            [[0.0 if j == k else BIG for k in range(d)] for j in range(d)],
        ),
    )


# -- evaluate_H ---------------------------------------------------------------


def test_evaluate_H_direct_formula():
    costs = CostMatrix.constant(0, [[0.0, 1.0], [1.0, 0.0]])
    assert evaluate_H(costs, 0, (5.0, 3.0)) == (2.0, 4.0)


def test_evaluate_H_ignores_own_component_and_is_monotone():
    costs = CostMatrix.constant(0, [[0.0, 0.5, 1.0], [0.4, 0.0, 0.7], [1.1, 0.3, 0.0]])
    y = (1.0, -0.5, 2.0)
    h = evaluate_H(costs, 0, y)
    bumped = (y[0] + 3.0, y[1], y[2])
    h2 = evaluate_H(costs, 0, bumped)
    assert h2[0] == h[0]
    assert all(b >= a for a, b in zip(h, h2))


def test_evaluate_H_three_modes_unit_costs():
    costs = CostMatrix.constant(
        0, [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    )
    assert evaluate_H(costs, 0, (0.0, 0.0, 0.0)) == (-1.0, -1.0, -1.0)


# -- validation ----------------------------------------------------------------


def test_counterexample_flagged_at_every_early_node():
    problem = counterexample_problem()
    report = validate_problem(problem)
    flagged = sorted(
        v.time_index for v in report if v.code == "mokobodzki"
    )
    # physical time t_index * 0.25 < 1  <=>  t_index in {0, 1, 2, 3}
    assert flagged == [0, 1, 2, 3]
    assert all(v.mode == 1 for v in report if v.code == "mokobodzki")
    with pytest.raises(InvalidProblemError):
        picard_solve(problem)


def test_two_mode_triangle_condition_vacuous():
    costs = CostMatrix.constant(3, [[0.0, 1.0], [1.0, 0.0]])
    assert costs.validate() == []


def test_three_mode_triangle_violation_detected():
    costs = CostMatrix.constant(
        1, [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    )
    report = costs.validate()
    assert any(v.code == "cost-triangle" for v in report)


def test_cost_positivity_enforced():
    costs = CostMatrix.constant(1, [[0.0, 0.0], [1.0, 0.0]])
    assert any(v.code == "cost-positivity" for v in costs.validate())


def test_mokobodzki_witness_defaults_to_upper_barrier():
    rng = random.Random(5)
    problem = random_oblique_problem(rng)
    # U itself witnesses H(U) <= U on a problem built to satisfy it
    assert [v for v in validate_problem(problem) if v.code == "mokobodzki"] == []


def test_a_declaration_that_leaves_out_a_read_component_is_refused():
    base = random_oblique_problem(random.Random(7), d=2, max_depth=2)
    coupled = dataclasses.replace(
        base, generators=(lambda t, y: -0.2 * y[0] + 0.1 * y[1], base.generators[1]))
    assert validate_problem(dataclasses.replace(coupled, reads=((1,), ()))) == []
    assert validate_problem(dataclasses.replace(coupled, reads=None)) == []
    assert base.reads == ((), ()) and validate_problem(base) == []
    wrong = dataclasses.replace(coupled, reads=((), ()))
    assert [(v.code, v.message, v.time_index, v.mode) for v in validate_problem(wrong)] == [
        ("generator-reads", "f^0 reads component 1, which its declared reads leave out",
         t, 0) for t in range(base.tree.n_steps)]
    with pytest.raises(InvalidProblemError):
        solve_system(wrong)
    short = dataclasses.replace(base, reads=((),))
    assert [v.code for v in validate_problem(short)] == ["dimension"]


def test_coupled_increasing_generator_flagged():
    rng = random.Random(7)
    base = random_oblique_problem(rng, d=2)
    bad = ObliqueProblem(
        tree=base.tree,
        d=2,
        terminal=base.terminal,
        generators=(lambda t, y: 0.5 * y[0], base.generators[1]),
        v=base.v,
        upper=base.upper,
        costs=base.costs,
    )
    assert any(
        v.code == "generator-on-diagonal" for v in validate_problem(bad)
    )


# -- subsolution ----------------------------------------------------------------


def test_subsolution_of_decoupled_problem_is_upper_solve():
    rng = random.Random(11)
    problem = random_oblique_problem(rng, d=2, coupling=0.0)
    parts = build_subsolution(problem)
    for j in range(2):
        direct = solve_upper(
            ScalarRBSDEProblem(
                tree=problem.tree,
                terminal={
                    leaf: problem.terminal[leaf][j] for leaf in problem.tree.leaves
                },
                generator=lambda t, nodes, y, _j=j: problem.generators[_j](
                    t, tuple(y if i == _j else 0.0 for i in range(2))
                ),
                v_increments=problem.v[j],
                upper=problem.upper[j],
            )
        )
        gap = max(
            abs(a - b) for a, b in zip(parts.y[j].values, direct.y.values)
        )
        assert gap <= 1e-12
        assert max(parts.k[j].values) == 0.0


def test_subsolution_sits_below_picard_limit():
    rng = random.Random(13)
    problem = random_oblique_problem(rng, d=2, coupling=0.2)
    parts = build_subsolution(problem)
    solution = picard_solve(problem, tol=1e-12)
    for j in range(2):
        for u in range(problem.tree.n_nodes):
            assert parts.y[j].values[u] <= solution.y[j].values[u] + 1e-12
            assert parts.y[j].values[u] <= problem.upper[j].values[u] + 1e-12


# -- picard solver -----------------------------------------------------------------


def test_inert_obstacle_degenerates_to_independent_upper_solves():
    rng = random.Random(17)
    for d in (2, 3):
        problem = inert_costs_problem(rng, d=d)
        solution = picard_solve(problem, tol=1e-12)
        for j in range(d):
            direct = solve_upper(
                ScalarRBSDEProblem(
                    tree=problem.tree,
                    terminal={
                        leaf: problem.terminal[leaf][j]
                        for leaf in problem.tree.leaves
                    },
                    generator=lambda t, nodes, y, _j=j, _d=d: problem.generators[_j](
                        t, tuple(y if i == _j else 0.0 for i in range(_d))
                    ),
                    v_increments=problem.v[j],
                    upper=problem.upper[j],
                )
            )
            gap = max(
                abs(a - b)
                for a, b in zip(solution.y[j].values, direct.y.values)
            )
            assert gap <= 1e-12
            assert max(solution.k[j].values) == 0.0


def test_symmetric_modes_produce_identical_components():
    tree = EventTree.binary(2, 0.5)
    terminal = {leaf: (0.1 * leaf, 0.1 * leaf) for leaf in tree.leaves}
    problem = ObliqueProblem(
        tree=tree,
        d=2,
        terminal=terminal,
        generators=(
            lambda t, y: 0.2 - 0.3 * y[0],
            lambda t, y: 0.2 - 0.3 * y[1],
        ),
        v=(PredictableIncrements.zero(tree), PredictableIncrements.zero(tree)),
        upper=(
            AdaptedProcess.constant(tree, 2.0),
            AdaptedProcess.constant(tree, 2.0),
        ),
        costs=CostMatrix.constant(tree.n_steps, [[0.0, 0.4], [0.4, 0.0]]),
    )
    solution = picard_solve(problem, tol=1e-12)
    assert solution.y[0].values.tolist() == solution.y[1].values.tolist()


def test_monotone_sweeps_and_growing_upper_increments(record):
    rng = random.Random(19)
    walks = record(orbsde.oblique, "_backward_solve")
    for _ in range(8):
        problem = random_oblique_problem(rng, d=2, coupling=0.25)
        walks.clear()
        picard_solve(problem, tol=1e-12)
        history = walks[1:]  # the first walk is the subsolution
        for prev, cur in zip(history, history[1:]):
            assert (cur.y_columns >= prev.y_columns - 1e-12).all()
            # A increments grow sweepwise
            assert (cur.a_columns >= prev.a_columns - 1e-12).all()


def test_picard_matches_brute_force_on_small_instance():
    from orbsde import brute_force_value

    tree = EventTree.binary(2, 0.5)
    terminal = {}
    for leaf in tree.leaves:
        nid = tree.node(leaf).node_id
        base = 0.6 * nid.count("u") - 0.4 * nid.count("d")
        terminal[leaf] = (base, base + 0.2)
    problem = ObliqueProblem(
        tree=tree,
        d=2,
        terminal=terminal,
        generators=(lambda t, y: 0.0, lambda t, y: 0.0),
        v=(PredictableIncrements.zero(tree), PredictableIncrements.zero(tree)),
        upper=(
            AdaptedProcess.constant(tree, 3.0),
            AdaptedProcess.constant(tree, 3.2),
        ),
        costs=CostMatrix.constant(tree.n_steps, [[0.0, 0.3], [0.35, 0.0]]),
    )
    solution = picard_solve(problem, tol=1e-12)
    for j in range(2):
        value, _ = brute_force_value(problem, tree.root, j)
        assert solution.y[j].values[tree.root] == pytest.approx(value, abs=1e-8)


def test_sweep_budget_exhaustion_raises():
    rng = random.Random(23)
    problem = random_oblique_problem(rng, d=2, coupling=0.25)
    with pytest.raises(ConvergenceError):
        picard_solve(problem, tol=1e-14, max_sweeps=1)


def _start_rows(levels) -> list[tuple[float, ...]]:
    """The start row of every parent, from the recorded ``_level_start``
    results (one ``(start rows, found)`` pair per level)."""
    return [tuple(row) for start, found in levels for row in start[found].tolist()]


def test_corner_lowered_below_a_shallow_subsolution(record):
    # strong negative drift with mild coupling: the first corners are too
    # shallow (the frozen-corner solve dives below them, and a sweep from
    # there would decrease), so build_subsolution lowers the corner
    tree = EventTree.chain(2, 1.0)
    problem = ObliqueProblem(
        tree=tree,
        d=2,
        terminal={tree.leaves[0]: (0.0, 0.0)},
        generators=(
            lambda t, y: -6.0 + 0.2 * y[1],
            lambda t, y: -6.0 + 0.2 * y[0],
        ),
        v=(PredictableIncrements.zero(tree), PredictableIncrements.zero(tree)),
        upper=(
            AdaptedProcess.constant(tree, 1.0),
            AdaptedProcess.constant(tree, 1.0),
        ),
        costs=CostMatrix.constant(tree.n_steps, [[0.0, 0.5], [0.5, 0.0]]),
    )
    levels = record(orbsde.oblique, "_level_start")
    solution = picard_solve(problem, tol=1e-10)
    starts = _start_rows(levels)
    assert min(min(starts)) <= -50.0  # a lowered corner was needed
    report = verify_minimality(problem, solution)
    assert report.ok(1e-10)


def test_two_different_corners_same_limit(monkeypatch, record):
    rng = random.Random(29)
    problem = random_oblique_problem(rng, d=2, coupling=0.0)
    levels = record(orbsde.oblique, "_level_start")
    s1 = picard_solve(problem, tol=1e-12)
    lowest1 = min(_start_rows(levels))
    # start from a corner 5 deeper than the first one tried
    monkeypatch.setattr(orbsde.oblique, "_CORNER_DROPS", (5.0,))
    levels.clear()
    s2 = picard_solve(problem, tol=1e-12)
    starts = _start_rows(levels)
    assert lowest1 != min(starts)
    for j in range(2):
        gap = max(
            abs(a - b) for a, b in zip(s1.y[j].values, s2.y[j].values)
        )
        assert gap <= 1e-8


# -- minimality verification ---------------------------------------------------------


def test_verify_minimality_clean_on_solver_output():
    rng = random.Random(31)
    problem = random_oblique_problem(rng, d=3, coupling=0.2)
    solution = picard_solve(problem, tol=1e-12)
    report = verify_minimality(problem, solution)
    assert report.ok(1e-10)
    assert report.binding_cycles == ()


def _with_k_bump(solution: SystemSolution, tree, j, node) -> SystemSolution:
    k = solution.k_columns.copy()
    k[list(tree.children(node)), j] += 1.0
    return dataclasses.replace(solution, k_columns=k)


def test_corrupted_k_reported_as_flat_off_violation():
    rng = random.Random(37)
    problem = random_oblique_problem(rng, d=2)
    solution = picard_solve(problem, tol=1e-12)
    tree = problem.tree
    target = next(
        n.index
        for n in tree.nodes
        if not n.is_leaf
        and solution.y[0].values[n.index]
        > problem.H(n.t, solution.y_vector(n.index))[0] + 0.05
    )
    corrupted = _with_k_bump(solution, tree, 0, target)
    report = verify_minimality(problem, corrupted)
    assert not report.ok(1e-10)
    target_id = tree.node(target).node_id
    assert any(
        v.code == "flat-off-lower" and v.node_id == target_id
        for v in report.violations
    )


def test_sandwich_violation_reported():
    rng = random.Random(41)
    problem = random_oblique_problem(rng, d=2)
    solution = picard_solve(problem, tol=1e-12)
    tree = problem.tree
    y = solution.y_columns.copy()
    target = tree.root
    y[target, 0] = problem.H(0, solution.y_vector(target))[0] - 1.0
    corrupted = dataclasses.replace(solution, y_columns=y)
    report = verify_minimality(problem, corrupted)
    assert any(v.code == "sandwich-lower" for v in report.violations)


def test_general_obstacle_existence_mode():
    # increasing continuous obstacle without cost structure: the solver
    # still produces a minimal solution; switching-layer oracles do not apply
    tree = EventTree.binary(2, 0.5)
    terminal = {leaf: (0.3 * leaf % 1.0, 0.2) for leaf in tree.leaves}

    def obstacle(t, y):
        return (0.5 * y[1] - 1.0, 0.5 * y[0] - 1.0)

    problem = ObliqueProblem(
        tree=tree,
        d=2,
        terminal=terminal,
        generators=(
            lambda t, y: -0.2 - 0.1 * y[0],
            lambda t, y: 0.1 - 0.1 * y[1],
        ),
        v=(PredictableIncrements.zero(tree), PredictableIncrements.zero(tree)),
        upper=(
            AdaptedProcess.constant(tree, 2.0),
            AdaptedProcess.constant(tree, 2.0),
        ),
        obstacle=obstacle,
    )
    assert validate_problem(problem) == []
    solution = picard_solve(problem, tol=1e-12)
    report = verify_minimality(problem, solution)
    assert report.ok(1e-10)
    assert report.binding_cycles == ()
    with pytest.raises(ValueError):
        from orbsde import brute_force_value

        brute_force_value(problem, tree.root, 0)


def test_one_obstacle_evaluation_per_node_per_sweep():
    base = random_oblique_problem(random.Random(13), d=3, coupling=0.2)
    calls = 0

    def obstacle(t, y):
        nonlocal calls
        calls += len(y[0])   # obstacle rows: one per node in the columns
        return evaluate_H(base.costs, t, y)

    problem = dataclasses.replace(base, costs=None, obstacle=obstacle)
    solution = picard_solve(problem)
    n_nodes, n_leaves = problem.tree.n_nodes, len(problem.tree.leaves)
    n_parents = n_nodes - n_leaves
    # validator (Mokobodzki at every node, sandwich at every leaf), whose
    # H(U) the corner reads again, then one obstacle row per parent per sweep
    assert calls == (n_nodes + n_leaves) + solution.sweeps * n_parents


def test_non_finite_data_rejected_with_coordinates():
    base = random_oblique_problem(random.Random(5), d=2, max_depth=2)
    tree = base.tree
    leaf = tree.node(tree.leaves[0])
    parent = tree.node(leaf.parent)
    nan = float("nan")

    def patched(values, at, value):
        return tuple(value if i in at else v for i, v in enumerate(values))

    costs = base.costs.values.copy()
    costs[1, 0, 1] = float("inf")
    cases = [
        (dataclasses.replace(base, upper=(
            AdaptedProcess(tree, patched(base.upper[0].values, {leaf.index}, nan)),
            base.upper[1],
        )), (leaf.node_id, leaf.t, 0)),
        (dataclasses.replace(base, terminal={
            **base.terminal, leaf.index: (base.terminal[leaf.index][0], nan),
        }), (leaf.node_id, leaf.t, 1)),
        (dataclasses.replace(base, v=(
            base.v[0],
            PredictableIncrements(tree, patched(
                base.v[1].values, set(parent.children), float("-inf"))),
        )), (parent.node_id, parent.t, 1)),
        (dataclasses.replace(base, costs=CostMatrix(costs)), (None, 1, 0)),
    ]
    for problem, where in cases:
        report = validate_problem(problem)
        assert [(v.node_id, v.time_index, v.mode) for v in report] == [where]
        assert report[0].code == "non-finite"
        with pytest.raises(InvalidProblemError):
            picard_solve(problem)


def _faults_system(upper: dict, terminal: dict, dv: dict | None = None) -> ObliqueProblem:
    """A three-mode system on a depth-2 binary tree: costs 0.5, generators
    -y^j, upper barriers 1 except at the (node id, mode) pairs ``upper``
    names, the terminal vectors ``terminal`` (the leaves it leaves out have
    none) and the drifts ``dv`` out of (parent id, mode)."""
    tree = EventTree.binary(2, 0.5)
    ids = [n.node_id for n in tree.nodes]
    d = 3
    return ObliqueProblem(
        tree=tree,
        d=d,
        terminal={tree.index_of(k): x for k, x in terminal.items()},
        generators=tuple(lambda t, y, j=j: -y[j] for j in range(d)),
        v=tuple(PredictableIncrements.from_parent_values(tree, {
            tree.index_of(k): x for (k, mode), x in (dv or {}).items() if mode == j})
            for j in range(d)),
        upper=tuple(AdaptedProcess(tree, tuple(upper.get((i, j), 1.0) for i in ids))
                    for j in range(d)),
        costs=CostMatrix.constant(2, [[0.5 * (a != b) for b in range(d)]
                                      for a in range(d)]),
    )


def _findings(report) -> list[tuple]:
    return [(v.code, v.message, v.node_id, v.time_index, v.mode) for v in report]


def test_non_finite_data_listed_by_node_mode_and_datum():
    inf, nan = float("inf"), float("nan")
    zero = (0.0, 0.0, 0.0)
    problem = _faults_system(
        upper={("r", 2): nan, ("rd", 1): -inf, ("ruu", 0): inf},
        terminal={"rdd": zero, "rdu": (nan, 0.0, inf), "rud": zero,
                  "ruu": (0.0, -inf, 0.0)},
        dv={("r", 0): inf, ("rd", 1): nan, ("ru", 2): -inf})
    assert _findings(validate_problem(problem)) == [
        ("non-finite", "dV^0 = inf", "r", 0, 0),
        ("non-finite", "U^2 = nan", "r", 0, 2),
        ("non-finite", "U^1 = -inf", "rd", 1, 1),
        ("non-finite", "dV^1 = nan", "rd", 1, 1),
        ("non-finite", "dV^2 = -inf", "ru", 1, 2),
        ("non-finite", "xi^0 = nan", "rdu", 2, 0),
        ("non-finite", "xi^2 = inf", "rdu", 2, 2),
        ("non-finite", "U^0 = inf", "ruu", 2, 0),
        ("non-finite", "xi^1 = -inf", "ruu", 2, 1),
    ]


def test_mokobodzki_then_terminal_findings_by_leaf_and_mode():
    # U^0 = 2 at r, U^1 = 3 at rd and U^0 = 5 at rud lift the other modes'
    # obstacles above their barriers; rdd and ruu break both sandwiches,
    # and rdu has no terminal vector
    problem = _faults_system(
        upper={("r", 0): 2.0, ("rd", 1): 3.0, ("rud", 0): 5.0},
        terminal={"rdd": (0.0, 2.0, 0.0), "rud": (0.0, 0.0, 0.0),
                  "ruu": (0.9, 0.9, 3.0)})
    assert _findings(validate_problem(problem)) == [
        ("mokobodzki", "H^1(U) = 1.5 > X^1 = 1", "r", 0, 1),
        ("mokobodzki", "H^2(U) = 1.5 > X^2 = 1", "r", 0, 2),
        ("mokobodzki", "H^0(U) = 2.5 > X^0 = 1", "rd", 1, 0),
        ("mokobodzki", "H^2(U) = 2.5 > X^2 = 1", "rd", 1, 2),
        ("mokobodzki", "H^1(U) = 4.5 > X^1 = 1", "rud", 2, 1),
        ("mokobodzki", "H^2(U) = 4.5 > X^2 = 1", "rud", 2, 2),
        ("terminal-sandwich", "H^0_T(xi) = 1.5 > xi^0 = 0", "rdd", 2, 0),
        ("terminal-sandwich", "xi^1 = 2 > U^1_T = 1", "rdd", 2, 1),
        ("terminal-sandwich", "H^2_T(xi) = 1.5 > xi^2 = 0", "rdd", 2, 2),
        ("terminal", "missing terminal vector", "rdu", None, None),
        ("terminal-sandwich", "H^0_T(xi) = 2.5 > xi^0 = 0.90000000000000002", "ruu", 2, 0),
        ("terminal-sandwich", "H^1_T(xi) = 2.5 > xi^1 = 0.90000000000000002", "ruu", 2, 1),
        ("terminal-sandwich", "xi^2 = 3 > U^2_T = 1", "ruu", 2, 2),
    ]


def test_exactly_one_obstacle_form_required():
    rng = random.Random(47)
    base = random_oblique_problem(rng)
    with pytest.raises(ValueError):
        ObliqueProblem(
            tree=base.tree,
            d=2,
            terminal=base.terminal,
            generators=base.generators,
            v=base.v,
            upper=base.upper,
            costs=base.costs,
            obstacle=lambda t, y: (0.0, 0.0),
        )


def test_no_binding_cycles_on_random_solutions():
    rng = random.Random(43)
    for _ in range(10):
        problem = random_oblique_problem(rng, d=rng.choice([2, 3]))
        solution = picard_solve(problem, tol=1e-12)
        report = verify_minimality(problem, solution)
        assert report.binding_cycles == ()


def _rising_at(tree: EventTree, d: int, j: int, t_star: int) -> ObliqueProblem:
    """A valid system except that f^j increases in y^j at time t_star."""
    gens = tuple(
        (lambda t, y, k=k: 8.0 * y[k] if (k, t) == (j, t_star) else -y[k])
        for k in range(d)
    )
    return ObliqueProblem(
        tree=tree,
        d=d,
        terminal={leaf: (0.0,) * d for leaf in tree.leaves},
        generators=gens,
        v=tuple(PredictableIncrements.zero(tree) for _ in range(d)),
        upper=tuple(AdaptedProcess.constant(tree, 1.0) for _ in range(d)),
        costs=CostMatrix.constant(
            tree.n_steps, [[0.5 * (a != b) for b in range(d)] for a in range(d)]),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), steps=st.integers(1, 6), binary=st.booleans(),
       d=st.integers(2, 3))
def test_validators_flag_a_rise_at_any_time_index(data, steps, binary, d):
    t_star = data.draw(st.integers(0, steps - 1), label="t_star")
    j = data.draw(st.integers(0, d - 1), label="mode")
    tree = EventTree.binary(steps, 0.25) if binary else EventTree.chain(steps, 0.25)
    report = validate_problem(_rising_at(tree, d, j, t_star))
    assert report
    assert {(v.code, v.time_index, v.mode) for v in report} == {
        ("generator-on-diagonal", t_star, j)}
    scalar = ScalarRBSDEProblem(
        tree=tree,
        terminal={leaf: 0.0 for leaf in tree.leaves},
        generator=lambda t, nodes, y: 0.5 * y if t == t_star else -y,
        lower=AdaptedProcess.constant(tree, -1.0),
    )
    assert [(v.code, v.time_index) for v in scalar.validate()] == [
        ("generator-monotone", t_star)]


def test_rise_between_probed_times_refused_before_the_solve():
    # f^0 increases in y^0 at t = 1 only, on a 4-step chain; left to the
    # solver, it fails at node n1 with NonMonotoneSweepError
    problem = _rising_at(EventTree.chain(4, 0.25), 2, 0, 1)
    report = validate_problem(problem)
    assert report
    assert {(v.code, v.time_index, v.mode) for v in report} == {
        ("generator-on-diagonal", 1, 0)}
    with pytest.raises(InvalidProblemError):
        solve_system(problem)


def test_short_terminal_vector_is_a_dimension_finding():
    base = random_oblique_problem(random.Random(5), d=2, max_depth=2)
    leaf = base.tree.node(base.tree.leaves[0])
    short = dataclasses.replace(base, terminal={**base.terminal, leaf.index: (0.0,)})
    report = validate_problem(short)
    assert [(v.code, v.node_id, v.time_index) for v in report] == [
        ("dimension", leaf.node_id, base.tree.n_steps)]
    with pytest.raises(InvalidProblemError):
        solve_system(short)


def test_non_finite_dt_and_generator_values_rejected():
    base = random_oblique_problem(random.Random(5), d=2, max_depth=2)
    nan_gen = dataclasses.replace(
        base, generators=(base.generators[0], lambda t, y: float("nan"))
    )
    report = validate_problem(nan_gen)
    assert [(v.code, v.time_index, v.mode) for v in report] == [
        ("non-finite", t, 1) for t in range(base.tree.n_steps)
    ]
    # the step-length check runs first, so the Mokobodzki failures of the
    # counterexample are not reached
    infinite_dt = counterexample_problem(dt=float("inf"))
    assert [v.code for v in validate_problem(infinite_dt)] == ["non-finite"]


def test_validation_and_decoupling_verdict_call_each_generator_once_per_time_index():
    # one probe table per problem: validate_problem makes it, one call of
    # f^j per time index before the horizon, and the decoupling verdict
    # reads it
    from orbsde.switching import decoupling_violations

    base = random_oblique_problem(random.Random(7), d=3, max_depth=3, coupling=0.3)
    calls = []

    def counted(j, f):
        def generator(t, y):
            calls.append((j, t))
            return f(t, y)
        return generator

    problem = dataclasses.replace(base, generators=tuple(
        counted(j, f) for j, f in enumerate(base.generators)))
    assert validate_problem(problem) == []
    decoupling_violations(problem)
    steps = problem.tree.n_steps
    assert steps >= 2
    assert sorted(calls) == [(j, t) for j in range(3) for t in range(steps)]


def test_the_probe_grid_comes_from_the_validators_gather_of_the_terminal(record):
    # validate_problem gathers the terminal rows once and the probe table
    # takes its grid from them; a problem that was never validated gathers
    # them for the decoupling verdict, and gets the same grid and verdict
    import orbsde.oblique
    from orbsde.switching import decoupling_violations

    problem = random_oblique_problem(random.Random(7), d=3, max_depth=3, coupling=0.3)
    gathers = record(orbsde.oblique, "_leaf_entries")
    assert validate_problem(problem) == []
    coupled = decoupling_violations(problem)
    assert len(gathers) == 1
    unvalidated = dataclasses.replace(problem)
    assert decoupling_violations(unvalidated) == coupled != []
    assert len(gathers) == 2
    assert _probe_table(unvalidated)[0] == _probe_table(problem)[0]


def test_generator_overflow_at_the_probes_is_non_finite_and_warns_nothing():
    # the scenario's linear family a - b * y^j with b = 1e308 overflows at
    # the probe grid's ends: refused at every time index, and the overflow
    # raises no numpy warning
    import warnings

    base = random_oblique_problem(random.Random(5), d=2, max_depth=2)
    steep = dataclasses.replace(
        base, generators=(base.generators[0], lambda t, y: 0.1 - 1e308 * y[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_problem(steep)
    assert [(v.code, v.time_index, v.mode) for v in report] == [
        ("non-finite", t, 1) for t in range(base.tree.n_steps)]
    assert {v.message for v in report} == {"f^1 = -inf at a probe point"}


def test_system_solution_arrays_views_and_increment_checks(scenarios_dir):
    # the arrays are read-only, the per-mode views read them, and dK and dA
    # are refused as PredictableIncrements refuses them: dK before dA, mode
    # by mode, the root slot before the siblings
    problem = Scenario.from_file(scenarios_dir / "switch2x2.json").build_problem()
    solution = picard_solve(problem)
    tree = problem.tree
    for name in ("y", "k", "a"):
        columns = getattr(solution, f"{name}_columns")
        assert not columns.flags.writeable
        assert [view.values.tolist() for view in getattr(solution, name)] == (
            columns.T.tolist())
    assert [dm.tolist() for dm in solution.m_increments] == solution.m_columns.T.tolist()
    first = tree.children(tree.root)[0]
    k, a = solution.k_columns.copy(), solution.a_columns.copy()
    a[tree.root, 0] = 1.0
    k[first, 1] += 1.0
    refusals = [
        ({"k_columns": k, "a_columns": a}, "increment not parent-measurable at node r"),
        ({"a_columns": a}, "root slot of predictable increments must be 0"),
    ]
    for changes, message in refusals:
        with pytest.raises(ValueError) as err:
            dataclasses.replace(solution, **changes)
        assert str(err.value) == message
        with pytest.raises(ValueError) as per_mode:
            for column in (*changes.get("k_columns", solution.k_columns).T,
                           *changes.get("a_columns", solution.a_columns).T):
                PredictableIncrements(tree, tuple(column.tolist()))
        assert str(per_mode.value) == message


def test_verify_minimality_fails_on_nan(scenarios_dir):
    problem = Scenario.from_file(scenarios_dir / "switch2x2.json").build_problem()
    solution = picard_solve(problem)
    root = problem.tree.root
    y = solution.y_columns.copy()
    y[root, 0] = float("nan")
    corrupted = dataclasses.replace(solution, y_columns=y)
    report = verify_minimality(problem, corrupted)
    assert not report.ok(1e-10)
    assert report.worst_residual != report.worst_residual  # NaN
    assert any(v.node_id == "r" and v.mode == 0 for v in report.violations)


# -- single backward pass -----------------------------------------------------------


def _criterion_5_systems():
    """The 30 random systems of acceptance criterion 5, in the same order."""
    rng = random.Random(113)
    return [
        random_oblique_problem(
            rng, d=2 if i % 3 else 3, max_depth=4, max_branching=2,
            coupling=0.2 if i % 2 else 0.0,
        )
        for i in range(30)
    ]


def test_solve_system_agrees_with_picard(scenarios_dir):
    problems = _criterion_5_systems() + [
        Scenario.from_file(scenarios_dir / f"{name}.json").build_problem()
        for name in ("decoupled", "switch2x2")
    ]
    for problem in problems:
        fast = solve_system(problem, tol=1e-12)
        oracle = picard_solve(problem, tol=1e-12)
        for j in range(problem.d):
            for field in ("y", "k", "a"):
                pairs = zip(getattr(fast, field)[j].values,
                            getattr(oracle, field)[j].values)
                assert max(abs(x - z) for x, z in pairs) <= 1e-12
            pairs = zip(fast.m_increments[j], oracle.m_increments[j])
            assert max(abs(x - z) for x, z in pairs) <= 1e-12
        assert verify_minimality(problem, fast).ok(1e-10)
    counterexample = Scenario.from_file(
        scenarios_dir / "counterexample.json"
    ).build_problem()
    for solver in (solve_system, picard_solve):
        with pytest.raises(InvalidProblemError):
            solver(counterexample)


def test_solve_system_round_count_on_switch2x2(scenarios_dir):
    problem = Scenario.from_file(scenarios_dir / "switch2x2.json").build_problem()
    solution = solve_system(problem)
    # constant generators: the first round leaves the corner, the second
    # applies the obstacle, the third changes nothing
    assert solution.sweeps == 3
    assert solution.final_delta == 0.0


def test_solve_system_round_budget_names_the_node():
    problem = random_oblique_problem(random.Random(23), d=2, coupling=0.25)
    first = problem.tree.node(max(
        n.index for n in problem.tree.nodes if not n.is_leaf
    ))
    with pytest.raises(ConvergenceError) as err:
        solve_system(problem, tol=1e-14, max_rounds=1)
    assert f"node {first.node_id} (t={first.t})" in str(err.value)


def _deep_shock_problem(generators, shock=-10.0, **obstacle_form) -> ObliqueProblem:
    """One step, two leaves at 0, U = 5, and v = shock into both leaves: at
    the default shock the root sits about 9 below the low corner (-1)."""
    tree = EventTree.binary(1, 1.0)
    v = PredictableIncrements(
        tree, tuple(0.0 if n.parent is None else shock for n in tree.nodes)
    )
    return ObliqueProblem(
        tree=tree,
        d=2,
        terminal={leaf: (0.0, 0.0) for leaf in tree.leaves},
        generators=generators,
        v=(v, v),
        upper=(AdaptedProcess.constant(tree, 5.0),) * 2,
        **obstacle_form,
    )


def _assert_same_solution(problem, fast, oracle, gap=1e-12):
    for j in range(problem.d):
        for field in ("y", "k", "a"):
            pairs = zip(getattr(fast, field)[j].values,
                        getattr(oracle, field)[j].values)
            assert max(abs(x - z) for x, z in pairs) <= gap
    assert verify_minimality(problem, fast).ok(1e-10)


SMALL_COSTS = CostMatrix.constant(1, [[0.0, 0.01], [0.01, 0.0]])


def test_solve_system_starts_below_a_deep_node():
    zero = lambda t, y: 0.0  # noqa: E731
    # small costs: started at the corner, each round could only lower the
    # row by 2c = 0.02, and the 200-round budget ran out
    small_costs = _deep_shock_problem((zero, zero), costs=SMALL_COSTS)
    # a zero-cost cycle H(y) = (y1, y0): every (s, s) with s >= -10 is a
    # fixed point, and the corner start stopped at (-1, -1)
    zero_cycle = _deep_shock_problem(
        (zero, zero), obstacle=lambda t, y: (y[1], y[0])
    )
    # both modes lift each other's generator, so the root (-20, -20) lies
    # below the start min(corner, frozen-corner step) = (-10.5, -10.5)
    coupled = _deep_shock_problem(
        (lambda t, y: 0.5 * y[1], lambda t, y: 0.5 * y[0]), costs=SMALL_COSTS
    )
    for problem, root in ((small_costs, -10.0), (zero_cycle, -10.0),
                          (coupled, -20.0)):
        fast = solve_system(problem, tol=1e-12)
        oracle = picard_solve(problem, tol=1e-12)
        _assert_same_solution(problem, fast, oracle)
        assert fast.y_vector(problem.tree.root) == pytest.approx(
            (root, root), abs=1e-11
        )


def test_solve_system_finds_the_least_point_of_a_coupled_zero_cost_cycle():
    # every (s, s) with s >= -10 + s / 2, i.e. s >= -20, is a fixed point at
    # the root; the solution is the least one
    problem = _deep_shock_problem(
        (lambda t, y: 0.5 * y[1], lambda t, y: 0.5 * y[0]),
        obstacle=lambda t, y: (y[1], y[0]),
    )
    fast = solve_system(problem, tol=1e-12)
    assert fast.y_vector(problem.tree.root) == pytest.approx(
        (-20.0, -20.0), abs=1e-11
    )
    assert verify_minimality(problem, fast).ok(1e-10)
    # Picard's start lies at or above each node's start row, hence below
    # the least fixed point, and the sweeps rise to it
    oracle = picard_solve(problem, tol=1e-12)
    assert oracle.y_vector(problem.tree.root) == pytest.approx(
        (-20.0, -20.0), abs=1e-11
    )
    _assert_same_solution(problem, fast, oracle)


SOLVER_ERRORS = (ConvergenceError, NonMonotoneSweepError, BracketingError,
                 InvalidProblemError, InternalConsistencyError)

# rounds per node for solve_system, sweeps for picard_solve: at tol 1e-13
# a strongly coupled system can need more than the default 200 sweeps
# (the pinned example takes 237) where the rounds take 121
AGREEMENT_BUDGET = 400


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 3),
    coupling=st.sampled_from([0.0, 0.3, 0.9]),
    v_scale=st.sampled_from([0.15, 3.0, 20.0]),
    cycle=st.booleans(),
)
@example(seed=2156075, d=2, coupling=0.9, v_scale=20.0, cycle=False)
def test_solvers_agree_on_random_systems(seed, d, coupling, v_scale, cycle):
    # with deep v shocks and a coupled zero-cost cycle, a start above the
    # least solution can be a fixed point: no sweep or round falls from it
    problem = random_oblique_problem(
        random.Random(seed), d=d, coupling=coupling, v_scale=v_scale
    )
    if cycle:
        problem = zero_cost_cycle(problem)
    outcomes = []
    for solver, budget in ((solve_system, "max_rounds"), (picard_solve, "max_sweeps")):
        try:
            outcomes.append(solver(problem, tol=1e-13, **{budget: AGREEMENT_BUDGET}))
        except SOLVER_ERRORS as err:
            outcomes.append(type(err))
    fast, oracle = outcomes
    if isinstance(fast, type) or isinstance(oracle, type):
        assert fast == oracle
    else:
        _assert_same_solution(problem, fast, oracle)


def test_mode_problem_reproduces_each_component(scenarios_dir):
    # the existence proof's reading of a solved system: mode j alone, the
    # other components frozen, between H^j(Y) and U^j, solves to Y^j
    rng = random.Random(31)
    problems = [
        Scenario.from_file(scenarios_dir / f"{name}.json").build_problem()
        for name in ("decoupled", "switch2x2")
    ] + [
        random_oblique_problem(rng, d=rng.choice((2, 3)), max_branching=3,
                               coupling=rng.uniform(0.0, 0.9))
        for _ in range(60)
    ]
    for problem in problems:
        solution = solve_system(problem, tol=1e-13)
        for j in range(problem.d):
            column = solve_two_barrier(mode_problem(problem, solution, j))
            pairs = zip(column.y.values, solution.y[j].values)
            assert max(abs(x - z) for x, z in pairs) <= 1e-12


def test_solvers_reject_a_budget_below_one_or_a_nan_tolerance():
    problem = random_oblique_problem(random.Random(23), d=2)
    for solver in (solve_system, picard_solve):
        for tol, budget in ((1e-10, 0), (1e-10, -3), (float("nan"), 200),
                            (-1.0, 200)):
            with pytest.raises(ValueError, match="sweep budget must be >= 1"):
                solver(problem, tol, budget)


def test_solve_system_names_a_node_below_every_corner():
    zero = lambda t, y: 0.0  # noqa: E731
    problem = _deep_shock_problem((zero, zero), shock=-1e9, costs=SMALL_COSTS)
    with pytest.raises(NonMonotoneSweepError) as err:
        solve_system(problem)
    assert "node r (t=0): below every corner tried" in str(err.value)


def test_picard_names_a_node_below_every_corner():
    zero = lambda t, y: 0.0  # noqa: E731
    problem = _deep_shock_problem((zero, zero), shock=-1e9, costs=SMALL_COSTS)
    with pytest.raises(NonMonotoneSweepError) as err:
        picard_solve(problem)
    assert "node r (t=0): below every corner tried" in str(err.value)


def test_solve_system_names_the_node_where_a_round_decreases(monkeypatch):
    problem = random_oblique_problem(random.Random(23), d=2)
    first = problem.tree.node(max(
        n.index for n in problem.tree.nodes if not n.is_leaf
    ))
    # a start above the solution: the first round lowers it
    monkeypatch.setattr(orbsde.oblique, "_level_start",
                        lambda problem, t, targets, corner:
                        (np.tile([c + 100.0 for c in corner], (len(targets), 1)),
                         np.ones(len(targets), dtype=bool)))
    with pytest.raises(NonMonotoneSweepError) as err:
        solve_system(problem)
    assert f"node {first.node_id} (t={first.t}): round 1 lowered" in str(err.value)


def _two_failing_parents(monkeypatch, obstacle_form, v0=0.0):
    """Level 1 of a two-step binomial, walked as ru (index 2) then rd
    (index 1): f = 0, U = 5, leaves at (0.5, 1), v^0 = ``v0`` into ru's
    leaves.  The start rule is replaced: ru starts low at (-3, -3), rd high
    at (100, 100), so that rd's first round lowers it."""
    tree = EventTree.binary(2, 1.0)
    ru = tree.index_of("ru")
    v0s = tuple(v0 if n.parent == ru else 0.0 for n in tree.nodes)
    problem = ObliqueProblem(
        tree=tree,
        d=2,
        terminal={leaf: (0.5, 1.0) for leaf in tree.leaves},
        generators=(lambda t, y: 0.0, lambda t, y: 0.0),
        v=(PredictableIncrements(tree, v0s), PredictableIncrements.zero(tree)),
        upper=(AdaptedProcess.constant(tree, 5.0),) * 2,
        **obstacle_form,
    )
    assert validate_problem(problem) == []
    monkeypatch.setattr(orbsde.oblique, "_level_start",
                        lambda problem, t, targets, corner:
                        (np.array([[-3.0, -3.0], [100.0, 100.0]]),
                         np.ones(2, dtype=bool)))
    return problem


def test_a_later_round_decrease_at_a_higher_index_is_named(monkeypatch):
    # H^0(y) = -y^1 falls in y^1 (outside the contract, which is the way
    # to make a round after the first lower a component): ru's first round
    # lifts y^0 to H^0 = 3 and y^1 to 1, its second lowers y^0 to 0.5; rd
    # lowers at round 1 but comes second in the walk
    problem = _two_failing_parents(monkeypatch, {
        "obstacle": lambda t, y: (-y[1], 0.0 * y[0] - 10.0)})
    with pytest.raises(NonMonotoneSweepError) as err:
        solve_system(problem)
    assert str(err.value) == "node ru (t=1): round 2 lowered mode 0 by 2.5"


def test_a_later_round_budget_at_a_higher_index_is_named(monkeypatch):
    # costs 0.5 and v^0 = -1: ru's rounds go (-0.5, 1), then (0.5, 1), so
    # two rounds are not enough; rd lowers at round 1 but comes second
    problem = _two_failing_parents(monkeypatch, {
        "costs": CostMatrix.constant(2, [[0.0, 0.5], [0.5, 0.0]])}, v0=-1.0)
    with pytest.raises(ConvergenceError) as err:
        solve_system(problem, max_rounds=2)
    assert str(err.value) == ("node ru (t=1): round change 1 > tol 1e-10 "
                              "after 2 rounds")


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 3),
    coupling=st.sampled_from([0.0, 0.3, 0.9]),
    v_scale=st.sampled_from([0.15, 3.0, 20.0]),
    cycle=st.booleans(),
)
def test_solvers_match_the_active_set_oracle(seed, d, coupling, v_scale, cycle):
    # the oracle shares no solver code: it enumerates the free / capped /
    # pushed state of every mode at each parent and solves each as a
    # linear system, from its own fsum recursion
    problem = random_oblique_problem(random.Random(seed), d=d, coupling=coupling,
                                     v_scale=v_scale, max_branching=3)
    if cycle:
        problem = zero_cost_cycle(problem)
    exact = active_set_values(problem)
    for solver in (solve_system, picard_solve):
        solution = solver(problem, tol=1e-12)
        gap = max(abs(solution.y[j].values[u] - exact[u][j])
                  for u in range(problem.tree.n_nodes) for j in range(d))
        assert gap <= 1e-10, (solver.__name__, gap)


def _solution_bits(solution: SystemSolution) -> list:
    """Y, dK and dA as int64 bit patterns, the round count and the final
    change's bit pattern."""
    return [*(np.array([p.values for p in field]).view(np.int64).tolist()
              for field in (solution.y, solution.k, solution.a)),
            solution.sweeps, np.float64(solution.final_delta).view(np.int64)]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 3),
    coupling=st.sampled_from([0.0, 0.3, 0.9]),
    v_scale=st.sampled_from([0.15, 3.0, 20.0]),
)
def test_declared_reads_change_no_bit(seed, d, coupling, v_scale):
    # the rounds find a root again only where a component its generator
    # declares it reads has moved; with every component read (None) they
    # find every root again, and the two give the same bits
    problem = random_oblique_problem(random.Random(seed), d=d, coupling=coupling,
                                     v_scale=v_scale, max_branching=3)
    outcomes = []
    for reads in (problem.reads, None):
        try:
            outcomes.append(_solution_bits(solve_system(
                dataclasses.replace(problem, reads=reads), tol=1e-13,
                max_rounds=AGREEMENT_BUDGET)))
        except SOLVER_ERRORS as err:
            outcomes.append((type(err), str(err)))
    assert outcomes[0] == outcomes[1]


def test_a_move_from_zero_to_negative_zero_marks_its_readers_stale(record):
    # a 1-step chain, dt = 0.5: mode 1 (f = 0, target -0.0) moves from its
    # start 0.0 to -0.0 in round 1, after mode 0 (which reads component 1
    # and tells the zeros apart: f = 1 at -0.0, 0 at 0.0) found its root 1
    # there; equal as values, the two zeros differ in bits, so round 2 finds
    # mode 0's root again, 1.5
    tree = EventTree.chain(1, 0.5)
    problem = ObliqueProblem(
        tree=tree,
        d=2,
        terminal={tree.leaves[0]: (0.0, 0.0)},
        generators=(lambda t, y: np.signbit(y[1]) * 1.0, lambda t, y: 0.0),
        v=(PredictableIncrements.zero(tree),) * 2,
        upper=(AdaptedProcess.constant(tree, 100.0),) * 2,
        costs=CostMatrix.constant(1, [[0.0, 10.0], [10.0, 0.0]]),
        reads=((1,), ()),
    )
    finds = record(orbsde.oblique, "_root_find_batch")
    outcomes = []
    for reads in (problem.reads, None):
        y, dk, da, counts, changes = orbsde.oblique._level_rounds(
            dataclasses.replace(problem, reads=reads), 0, np.array([tree.root]),
            np.array([[1.0, -0.0]]), np.array([[-5.0, 0.0]]),
            np.array([[100.0, 100.0]]), 1e-10, 10)
        outcomes.append((y.view(np.int64).tolist(), counts.tolist()))
    assert outcomes[0] == outcomes[1] == (
        np.array([[1.5, -0.0]]).view(np.int64).tolist(), [3])
    # declared: both modes in round 1 (one batched find: mode 1 reads no
    # mode before it), mode 0 again in round 2; undeclared: mode 1 reads
    # mode 0, so each mode finds at its own turn, in rounds 1 and 2
    assert len(finds) == 2 + 4
    assert [roots.size for roots, _ in finds] == [2, 1] + [1, 1, 1, 1]


def test_binding_cycle_is_an_internal_consistency_error(monkeypatch):
    problem = random_oblique_problem(random.Random(43), d=2)
    node_id = problem.tree.node(problem.tree.root).node_id
    monkeypatch.setattr(orbsde.oblique, "binding_graph_cycles",
                        lambda problem, solution: [(node_id, (0, 1))])
    for solver in (solve_system, picard_solve):
        with pytest.raises(InternalConsistencyError) as err:
            solver(problem)
        assert err.value.node_id == node_id


def test_picard_finds_every_modes_roots_in_one_batch_per_level_step(record):
    # the subsolution and every sweep are one walk each, and each level
    # step of a walk is one batched root find over its d * m (mode,
    # parent) elements
    problem = random_oblique_problem(random.Random(23), d=3, coupling=0.4,
                                     max_branching=3)
    finds = record(orbsde.oblique, "_root_find_batch")
    solution = picard_solve(problem, tol=1e-12)
    sizes = [problem.d * parents.size for parents in problem.tree.arrays.parents[::-1]
             if parents.size]
    assert solution.sweeps > 1
    assert [roots.size for roots, _ in finds] == sizes * (1 + solution.sweeps)


def test_picard_and_the_rounds_agree_on_a_level_of_128_parents(record):
    # an 8-step binomial with d = 3 and no generator reading another mode:
    # each Jacobi step at the deepest level is one root find over 384
    # (mode, parent) elements, and round 1 there finds as many in one
    # batch, so a batch that fails only at such sizes is seen here
    problem = random_oblique_problem(random.Random(83), d=3,
                                     tree=EventTree.binary(8, 0.125),
                                     cost_band=(0.05, 0.3), drift_scale=0.8)
    assert problem.reads == ((), (), ())
    finds = record(orbsde.oblique, "_root_find_batch")
    rounds = solve_system(problem, tol=1e-13)
    picard = picard_solve(problem, tol=1e-13)
    assert picard.sweeps > 1
    assert np.abs(rounds.y_columns - picard.y_columns).max() <= 1e-12
    assert max(roots.size for roots, _ in finds) == 384


def _failing_modes(tree: EventTree, generators, reads) -> ObliqueProblem:
    d = len(generators)
    return ObliqueProblem(
        tree=tree,
        d=d,
        terminal={leaf: (0.0,) * d for leaf in tree.leaves},
        generators=generators,
        v=(PredictableIncrements.zero(tree),) * d,
        upper=(AdaptedProcess.constant(tree, 100.0),) * d,
        costs=CostMatrix.constant(tree.n_steps, [[0.5 * (a != b) for b in range(d)]
                                                 for a in range(d)]),
        reads=reads,
    )


def test_a_failing_jacobi_batch_raises_the_first_failing_modes_error():
    # mode 0's residual, x - 2|x| - 0.5, is negative everywhere (no sign
    # change in 64 expansions), mode 1's is NaN at its start: the one
    # batch meets mode 1's NaN first, but the modes one by one meet mode
    # 0's error first
    tree = EventTree.chain(1, 0.5)
    problem = _failing_modes(tree, (lambda t, y: 2.0 * np.abs(y[0]) / 0.5 + 1.0,
                                    lambda t, y: np.full(np.shape(y[1]), np.nan)), None)
    rows = np.zeros((1, 2))
    with pytest.raises(BracketingError, match="no sign change"):
        orbsde.oblique._jacobi_step(problem, 0, rows, rows, np.full((1, 2), -np.inf),
                                    np.full((1, 2), 100.0))


def test_a_failing_round_batch_leaves_the_error_to_each_modes_turn():
    # two parents; modes 0 and 1 read no other component, so round 1 finds
    # both in one batch.  Mode 1's residual is NaN at parent 1 only, and
    # mode 0's round 1 lowers parent 1 below its start, which drops parent
    # 1 before mode 1's turn: the rounds name that decrease, as a find at
    # each mode's turn (reads None, mode 1 then reading mode 0) does, and
    # not the batch's BracketingError
    tree = EventTree.binary(1, 0.5)
    parents = np.array([tree.root, tree.root])

    def nan_at_parent_1(t, y):
        return np.where(np.arange(np.size(y[1])) % 2 == 1, np.nan, 0.0)

    outcomes = []
    for reads in (((), ()), None):
        problem = _failing_modes(tree, (lambda t, y: 0.0 * y[0], nan_at_parent_1), reads)
        with pytest.raises(Exception) as err:
            orbsde.oblique._level_rounds(
                problem, 0, parents, np.array([[1.0, 1.0], [1.0, 1.0]]),
                np.array([[0.0, 0.0], [5.0, 0.0]]), np.full((2, 2), 100.0), 1e-10, 10)
        outcomes.append((type(err.value), str(err.value)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] is NonMonotoneSweepError
    assert "round 1 lowered mode 0" in outcomes[0][1]


def _walks_of_d_edges(edges: np.ndarray) -> np.ndarray:
    """The one-array formulation of ``oblique._has_d_walk``: each pass
    joins the walks so far and the edges over every middle mode at once."""
    walks = edges
    for _ in range(edges.shape[1] - 1):
        walks = (walks[:, :, :, None] & edges[:, None, :, :]).any(axis=2)
    return walks.any(axis=(1, 2))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_d_walk_search_mode_by_mode_matches_the_one_array_join(d):
    rng = np.random.default_rng(d)
    for density in (0.1, 0.3, 0.5, 0.8):
        edges = rng.random((200, d, d)) < density
        edges[:, range(d), range(d)] = False
        found = orbsde.oblique._has_d_walk(edges)
        assert found.tolist() == _walks_of_d_edges(edges).tolist()
        assert 0 < found.sum() < 200 or density in (0.1, 0.8)


def test_mode_problem_gathers_only_the_declared_components():
    # mode 1 reads component 0 and not component 2: the frozen generator
    # gets the solution's column 0 at the nodes and c itself in slots 1
    # and 2; with reads None it gets every column, and the two solves
    # agree bit for bit
    base = random_oblique_problem(random.Random(29), d=3, coupling=0.0)
    f = base.generators[1]
    seen = []

    def reads_zero(t, y):
        seen.append(y)
        return f(t, y) + 0.01 * y[0]

    problem = dataclasses.replace(
        base, generators=(base.generators[0], reads_zero, base.generators[2]),
        reads=(base.reads[0], (0,), base.reads[2]))
    solution = solve_system(problem, tol=1e-13)
    bits = []
    for reads in (problem.reads, None):
        seen.clear()
        scalar = mode_problem(dataclasses.replace(problem, reads=reads), solution, 1)
        bits.append(solve_two_barrier(scalar).y.values.view(np.int64).tolist())
        y = seen[-1]
        assert (y[1] is y[2]) == (reads is not None)
        assert y[0] is not y[1]
    assert bits[0] == bits[1]
