"""The whole-tree checks against their level-by-level formulations.

- ``verify_minimality`` computes each residual as one array over the
  tree; ``level_by_level_minimality`` below is the formulation it
  replaced, a level at a time with one obstacle call per time index and
  the children of a level added slot by slot, and the report must match
  it bit for bit: every worst value, the violation list in its order and
  the binding cycles.  Compared on random binomial trees and on explicit
  trees with leaves before the horizon, on solver output and on solutions
  edited to break each of the seven checks, with NaN entries, and with a
  binding cycle planted through the costs.
- ``_probe_table``'s verdicts (first non-finite value, rising pairs) equal
  ``scalar._probe``'s, line by line, and its grid's ends are Python's
  ``min`` and ``max``.
- ``CostMatrix.validate`` lists the violations of a loop over time
  indices, in its order.
- The check holds no ``(n_nodes, d, d)`` float array: its traced peak
  stays below a few ``(n_nodes, d)`` arrays.
"""

from __future__ import annotations

import dataclasses
import random
import struct
import tracemalloc

import numpy as np
import pytest

from orbsde import AdaptedProcess, EventTree, solve_system, verify_minimality
from orbsde.errors import Violation
from orbsde.oblique import (
    _CHECKS,
    BINDING_TOL,
    CostMatrix,
    SystemSolution,
    _first_cycle,
    _level_slices,
    _obstacle,
    _probe_box,
    _probe_table,
    _worst,
    binding_graph_cycles,
)
from orbsde.scalar import _Findings, _probe, _worse
from gen import random_oblique_problem


def level_by_level_cycles(problem, solution, tol=BINDING_TOL) -> tuple:
    """Every node's first binding cycle, from the ``(n, d, d)`` array of
    all its edges at once and a depth-first search at every node."""
    tree, y = problem.tree, solution.y_columns
    edges = np.abs(y[:, :, None] - (y[:, None, :]
                                    - problem.costs.values[tree.arrays.time])) <= tol
    modes = np.arange(problem.d)
    edges[:, modes, modes] = False
    out = []
    for u in range(tree.n_nodes):
        cyc = _first_cycle([np.flatnonzero(row).tolist() for row in edges[u]])
        if cyc:
            out.append((tree.ids[u], cyc))
    return tuple(out)


def level_by_level_minimality(problem, solution, tol=BINDING_TOL) -> dict:
    """The report of ``verify_minimality`` computed a level at a time: the
    obstacle one call per time index, each level's parents in the walk's
    order, its children slot by slot, and the worst values folded over
    levels with ``_worse``."""
    tree = problem.tree
    arrays = tree.arrays
    dt = tree.dt
    y, k, a, m = (solution.y_columns, solution.k_columns, solution.a_columns,
                  solution.m_columns)
    upper, v = problem.upper_columns, problem.v_columns
    h = np.empty_like(y)
    for t, nodes in _level_slices(tree):
        h[nodes] = _obstacle(problem, t, y[nodes])
    sandwich_lower, sandwich_upper = h - y, y - upper
    found = _Findings(tree)

    def note(check, nodes, values, message, at=None):
        found.note(check, _CHECKS[check], ~(values <= tol), message, nodes, at)

    note(0, None, sandwich_lower,
         lambda i, j: f"H^{j}(Y) - Y^{j} = {sandwich_lower[i, j]:.3g}")
    note(1, None, sandwich_upper,
         lambda i, j: f"Y^{j} - U^{j} = {sandwich_upper[i, j]:.3g}")
    worst_id = worst_mart = worst_neg = worst_fl = worst_fu = 0.0
    for t in range(tree.n_steps):
        parents = arrays.parents[t]
        if not parents.size:
            continue
        first = arrays.child_ptr[parents]
        count = arrays.child_ptr[parents + 1] - first
        kids = arrays.child_index[first]
        dk, da = k[kids], a[kids]
        neg = np.where((-da > -dk) | (-da != -da), -da, -dk)
        flat_lower = np.abs(dk * (y[parents] - h[parents]))
        flat_upper = np.abs(da * (upper[parents] - y[parents]))
        note(2, parents, neg,
             lambda i, j: f"negative increment {min(dk[i, j], da[i, j]):.3g}")
        note(3, parents, flat_lower,
             lambda i, j: f"dK * (Y - H(Y)) = {flat_lower[i, j]:.3g}")
        note(4, parents, flat_upper,
             lambda i, j: f"dA * (U - Y) = {flat_upper[i, j]:.3g}")
        rows = tuple(y[parents].T)
        rates = np.column_stack([np.broadcast_to(f(t, rows), parents.shape)
                                 for f in problem.generators])
        mart = np.zeros(y[parents].shape)
        for slot in range(count.max()):
            at = np.flatnonzero(count > slot)
            edge = first[at] + slot
            c = arrays.child_index[edge]
            resid = y[parents[at]] - (y[c] + rates[at] * dt + v[c] + k[c] - a[c] - m[c])
            note(5, parents[at], np.abs(resid),
                 lambda i, j: f"backward identity residual {resid[i, j]:.3g}", c)
            worst_id = _worse(worst_id, _worst(np.abs(resid)))
            mart[at] += arrays.child_prob[edge, None] * m[c]
        note(6, parents, np.abs(mart), lambda i, j: f"E[dM | parent] = {mart[i, j]:.3g}")
        worst_mart = _worse(worst_mart, _worst(np.abs(mart)))
        worst_neg = _worse(worst_neg, _worst(neg))
        worst_fl = _worse(worst_fl, _worst(flat_lower))
        worst_fu = _worse(worst_fu, _worst(flat_upper))
    violations = found.take()
    cycles = level_by_level_cycles(problem, solution, tol)
    violations += [Violation("binding-cycle", f"modes {list(cyc)} bind in a cycle", nid)
                   for nid, cyc in cycles]
    return {
        "worst_identity": worst_id,
        "worst_martingale": worst_mart,
        "worst_sandwich_lower": _worst(sandwich_lower),
        "worst_sandwich_upper": _worst(sandwich_upper),
        "worst_flat_off_lower": worst_fl,
        "worst_flat_off_upper": worst_fu,
        "worst_negative_increment": worst_neg,
        "binding_cycles": cycles,
        "violations": [v.as_dict() for v in violations],
    }


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_same_report(problem, solution):
    """``verify_minimality`` against the level-by-level formulation: every
    worst value by its bits, the violations in order, the cycles."""
    # a fresh solution object, so that neither reads the other's kept search
    report = verify_minimality(problem, dataclasses.replace(solution))
    expected = level_by_level_minimality(problem, dataclasses.replace(solution))
    for name in expected:
        if name.startswith("worst_"):
            assert _bits(getattr(report, name)) == _bits(expected[name]), name
    assert report.binding_cycles == expected["binding_cycles"]
    assert [v.as_dict() for v in report.violations] == expected["violations"]
    return report


def _early_leaf_tree(rng: random.Random, depth: int, d_children: int = 3) -> EventTree:
    """An explicit tree in which a node stops before the horizon with
    probability 0.3 (the root and one path always go on), 1 to
    ``d_children`` children otherwise, listed out of index order."""
    nodes = [{"id": "n", "t": 0}]
    frontier = ["n"]
    for t in range(1, depth + 1):
        nxt = []
        for i, pid in enumerate(frontier):
            if t > 1 and i and rng.random() < 0.3:
                continue
            width = rng.randint(1, d_children)
            weights = [rng.uniform(0.2, 1.0) for _ in range(width)]
            for w_i, w in enumerate(weights):
                nid = f"{pid}.{w_i}"
                nodes.append({"id": nid, "t": t, "parent": pid, "p": w / sum(weights)})
                nxt.append(nid)
        frontier = nxt
    rng.shuffle(nodes)
    return EventTree(nodes, rng.uniform(0.25, 1.0))


def _trees(seed: int) -> list[EventTree]:
    rng = random.Random(seed)
    return [EventTree.binary(rng.randint(1, 5), rng.uniform(0.1, 0.5)),
            _early_leaf_tree(rng, rng.randint(2, 4))]


def _planted(problem, solution, rng: random.Random) -> dict[str, SystemSolution]:
    """The solution edited to break each check at random places (a push on
    every child of a parent, so that it stays predictable), with NaN
    entries, with noise, and with all of these at once."""
    tree, d = problem.tree, problem.d
    parents = np.flatnonzero(np.diff(tree.arrays.child_ptr)).tolist()
    y, upper = solution.y_columns, problem.upper_columns

    def kids(p):
        return list(tree.children(p))

    def some_parent():
        return rng.choice(parents)

    # a push where the solution is off the barrier: at the (parent, mode)
    # of the largest gap to it
    h = np.array([problem.H(int(tree.arrays.time[u]), tuple(y[u].tolist()))
                  for u in parents])
    low = np.unravel_index(np.argmax(y[parents] - h), h.shape)
    high = np.unravel_index(np.argmax(upper[parents] - y[parents]), h.shape)
    noise = np.random.default_rng(rng.randrange(2**32)).normal(0.0, 1e-3, y.shape)
    # (column, index, value) edits; later ones win in "everything"
    edits = {
        "noise": [("y", ..., y + noise)],
        "sandwich-lower": [("y", (rng.randrange(tree.n_nodes), rng.randrange(d)), -50.0)],
        "sandwich-upper": [("y", (rng.randrange(tree.n_nodes), rng.randrange(d)),
                            float(upper.max()) + 1.0)],
        "increment-sign": [("k", (kids(some_parent()), rng.randrange(d)), -0.25)],
        "flat-off-lower": [("k", (kids(parents[low[0]]), low[1]), 0.25)],
        "flat-off-upper": [("a", (kids(parents[high[0]]), high[1]), 0.25)],
        "identity": [("y", (some_parent(), rng.randrange(d)), 0.5)],
        "martingale": [("m", (kids(some_parent()), rng.randrange(d)), 0.125)],
        "nan": [("y", (rng.randrange(tree.n_nodes), 0), np.nan),
                ("m", (kids(some_parent())[0], d - 1), np.nan),
                ("k", (kids(some_parent()), 0), np.nan)],
    }
    every = {name: getattr(solution, f"{name}_columns").copy() for name in "ykam"}
    out = {}
    for label, changes in edits.items():
        cols = {name: getattr(solution, f"{name}_columns").copy() for name in "ykam"}
        for name, at, value in changes:
            cols[name][at] = every[name][at] = value
        out[label] = _with_columns(solution, **cols)
    out["everything"] = _with_columns(solution, **every)
    return out


def _with_columns(solution: SystemSolution, **columns) -> SystemSolution:
    """The solution with ``y``, ``k``, ``a`` or ``m`` columns replaced."""
    return dataclasses.replace(solution, **{f"{name}_columns": value
                                            for name, value in columns.items()})


def _with_cycle(problem, solution, rng: random.Random):
    """The problem with the costs at one node's time index edited so that
    modes 0 -> 1 -> ... -> d-1 -> 0 bind in a cycle there (a cost sum of
    zero around it), and the solution with that node's row set to match."""
    tree, d = problem.tree, problem.d
    u = rng.randrange(tree.n_nodes)
    t = int(tree.arrays.time[u])
    values = problem.costs.values.copy()
    for j in range(d):
        values[t, j, (j + 1) % d] = 0.5 if j < d - 1 else -0.5 * (d - 1)
    y = solution.y_columns.copy()
    y[u] = y[u, 0] + 0.5 * np.arange(d)
    return (dataclasses.replace(problem, costs=CostMatrix(values)),
            _with_columns(solution, y=y), tree.ids[u])


@pytest.mark.parametrize("seed", range(12))
def test_minimality_report_is_the_level_by_level_report(seed):
    rng = random.Random(seed)
    for tree in _trees(seed):
        d = rng.randint(2, 4)
        problem = random_oblique_problem(rng, d=d, tree=tree, coupling=0.3)
        solution = solve_system(problem)
        assert assert_same_report(problem, solution).ok()
        for name, edited in _planted(problem, solution, rng).items():
            report = assert_same_report(problem, edited)
            if name in _CHECKS:
                assert name in {v.code for v in report.violations}, name
        cyclic, edited, node_id = _with_cycle(problem, solution, rng)
        report = assert_same_report(cyclic, edited)
        assert node_id in [nid for nid, _ in report.binding_cycles]


def test_a_nan_residual_is_nan_in_both():
    rng = random.Random(3)
    problem = random_oblique_problem(rng, d=3, tree=EventTree.binary(3, 0.25))
    solution = solve_system(problem)
    m = solution.m_columns.copy()
    m[5, 1] = np.nan
    report = assert_same_report(problem, _with_columns(solution, m=m))
    assert np.isnan(report.worst_identity) and np.isnan(report.worst_martingale)


def test_the_cycle_search_skips_nodes_with_fewer_than_two_edges(monkeypatch):
    import orbsde.oblique

    rng = random.Random(4)
    problem = random_oblique_problem(rng, d=3, tree=EventTree.binary(4, 0.25))
    problem, solution, node_id = _with_cycle(problem, solve_system(problem), rng)
    # and one edge, 0 -> 1, at another node
    y, times = solution.y_columns.copy(), problem.tree.arrays.time
    other = next(u for u in range(problem.tree.n_nodes) if problem.tree.ids[u] != node_id)
    y[other, 1] = y[other, 0] + problem.costs.values[times[other], 0, 1]
    solution = dataclasses.replace(solution, y_columns=y)
    searched = []
    walks = orbsde.oblique._has_d_walk
    monkeypatch.setattr(orbsde.oblique, "_has_d_walk",
                        lambda edges: searched.append(len(edges)) or walks(edges))
    assert binding_graph_cycles(problem, solution) == [(node_id, (0, 1, 2))]
    edges = orbsde.oblique._binding_edges(problem.costs, times, y, BINDING_TOL)
    assert edges[other].sum() == 1
    assert searched == [int((edges.sum(axis=(1, 2)) >= 2).sum())]
    assert searched[0] < problem.tree.n_nodes


# -- the probe table ----------------------------------------------------------


def _random_line(rng: random.Random, size: int) -> list[float]:
    pool = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 1.0 + 1e-12, 1e308, -1e308]
    line = [rng.uniform(-2.0, 2.0) for _ in range(size)]
    for i in range(size):
        if rng.random() < 0.3:
            line[i] = rng.choice(pool)
        elif i and rng.random() < 0.3:
            line[i] = line[i - 1]   # ties
    return line


@pytest.mark.parametrize("seed", range(6))
def test_probe_table_verdicts_are_the_scalar_probes(seed):
    rng = random.Random(seed)
    problem = random_oblique_problem(rng, d=3, tree=EventTree.binary(3, 0.25))
    # equal grid points: the box of constant data is [lo, lo]
    if seed % 2:
        problem = dataclasses.replace(
            problem, upper=(AdaptedProcess.constant(problem.tree, 1.0),) * 3,
            terminal={leaf: (1.0,) * 3 for leaf in problem.tree.leaves})
    tables = {}

    def generator(j):
        def f(t, y):
            size = len(y[0])
            if (j, t) not in tables:
                tables[j, t] = _random_line(rng, size) if (j + t) % 3 else (
                    [rng.choice([0.5, -0.5])] * size)
            return np.array(tables[j, t])
        return f

    problem = dataclasses.replace(problem, generators=tuple(map(generator, range(3))))
    grid, table = _probe_table(problem)
    steps = [y for y0 in grid for y in (y0, y0 + 1e-7)]
    n = len(grid)
    assert sorted(table) == sorted(tables)
    for (j, t), lines in table.items():
        values = tables[j, t]
        for k, (line, bad, pairs) in enumerate(lines):
            expected = values[k * n:(k + 1) * n] if k < 3 else values[3 * n:]
            assert line == expected or np.array_equal(line, expected, equal_nan=True)
            expected_bad, expected_pairs = _probe(
                expected, steps if k == 3 else grid, -1.0 if k not in (j, 3) else 1.0)
            assert (bad is None) == (expected_bad is None)
            if bad is not None:
                assert _bits(bad) == _bits(expected_bad)
            assert pairs == expected_pairs


def test_probe_box_ends_are_pythons_min_and_max():
    # the first of equal extremes (0.0 or -0.0), and Python's own with NaN
    rng = random.Random(7)
    pool = [0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]
    for _ in range(500):
        xi, upper = (np.array([[rng.choice(pool) for _ in range(2)]
                               for _ in range(rng.randint(1, 4))]) for _ in range(2))
        values = np.concatenate((xi.ravel(), upper.T.ravel())).tolist()
        lo, hi = min(values), max(values)
        pad = 1.0 + 0.5 * (hi - lo)
        expected = [lo - pad, lo, 0.5 * (lo + hi), hi, hi + pad]
        assert list(map(_bits, _probe_box(upper, xi))) == list(map(_bits, expected))


# -- cost orderings -----------------------------------------------------------


def _cost_violations_by_loop(values: np.ndarray) -> list[tuple]:
    """The cost orderings checked one time index and one entry at a time."""
    out = []
    T, d, _ = values.shape
    for t in range(T):
        c = values[t]
        for j in range(d):
            if c[j, j] != 0.0:
                out.append(("cost-diagonal", f"c[{j}][{j}] = {c[j, j]} != 0", t))
            for k in range(d):
                if j != k and not c[j, k] > 0.0:
                    out.append(("cost-positivity", f"c[{j}][{k}] = {c[j, k]} not positive", t))
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if len({i, j, k}) == 3 and not c[i, j] + c[j, k] > c[i, k]:
                        out.append(("cost-triangle", f"c[{i}][{j}] + c[{j}][{k}] = "
                                    f"{c[i, j] + c[j, k]} <= c[{i}][{k}] = {c[i, k]}", t))
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cost_orderings_are_the_loop_over_time_indices(d):
    rng = np.random.default_rng(d)
    for _ in range(40):
        values = rng.choice([-0.5, 0.0, 0.1, 0.3, 1.0, 2.5], size=(3, d, d))
        report = CostMatrix(values).validate()
        assert [(v.code, v.message, v.time_index) for v in report] == (
            _cost_violations_by_loop(values))


# -- memory -------------------------------------------------------------------


def test_minimality_check_holds_no_d_by_d_float_array():
    rng = random.Random(1)
    problem = random_oblique_problem(rng, d=3, tree=EventTree.binary(10, 0.1))
    solution = solve_system(problem)
    problem.upper_columns, problem.v_columns   # made on first use: not the check's
    verify_minimality(problem, dataclasses.replace(solution))   # warm
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        verify_minimality(problem, dataclasses.replace(solution))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # one (n_nodes, d, d) float array is 3 of these
    assert peak < 6 * solution.y_columns.nbytes
