"""Switching layer: per-strategy solves, enumeration oracle, greedy strategy.

Core claims:
    - solve_for_strategy reproduces independent recursions (scipy-rooted
      and pathwise) and the never-switch value is the plain upper solve
    - enumeration is exhaustive with the pinned start (d^(nodes-1)),
      refuses above the cap and runs at it
    - one enumeration of every start mode gives each start mode's brute
      force value and first maximizer bit for bit, ties included
    - brute force values every strategy as a one-strategy recursion does,
      bit for bit, and returns the first maximum in enumeration order;
      its traced memory stays bounded at a cap of 2^18
    - brute force equals the system root value whenever the lower
      reflection is inactive at the start, always equals the reachable
      (push-stripped) start value, and is attained by the greedy strategy
    - the one discrete boundary case: a K-push at the start node is worth
      exactly the push, and strategies pinned to the start mode miss it
    - dominance, cost monotonicity, no immediate return switches
    - a generator is coupled when a moved-component row of the validator's
      probe table is not constant, NaN included
    - a NaN martingale increment along the strategy fails the switched
      martingale check
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbsde import (
    AdaptedProcess,
    EnumerationCapError,
    EventTree,
    ObliqueProblem,
    PredictableIncrements,
    ScalarRBSDEProblem,
    SwitchingStrategy,
    brute_force_value,
    check_switched_martingale,
    construct_optimal_strategy,
    enumerate_strategies,
    picard_solve,
    solve_for_strategy,
    solve_upper,
    unconstrained_start_value,
)
from orbsde.oblique import CostMatrix
from orbsde.scalar import RESIDUAL_TOL, _root_find
from orbsde.switching import _brute_force_all, _eval_strategy, _subtree_ctx
from gen import random_oblique_problem, random_tree
from oracles import pathwise_strategy_value, recursive_strategy_value

BIG = 1e6


def small_problem(rng=None, depth=2, coupling=0.0, cost_band=(0.3, 0.5)):
    rng = rng or random.Random(0)
    tree_rng = rng
    from gen import random_tree

    tree = random_tree(tree_rng, max_depth=depth, min_depth=depth,
                       max_branching=2)
    return random_oblique_problem(
        rng, d=2, tree=tree, coupling=coupling, cost_band=cost_band,
        drift_scale=0.25,
    )


def constant_strategy(problem, start, mode) -> SwitchingStrategy:
    return SwitchingStrategy(
        problem.tree, start, mode,
        {u: mode for u in problem.tree.subtree(start)},
    )


# -- solve_for_strategy --------------------------------------------------------


def test_never_switching_equals_upper_solve():
    rng = random.Random(3)
    problem = small_problem(rng)
    tree = problem.tree
    for j in range(2):
        value = solve_for_strategy(problem, constant_strategy(problem, tree.root, j))
        direct = solve_upper(
            ScalarRBSDEProblem(
                tree=tree,
                terminal={leaf: problem.terminal[leaf][j] for leaf in tree.leaves},
                generator=lambda t, nodes, y, _j=j: problem.generators[_j](t, (y, y)),
                v_increments=problem.v[j],
                upper=problem.upper[j],
            )
        )
        for u in tree.subtree(tree.root):
            assert value.r[u] == pytest.approx(direct.y.values[u], abs=1e-12)


def test_single_forced_switch_on_chain_deducts_one_cost():
    tree = EventTree.chain(1, 1.0)
    leaf = tree.leaves[0]
    problem = ObliqueProblem(
        tree=tree,
        d=2,
        terminal={leaf: (1.0, 1.2)},
        generators=(lambda t, y: 0.0, lambda t, y: 0.0),
        v=(PredictableIncrements.zero(tree), PredictableIncrements.zero(tree)),
        upper=(AdaptedProcess.constant(tree, BIG), AdaptedProcess.constant(tree, BIG)),
        costs=CostMatrix.constant(1, [[0.0, 0.3], [0.3, 0.0]]),
    )
    strategy = SwitchingStrategy(tree, tree.root, 0, {tree.root: 0, leaf: 1})
    value = solve_for_strategy(problem, strategy)
    assert value.r[tree.root] == pytest.approx(1.2 - 0.3, abs=1e-14)


def test_strategy_value_matches_independent_recursions():
    rng = random.Random(5)
    for _ in range(10):
        problem = small_problem(rng)
        tree = problem.tree
        modes = {
            u: rng.randint(0, 1) for u in tree.subtree(tree.root)
        }
        modes[tree.root] = 0
        strategy = SwitchingStrategy(tree, tree.root, 0, modes)
        value = solve_for_strategy(problem, strategy)
        independent = recursive_strategy_value(problem, strategy)
        assert value.r[tree.root] == pytest.approx(independent, abs=1e-11)


def test_strategy_value_matches_pathwise_sum_without_caps_or_drift():
    rng = random.Random(7)
    base = small_problem(rng)
    tree = base.tree
    problem = ObliqueProblem(
        tree=tree,
        d=2,
        terminal=base.terminal,
        generators=(lambda t, y: 0.0, lambda t, y: 0.0),
        v=(PredictableIncrements.zero(tree), PredictableIncrements.zero(tree)),
        upper=(AdaptedProcess.constant(tree, BIG), AdaptedProcess.constant(tree, BIG)),
        costs=base.costs,
    )
    for strategy in itertools.islice(
        iter_all(problem, tree.root, 1), 0, 40, 7
    ):
        value = solve_for_strategy(problem, strategy)
        assert value.r[tree.root] == pytest.approx(
            pathwise_strategy_value(problem, strategy), abs=1e-11
        )


def iter_all(problem, start, mode):
    from orbsde.switching import iter_strategies

    return iter_strategies(problem, start, mode)


def test_strategy_flat_off_and_cap():
    rng = random.Random(11)
    problem = small_problem(rng)
    tree = problem.tree
    for strategy in enumerate_strategies(problem, tree.root, 0)[:32]:
        value = solve_for_strategy(problem, strategy)
        for u in tree.subtree(tree.root):
            m = strategy.modes[u]
            assert value.r[u] <= problem.upper[m].values[u] + 1e-12
            if u != tree.root:
                dd = value.d_increments[u]
                assert dd >= 0.0
        for u in tree.subtree(tree.root):
            if tree.node(u).is_leaf:
                continue
            dd = value.d_increments[tree.children(u)[0]]
            gap = problem.upper[strategy.modes[u]].values[u] - value.r[u]
            assert min(dd, gap) <= 1e-10


def test_coupled_generators_rejected():
    rng = random.Random(13)
    problem = small_problem(rng, coupling=0.3)
    # regenerate until a genuinely coupled generator appears
    from orbsde.switching import decoupling_violations

    while not decoupling_violations(problem):
        problem = small_problem(rng, coupling=0.3)
    with pytest.raises(ValueError):
        solve_for_strategy(
            problem, constant_strategy(problem, problem.tree.root, 0)
        )


def test_decoupling_verdict_reads_the_validator_probe_table():
    import dataclasses
    import math

    import numpy as np

    from orbsde.switching import decoupling_violations

    problem = small_problem(random.Random(5))
    assert decoupling_violations(problem) == []

    def with_gen0(f):
        return dataclasses.replace(
            problem, generators=(f,) + problem.generators[1:]
        )

    coupled = with_gen0(lambda t, y: -y[0] + 0.1 * y[1])
    found = decoupling_violations(coupled)
    assert found and {v.mode for v in found} == {0}
    assert found[0].message == "f^0 depends on component 1"
    # NaN at the top of a moved row counts as coupled (max and min of the
    # row would skip it and call the row constant)
    nan_off = with_gen0(lambda t, y: np.where(y[1] > y[0], math.nan, -y[0]))
    assert decoupling_violations(nan_off)


# -- enumeration ------------------------------------------------------------------


def test_single_node_subtree_has_one_strategy():
    rng = random.Random(17)
    problem = small_problem(rng)
    leaf = problem.tree.leaves[0]
    strategies = enumerate_strategies(problem, leaf, 1)
    assert len(strategies) == 1
    assert strategies[0].modes == {leaf: 1}


def test_one_step_chain_two_strategies():
    tree = EventTree.chain(1, 1.0)
    problem = ObliqueProblem(
        tree=tree,
        d=2,
        terminal={tree.leaves[0]: (0.0, 0.0)},
        generators=(lambda t, y: 0.0, lambda t, y: 0.0),
        v=(PredictableIncrements.zero(tree), PredictableIncrements.zero(tree)),
        upper=(AdaptedProcess.constant(tree, 1.0), AdaptedProcess.constant(tree, 1.0)),
        costs=CostMatrix.constant(1, [[0.0, 0.4], [0.4, 0.0]]),
    )
    strategies = enumerate_strategies(problem, tree.root, 0)
    assert len(strategies) == 2
    assert all(s.modes[tree.root] == 0 for s in strategies)


def test_two_step_binary_count_is_d_to_free_nodes():
    rng = random.Random(19)
    tree = EventTree.binary(2, 1.0)
    problem = random_oblique_problem(rng, d=2, tree=tree)
    strategies = enumerate_strategies(problem, tree.root, 0)
    assert len(strategies) == 2 ** (tree.n_nodes - 1) == 64
    assert len({tuple(sorted(s.modes.items())) for s in strategies}) == 64


def test_enumeration_cap_enforced():
    rng = random.Random(23)
    tree = EventTree.binary(2, 1.0)
    problem = random_oblique_problem(rng, d=2, tree=tree)
    # 7 nodes with the start mode pinned: 2^6 = 64 strategies
    with pytest.raises(EnumerationCapError, match=r"2\^6 strategies exceed cap 63"):
        enumerate_strategies(problem, tree.root, 0, cap=63)
    with pytest.raises(EnumerationCapError):
        brute_force_value(problem, tree.root, 0, cap=63)
    assert len(enumerate_strategies(problem, tree.root, 0, cap=64)) == 64
    brute_force_value(problem, tree.root, 0, cap=64)


# -- the subtree-shared enumeration against per-strategy recursions ----------


def sequential_strategy_value(problem, strategy) -> float:
    """A strategy's start value by plain recursion, one strategy at a time:
    children summed one term at a time in index order, roots by the scalar
    finder, the cap taken as the enumeration takes it.  The enumeration
    must give this value bit for bit."""
    tree, d = problem.tree, problem.d

    def value(u: int) -> float:
        n, m = tree.node(u), strategy.modes[u]
        if n.is_leaf:
            return problem.terminal[u][m]
        e = 0.0
        for c in n.children:
            mc = strategy.modes[c]
            cost = problem.costs.at(n.t + 1, m, mc) if mc != m else 0.0
            e += tree.node(c).prob * (value(c) - cost)
        target = e + problem.v[m].out_of(u)
        f = problem.generators[m]
        y = _root_find(lambda y: y - f(n.t, (y,) * d) * tree.dt - target,
                       target, RESIDUAL_TOL)
        cap = problem.upper[m].values[u]
        return cap if y > cap else y

    return value(strategy.start)


def ternary_tree(dt: float, deep: bool) -> EventTree:
    """Three children of unequal weight at the root, each with one child
    of its own if ``deep``."""
    nodes = [{"id": "r", "t": 0, "parent": None}]
    for k, p in enumerate((0.2, 0.3, 0.5)):
        nodes.append({"id": f"r{k}", "t": 1, "parent": "r", "p": p})
        if deep:
            nodes.append({"id": f"r{k}0", "t": 2, "parent": f"r{k}"})
    return EventTree.build(nodes, dt)


def judge_problems():
    """30 small decoupled problems, d 2-3, on binomial, chain and ternary
    trees, with costs small enough that switching often pays; each has at
    most 81 strategies per start mode."""
    rng = random.Random(71)
    shapes = [
        (2, lambda dt: EventTree.binary(2, dt)),
        (2, lambda dt: EventTree.chain(5, dt)),
        (2, lambda dt: ternary_tree(dt, deep=True)),
        (3, lambda dt: EventTree.binary(1, dt)),
        (3, lambda dt: EventTree.chain(4, dt)),
        (3, lambda dt: ternary_tree(dt, deep=False)),
    ]
    return [
        random_oblique_problem(rng, d=d, tree=shape(rng.uniform(0.25, 1.0)),
                               cost_band=(0.05, 0.3), drift_scale=0.8)
        for d, shape in shapes for _ in range(5)
    ]


def test_brute_force_is_the_max_over_independent_recursions():
    for problem in judge_problems():
        root = problem.tree.root
        for j in range(problem.d):
            value, _ = brute_force_value(problem, root, j)
            best = max(recursive_strategy_value(problem, s)
                       for s in enumerate_strategies(problem, root, j))
            assert value == pytest.approx(best, abs=1e-10)


def test_brute_force_argmax_is_the_first_maximum_bit_for_bit():
    switched = 0
    for problem in judge_problems():
        root = problem.tree.root
        for j in range(problem.d):
            value, argmax = brute_force_value(problem, root, j)
            strategies = enumerate_strategies(problem, root, j)
            k = [s.modes for s in strategies].index(argmax.modes)
            values = [sequential_strategy_value(problem, s) for s in strategies]
            assert solve_for_strategy(problem, argmax).r[root] == value
            assert values[k] == value
            assert all(v < value for v in values[:k])   # none earlier reaches it
            assert max(values) == value
            switched += bool(argmax.switch_events())
    assert switched >= 10   # the judges see switching optima, not only k = 0


def test_exact_tie_goes_to_the_first_strategy_in_enumeration_order():
    # the leaf values of modes 0 and 1 differ by exactly the switching cost,
    # so from mode 1 at n1 both leaf modes arrive at 0.75, and mode 1's
    # drift makes these two strategies, (n1, n2) = (1, 0) and (1, 1), the
    # best: k = 2 and k = 3 tie, and k = 2 is the earlier one
    tree = EventTree.chain(2, 1.0)
    n1, n2 = tree.index_of("n1"), tree.index_of("n2")
    zero = PredictableIncrements.zero(tree)
    problem = ObliqueProblem(
        tree=tree,
        d=2,
        terminal={n2: (1.0, 0.75)},
        generators=(lambda t, y: 0.0, lambda t, y: 1.0),
        v=(zero, zero),
        upper=(AdaptedProcess.constant(tree, BIG), AdaptedProcess.constant(tree, BIG)),
        costs=CostMatrix.constant(2, [[0.0, 0.25], [0.25, 0.0]]),
    )
    values = [sequential_strategy_value(problem, s)
              for s in enumerate_strategies(problem, tree.root, 0)]
    assert values == [1.0, 0.5, 1.5, 1.5]
    value, argmax = brute_force_value(problem, tree.root, 0)
    assert value == 1.5
    assert argmax.modes == {tree.root: 0, n1: 1, n2: 0}


def test_brute_force_memory_stays_bounded_at_a_large_cap():
    # a 19-node chain with d = 2: 2^18 strategies, every one valued; the
    # root finds run in blocks, so the traced peak is the stored values
    # (a few floats per strategy), not the finder's temporaries
    rng = random.Random(73)
    tree = EventTree.chain(18, 0.5)
    problem = random_oblique_problem(rng, d=2, tree=tree, cost_band=(0.05, 0.3))
    solve_for_strategy(problem, constant_strategy(problem, tree.root, 0))  # verdict
    tracemalloc.start()
    try:
        value, argmax = brute_force_value(problem, tree.root, 0, cap=2**18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20
    assert solve_for_strategy(problem, argmax).r[tree.root] == value


# -- brute force vs system solution ------------------------------------------------


def test_huge_costs_make_never_switching_optimal():
    rng = random.Random(29)
    base = small_problem(rng)
    problem = ObliqueProblem(
        tree=base.tree,
        d=2,
        terminal=base.terminal,
        generators=base.generators,
        v=base.v,
        upper=base.upper,
        costs=CostMatrix.constant(
            base.tree.n_steps, [[0.0, BIG], [BIG, 0.0]]
        ),
    )
    tree = problem.tree
    for j in range(2):
        value, argmax = brute_force_value(problem, tree.root, j)
        never = solve_for_strategy(problem, constant_strategy(problem, tree.root, j))
        assert value == pytest.approx(never.r[tree.root], abs=1e-12)
        assert argmax.switch_events() == []


def test_symmetric_problem_value_independent_of_start_mode():
    tree = EventTree.binary(2, 0.5)
    terminal = {leaf: (0.2 * leaf, 0.2 * leaf) for leaf in tree.leaves}
    problem = ObliqueProblem(
        tree=tree,
        d=2,
        terminal=terminal,
        generators=(
            lambda t, y: 0.1 - 0.2 * y[0],
            lambda t, y: 0.1 - 0.2 * y[1],
        ),
        v=(PredictableIncrements.zero(tree), PredictableIncrements.zero(tree)),
        upper=(AdaptedProcess.constant(tree, 3.0), AdaptedProcess.constant(tree, 3.0)),
        costs=CostMatrix.constant(tree.n_steps, [[0.0, 0.35], [0.35, 0.0]]),
    )
    v0, _ = brute_force_value(problem, tree.root, 0)
    v1, _ = brute_force_value(problem, tree.root, 1)
    assert v0 == pytest.approx(v1, abs=1e-12)


def test_value_representation_sharp_form_every_node_and_mode():
    rng = random.Random(31)
    for _ in range(6):
        problem = small_problem(rng)
        solution = picard_solve(problem, tol=1e-12)
        tree = problem.tree
        for start in range(tree.n_nodes):
            for j in range(2):
                value, _ = brute_force_value(problem, start, j)
                reachable = unconstrained_start_value(problem, solution, start, j)
                assert value == pytest.approx(reachable, abs=1e-9)
                if solution.k[j].out_of(start) <= 1e-12:
                    assert value == pytest.approx(
                        solution.y[j].values[start], abs=1e-8
                    )
                else:
                    assert value < solution.y[j].values[start]


def test_dominance_of_system_value_over_every_strategy():
    rng = random.Random(37)
    problem = small_problem(rng)
    solution = picard_solve(problem, tol=1e-12)
    tree = problem.tree
    for j in range(2):
        y_root = solution.y[j].values[tree.root]
        for strategy in enumerate_strategies(problem, tree.root, j):
            value = solve_for_strategy(problem, strategy)
            assert value.r[tree.root] <= y_root + 1e-8


def test_raising_a_cost_never_raises_the_value():
    rng = random.Random(41)
    problem = small_problem(rng)
    tree = problem.tree
    import numpy as np

    bumped_costs = CostMatrix(np.array(problem.costs.values) + 0.2 * (
        1 - np.eye(2)
    ))
    bumped = ObliqueProblem(
        tree=tree,
        d=2,
        terminal=problem.terminal,
        generators=problem.generators,
        v=problem.v,
        upper=problem.upper,
        costs=bumped_costs,
    )
    for j in range(2):
        v1, _ = brute_force_value(problem, tree.root, j)
        v2, _ = brute_force_value(bumped, tree.root, j)
        assert v2 <= v1 + 1e-12


# -- greedy optimal strategy ---------------------------------------------------------


def test_greedy_is_constant_when_obstacle_never_binds():
    rng = random.Random(43)
    base = small_problem(rng)
    problem = ObliqueProblem(
        tree=base.tree,
        d=2,
        terminal=base.terminal,
        generators=base.generators,
        v=base.v,
        upper=base.upper,
        costs=CostMatrix.constant(base.tree.n_steps, [[0.0, BIG], [BIG, 0.0]]),
    )
    solution = picard_solve(problem, tol=1e-12)
    greedy = construct_optimal_strategy(problem, solution, problem.tree.root, 0)
    assert greedy.switch_events() == []


def forced_switch_problem() -> ObliqueProblem:
    tree = EventTree.binary(3, 0.5)
    terminal = {}
    for leaf in tree.leaves:
        nid = tree.node(leaf).node_id
        base = 0.5 * nid.count("u") - 0.2 * nid.count("d")
        terminal[leaf] = (base, base + 0.1)
    return ObliqueProblem(
        tree=tree,
        d=2,
        terminal=terminal,
        generators=(
            lambda t, y: -2.0 - 0.1 * y[0],
            lambda t, y: 1.0 - 0.2 * y[1],
        ),
        v=(PredictableIncrements.zero(tree), PredictableIncrements.zero(tree)),
        upper=(
            AdaptedProcess.from_fn(tree, lambda n: 3.0 - 0.1 * n.t),
            AdaptedProcess.from_fn(tree, lambda n: 3.1 - 0.1 * n.t),
        ),
        costs=CostMatrix.constant(tree.n_steps, [[0.0, 0.25], [0.3, 0.0]]),
    )


def test_greedy_switches_at_first_binding_node_and_attains_brute_force():
    problem = forced_switch_problem()
    solution = picard_solve(problem, tol=1e-12)
    tree = problem.tree
    greedy = construct_optimal_strategy(problem, solution, tree.root, 0)
    events = greedy.switch_events()
    assert events, "losing mode must switch somewhere"
    assert all(m0 == 0 and m1 == 1 for _, _, m0, m1 in events)
    value, _ = brute_force_value(problem, tree.root, 0)
    attained = solve_for_strategy(problem, greedy)
    assert attained.r[tree.root] == pytest.approx(value, abs=1e-9)


def test_greedy_attains_brute_force_value_on_random_instances():
    rng = random.Random(47)
    for _ in range(8):
        problem = small_problem(rng)
        solution = picard_solve(problem, tol=1e-12)
        tree = problem.tree
        for j in range(2):
            value, _ = brute_force_value(problem, tree.root, j)
            greedy = construct_optimal_strategy(problem, solution, tree.root, j)
            attained = solve_for_strategy(problem, greedy)
            assert attained.r[tree.root] == pytest.approx(value, abs=1e-8)


def test_greedy_never_switches_back_immediately():
    problem = forced_switch_problem()
    solution = picard_solve(problem, tol=1e-12)
    tree = problem.tree
    for j in range(2):
        greedy = construct_optimal_strategy(problem, solution, tree.root, j)
        for leaf in tree.leaves:
            path = tree.path_from_root(leaf)
            for a, b, c in zip(path, path[1:], path[2:]):
                ma, mb, mc = (greedy.modes[x] for x in (a, b, c))
                if ma != mb:
                    assert not (mc == ma and mb != mc and tree.node(b).t
                                == tree.node(c).t)
        # switches happen at strictly increasing times along each path
        for leaf in tree.leaves:
            path = tree.path_from_root(leaf)
            times = [
                tree.node(b).t
                for a, b in zip(path, path[1:])
                if greedy.modes[a] != greedy.modes[b]
            ]
            assert times == sorted(set(times))


# -- the start-push boundary case ----------------------------------------------------


def start_push_problem() -> ObliqueProblem:
    """One-step chain where the losing mode's obstacle pushes at the root:
    switching immediately is worth the push, but a strategy pinned to its
    start mode can only switch one step later."""
    tree = EventTree.chain(1, 1.0)
    return ObliqueProblem(
        tree=tree,
        d=2,
        terminal={tree.leaves[0]: (10.0, 10.0)},
        generators=(lambda t, y: -5.0, lambda t, y: 0.0),
        v=(PredictableIncrements.zero(tree), PredictableIncrements.zero(tree)),
        upper=(
            AdaptedProcess.constant(tree, 100.0),
            AdaptedProcess.constant(tree, 100.0),
        ),
        costs=CostMatrix.constant(1, [[0.0, 1.0], [1.0, 0.0]]),
    )


def test_start_push_gap_equals_the_push():
    problem = start_push_problem()
    solution = picard_solve(problem, tol=1e-12)
    tree = problem.tree
    root = tree.root
    push = solution.k[0].out_of(root)
    assert push > 1.0  # the obstacle genuinely pushes at the start
    assert solution.y[0].values[root] == pytest.approx(9.0, abs=1e-12)
    value, _ = brute_force_value(problem, root, 0)
    reachable = unconstrained_start_value(problem, solution, root, 0)
    assert value == pytest.approx(reachable, abs=1e-12)
    assert solution.y[0].values[root] - value == pytest.approx(push, abs=1e-12)
    # the greedy strategy still attains the best value in the pinned class
    greedy = construct_optimal_strategy(problem, solution, root, 0)
    assert solve_for_strategy(problem, greedy).r[root] == pytest.approx(
        value, abs=1e-12
    )
    # the unshiftable mode is unaffected
    v1, _ = brute_force_value(problem, root, 1)
    assert v1 == pytest.approx(solution.y[1].values[root], abs=1e-12)


def test_worst_case_switching_cost_bounds_every_strategy():
    from orbsde.switching import worst_case_switching_cost

    rng = random.Random(67)
    problem = small_problem(rng)
    tree = problem.tree
    bound = worst_case_switching_cost(problem)
    for strategy in enumerate_strategies(problem, tree.root, 0)[:64]:
        paid = {}
        for leaf in tree.leaves:
            path = tree.path_from_root(leaf)
            paid[leaf] = sum(
                problem.costs.at(tree.node(b).t, strategy.modes[a],
                                 strategy.modes[b])
                for a, b in zip(path, path[1:])
                if strategy.modes[a] != strategy.modes[b]
            )
        assert max(paid.values()) <= bound + 1e-12


# -- switched martingale ----------------------------------------------------------


def test_switched_martingale_constant_strategy():
    rng = random.Random(53)
    problem = small_problem(rng)
    solution = picard_solve(problem, tol=1e-12)
    report = check_switched_martingale(
        problem, solution, constant_strategy(problem, problem.tree.root, 0)
    )
    assert report.ok(1e-12)


def test_switched_martingale_arbitrary_strategy():
    rng = random.Random(59)
    problem = small_problem(rng)
    solution = picard_solve(problem, tol=1e-12)
    tree = problem.tree
    modes = {u: rng.randint(0, 1) for u in tree.subtree(tree.root)}
    modes[tree.root] = 1
    strategy = SwitchingStrategy(tree, tree.root, 1, modes)
    report = check_switched_martingale(problem, solution, strategy)
    assert report.ok(1e-12)
    # direct recomputation at one node
    n = tree.node(tree.root)
    m = strategy.modes[tree.root]
    acc = sum(
        tree.node(c).prob * solution.m_increments[m][c] for c in n.children
    )
    assert abs(acc) <= 1e-12


def test_switched_martingale_detects_corruption():
    import dataclasses

    rng = random.Random(61)
    problem = small_problem(rng)
    solution = picard_solve(problem, tol=1e-12)
    tree = problem.tree
    m = solution.m_columns.copy()
    victim = tree.children(tree.root)[0]
    m[victim, 0] += 0.5
    corrupted = dataclasses.replace(solution, m_columns=m)
    report = check_switched_martingale(
        problem, corrupted, constant_strategy(problem, tree.root, 0)
    )
    assert not report.ok(1e-12)
    assert any(v.node_id == tree.node(tree.root).node_id
               for v in report.violations)


def test_switched_martingale_reports_a_nan_increment(scenarios_dir):
    import dataclasses
    import math

    from orbsde.scenario import Scenario

    problem = Scenario.from_file(scenarios_dir / "decoupled.json").build_problem()
    solution = picard_solve(problem, tol=1e-12)
    tree = problem.tree
    first = tree.node(tree.root).children[0]
    m = solution.m_columns.copy()
    m[first, 0] = math.nan
    corrupted = dataclasses.replace(solution, m_columns=m)
    strategy = construct_optimal_strategy(problem, solution, tree.root, 0)
    # max() would keep the finite residuals and pass the check
    report = check_switched_martingale(problem, corrupted, strategy)
    assert math.isnan(report.worst)
    assert not report.ok(1e-12)
    assert [v.node_id for v in report.violations] == [tree.node(tree.root).node_id]



@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3]),
       quantile=st.sampled_from([None, 0.0, 0.5, 0.9]))
def test_each_start_modes_brute_force_is_its_row_of_the_joint_enumeration(
        seed, d, quantile):
    # one enumeration of every start mode gives each start mode's
    # brute_force_value: the value's bits and the first maximizer.  A cap
    # at the root at a quantile of every strategy's start value makes the
    # strategies above it tie (all of them at quantile 0, where the first
    # maximizer is k = 0: mode 0 after the start)
    rng = random.Random(seed)
    tree = random_tree(rng, max_depth=3 if d == 2 else 2, max_branching=2)
    problem = random_oblique_problem(rng, d=d, tree=tree, cost_band=(0.05, 0.3))
    root = tree.root
    if quantile is not None:
        every = [list(range(d))] * tree.n_nodes
        starts = _eval_strategy(_subtree_ctx(problem, root), every)[0][0]
        level = float(np.quantile(starts, quantile))
        at_root = np.arange(tree.n_nodes) == root
        problem = dataclasses.replace(problem, upper=tuple(
            AdaptedProcess(tree, np.where(at_root, level, u.values))
            for u in problem.upper))
    best = _brute_force_all(problem, root)
    for j in range(d):
        value, strategy = brute_force_value(problem, root, j)
        joint_value, joint = best(j)
        assert struct.pack("<d", value) == struct.pack("<d", joint_value)
        assert (strategy.start, strategy.start_mode, strategy.modes) == (
            joint.start, joint.start_mode, joint.modes)
        if quantile == 0.0:
            assert joint.modes == {u: j if u == root else 0 for u in range(tree.n_nodes)}
