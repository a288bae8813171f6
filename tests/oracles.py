"""Independent oracles the solvers are checked against.

Everything here deliberately avoids the production code paths: values are
computed by path sums over leaves, exhaustive enumeration, or recursions
written against scipy's root finder instead of the in-house bisection.
The only production piece reused is stopping-time / strategy enumeration
itself, which is the designated oracle substrate.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from orbsde import EventTree, ScalarRBSDEProblem, StoppingTime
from orbsde.oblique import ObliqueProblem
from orbsde.switching import SwitchingStrategy


def path_probability(tree: EventTree, leaf: int) -> float:
    p = 1.0
    n = tree.node(leaf)
    while n.parent is not None:
        p *= n.prob
        n = tree.node(n.parent)
    return p


def stopped_expectation(tree: EventTree, st: StoppingTime, reward) -> float:
    """E[reward at the stop node], summed leaf path by leaf path."""
    return sum(
        path_probability(tree, leaf) * reward[st.stop_node_on_path(leaf)]
        for leaf in tree.leaves
    )


def count_stopping_times(tree: EventTree, start: int | None = None) -> int:
    """Independent rendering of N(leaf) = 1, N(u) = 1 + prod N(children)."""
    start = tree.root if start is None else start
    memo: dict[int, int] = {}

    def rec(u: int) -> int:
        if u in memo:
            return memo[u]
        kids = tree.children(u)
        if not kids:
            out = 1
        else:
            prod = 1
            for c in kids:
                prod *= rec(c)
            out = 1 + prod
        memo[u] = out
        return out

    return rec(start)


def dynkin_value(tree: EventTree, lower, upper, terminal, stopping_times) -> float:
    """max over sigma of min over tau of the two-player stopped payoff.

    Payoff on each leaf path: lower at sigma's node if sigma stops first or
    ties before the horizon; upper at tau's node if tau stops strictly
    first; terminal if both ride to the horizon.
    """

    def payoff(sigma: StoppingTime, tau: StoppingTime) -> float:
        acc = 0.0
        for leaf in tree.leaves:
            sn = sigma.stop_node_on_path(leaf)
            tn = tau.stop_node_on_path(leaf)
            if tree.node(tn).t < tree.node(sn).t:
                val = upper[tn]
            elif tree.node(sn).is_leaf:
                val = terminal[sn]
            else:
                val = lower[sn]
            acc += path_probability(tree, leaf) * val
        return acc

    return max(
        min(payoff(sigma, tau) for tau in stopping_times)
        for sigma in stopping_times
    )


def pathwise_strategy_value(
    problem: ObliqueProblem, strategy: SwitchingStrategy
) -> float:
    """Strategy start value for f = 0, V = 0 and non-binding caps: the
    expected terminal payoff minus the switch costs along each path."""
    tree = problem.tree
    total = 0.0
    for leaf in tree.leaves:
        path = tree.path_from_root(leaf)
        path = path[path.index(strategy.start):]
        cost = 0.0
        for prev, cur in zip(path, path[1:]):
            m0, m1 = strategy.modes[prev], strategy.modes[cur]
            if m0 != m1:
                cost += problem.costs.at(tree.node(cur).t, m0, m1)
        prob = path_probability(tree, leaf) / path_probability(
            tree, strategy.start
        )
        total += prob * (problem.terminal[leaf][strategy.modes[leaf]] - cost)
    return total


def recursive_strategy_value(
    problem: ObliqueProblem, strategy: SwitchingStrategy
) -> float:
    """Hand-rolled per-strategy recursion using scipy's root finder."""
    tree = problem.tree
    dt = tree.dt
    d = problem.d

    def value(u: int) -> float:
        n = tree.node(u)
        m = strategy.modes[u]
        if n.is_leaf:
            return problem.terminal[u][m]
        e = 0.0
        for c in n.children:
            arrive = value(c)
            mc = strategy.modes[c]
            if mc != m:
                arrive -= problem.costs.at(n.t + 1, m, mc)
            e += tree.node(c).prob * arrive
        target = e + problem.v[m].out_of(u)
        f = problem.generators[m]

        def resid(y):
            return y - f(n.t, (y,) * d) * dt - target

        return min(problem.upper[m].values[u], _bracketed_root(resid, target))

    return value(strategy.start)


def _bracketed_root(resid, target: float) -> float:
    """brentq on an increasing residual, bracketed around ``target``."""
    lo, hi = target - 1.0, target + 1.0
    while resid(lo) > 0:
        lo -= 2 * (target - lo) + 1
    while resid(hi) < 0:
        hi += 2 * (hi - target) + 1
    return brentq(resid, lo, hi, xtol=1e-14, rtol=8.9e-16)


def penalized_values(problem: ScalarRBSDEProblem, p: float, q: float) -> list[float]:
    """The penalized scheme's value at every node, node by node: at a
    parent u, the root y of ``y - (g(u, y) + p (L_u - y)^+ - q (y - U_u)^+) dt
    = E[Y_next | u] + dV``, found by brentq, with the expectation a
    ``math.fsum`` over the children."""
    tree = problem.tree
    dt, g, dv = tree.dt, problem.generator, problem.v()
    y = [0.0] * tree.n_nodes
    for u in range(tree.n_nodes - 1, -1, -1):
        n = tree.node(u)
        if n.is_leaf:
            y[u] = problem.terminal[u]
            continue
        target = math.fsum(tree.node(c).prob * y[c] for c in n.children) + dv.out_of(u)
        low, high = problem.lower.values[u], problem.upper.values[u]

        def resid(x, t=n.t, nodes=np.array([u])):
            rate = float(np.broadcast_to(g(t, nodes, np.array([x])), 1)[0])
            rate += p * max(0.0, low - x) - q * max(0.0, x - high)
            return x - rate * dt - target

        y[u] = _bracketed_root(resid, target)
    return y
