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
    uppers = [u.values.tolist() for u in problem.upper]

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

        return min(uppers[m][u], _bracketed_root(resid, target))

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
    lows, highs = problem.lower.values.tolist(), problem.upper.values.tolist()
    y = [0.0] * tree.n_nodes
    for u in range(tree.n_nodes - 1, -1, -1):
        n = tree.node(u)
        if n.is_leaf:
            y[u] = problem.terminal[u]
            continue
        target = math.fsum(tree.node(c).prob * y[c] for c in n.children) + dv.out_of(u)
        low, high = lows[u], highs[u]

        def resid(x, t=n.t, nodes=np.array([u])):
            rate = float(np.broadcast_to(g(t, nodes, np.array([x])), 1)[0])
            rate += p * max(0.0, low - x) - q * max(0.0, x - high)
            return x - rate * dt - target

        y[u] = _bracketed_root(resid, target)
    return y


def _affine_probe(fn, d: int, what: str) -> tuple[float, list[float]]:
    """``fn`` on d floats as ``a + b . y``, read from its values at 0 and at
    the unit vectors, with a spot check at one more point."""
    zero = float(fn((0.0,) * d))
    slopes = [float(fn(tuple(float(k == i) for k in range(d)))) - zero
              for i in range(d)]
    spot = tuple(0.37 * (i + 1) - 0.81 for i in range(d))
    gap = float(fn(spot)) - (zero + sum(b * y for b, y in zip(slopes, spot)))
    if abs(gap) > 1e-9 * (1.0 + abs(zero) + sum(map(abs, slopes))):
        raise ValueError(f"{what} is not affine (gap {gap:.3g})")
    return zero, slopes


def _obstacle_pieces(problem: ObliqueProblem, t: int) -> list[list[tuple]]:
    """Mode j's obstacle as pieces (h, g): H^j(y) = max over pieces of
    h + g . y.  The cost form has one piece per other mode; a general
    obstacle must be affine, one piece per mode."""
    d = problem.d
    if problem.costs is not None:
        return [[(-problem.costs.at(t, j, k), [float(i == k) for i in range(d)])
                 for k in range(d) if k != j] for j in range(d)]
    return [[_affine_probe(lambda y, j=j: problem.H(t, y)[j], d, f"H^{j}")]
            for j in range(d)]


def _node_candidates(problem, t, upper, target, rates, pieces):
    """Every feasible point of the node's complementarity system, one per
    assignment of a state to each mode: free (the implicit step holds),
    capped (y^j = U^j, the step's residual <= 0) or pushed onto an
    obstacle piece (y^j = h + g . y, residual >= 0), with H(y) <= y <= U
    everywhere.  ``rates[j] = (a, b)`` gives f^j(y) = a + b . y."""
    from itertools import product

    from scipy.optimize import linprog

    d, dt = problem.d, problem.tree.dt
    eye = np.eye(d)
    # residual phi_j(y) = y_j - dt f^j(y) - target_j = resid[j] . y - offset[j]
    resid = np.array([eye[j] - dt * np.array(rates[j][1]) for j in range(d)])
    offset = np.array([target[j] + dt * rates[j][0] for j in range(d)])
    # every inequality as rows . y <= bound
    rows = [eye[j] for j in range(d)]
    bound = list(upper)
    for j in range(d):
        for h, g in pieces[j]:
            rows.append(np.array(g) - eye[j])
            bound.append(-h)
    rows, bound = np.array(rows), np.array(bound)
    out = []
    for states in product(*(range(2 + len(pieces[j])) for j in range(d))):
        pushed = {j: s - 2 for j, s in enumerate(states) if s >= 2}
        if problem.costs is not None and _push_cycle(pushed, pieces):
            continue   # positive costs: y^j < y^j around the cycle
        eq_rows, eq_rhs, sign_rows, sign_rhs = [], [], [], []
        for j, s in enumerate(states):
            if s == 0:
                eq_rows.append(resid[j])
                eq_rhs.append(offset[j])
            elif s == 1:
                eq_rows.append(eye[j])
                eq_rhs.append(upper[j])
                sign_rows.append(resid[j])          # phi_j <= 0
                sign_rhs.append(offset[j])
            else:
                h, g = pieces[j][s - 2]
                eq_rows.append(eye[j] - np.array(g))
                eq_rhs.append(h)
                sign_rows.append(-resid[j])         # phi_j >= 0
                sign_rhs.append(-offset[j])
        a_eq, b_eq = np.array(eq_rows), np.array(eq_rhs)
        a_ub = np.vstack([rows] + ([np.array(sign_rows)] if sign_rows else []))
        b_ub = np.concatenate([bound, sign_rhs])
        if abs(np.linalg.det(a_eq)) > 1e-12:
            y = np.linalg.solve(a_eq, b_eq)
        else:
            res = linprog(np.ones(d), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                          bounds=[(None, None)] * d, method="highs")
            if res.status != 0:
                continue
            y = res.x
        slack = 1e-9 * (1.0 + np.abs(b_ub) + np.abs(a_ub) @ np.abs(y))
        if np.all(a_ub @ y <= b_ub + slack):
            out.append(y)
    return out


def _push_cycle(pushed: dict[int, int], pieces) -> bool:
    """Whether the pushes (mode -> piece) of the cost form close a cycle:
    piece i of mode j is the one of mode k, the i-th mode other than j."""
    for start in pushed:
        j, seen = start, set()
        while j in pushed and j not in seen:
            seen.add(j)
            g = pieces[j][pushed[j]][1]
            j = g.index(1.0)
        if j == start and j in seen:
            return True
    return False


def active_set_values(problem: ObliqueProblem) -> list[tuple[float, ...]]:
    """The least solution at every node, for affine generators and an
    obstacle that is the cost form or affine: at each parent, the
    least-sum feasible point of :func:`_node_candidates`, checked to lie
    below every other candidate; the targets are ``math.fsum``
    expectations of the children plus dV, from the leaves back."""
    tree, d = problem.tree, problem.d
    uppers = [u.values.tolist() for u in problem.upper]
    y: list[tuple[float, ...]] = [()] * tree.n_nodes
    rates = {
        t: [_affine_probe(lambda row, j=j: problem.generators[j](t, row), d,
                          f"f^{j}") for j in range(d)]
        for t in range(tree.n_steps)
    }
    for u in range(tree.n_nodes - 1, -1, -1):
        n = tree.node(u)
        if n.is_leaf:
            y[u] = tuple(problem.terminal[u])
            continue
        target = [math.fsum(tree.node(c).prob * y[c][j] for c in n.children)
                  + problem.v[j].out_of(u) for j in range(d)]
        upper = [uppers[j][u] for j in range(d)]
        candidates = _node_candidates(problem, n.t, upper, target, rates[n.t],
                                      _obstacle_pieces(problem, n.t))
        assert candidates, f"no feasible state at node {n.node_id}"
        least = min(candidates, key=lambda c: float(np.sum(c)))
        scale = 1e-9 * (1.0 + float(np.max(np.abs(least))))
        assert all(np.all(least <= c + scale) for c in candidates), (
            f"the least-sum candidate at node {n.node_id} is not below the others")
        y[u] = tuple(least.tolist())
    return y
