"""Optimal mode switching under a per-mode upper profitability cap.

A strategy assigns a mode to every node of the subtree it runs on, with the
mode at the start node fixed (adaptedness is structural: the mode is a
function of the node).  A mode change on the edge into node c costs
``c[m][m'](t_c)``, charged at the child's time index, and the running
value in mode m is capped by ``U^m`` from above with a minimal reflecting
increment D.

The per-strategy value solves, between parent u (mode m) and its children,

    R_u = min(U^m_u, y*),   y* = E[R_c - switch_cost_c | u] + f^m(t, y*) dt + dV^m,

which is the scalar implicit machinery with the switch costs folded into
the continuation (they are decided at the children, so they sit inside the
expectation, not in the predictable drift).

Exhaustive strategy enumeration is the value oracle here: the maximal
start value over all strategies equals the system solution's Y at the start
node whenever the oblique lower reflection is inactive there (no K-push out
of the start node).  A push at the start is the one discrete-time artifact:
it encodes "switch right now", which a strategy pinned to its start mode
cannot do, and costs exactly the push (an O(dt) effect; in continuous time
switching an instant later loses nothing).  The greedy strategy built from
a solved system realizes the enumeration maximum in all cases.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    EnumerationCapError,
    InternalConsistencyError,
    InvalidProblemError,
    Violation,
)
from .oblique import (
    BINDING_TOL,
    ObliqueProblem,
    SystemSolution,
    _generator_probes,
    _probe_box,
    _probe_times,
)
from .scalar import _root_find, RESIDUAL_TOL
from .tree import EventTree

__all__ = [
    "SwitchingStrategy",
    "StrategyValue",
    "SwitchedMartingaleReport",
    "solve_for_strategy",
    "enumerate_strategies",
    "iter_strategies",
    "brute_force_value",
    "construct_optimal_strategy",
    "check_switched_martingale",
    "unconstrained_start_value",
    "worst_case_switching_cost",
    "decoupling_violations",
]


@dataclass(frozen=True)
class SwitchingStrategy:
    """Mode-per-node map on the subtree of `start`, start mode pinned."""

    tree: EventTree
    start: int
    start_mode: int
    modes: Mapping[int, int]

    def __post_init__(self):
        sub = self.tree.subtree(self.start)
        missing = [u for u in sub if u not in self.modes]
        if missing:
            raise ValueError(f"strategy misses nodes {missing}")
        if self.modes[self.start] != self.start_mode:
            raise ValueError("strategy must start in the prescribed mode")

    def switch_events(self) -> list[tuple[int, int, int, int]]:
        """Edges where the mode changes: (node, t, from_mode, to_mode)."""
        out = []
        for u in self.tree.subtree(self.start):
            n = self.tree.node(u)
            if u == self.start or n.parent not in self.modes:
                continue
            m_from = self.modes[n.parent]
            m_to = self.modes[u]
            if m_from != m_to:
                out.append((u, n.t, m_from, m_to))
        return out

    def as_id_dict(self) -> dict[str, int]:
        return {
            self.tree.node(u).node_id: m for u, m in sorted(self.modes.items())
        }


@dataclass(frozen=True)
class StrategyValue:
    """(R, dM, dD) of a per-strategy solve, on the strategy's subtree."""

    r: Mapping[int, float]
    m_increments: Mapping[int, float]
    d_increments: Mapping[int, float]


def decoupling_violations(problem: ObliqueProblem) -> list[Violation]:
    """Probe that each f^j ignores the off-diagonal components: on the
    validator's probe table, each row with another component moved must be
    constant within 1e-12 (a NaN spread counts as coupled)."""
    out: list[Violation] = []
    grid = _probe_box(problem)
    for j, f in enumerate(problem.generators):
        for t in _probe_times(problem.tree):
            moved, _ = _generator_probes(f, t, grid, problem.d)
            coupled = [k for k, row in enumerate(moved)
                       if k != j and not np.ptp(row) <= 1e-12]
            if coupled:
                out.append(
                    Violation(
                        "generator-coupled",
                        f"f^{j} depends on component {coupled[0]}",
                        time_index=t, mode=j,
                    )
                )
    return out


def _require_cost_form(problem: ObliqueProblem) -> None:
    if problem.costs is None:
        raise ValueError("switching requires the cost-matrix obstacle form")
    coupled = decoupling_violations(problem)
    if coupled:
        raise InvalidProblemError(coupled)


@dataclass(frozen=True)
class _SubtreeCtx:
    """Precomputed arrays for fast per-strategy solves on one subtree."""

    tree: EventTree
    problem: ObliqueProblem
    start: int
    nodes: tuple[int, ...]            # ascending index order
    pos: Mapping[int, int]
    children: tuple[tuple[int, ...], ...]   # positions
    probs: tuple[tuple[float, ...], ...]
    times: tuple[int, ...]
    is_leaf: tuple[bool, ...]
    upper: tuple[tuple[float, ...], ...]    # [mode][pos]
    xi: tuple[tuple[float, ...], ...]       # [mode][pos], 0 for non-leaf
    dv_out: tuple[tuple[float, ...], ...]   # [mode][pos]
    costs: tuple                            # [t][j][k] plain floats


def _subtree_ctx(problem: ObliqueProblem, start: int) -> _SubtreeCtx:
    tree = problem.tree
    nodes = tree.subtree(start)
    pos = {u: i for i, u in enumerate(nodes)}
    children = tuple(
        tuple(pos[c] for c in tree.children(u)) for u in nodes
    )
    probs = tuple(
        tuple(tree.node(c).prob for c in tree.children(u)) for u in nodes
    )
    times = tuple(tree.node(u).t for u in nodes)
    is_leaf = tuple(tree.node(u).is_leaf for u in nodes)
    d = problem.d
    upper = tuple(
        tuple(problem.upper[j].values[u] for u in nodes) for j in range(d)
    )
    xi = tuple(
        tuple(
            problem.terminal[u][j] if tree.node(u).is_leaf else 0.0
            for u in nodes
        )
        for j in range(d)
    )
    dv_out = tuple(
        tuple(problem.v[j].out_of(u) for u in nodes) for j in range(d)
    )
    costs = tuple(
        tuple(tuple(float(x) for x in row) for row in slab)
        for slab in problem.costs.values
    )
    return _SubtreeCtx(
        tree, problem, start, nodes, pos, children, probs, times, is_leaf,
        upper, xi, dv_out, costs,
    )


def _eval_strategy(
    ctx: _SubtreeCtx, modes: Sequence[int]
) -> tuple[list[float], list[float], list[float]]:
    """Backward solve of one strategy; returns (r, dm, dd) by position."""
    problem = ctx.problem
    dt = ctx.tree.dt
    costs = ctx.costs
    gens = problem.generators
    d = problem.d
    npos = len(ctx.nodes)
    r = [0.0] * npos
    dm = [0.0] * npos
    dd = [0.0] * npos
    for i in range(npos - 1, -1, -1):
        m = modes[i]
        if ctx.is_leaf[i]:
            r[i] = ctx.xi[m][i]
            continue
        t = ctx.times[i]
        kids = ctx.children[i]
        e = 0.0
        arrivals = []
        cost_row = costs[t + 1][m]
        for c, p in zip(kids, ctx.probs[i]):
            val = r[c]
            mc = modes[c]
            if mc != m:
                val -= cost_row[mc]
            arrivals.append(val)
            e += p * val
        f = gens[m]
        target = e + ctx.dv_out[m][i]

        def phi(y: float) -> float:
            return y - f(t, (y,) * d) * dt - target

        ystar = _root_find(phi, target, RESIDUAL_TOL)
        cap = ctx.upper[m][i]
        if ystar > cap:
            r[i] = cap
            push = max(0.0, -phi(cap))
        else:
            r[i] = ystar
            push = 0.0
        for c, arrive in zip(kids, arrivals):
            dd[c] = push
            dm[c] = arrive - e
    return r, dm, dd


def solve_for_strategy(
    problem: ObliqueProblem, strategy: SwitchingStrategy
) -> StrategyValue:
    """Value of one fixed strategy, reflected below its mode's upper cap.

    Requires the cost-form obstacle and generators depending only on their
    own component (both validated).
    """
    _require_cost_form(problem)
    ctx = _subtree_ctx(problem, strategy.start)
    modes = [strategy.modes[u] for u in ctx.nodes]
    r, dm, dd = _eval_strategy(ctx, modes)
    to_node = ctx.nodes
    return StrategyValue(
        r={to_node[i]: r[i] for i in range(len(to_node))},
        m_increments={
            to_node[i]: dm[i] for i in range(len(to_node)) if to_node[i] != strategy.start
        },
        d_increments={
            to_node[i]: dd[i] for i in range(len(to_node)) if to_node[i] != strategy.start
        },
    )


def _check_cap(problem: ObliqueProblem, start: int, cap: int) -> tuple[int, ...]:
    nodes = problem.tree.subtree(start)
    if problem.d ** len(nodes) > cap:
        raise EnumerationCapError(
            f"{problem.d}^{len(nodes)} strategies exceed cap {cap}"
        )
    return nodes


def iter_strategies(
    problem: ObliqueProblem, start: int, start_mode: int, cap: int = 10**6
) -> Iterator[SwitchingStrategy]:
    """Lazily yield every strategy with the fixed start, in lexicographic
    order of the node-id-ordered mode vector."""
    nodes = _check_cap(problem, start, cap)
    free = [u for u in nodes if u != start]
    for assignment in itertools.product(range(problem.d), repeat=len(free)):
        modes = dict(zip(free, assignment))
        modes[start] = start_mode
        yield SwitchingStrategy(problem.tree, start, start_mode, modes)


def enumerate_strategies(
    problem: ObliqueProblem, start: int, start_mode: int, cap: int = 10**6
) -> list[SwitchingStrategy]:
    """Exhaustive list of adapted mode assignments with the fixed start."""
    return list(iter_strategies(problem, start, start_mode, cap))


def brute_force_value(
    problem: ObliqueProblem, start: int, start_mode: int, cap: int = 10**6
) -> tuple[float, SwitchingStrategy]:
    """Max start value over every strategy, by exhaustive enumeration.

    Ties resolve to the lexicographically smallest mode vector (the
    enumeration order), deterministically.
    """
    _require_cost_form(problem)
    nodes = _check_cap(problem, start, cap)
    ctx = _subtree_ctx(problem, start)
    start_pos = ctx.pos[start]
    free_pos = [i for i, u in enumerate(nodes) if u != start]
    modes = [start_mode] * len(nodes)
    best = -math.inf
    best_assignment: tuple[int, ...] | None = None
    for assignment in itertools.product(range(problem.d), repeat=len(free_pos)):
        for i, m in zip(free_pos, assignment):
            modes[i] = m
        r, _, _ = _eval_strategy(ctx, modes)
        if r[start_pos] > best:
            best = r[start_pos]
            best_assignment = assignment
    mapping = dict(zip([nodes[i] for i in free_pos], best_assignment))
    mapping[start] = start_mode
    return best, SwitchingStrategy(problem.tree, start, start_mode, mapping)


def construct_optimal_strategy(
    problem: ObliqueProblem,
    solution: SystemSolution,
    start: int,
    start_mode: int,
    tol: float = BINDING_TOL,
) -> SwitchingStrategy:
    """Greedy strategy read off a solved system.

    Walk the subtree forward; in mode m, switch at the first node where the
    obstacle binds (Y^m = H^m(Y) within tol), to the smallest index k with
    Y^m = Y^k - c[m][k](t) (the only tie-break).  No switch happens at the
    start node itself (the start mode is pinned), and at most one switch
    happens per node.  The resulting value matches the enumeration maximum;
    it matches Y^start_mode(start) exactly when no K-push leaves the start.
    """
    _require_cost_form(problem)
    tree = problem.tree
    costs = problem.costs
    modes: dict[int, int] = {start: start_mode}
    for u in tree.subtree(start):
        if u == start:
            continue
        n = tree.node(u)
        m = modes[n.parent]
        yv = solution.y_vector(u)
        h = problem.H(n.t, yv)
        if abs(yv[m] - h[m]) <= tol:
            target = None
            for k in range(problem.d):
                if k != m and abs(yv[m] - (yv[k] - costs.at(n.t, m, k))) <= tol:
                    target = k
                    break
            if target is None:
                raise InternalConsistencyError(
                    f"obstacle binds at node {n.node_id} in mode {m} but no "
                    "attaining index found",
                    n.node_id,
                )
            modes[u] = target
        else:
            modes[u] = m
    return SwitchingStrategy(tree, start, start_mode, modes)


@dataclass(frozen=True)
class SwitchedMartingaleReport:
    worst: float
    violations: tuple[Violation, ...]

    def ok(self, tol: float = 1e-12) -> bool:
        return self.worst <= tol


def check_switched_martingale(
    problem: ObliqueProblem,
    solution: SystemSolution,
    strategy: SwitchingStrategy,
    tol: float = 1e-12,
) -> SwitchedMartingaleReport:
    """Concatenate mode-m martingale increments along the strategy and check
    E[dM | parent] = 0 at every subtree node."""
    tree = problem.tree
    worst = 0.0
    violations: list[Violation] = []
    for u in tree.subtree(strategy.start):
        n = tree.node(u)
        if n.is_leaf:
            continue
        m = strategy.modes[u]
        acc = math.fsum(
            tree.node(c).prob * solution.m_increments[m][c] for c in n.children
        )
        worst = max(worst, abs(acc))
        if abs(acc) > tol:
            violations.append(
                Violation(
                    "switched-martingale",
                    f"E[dM | parent] = {acc:.3g}",
                    n.node_id, n.t, m,
                )
            )
    return SwitchedMartingaleReport(worst=worst, violations=tuple(violations))


def worst_case_switching_cost(problem: ObliqueProblem, start: int | None = None) -> float:
    """Largest total cost any strategy could pay: the per-step maximal cost
    summed over the remaining steps.  Purely diagnostic; summability is
    automatic on a finite tree."""
    if problem.costs is None:
        raise ValueError("diagnostic requires the cost-matrix obstacle form")
    tree = problem.tree
    t0 = tree.node(tree.root if start is None else start).t
    d = problem.d
    return math.fsum(
        max(
            problem.costs.at(t, j, k)
            for j in range(d)
            for k in range(d)
            if j != k
        )
        for t in range(t0 + 1, tree.n_steps + 1)
    )


def unconstrained_start_value(
    problem: ObliqueProblem,
    solution: SystemSolution,
    start: int,
    mode: int,
) -> float:
    """Start-node step of mode `mode` with the lower reflection dropped.

    This is what strategy enumeration can reach from a pinned start: the
    system value minus any K-push at the start node.  Equals Y^mode(start)
    whenever the obstacle push is inactive there.
    """
    tree = problem.tree
    n = tree.node(start)
    if n.is_leaf:
        return problem.terminal[start][mode]
    e = math.fsum(
        tree.node(c).prob * solution.y[mode].values[c] for c in n.children
    )
    f = problem.generators[mode]
    d = problem.d
    dt = tree.dt
    target = e + problem.v[mode].out_of(start)
    ystar = _root_find(
        lambda y: y - f(n.t, (y,) * d) * dt - target, target, RESIDUAL_TOL
    )
    return min(problem.upper[mode].values[start], ystar)
