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

Strategies are solved in chunks, as arrays: ``_eval_strategy`` walks a
chunk's mode matrix backward, groups the chunk by mode at each parent and
finds each group's roots with one :func:`orbsde.scalar._root_find_batch`,
which gives the scalar finder's roots bit for bit.  A generator that the
oracle evaluates is therefore called with a d-tuple of equal float64 arrays
and must return an array of their shape or a scalar.

The oracle needs the cost-form obstacle and generators that ignore the
other modes' components; :func:`decoupling_violations` reads the latter
off the validator's probe table at every time index.  A start node with n
nodes in its subtree has d^(n-1) strategies (the start mode is pinned),
and the enumerations refuse a count above their cap.

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
from typing import Iterator, Mapping

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
    _binding_graph,
    _generator_probes,
    _probe_box,
)
from .scalar import PROBE_TOL, RESIDUAL_TOL, _root_find, _root_find_batch
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
    """Probe that each f^j ignores the off-diagonal components at every
    time index: on the validator's probe table, each line with another
    component moved must be finite and constant within ``PROBE_TOL``."""
    out: list[Violation] = []
    grid, d = _probe_box(problem), problem.d
    for j, f in enumerate(problem.generators):
        for t in range(problem.tree.n_steps):
            moved = _generator_probes(f, t, grid, d, j)[:d]
            coupled = [k for k, (values, bad, _) in enumerate(moved) if k != j and (
                bad is not None or max(values) - min(values) > PROBE_TOL)]
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


# Strategies per _eval_strategy call in brute_force_value, set by peak RSS:
# the oracle's first numpy calls add about 0.35 MB to a process whatever the
# chunk, and its arrays about 0.15 MB more at 512, 0.4 MB at 1,024 and 2 MB
# at 4,096, while the per-chunk Python overhead shrinks as chunks grow.
_CHUNK = 512


@dataclass(frozen=True)
class _SubtreeCtx:
    """One subtree's data as the arrays the chunked strategy solve reads."""

    problem: ObliqueProblem
    nodes: tuple[int, ...]                  # ascending index order
    children: tuple[tuple[int, ...], ...]   # positions
    probs: tuple[tuple[float, ...], ...]
    times: tuple[int, ...]
    is_leaf: tuple[bool, ...]
    upper: np.ndarray                       # [mode, pos]
    xi: np.ndarray                          # [mode, pos], 0 off the leaves
    dv_out: np.ndarray                      # [mode, pos]
    costs: np.ndarray                       # [t, from, to], zero diagonal


def _subtree_ctx(problem: ObliqueProblem, start: int) -> _SubtreeCtx:
    tree = problem.tree
    nodes = tree.subtree(start)
    pos = {u: i for i, u in enumerate(nodes)}
    d = problem.d
    costs = np.array(problem.costs.values, dtype=np.float64)
    costs[:, range(d), range(d)] = 0.0
    return _SubtreeCtx(
        problem,
        nodes,
        tuple(tuple(pos[c] for c in tree.children(u)) for u in nodes),
        tuple(tuple(tree.node(c).prob for c in tree.children(u)) for u in nodes),
        tuple(tree.node(u).t for u in nodes),
        tuple(tree.node(u).is_leaf for u in nodes),
        np.array([[problem.upper[j].values[u] for u in nodes] for j in range(d)]),
        np.array([[problem.terminal[u][j] if tree.node(u).is_leaf else 0.0
                   for u in nodes] for j in range(d)]),
        np.array([[problem.v[j].out_of(u) for u in nodes] for j in range(d)]),
        costs,
    )


def _eval_strategy(
    ctx: _SubtreeCtx, modes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward solve of a chunk of strategies at once.

    ``modes[s, i]`` is strategy s's mode at position i.  At each parent the
    chunk is grouped by mode; each group's implicit steps are one
    :func:`_root_find_batch`, whose residual calls the mode's generator once
    with a d-tuple of equal arrays.  Returns (r, dm, dd), each indexed
    [strategy, position], equal bit for bit to solving each strategy alone.
    """
    gens = ctx.problem.generators
    d, dt = ctx.problem.d, ctx.problem.tree.dt
    cols = modes.T
    r, dm, dd = (np.zeros(cols.shape) for _ in range(3))
    for i in range(len(ctx.nodes) - 1, -1, -1):
        if ctx.is_leaf[i]:
            r[i] = ctx.xi[cols[i], i]
            continue
        t, kids = ctx.times[i], ctx.children[i]
        for m in range(d):
            sel = np.flatnonzero(cols[i] == m)
            if not sel.size:
                continue
            cost = ctx.costs[t + 1, m]
            arrivals = [r[c, sel] - cost[cols[c, sel]] for c in kids]
            e = np.zeros(sel.size)
            for p, arrive in zip(ctx.probs[i], arrivals):
                e += p * arrive
            target = e + ctx.dv_out[m, i]

            def phi(y, idx, f=gens[m]):
                return y - f(t, (y,) * d) * dt - target[idx]

            ystar = _root_find_batch(phi, target, RESIDUAL_TOL)
            cap = ctx.upper[m, i]
            over = np.flatnonzero(ystar > cap)
            ystar[over] = cap
            push = np.zeros(sel.size)
            if over.size:
                lack = -phi(np.full(over.size, cap), over)
                push[over] = np.where(lack > 0.0, lack, 0.0)
            r[i, sel] = ystar
            for c, arrive in zip(kids, arrivals):
                dd[c, sel] = push
                dm[c, sel] = arrive - e
    return r.T, dm.T, dd.T


def _mode_dtype(d: int) -> np.dtype:
    return np.min_scalar_type(d - 1)   # uint8 up to 256 modes


def solve_for_strategy(
    problem: ObliqueProblem, strategy: SwitchingStrategy
) -> StrategyValue:
    """Value of one fixed strategy, reflected below its mode's upper cap.

    Requires the cost-form obstacle and generators depending only on their
    own component (both validated).
    """
    _require_cost_form(problem)
    ctx = _subtree_ctx(problem, strategy.start)
    modes = np.array([[strategy.modes[u] for u in ctx.nodes]],
                     dtype=_mode_dtype(problem.d))
    r, dm, dd = (a[0].tolist() for a in _eval_strategy(ctx, modes))
    later = range(1, len(ctx.nodes))   # position 0 is the start
    return StrategyValue(
        r=dict(zip(ctx.nodes, r)),
        m_increments={ctx.nodes[i]: dm[i] for i in later},
        d_increments={ctx.nodes[i]: dd[i] for i in later},
    )


def _check_cap(problem: ObliqueProblem, start: int, cap: int) -> tuple[int, ...]:
    """The subtree of ``start``, if its d^(nodes - 1) strategies (the start
    mode is pinned) fit within ``cap``."""
    nodes = problem.tree.subtree(start)
    if problem.d ** (len(nodes) - 1) > cap:
        raise EnumerationCapError(
            f"{problem.d}^{len(nodes) - 1} strategies exceed cap {cap}"
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

    Strategy k of the enumeration order (:func:`iter_strategies`) has the
    base-d digits of k as the modes of the nodes after the start; chunks of
    ``_CHUNK`` consecutive strategies are solved at once.  Ties resolve to
    the first maximum in that order, deterministically, and a NaN start
    value never wins.
    """
    _require_cost_form(problem)
    nodes = _check_cap(problem, start, cap)
    ctx = _subtree_ctx(problem, start)
    d, free = problem.d, len(nodes) - 1
    total = d ** free
    place = d ** np.arange(free - 1, -1, -1)   # digit weights, start excluded
    best, best_k = -math.inf, None
    for first in range(0, total, _CHUNK):
        k = np.arange(first, min(first + _CHUNK, total))
        modes = np.empty((k.size, len(nodes)), dtype=_mode_dtype(d))
        modes[:, 0] = start_mode
        modes[:, 1:] = k[:, None] // place % d
        value = _eval_strategy(ctx, modes)[0][:, 0]
        top = int(np.argmax(np.where(np.isnan(value), -math.inf, value)))
        if value[top] > best:
            best, best_k = float(value[top]), first + top
    if best_k is None:
        raise ValueError("no strategy has a start value above -inf")
    mapping = dict(zip(nodes[1:], (best_k // place % d).tolist()))
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
    modes: dict[int, int] = {start: start_mode}
    for u in tree.subtree(start):
        if u == start:
            continue
        n = tree.node(u)
        m = modes[n.parent]
        yv = solution.y_vector(u)
        h = problem.H(n.t, yv)
        if abs(yv[m] - h[m]) <= tol:
            attaining = _binding_graph(problem.costs, n.t, yv, tol)[m]
            if not attaining:
                raise InternalConsistencyError(
                    f"obstacle binds at node {n.node_id} in mode {m} but no "
                    "attaining index found",
                    n.node_id,
                )
            modes[u] = attaining[0]
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
