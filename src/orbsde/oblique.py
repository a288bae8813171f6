"""Systems reflected obliquely from below and capped by an upper barrier.

Mode j of the system satisfies the scalar dynamics of :mod:`orbsde.scalar`
with lower barrier ``H^j(Y)``, a function of the *other* components, and
upper barrier ``U^j`` (:func:`mode_problem` is that scalar problem, the
other components frozen at a solution).  With the switching-cost obstacle

    H^j(t, y) = max over k != j of (y^k - c[j][k](t)),

strictly positive costs satisfying the triangle condition
``c[i][j] + c[j][k] > c[i][k]`` rule out binding cycles among modes, and on
a finite tree the Mokobodzki condition reduces to the pointwise inequality
``H(U) <= U`` (every adapted process is a difference of supermartingales
via the discrete Doob decomposition, so U itself is the witness).
:func:`validate_problem` checks these hypotheses, and probes every
generator at every time index before the horizon with ``scalar._probe``.

Two solvers share the scalar projection step ``scalar._project``, the
package's one backward walk ``scalar._backward_solve`` over the d modes,
and one start rule (``_node_start``): at each parent, the low corner of
the state box, lowered tenfold (at most seven times) until every mode's
upper-only step with the generator frozen there lies at or above it.
Each solver is the walk with its own step:

* :func:`solve_system` is the production path, the discretely reflected
  scheme of Chassagneux, Elie & Kharroubi.  Since Y_u depends on the tree
  only through the conditional expectations of its children, one walk
  suffices: its step solves the d-dimensional fixed point
  ``y_j = min(U_j, max(ystar_j(y), H^j(y)))`` at each parent by
  Gauss-Seidel rounds over the modes (``_node_rounds``), started from the
  node's start row.
* :func:`picard_solve` is the independent oracle: a monotone Picard
  iteration over the whole tree.  The subsolution and every sweep are one
  walk each with the frozen step (``_frozen_step``: every mode projected
  with the generator frozen at a row), frozen at the node's start row
  with no lower barrier for the subsolution, and at the previous sweep's
  row with lower barrier ``H(t, previous row)`` for a sweep.  By
  off-diagonal monotonicity every sweep rises, to the least solution; a
  sweep that decreases anywhere is a fault.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    InternalConsistencyError,
    InvalidProblemError,
    NonMonotoneSweepError,
    Violation,
)
from .scalar import ScalarRBSDEProblem, ScalarSolution, _backward_solve, _probe, _project
from .tree import AdaptedProcess, EventTree, Node, PredictableIncrements

__all__ = [
    "CostMatrix",
    "ObliqueProblem",
    "SystemSolution",
    "MinimalityReport",
    "evaluate_H",
    "mode_problem",
    "validate_problem",
    "build_subsolution",
    "solve_system",
    "picard_solve",
    "verify_minimality",
    "binding_graph_cycles",
]

VecGeneratorFn = Callable[[int, Sequence[float]], float]
ObstacleFn = Callable[[int, Sequence[float]], Sequence[float]]

BINDING_TOL = 1e-10


def _worse(worst: float, value: float) -> float:
    """The larger of two residuals, NaN if either is NaN (``max`` would
    drop a NaN that comes second)."""
    return value if value > worst or value != value else worst


class CostMatrix:
    """Switching costs per time index: values[t, j, k], zero diagonal."""

    def __init__(self, values: np.ndarray):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError("cost matrix must have shape (T+1, d, d)")
        arr = arr.copy()
        arr.flags.writeable = False
        self.values = arr
        self._rows = arr.tolist()   # the same costs as floats, for the obstacle

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def n_steps(self) -> int:
        return self.values.shape[0] - 1

    def at(self, t: int, j: int, k: int) -> float:
        return float(self.values[t, j, k])

    @classmethod
    def constant(cls, n_steps: int, costs: Sequence[Sequence[float]]) -> "CostMatrix":
        base = np.asarray(costs, dtype=float)
        return cls(np.repeat(base[None, :, :], n_steps + 1, axis=0))

    def validate(self) -> list[Violation]:
        bad = np.argwhere(~np.isfinite(self.values))
        if bad.size:
            return [
                Violation("non-finite", f"c[{j}][{k}] = {self.values[t, j, k]}",
                          time_index=int(t), mode=int(j))
                for t, j, k in bad
            ]
        out: list[Violation] = []
        T, d, _ = self.values.shape
        for t in range(T):
            c = self.values[t]
            for j in range(d):
                if c[j, j] != 0.0:
                    out.append(
                        Violation("cost-diagonal", f"c[{j}][{j}] = {c[j, j]} != 0",
                                  time_index=t)
                    )
                for k in range(d):
                    if j != k and not c[j, k] > 0.0:
                        out.append(
                            Violation(
                                "cost-positivity",
                                f"c[{j}][{k}] = {c[j, k]} not positive",
                                time_index=t,
                            )
                        )
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        if len({i, j, k}) == 3 and not c[i, j] + c[j, k] > c[i, k]:
                            out.append(
                                Violation(
                                    "cost-triangle",
                                    f"c[{i}][{j}] + c[{j}][{k}] = "
                                    f"{c[i, j] + c[j, k]} <= c[{i}][{k}] = {c[i, k]}",
                                    time_index=t,
                                )
                            )
        return out


def _cost_entry(costs: CostMatrix, t: int, y: Sequence[float], j: int) -> float:
    """``H^j(t, y) = max over k != j of (y^k - c[j][k](t))``, the one entry
    formula of the switching-cost obstacle."""
    c = costs._rows[t][j]
    return max(float(y[k] - c[k]) for k in range(len(c)) if k != j)


def evaluate_H(costs: CostMatrix, t: int, y: Sequence[float]) -> tuple[float, ...]:
    """Obstacle vector H^j = max over k != j of (y^k - c[j][k](t)).

    Independent of y^j and nondecreasing in every component of y.
    """
    return tuple(_cost_entry(costs, t, y, j) for j in range(costs.d))


def _binding_graph(
    costs: CostMatrix, t: int, y: Sequence[float], tol: float
) -> list[list[int]]:
    """Row j lists the modes k != j, ascending, whose switching obstacle
    binds mode j: ``|y^j - (y^k - c[j][k](t))| <= tol``."""
    d = costs.d
    return [[k for k in range(d)
             if k != j and abs(y[j] - (y[k] - costs.at(t, j, k))) <= tol]
            for j in range(d)]


@dataclass(frozen=True)
class ObliqueProblem:
    """Terminal vector, generator family, drifts, upper barriers, obstacle.

    ``terminal`` maps leaf index -> d-vector.  Each ``generators[j]`` takes
    (time index, full y vector).  The obstacle is the switching-cost form
    when ``costs`` is given; a general increasing continuous obstacle may be
    supplied instead via ``obstacle`` (existence-mode solves only: the
    switching layer and its oracles require the cost form).
    """

    tree: EventTree
    d: int
    terminal: Mapping[int, tuple[float, ...]]
    generators: tuple[VecGeneratorFn, ...]
    v: tuple[PredictableIncrements, ...]
    upper: tuple[AdaptedProcess, ...]
    costs: CostMatrix | None = None
    obstacle: ObstacleFn | None = None

    def __post_init__(self):
        if (self.costs is None) == (self.obstacle is None):
            raise ValueError("supply exactly one of costs / obstacle")

    def H(self, t: int, y: Sequence[float]) -> tuple[float, ...]:
        if self.costs is not None:
            return evaluate_H(self.costs, t, y)
        return tuple(self.obstacle(t, y))


Row = tuple[float, ...]


def _probe_box(problem: ObliqueProblem) -> list[float]:
    vals: list[float] = []
    for vec in problem.terminal.values():
        vals.extend(vec)
    for j in range(problem.d):
        vals.extend(problem.upper[j].values)
    lo, hi = min(vals), max(vals)
    pad = 1.0 + 0.5 * (hi - lo)
    return [lo - pad, lo, 0.5 * (lo + hi), hi, hi + pad]


def _non_finite_data(problem: ObliqueProblem) -> list[Violation]:
    """The step length, upper barriers, terminal entries and v increments
    that are NaN or infinite; a v increment is reported at the node that
    decides it."""
    if not math.isfinite(problem.tree.dt):
        return [Violation("non-finite", f"dt = {problem.tree.dt}")]
    columns = [*(u.values for u in problem.upper), *(v.values for v in problem.v),
               *problem.terminal.values()]
    if all(all(map(math.isfinite, col)) for col in columns):
        return []
    out: list[Violation] = []
    for n in problem.tree.nodes:
        xi = problem.terminal.get(n.index, ()) if n.is_leaf else ()
        for j in range(problem.d):
            data = [("U", problem.upper[j].values[n.index])]
            if n.children:
                data.append(("dV", problem.v[j].out_of(n.index)))
            if j < len(xi):
                data.append(("xi", xi[j]))
            out.extend(
                Violation("non-finite", f"{name}^{j} = {val}", n.node_id, n.t, j)
                for name, val in data
                if not math.isfinite(val)
            )
    return out


CONTINUITY_STEP = 1e-7


def _generator_probes(
    f: VecGeneratorFn, t: int, grid: Sequence[float], d: int, j: int
) -> list[tuple]:
    """The ``scalar._probe`` lines of f = f^j at time t: line k < d moves
    component k over ``grid`` from the grid midpoint, with the pairs where
    f rises in y^j or falls in another y^k; line d runs along the diagonal
    at each grid point and ``CONTINUITY_STEP`` above it."""
    mid = grid[2]
    lines = [
        _probe(lambda y, k=k: f(t, [mid] * k + [y] + [mid] * (d - 1 - k)), grid,
               1.0 if k == j else -1.0)
        for k in range(d)
    ]
    steps = [y for y0 in grid for y in (y0, y0 + CONTINUITY_STEP)]
    return lines + [_probe(lambda y: f(t, [y] * d), steps)]


def validate_problem(problem: ObliqueProblem) -> list[Violation]:
    """All structural hypotheses, reported with node/time coordinates.

    Checks the dimensions (terminal vectors included), that dt, costs,
    upper barriers, terminals and v increments are finite, cost positivity
    and the triangle condition, the Mokobodzki inequality H(U) <= U at
    every node, the terminal sandwich H_T(xi) <= xi <= U_T at every leaf,
    and, at every time index before the horizon, that the generators are
    finite at the probe points, with finite-difference spot-checks of their
    monotonicity directions (decreasing in the own component,
    nondecreasing in the others) and continuity.  Non-finite data stop the
    report before the Mokobodzki check, and non-finite generator values
    before the monotonicity probes: NaN would silently pass the
    comparisons of either.
    """
    out: list[Violation] = []
    tree = problem.tree
    d = problem.d
    if d < 2:
        out.append(Violation("dimension", f"need d >= 2 modes, got {d}"))
        return out
    if len(problem.generators) != d or len(problem.upper) != d or len(problem.v) != d:
        out.append(Violation("dimension", "per-mode field lengths disagree with d"))
        return out
    for leaf in tree.leaves:
        xi = problem.terminal.get(leaf)
        if xi is not None and len(xi) != d:
            out.append(Violation("dimension", f"terminal vector has {len(xi)} "
                                 f"entries, need {d}", tree.node(leaf).node_id,
                                 tree.n_steps))
    if out:
        return out
    if problem.costs is not None:
        if problem.costs.d != d:
            out.append(Violation("dimension", "cost matrix dimension mismatch"))
            return out
        if problem.costs.n_steps != tree.n_steps:
            out.append(Violation("dimension", "cost matrix horizon mismatch"))
            return out
        out.extend(problem.costs.validate())

    out.extend(_non_finite_data(problem))
    if any(v.code == "non-finite" for v in out):
        return out
    for n in tree.nodes:  # Mokobodzki, with U itself the witness X
        u_vec = tuple(problem.upper[j].values[n.index] for j in range(d))
        out.extend(
            Violation("mokobodzki", f"H^{j}(U) = {h:.17g} > X^{j} = {u:.17g}",
                      n.node_id, n.t, j)
            for j, (h, u) in enumerate(zip(problem.H(n.t, u_vec), u_vec))
            if h > u + 1e-12
        )

    for leaf in tree.leaves:
        if leaf not in problem.terminal:
            out.append(
                Violation("terminal", "missing terminal vector",
                          tree.node(leaf).node_id)
            )
            continue
        xi = problem.terminal[leaf]
        h_xi = problem.H(tree.n_steps, xi)
        for j in range(d):
            uj = problem.upper[j].values[leaf]
            if h_xi[j] > xi[j] + 1e-12:
                out.append(
                    Violation(
                        "terminal-sandwich",
                        f"H^{j}_T(xi) = {h_xi[j]:.17g} > xi^{j} = {xi[j]:.17g}",
                        tree.node(leaf).node_id, tree.n_steps, j,
                    )
                )
            if xi[j] > uj + 1e-12:
                out.append(
                    Violation(
                        "terminal-sandwich",
                        f"xi^{j} = {xi[j]:.17g} > U^{j}_T = {uj:.17g}",
                        tree.node(leaf).node_id, tree.n_steps, j,
                    )
                )

    grid = _probe_box(problem)
    probes = {
        (j, t): _generator_probes(f, t, grid, d, j)
        for j, f in enumerate(problem.generators)
        for t in range(tree.n_steps)
    }
    non_finite: list[Violation] = []
    for (j, t), lines in probes.items():
        bad = [b for _, b, _ in lines if b is not None]
        if bad:
            non_finite.append(Violation("non-finite", f"f^{j} = {bad[0]} at a probe point",
                                        time_index=t, mode=j))
    if non_finite:
        return out + non_finite
    for (j, t), (*moved, (diagonal, _, _)) in probes.items():
        for k, (_, _, against) in enumerate(moved):
            code, how = (
                ("generator-on-diagonal", "increases in its own component")
                if k == j else
                ("generator-off-diagonal", f"decreases in component {k}")
            )
            out.extend(Violation(code, f"f^{j} {how} between {lo_y} and {hi_y}",
                                 time_index=t, mode=j) for lo_y, hi_y in against)
        out.extend(
            Violation("generator-continuity", f"f^{j} jumps by {abs(above - at):.3g} "
                      f"over step {CONTINUITY_STEP} near {y0}", time_index=t, mode=j)
            for y0, at, above in zip(grid, diagonal[0::2], diagonal[1::2])
            if abs(above - at) > 1.0
        )
    return out


# the start rule: the corner, then lowered tenfold at most seven times
_CORNER_DROPS = tuple(10.0**attempt - 1.0 for attempt in range(8))


def _residual(
    problem: ObliqueProblem, t: int, target: float, j: int, row: Row
) -> Callable[[float], float]:
    """``c -> c - f^j(t, row with c in slot j) dt - target``."""
    f, dt = problem.generators[j], problem.tree.dt
    head, tail = row[:j], row[j + 1:]
    return lambda c: c - f(t, head + (c,) + tail) * dt - target


def _node_start(
    problem: ObliqueProblem,
    node: Node,
    targets: Sequence[float],
    corner: Row,
) -> Row:
    """The first lowered corner at which each mode's upper-only step with
    the generator frozen there lies at or above it (the corner lies below
    U, so this makes it a subsolution of the node's obstacle-free map)."""
    for drop in _CORNER_DROPS:
        low = tuple(c - drop for c in corner)
        if all(
            _residual(problem, node.t, targets[j], j, low)(low[j]) <= 0.0
            for j in range(problem.d)
        ):
            return low
    raise NonMonotoneSweepError(
        f"node {node.node_id} (t={node.t}): below every corner tried "
        f"(lowered by up to {_CORNER_DROPS[-1]:g})"
    )


def _frozen_step(
    problem: ObliqueProblem,
    node: Node,
    targets: Sequence[float],
    row: Row,
    lower: Row | None,
) -> tuple[Row, list[tuple[float, float]]]:
    """Every mode's step with the generator frozen at ``row``, projected
    into [``lower[j]``, U^j] (no lower barrier when ``lower`` is None).
    Within the step the modes are independent, as in a Jacobi sweep."""
    steps = [
        _project(_residual(problem, node.t, targets[j], j, row), targets[j],
                 lower[j] if lower is not None else None,
                 problem.upper[j].values[node.index])
        for j in range(problem.d)
    ]
    return tuple(val for val, _, _ in steps), [(dk, da) for _, dk, da in steps]


def _walk_from_starts(
    problem: ObliqueProblem, step: Callable[[Node, list[float], Row], tuple]
) -> tuple[Row, tuple[ScalarSolution, ...]]:
    """The backward walk with the start rule: the corner (1 below xi, H(U)
    and U) computed once, and at each parent ``step(node, targets, start)``
    run from the :func:`_node_start` row.  Returns (the lowest start any
    node took, one ScalarSolution per mode)."""
    u_rows = zip(*(u.values for u in problem.upper))
    h_u = [problem.H(n.t, row) for n, row in zip(problem.tree.nodes, u_rows)]
    corner = tuple(
        min(*(xi[j] for xi in problem.terminal.values()), *problem.upper[j].values,
            *(h[j] for h in h_u)) - 1.0
        for j in range(problem.d)
    )
    lowest = [corner]

    def started(node: Node, targets: list[float]):
        start = _node_start(problem, node, targets, corner)
        lowest[0] = min(lowest[0], start)  # every start is the corner less one drop
        return step(node, targets, start)

    parts = _backward_solve(problem.tree, problem.terminal, problem.v, started)
    return lowest[0], parts


def build_subsolution(
    problem: ObliqueProblem,
) -> tuple[Row, tuple[ScalarSolution, ...]]:
    """Per-mode upper-barrier solves with each generator frozen at the
    node's :func:`_node_start` row, which the node's value lies at or above:
    a subsolution from which, by off-diagonal monotonicity, every Picard
    sweep rises.  Returns (the lowest start row, one ScalarSolution per
    mode with K identically zero).
    """
    return _walk_from_starts(
        problem,
        lambda node, targets, start: _frozen_step(problem, node, targets, start, None),
    )


def _check_budget(tol: float, budget: int) -> None:
    """Reject a budget that runs no sweep and a tolerance never met."""
    if not budget >= 1 or not tol >= 0.0:
        raise ValueError(f"the sweep budget must be >= 1 and the tolerance "
                         f"a number >= 0, got {budget} and {tol}")


@dataclass(frozen=True)
class SystemSolution:
    """Per-mode (Y, dM, K, A) plus the iteration log."""

    y: tuple[AdaptedProcess, ...]
    m_increments: tuple[tuple[float, ...], ...]
    k: tuple[PredictableIncrements, ...]
    a: tuple[PredictableIncrements, ...]
    sweeps: int
    deltas: tuple[float, ...]
    corner: tuple[float, ...] = ()
    history: tuple | None = None

    @classmethod
    def from_parts(cls, parts: Sequence[ScalarSolution], **log) -> "SystemSolution":
        """The system assembled from one ScalarSolution per mode."""
        return cls(
            y=tuple(p.y for p in parts),
            m_increments=tuple(p.m_increments for p in parts),
            k=tuple(p.k for p in parts),
            a=tuple(p.a for p in parts),
            **log,
        )

    def y_vector(self, u: int) -> tuple[float, ...]:
        return tuple(yj.values[u] for yj in self.y)

    def rows(self) -> list[Row]:
        """The vector Y_u at every node u, in index order."""
        return list(zip(*(yj.values for yj in self.y)))


def picard_solve(
    problem: ObliqueProblem,
    tol: float = 1e-10,
    max_sweeps: int = 200,
    record_history: bool = False,
) -> SystemSolution:
    """Monotone iteration of frozen two-barrier walks; the independent
    oracle for :func:`solve_system`.

    Starts from :func:`build_subsolution`.  Sweep n is one backward walk
    whose step projects every mode j, with generator
    ``c -> f^j(t, Y_prev; c)``, into [``H^j(t, Y_prev)``, ``U^j``]: the
    modes stay independent within a sweep (Jacobi).  Stops when the
    sup-norm delta over nodes and modes drops to ``tol``.  Raises
    NonMonotoneSweepError if a node is below every corner or a sweep
    decreases somewhere, ConvergenceError if the sweep budget runs out.
    """
    _check_budget(tol, max_sweeps)
    report = validate_problem(problem)
    if report:
        raise InvalidProblemError(report)
    tree = problem.tree
    d = problem.d
    corner, parts = build_subsolution(problem)
    prev = [tuple(p.y.values) for p in parts]
    deltas: list[float] = []
    history: list[tuple] = []
    for sweep in range(1, max_sweeps + 1):
        prev_rows = list(zip(*prev))

        def sweep_step(node: Node, targets: list[float]):
            row = prev_rows[node.index]
            return _frozen_step(problem, node, targets, row, problem.H(node.t, row))

        new_solutions = _backward_solve(tree, problem.terminal, problem.v, sweep_step)
        delta = 0.0
        rise_floor = 0.0
        scale = 1.0
        for j in range(d):
            for u in range(tree.n_nodes):
                diff = new_solutions[j].y.values[u] - prev[j][u]
                delta = max(delta, abs(diff))
                rise_floor = min(rise_floor, diff)
                scale = max(scale, abs(prev[j][u]))
        # absolute slack at desk scale; relative term only guards against
        # root-finder ulp noise when a deep corner inflates the iterates
        if rise_floor < -max(1e-12, 1e-13 * scale):
            raise NonMonotoneSweepError(
                f"sweep {sweep} decreased by {-rise_floor:.3g}"
            )
        deltas.append(delta)
        if record_history:
            history.append((tuple(s.y.values for s in new_solutions),
                            tuple(s.a.values for s in new_solutions)))
        solutions = new_solutions
        prev = [tuple(s.y.values) for s in solutions]
        if delta <= tol:
            result = SystemSolution.from_parts(
                solutions,
                sweeps=sweep,
                deltas=tuple(deltas),
                corner=corner,
                history=tuple(history) if record_history else None,
            )
            _require_acyclic(problem, result)
            return result
    raise ConvergenceError(
        f"delta {deltas[-1]:.3g} > tol {tol:g} after {max_sweeps} sweeps"
    )


def solve_system(
    problem: ObliqueProblem, tol: float = 1e-10, max_rounds: int = 200
) -> SystemSolution:
    """One backward pass with a projected fixed point at every parent.

    At a parent u with ``target_j = E[Y^j_{t+1} | u] + dV^j`` the node
    value is the least solution of ``y_j = min(U_j, max(ystar_j(y), H^j(y)))``,
    where ``ystar_j(y)`` is the implicit root of
    ``c - f^j(t, y with c in slot j) dt = target_j``.  The map is
    nondecreasing in y, so Gauss-Seidel rounds (the modes in order, with the
    obstacle and the generator at the current row) rise to the least fixed
    point from a start that is a subsolution of the node's obstacle-free
    map ``y_j -> min(U_j, ystar_j(y))``: when that map is a contraction (as
    Lipschitz generators make it for small dt), such a start lies below its
    fixed point and hence below the solution.  From above, the rounds could
    stop at a larger fixed point of a zero-cost obstacle cycle or creep
    down by twice the smallest cost per round.

    The start is the :func:`_node_start` row.  A round that still lowers a
    component, or a node below every corner tried, raises
    NonMonotoneSweepError naming the node.  A node is done when a round
    changes no component by more than ``tol``; ``ConvergenceError`` names
    the node when ``max_rounds`` rounds are not enough.

    ``sweeps`` is the largest round count over the nodes and ``deltas``
    holds the largest final-round change; there is no history.
    """
    _check_budget(tol, max_rounds)
    report = validate_problem(problem)
    if report:
        raise InvalidProblemError(report)
    stats: list[tuple[int, float]] = []

    def rounds(node: Node, targets: list[float], start: Row):
        row, pushes, note = _node_rounds(problem, node, targets, start, tol, max_rounds)
        stats.append(note)
        return row, pushes

    corner, parts = _walk_from_starts(problem, rounds)
    result = SystemSolution.from_parts(
        parts,
        sweeps=max((rounds for rounds, _ in stats), default=0),
        deltas=(functools.reduce(_worse, (change for _, change in stats), 0.0),),
        corner=corner,
    )
    _require_acyclic(problem, result)
    return result


def _obstacle_entry(problem: ObliqueProblem, t: int, row: Row, j: int) -> float:
    """``H^j(t, row)``, the one entry of the obstacle that mode j's step
    uses; the cost form computes only that entry."""
    if problem.costs is None:
        return problem.H(t, row)[j]
    return _cost_entry(problem.costs, t, row, j)


def mode_problem(
    problem: ObliqueProblem, solution: SystemSolution, j: int
) -> ScalarRBSDEProblem:
    """Mode j of the system as one scalar reflected problem, the other
    components frozen at ``solution``: terminal column j, the node generator
    ``c -> f^j(t_u, Y_u with c in slot j)``, drift ``v[j]``, lower barrier
    ``H^j(t_u, Y_u)`` and upper barrier ``U^j``.  On a solution of the
    system, its two-barrier solve gives back ``solution.y[j]``.
    """
    tree, f = problem.tree, problem.generators[j]
    rows = solution.rows()

    def generator(node: Node, c: float) -> float:
        row = rows[node.index]
        return f(node.t, row[:j] + (c,) + row[j + 1:])

    lower = [_obstacle_entry(problem, n.t, rows[n.index], j) for n in tree.nodes]
    return ScalarRBSDEProblem(
        tree=tree,
        terminal={leaf: problem.terminal[leaf][j] for leaf in tree.leaves},
        generator=generator,
        v_increments=problem.v[j],
        lower=AdaptedProcess(tree, tuple(lower)),
        upper=problem.upper[j],
    )


def _node_rounds(
    problem: ObliqueProblem,
    node: Node,
    targets: Sequence[float],
    row: Row,
    tol: float,
    max_rounds: int,
) -> tuple[Row, list[tuple[float, float]], tuple[int, float]]:
    """Gauss-Seidel rounds at one parent from the subsolution ``row``.

    Returns (row, (dK, dA) per mode, (rounds, final-round change)).
    """
    t = node.t
    upper = [u.values[node.index] for u in problem.upper]
    pushes = [(0.0, 0.0)] * problem.d
    for rounds in range(1, max_rounds + 1):
        change = 0.0
        for j in range(problem.d):
            val, dk, da = _project(
                _residual(problem, t, targets[j], j, row), targets[j],
                _obstacle_entry(problem, t, row, j), upper[j],
            )
            rise = val - row[j]
            # the slack of picard_solve's monotonicity check
            if rise < -max(1e-12, 1e-13 * abs(row[j])):
                raise NonMonotoneSweepError(
                    f"node {node.node_id} (t={t}): round {rounds} lowered "
                    f"mode {j} by {-rise:.3g}"
                )
            change = _worse(change, abs(rise))
            row = row[:j] + (val,) + row[j + 1:]
            pushes[j] = (dk, da)
        if change <= tol:
            return row, pushes, (rounds, change)
    raise ConvergenceError(
        f"node {node.node_id} (t={t}): round change {change:.3g} > "
        f"tol {tol:g} after {max_rounds} rounds"
    )


def _require_acyclic(problem: ObliqueProblem, solution: SystemSolution) -> None:
    """Triangle-valid costs rule out binding cycles; one is a solver fault."""
    if problem.costs is None:
        return
    cycles = binding_graph_cycles(problem, solution)
    if cycles:
        node_id, modes = cycles[0]
        raise InternalConsistencyError(
            f"binding cycle among modes {list(modes)} at node {node_id} "
            "despite triangle-valid costs",
            node_id,
        )


def binding_graph_cycles(
    problem: ObliqueProblem, solution: SystemSolution, tol: float = BINDING_TOL
) -> list[tuple[str, tuple[int, ...]]]:
    """Cycles j1 -> j2 -> ... -> j1 of binding obstacle equalities per node.

    Edge j -> k present when Y^j = Y^k - c[j][k](t) within tol.  Triangle
    costs make these graphs acyclic at every node of a true solution.
    """
    assert problem.costs is not None
    out: list[tuple[str, tuple[int, ...]]] = []
    d = problem.d
    for n in problem.tree.nodes:
        yv = solution.y_vector(n.index)
        adj = _binding_graph(problem.costs, n.t, yv, tol)
        color = [0] * d
        stack: list[int] = []

        def dfs(j: int) -> tuple[int, ...] | None:
            color[j] = 1
            stack.append(j)
            for k in adj[j]:
                if color[k] == 1:
                    return tuple(stack[stack.index(k):])
                if color[k] == 0:
                    res = dfs(k)
                    if res:
                        return res
            stack.pop()
            color[j] = 2
            return None

        for j in range(d):
            if color[j] == 0:
                cyc = dfs(j)
                if cyc:
                    out.append((n.node_id, cyc))
                    break
    return out


@dataclass(frozen=True)
class MinimalityReport:
    """Worst recomputed residuals of every solution-defining property."""

    worst_identity: float
    worst_martingale: float
    worst_sandwich_lower: float
    worst_sandwich_upper: float
    worst_flat_off_lower: float
    worst_flat_off_upper: float
    worst_negative_increment: float
    binding_cycles: tuple[tuple[str, tuple[int, ...]], ...]
    violations: tuple[Violation, ...]

    @property
    def worst_residual(self) -> float:
        """The largest residual; NaN if any of them is NaN."""
        return functools.reduce(_worse, (
            self.worst_identity,
            self.worst_martingale,
            self.worst_sandwich_lower,
            self.worst_sandwich_upper,
            self.worst_flat_off_lower,
            self.worst_flat_off_upper,
            self.worst_negative_increment,
        ))

    def ok(self, tol: float = BINDING_TOL) -> bool:
        return self.worst_residual <= tol and not self.binding_cycles

    def as_dict(self) -> dict:
        return {
            "worst_identity": self.worst_identity,
            "worst_martingale": self.worst_martingale,
            "worst_sandwich_lower": self.worst_sandwich_lower,
            "worst_sandwich_upper": self.worst_sandwich_upper,
            "worst_flat_off_lower": self.worst_flat_off_lower,
            "worst_flat_off_upper": self.worst_flat_off_upper,
            "worst_negative_increment": self.worst_negative_increment,
            "worst_residual": self.worst_residual,
            "binding_cycles": [
                {"node_id": nid, "modes": list(cyc)}
                for nid, cyc in self.binding_cycles
            ],
            "violations": [v.as_dict() for v in self.violations],
        }


def verify_minimality(
    problem: ObliqueProblem,
    solution: SystemSolution,
    tol: float = BINDING_TOL,
) -> MinimalityReport:
    """Recompute every defining property of a system solution.

    Diagnostic: reports worst residuals for the backward identity (with the
    generator at the full current vector), the martingale property of dM,
    the obstacle sandwich H(Y) <= Y <= U, both flat-off products, increment
    nonnegativity, and the binding-cycle check.  Works on externally
    supplied solutions as well as solver output.  A NaN anywhere makes its
    residual NaN, which fails every tolerance and is reported.
    """
    tree = problem.tree
    d = problem.d
    dt = tree.dt
    worst_id = worst_mart = 0.0
    worst_sl = worst_su = 0.0
    worst_fl = worst_fu = 0.0
    worst_neg = 0.0
    violations: list[Violation] = []

    def note(code: str, msg: str, n: Node, j: int, value: float, bound: float):
        if not value <= bound:
            violations.append(Violation(code, msg, n.node_id, n.t, j))

    for n in tree.nodes:
        yv = solution.y_vector(n.index)
        h = problem.H(n.t, yv)
        for j in range(d):
            yj = solution.y[j].values[n.index]
            sl = h[j] - yj
            su = yj - problem.upper[j].values[n.index]
            worst_sl = _worse(worst_sl, sl)
            worst_su = _worse(worst_su, su)
            note("sandwich-lower", f"H^{j}(Y) - Y^{j} = {sl:.3g}", n, j, sl, tol)
            note("sandwich-upper", f"Y^{j} - U^{j} = {su:.3g}", n, j, su, tol)
            if n.is_leaf:
                continue
            dk = solution.k[j].out_of(n.index)
            da = solution.a[j].out_of(n.index)
            neg = _worse(-dk, -da)
            worst_neg = _worse(worst_neg, neg)
            note("increment-sign", f"negative increment {min(dk, da):.3g}",
                 n, j, neg, tol)
            fl = abs(dk * (yj - h[j]))
            fu = abs(da * (problem.upper[j].values[n.index] - yj))
            worst_fl = _worse(worst_fl, fl)
            worst_fu = _worse(worst_fu, fu)
            note("flat-off-lower", f"dK * (Y - H(Y)) = {fl:.3g}", n, j, fl, tol)
            note("flat-off-upper", f"dA * (U - Y) = {fu:.3g}", n, j, fu, tol)
            f_val = problem.generators[j](n.t, yv)
            mart = 0.0
            for c in n.children:
                child = tree.node(c)
                resid = yj - (
                    solution.y[j].values[c]
                    + f_val * dt
                    + problem.v[j].values[c]
                    + solution.k[j].values[c]
                    - solution.a[j].values[c]
                    - solution.m_increments[j][c]
                )
                worst_id = _worse(worst_id, abs(resid))
                note("identity", f"backward identity residual {resid:.3g}",
                     child, j, abs(resid), tol)
                mart += child.prob * solution.m_increments[j][c]
            worst_mart = _worse(worst_mart, abs(mart))
            note("martingale", f"E[dM | parent] = {mart:.3g}", n, j,
                 abs(mart), tol)

    cycles = (
        tuple(binding_graph_cycles(problem, solution, tol))
        if problem.costs is not None
        else ()
    )
    for nid, cyc in cycles:
        violations.append(
            Violation("binding-cycle", f"modes {list(cyc)} bind in a cycle", nid)
        )
    return MinimalityReport(
        worst_identity=worst_id,
        worst_martingale=worst_mart,
        worst_sandwich_lower=worst_sl,
        worst_sandwich_upper=worst_su,
        worst_flat_off_lower=worst_fl,
        worst_flat_off_upper=worst_fu,
        worst_negative_increment=worst_neg,
        binding_cycles=cycles,
        violations=tuple(violations),
    )
