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
:func:`validate_problem` checks these hypotheses with the scalar
validator's array-native data check, and probes each generator with one
call per time index before the horizon (``_probe_table``, which the
problem keeps for the switching layer's decoupling verdict).

Generators and obstacles are called a level at a time: ``f^j(t, y)`` and
``H(t, y)`` take a time index and a d-tuple ``y`` of columns, equal-length
float arrays with one entry per node (floats are the one-node case), and
return one value per node (a generator may return a scalar, which is
broadcast).

Two solvers share the package's one backward walk
``scalar._backward_walk`` over the d modes (:func:`_backward_solve`, whose
arrays are the :class:`SystemSolution`'s), one implicit step (the
residual of one or more modes at a level's parents, ``_mode_residual``,
in mode-major blocks, each block's generator its own mode's, solved by
one ``_root_find_batch`` and projected into the barriers by
``scalar._project``) and one start
rule (``_level_start``): at each parent, the low corner of the state box,
lowered tenfold (at most seven times) until every mode's upper-only step
with the generator frozen there lies at or above it.  The lowered corner
is the same row at every parent, so each drop is one generator call per
mode and a comparison with the level's targets.  Each solver is the walk
with its own level step:

* :func:`solve_system` is the production path, the discretely reflected
  scheme of Chassagneux, Elie & Kharroubi.  Since Y_u depends on the tree
  only through the conditional expectations of its children, one walk
  suffices: its step solves the d-dimensional fixed point
  ``y_j = min(U_j, max(ystar_j(y), H^j(y)))`` at every parent of the level
  by Gauss-Seidel rounds over the modes (``_level_rounds``), all parents
  at once, started from their start rows; a parent leaves the rounds when
  a round changes it by no more than the tolerance.  A mode's root is
  found again only where a component its generator reads
  (``ObliqueProblem.reads``) has moved; between, the kept root is
  projected again.  The modes that read no mode before them in a round
  find their stale roots in one batch at the start of the round.  A
  failing parent is
  named as a node-by-node walk (descending index order) would name it:
  the highest-index failing parent of the first failing level, whatever
  round it failed in.
* :func:`picard_solve` is the independent oracle: a monotone Picard
  iteration over the whole tree.  The subsolution and every sweep are one
  walk each with the frozen step (``_jacobi_step``: every mode projected
  with the generator frozen at the level's rows, all modes in one root
  find and one projection), frozen at the start rows
  with no lower barrier for the subsolution, and at the previous sweep's
  rows with lower barrier ``H(t, previous rows)`` for a sweep.  By
  off-diagonal monotonicity every sweep rises, to the least solution; a
  sweep that decreases anywhere is a fault.

:func:`verify_minimality` and :func:`binding_graph_cycles` recompute their
residuals a level at a time on the same arrays, adding the children slot
by slot in the walk's order.  A solution is its ``(n_nodes, d)`` arrays
Y, dK, dA and dM; its per-mode views are made only where the library or
an oracle asks for them.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    InternalConsistencyError,
    InvalidProblemError,
    NonMonotoneSweepError,
    Violation,
)
from .scalar import (
    PROBE_TOL,
    RESIDUAL_TOL,
    ScalarRBSDEProblem,
    _Findings,
    _blockwise,
    _leaf_array,
    _leaf_entries,
    _note_non_finite,
    _probe,
    _project,
    _root_find_batch,
    _worse,
)
from . import scalar
from .tree import (AdaptedProcess, EventTree, LeafRows, PredictableIncrements,
                   _check_predictable, _read_only)

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

# (time index, d-tuple of columns) -> one value per node, or a scalar
VecGeneratorFn = Callable[[int, Sequence[np.ndarray]], "np.ndarray | float"]
# (time index, d-tuple of columns) -> d columns, H^j in slot j
ObstacleFn = Callable[[int, Sequence[np.ndarray]], Sequence[np.ndarray]]

BINDING_TOL = 1e-10


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


def _cost_entry(costs: CostMatrix, t: int, y: Sequence, j: int):
    """``H^j(t, y) = max over k != j of (y^k - c[j][k](t))`` for a d-tuple
    ``y`` of columns (or floats), the one entry formula of the
    switching-cost obstacle.  The maximum is Python's ``max`` taken
    elementwise: a later candidate replaces the best only when it is
    larger, so ties and NaN resolve as they do for floats."""
    c = costs._rows[t][j]
    best = None
    for k, ck in enumerate(c):
        if k != j:
            cand = y[k] - ck
            best = cand if best is None else np.where(cand > best, cand, best)
    return best if np.ndim(best) else float(best)


def evaluate_H(costs: CostMatrix, t: int, y: Sequence) -> tuple:
    """Obstacle vector H^j = max over k != j of (y^k - c[j][k](t)), for a
    d-tuple of columns (one column per entry) or of floats (one float per
    entry).

    Independent of y^j and nondecreasing in every component of y.
    """
    return tuple(_cost_entry(costs, t, y, j) for j in range(costs.d))


def _binding_edges(
    costs: CostMatrix, times: np.ndarray, y: np.ndarray, tol: float
) -> np.ndarray:
    """``edges[i, j, k]``: the switching obstacle of mode k binds mode j in
    row i of the ``(n, d)`` array ``y`` (at time index ``times[i]``):
    k != j and ``|y^j - (y^k - c[j][k](t))| <= tol``."""
    edges = np.abs(y[:, :, None] - (y[:, None, :] - costs.values[times])) <= tol
    modes = np.arange(costs.d)
    edges[:, modes, modes] = False
    return edges


@dataclass(frozen=True)
class ObliqueProblem:
    """Terminal vector, generator family, drifts, upper barriers, obstacle.

    ``terminal`` maps leaf index -> d-vector; a
    :class:`~orbsde.tree.LeafRows` of the tree (what a scenario builds) is
    read as its ``(leaves, d)`` array, any other mapping leaf by leaf.
    Each ``generators[j]`` takes
    (time index, d-tuple of columns): the columns hold the components of y
    at the nodes of one time index, as equal-length float arrays (floats
    are the one-node case), and the generator returns one value per node
    or a scalar.  The obstacle is the switching-cost form when ``costs`` is
    given; a general increasing continuous obstacle may be supplied instead
    via ``obstacle`` (existence-mode solves only: the switching layer and
    its oracles require the cost form).  It takes the same arguments and
    returns d columns, ``H^j`` in slot j.

    ``reads[j]`` lists the other components that ``generators[j]`` reads;
    None (the default) means every one.  :func:`solve_system` finds mode
    j's implicit root again only where one of them has moved, so f^j must
    give the same bits whatever the components it does not declare hold;
    :func:`validate_problem` refuses a declaration its probes contradict.
    """

    tree: EventTree
    d: int
    terminal: Mapping[int, tuple[float, ...]]
    generators: tuple[VecGeneratorFn, ...]
    v: tuple[PredictableIncrements, ...]
    upper: tuple[AdaptedProcess, ...]
    costs: CostMatrix | None = None
    obstacle: ObstacleFn | None = None
    reads: tuple[tuple[int, ...], ...] | None = None
    # verdicts of checks taken once per problem (the problem is immutable)
    _verdicts: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if (self.costs is None) == (self.obstacle is None):
            raise ValueError("supply exactly one of costs / obstacle")

    def H(self, t: int, y: Sequence) -> tuple:
        if self.costs is not None:
            return evaluate_H(self.costs, t, y)
        return tuple(self.obstacle(t, y))

    @functools.cached_property
    def upper_columns(self) -> np.ndarray:
        """The upper barriers as a read-only ``(n_nodes, d)`` array, made on
        first use."""
        return _columns_of(self.upper)

    @functools.cached_property
    def v_columns(self) -> np.ndarray:
        """The drifts as a read-only ``(n_nodes, d)`` array (the increment
        on the edge into each node), made on first use."""
        return _columns_of(self.v)

    @functools.cached_property
    def upper_obstacle(self) -> np.ndarray:
        """``H(t_u, U_u)`` at every node u as a read-only ``(n_nodes, d)``
        array, made on first use (for the Mokobodzki check and the corner)."""
        return _read_only(_by_level(self, self.upper_columns))

    @functools.cached_property
    def terminal_rows(self) -> np.ndarray:
        """The terminal vectors as a read-only ``(leaves, d)`` array in leaf
        order (of a problem that has one at every leaf): the array of a
        :class:`~orbsde.tree.LeafRows` terminal, or one made on first use."""
        return _read_only(_leaf_array(self.tree, self.terminal))


Row = tuple[float, ...]


def _obstacle(problem: ObliqueProblem, t: int, rows: np.ndarray) -> np.ndarray:
    """``H(t, row)`` at every row of the ``(m, d)`` array ``rows``, as an
    ``(m, d)`` array: one obstacle call."""
    return np.column_stack([np.broadcast_to(h, rows.shape[:1])
                            for h in problem.H(t, tuple(rows.T))])


def _obstacle_column(problem: ObliqueProblem, t: int, rows: np.ndarray,
                     j: int) -> np.ndarray:
    """``H^j(t, row)`` at every row of ``rows``: the one entry of the
    obstacle that mode j's step uses; the cost form computes only that
    entry."""
    cols = tuple(rows.T)
    h = (problem.H(t, cols)[j] if problem.costs is None
         else _cost_entry(problem.costs, t, cols, j))
    return np.broadcast_to(h, rows.shape[:1])


def _columns_of(per_mode: Sequence) -> np.ndarray:
    """A problem's per-mode processes or increments as one read-only
    ``(n_nodes, d)`` array."""
    return _read_only(np.column_stack([col.values for col in per_mode]))


def _level_slices(tree: EventTree):
    """(t, the slice of level t's indices) for every time index."""
    for t in range(tree.n_steps + 1):
        level = tree.level(t)
        yield t, slice(level.start, level.stop)


def _by_level(problem: ObliqueProblem, rows: np.ndarray) -> np.ndarray:
    """``H(t_u, rows[u])`` at every node u, one obstacle call per time
    index."""
    h = np.empty_like(rows)
    for t, nodes in _level_slices(problem.tree):
        h[nodes] = _obstacle(problem, t, rows[nodes])
    return h


def _probe_box(upper: np.ndarray, xi: np.ndarray) -> list[float]:
    """The generator probe grid: the range of the terminal rows ``xi`` and
    the ``(n_nodes, d)`` upper barriers, its midpoint, and its ends moved
    out by 1 plus half its width.  The ends are Python's ``min`` and
    ``max`` over the rows, then the barriers mode by mode."""
    vals = np.concatenate((xi.ravel(), upper.T.ravel())).tolist()
    lo, hi = min(vals), max(vals)
    pad = 1.0 + 0.5 * (hi - lo)
    return [lo - pad, lo, 0.5 * (lo + hi), hi, hi + pad]


CONTINUITY_STEP = 1e-7


def _probe_table(problem: ObliqueProblem,
                 xi: np.ndarray | None = None) -> tuple[list[float], dict]:
    """The :func:`_probe_box` grid and the ``scalar._probe`` lines (values,
    first non-finite value, rising pairs) of each f^j at each time index
    before the horizon, from one call at a d-tuple of columns, kept in
    ``problem._verdicts``.  Line k moves component k over the grid from its
    midpoint, with the pairs where f^j rises in y^j or falls in another
    y^k; line d is the diagonal at each grid point and CONTINUITY_STEP
    above it.  ``xi`` is the terminal rows the validator has gathered;
    without them, they are gathered here."""
    if "probes" not in problem._verdicts:
        d, tree = problem.d, problem.tree
        if xi is None:
            xi = np.array(_leaf_entries(tree, problem.terminal)[2], dtype=float)
        grid = _probe_box(problem.upper_columns, xi)
        steps = [y for y0 in grid for y in (y0, y0 + CONTINUITY_STEP)]
        n = len(grid)
        points = np.full((d, d * n + len(steps)), grid[2])
        for k in range(d):
            points[k, k * n:(k + 1) * n] = grid
        points[:, d * n:] = steps
        table = {}
        for j, f in enumerate(problem.generators):
            for t in range(tree.n_steps):
                with np.errstate(all="ignore"):
                    values = f(t, tuple(points))
                values = np.broadcast_to(values, points.shape[1:]).tolist()
                lines = [values[k * n:(k + 1) * n] for k in range(d)] + [values[d * n:]]
                table[j, t] = [(line, *_probe(line, steps if k == d else grid,
                                              -1.0 if k not in (j, d) else 1.0))
                               for k, line in enumerate(lines)]
        problem._verdicts["probes"] = grid, table
    return problem._verdicts["probes"]


def _seen_reading(lines: Sequence[tuple], ks: Sequence[int]) -> list[int]:
    """The components k of ``ks`` that f^j is seen to read: its
    :func:`_probe_table` line k is not finite, or moves f^j by more than
    PROBE_TOL."""
    return [k for k in ks if lines[k][1] is not None
            or max(lines[k][0]) - min(lines[k][0]) > PROBE_TOL]


def validate_problem(problem: ObliqueProblem) -> list[Violation]:
    """All structural hypotheses, reported with node/time coordinates.

    Checks the dimensions (terminal vectors included), that dt, costs,
    upper barriers, terminals and v increments are finite, cost positivity
    and the triangle condition, the Mokobodzki inequality H(U) <= U at
    every node, the terminal sandwich H_T(xi) <= xi <= U_T at every leaf,
    and, at every time index before the horizon, that the generators are
    finite at the probe points, with finite-difference spot-checks of their
    monotonicity directions (decreasing in the own component,
    nondecreasing in the others) and continuity, and that f^j moves with
    no component its ``reads`` leave out.  Non-finite data stop the
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
    if (len(problem.generators) != d or len(problem.upper) != d or len(problem.v) != d
            or problem.reads is not None and len(problem.reads) != d):
        out.append(Violation("dimension", "per-mode field lengths disagree with d"))
        return out
    given, missing, entries = _leaf_entries(tree, problem.terminal)
    sizes = (np.full(given.size, entries.shape[-1]) if isinstance(entries, np.ndarray)
             else np.fromiter(map(len, entries), dtype=np.intp, count=len(entries)))
    out.extend(Violation("dimension", f"terminal vector has {size} entries, need {d}",
                         tree.ids[u], tree.n_steps)
               for u, size in zip(given[sizes != d].tolist(), sizes[sizes != d].tolist()))
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

    found = _Findings(tree)
    upper = problem.upper_columns
    xi = np.asarray(entries, dtype=float).reshape(given.size, d)
    if not math.isfinite(tree.dt):
        out.append(Violation("non-finite", f"dt = {tree.dt}"))
    else:
        _note_non_finite(found, tree, {"U": upper}, problem.v_columns, given, xi)
        out.extend(found.take())
    if any(v.code == "non-finite" for v in out):
        return out
    h_u = problem.upper_obstacle   # Mokobodzki, with U itself the witness X
    found.note(0, "mokobodzki", h_u > upper + 1e-12, lambda u, j: (
        f"H^{j}(U) = {h_u[u, j]:.17g} > X^{j} = {upper[u, j]:.17g}"))
    out.extend(found.take())

    for u in missing.tolist():
        found.add((u, -1), Violation("terminal", "missing terminal vector", tree.ids[u]))
    h_xi = _obstacle(problem, tree.n_steps, xi) if given.size else xi
    upper_t = upper[given]
    found.note(0, "terminal-sandwich", h_xi > xi + 1e-12, lambda i, j: (
        f"H^{j}_T(xi) = {h_xi[i, j]:.17g} > xi^{j} = {xi[i, j]:.17g}"), rows=given)
    found.note(1, "terminal-sandwich", xi > upper_t + 1e-12, lambda i, j: (
        f"xi^{j} = {xi[i, j]:.17g} > U^{j}_T = {upper_t[i, j]:.17g}"), rows=given)
    out.extend(found.take())

    grid, probes = _probe_table(problem, xi)
    non_finite = [Violation("non-finite", f"f^{j} = {bad[0]} at a probe point",
                            time_index=t, mode=j)
                  for (j, t), lines in probes.items()
                  if (bad := [b for _, b, _ in lines if b is not None])]
    if non_finite:
        return out + non_finite
    readers = _readers(problem)
    unread = [[k for k in range(d) if k != j and j not in readers[k]] for j in range(d)]
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
        out.extend(Violation("generator-reads", f"f^{j} reads component {k}, "
                             "which its declared reads leave out", time_index=t, mode=j)
                   for k in _seen_reading(moved, unread[j]))
    return out


# the start rule: the corner, then lowered tenfold at most seven times
_CORNER_DROPS = tuple(10.0**attempt - 1.0 for attempt in range(8))


def _level_start(
    problem: ObliqueProblem, t: int, targets: np.ndarray, corner: Row
) -> tuple[np.ndarray, np.ndarray]:
    """The start rows of a level's parents, and which parents have one.

    A parent starts at the first lowered corner at which each mode's
    upper-only step with the generator frozen there lies at or above it
    (the corner lies below U, so this makes it a subsolution of the node's
    obstacle-free map).  The lowered corner does not depend on the node,
    so each drop is one generator call per mode and a comparison with the
    ``(m, d)`` targets.  Returns the ``(m, d)`` start rows and the mask of
    the parents that have one; the others lie below every corner tried.
    """
    dt = problem.tree.dt
    start = np.zeros(targets.shape)
    found = np.zeros(len(targets), dtype=bool)
    for drop in _CORNER_DROPS:
        low = tuple(c - drop for c in corner)
        fits = ~found
        for j, f in enumerate(problem.generators):
            if fits.any():
                fits &= low[j] - f(t, low) * dt - targets[:, j] <= 0.0
        start[fits] = low
        found |= fits
        if found.all():
            break
    return start, found


def _corner(problem: ObliqueProblem) -> Row:
    """1 below every terminal entry, upper barrier and ``H(U)`` entry, per
    mode: the row the start rule lowers."""
    rows = [problem.terminal_rows, problem.upper_columns, problem.upper_obstacle]
    lows = np.vstack(rows).min(axis=0)
    return tuple((lows - 1.0).tolist())


def _mode_residual(
    problem: ObliqueProblem, t: int, rows: np.ndarray, modes: Sequence[int],
    target: np.ndarray,
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The residual ``phi(x, idx) = x - f^j(t, row with x in slot j) dt -
    target`` of the implicit steps of ``modes`` at the ``(m, d)`` array
    ``rows``, in mode-major blocks: element ``b * m + s`` is mode
    ``modes[b]`` at row s, with target ``target[b * m + s]``.  Each block
    goes to its own mode's generator (``scalar._blockwise``); one mode is
    the one-block case."""
    dt, m = problem.tree.dt, len(rows)
    cols = tuple(rows.T)

    def block(b: int, j: int):
        f = problem.generators[j]

        def fj(x, idx):
            at = idx - b * m if b else idx
            return f(t, tuple(x if k == j else col[at] for k, col in enumerate(cols)))

        return fj

    fns = [block(b, j) for b, j in enumerate(modes)]

    def phi(x, idx):
        return x - _blockwise(fns, m, x, idx) * dt - target[idx]

    return phi


def _by_mode(columns: np.ndarray, modes: Sequence[int]) -> np.ndarray:
    """The ``modes`` columns of an ``(m, d)`` array in mode-major order, the
    element order of :func:`_mode_residual`."""
    return columns[:, modes].T.ravel()


def _projected_steps(
    problem: ObliqueProblem, t: int, targets: np.ndarray, rows: np.ndarray,
    lower: np.ndarray, upper: np.ndarray, modes: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The steps of ``modes`` at a level's parents with the generator
    frozen at ``rows``, projected into [``lower``, ``upper``]: one root
    find and one projection over their mode-major elements.  Returns the
    ``(m, len(modes))`` arrays Y, dK and dA."""
    target = _by_mode(targets, modes)
    phi = _mode_residual(problem, t, rows, modes, target)
    steps = _project(phi, _root_find_batch(phi, target, RESIDUAL_TOL),
                     _by_mode(lower, modes), _by_mode(upper, modes))
    return tuple(a.reshape(len(modes), -1).T for a in steps)


def _jacobi_step(
    problem: ObliqueProblem, t: int, targets: np.ndarray, rows: np.ndarray,
    lower: np.ndarray, upper: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every mode's step at a level's parents with the generator frozen at
    ``rows``, projected into [``lower``, ``upper``] (``(m, d)`` arrays,
    -inf for no lower barrier): the modes are independent within the step,
    as in a Jacobi sweep, so one batched root find and one projection
    serve them all.  If that raises, the modes run one by one in order, so
    that the error is the one the first failing mode meets.  Returns the
    ``(m, d)`` arrays Y, dK and dA."""
    try:
        return _projected_steps(problem, t, targets, rows, lower, upper,
                                range(problem.d))
    except Exception:
        steps = [_projected_steps(problem, t, targets, rows, lower, upper, [j])
                 for j in range(problem.d)]
        return tuple(np.hstack(parts) for parts in zip(*steps))


def _backward_solve(
    problem: ObliqueProblem, step: Callable[[int, np.ndarray, np.ndarray], tuple]
) -> "SystemSolution":
    """``scalar._backward_walk`` over the d modes, from the terminal rows
    with the drifts ``v``: the walk's arrays are the solution's.  (Called
    through the module, the one binding of every walk of the package.)"""
    y, m, k, a = scalar._backward_walk(problem.tree, problem.terminal_rows,
                                       problem.v_columns, step)
    return SystemSolution(problem.tree, y, k, a, m)


def _walk_from_starts(
    problem: ObliqueProblem,
    step: Callable[[int, np.ndarray, np.ndarray, np.ndarray], tuple],
) -> "SystemSolution":
    """The backward walk with the start rule: the corner computed once, and
    at each level ``step(t, parents, targets, start)`` run from the
    :func:`_level_start` rows.  When a parent lies below every corner, the
    step still runs at the parents before it in the walk's order, whose
    errors a node-by-node walk would meet first, and then the parent is
    named."""
    corner = _corner(problem)

    def started(t: int, parents: np.ndarray, targets: np.ndarray):
        start, found = _level_start(problem, t, targets, corner)
        if found.all():
            return step(t, parents, targets, start)
        first = int(np.argmin(found))
        if first:
            step(t, parents[:first], targets[:first], start[:first])
        raise NonMonotoneSweepError(
            f"node {problem.tree.ids[parents[first]]} (t={t}): below every corner tried "
            f"(lowered by up to {_CORNER_DROPS[-1]:g})"
        )

    return _backward_solve(problem, started)


def build_subsolution(problem: ObliqueProblem) -> "SystemSolution":
    """Per-mode upper-barrier solves with each generator frozen at the
    node's :func:`_level_start` row, which the node's value lies at or
    above: a subsolution from which, by off-diagonal monotonicity, every
    Picard sweep rises.  K is identically zero.
    """
    upper = problem.upper_columns

    def frozen(t, parents, targets, start):
        return _jacobi_step(problem, t, targets, start,
                            np.full(start.shape, -np.inf), upper[parents])

    return _walk_from_starts(problem, frozen)


def _check_budget(tol: float, budget: int) -> None:
    """Reject a budget that runs no sweep and a tolerance never met."""
    if not budget >= 1 or not tol >= 0.0:
        raise ValueError(f"the sweep budget must be >= 1 and the tolerance "
                         f"a number >= 0, got {budget} and {tol}")


@dataclass(frozen=True, eq=False)
class SystemSolution:
    """Y, dK, dA and dM as ``(n_nodes, d)`` float64 arrays (column j is
    mode j, each increment on the edge into a node), plus the sweep count
    and the final delta.

    The arrays are taken over without a copy and made read-only.  dK and dA
    must be predictable: construction raises the ValueError of
    :class:`~orbsde.tree.PredictableIncrements` for the first column that
    is not (dK before dA, mode by mode).  The per-mode views ``y``, ``k``,
    ``a`` and ``m_increments`` are made on first use, for the library API
    and the oracles, and :func:`binding_graph_cycles` keeps its last search
    in the instance too.
    """

    tree: EventTree
    y_columns: np.ndarray
    k_columns: np.ndarray
    a_columns: np.ndarray
    m_columns: np.ndarray
    sweeps: int = 0
    final_delta: float = 0.0

    def __post_init__(self):
        n = self.tree.n_nodes
        shape = None
        for name in ("y_columns", "k_columns", "a_columns", "m_columns"):
            columns = np.asarray(getattr(self, name), dtype=np.float64)
            shape = shape or columns.shape
            if columns.ndim != 2 or columns.shape != shape or shape[0] != n:
                raise ValueError(f"expected ({n}, d) arrays, got {name} of shape "
                                 f"{columns.shape}")
            object.__setattr__(self, name, _read_only(columns))
        _check_predictable(self.tree, self.k_columns)
        _check_predictable(self.tree, self.a_columns)

    def y_vector(self, u: int) -> tuple[float, ...]:
        return tuple(self.y_columns[u].tolist())

    @functools.cached_property
    def y(self) -> tuple[AdaptedProcess, ...]:
        """Y per mode, made on first use."""
        return tuple(AdaptedProcess(self.tree, col) for col in self.y_columns.T)

    @functools.cached_property
    def k(self) -> tuple[PredictableIncrements, ...]:
        """dK per mode, made on first use."""
        return tuple(PredictableIncrements(self.tree, col) for col in self.k_columns.T)

    @functools.cached_property
    def a(self) -> tuple[PredictableIncrements, ...]:
        """dA per mode, made on first use."""
        return tuple(PredictableIncrements(self.tree, col) for col in self.a_columns.T)

    @functools.cached_property
    def m_increments(self) -> tuple[np.ndarray, ...]:
        """dM per mode, as read-only views of ``m_columns``."""
        return tuple(self.m_columns.T)


def picard_solve(
    problem: ObliqueProblem, tol: float = 1e-10, max_sweeps: int = 200
) -> SystemSolution:
    """Monotone iteration of frozen two-barrier walks; the independent
    oracle for :func:`solve_system`.

    Starts from :func:`build_subsolution`.  Sweep n is one backward walk
    whose level step projects every mode j, with generator
    ``c -> f^j(t, Y_prev; c)``, into [``H^j(t, Y_prev)``, ``U^j``] at all
    the level's parents at once: the modes stay independent within a sweep
    (Jacobi), so a level is one batched root find over its (mode, parent)
    pairs.  Stops when the sup-norm delta over nodes and modes drops to
    ``tol``.  Raises NonMonotoneSweepError if a node is below every corner
    or a sweep decreases somewhere, ConvergenceError if the sweep budget
    runs out.
    """
    _check_budget(tol, max_sweeps)
    report = validate_problem(problem)
    if report:
        raise InvalidProblemError(report)
    upper = problem.upper_columns
    prev = build_subsolution(problem).y_columns
    for sweep in range(1, max_sweeps + 1):

        def sweep_step(t: int, parents: np.ndarray, targets: np.ndarray):
            rows = prev[parents]
            return _jacobi_step(problem, t, targets, rows,
                                _obstacle(problem, t, rows), upper[parents])

        walk = _backward_solve(problem, sweep_step)
        new = walk.y_columns
        # Python's max and min over the (node, mode) pairs: NaN is skipped
        diff = new - prev
        seen = ~np.isnan(diff)
        delta = float(np.abs(diff).max(initial=0.0, where=seen))
        rise_floor = float(diff.min(initial=0.0, where=seen))
        scale = float(np.abs(prev).max(initial=1.0, where=~np.isnan(prev)))
        # absolute slack at desk scale; relative term only guards against
        # root-finder ulp noise when a deep corner inflates the iterates
        if rise_floor < -max(1e-12, 1e-13 * scale):
            raise NonMonotoneSweepError(
                f"sweep {sweep} decreased by {-rise_floor:.3g}"
            )
        prev = new
        if delta <= tol:
            result = dataclasses.replace(walk, sweeps=sweep, final_delta=delta)
            _require_acyclic(problem, result)
            return result
    raise ConvergenceError(
        f"delta {delta:.3g} > tol {tol:g} after {max_sweeps} sweeps"
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

    The rounds run at all parents of a level at once (``_level_rounds``),
    each mode update one batched projection over the parents still in the
    rounds, from the :func:`_level_start` rows, of roots found again only
    where a component the mode's generator reads has moved (those of the
    modes that read no mode before them in one batch per round).  A round
    that still lowers a component, or a node below every corner tried,
    raises NonMonotoneSweepError naming the node.  A node is done when a round
    changes no component by more than ``tol``; ``ConvergenceError`` names
    the node when ``max_rounds`` rounds are not enough.  Of several failing
    parents, the error names the one a node-by-node walk would meet first:
    the highest-index one of the first failing level.

    ``sweeps`` is the largest round count over the nodes and
    ``final_delta`` the largest final-round change.
    """
    _check_budget(tol, max_rounds)
    report = validate_problem(problem)
    if report:
        raise InvalidProblemError(report)
    upper = problem.upper_columns
    stats: list[tuple[int, float]] = []

    def rounds(t, parents, targets, start):
        y, dk, da, counts, changes = _level_rounds(
            problem, t, parents, targets, start, upper[parents], tol, max_rounds)
        stats.append((int(counts.max(initial=0)), float(changes.max(initial=0.0))))
        return y, dk, da

    result = dataclasses.replace(
        _walk_from_starts(problem, rounds),
        sweeps=max((count for count, _ in stats), default=0),
        final_delta=functools.reduce(_worse, (change for _, change in stats), 0.0),
    )
    _require_acyclic(problem, result)
    return result


def _level_rounds(
    problem: ObliqueProblem,
    t: int,
    parents: np.ndarray,
    targets: np.ndarray,
    start: np.ndarray,
    upper: np.ndarray,
    tol: float,
    max_rounds: int,
) -> tuple[np.ndarray, ...]:
    """Gauss-Seidel rounds at a level's parents from their subsolution rows
    ``start``, all parents at once.

    Mode j's root at a parent depends only on t, its target and the
    components its generator reads (``problem.reads``), so the rounds keep
    each parent's roots with a stale mask, all stale at round 1.  A mode
    that reads no mode before it (``ahead``) is marked stale by no mode
    before it and reads no component they move, so its roots at its turn
    are those at the start of the round: when two or more such modes have
    stale roots, a round starts by finding them all in one batch
    (``_find_ahead``).  Each mode update finds the stale roots left (one
    ``_root_find_batch``), projects the
    kept roots into [H^j(row), U^j] (``scalar._project``), and marks
    stale, wherever y_j's bit pattern changed (0.0 to -0.0 and NaN
    included), the root of every mode that reads component j.  Every root
    is the one a new root find would give, bit for bit.  A parent leaves
    the rounds after the first round that changes no component by more
    than ``tol``.  A parent that fails (a round lowers one of its
    components, or ``max_rounds`` rounds are not enough) leaves them too,
    with every parent after it in the walk's order, whose failures a
    node-by-node walk would not reach; once the rounds are over, the error
    of the first failing parent is raised.  The parents still in the
    rounds keep their data in arrays of their own, cut as parents leave,
    so an update reads and writes whole columns.  Returns the ``(m, d)``
    arrays Y, dK and dA, and per parent the round count and the
    final-round change.
    """
    tree = problem.tree
    y, dk, da = np.zeros(start.shape), np.zeros(start.shape), np.zeros(start.shape)
    counts = np.zeros(len(start), dtype=int)
    changes = np.zeros(len(start))
    readers = _readers(problem)
    # the modes whose generator reads no mode before them in a round
    ahead = [j for j in range(problem.d) if not any(j in readers[k] for k in range(j))]
    # the parents still in the rounds, in the walk's order: their indices,
    # then their rows, pushes, targets, upper barriers, roots and stale masks
    live = [np.arange(len(start)), start.copy(), np.zeros(start.shape),
            np.zeros(start.shape), targets, upper, np.zeros(start.shape),
            np.ones(start.shape, dtype=bool)]
    failure: Exception | None = None

    def fail(i: int, error: type, detail: str) -> None:
        """Name live parent i and drop it and every parent after it."""
        nonlocal failure
        failure = error(f"node {tree.ids[parents[live[0][i]]]} (t={t}): {detail}")
        live[:] = [a[:i] for a in live]

    for count in range(1, max_rounds + 1):
        change = np.zeros(len(live[0]))
        if len(ahead) > 1:
            _find_ahead(problem, t, live, ahead)
        for j in range(problem.d):
            active, rows, pk, pa, tg, up, roots, stale = live
            if not active.size:
                break
            phi = _mode_residual(problem, t, rows, [j], tg[:, j])
            if stale[:, j].all():
                roots[:, j] = _root_find_batch(phi, tg[:, j], RESIDUAL_TOL)
            elif stale[:, j].any():
                find = np.flatnonzero(stale[:, j])
                roots[find, j] = _root_find_batch(lambda x, i: phi(x, find[i]),
                                                  tg[find, j], RESIDUAL_TOL)
            stale[:, j] = False
            val, pk[:, j], pa[:, j] = _project(phi, roots[:, j].copy(),
                                               _obstacle_column(problem, t, rows, j), up[:, j])
            rise = val - rows[:, j]
            # the slack of picard_solve's monotonicity check
            fell = np.flatnonzero(rise < -np.fmax(1e-12, 1e-13 * np.abs(rows[:, j])))
            if fell.size:
                i = fell[0]
                fail(i, NonMonotoneSweepError,
                     f"round {count} lowered mode {j} by {-rise[i]:.3g}")
                val, rise, change = val[:i], rise[:i], change[:i]
                rows, stale = live[1], live[7]
            size = np.abs(rise)
            change = np.where((size > change) | (size != size), size, change)   # _worse
            moved = val.view(np.int64) != rows[:, j].view(np.int64)
            for i in readers[j]:
                stale[:, i] |= moved
            rows[:, j] = val
        done = change <= tol
        if done.any():
            active, rows, pk, pa = live[:4]
            leave = active[done]
            counts[leave], changes[leave] = count, change[done]
            y[leave], dk[leave], da[leave] = rows[done], pk[done], pa[done]
            live[:] = [a[~done] for a in live]
            change = change[~done]
        if not live[0].size:
            break
    if live[0].size:
        fail(0, ConvergenceError, f"round change {change[0]:.3g} > tol {tol:g} "
             f"after {max_rounds} rounds")
    if failure is not None:
        raise failure
    return y, dk, da, counts, changes


def _find_ahead(problem: ObliqueProblem, t: int, live: list, modes: Sequence[int]
                ) -> None:
    """At the start of a round, find the stale roots of ``modes`` (the
    modes that read no mode before them) at the rows of the parents still
    in the rounds (``live``), in one ``_root_find_batch`` over their
    mode-major elements, and mark them found.  Nothing is done when fewer
    than two of them have stale roots, or when the batch raises: the roots
    stay stale, and each mode's own find at its turn raises what that turn
    meets."""
    _, rows, _, _, targets, _, roots, stale = live
    modes = [j for j in modes if stale[:, j].any()]
    if len(modes) < 2:
        return
    target, find = _by_mode(targets, modes), np.flatnonzero(_by_mode(stale, modes))
    phi = _mode_residual(problem, t, rows, modes, target)
    try:
        found = (_root_find_batch(phi, target, RESIDUAL_TOL) if find.size == target.size
                 else _root_find_batch(lambda x, i: phi(x, find[i]), target[find],
                                       RESIDUAL_TOL))
    except Exception:
        return
    at = 0
    for j in modes:
        n = np.count_nonzero(stale[:, j])
        roots[stale[:, j], j] = found[at:at + n]
        at += n
        stale[:, j] = False


def _readers(problem: ObliqueProblem) -> list[list[int]]:
    """``readers[k]``: the modes j != k whose generator reads component k,
    by ``problem.reads`` (every mode j != k when it is None)."""
    reads, d = problem.reads, problem.d
    return [[j for j in range(d) if j != k and (reads is None or k in reads[j])]
            for k in range(d)]


def mode_problem(
    problem: ObliqueProblem, solution: SystemSolution, j: int
) -> ScalarRBSDEProblem:
    """Mode j of the system as one scalar reflected problem, the other
    components frozen at ``solution``: terminal column j, the generator
    ``c -> f^j(t_u, Y_u with c in slot j)`` (f^j gets a d-tuple of arrays:
    the solution's columns at the nodes for the components ``reads[j]``
    declares, and c in slot j and every slot it leaves out), drift
    ``v[j]``, lower barrier ``H^j(t_u, Y_u)`` and upper barrier ``U^j``.
    On a solution of the system, its two-barrier solve gives back
    ``solution.y[j]``.
    """
    tree, f = problem.tree, problem.generators[j]
    rows = solution.y_columns
    read = [(k, rows[:, k]) for k in range(problem.d)
            if k != j and (problem.reads is None or k in problem.reads[j])]

    def generator(t: int, nodes: np.ndarray, c: np.ndarray):
        y = [c] * problem.d
        for k, col in read:
            y[k] = col[nodes]
        return f(t, tuple(y))

    lower = np.empty(tree.n_nodes)
    for t, nodes in _level_slices(tree):
        lower[nodes] = _obstacle_column(problem, t, rows[nodes], j)
    return ScalarRBSDEProblem(
        tree=tree,
        terminal=LeafRows(tree, problem.terminal_rows[:, j]),
        generator=generator,
        v_increments=problem.v[j],
        lower=AdaptedProcess(tree, lower),
        upper=problem.upper[j],
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


def _first_cycle(adj: list[list[int]]) -> tuple[int, ...] | None:
    """The first cycle a depth-first search of the graph ``adj`` (row j
    lists the successors of j) meets, starting from each unvisited mode in
    order."""
    color = [0] * len(adj)
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

    for j in range(len(adj)):
        if color[j] == 0:
            cyc = dfs(j)
            if cyc:
                return cyc
    return None


def _has_d_walk(edges: np.ndarray) -> np.ndarray:
    """Whether the graph of each ``(d, d)`` adjacency matrix of ``edges``
    has a walk of d edges.  ``walks[u, j, k]`` (a walk from j to k) grows
    one edge per pass: a walk from j to m and the edge from m to k, joined
    one middle mode m at a time, so that no pass makes an ``(n, d, d, d)``
    array."""
    d = edges.shape[1]
    walks = edges
    for _ in range(d - 1):
        longer = np.zeros_like(edges)
        for m in range(d):
            longer |= walks[:, :, m, None] & edges[:, None, m, :]
        walks = longer
    return walks.any(axis=(1, 2))


def binding_graph_cycles(
    problem: ObliqueProblem, solution: SystemSolution, tol: float = BINDING_TOL
) -> list[tuple[str, tuple[int, ...]]]:
    """Cycles j1 -> j2 -> ... -> j1 of binding obstacle equalities per node.

    Edge j -> k present when Y^j = Y^k - c[j][k](t) within tol.  Triangle
    costs make these graphs acyclic at every node of a true solution.  The
    edges are computed for all nodes at once.  A graph on d modes has a
    cycle exactly when it has a walk of d edges, so the depth-first search
    runs only at the nodes whose d-th adjacency power is not zero; the
    first cycle of each node is listed, in node order.

    The search is kept with the solution, for its problem and tol, so
    that a solver's check and :func:`verify_minimality` of the solution it
    returned search once.
    """
    assert problem.costs is not None
    kept = vars(solution).get("_cycle_search")
    if kept is not None and kept[0] is problem and kept[1] == tol:
        return list(kept[2])
    tree = problem.tree
    edges = _binding_edges(problem.costs, tree.arrays.time, solution.y_columns, tol)
    out: list[tuple[str, tuple[int, ...]]] = []
    for u in np.flatnonzero(_has_d_walk(edges)).tolist():
        cyc = _first_cycle([np.flatnonzero(row).tolist() for row in edges[u]])
        if cyc:
            out.append((tree.ids[u], cyc))
    vars(solution)["_cycle_search"] = (problem, tol, tuple(out))
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


def _worst(values: np.ndarray) -> float:
    """``_worse`` folded over ``values`` from 0.0: NaN if any value is NaN,
    else the largest value if it is above 0.0, else 0.0."""
    if np.isnan(values).any():
        return math.nan
    top = values.max(initial=0.0)
    return float(top) if top > 0.0 else 0.0


# violation codes in the order verify_minimality lists them at a (node, mode)
_CHECKS = ("sandwich-lower", "sandwich-upper", "increment-sign", "flat-off-lower",
           "flat-off-upper", "identity", "martingale")


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

    The residuals are computed a level at a time on the tree's arrays, the
    children of a level added slot by slot in the walk's order.  Violations
    are listed by node, then mode, then check (``_CHECKS`` order), then
    child, and the binding cycles after them.
    """
    tree = problem.tree
    arrays = tree.arrays
    dt = tree.dt
    y, k, a, m = (solution.y_columns, solution.k_columns, solution.a_columns,
                  solution.m_columns)
    upper, v = problem.upper_columns, problem.v_columns
    h = _by_level(problem, y)
    sandwich_lower, sandwich_upper = h - y, y - upper
    found = _Findings(tree)

    def note(check: int, nodes: np.ndarray | None, values: np.ndarray,
             message: Callable[[int, int], str], at: np.ndarray | None = None):
        """Note the entries of ``values`` (rows ``nodes``, mode columns) above
        tol; ``at`` holds the node each row's violation names, when not the
        row's own node."""
        found.note(check, _CHECKS[check], ~(values <= tol), message, nodes, at)

    note(0, None, sandwich_lower,
         lambda i, j: f"H^{j}(Y) - Y^{j} = {sandwich_lower[i, j]:.3g}")
    note(1, None, sandwich_upper,
         lambda i, j: f"Y^{j} - U^{j} = {sandwich_upper[i, j]:.3g}")

    worst_id = worst_mart = 0.0
    worst_neg = worst_fl = worst_fu = 0.0
    for t in range(tree.n_steps):
        parents = arrays.parents[t]
        if not parents.size:
            continue
        first = arrays.child_ptr[parents]
        count = arrays.child_ptr[parents + 1] - first
        kids = arrays.child_index[first]
        dk, da = k[kids], a[kids]
        neg = np.where((-da > -dk) | (-da != -da), -da, -dk)   # _worse(-dk, -da)
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
        note(6, parents, np.abs(mart),
             lambda i, j: f"E[dM | parent] = {mart[i, j]:.3g}")
        worst_mart = _worse(worst_mart, _worst(np.abs(mart)))
        worst_neg = _worse(worst_neg, _worst(neg))
        worst_fl = _worse(worst_fl, _worst(flat_lower))
        worst_fu = _worse(worst_fu, _worst(flat_upper))

    violations = found.take()
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
        worst_sandwich_lower=_worst(sandwich_lower),
        worst_sandwich_upper=_worst(sandwich_upper),
        worst_flat_off_lower=worst_fl,
        worst_flat_off_upper=worst_fu,
        worst_negative_increment=worst_neg,
        binding_cycles=cycles,
        violations=tuple(violations),
    )
