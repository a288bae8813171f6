"""One-dimensional reflected backward equations on a tree.

The dynamics solved here, between a parent u at time index t and its
children, are

    Y_u = E[Y_{t+1} | u] + g(u, Y_u) dt + dV + dK - dA,

with dV, dK, dA predictable (decided at u, identical across sibling edges)
and the martingale increment on each edge absorbing the residual
``dM_c = Y_c - E[Y_{t+1} | u]``.  A lower barrier L keeps Y >= L via the
increasing  process K, an upper barrier U keeps Y <= U via A, and both act
minimally: an increment is nonzero only at parents where Y sits exactly on
its barrier (the discrete flat-off condition).

Generator convention: g is the tree's f(t, omega, y), called a level at a
time as ``g(t, nodes, y)`` with the time index, an array of parent nodes
and an array of values (a scalar return is broadcast), and evaluated at
the post-projection value Y_u.  That makes the displayed identity exact, so the
reflecting increments are the positive/negative parts of the residual

    phi(y) = y - g(u, y) dt - E[Y_{t+1}|u] - dV

evaluated at the projected value: dK = phi(Y_u)^+, dA = phi(Y_u)^-.  For
generators constant in y this coincides with the naive assignment
(L - y*)^+ / (y* - U)^+ against the unconstrained root y*.

(H1)-monotonicity (g decreasing in y) makes phi strictly increasing, which
is what lets the implicit step run on bracketed bisection with no
derivative information.

``_backward_solve`` is the package's one backward walk.  It runs one
level at a time on the tree's arrays (``EventTree.arrays``) and carries
any number of columns: it sums each parent's children into the
conditional-expectation targets of the level, an ``(m, columns)`` array,
hands them to a step function and stores the returned values and pushes.
The solvers here solve a level's implicit steps with one batched root
find (``_root_find_batch``): the projected solves walk one column,
projecting each root as ``_project`` does, and the penalized scheme walks
one column per weight pair (the penalty in the generator and the penalty
integrals as its pushes), so a whole (p, q) ladder is one walk.
:mod:`orbsde.oblique` walks all d modes at once with its own steps.

``_probe`` is the package's one generator probe.
:meth:`ScalarRBSDEProblem.validate` probes g with it at every node before
the horizon, :mod:`orbsde.oblique` and :mod:`orbsde.switching` the system's
generators at every time index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import BracketingError, InvalidProblemError, Violation
from .tree import (
    AdaptedProcess,
    EventTree,
    PredictableIncrements,
    enumerate_stopping_times,
)

__all__ = [
    "GeneratorFn",
    "ScalarRBSDEProblem",
    "ScalarSolution",
    "PenalizationParams",
    "PenalizedSolution",
    "implicit_step",
    "solve_lower",
    "solve_upper",
    "solve_two_barrier",
    "solve_penalized",
    "verify_snell_representation",
]

GeneratorFn = Callable[[int, np.ndarray, np.ndarray], "np.ndarray | float"]

RESIDUAL_TOL = 1e-12
PROBE_TOL = 1e-12
_MONOTONE_PROBE_YS = (-7.3, -1.0, -0.25, 0.0, 0.5, 2.0, 9.1)


def _worse(worst: float, value: float) -> float:
    """The larger of two values, NaN if either is NaN (``max`` would drop a
    NaN that comes second)."""
    return value if value > worst or value != value else worst


def _probe(fn: Callable[[float], float], ys: Sequence[float], sign: float = 1.0
           ) -> tuple[list[float], float | None, list[tuple[float, float]]]:
    """``fn`` evaluated once at each of ``ys``: the values, the first one
    that is not finite (or None), and the pairs (y_lo, y_hi), y_lo < y_hi,
    over which ``sign`` times the value rises by more than PROBE_TOL (none
    when a value is not finite: NaN would pass every comparison)."""
    values = [fn(y) for y in ys]
    bad = next((v for v in values if not math.isfinite(v)), None)
    pts = list(zip(ys, values)) if bad is None else []
    return values, bad, [(y0, y1) for y0, g0 in pts for y1, g1 in pts
                         if y0 < y1 and sign * (g1 - g0) > PROBE_TOL]


def _root_find(phi: Callable[[float], float], x0: float, tol: float) -> float:
    """Root of a strictly increasing phi: cheap exact probes, then bisection.

    The first probe is exact for y-independent generators, the secant step
    for affine ones; everything else falls back to bracket expansion (at
    most 64 doublings) and bisection.  `tol` is the documented residual
    ceiling; the search itself runs to a few ulps in y (residual roughly
    machine epsilon times the local slope), so that comparison and
    monotonicity properties hold far inside the stated tolerances.  Stiff
    generators (penalty weights ~1e6) can make even `tol` unreachable in
    float64 near the kink; the ulp-width stall guard keeps the root exact
    in y regardless.
    """
    f0 = phi(x0)
    if not math.isfinite(f0):
        raise BracketingError(f"residual not finite at {x0}")

    def tight(x: float) -> float:
        return min(tol, 4e-15 * max(1.0, abs(x)))

    if abs(f0) <= tight(x0):
        return x0
    x1 = x0 - f0
    f1 = phi(x1)
    if abs(f1) <= tight(x1):
        return x1
    if f1 != f0:
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        f2 = phi(x2)
        if abs(f2) <= tight(x2):
            return x2
    else:
        x2, f2 = x1, f1

    lo = hi = None
    for x, f in ((x0, f0), (x1, f1), (x2, f2)):
        if f <= 0.0 and (lo is None or x > lo):
            lo = x
        if f >= 0.0 and (hi is None or x < hi):
            hi = x
    step = max(1.0, abs(x0)) * 0.5
    anchor = x0
    expansions = 0
    while lo is None or hi is None:
        if expansions >= 64:
            raise BracketingError(
                "no sign change after 64 interval expansions; "
                "generator is likely not decreasing in y"
            )
        expansions += 1
        if lo is None:
            probe = (hi if hi is not None else anchor) - step
            if phi(probe) <= 0.0:
                lo = probe
        if hi is None:
            probe = (lo if lo is not None else anchor) + step
            if phi(probe) >= 0.0:
                hi = probe
        step *= 2.0

    while True:
        mid = 0.5 * (lo + hi)
        fm = phi(mid)
        if abs(fm) <= tight(mid):
            return mid
        if hi - lo <= 4e-16 * max(1.0, abs(lo), abs(hi)):
            return mid
        if fm > 0.0:
            hi = mid
        else:
            lo = mid


@np.errstate(all="ignore")   # quiet like float arithmetic: overflow gives inf
def _root_find_batch(
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray], x0: np.ndarray, tol: float
) -> np.ndarray:
    """:func:`_root_find` on every element of the 1-D float64 array ``x0``.

    ``phi(x, idx)`` returns the residuals of the elements ``idx`` (an index
    array into ``x0``) at the points ``x``.  Each element takes the scalar
    finder's path, with the same probe, secant step, bracket expansion,
    bisection and stall guard, so every root equals the scalar root bit for
    bit; an element leaves the active set as soon as it is done.  Raises
    BracketingError wherever the scalar finder would raise for some element.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    root = np.empty_like(x0)
    idx = np.arange(x0.size)

    def tight(x):   # fmin/fmax pass over a NaN, as the scalar min/max do
        return np.fmin(tol, 4e-15 * np.fmax(1.0, np.abs(x)))

    def retire(done, x, *active):
        """Store ``x`` as the root of the done elements and return the
        ``active`` arrays cut to the elements still running."""
        nonlocal idx
        root[idx[done]] = x[done]
        keep = ~done
        idx = idx[keep]
        return [a[keep] for a in active]

    f0 = phi(x0, idx)
    bad = ~np.isfinite(f0)
    if bad.any():
        raise BracketingError(f"residual not finite at {float(x0[bad][0])}")
    x0, f0 = retire(np.abs(f0) <= tight(x0), x0, x0, f0)
    x1 = x0 - f0
    f1 = phi(x1, idx)
    x0, f0, x1, f1 = retire(np.abs(f1) <= tight(x1), x1, x0, f0, x1, f1)
    x2, f2 = x1.copy(), f1.copy()
    sec = np.flatnonzero(f1 != f0)
    x2[sec] = x1[sec] - f1[sec] * (x1[sec] - x0[sec]) / (f1[sec] - f0[sec])
    f2[sec] = phi(x2[sec], idx[sec])
    x0, f0, x1, f1, x2, f2 = retire(np.abs(f2) <= tight(x2), x2,
                                    x0, f0, x1, f1, x2, f2)
    if not idx.size:
        return root

    # f0 is finite, so each element has one end of its bracket already
    lo, hi = np.zeros(x0.size), np.zeros(x0.size)
    has_lo, has_hi = np.zeros(x0.size, bool), np.zeros(x0.size, bool)
    for x, f in ((x0, f0), (x1, f1), (x2, f2)):
        take = (f <= 0.0) & (~has_lo | (x > lo))
        lo[take], has_lo[take] = x[take], True
        take = (f >= 0.0) & (~has_hi | (x < hi))
        hi[take], has_hi[take] = x[take], True
    step = np.fmax(1.0, np.abs(x0)) * 0.5
    for expansions in range(65):
        seek = np.flatnonzero(~(has_lo & has_hi))
        if not seek.size:
            break
        if expansions == 64:
            raise BracketingError(
                "no sign change after 64 interval expansions; "
                "generator is likely not decreasing in y"
            )
        down = ~has_lo[seek]
        probe = np.where(down, hi[seek] - step[seek], lo[seek] + step[seek])
        f = phi(probe, idx[seek])
        take = down & (f <= 0.0)
        lo[seek[take]], has_lo[seek[take]] = probe[take], True
        take = ~down & (f >= 0.0)
        hi[seek[take]], has_hi[seek[take]] = probe[take], True
        step *= 2.0

    while idx.size:
        mid = 0.5 * (lo + hi)
        fm = phi(mid, idx)
        done = (np.abs(fm) <= tight(mid)) | (
            hi - lo <= 4e-16 * np.fmax(np.fmax(1.0, np.abs(lo)), np.abs(hi)))
        up = fm > 0.0
        lo, hi = retire(done, mid, np.where(up, lo, mid), np.where(up, mid, hi))
    return root


def implicit_step(
    e_next: float,
    g: Callable[[int, float], float],
    t: int,
    dv: float,
    dt: float,
    tol: float = RESIDUAL_TOL,
) -> float:
    """Solve y = e_next + g(t, y) dt + dv for the unique root y*.

    Requires g decreasing in y; raises BracketingError otherwise (after the
    64-fold interval expansion gives up).
    """
    target = e_next + dv
    return _root_find(lambda y: y - g(t, y) * dt - target, target, tol)


@dataclass(frozen=True)
class ScalarRBSDEProblem:
    """Terminal data, generator, drift increments, and optional barriers.

    ``terminal`` maps leaf index -> value.  ``generator(t, nodes, y)`` takes
    a time index, an array of node indices at that time and an array of
    trial values, one per node, and returns the values as an array of that
    shape or a scalar (the tree's f(t, omega, y); see
    :func:`orbsde.oblique.mode_problem`).  Either barrier may be absent; when
    both are present they must be ordered (L <= U everywhere,
    L_T <= xi <= U_T).  :meth:`validate` rejects NaN or infinite data, and
    probes the generator for finite values and monotonicity in y at every
    node before the horizon, one finding per time index.
    """

    tree: EventTree
    terminal: Mapping[int, float]
    generator: GeneratorFn
    v_increments: PredictableIncrements | None = None
    lower: AdaptedProcess | None = None
    upper: AdaptedProcess | None = None

    def v(self) -> PredictableIncrements:
        return (
            self.v_increments
            if self.v_increments is not None
            else PredictableIncrements.zero(self.tree)
        )

    def validate(self) -> list[Violation]:
        out: list[Violation] = []
        tree = self.tree
        if not tree.dt > 0.0:
            out.append(Violation("dt", "step length must be positive"))
        elif not math.isfinite(tree.dt):
            out.append(Violation("non-finite", f"dt = {tree.dt}"))
        for leaf in tree.leaves:
            if leaf not in self.terminal:
                out.append(
                    Violation(
                        "terminal", "missing terminal value", tree.node(leaf).node_id
                    )
                )
        non_finite = self._non_finite_data()
        if non_finite:
            return out + non_finite
        for n in tree.nodes:
            lo = self.lower.values[n.index] if self.lower is not None else None
            hi = self.upper.values[n.index] if self.upper is not None else None
            if lo is not None and hi is not None and lo > hi:
                out.append(
                    Violation(
                        "barrier-order",
                        f"lower {lo} above upper {hi}",
                        n.node_id,
                        n.t,
                    )
                )
            if n.is_leaf and n.index in self.terminal:
                xi = self.terminal[n.index]
                if lo is not None and xi < lo - 1e-12:
                    out.append(
                        Violation(
                            "terminal-sandwich",
                            f"terminal {xi} below barrier {lo}",
                            n.node_id,
                            n.t,
                        )
                    )
                if hi is not None and xi > hi + 1e-12:
                    out.append(
                        Violation(
                            "terminal-sandwich",
                            f"terminal {xi} above barrier {hi}",
                            n.node_id,
                            n.t,
                        )
                    )
        for t in range(tree.n_steps):  # the first finding per time index
            nodes = np.array(tree.level(t))
            table = np.array([
                np.broadcast_to(self.generator(t, nodes, np.full(nodes.size, y)),
                                nodes.shape)
                for y in _MONOTONE_PROBE_YS
            ]).T.tolist()
            for n, values in zip(map(tree.node, tree.level(t)), table):
                at = dict(zip(_MONOTONE_PROBE_YS, values))
                _, bad, rises = _probe(at.__getitem__, _MONOTONE_PROBE_YS)
                if bad is not None or rises:
                    code, what = (("non-finite", f"= {bad} at a probe point")
                                  if bad is not None else
                                  ("generator-monotone", f"increases in y near {rises[0]}"))
                    out.append(Violation(code, f"generator {what}", n.node_id, t))
                    break
        return out

    def _non_finite_data(self) -> list[Violation]:
        """The barrier values, terminal values and v increments that are NaN
        or infinite; a v increment is reported at the node that decides it."""
        v = self.v()
        out: list[Violation] = []
        for n in self.tree.nodes:
            data = [(name, barrier.values[n.index])
                    for name, barrier in (("L", self.lower), ("U", self.upper))
                    if barrier is not None]
            if n.children:
                data.append(("dV", v.out_of(n.index)))
            if n.is_leaf and n.index in self.terminal:
                data.append(("xi", self.terminal[n.index]))
            out.extend(Violation("non-finite", f"{name} = {val}", n.node_id, n.t)
                       for name, val in data if not math.isfinite(val))
        return out


@dataclass(frozen=True)
class ScalarSolution:
    """(Y, dM, K, A): value process, per-edge martingale increments, and the
    predictable reflecting increments (both >= 0, on the edges out of the
    parent they act at)."""

    y: AdaptedProcess
    m_increments: tuple[float, ...]
    k: PredictableIncrements
    a: PredictableIncrements


@dataclass(frozen=True)
class PenalizationParams:
    """Lower/upper penalty weights; both nonnegative."""

    p: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("penalty weights must be nonnegative")


@dataclass(frozen=True)
class PenalizedSolution:
    """Solution-shaped output of the penalized scheme.

    The ``k``/``a`` slots hold the penalty integrals p(L-Y)^+ dt and
    q(Y-U)^+ dt per edge instead of projection pushes, and the masses are
    their expected totals.  There is no flat-off property here; the scheme
    approaches the projected solution only as p, q grow.
    """

    y: AdaptedProcess
    m_increments: tuple[float, ...]
    k: PredictableIncrements
    a: PredictableIncrements
    lower_mass: float
    upper_mass: float


def _project(
    phi: Callable[[float], float],
    target: float,
    lo: float | None,
    hi: float | None,
) -> tuple[float, float, float]:
    """One node's implicit step projected into [lo, hi] (either side may be
    absent): returns (Y_u, dK, dA) with the pushes taken as the positive and
    negative parts of the residual ``phi`` at the projected value."""
    ystar = _root_find(phi, target, RESIDUAL_TOL)
    if lo is not None and ystar < lo:
        return lo, max(0.0, phi(lo)), 0.0
    if hi is not None and ystar > hi:
        return hi, 0.0, max(0.0, -phi(hi))
    return ystar, 0.0, 0.0


def _backward_solve(
    tree: EventTree,
    terminal: Mapping[int, Sequence[float]],
    dv: Sequence[PredictableIncrements],
    step: Callable[[int, np.ndarray, np.ndarray], tuple],
) -> tuple[ScalarSolution, ...]:
    """The package's one backward walk, over ``len(dv)`` columns, one level
    at a time.

    Leaves take the row ``terminal[leaf]``.  At level t, with ``parents``
    the level's parents (``tree.arrays.parents[t]``, descending index order)
    and ``targets[i, j] = E[Y^j_{t+1} | parents[i]] + dV^j`` (the children
    summed in index order, as :func:`orbsde.tree.one_step_expectation`
    does), ``step(t, parents, targets)`` returns the arrays Y, dK and dA of
    the level, each of the shape of ``targets``.  Returns one
    ScalarSolution per column.
    """
    arrays = tree.arrays
    n, cols = tree.n_nodes, len(dv)
    y, k, a, m = (np.zeros((n, cols)) for _ in range(4))
    y[list(tree.leaves)] = [terminal[leaf] for leaf in tree.leaves]
    dv_in = np.array([inc.values for inc in dv]).T   # on the edge into a node
    for t in range(tree.n_steps - 1, -1, -1):
        parents = arrays.parents[t]
        first = arrays.child_ptr[parents]
        count = arrays.child_ptr[parents + 1] - first
        e = np.zeros((parents.size, cols))
        slots = []   # the k-th children of the parents that have one
        for slot in range(count.max(initial=0)):
            rows = np.flatnonzero(count > slot)
            kids = arrays.child_index[first[rows] + slot]
            e[rows] += arrays.child_prob[first[rows] + slot, None] * y[kids]
            slots.append((rows, kids))
        level_y, dk, da = step(t, parents, e + dv_in[arrays.child_index[first]])
        y[parents] = level_y
        for rows, kids in slots:
            k[kids], a[kids], m[kids] = dk[rows], da[rows], y[kids] - e[rows]
    return tuple(
        ScalarSolution(AdaptedProcess(tree, tuple(y[:, j].tolist())),
                       tuple(m[:, j].tolist()),
                       PredictableIncrements(tree, tuple(k[:, j].tolist())),
                       PredictableIncrements(tree, tuple(a[:, j].tolist())))
        for j in range(cols)
    )


def _solve_columns(
    problem: ScalarRBSDEProblem, cols: int, step: Callable[..., tuple]
) -> tuple[ScalarSolution, ...]:
    """The walk over ``cols`` columns that all start from the problem's
    terminal values and carry its drift."""
    rows = {leaf: (problem.terminal[leaf],) * cols for leaf in problem.tree.leaves}
    return _backward_solve(problem.tree, rows, (problem.v(),) * cols, step)


def _positive(x: np.ndarray) -> np.ndarray:
    """``max(0.0, x)`` elementwise as Python computes it: NaN and -0.0
    give 0.0."""
    return np.where(x > 0.0, x, 0.0)


def _require_valid(problem: ScalarRBSDEProblem) -> None:
    report = problem.validate()
    if report:
        raise InvalidProblemError(report)


def _solve_projected(problem: ScalarRBSDEProblem) -> ScalarSolution:
    """The validated problem with each level's implicit steps projected
    into whichever barriers it has, as :func:`_project` projects one node's
    step."""
    _require_valid(problem)
    g, dt = problem.generator, problem.tree.dt
    lower, upper = (None if b is None else np.array(b.values)
                    for b in (problem.lower, problem.upper))

    def step(t: int, parents: np.ndarray, targets: np.ndarray):
        target = targets[:, 0]

        def phi(x, idx):
            return x - g(t, parents[idx], x) * dt - target[idx]

        y = _root_find_batch(phi, target, RESIDUAL_TOL)
        lo = lower[parents] if lower is not None else np.full(y.size, -np.inf)
        hi = upper[parents] if upper is not None else np.full(y.size, np.inf)
        below = np.flatnonzero(y < lo)
        above = np.flatnonzero((y > hi) & ~(y < lo))
        dk, da = np.zeros(y.size), np.zeros(y.size)
        dk[below] = _positive(phi(lo[below], below))
        da[above] = _positive(-phi(hi[above], above))
        y[below], y[above] = lo[below], hi[above]
        return y[:, None], dk[:, None], da[:, None]

    return _solve_columns(problem, 1, step)[0]


def solve_lower(problem: ScalarRBSDEProblem) -> ScalarSolution:
    """Reflect upward off the lower barrier only (A identically zero)."""
    if problem.upper is not None:
        raise ValueError("solve_lower expects a problem with no upper barrier")
    if problem.lower is None:
        raise ValueError("solve_lower expects a lower barrier")
    return _solve_projected(problem)


def solve_upper(problem: ScalarRBSDEProblem) -> ScalarSolution:
    """Reflect downward off the upper barrier only (K identically zero).

    Mirror identity: (Y, M, A) solves the upper problem for (xi, g, V, U)
    exactly when (-Y, -M, A) solves the lower problem for
    (-xi, -g(., -.), -V, -U).  The kernel's root finder is sign-symmetric,
    so the two solves agree bit for bit; the tests check this.
    """
    if problem.lower is not None:
        raise ValueError("solve_upper expects a problem with no lower barrier")
    if problem.upper is None:
        raise ValueError("solve_upper expects an upper barrier")
    return _solve_projected(problem)


def solve_two_barrier(problem: ScalarRBSDEProblem) -> ScalarSolution:
    """Project each implicit step into [L, U]; pushes split into K and A."""
    if problem.lower is None or problem.upper is None:
        raise ValueError("solve_two_barrier expects both barriers")
    return _solve_projected(problem)


def solve_penalized(
    problem: ScalarRBSDEProblem, params: PenalizationParams
) -> PenalizedSolution:
    """Replace the projections by penalty drifts p(L-y)^+ - q(y-U)^+.

    The augmented generator stays decreasing in y, so the same implicit
    machinery applies with no projection.  Values are nondecreasing in p and
    nonincreasing in q, and approach the two-barrier solution as both grow.
    """
    if params.p > 0 and problem.lower is None:
        raise ValueError("lower penalty needs a lower barrier")
    if params.q > 0 and problem.upper is None:
        raise ValueError("upper penalty needs an upper barrier")
    _require_valid(problem)
    return _penalized_solve(problem, [params.p], [params.q])[0]


def _penalized_solve(
    problem: ScalarRBSDEProblem, p: Sequence[float], q: Sequence[float]
) -> tuple[PenalizedSolution, ...]:
    """The penalized scheme on a problem taken as valid, for every weight
    pair ``(p[i], q[i])`` at once: one walk whose column i is pair i, each
    level's implicit steps one :func:`_root_find_batch`.  A weight of zero
    drops its penalty term, and a barrier the problem lacks drops it too.
    """
    tree, g, dt = problem.tree, problem.generator, problem.tree.dt
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    lower, upper = (None if b is None else np.array(b.values)
                    for b in (problem.lower, problem.upper))

    def step(t: int, parents: np.ndarray, targets: np.ndarray):
        # column-major: pair by pair, each pair over the level's parents
        nodes = np.tile(parents, p.size)
        pw, qw = np.repeat(p, parents.size), np.repeat(q, parents.size)
        target = targets.T.ravel()

        def penalized(x, idx):
            val = g(t, nodes[idx], x)
            if lower is not None:
                val = np.where(pw[idx] > 0, val + pw[idx] * _positive(
                    lower[nodes[idx]] - x), val)
            if upper is not None:
                val = np.where(qw[idx] > 0, val - qw[idx] * _positive(
                    x - upper[nodes[idx]]), val)
            return val

        def phi(x, idx):
            return x - penalized(x, idx) * dt - target[idx]

        y = _root_find_batch(phi, target, RESIDUAL_TOL)
        dk = (np.where(pw > 0, pw * _positive(lower[nodes] - y) * dt, 0.0)
              if lower is not None else np.zeros(y.size))
        da = (np.where(qw > 0, qw * _positive(y - upper[nodes]) * dt, 0.0)
              if upper is not None else np.zeros(y.size))
        return (a.reshape(p.size, parents.size).T for a in (y, dk, da))

    solutions = _solve_columns(problem, p.size, step)
    # the masses: sums over the parents in index order, one term at a time
    parents = [n.index for n in tree.nodes if not n.is_leaf]
    first_kids = tree.arrays.child_index[tree.arrays.child_ptr[parents]]
    masses = []
    for field in ("k", "a"):
        out = np.array([getattr(s, field).values for s in solutions])[:, first_kids]
        mass = np.zeros(p.size)
        for u, column in zip(parents, out.T):
            mass += tree.node_probability(u) * column
        masses.append(mass.tolist())
    return tuple(
        PenalizedSolution(s.y, s.m_increments, s.k, s.a, lower_mass, upper_mass)
        for s, lower_mass, upper_mass in zip(solutions, *masses)
    )


def verify_snell_representation(
    problem: ScalarRBSDEProblem,
    solution: ScalarSolution,
    max_depth: int = 4,
    max_count: int = 10**6,
) -> float:
    """Check the optimal-stopping representation of a reflected solution.

    At every node u the solved value must equal the best stopped payoff

        max over stopping times s of
        E[ sum g(r, Y_r) dt + sum (dV - dA) + L_s 1{s<T} + xi 1{s=T} | u ],

    where the generator is frozen along the solver's own path values (the
    representation is implicit in Y) and the A-increments are folded into
    the drift when an upper barrier was active.  Returns the largest |gap|
    over nodes, NaN if a stopped payoff is NaN; exact up to roundoff for
    solver output.  One mode of a coupled system is checked through its
    :func:`orbsde.oblique.mode_problem`, whose generator reads the other
    components at the node.
    """
    if problem.lower is None:
        raise ValueError("representation check needs a lower barrier")
    tree = problem.tree
    dt = tree.dt
    g = problem.generator
    y = solution.y.values
    dv = problem.v()
    da = solution.a
    lower = problem.lower.values
    rates = [0.0] * tree.n_nodes   # a leaf is always stopped
    y_at = np.array(y)
    for t in range(tree.n_steps):
        nodes = np.array(tree.level(t))
        at = np.broadcast_to(g(t, nodes, y_at[nodes]), nodes.shape)
        for u, rate in zip(tree.level(t), at.tolist()):
            rates[u] = rate

    def stopped_value(st, u: int) -> float:
        node = tree.node(u)
        if u in st.stopped:
            return float(problem.terminal[u]) if node.is_leaf else lower[u]
        acc = rates[u] * dt
        for c in node.children:
            acc += tree.node(c).prob * (
                dv.values[c] - da.values[c] + stopped_value(st, c)
            )
        return acc

    worst = 0.0
    for start in range(tree.n_nodes):
        best = functools.reduce(_worse, (
            stopped_value(st, start)
            for st in enumerate_stopping_times(tree, start, max_depth, max_count)
        ))
        worst = _worse(worst, abs(best - y[start]))
    return worst
