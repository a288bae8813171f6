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

``_backward_walk`` is the package's one backward walk.  It runs one
level at a time on the tree's arrays (``EventTree.arrays``) and carries
any number of columns: it sums each parent's children into the
conditional-expectation targets of the level, an ``(m, columns)`` array,
hands them to a step function and returns the ``(n_nodes, columns)``
arrays of values and pushes; ``_backward_solve`` wraps them as one
ScalarSolution per column.  The solvers here solve a level's implicit
steps with one batched root find (``_root_find_batch``): the projected
solves walk one column, projecting the roots into the barriers
(``_project``, which the oblique steps share), and the penalized
scheme walks one column per problem and weight pair (the penalty in the
generator and the penalty integrals as its pushes), so the (p, q)
ladders of several problems on one tree, every mode of a system for
``sweep-penalization``, are one walk.  :mod:`orbsde.oblique` walks all d
modes at once with its own level steps.  The scalar ``_root_find``
remains for :func:`implicit_step` and the strategy oracle's start-node
steps.

The batched finder bisects in blocks: while few elements are left
bisecting, one residual call evaluates the next (up to six) halvings of
each at the mids of its bracket's bisection tree, and each element then
walks down its tree as the scalar loop would; while many are, a call is
one halving of each, the scalar loop's own step.  A residual therefore gets
repeated indices and points past an element's root, and must be
elementwise.  ``_blockwise`` gives each problem's (or mode's) contiguous
block of elements to its own generator, for the residuals that span
several.

``_probe`` is the package's one generator probe; it reads values the
caller has taken.  :meth:`ScalarRBSDEProblem.validate` gives it g's values
at every node before the horizon, :mod:`orbsde.oblique` those of one call
per system generator and time index.  Both problem validators also share one
data check: the data as ``(n_nodes, d)`` columns (d = 1 here), scanned for
NaN and infinity with one argwhere (``_note_non_finite``), and orderings
as array comparisons, each finding named from the tree's columns by
``_Findings``, which :func:`orbsde.oblique.verify_minimality` uses too.
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
    LeafRows,
    PredictableIncrements,
    _read_only,
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


def _probe(values: Sequence[float], ys: Sequence[float], sign: float = 1.0
           ) -> tuple[float | None, list[tuple[float, float]]]:
    """Of a function's ``values`` at ``ys``: the first value that is not
    finite (or None), and the pairs (y_lo, y_hi), y_lo < y_hi, over which
    ``sign`` times the value rises by more than PROBE_TOL (none when a
    value is not finite: NaN would pass every comparison)."""
    bad = next((v for v in values if not math.isfinite(v)), None)
    pts = list(zip(ys, values)) if bad is None else []
    return bad, [(y0, y1) for y0, g0 in pts for y1, g1 in pts
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

    Bisection runs in blocks: one ``phi`` call evaluates the next k
    halvings of every element still bisecting, at the 2^k - 1 mids of its
    bracket's depth-k bisection tree in ascending order
    (:func:`_bisection_edges`), and each
    element then walks down its tree as the scalar loop would, finishing
    at the node where the scalar loop returns.  k is the deepest tree, at
    most 6 levels, that keeps a call at 1,024 points (:func:`_block_depth`),
    so a long tail of few elements costs about a sixth of the calls.  With
    more than 341 elements bisecting k is 1, and a call is the scalar
    loop's own step on each element (the mid, its exit tests and the new
    bracket), with no tree to build or walk.  ``idx`` is therefore
    non-decreasing but may repeat an element, once per point of its tree,
    and ``phi`` sees points beyond where an element stops.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    root = np.empty_like(x0)
    idx = np.arange(x0.size)

    def tight(x):   # fmin/fmax pass over a NaN, as the scalar min/max do
        return np.fmin(tol, 4e-15 * np.fmax(1.0, np.abs(x)))

    def retire(done, x, *active):
        """Store ``x`` as the root of the done elements and return the
        ``active`` arrays cut to the elements still running (the arrays
        themselves when none is done)."""
        nonlocal idx
        if not done.any():
            return active
        root[idx[done]] = x[done]
        keep = ~done
        idx = idx[keep]
        return [a[keep] for a in active]

    f0 = phi(x0, idx)
    if not np.isfinite(f0).all():
        bad = float(x0[~np.isfinite(f0)][0])
        raise BracketingError(f"residual not finite at {bad}")
    x0, f0 = retire(np.abs(f0) <= tight(x0), x0, x0, f0)
    if not idx.size:   # every probe exact: no residual call on empty arrays
        return root
    x1 = x0 - f0
    f1 = phi(x1, idx)
    x0, f0, x1, f1 = retire(np.abs(f1) <= tight(x1), x1, x0, f0, x1, f1)
    if not idx.size:
        return root
    # the secant step where f1 != f0, elsewhere (x2, f2) = (x1, f1); with
    # every element stepping (the common case) the points are not copied
    sec = f1 != f0
    x2 = np.where(sec, x1 - f1 * (x1 - x0) / (f1 - f0), x1)
    if sec.all():
        f2 = phi(x2, idx)
    else:
        f2, sec = f1.copy(), np.flatnonzero(sec)
        if sec.size:
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
        depth = _block_depth(idx.size)
        if depth == 1:   # one halving per call: the scalar loop's own step
            mid = 0.5 * (lo + hi)
            fm = phi(mid, idx)
            # the bracket's larger magnitude is max(-lo, hi) when lo <= hi;
            # otherwise hi - lo < 0 and the stall guard holds either way
            stop = (np.abs(fm) <= tight(mid)) | (
                hi - lo <= 4e-16 * np.fmax(np.fmax(1.0, -lo), hi))
            down = fm > 0.0
            lo, hi = retire(stop, mid, np.where(down, lo, mid), np.where(down, mid, hi))
            continue
        edges = _bisection_edges(lo, hi, depth)
        mids = edges[:, 1:-1]
        fs = phi(mids.ravel(), np.repeat(idx, mids.shape[1])).reshape(mids.shape)
        # the scalar loop's exit tests and its step at every mid, by column
        below, above = _node_brackets(depth)
        tree_lo, tree_hi = edges[:, below], edges[:, above]
        stop, down = np.zeros(edges.shape, bool), np.zeros(edges.shape, bool)
        stop[:, 1:-1] = (np.abs(fs) <= tight(mids)) | (tree_hi - tree_lo <= 4e-16 * (
            np.fmax(np.fmax(1.0, np.abs(tree_lo)), np.abs(tree_hi))))
        # f > 0 takes the lower half; anything else, NaN included, the upper
        down[:, 1:-1] = fs > 0.0
        stop, down, flat = stop.ravel(), down.ravel(), edges.ravel()
        # each element down its tree, its bracket's lower end a flat column
        left = np.arange(idx.size) * edges.shape[1]
        path = np.empty((depth, idx.size), dtype=np.intp)
        for level in range(depth):
            path[level] = mid = left + 2 ** (depth - 1 - level)
            left = np.where(down[mid], left, mid)
        stops = stop[path]   # an element ends at the first mid on its path that stops
        end = path[stops.argmax(axis=0), np.arange(idx.size)]
        lo, hi = retire(stops.any(axis=0), flat[end], flat[left], flat[left + 1])
    return root


# halvings per residual call while bisecting: the deepest bisection tree of
# at most _BLOCK_DEPTH levels whose mids, over every element still
# bisecting, number at most _BLOCK_POINTS
_BLOCK_DEPTH = 6
_BLOCK_POINTS = 1024


def _block_depth(n: int) -> int:
    """The largest k <= _BLOCK_DEPTH with n (2^k - 1) <= _BLOCK_POINTS, and
    at least 1."""
    return max(1, min(_BLOCK_DEPTH, (_BLOCK_POINTS // n + 1).bit_length() - 1))


def _bisection_edges(lo: np.ndarray, hi: np.ndarray, depth: int) -> np.ndarray:
    """Each bracket's depth-``depth`` bisection tree as the ``(n, 2^depth +
    1)`` array of its nodes' ends and mids in ascending order: column 0 is
    lo, column 2^depth is hi, and column q between them is the mid of the
    node bracketed by columns q - h and q + h, h the lowest set bit of q,
    computed as ``0.5 * (lo + hi)`` of that bracket.  The node's lower half
    is the node at q - h/2 and its upper half the node at q + h/2."""
    edges = np.empty((lo.size, 2**depth + 1))
    edges[:, 0], edges[:, -1] = lo, hi
    for level in range(depth):
        step = 2 ** (depth - level)   # the width of a level's brackets
        mid = edges[:, step // 2::step]
        np.add(edges[:, :-1:step], edges[:, step::step], out=mid)
        np.multiply(0.5, mid, out=mid)
    return edges


@functools.lru_cache(maxsize=None)
def _node_brackets(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns of the lower and upper end of the bracket of the node
    at each mid column 1, ..., 2^depth - 1 of :func:`_bisection_edges`."""
    q = np.arange(1, 2**depth)
    below, above = q - (q & -q), q + (q & -q)
    below.flags.writeable = above.flags.writeable = False
    return below, above


def _blockwise(fns: Sequence[Callable], block: int, x: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
    """A residual's values over elements in contiguous blocks of ``block``,
    block b (elements ``b * block`` to ``(b + 1) * block - 1``) owned by
    ``fns[b]``: ``fns[b](x, idx)`` at the ascending ``idx`` in that block,
    one call per block that has any, as one array (a lone block's own
    result)."""
    if len(fns) == 1:
        return fns[0](x, idx)
    out = np.empty(x.size)
    at = np.searchsorted(idx, np.arange(len(fns) + 1) * block).tolist()
    for fn, a, b in zip(fns, at, at[1:]):
        if b > a:
            out[a:b] = fn(x[a:b], idx[a:b])
    return out


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


class _Findings:
    """Violations found at the true entries of arrays over (row, mode, ...),
    each named from the tree's id and time columns (no :class:`Node` is
    made), and listed by node, then mode, then check rank, then named node,
    then the remaining axes.  Without ``modes`` (the scalar problem, the
    one-mode case) a violation names no mode."""

    def __init__(self, tree: EventTree, modes: bool = True):
        self.ids, self.time, self.modes = tree.ids, tree.arrays.time, modes
        self._found: list[tuple[tuple, Violation]] = []

    def add(self, key: tuple, violation: Violation) -> None:
        self._found.append((key, violation))

    def note(self, check: int, code: str, bad: np.ndarray,
             message: Callable[..., str], rows=None, at=None) -> None:
        """Note each true entry ``(i, j, ...)`` of ``bad`` with rank
        ``check`` and message ``message(i, j, ...)``.  Row i is node
        ``rows[i]`` (node i when ``rows`` is None), which the violation
        names unless ``at[i]`` names another."""
        for i, j, *rest in np.argwhere(bad).tolist():
            u = i if rows is None else int(rows[i])
            named = u if at is None else int(at[i])
            self.add((u, j, check, *rest, named),
                     Violation(code, message(i, j, *rest), self.ids[named],
                               int(self.time[named]), j if self.modes else None))

    def take(self) -> list[Violation]:
        """The violations noted so far, in key order; forgets them."""
        found, self._found = self._found, []
        return [violation for _, violation in sorted(found, key=lambda f: f[0])]


def _leaf_entries(
    tree: EventTree, terminal: Mapping
) -> tuple[np.ndarray, np.ndarray, "list | np.ndarray"]:
    """The leaves that have an entry in ``terminal`` and those that have
    none (both ascending), and the entries in leaf order; keys that are
    not leaves are ignored.  A :class:`LeafRows` of ``tree`` has an entry
    at every leaf, and its entries are its array."""
    leaves = tree.arrays.leaves
    if isinstance(terminal, LeafRows) and terminal.tree is tree:
        return leaves, leaves[:0], terminal.rows
    has = np.fromiter(map(terminal.__contains__, tree.leaves), bool, leaves.size)
    given = leaves[has]
    return given, leaves[~has], list(map(terminal.__getitem__, given.tolist()))


def _leaf_array(tree: EventTree, terminal: Mapping) -> np.ndarray:
    """The entries of ``terminal`` at every leaf, in leaf order, as a float
    array: the array of a :class:`LeafRows` of ``tree``, or one looked up
    leaf by leaf."""
    if isinstance(terminal, LeafRows) and terminal.tree is tree:
        return terminal.rows
    return np.array([terminal[leaf] for leaf in tree.leaves], dtype=float)


def _note_non_finite(
    found: _Findings, tree: EventTree, columns: Mapping[str, np.ndarray],
    dv: np.ndarray, given: np.ndarray, xi: np.ndarray,
) -> None:
    """Note the problem data that are NaN or infinite: the ``(n_nodes, d)``
    ``columns`` at every node, the increments ``dv`` (on the edge into each
    node) at the parent that decides them, and the terminal rows ``xi`` at
    the leaves ``given``.  One argwhere, in (node, mode, datum) order; the
    message is ``name^j = value``, or ``name = value`` without modes."""
    arrays, n = tree.arrays, tree.n_nodes
    decided, at_leaves = np.zeros(dv.shape), np.zeros(dv.shape)
    decided[arrays.child_owner] = dv[arrays.child_first]   # a parent's first child
    at_leaves[given] = xi
    names = [*columns, "dV", "xi"]
    values = np.stack([*columns.values(), decided, at_leaves], axis=2)
    read = np.ones((n, len(names)), dtype=bool)   # where each datum is given
    read[:, -2] = np.diff(arrays.child_ptr) > 0
    read[:, -1] = False
    read[given, -1] = True
    bad = read[:, None, :] & ~np.isfinite(values)
    found.note(0, "non-finite", bad, lambda u, j, k: (
        f"{names[k]}{f'^{j}' if found.modes else ''} = {values[u, j, k]}"))


@dataclass(frozen=True)
class ScalarRBSDEProblem:
    """Terminal data, generator, drift increments, and optional barriers.

    ``terminal`` maps leaf index -> value (a :class:`LeafRows` of the tree
    is read as its array).  ``generator(t, nodes, y)`` takes
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
        given, missing, entries = _leaf_entries(tree, self.terminal)
        out.extend(Violation("terminal", "missing terminal value", tree.ids[u])
                   for u in missing.tolist())
        barriers = {name: b.values[:, None]
                    for name, b in (("L", self.lower), ("U", self.upper))
                    if b is not None}
        xi = np.array(entries, dtype=float)[:, None]
        found = _Findings(tree, modes=False)
        _note_non_finite(found, tree, barriers, self.v().values[:, None], given, xi)
        non_finite = found.take()
        if non_finite:
            return out + non_finite
        lo, hi = barriers.get("L"), barriers.get("U")
        if lo is not None and hi is not None:
            found.note(0, "barrier-order", lo > hi, lambda u, _: (
                f"lower {self.lower[u]} above upper {self.upper[u]}"))
        if lo is not None:
            found.note(1, "terminal-sandwich", xi < lo[given] - 1e-12, lambda i, _: (
                f"terminal {entries[i]} below barrier {self.lower[given[i]]}"),
                rows=given)
        if hi is not None:
            found.note(2, "terminal-sandwich", xi > hi[given] + 1e-12, lambda i, _: (
                f"terminal {entries[i]} above barrier {self.upper[given[i]]}"),
                rows=given)
        out.extend(found.take())
        for t in range(tree.n_steps):  # the first finding per time index
            level = tree.level(t)
            nodes = np.arange(level.start, level.stop)
            table = np.array([
                np.broadcast_to(self.generator(t, nodes, np.full(nodes.size, y)),
                                nodes.shape)
                for y in _MONOTONE_PROBE_YS
            ]).T.tolist()
            for u, values in zip(tree.level(t), table):
                bad, rises = _probe(values, _MONOTONE_PROBE_YS)
                if bad is not None or rises:
                    code, what = (("non-finite", f"= {bad} at a probe point")
                                  if bad is not None else
                                  ("generator-monotone", f"increases in y near {rises[0]}"))
                    out.append(Violation(code, f"generator {what}", tree.ids[u], t))
                    break
        return out


@dataclass(frozen=True)
class ScalarSolution:
    """(Y, dM, K, A): value process, per-edge martingale increments, and the
    predictable reflecting increments (both >= 0, on the edges out of the
    parent they act at)."""

    y: AdaptedProcess
    m_increments: np.ndarray
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
    m_increments: np.ndarray
    k: PredictableIncrements
    a: PredictableIncrements
    lower_mass: float
    upper_mass: float


def _backward_walk(
    tree: EventTree,
    terminal: np.ndarray,
    dv: np.ndarray,
    step: Callable[[int, np.ndarray, np.ndarray], tuple],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The package's one backward walk, over the columns of the
    ``(n_nodes, columns)`` array ``dv`` (the drift on the edge into each
    node), one level at a time.

    The leaves take the rows of ``terminal``, in leaf order.  At level t,
    with ``parents`` the level's parents (``tree.arrays.parents[t]``,
    descending index order) and ``targets[i, j] = E[Y^j_{t+1} | parents[i]]
    + dV^j`` (the children summed in index order, as
    :func:`orbsde.tree.one_step_expectation` does), ``step(t, parents,
    targets)`` returns the arrays Y, dK and dA of the level, each of the
    shape of ``targets``.  Returns the read-only
    ``(n_nodes, columns)`` arrays Y, dM, dK and dA, each increment on the
    edge into a node.
    """
    arrays = tree.arrays
    n, cols = dv.shape
    y, k, a, m = (np.zeros((n, cols)) for _ in range(4))
    y[arrays.leaves] = terminal
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
        level_y, dk, da = step(t, parents, e + dv[arrays.child_index[first]])
        y[parents] = level_y
        for rows, kids in slots:
            k[kids], a[kids], m[kids] = dk[rows], da[rows], y[kids] - e[rows]
    _read_only(y, m, k, a)
    return y, m, k, a


def _column(tree: EventTree, y, m, k, a, j: int) -> tuple:
    """Column j of the walk's arrays as the fields (Y, dM, dK, dA) of a
    solution, dM a read-only view."""
    return (AdaptedProcess(tree, y[:, j]), m[:, j], PredictableIncrements(tree, k[:, j]),
            PredictableIncrements(tree, a[:, j]))


def _backward_solve(
    tree: EventTree,
    terminal: Mapping[int, float | Sequence[float]],
    dv: Sequence[PredictableIncrements],
    step: Callable[[int, np.ndarray, np.ndarray], tuple],
) -> tuple[ScalarSolution, ...]:
    """:func:`_backward_walk` with leaf rows ``terminal[leaf]`` (one value
    per column; a float for one column) and one drift per column, one
    ScalarSolution per column."""
    xi = _leaf_array(tree, terminal).reshape(len(tree.leaves), len(dv))
    walk = _backward_walk(tree, xi, np.column_stack([inc.values for inc in dv]), step)
    return tuple(ScalarSolution(*_column(tree, *walk, j)) for j in range(len(dv)))


def _positive(x: np.ndarray) -> np.ndarray:
    """``max(0.0, x)`` elementwise as Python computes it: NaN and -0.0
    give 0.0."""
    return np.where(x > 0.0, x, 0.0)


def _project(
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray],
    y: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The roots ``y`` of a batch's implicit steps ``phi(x, idx) = 0`` (as
    :func:`_root_find_batch` finds them), projected into [``lo``, ``hi``]
    in place; -inf and inf stand for an absent barrier.  Returns the
    arrays (Y, dK, dA): a root below ``lo`` is lifted to it with
    dK = phi(lo)^+, and otherwise a root above ``hi`` is lowered to it
    with dA = (-phi(hi))^+, the pushes that make the step's identity exact
    at the projected value."""
    below = np.flatnonzero(y < lo)
    above = np.flatnonzero((y > hi) & ~(y < lo))
    dk, da = np.zeros(y.size), np.zeros(y.size)
    if below.size:
        dk[below] = _positive(phi(lo[below], below))
    if above.size:
        da[above] = _positive(-phi(hi[above], above))
    y[below], y[above] = lo[below], hi[above]
    return y, dk, da


def _require_valid(problem: ScalarRBSDEProblem) -> None:
    report = problem.validate()
    if report:
        raise InvalidProblemError(report)


def _solve_projected(problem: ScalarRBSDEProblem) -> ScalarSolution:
    """The validated problem with each level's implicit steps projected
    into whichever barriers it has (:func:`_project`)."""
    _require_valid(problem)
    g, dt = problem.generator, problem.tree.dt
    lower, upper = (np.full(problem.tree.n_nodes, bound) if b is None else b.values
                    for b, bound in ((problem.lower, -np.inf), (problem.upper, np.inf)))

    def step(t: int, parents: np.ndarray, targets: np.ndarray):
        target = targets[:, 0]

        def phi(x, idx):
            return x - g(t, parents[idx], x) * dt - target[idx]

        y, dk, da = _project(phi, _root_find_batch(phi, target, RESIDUAL_TOL),
                             lower[parents], upper[parents])
        return y[:, None], dk[:, None], da[:, None]

    return _backward_solve(problem.tree, problem.terminal, (problem.v(),), step)[0]


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
    return _penalized_solve([problem], [params.p], [params.q]).solution(0)


@dataclass(frozen=True)
class _PenalizedColumns:
    """The penalized scheme's walk on ``tree``: the ``(n_nodes, columns)``
    arrays Y, dM and the penalty integrals dK and dA.  Each column's masses
    are computed on first use."""

    tree: EventTree
    y: np.ndarray
    m: np.ndarray
    k: np.ndarray
    a: np.ndarray

    def _masses(self, pushes: np.ndarray) -> np.ndarray:
        """Each column's expected total of ``pushes``: a sum over the
        parents in index order, one term at a time."""
        ptr = self.tree.arrays.child_ptr
        parents = np.flatnonzero(np.diff(ptr) > 0)
        rows = pushes[self.tree.arrays.child_index[ptr[parents]]]
        mass = np.zeros(pushes.shape[1])
        for w, row in zip(self.tree.node_probabilities(parents).tolist(), rows):
            mass += w * row
        return mass

    @functools.cached_property
    def lower_mass(self) -> np.ndarray:
        return self._masses(self.k)

    @functools.cached_property
    def upper_mass(self) -> np.ndarray:
        return self._masses(self.a)

    def solution(self, j: int) -> PenalizedSolution:
        """Column j as a PenalizedSolution."""
        return PenalizedSolution(*_column(self.tree, self.y, self.m, self.k, self.a, j),
                                 float(self.lower_mass[j]), float(self.upper_mass[j]))


def _penalized_solve(
    problems: Sequence[ScalarRBSDEProblem], p: Sequence[float], q: Sequence[float]
) -> _PenalizedColumns:
    """The penalized scheme on problems taken as valid, all on one tree,
    for every weight pair ``(p[i], q[i])`` at once: one walk whose columns
    go problem by problem, then pair by pair (column ``b * len(p) + i`` is
    pair i of problem b).  Each level's implicit steps are one
    :func:`_root_find_batch`, whose residual hands each problem's
    contiguous block of elements to that problem's generator and reads
    each element's barriers and weights from arrays gathered once per
    level.  A weight of zero drops its penalty term, and a barrier the
    problem lacks drops it too.  The masses are computed only when a
    column is asked for as a PenalizedSolution.
    """
    tree, dt = problems[0].tree, problems[0].tree.dt
    pairs, cols = len(p), len(problems) * len(p)

    def by_problem(barriers: list, weights: Sequence[float]) -> tuple:
        """The barriers as a ``(problems, n_nodes)`` array and each column's
        weight, zero where its problem lacks the barrier; None and None if
        no problem has one."""
        if all(b is None for b in barriers):
            return None, None
        weights = np.asarray(weights, dtype=np.float64)
        return (np.stack([np.zeros(tree.n_nodes) if b is None else b.values
                          for b in barriers]),
                np.concatenate([np.zeros(pairs) if b is None else weights
                                for b in barriers]))

    lower, p_col = by_problem([pb.lower for pb in problems], p)
    upper, q_col = by_problem([pb.upper for pb in problems], q)
    # with every weight positive (as on the sweep's ladder) no term is dropped
    p_all, q_all = (w is not None and bool((w > 0).all()) for w in (p_col, q_col))
    generators = [pb.generator for pb in problems]

    def step(t: int, parents: np.ndarray, targets: np.ndarray):
        # column-major: element (b * pairs + i) * size + s is pair i of
        # problem b at parents[s]; its barriers and weights are gathered
        # once here, so that a residual call reads them at its indices
        size = parents.size
        nodes = np.tile(parents, cols)
        target = targets.T.ravel()
        level_generators = [lambda x, idx, g=g: g(t, nodes[idx], x) for g in generators]

        def by_element(barriers, weights):
            if barriers is None:
                return None, None
            return (np.repeat(barriers[:, parents], pairs, axis=0).ravel(),
                    np.repeat(weights, size))

        low, p_el = by_element(lower, p_col)
        high, q_el = by_element(upper, q_col)

        def penalized(x, idx):
            val = _blockwise(level_generators, pairs * size, x, idx)
            if low is not None:
                term = val + p_el[idx] * _positive(low[idx] - x)
                val = term if p_all else np.where(p_el[idx] > 0, term, val)
            if high is not None:
                term = val - q_el[idx] * _positive(x - high[idx])
                val = term if q_all else np.where(q_el[idx] > 0, term, val)
            return val

        def phi(x, idx):
            return x - penalized(x, idx) * dt - target[idx]

        y = _root_find_batch(phi, target, RESIDUAL_TOL)
        dk = (np.where(p_el > 0, p_el * _positive(low - y) * dt, 0.0)
              if low is not None else np.zeros(y.size))
        da = (np.where(q_el > 0, q_el * _positive(y - high) * dt, 0.0)
              if high is not None else np.zeros(y.size))
        return (a.reshape(cols, size).T for a in (y, dk, da))

    y, m, k, a = _backward_walk(tree, np.repeat(
        np.column_stack([_leaf_array(tree, pb.terminal) for pb in problems]), pairs, axis=1),
        np.repeat(np.column_stack([pb.v().values for pb in problems]), pairs, 1), step)
    return _PenalizedColumns(tree, y, m, k, a)


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
    y = solution.y.values.tolist()
    drift = (problem.v().values - solution.a.values).tolist()
    payoff = problem.lower.values.copy()   # L, and xi at the leaves
    payoff[tree.arrays.leaves] = _leaf_array(tree, problem.terminal)
    payoff = payoff.tolist()
    rates = np.zeros(tree.n_nodes)   # a leaf is always stopped
    for t in range(tree.n_steps):
        level = tree.level(t)
        nodes = np.arange(level.start, level.stop)
        rates[nodes] = np.broadcast_to(g(t, nodes, solution.y.values[nodes]), nodes.shape)
    rates = rates.tolist()

    prob = np.zeros(tree.n_nodes)   # the probability of the edge into each node
    prob[tree.arrays.child_index] = tree.arrays.child_prob
    prob = prob.tolist()

    def stopped_value(st, u: int) -> float:
        kids = tree.children(u)
        if u in st.stopped:
            return payoff[u]
        acc = rates[u] * dt
        for c in kids:
            acc += prob[c] * (drift[c] + stopped_value(st, c))
        return acc

    worst = 0.0
    for start in range(tree.n_nodes):
        best = functools.reduce(_worse, (
            stopped_value(st, start)
            for st in enumerate_stopping_times(tree, start, max_depth, max_count)
        ))
        worst = _worse(worst, abs(best - y[start]))
    return worst
