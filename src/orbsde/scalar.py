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

While few elements are left bisecting, one residual call of the batched
finder evaluates the next (up to six) halvings of each at the mids of its
bracket's bisection tree, and each element then walks down its tree as
the scalar loop would; while many are, a call is one halving of each, the
scalar loop's own step.  A residual therefore gets repeated indices and
points past an element's root, and must be elementwise.  ``_blockwise``
gives each mode's contiguous block of elements to its own generator, for
the residuals that span several (the penalized residual adds each
problem's block of generator values in place itself); the finder returns
each block's failure, and a failing block stops no other.

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
_NO_SIGN_CHANGE = ("no sign change after 64 interval expansions; "
                   "generator is likely not decreasing in y")


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
            raise BracketingError(_NO_SIGN_CHANGE)
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
    phi: Callable[[np.ndarray, np.ndarray], np.ndarray], x0: np.ndarray, tol: float,
    blocks: Sequence[int] | None = None,
) -> tuple[np.ndarray, list[BracketingError | None]]:
    """:func:`_root_find` on every element of the 1-D float64 array ``x0``.

    ``phi(x, idx)`` returns the residuals of the elements ``idx`` (an index
    array into ``x0``) at the points ``x``.  Each element takes the scalar
    finder's path, with the same probe, secant step, bracket expansion,
    bisection and stall guard, so every root equals the scalar root bit for
    bit; an element leaves the active set as soon as it is done.

    The elements form contiguous ``blocks`` (their sizes; one block if
    None), and each block's error comes back with the roots: None, or the
    BracketingError of its first failing stage, a non-finite residual at
    the first probe (named at its first such element) or no sign change
    after 64 expansions.  A failing block drops out at once, with NaN roots,
    so each block gets its lone find's roots and error, bit for bit.

    Bisection takes several halvings per call: one ``phi`` call evaluates
    the next k halvings of every element still bisecting, at the 2^k - 1
    mids of its bracket's depth-k bisection tree in ascending order, and
    each element then walks down its tree as the scalar loop would,
    finishing at the node where the scalar loop returns.  The trees are
    built as one ``(2^k + 1, n)`` array, a contiguous row per position in
    the tree (:func:`_bisection_edges`); their mids go to ``phi`` element
    by element, and the exit tests and directions are taken over these
    points alone.  k is the deepest tree, at most 6 levels, that keeps a
    call at 1,024 points (:func:`_block_depth`), so a long tail of few
    elements costs about a sixth of the calls.  With more than 341
    elements bisecting k is 1, and a call is the scalar loop's own step on
    each element (the mid, its exit tests and the new bracket), with no
    tree to build or walk.  ``idx`` is therefore non-decreasing but may repeat an
    element, once per point of its tree, and ``phi`` sees points beyond
    where an element stops.  The ulp-width stall guard is computed only on
    the steps where some bracket can reach it (:func:`_guard_free_steps`).

    The residual protocol: the first call's ``idx`` is every element in
    order, ``phi`` gets the same ``idx`` object for as long as the elements
    it stands for are unchanged (every call while no element retires, and a
    tree's repeated indices while the depth stays), and no ``idx`` is
    written into, so a residual may gather its per-element data once per
    index object (:func:`_per_index`) and read the first set's data where
    it lies.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    root = np.empty_like(x0)
    idx = np.arange(x0.size)
    blocks = [x0.size] if blocks is None else blocks
    errors: list[BracketingError | None] = [None] * len(blocks)

    def exact(f, x):
        """The scalar exit test |f| <= min(tol, 4e-15 max(1, |x|)), the
        second bound computed only when some |f| is within tol (fmax
        passes over a NaN x, as the scalar max does)."""
        size = np.abs(f)
        near = size <= tol
        if near.any():
            near &= size <= 4e-15 * np.fmax(1.0, np.abs(x))
        return near

    def retire(done, x, *active):
        """Store ``x`` as the root of the done elements and return the
        ``active`` arrays cut to the elements still running (the arrays
        themselves when none is done, or when all are: then no element
        runs on and nothing is cut)."""
        nonlocal idx
        finished = np.count_nonzero(done)
        if not finished:
            return active
        if finished == done.size:
            root[idx] = x
            idx = idx[:0]
            return active
        root[idx[done]] = x[done]
        keep = ~done
        idx = idx[keep]
        return [a[keep] for a in active]

    def fail(bad, message, *active):
        """Give each block with a ``bad`` active element the error
        ``message(i)``, i its first one, and NaN roots, and retire it."""
        ends = np.cumsum(blocks)
        owner = np.searchsorted(ends, idx, side="right")
        failed, first = np.unique(owner[bad], return_index=True)
        for b, i in zip(failed.tolist(), np.flatnonzero(bad)[first].tolist()):
            errors[b] = BracketingError(message(i))
            root[ends[b] - blocks[b]:ends[b]] = np.nan
        return retire(np.isin(owner, failed), root[idx], *active)

    f0 = phi(x0, idx)
    x0, f0 = retire(exact(f0, x0), x0, x0, f0)   # a non-finite f0 is not exact
    finite = np.isfinite(f0)
    if not finite.all():
        x0, f0 = fail(~finite, lambda i: f"residual not finite at {float(x0[i])}", x0, f0)
    if not idx.size:   # every probe exact or failed: no residual call on empty arrays
        return root, errors
    x1 = x0 - f0
    f1 = phi(x1, idx)
    x0, f0, x1, f1 = retire(exact(f1, x1), x1, x0, f0, x1, f1)
    if not idx.size:
        return root, errors
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
    x0, f0, x1, f1, x2, f2 = retire(exact(f2, x2), x2, x0, f0, x1, f1, x2, f2)
    if not idx.size:
        return root, errors

    # f0 is finite, so each element has one end of its bracket already
    lo, hi = np.zeros(x0.size), np.zeros(x0.size)
    has_lo, has_hi = np.zeros(x0.size, bool), np.zeros(x0.size, bool)
    for x, f in ((x0, f0), (x1, f1), (x2, f2)):
        take = (f <= 0.0) & (~has_lo | (x > lo))
        lo[take], has_lo[take] = x[take], True
        take = (f >= 0.0) & (~has_hi | (x < hi))
        hi[take], has_hi[take] = x[take], True
    step = np.fmax(1.0, np.abs(x0)) * 0.5
    for _ in range(64):
        seek = np.flatnonzero(~(has_lo & has_hi))
        if not seek.size:
            break
        down = ~has_lo[seek]
        probe = np.where(down, hi[seek] - step[seek], lo[seek] + step[seek])
        f = phi(probe, idx[seek])
        take = down & (f <= 0.0)
        lo[seek[take]], has_lo[seek[take]] = probe[take], True
        take = ~down & (f >= 0.0)
        hi[seek[take]], has_hi[seek[take]] = probe[take], True
        step *= 2.0
    else:
        lo, hi = fail(~(has_lo & has_hi), lambda i: _NO_SIGN_CHANGE, lo, hi)

    # the halvings ahead on which no bracket's stall guard can fire
    free = _guard_free_steps(hi - lo, _guard_bound(lo, hi))
    repeated = None   # a tree's indices, (idx, depth, array)
    while idx.size:
        depth = _block_depth(idx.size)
        if depth == 1:   # one halving per call: the scalar loop's own step
            mid = 0.5 * (lo + hi)
            fm = phi(mid, idx)
            stop = exact(fm, mid)
            if free:
                free -= 1
            else:
                width, bound = hi - lo, _guard_bound(lo, hi)
                stop |= width <= 4e-16 * bound
                free = max(0, _guard_free_steps(width, bound, ~stop) - 1)
            down = fm > 0.0
            lo, hi = retire(stop, mid, np.where(down, lo, mid), np.where(down, mid, hi))
            continue
        edges = _bisection_edges(lo, hi, depth)
        width, size = 2**depth - 1, idx.size
        mids = edges[1:-1].T.ravel()   # element by element, each tree's mids ascending
        if repeated is None or repeated[0] is not idx or repeated[1] != depth:
            repeated = idx, depth, np.repeat(idx, width)
        fs = phi(mids, repeated[2])
        # the scalar loop's exit tests and its step at every mid; element
        # i's mid column q (1 <= q <= width) is entry i * width + q - 1
        stop = exact(fs, mids)
        if free < depth:
            below, above = _node_brackets(depth)
            tree_lo, tree_hi = edges[below], edges[above]
            stop |= (tree_hi - tree_lo <= 4e-16 * (
                np.fmax(np.fmax(1.0, np.abs(tree_lo)), np.abs(tree_hi)))).T.ravel()
        # f > 0 takes the lower half; anything else, NaN included, the upper
        down = fs > 0.0
        # each element down its tree, its bracket's lower end column q as
        # the entry i * width + q - 1 (column 0, lo, is first[i])
        elements = np.arange(size)
        first = elements * width - 1
        left = first
        path = np.empty((depth, size), dtype=np.intp)
        for level in range(depth):
            path[level] = mid = left + 2 ** (depth - 1 - level)
            left = np.where(down[mid], left, mid)
        stops = stop[path]   # an element ends at the first mid on its path that stops
        end = path[stops.argmax(axis=0), elements]
        ends = (left - first) * size + elements   # row q of edges, flat
        flat = edges.ravel()
        lo, hi = retire(stops.any(axis=0), mids[end], flat[ends], flat[ends + size])
        free = (free - depth if free >= depth
                else _guard_free_steps(hi - lo, _guard_bound(lo, hi)))
    return root, errors


def _roots(found: tuple[np.ndarray, list]) -> np.ndarray:
    """The roots of a :func:`_root_find_batch`, or its first error raised."""
    for error in filter(None, found[1]):
        raise error
    return found[0]


# halvings per residual call while bisecting: the deepest bisection tree of
# at most _BLOCK_DEPTH levels whose mids, over every element still
# bisecting, number at most _BLOCK_POINTS
_BLOCK_DEPTH = 6
_BLOCK_POINTS = 1024


def _block_depth(n: int) -> int:
    """The largest k <= _BLOCK_DEPTH with n (2^k - 1) <= _BLOCK_POINTS, and
    at least 1."""
    return max(1, min(_BLOCK_DEPTH, (_BLOCK_POINTS // n + 1).bit_length() - 1))


# The stall guard fires on a bracket [lo, hi] when hi - lo <= 4e-16 B, B =
# max(1, |lo|, |hi|).  Take ends that are finite, below 1e307 in magnitude
# (so lo + hi does not overflow and each mid lies in its bracket) and
# lo < hi.  Brackets only shrink, so B never grows.  A halving's mid
# 0.5 * (lo + hi) is within 2^-53 B of the true midpoint, so the exact
# width w_j after j halvings is at least w / 2^j - 2^-52 B, and the computed
# width hi - lo is within a factor 1 - 2^-53 of the exact one.  So the guard
# cannot fire on the j-th bracket after this one while
#     w / 2^j > (4e-16 + 2^-52) (1 + 4 * 2^-53) B = 6.2205e-16 B,
# and _GUARD_FREE is above that factor by 0.5%, a margin for the rounding
# of w / B and of the count's own test.
_GUARD_FREE = 6.25e-16


def _guard_bound(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The stall guard's bound max(1, -lo, hi): max(1, |lo|, |hi|) when lo
    <= hi; otherwise hi - lo < 0 and the guard fires whatever it is."""
    return np.fmax(np.fmax(1.0, -lo), hi)


def _guard_free_steps(width: np.ndarray, bound: np.ndarray, where=True) -> int:
    """The number of halvings, starting with the brackets' own step, on
    which the stall guard ``width <= 4e-16 * bound`` fires for none of the
    brackets (those ``where`` is true) of widths ``hi - lo`` and bounds
    :func:`_guard_bound`: the steps j >= 0 with 2^j < min(width / bound) /
    _GUARD_FREE (comment above).  0 when some bracket has a non-positive or
    NaN width, or an end of magnitude 1e307 or more."""
    ratio = float(np.min(width / bound, initial=np.inf, where=where))
    if not (ratio > _GUARD_FREE and float(bound.max(initial=0.0, where=where)) < 1e307):
        return 0
    mantissa, exponent = math.frexp(ratio / _GUARD_FREE)   # a 2^(e - 1) < ... < 2^e
    return exponent if mantissa > 0.5 else exponent - 1


def _bisection_edges(lo: np.ndarray, hi: np.ndarray, depth: int) -> np.ndarray:
    """Each bracket's depth-``depth`` bisection tree as the ``(2^depth + 1,
    n)`` array of its nodes' ends and mids in ascending order, one
    contiguous row per position: row 0 is lo, row 2^depth is hi, and row q
    between them holds the mid of the node bracketed by rows q - h and
    q + h, h the lowest set bit of q, computed as ``0.5 * (lo + hi)`` of
    that bracket, a whole level of rows per step.  The node's lower half is
    the node at q - h/2 and its upper half the node at q + h/2."""
    edges = np.empty((2**depth + 1, lo.size))
    edges[0], edges[-1] = lo, hi
    for level in range(depth):
        step = 2 ** (depth - level)   # the width of a level's brackets
        mid = edges[step // 2::step]
        np.add(edges[:-1:step], edges[step::step], out=mid)
        np.multiply(0.5, mid, out=mid)
    return edges


@functools.lru_cache(maxsize=None)
def _node_brackets(depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the lower and upper end of the bracket of the node at
    each mid row 1, ..., 2^depth - 1 of :func:`_bisection_edges`."""
    q = np.arange(1, 2**depth)
    below, above = q - (q & -q), q + (q & -q)
    below.flags.writeable = above.flags.writeable = False
    return below, above


def _per_index(gather: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], object]:
    """``gather(idx)``, computed again only when a call passes another
    ``idx`` object than the last one: under :func:`_root_find_batch`'s
    residual protocol, once per active set.  The last ``idx`` is held, so
    no new array can take its identity."""
    held, value = None, None

    def at(idx):
        nonlocal held, value
        if idx is not held:
            held, value = idx, gather(idx)
        return value

    return at


def _restricted(phi: Callable, find: np.ndarray) -> Callable:
    """The residual of ``phi``'s elements ``find`` (ascending): element i
    is ``phi``'s element ``find[i]``.  The indices are mapped once per
    index object, so ``phi``'s own gathers are too."""
    at = _per_index(find.__getitem__)
    return lambda x, idx: phi(x, at(idx))


def _blockwise(fns: Sequence[Callable], block: int) -> Callable:
    """A residual's values over elements in contiguous blocks of ``block``,
    block b (elements ``b * block`` to ``(b + 1) * block - 1``) owned by
    ``fns[b]``: ``fns[b](x, idx)`` at the ascending ``idx`` in that block,
    one call per block that has any, as one array; a lone function is
    returned as it is.  The blocks' bounds and index slices are found once
    per index object (:func:`_per_index`), so each ``fns[b]`` gets one
    index object per active set too."""
    if len(fns) == 1:
        return fns[0]

    @_per_index
    def blocks(idx):
        at = np.searchsorted(idx, np.arange(len(fns) + 1) * block).tolist()
        return [(fn, a, b, idx[a:b]) for fn, a, b in zip(fns, at, at[1:]) if b > a]

    def values(x, idx):
        out = np.empty(x.size)
        for fn, a, b, part in blocks(idx):
            out[a:b] = fn(x[a:b], part)
        return out

    return values


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
    message is ``name^j = value``, or ``name = value`` without modes.
    Finite data, the common case, are seen by one check per datum."""
    arrays, n = tree.arrays, tree.n_nodes
    if (all(np.isfinite(col).all() for col in columns.values())
            and np.isfinite(dv[arrays.child_first]).all() and np.isfinite(xi).all()):
        return
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
        first, slots = tree.child_slots[t]   # the k-th children, slot by slot
        e = np.zeros((parents.size, cols))
        for rows, kids, prob in slots:
            e[rows] += prob * y[kids]
        level_y, dk, da = step(t, parents, e + dv[first])
        y[parents] = level_y
        for rows, kids, _ in slots:
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
    low = y < lo
    high = (y > hi) & ~low
    dk, da = np.zeros(y.size), np.zeros(y.size)
    if not (low.any() or high.any()):   # every root inside: nothing to project
        return y, dk, da
    below, above = np.flatnonzero(low), np.flatnonzero(high)
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

        y, dk, da = _project(phi, _roots(_root_find_batch(phi, target, RESIDUAL_TOL)),
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
    contiguous block of elements to that problem's generator.  A weight
    that is not positive drops its penalty term, and a barrier the problem
    lacks drops it too: the term's weight is then 0 and its barrier -inf
    (lower) or +inf (upper), so that every element takes one formula.

    With ``L <= U`` (the ``barrier-order`` check) at most one of ``L - x``
    and ``x - U`` is positive, so the two penalty terms
    ``g + p (L - x)^+ - q (x - U)^+`` are taken as one sum
    ``g + (p fmax(L - x, 0) + q fmin(U - x, 0))``: fmax and fmin return 0
    for NaN as the positive part does, ``U - x`` is ``-(x - U)`` exactly,
    and the term that is not positive is a zero, so the residual is the
    two-term one up to the sign of a zero, which no decision of the finder
    reads.  A dropped term is ``0 * fmax(-inf - x, 0)``, a zero for every
    x, infinite or NaN included.

    The residual reads its per-element data (targets, barriers, weights,
    each block's node ids) from the level's arrays for the finder's first,
    full active set, and gathers them once per later active set.  The
    masses are computed only when a column is asked for as a
    PenalizedSolution.
    """
    tree, dt = problems[0].tree, problems[0].tree.dt
    pairs, cols = len(p), len(problems) * len(p)

    def by_problem(barriers: list, weights: Sequence[float], fill: float) -> tuple:
        """The barriers as a ``(problems, n_nodes)`` array (``fill`` for a
        problem that lacks one), each column's weight (0 where it is not
        positive or its problem lacks the barrier) and the mask of the
        columns whose weight is 0."""
        weights = np.asarray(weights, dtype=np.float64)
        weights = np.where(weights > 0, weights, 0.0)
        col = np.concatenate([np.zeros(pairs) if b is None else weights for b in barriers])
        return (np.stack([np.full(tree.n_nodes, fill) if b is None else b.values
                          for b in barriers]), col, col == 0.0)

    lower, p_col, p_off = by_problem([pb.lower for pb in problems], p, -np.inf)
    upper, q_col, q_off = by_problem([pb.upper for pb in problems], q, np.inf)
    generators = [pb.generator for pb in problems]

    def step(t: int, parents: np.ndarray, targets: np.ndarray):
        # column-major: element (b * pairs + i) * size + s is pair i of
        # problem b at parents[s]
        size = parents.size
        block = pairs * size   # a problem's elements
        target = targets.T.ravel()

        def by_element(barriers, fill, off):
            out = np.repeat(barriers[:, parents], pairs, axis=0)
            out[off] = fill   # a dropped term's barrier
            return out.ravel()

        low, high = by_element(lower, -np.inf, p_off), by_element(upper, np.inf, q_off)
        p_el, q_el = np.repeat(p_col, size), np.repeat(q_col, size)
        nodes = np.tile(parents, pairs)   # each problem's elements' nodes
        ends = np.arange(len(problems) + 1) * block
        bounds = ends.tolist()
        first = True

        @_per_index
        def at(idx):
            """The elements' targets, barriers and weights, and each
            problem's generator with its slice of the elements and their
            nodes.  The finder's first index object is every element in
            order, so the first set reads the level's arrays; every later
            one gathers."""
            nonlocal first
            if first:
                first = False
                return target, low, p_el, high, q_el, [
                    (g, a, b, nodes) for g, a, b in zip(generators, bounds, bounds[1:])]
            cuts = np.searchsorted(idx, ends).tolist()
            return target[idx], low[idx], p_el[idx], high[idx], q_el[idx], [
                (g, a, b, nodes[idx[a:b] - start])
                for g, start, a, b in zip(generators, bounds, cuts, cuts[1:]) if b > a]

        def phi(x, idx):
            tg, lo, p, hi, q, parts = at(idx)
            val = np.subtract(lo, x)
            np.fmax(val, 0.0, out=val)
            val *= p
            upper_term = np.subtract(hi, x)
            np.fmin(upper_term, 0.0, out=upper_term)
            upper_term *= q
            val += upper_term
            for g, a, b, on in parts:
                val[a:b] += g(t, on, x[a:b])
            val *= dt
            np.subtract(x, val, out=val)
            val -= tg
            return val

        y = _roots(_root_find_batch(phi, target, RESIDUAL_TOL))
        dk = p_el * _positive(low - y) * dt
        da = q_el * _positive(y - high) * dt
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
    stopping_times: Callable[[int], Sequence] | None = None,
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
    components at the node.  ``stopping_times(u)`` gives the stopping
    times from node u; by default they are enumerated here, and the checks
    of several problems on one tree can share one enumeration per start
    node (:func:`_stopping_times_by_start`).
    """
    if problem.lower is None:
        raise ValueError("representation check needs a lower barrier")
    tree = problem.tree
    if stopping_times is None:
        stopping_times = functools.partial(enumerate_stopping_times, tree,
                                           max_depth=max_depth, max_count=max_count)
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
        best = functools.reduce(_worse, (stopped_value(st, start)
                                         for st in stopping_times(start)))
        worst = _worse(worst, abs(best - y[start]))
    return worst


def _stopping_times_by_start(tree: EventTree, max_depth: int = 4,
                            max_count: int = 10**6) -> Callable[[int], list]:
    """``times(u)``: :func:`orbsde.tree.enumerate_stopping_times` from
    node u, enumerated on the first call for u and kept, so that the
    representation checks of several problems on ``tree`` (the modes of a
    system) enumerate each start node once.  A start node over the caps
    raises EnumerationCapError on every call."""
    return functools.cache(functools.partial(enumerate_stopping_times, tree,
                                             max_depth=max_depth, max_count=max_count))
