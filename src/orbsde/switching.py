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

A strategy's value at node u depends only on the modes in the subtree of
u, so ``_eval_strategy`` solves strategies subtree by subtree: bottom-up,
each node once for every mode assignment of its subtree, which is its own
mode times the product of its children's assignments.  Each (node, mode)
gathers its children's stored values into the continuation, in child
order, and a node finds the roots of all its modes at once with
:func:`orbsde.scalar._root_find_batch` (which gives the scalar finder's
roots bit for bit), in blocks of ``_BLOCK`` assignments per mode.  A
generator that the oracle evaluates is therefore called with a d-tuple of
equal float64 arrays and must return an array of their shape or a scalar.
The walk takes no maximum below the start node: the enumeration values
every strategy, and only the start compares them.  Each element's root is
its own, so one walk with every mode allowed at the start
(``_brute_force_all``, which ``verify`` and ``brute-force`` use) gives
each start mode's values in its own row, bit for bit those of a walk
pinned to that mode (:func:`brute_force_value`, the one-mode case).

The oracle needs the cost-form obstacle and generators that ignore the
other modes' components; :func:`decoupling_violations` reads the latter
off the validator's probe table (``oblique._probe_table``: one generator
call per mode and time index, kept with the problem), and the oracle
takes that verdict once per problem (``_decoupling_verdict``).  A
start node with n nodes in its subtree has d^(n-1) strategies (the start
mode is pinned), and the enumerations refuse a count above their cap.

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
from typing import Callable, Iterator, Mapping, Sequence

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
    _binding_edges,
    _probe_table,
    _seen_reading,
)
from .scalar import (
    RESIDUAL_TOL,
    _blockwise,
    _root_find,
    _root_find_batch,
    _worse,
)
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
        tree, out = self.tree, []
        for u in tree.subtree(self.start):
            parent = tree.parent(u)
            if u == self.start or parent not in self.modes:
                continue
            m_from = self.modes[parent]
            m_to = self.modes[u]
            if m_from != m_to:
                out.append((u, int(tree.arrays.time[u]), m_from, m_to))
        return out

    def as_id_dict(self) -> dict[str, int]:
        return {self.tree.ids[u]: m for u, m in sorted(self.modes.items())}


@dataclass(frozen=True)
class StrategyValue:
    """(R, dM, dD) of a per-strategy solve, on the strategy's subtree."""

    r: Mapping[int, float]
    m_increments: Mapping[int, float]
    d_increments: Mapping[int, float]


def decoupling_violations(problem: ObliqueProblem) -> list[Violation]:
    """Check that each f^j ignores the off-diagonal components at every
    time index: of the validator's probe lines (``oblique._probe_table``,
    made here if the problem was never validated), each with another
    component moved must be finite and constant within ``PROBE_TOL``
    (``oblique._seen_reading``)."""
    d = problem.d
    return [Violation("generator-coupled", f"f^{j} depends on component {coupled[0]}",
                      time_index=t, mode=j)
            for (j, t), lines in _probe_table(problem)[1].items()
            if (coupled := _seen_reading(lines, [k for k in range(d) if k != j]))]


def _decoupling_verdict(problem: ObliqueProblem) -> tuple[Violation, ...]:
    """:func:`decoupling_violations`, taken once per problem, which keeps
    the verdict (a problem is immutable)."""
    if "coupled" not in problem._verdicts:
        problem._verdicts["coupled"] = tuple(decoupling_violations(problem))
    return problem._verdicts["coupled"]


def _require_cost_form(problem: ObliqueProblem) -> None:
    if problem.costs is None:
        raise ValueError("switching requires the cost-matrix obstacle form")
    coupled = _decoupling_verdict(problem)
    if coupled:
        raise InvalidProblemError(coupled)


# Subtree assignments per mode and root find in ``_eval_strategy``: a
# node's values over its children's product grid are combined and solved
# in blocks of this size, every mode of the node in one root find, so the
# root finder's temporaries stay bounded at any cap; what grows with the
# cap is the stored values, a few floats per strategy.  At 1,024 the traced
# peak of brute force on the benchmark's 15- and 9-node oracle trees is
# about 0.3 and 0.45 MiB for one start mode, and 0.5 and 0.65 MiB for the
# enumeration of every start mode, which holds d start rows and solves d
# modes at the start too (d = 2 and 3); at 16,384 it was 2.5 MiB there
# with one mode per root find, for no measurable gain in time.
_BLOCK = 1024


@dataclass(frozen=True)
class _SubtreeCtx:
    """One subtree's data by position (ascending index order)."""

    problem: ObliqueProblem
    nodes: tuple[int, ...]                  # ascending index order
    children: tuple[tuple[int, ...], ...]   # positions, in child order
    probs: tuple[tuple[float, ...], ...]
    times: tuple[int, ...]
    upper: np.ndarray                       # [mode, pos]
    xi: np.ndarray                          # [mode, pos], 0 off the leaves
    dv_out: np.ndarray                      # [mode, pos]
    costs: np.ndarray                       # [t, from, to], zero diagonal


def _subtree_ctx(problem: ObliqueProblem, start: int) -> _SubtreeCtx:
    """The subtree of ``start`` read off ``tree.arrays``."""
    tree, arrays, d = problem.tree, problem.tree.arrays, problem.d
    nodes = tree.subtree(start)
    pos = {u: i for i, u in enumerate(nodes)}
    at = np.array(nodes, dtype=np.intp)
    ptr = arrays.child_ptr
    spans = list(zip(ptr[at].tolist(), ptr[at + 1].tolist()))
    first = [int(arrays.child_index[a]) if b > a else None for a, b in spans]
    costs = np.array(problem.costs.values, dtype=np.float64)
    costs[:, range(d), range(d)] = 0.0
    return _SubtreeCtx(
        problem,
        nodes,
        tuple(tuple(map(pos.__getitem__, arrays.child_index[a:b].tolist()))
              for a, b in spans),
        tuple(tuple(arrays.child_prob[a:b].tolist()) for a, b in spans),
        tuple(arrays.time[at].tolist()),
        problem.upper_columns[at].T,
        np.array([[problem.terminal[u][j] if c is None else 0.0
                   for u, c in zip(nodes, first)] for j in range(d)]),
        np.array([[0.0 if c is None else problem.v[j][c] for c in first]
                  for j in range(d)]),
        costs,
    )


def _implicit_step(
    ctx: _SubtreeCtx, i: int, modes: list[int], target: np.ndarray, push: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Position i's steps in each of ``modes`` at the continuations
    ``target``, mode by mode in equal contiguous blocks, as one root find:
    R = min(U^m, y*) with y* = target + f^m(t, y*) dt, and the dD the cap
    takes (computed only if ``push``; zero otherwise)."""
    problem, t = ctx.problem, ctx.times[i]
    d, dt = problem.d, problem.tree.dt
    size = target.size // len(modes)
    steps = [lambda y, idx, f=problem.generators[m]: f(t, (y,) * d) for m in modes]

    def phi(y, idx):
        return y - _blockwise(steps, size, y, idx) * dt - target[idx]

    ystar = _root_find_batch(phi, target, RESIDUAL_TOL)
    cap = np.repeat(ctx.upper[modes, i], size)
    over = np.flatnonzero(ystar > cap)
    ystar[over] = cap[over]
    dd = np.zeros(target.size)
    if push and over.size:
        lack = -phi(cap[over], over)
        dd[over] = np.where(lack > 0.0, lack, 0.0)
    return ystar, dd


def _eval_strategy(
    ctx: _SubtreeCtx, allowed: list[list[int]], single: bool = False
) -> tuple[list[np.ndarray | None], np.ndarray, np.ndarray]:
    """Values of every mode assignment of each position's subtree, solved
    bottom-up, each position once over all its modes.

    ``allowed[i]`` lists the modes position i may take.  Position i's
    values are in product order: its own mode (in ``allowed[i]`` order) is
    the leading digit, then each child's assignments follow in child order
    (:func:`_digit_exponents`).  The continuation sums the children in
    child order, as a one-strategy walk does, so every value is bit for bit
    that strategy's own value.  A child's values are dropped once its
    parent is solved, unless ``single`` (one mode per position): then every
    position keeps its value, and the dM and dD of the edge into each later
    position are returned too (zero otherwise).
    """
    n = len(ctx.nodes)
    values: list[np.ndarray | None] = [None] * n
    dm, dd = np.zeros(n), np.zeros(n)

    def solve(i: int, modes: list[int], kids: tuple[int, ...]) -> np.ndarray:
        t = ctx.times[i]
        sizes = [values[c].size for c in kids]
        strides = [math.prod(sizes[k + 1:]) for k in range(len(kids))]
        grid = math.prod(sizes)
        # arrivals[j][k]: child k's values less the switch cost from modes[j]
        arrivals = [[(values[c].reshape(len(allowed[c]), -1)
                      - ctx.costs[t + 1, m][allowed[c]][:, None]).ravel()
                     for c in kids] for m in modes]
        if not single:
            for c in kids:
                values[c] = None
        out = np.empty((len(modes), grid))
        for lo in range(0, grid, _BLOCK):
            flat = np.arange(lo, min(lo + _BLOCK, grid))
            picks = [flat // s % z for s, z in zip(strides, sizes)]
            conts = []   # each mode's continuation, the children in child order
            for j, m in enumerate(modes):
                e = np.zeros(flat.size)
                for p, arrive, pick in zip(ctx.probs[i], arrivals[j], picks):
                    e += p * arrive[pick]
                conts.append(e)
            r, push = _implicit_step(ctx, i, modes, np.concatenate(
                [e + ctx.dv_out[m, i] for m, e in zip(modes, conts)]), single)
            out[:, lo:lo + flat.size] = r.reshape(len(modes), flat.size)
            if single:
                for c, arrive in zip(kids, arrivals[0]):
                    dm[c], dd[c] = arrive[0] - conts[0][0], push[0]
        return out.ravel()

    for i in range(n - 1, -1, -1):
        kids = ctx.children[i]
        values[i] = solve(i, allowed[i], kids) if kids else ctx.xi[allowed[i], i]
    return values, dm, dd


def _digit_exponents(ctx: _SubtreeCtx) -> np.ndarray:
    """The power of d at which each later position's mode sits in the
    start's product-order index of a walk with d modes at every later
    position: a node's own digit, then its children's subtrees in child
    order."""
    n = len(ctx.nodes)
    size = [1] * n
    for i in range(n - 1, -1, -1):
        size[i] += sum(size[c] for c in ctx.children[i])
    exponent = [size[0] - 1] + [0] * (n - 1)
    for i in range(n):   # a parent's position precedes its children's
        below = exponent[i]
        for c in ctx.children[i]:
            exponent[c] = below - 1
            below -= size[c]
    return np.array(exponent[1:], dtype=np.int64)


def solve_for_strategy(
    problem: ObliqueProblem, strategy: SwitchingStrategy
) -> StrategyValue:
    """Value of one fixed strategy, reflected below its mode's upper cap.

    Requires the cost-form obstacle and generators depending only on their
    own component (both validated).
    """
    _require_cost_form(problem)
    ctx = _subtree_ctx(problem, strategy.start)
    values, dm, dd = _eval_strategy(
        ctx, [[strategy.modes[u]] for u in ctx.nodes], single=True)
    r, dm, dd = np.concatenate(values).tolist(), dm.tolist(), dd.tolist()
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


def _best_strategy(ctx: _SubtreeCtx, value: np.ndarray, start_mode: int
                   ) -> tuple[float, SwitchingStrategy]:
    """The maximum of one start mode's strategy values ``value`` (product
    order) and its first maximizer in enumeration order."""
    problem, nodes, start = ctx.problem, ctx.nodes, ctx.nodes[0]
    d, free = problem.d, len(nodes) - 1
    score = np.where(np.isnan(value), -math.inf, value)
    top = score.max()
    if not top > -math.inf:
        tree = problem.tree
        raise InvalidProblemError([Violation(
            "strategy-values", "no strategy has a start value above -inf",
            tree.ids[start], int(tree.arrays.time[start]), start_mode)])
    # the tied strategies' modes, read off their product-order index, and
    # their enumeration index k
    tied = np.flatnonzero(score == top)
    modes = tied[:, None] // d ** _digit_exponents(ctx) % d
    first = int(np.argmin(modes @ d ** np.arange(free - 1, -1, -1, dtype=np.int64)))
    mapping = dict(zip(nodes[1:], modes[first].tolist()))
    mapping[start] = start_mode
    return (float(value[tied[first]]),
            SwitchingStrategy(problem.tree, start, start_mode, mapping))


def brute_force_value(
    problem: ObliqueProblem, start: int, start_mode: int, cap: int = 10**6
) -> tuple[float, SwitchingStrategy]:
    """Max start value over every strategy, by exhaustive enumeration.

    Strategy k of the enumeration order (:func:`iter_strategies`) has the
    base-d digits of k as the modes of the nodes after the start.
    ``_eval_strategy`` values every strategy at the start node, and the
    maximum is taken there alone.  Ties resolve to the first maximum in
    enumeration order, deterministically, and a NaN start value never wins.
    When no start value is above -inf (data whose sums overflow), raises
    InvalidProblemError with one ``strategy-values`` finding at the start
    node and mode.  ``_brute_force_all`` gives every start mode's answer
    from one enumeration.
    """
    return _brute_force_all(problem, start, cap, [start_mode])(start_mode)


def _brute_force_all(
    problem: ObliqueProblem, start: int, cap: int = 10**6,
    start_modes: Sequence[int] | None = None,
) -> Callable[[int], tuple[float, SwitchingStrategy]]:
    """Every strategy's start value for every start mode (or those of
    ``start_modes``), from one ``_eval_strategy`` with those modes allowed
    at the start and every mode after it.  Returns ``best``, where
    ``best(j)`` is start mode j's :func:`brute_force_value`, read off its
    own row of the values (each root is its element's own, so the row is
    bit for bit an enumeration pinned to j), and raises j's
    ``strategy-values`` refusal only when asked for j.  The checks that
    refuse the whole enumeration (the cost form, decoupling and the cap)
    raise here."""
    _require_cost_form(problem)
    nodes = _check_cap(problem, start, cap)
    ctx = _subtree_ctx(problem, start)
    modes = list(range(problem.d) if start_modes is None else start_modes)
    allowed = [modes] + [list(range(problem.d))] * (len(nodes) - 1)
    rows = _eval_strategy(ctx, allowed)[0][0].reshape(len(modes), -1)
    return lambda j: _best_strategy(ctx, rows[modes.index(j)], j)


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
    edges = _binding_edges(problem.costs, tree.arrays.time, solution.y_columns, tol)
    modes: dict[int, int] = {start: start_mode}
    for u in tree.subtree(start):
        if u == start:
            continue
        m = modes[tree.parent(u)]
        yv = solution.y_vector(u)
        h = problem.H(int(tree.arrays.time[u]), yv)
        if abs(yv[m] - h[m]) <= tol:
            attaining = np.flatnonzero(edges[u, m]).tolist()
            if not attaining:
                raise InternalConsistencyError(
                    f"obstacle binds at node {tree.ids[u]} in mode {m} but no "
                    "attaining index found",
                    tree.ids[u],
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
    E[dM | parent] = 0 at every subtree node; a NaN increment makes the
    worst residual NaN, which fails every tolerance."""
    tree = problem.tree
    dm = solution.m_columns.tolist()
    worst = 0.0
    violations: list[Violation] = []
    for u in tree.subtree(strategy.start):
        if not tree.children(u):
            continue
        m = strategy.modes[u]
        acc = math.fsum(p * dm[c][m] for c, p in _edges(tree, u))
        worst = _worse(worst, abs(acc))
        if not abs(acc) <= tol:
            violations.append(
                Violation(
                    "switched-martingale",
                    f"E[dM | parent] = {acc:.3g}",
                    tree.ids[u], int(tree.arrays.time[u]), m,
                )
            )
    return SwitchedMartingaleReport(worst=worst, violations=tuple(violations))


def _edges(tree: EventTree, u: int) -> list[tuple[int, float]]:
    """Node u's (child, edge probability) pairs, in index order."""
    a, b = tree.arrays.child_ptr[u:u + 2].tolist()
    return list(zip(tree.arrays.child_index[a:b].tolist(),
                    tree.arrays.child_prob[a:b].tolist()))


def worst_case_switching_cost(problem: ObliqueProblem, start: int | None = None) -> float:
    """Largest total cost any strategy could pay: the per-step maximal cost
    summed over the remaining steps.  Purely diagnostic; summability is
    automatic on a finite tree.  A total that overflows raises
    InvalidProblemError with one ``cost-overflow`` finding, naming the
    maximal cost at which the running total first overflows (the strategy
    oracle cannot value strategies that pay such costs)."""
    if problem.costs is None:
        raise ValueError("diagnostic requires the cost-matrix obstacle form")
    tree = problem.tree
    t0 = int(tree.arrays.time[tree.root if start is None else start])
    d = problem.d
    steps = range(t0 + 1, tree.n_steps + 1)
    worst = [
        max((problem.costs.at(t, j, k), j, k) for j in range(d) for k in range(d)
            if j != k)
        for t in steps
    ]
    try:
        return math.fsum(c for c, _, _ in worst)
    except OverflowError:
        total = 0.0
        for t, (c, j, k) in zip(steps, worst):
            total += c
            if total == math.inf:
                break
        raise InvalidProblemError([Violation(
            "cost-overflow", f"c[{j}][{k}] = {c!r} makes the worst-case switching "
            "cost overflow", time_index=t, mode=j)]) from None


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
    if not tree.children(start):
        return problem.terminal[start][mode]
    e = math.fsum(p * solution.y[mode][c] for c, p in _edges(tree, start))
    f = problem.generators[mode]
    d, t = problem.d, int(tree.arrays.time[start])
    dt = tree.dt
    target = e + problem.v[mode].out_of(start)
    ystar = _root_find(
        lambda y: y - f(t, (y,) * d) * dt - target, target, RESIDUAL_TOL
    )
    return min(problem.upper[mode][start], ystar)
