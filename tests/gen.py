"""Seeded random instance generators shared by unit and acceptance tests.

Scales are chosen so that data, barriers and costs stay O(1): solutions
then sit well inside float precision and the stated tolerances are
meaningful.  Every generator takes an explicit ``random.Random`` so each
test pins its own seed.
"""

from __future__ import annotations

import dataclasses
import random

from orbsde import (
    AdaptedProcess,
    EventTree,
    ObliqueProblem,
    PredictableIncrements,
    ScalarRBSDEProblem,
)
from orbsde.oblique import CostMatrix


def random_tree(
    rng: random.Random,
    max_depth: int = 3,
    max_branching: int = 3,
    min_depth: int = 1,
    dt_range: tuple[float, float] = (0.25, 1.0),
) -> EventTree:
    depth = rng.randint(min_depth, max_depth)
    dt = rng.uniform(*dt_range)
    nodes = [{"id": "n", "t": 0, "parent": None}]
    frontier = ["n"]
    for t in range(1, depth + 1):
        nxt = []
        for pid in frontier:
            width = rng.randint(1, max_branching)
            weights = [rng.uniform(0.2, 1.0) for _ in range(width)]
            total = sum(weights)
            for i, w in enumerate(weights):
                nid = f"{pid}.{i}"
                nodes.append({"id": nid, "t": t, "parent": pid, "p": w / total})
                nxt.append(nid)
        frontier = nxt
    return EventTree.build(nodes, dt)


def random_walk_process(
    rng: random.Random, tree: EventTree, start_range=(-1.0, 1.0), step=0.5
) -> list[float]:
    vals = [0.0] * tree.n_nodes
    vals[tree.root] = rng.uniform(*start_range)
    for n in tree.nodes:
        if n.parent is not None:
            vals[n.index] = vals[n.parent] + rng.uniform(-step, step)
    return vals


def random_generator(rng: random.Random, allow_nonlinear: bool = False):
    """A scalar generator ``g(t, nodes, y)`` decreasing in y and independent
    of its time and node arguments, drawn from small families."""
    kind = rng.choice(["zero", "constant", "affine", "affine"])
    if allow_nonlinear and rng.random() < 0.2:
        scale = rng.uniform(0.05, 0.3)
        return lambda t, nodes, y: -scale * y**3
    if kind == "zero":
        return lambda t, nodes, y: 0.0
    if kind == "constant":
        a = rng.uniform(-0.8, 0.8)
        return lambda t, nodes, y: a
    a = rng.uniform(-0.8, 0.8)
    b = rng.uniform(0.0, 1.0)
    return lambda t, nodes, y: a - b * y


def random_v(rng: random.Random, tree: EventTree, scale=0.3) -> PredictableIncrements:
    if rng.random() < 0.4:
        return PredictableIncrements.zero(tree)
    per_parent = {
        n.index: rng.uniform(-scale, scale)
        for n in tree.nodes
        if not n.is_leaf
    }
    return PredictableIncrements.from_parent_values(tree, per_parent)


def random_scalar_problem(
    rng: random.Random,
    tree: EventTree | None = None,
    barriers: str = "both",
    allow_touching: bool = True,
    allow_nonlinear: bool = False,
    dt_range: tuple[float, float] = (0.25, 1.0),
) -> ScalarRBSDEProblem:
    """Random instance with ordered barriers and a sandwiched terminal.

    ``barriers``: "both", "lower", "upper", or "none".
    """
    if tree is None:
        tree = random_tree(rng, dt_range=dt_range)
    mid = random_walk_process(rng, tree)
    gap_floor = 0.0 if allow_touching else 0.05
    lower = upper = None
    if barriers in ("both", "lower"):
        lower = AdaptedProcess(
            tree,
            tuple(m - rng.uniform(gap_floor, 1.0) for m in mid),
        )
    if barriers in ("both", "upper"):
        upper = AdaptedProcess(
            tree,
            tuple(m + rng.uniform(gap_floor, 1.0) for m in mid),
        )
    lows = None if lower is None else lower.values.tolist()
    highs = None if upper is None else upper.values.tolist()
    terminal = {}
    for leaf in tree.leaves:
        xi = mid[leaf] + rng.uniform(-0.8, 0.8)
        if lows is not None:
            xi = max(xi, lows[leaf])
        if highs is not None:
            xi = min(xi, highs[leaf])
        terminal[leaf] = xi
    return ScalarRBSDEProblem(
        tree=tree,
        terminal=terminal,
        generator=random_generator(rng, allow_nonlinear),
        v_increments=random_v(rng, tree),
        lower=lower,
        upper=upper,
    )


def random_costs(
    rng: random.Random, tree: EventTree, d: int, lo=0.8, hi=1.2
) -> CostMatrix:
    """Constant-in-time costs; the [lo, hi] band makes the triangle
    condition automatic when hi <= 2 * lo."""
    base = [[0.0] * d for _ in range(d)]
    for j in range(d):
        for k in range(d):
            if j != k:
                base[j][k] = rng.uniform(lo, hi)
    return CostMatrix.constant(tree.n_steps, base)


def random_oblique_problem(
    rng: random.Random,
    d: int = 2,
    tree: EventTree | None = None,
    max_depth: int = 3,
    max_branching: int = 2,
    coupling: float = 0.0,
    drift_scale: float = 0.5,
    cost_band: tuple[float, float] = (0.8, 1.2),
    v_scale: float = 0.15,
) -> ObliqueProblem:
    """Random system satisfying every structural hypothesis by construction,
    each generator's reads declared.

    Upper barriers share a common random walk with per-mode offsets kept
    inside 0.4x the minimal cost, and terminals sit below the barrier with
    per-mode spreads inside the same band, so H(U) <= U and the terminal
    sandwich hold with slack.
    """
    if tree is None:
        tree = random_tree(rng, max_depth=max_depth, max_branching=max_branching)
    costs = random_costs(rng, tree, d, *cost_band)
    cmin = min(
        costs.at(t, j, k)
        for t in range(tree.n_steps + 1)
        for j in range(d)
        for k in range(d)
        if j != k
    )
    band = 0.4 * cmin
    common = random_walk_process(rng, tree, start_range=(0.5, 2.0), step=0.4)
    offsets = [rng.uniform(0.0, band) for _ in range(d)]
    upper = tuple(
        AdaptedProcess(tree, tuple(c + offsets[j] for c in common))
        for j in range(d)
    )
    highs = [u.values.tolist() for u in upper]
    terminal = {}
    for leaf in tree.leaves:
        subs = [rng.uniform(0.1, 0.1 + band) for _ in range(d)]
        terminal[leaf] = tuple(
            highs[j][leaf] - subs[j] for j in range(d)
        )
    gens, reads = [], []
    for j in range(d):
        a = rng.uniform(-drift_scale, drift_scale)
        b = rng.uniform(0.0, 0.5)
        if coupling > 0.0 and rng.random() < 0.7:
            g = [
                rng.uniform(0.0, coupling / max(d - 1, 1)) if k != j else 0.0
                for k in range(d)
            ]

            def gen(t, y, _a=a, _b=b, _j=j, _g=g):
                acc = _a - _b * y[_j]
                for k, w in enumerate(_g):
                    if w != 0.0:
                        acc += w * y[k]
                return acc

            gens.append(gen)
            reads.append(tuple(k for k, w in enumerate(g) if w != 0.0))
        else:
            gens.append(lambda t, y, _a=a, _b=b, _j=j: _a - _b * y[_j])
            reads.append(())
    v = tuple(random_v(rng, tree, scale=v_scale) for _ in range(d))
    return ObliqueProblem(
        tree=tree,
        d=d,
        terminal=terminal,
        generators=tuple(gens),
        v=v,
        upper=upper,
        costs=costs,
        reads=tuple(reads),
    )


def zero_cost_cycle(problem: ObliqueProblem) -> ObliqueProblem:
    """Mode 0's data in every mode under the general obstacle
    H^j(y) = y^(j+1 mod d), a zero-cost cycle through every mode.

    Mode j's generator is mode 0's with the components rotated so that y^j
    takes the place of y^0.  The system is then symmetric under the
    rotation, H(U) <= U and the terminal sandwich hold with equality, and
    every (s, ..., s) above the least solution's root can be a fixed point
    there: the case where a solver started too high stops too high.
    """
    d = problem.d
    f = problem.generators[0]
    return dataclasses.replace(
        problem,
        costs=None,
        reads=None,
        obstacle=lambda t, y: tuple(y[(j + 1) % d] for j in range(d)),
        generators=tuple(
            lambda t, y, _j=j: f(t, tuple(y[_j:]) + tuple(y[:_j])) for j in range(d)
        ),
        v=(problem.v[0],) * d,
        upper=(problem.upper[0],) * d,
        terminal={leaf: (xi[0],) * d for leaf, xi in problem.terminal.items()},
    )
