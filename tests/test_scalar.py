"""Scalar reflected solvers: implicit step, projections, penalization.

Core claims:
    - implicit_step finds the unique root of the increasing residual and
      rejects non-decreasing generators via bracketing failure
    - solve_lower with f = 0, V = 0 is exactly the Snell envelope; the
      two-barrier solve at f = 0, V = 0 is the enumerated game value
    - reflecting increments act only on the barrier (flat-off exact), the
      backward identity reconstructs at solver tolerance, and dM has zero
      conditional mean
    - comparison: ordered data give ordered values and ordered upper
      increments edgewise
    - penalized values are monotone in the weights and approach the
      projected solution; p = q = 0 is the unconstrained equation
    - a (p, q) ladder solved as one walk matches a per-node scipy recursion
      at every node, and equals the same pairs solved one walk each
    - the level walk's conditional expectations are the tree's
      one_step_expectation, bit for bit
    - the batched root finder gives the scalar finder's roots bit for bit,
      element by element, through every branch, and raises where it raises;
      each block of a batch gets the roots, the error and (until it
      bisects) the residual points of a find over it alone
    - results are bit-identical under permuted input node order
    - validation rejects NaN or infinite data and generator values with
      the node and time index, before any comparison a NaN would pass, and
      lists several findings by node, then datum or check
    - the stopped-payoff representation gap is NaN when a payoff is NaN
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbsde import (
    AdaptedProcess,
    BracketingError,
    EventTree,
    InvalidProblemError,
    PenalizationParams,
    PredictableIncrements,
    ScalarRBSDEProblem,
    implicit_step,
    snell_envelope,
    solve_lower,
    solve_penalized,
    solve_two_barrier,
    solve_upper,
    verify_snell_representation,
)
from gen import random_scalar_problem, random_tree
from oracles import dynkin_value, penalized_values
from orbsde.scalar import (
    RESIDUAL_TOL,
    _backward_solve,
    _penalized_solve,
    _root_find,
    _root_find_batch,
    _roots,
)
from orbsde.tree import enumerate_stopping_times, one_step_expectation


def scalar_residuals(problem: ScalarRBSDEProblem, sol) -> float:
    """Worst recomputed residual over identity, martingale, sandwich and
    flat-off; the scalar rendering of the system-level minimality check."""
    tree = problem.tree
    dt = tree.dt
    worst = 0.0
    for n in tree.nodes:
        y_u = sol.y.values[n.index]
        if problem.lower is not None:
            worst = max(worst, problem.lower.values[n.index] - y_u)
            if not n.is_leaf:
                worst = max(
                    worst,
                    min(sol.k.out_of(n.index),
                        y_u - problem.lower.values[n.index]),
                )
        if problem.upper is not None:
            worst = max(worst, y_u - problem.upper.values[n.index])
            if not n.is_leaf:
                worst = max(
                    worst,
                    min(sol.a.out_of(n.index),
                        problem.upper.values[n.index] - y_u),
                )
        if n.is_leaf:
            continue
        worst = max(worst, -sol.k.out_of(n.index), -sol.a.out_of(n.index))
        g_u = float(np.broadcast_to(
            problem.generator(n.t, np.array([n.index]), np.array([y_u])), 1)[0])
        mart = 0.0
        for c in n.children:
            resid = y_u - (
                sol.y.values[c]
                + g_u * dt
                + problem.v().values[c]
                + sol.k.values[c]
                - sol.a.values[c]
                - sol.m_increments[c]
            )
            worst = max(worst, abs(resid))
            mart += tree.node(c).prob * sol.m_increments[c]
        worst = max(worst, abs(mart))
    return worst


# -- implicit step ------------------------------------------------------------


def test_implicit_step_linear_self_cancelling():
    assert implicit_step(0.0, lambda t, y: -y, 0, 0.0, 1.0) == pytest.approx(
        0.0, abs=1e-12
    )


def test_implicit_step_constant_generator_closed_form():
    y = implicit_step(2.0, lambda t, y: 0.7, 3, 0.5, 0.25)
    assert y == pytest.approx(2.0 + 0.5 + 0.7 * 0.25, abs=1e-12)


def test_implicit_step_cubic():
    y = implicit_step(2.0, lambda t, y: -(y**3), 0, 0.0, 1.0)
    assert y == pytest.approx(1.0, abs=1e-9)
    assert abs(y + y**3 - 2.0) <= 1e-12


def test_implicit_step_rejects_increasing_generator():
    with pytest.raises(BracketingError):
        implicit_step(1.0, lambda t, y: y, 0, 0.0, 1.0)


@settings(max_examples=80, deadline=None)
@given(
    a=st.floats(-5, 5),
    b=st.floats(0, 4),
    e=st.floats(-10, 10),
    dv=st.floats(-2, 2),
    dt=st.floats(0.05, 1.5),
)
def test_implicit_step_affine_closed_form(a, b, e, dv, dt):
    y = implicit_step(e, lambda t, yy: a - b * yy, 0, dv, dt)
    assert y == pytest.approx((e + dv + a * dt) / (1.0 + b * dt), abs=1e-10)


# -- the batched root finder ---------------------------------------------------


def _residual(y, slope, s, k, c, kink, target, dt):
    """phi(y) = y - g(y) dt - target with b = (slope - 1) / dt and
    g(y) = -(b y + s y^3 + k (y - kink)^+ - c (kink - y)^+): constant,
    affine, cubic, kinked (k stiff up to 1e6), slow (0 < slope < 1) with a
    steep stretch left of the kink (c > 0, where the secant stops short and
    the bracket expands), and decreasing (slope < 0).  Floats and arrays
    alike."""
    b = (slope - 1.0) / dt
    return y + dt * (b * y + s * y * y * y + k * np.maximum(0.0, y - kink)
                     + c * np.minimum(0.0, y - kink)) - target


_KINDS = ["constant", "affine", "cubic", "kinked", "stiff", "slow"] * 4 + [
    "decreasing", "nan"]


@st.composite
def _residual_case(draw):
    kind = draw(st.sampled_from(_KINDS))
    dt = draw(st.floats(0.05, 1.0))
    target = draw(st.floats(-50.0, 50.0))
    kink = draw(st.floats(-5.0, 5.0))
    x0 = target + draw(st.sampled_from([0.0, 0.0, -2.5, 0.1, 7.0]))
    slope, s, k, c = 1.0, 0.0, 0.0, 0.0
    if kind == "affine":
        slope = draw(st.floats(1.0, 6.0))
    if kind == "cubic":
        s = draw(st.floats(0.0, 3.0))
    if kind in ("kinked", "stiff"):
        k = draw(st.floats(0.1, 10.0) if kind == "kinked" else st.floats(1e3, 1e6))
    if kind == "slow":
        slope = 10.0 ** draw(st.floats(-5.0, 0.0))
        c = draw(st.floats(0.0, 10.0))
        x0 = kink - draw(st.floats(0.0, 5.0))
    if kind == "decreasing":
        slope = draw(st.floats(-5.0, -0.01))
    if kind == "nan":
        target = math.nan
    return (slope, s, k, c, kink, target, dt), x0


def _scalar_roots(cases):
    """Each case through the scalar finder: its root, or the error class."""
    out = []
    for params, x0 in cases:
        try:
            out.append(_root_find(lambda y: _residual(y, *params), x0, RESIDUAL_TOL))
        except BracketingError as err:
            out.append(type(err))
    return out


def _batch_roots(cases):
    columns = np.array([params for params, _ in cases]).T

    def phi(y, idx):
        return _residual(y, *columns[:, idx])

    x0 = np.array([x0 for _, x0 in cases])
    return _roots(_root_find_batch(phi, x0, RESIDUAL_TOL)).tolist()


@settings(max_examples=200, deadline=None)
@given(cases=st.lists(_residual_case(), min_size=1, max_size=24))
def test_batched_root_finder_equals_the_scalar_one(cases):
    scalar = _scalar_roots(cases)
    if BracketingError in scalar:
        with pytest.raises(BracketingError):
            _batch_roots(cases)
    else:
        assert _batch_roots(cases) == scalar


# planted failures: a residual NaN at the first probe, and one below zero
# everywhere (y - 2 (y - kink)^+ - target peaks at kink - target = -1), which
# no expansion brackets
_FAILS_AT = {"probe": ((1.0, 0.0, 0.0, 0.0, 0.0, math.nan, 0.5), 0.0),
             "expansion": ((1.0, 0.0, -4.0, 0.0, 0.3, 1.3, 0.5), 1.3)}


@st.composite
def _block_layout(draw):
    """Cases in contiguous blocks of unequal sizes, with a failure planted
    in each of up to two blocks: at the probe and at the expansion, in
    either order."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    cases = draw(st.lists(_residual_case(), min_size=sum(sizes), max_size=sum(sizes)))
    starts = np.cumsum([0] + sizes).tolist()
    stages = draw(st.permutations(list(_FAILS_AT)))
    for b, stage in zip(draw(st.lists(st.integers(0, len(sizes) - 1), max_size=2)),
                        stages):
        cases[draw(st.integers(starts[b], starts[b + 1] - 1))] = _FAILS_AT[stage]
    return cases, sizes


def _found(cases, sizes=None):
    """One find over ``cases``: its roots' bits, each block's error message
    (None where it has none) and each element's points, in call order."""
    columns = np.array([params for params, _ in cases]).T
    points = [[] for _ in cases]

    def phi(y, idx):
        for i, x in zip(idx.tolist(), y.tolist()):
            points[i].append(x)
        return _residual(y, *columns[:, idx])

    roots, errors = _root_find_batch(phi, np.array([x0 for _, x0 in cases]),
                                     RESIDUAL_TOL, sizes)
    return (roots.view(np.int64).tolist(), [e if e is None else str(e) for e in errors],
            points)


@settings(max_examples=200, deadline=None)
@given(layout=_block_layout())
@example(   # no sign change in block 0, a NaN probe in block 1, block 2 bisects
    layout=([_FAILS_AT["expansion"], ((2.4, 0.0, 0.0, 0.0, 0.0, 1.5, 0.5), 1.5),
             _FAILS_AT["probe"], ((1.0, 2.0, 0.0, 0.0, 0.0, 1.5, 0.5), 1.5),
             ((1.0, 0.0, 1e6, 0.0, 0.2, 1.5, 0.5), -30.0)], [2, 1, 2]))
def test_each_block_of_a_batch_finds_as_its_own_find(layout):
    # every block gets the roots and the error of a find over it alone (a
    # failing one NaN roots); it drops out at once, so its points (probes,
    # secant steps and expansions: it never bisects) are its lone find's;
    # with at most 16 elements every bisecting call takes six halvings of
    # each, so every block's points are its lone find's too
    cases, sizes = layout
    roots, errors, points = _found(cases, sizes)
    at = 0
    for size, error in zip(sizes, errors):
        block = slice(at, at + size)
        lone_roots, (lone_error,), lone_points = _found(cases[block])
        assert (roots[block], error) == (lone_roots, lone_error)
        if error is not None:
            assert np.isnan(np.array(roots[block]).view(np.float64)).all()
        if error is not None or len(cases) <= 16:
            assert points[block] == lone_points
        at += size
    for stage, (params, x0) in _FAILS_AT.items():   # the plants fail where named
        with pytest.raises(BracketingError, match="not finite" if stage == "probe"
                           else "no sign change"):
            _root_find(lambda y: _residual(y, *params), x0, RESIDUAL_TOL)


def _branches(params, x0):
    """The scalar finder's branches for one residual, from its evaluations."""
    xs = []

    def phi(y):
        xs.append(y)
        return _residual(y, *params)

    root = _root_find(phi, x0, RESIDUAL_TOL)
    out = {{1: "probe", 2: "x1", 3: "secant"}.get(len(xs), "bisection")}
    if len(xs) > 3 and all(xs[3] != 0.5 * (a + b) for a in xs[:3] for b in xs[:3]):
        out.add("expansion")   # the first point after the secant is no midpoint
    if abs(_residual(root, *params)) > min(RESIDUAL_TOL, 4e-15 * max(1.0, abs(root))):
        out.add("stall guard")
    return out


def test_batched_root_finder_runs_every_branch():
    cases = [
        ((1.0, 0.0, 0.0, 0.0, 0.0, 1.5, 0.5), 1.5),     # exact first probe
        ((1.0, 0.0, 0.0, 0.0, 0.0, 1.5, 0.5), 0.3),     # exact second probe
        ((2.4, 0.0, 0.0, 0.0, 0.0, 1.5, 0.5), 1.5),     # secant
        ((1.0, 2.0, 0.0, 0.0, 0.0, 1.5, 0.5), 1.5),     # bisection
        ((1.0, 0.0, 1e6, 0.0, 0.2, 1.5, 0.5), -30.0),   # stiff kink: stall guard
        ((1e-4, 0.0, 0.0, 5.0, 0.0, 1.0, 1.0), -3.0),   # 13 bracket expansions
        ((0.0, 0.0, 0.0, 2.0, 0.0, -1.0, 0.5), 5.0),    # flat at x0, x1: no secant
    ]
    assert set().union(*(_branches(*case) for case in cases)) == {
        "probe", "x1", "secant", "bisection", "stall guard", "expansion"}
    assert _batch_roots(cases) == _scalar_roots(cases)


def _logged(phi, log):
    """``phi`` recording the index array of every call in ``log``."""
    def logged(x, idx):
        log.append(idx.copy())
        return phi(x, idx)
    return logged


def _scalar_points(params, x0):
    """The points at which the scalar finder evaluates one residual."""
    xs = []

    def phi(y):
        xs.append(y)
        return _residual(y, *params)

    _root_find(phi, x0, RESIDUAL_TOL)
    return xs


def _halvings_per_call(n: int) -> int:
    """The largest k <= 6 with n (2^k - 1) <= 1,024, and at least 1."""
    return max([1] + [k for k in range(1, 7) if n * (2**k - 1) <= 1024])


@pytest.mark.parametrize("tail", [1, 7, 1100])
def test_block_bisection_tails_equal_the_scalar_finder(tail):
    # cubic residuals that all bisect at once: a tail of one element takes
    # 6 halvings per call (63 points), 7 elements 6 halvings (441 points),
    # and more than 1,024 elements keep one halving per call
    rng = random.Random(tail)
    cases = [((1.0, rng.uniform(0.5, 3.0), 0.0, 0.0, 0.0, rng.uniform(-20.0, 20.0),
               rng.uniform(0.1, 1.0)), rng.uniform(-20.0, 20.0)) for _ in range(tail)]
    assert all(_branches(*case) == {"bisection"} for case in cases)
    columns = np.array([params for params, _ in cases]).T
    log = []
    roots, _ = _root_find_batch(_logged(lambda y, idx: _residual(y, *columns[:, idx]), log),
                                np.array([x0 for _, x0 in cases]), RESIDUAL_TOL)
    assert roots.tolist() == _scalar_roots(cases)
    # after the probe and the secant, every call bisects: a whole tree per
    # element still bisecting, the first one over every element
    assert np.array_equal(np.unique(log[3]), np.arange(tail))
    assert log[3].size == tail * {1: 63, 7: 63, 1100: 1}[tail]
    for idx in log[3:]:
        n = np.unique(idx).size
        assert idx.size == n * (2 ** _halvings_per_call(n) - 1)
        assert (np.diff(idx) >= 0).all()


def test_block_bisection_takes_the_upper_half_at_a_nan_inside_a_block():
    # a residual that is NaN in a narrow band around the scalar finder's
    # 9th bisection mid, which is the 3rd level of a block: the scalar loop
    # takes the upper half there, and so does the block walk
    params, x0 = (1.0, 2.0, 0.0, 0.0, 0.0, 1.5, 0.5), 1.5
    assert _branches(params, x0) == {"bisection"}
    band = _scalar_points(params, x0)[3 + 8]   # after the three probes

    def nan_band(y):
        return np.where(np.abs(y - band) < 1e-12, math.nan, _residual(y, *params))

    xs = []

    def scalar_phi(y):
        xs.append(y)
        return float(nan_band(y))

    expected = _root_find(scalar_phi, x0, RESIDUAL_TOL)
    assert math.isnan(scalar_phi(xs[3 + 8]))
    got, _ = _root_find_batch(lambda y, idx: nan_band(y), np.array([x0]), RESIDUAL_TOL)
    assert got.tolist() == [expected]


def test_block_bisection_stall_guard_finishes_part_way_through_a_block():
    # the stiff kink ends on the ulp-width stall guard after 58 halvings:
    # the 4th level of the 10th block of 6, not a block's last level
    params, x0 = (1.0, 0.0, 1e6, 0.0, 0.2, 1.5, 0.5), -30.0
    assert _branches(params, x0) == {"bisection", "stall guard"}
    halvings = len(_scalar_points(params, x0)) - 3
    assert (halvings, halvings % 6) == (58, 4)
    log = []
    got, _ = _root_find_batch(_logged(lambda y, idx: _residual(y, *params), log),
                              np.array([x0]), RESIDUAL_TOL)
    assert got.tolist() == [_root_find(lambda y: _residual(y, *params), x0,
                                       RESIDUAL_TOL)]
    assert [idx.size for idx in log] == [1, 1, 1] + [63] * 10


def _retired_in_one_halving_calls(log):
    """The elements that end in a call of one halving each (no element
    repeated), after the probe and the secant: present in that call's
    indices and absent from the next call's."""
    out = set()
    for idx, after in zip(log[3:], log[4:] + [np.array([], dtype=np.intp)]):
        if np.unique(idx).size == idx.size:
            out.update(np.setdiff1d(idx, after).tolist())
    return out


def test_one_halving_per_call_ends_on_the_stall_guard_as_the_scalar_finder():
    # stiff kinks (k = 1e6): 422 of 500 bisect at once, so each call takes
    # one halving of each (422 * 3 > 1,024) until 341 are left, and every
    # one ends on the ulp-width stall guard after 56 to 58 halvings, more
    # than half of them in those calls
    rng = random.Random(22)
    cases = [((1.0, 0.0, 1e6, 0.0, rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.5),
               rng.uniform(0.2, 0.8)), rng.uniform(-40.0, -20.0)) for _ in range(500)]
    stalled = [i for i, case in enumerate(cases)
               if _branches(*case) == {"bisection", "stall guard"}]
    assert len(stalled) == 422
    columns = np.array([params for params, _ in cases]).T
    log = []
    roots, _ = _root_find_batch(_logged(lambda y, idx: _residual(y, *columns[:, idx]), log),
                                np.array([x0 for _, x0 in cases]), RESIDUAL_TOL)
    assert roots.tolist() == _scalar_roots(cases)
    assert np.array_equal(log[3], stalled)   # the first halving of each
    assert len(set(stalled) & _retired_in_one_halving_calls(log)) > 422 // 2
    for idx in log[3:]:
        n = np.unique(idx).size
        assert idx.size == n * (2 ** _halvings_per_call(n) - 1)


def test_one_halving_per_call_takes_the_upper_half_at_a_nan_as_the_scalar_finder():
    # 400 cubic residuals that bisect at once, each NaN in a narrow band
    # around its own 9th bisection mid: all 400 are still bisecting there,
    # one halving per call, and each takes the upper half as the scalar
    # loop does
    rng = random.Random(9)
    cases = [((1.0, rng.uniform(0.5, 3.0), 0.0, 0.0, 0.0, rng.uniform(-20.0, 20.0),
               rng.uniform(0.1, 1.0)), rng.uniform(-20.0, 20.0)) for _ in range(400)]
    assert all(_branches(*case) == {"bisection"} for case in cases)
    columns = np.array([params for params, _ in cases]).T
    bands = np.array([_scalar_points(*case)[3 + 8] for case in cases])

    def nan_band(y, idx):
        return np.where(np.abs(y - bands[idx]) < 1e-12, math.nan,
                        _residual(y, *columns[:, idx]))

    expected = []
    for i, (params, x0) in enumerate(cases):
        def scalar_phi(y, i=i):
            return float(nan_band(np.array([y]), np.array([i]))[0])
        assert math.isnan(scalar_phi(bands[i]))
        expected.append(_root_find(scalar_phi, x0, RESIDUAL_TOL))
    log = []
    got, _ = _root_find_batch(_logged(nan_band, log), np.array([x0 for _, x0 in cases]),
                              RESIDUAL_TOL)
    assert got.tolist() == expected
    assert np.array_equal(log[3 + 8], np.arange(400))   # the NaN mids' call


def test_kinked_table_batch_bisects_in_few_residual_calls():
    # the benchmark's kinked table generator at dt = 1/8 on 128 targets:
    # most elements end at the probe or the secant, and the few left
    # bisect about 42 times; one halving per call took 47 calls here
    grid = np.array([-4.0 + 0.5 * i for i in range(17)])
    table = 0.1 - 0.4 * grid - 0.15 * grid * np.abs(grid)
    target, dt = np.linspace(-2.0, 2.0, 128), 0.125

    def phi(x, idx):
        return x - np.interp(x, grid, table) * dt - target[idx]

    log = []
    roots, _ = _root_find_batch(_logged(phi, log), target, RESIDUAL_TOL)
    assert len(log) <= 15
    assert roots.tolist() == [
        _root_find(lambda y: float(phi(np.array([y]), np.array([i]))[0]), x0,
                   RESIDUAL_TOL) for i, x0 in enumerate(target.tolist())]


# -- lower barrier -------------------------------------------------------------


def _lower_problem(tree, lower, terminal, g=lambda t, nodes, y: 0.0, v=None):
    return ScalarRBSDEProblem(
        tree=tree, terminal=terminal, generator=g, v_increments=v, lower=lower
    )


def test_lower_with_inert_barrier_is_plain_expectation():
    tree = EventTree.binary(2, 1.0)
    terminal = {leaf: 0.1 * leaf for leaf in tree.leaves}
    sol = solve_lower(
        _lower_problem(tree, AdaptedProcess.constant(tree, -1e6), terminal)
    )
    for n in tree.nodes:
        if not n.is_leaf:
            e = sum(tree.node(c).prob * sol.y.values[c] for c in n.children)
            assert sol.y.values[n.index] == e
    assert max(sol.k.values) == 0.0


def test_lower_solve_is_snell_envelope_nodewise():
    rng = random.Random(41)
    for _ in range(20):
        problem = random_scalar_problem(rng, barriers="lower")
        tree = problem.tree
        problem = ScalarRBSDEProblem(
            tree=tree,
            terminal=problem.terminal,
            generator=lambda t, nodes, y: 0.0,
            lower=problem.lower,
        )
        sol = solve_lower(problem)
        reward = AdaptedProcess(
            tree,
            tuple(
                problem.terminal[n.index] if n.is_leaf
                else problem.lower.values[n.index]
                for n in tree.nodes
            ),
        )
        env, _ = snell_envelope(tree, reward)
        assert sol.y.values.tolist() == env.values.tolist()  # bit-identical


def test_lower_chain_barrier_push_at_final_step():
    tree = EventTree.chain(2, 1.0)
    lower = AdaptedProcess.from_dict(tree, {"n0": 3.0, "n1": 3.0, "n2": -1e9})
    sol = solve_lower(_lower_problem(tree, lower, {tree.index_of("n2"): 0.0}))
    assert sol.y.values[tree.index_of("n0")] == 3.0
    assert sol.y.values[tree.index_of("n1")] == 3.0
    assert sol.k.values[tree.index_of("n2")] == 3.0
    assert sol.k.values[tree.index_of("n1")] == 0.0


# -- upper barrier --------------------------------------------------------------


def test_upper_with_inert_barrier_never_reflects():
    rng = random.Random(43)
    problem = random_scalar_problem(rng, barriers="none")
    tree = problem.tree
    problem = ScalarRBSDEProblem(
        tree=tree,
        terminal=problem.terminal,
        generator=problem.generator,
        v_increments=problem.v_increments,
        upper=AdaptedProcess.constant(tree, 1e6),
    )
    sol = solve_upper(problem)
    assert max(sol.a.values) == 0.0
    assert max(sol.k.values) == 0.0


def test_upper_is_sign_flipped_lower():
    rng = random.Random(47)
    for _ in range(10):
        problem = random_scalar_problem(rng, barriers="upper")
        sol = solve_upper(problem)
        g = problem.generator
        reflected = ScalarRBSDEProblem(
            tree=problem.tree,
            terminal={leaf: -v for leaf, v in problem.terminal.items()},
            generator=lambda t, nodes, y, _g=g: -_g(t, nodes, -y),
            v_increments=PredictableIncrements(
                problem.tree, tuple(-v for v in problem.v().values)
            ),
            lower=AdaptedProcess(
                problem.tree, tuple(-v for v in problem.upper.values)
            ),
        )
        flipped = solve_lower(reflected)
        assert sol.y.values.tolist() == [-v for v in flipped.y.values.tolist()]
        assert sol.a.values.tolist() == flipped.k.values.tolist()


def test_upper_caps_on_two_node_chain():
    tree = EventTree.chain(1, 1.0)
    upper = AdaptedProcess.from_dict(tree, {"n0": 2.0, "n1": 4.0})
    problem = ScalarRBSDEProblem(
        tree=tree,
        terminal={tree.index_of("n1"): 4.0},
        generator=lambda t, nodes, y: 0.0,
        upper=upper,
    )
    sol = solve_upper(problem)
    assert sol.y.values[tree.index_of("n0")] == 2.0
    assert sol.a.values[tree.index_of("n1")] == 2.0


# -- two barriers ----------------------------------------------------------------


def test_two_barrier_squeezed_flat():
    tree = EventTree.binary(2, 0.5)
    level = AdaptedProcess.constant(tree, 1.5)
    problem = ScalarRBSDEProblem(
        tree=tree,
        terminal={leaf: 1.5 for leaf in tree.leaves},
        generator=lambda t, nodes, y: 0.4 - 0.3 * y,
        lower=level,
        upper=level,
    )
    sol = solve_two_barrier(problem)
    assert all(v == 1.5 for v in sol.y.values)


def test_two_barrier_wide_barriers_reduce_to_expectation():
    tree = EventTree.binary(2, 1.0)
    terminal = {leaf: math.sin(leaf) for leaf in tree.leaves}
    problem = ScalarRBSDEProblem(
        tree=tree,
        terminal=terminal,
        generator=lambda t, nodes, y: 0.0,
        lower=AdaptedProcess.constant(tree, -1e6),
        upper=AdaptedProcess.constant(tree, 1e6),
    )
    sol = solve_two_barrier(problem)
    for n in tree.nodes:
        if not n.is_leaf:
            e = sum(tree.node(c).prob * sol.y.values[c] for c in n.children)
            assert sol.y.values[n.index] == e
    assert max(sol.k.values) == 0.0 and max(sol.a.values) == 0.0


def test_two_barrier_matches_enumerated_game_value():
    rng = random.Random(53)
    checked = 0
    while checked < 8:
        tree = random_tree(rng, max_depth=2, max_branching=2, min_depth=2)
        problem = random_scalar_problem(rng, tree=tree, barriers="both")
        problem = ScalarRBSDEProblem(
            tree=tree,
            terminal=problem.terminal,
            generator=lambda t, nodes, y: 0.0,
            lower=problem.lower,
            upper=problem.upper,
        )
        sol = solve_two_barrier(problem)
        if max(sol.k.values) == 0.0 and max(sol.a.values) == 0.0:
            continue  # want instances where both players matter sometimes
        stopping_times = enumerate_stopping_times(tree)
        value = dynkin_value(
            tree, problem.lower.values, problem.upper.values,
            problem.terminal, stopping_times,
        )
        assert sol.y.values[tree.root] == pytest.approx(value, abs=1e-9)
        checked += 1


def test_barrier_order_violation_rejected():
    tree = EventTree.chain(1, 1.0)
    problem = ScalarRBSDEProblem(
        tree=tree,
        terminal={tree.index_of("n1"): 0.0},
        generator=lambda t, nodes, y: 0.0,
        lower=AdaptedProcess.constant(tree, 1.0),
        upper=AdaptedProcess.constant(tree, 0.0),
    )
    with pytest.raises(InvalidProblemError):
        solve_two_barrier(problem)


def test_increasing_generator_flagged_by_validation():
    tree = EventTree.chain(1, 1.0)
    problem = ScalarRBSDEProblem(
        tree=tree,
        terminal={tree.index_of("n1"): 0.0},
        generator=lambda t, nodes, y: 0.5 * y,
        lower=AdaptedProcess.constant(tree, -1.0),
    )
    assert any(v.code == "generator-monotone" for v in problem.validate())


def test_validation_probes_every_node_of_a_level():
    # the generator increases in y at the second node of level 1 only, which
    # a probe of each level's first node does not see
    tree = EventTree.binary(2, 0.5)
    second = tree.level(1)[1]
    problem = ScalarRBSDEProblem(
        tree=tree,
        terminal={leaf: 0.0 for leaf in tree.leaves},
        generator=lambda t, nodes, y: np.where(nodes == second, 0.5 * y, -y),
        lower=AdaptedProcess.constant(tree, -1.0),
    )
    assert [(v.code, v.time_index) for v in problem.validate()] == [
        ("generator-monotone", 1)]


def _nan_case(**changes) -> ScalarRBSDEProblem:
    tree = EventTree.binary(2, 0.5)
    fields = dict(
        tree=tree,
        terminal={leaf: 0.0 for leaf in tree.leaves},
        generator=lambda t, nodes, y: -y,
        lower=AdaptedProcess.constant(tree, -1.0),
    )
    fields.update(changes)
    return ScalarRBSDEProblem(**fields)


def test_nan_generator_rejected_with_node_and_time():
    problem = _nan_case(generator=lambda t, nodes, y: math.nan)
    tree = problem.tree
    assert [(v.code, v.node_id, v.time_index) for v in problem.validate()] == [
        ("non-finite", tree.node(tree.level(t)[0]).node_id, t) for t in (0, 1)]
    with pytest.raises(InvalidProblemError):
        solve_lower(problem)


def test_non_finite_data_rejected_with_node_and_time():
    tree = EventTree.binary(2, 0.5)
    root, leaf = tree.node(tree.root), tree.node(tree.leaves[-1])
    lower = [-1.0] * tree.n_nodes
    lower[root.index] = math.nan
    upper = [1.0] * tree.n_nodes
    upper[leaf.index] = math.inf
    cases = [
        (_nan_case(lower=AdaptedProcess(tree, tuple(lower))), root),
        (_nan_case(terminal={**{u: 0.0 for u in tree.leaves}, leaf.index: math.nan}),
         leaf),
        (_nan_case(v_increments=PredictableIncrements.from_parent_values(
            tree, {root.index: -math.inf})), root),
        (_nan_case(lower=None, upper=AdaptedProcess(tree, tuple(upper))), leaf),
    ]
    for problem, where in cases:
        assert [(v.code, v.node_id, v.time_index) for v in problem.validate()] == [
            ("non-finite", where.node_id, where.t)]
        with pytest.raises(InvalidProblemError):
            solve_lower(problem) if problem.upper is None else solve_upper(problem)


def _faults_case(lower: dict, upper: dict, terminal: dict,
                 dv: dict | None = None) -> ScalarRBSDEProblem:
    """A depth-2 binary problem with barriers -1 and 1 except at the node
    ids ``lower`` and ``upper`` name, the terminal values ``terminal`` (the
    leaves it leaves out have none) and the drifts ``dv`` out of parents."""
    tree = EventTree.binary(2, 0.5)
    ids = [n.node_id for n in tree.nodes]
    return ScalarRBSDEProblem(
        tree=tree,
        terminal={tree.index_of(k): x for k, x in terminal.items()},
        generator=lambda t, nodes, y: -y,
        v_increments=PredictableIncrements.from_parent_values(
            tree, {tree.index_of(k): x for k, x in (dv or {}).items()}),
        lower=AdaptedProcess(tree, tuple(lower.get(i, -1.0) for i in ids)),
        upper=AdaptedProcess(tree, tuple(upper.get(i, 1.0) for i in ids)),
    )


def _findings(report) -> list[tuple]:
    return [(v.code, v.message, v.node_id, v.time_index, v.mode) for v in report]


def test_validation_lists_every_non_finite_datum_in_node_order():
    problem = _faults_case(
        lower={"r": math.nan, "ruu": math.nan}, upper={"rd": math.inf},
        terminal={"rdu": math.nan, "rud": 0.0, "ruu": math.inf},
        dv={"ru": -math.inf})
    assert _findings(problem.validate()) == [
        ("terminal", "missing terminal value", "rdd", None, None),
        ("non-finite", "L = nan", "r", 0, None),
        ("non-finite", "U = inf", "rd", 1, None),
        ("non-finite", "dV = -inf", "ru", 1, None),
        ("non-finite", "xi = nan", "rdu", 2, None),
        ("non-finite", "L = nan", "ruu", 2, None),
        ("non-finite", "xi = inf", "ruu", 2, None),
    ]


def test_validation_lists_barrier_order_and_both_sandwiches_by_node():
    problem = _faults_case(
        lower={"rd": 2.0, "ruu": 0.5}, upper={"ruu": 0.25},
        terminal={"rdu": -3.0, "rud": 3.0, "ruu": 0.4})
    assert _findings(problem.validate()) == [
        ("terminal", "missing terminal value", "rdd", None, None),
        ("barrier-order", "lower 2.0 above upper 1.0", "rd", 1, None),
        ("terminal-sandwich", "terminal -3.0 below barrier -1.0", "rdu", 2, None),
        ("terminal-sandwich", "terminal 3.0 above barrier 1.0", "rud", 2, None),
        ("barrier-order", "lower 0.5 above upper 0.25", "ruu", 2, None),
        ("terminal-sandwich", "terminal 0.4 below barrier 0.5", "ruu", 2, None),
        ("terminal-sandwich", "terminal 0.4 above barrier 0.25", "ruu", 2, None),
    ]


# -- solution invariants ---------------------------------------------------------


def test_solution_invariants_on_random_instances():
    rng = random.Random(59)
    for _ in range(40):
        kind = rng.choice(["both", "lower", "upper"])
        problem = random_scalar_problem(rng, barriers=kind, allow_nonlinear=True)
        if kind == "both":
            sol = solve_two_barrier(problem)
        elif kind == "lower":
            sol = solve_lower(problem)
        else:
            sol = solve_upper(problem)
        assert scalar_residuals(problem, sol) <= 1e-10


def test_comparison_of_values_and_upper_increments():
    rng = random.Random(61)
    for _ in range(15):
        p1 = random_scalar_problem(rng, barriers="both")
        tree = p1.tree
        bump_xi = rng.uniform(0.0, 0.4)
        bump_g = rng.uniform(0.0, 0.4)
        bump_l = rng.uniform(0.0, 0.3)
        bump_v = rng.uniform(0.0, 0.2)
        g1 = p1.generator
        lower2 = AdaptedProcess(
            tree,
            tuple(
                min(l + bump_l, u)
                for l, u in zip(p1.lower.values, p1.upper.values)
            ),
        )
        terminal2 = {
            leaf: min(p1.terminal[leaf] + bump_xi, p1.upper.values[leaf])
            for leaf in tree.leaves
        }
        terminal2 = {
            leaf: max(v, lower2.values[leaf]) for leaf, v in terminal2.items()
        }
        p2 = ScalarRBSDEProblem(
            tree=tree,
            terminal=terminal2,
            generator=lambda t, nodes, y, _g=g1, _b=bump_g: _g(t, nodes, y) + _b,
            v_increments=PredictableIncrements(
                tree,
                tuple(
                    v + (bump_v if i != tree.root else 0.0)
                    for i, v in enumerate(p1.v().values)
                ),
            ),
            lower=lower2,
            upper=p1.upper,
        )
        s1, s2 = solve_two_barrier(p1), solve_two_barrier(p2)
        for i in range(tree.n_nodes):
            assert s1.y.values[i] <= s2.y.values[i] + 1e-12
            assert s1.a.values[i] <= s2.a.values[i] + 1e-12


# -- penalization -----------------------------------------------------------------


def test_penalized_with_zero_weights_is_unconstrained():
    rng = random.Random(67)
    problem = random_scalar_problem(rng, barriers="both")
    pen = solve_penalized(problem, PenalizationParams(0.0, 0.0))
    free = ScalarRBSDEProblem(
        tree=problem.tree,
        terminal=problem.terminal,
        generator=problem.generator,
        v_increments=problem.v_increments,
        lower=AdaptedProcess.constant(problem.tree, -1e9),
        upper=AdaptedProcess.constant(problem.tree, 1e9),
    )
    unconstrained = solve_two_barrier(free)
    for a, b in zip(pen.y.values, unconstrained.y.values):
        assert a == pytest.approx(b, abs=1e-12)
    assert pen.lower_mass == 0.0 and pen.upper_mass == 0.0


def test_penalized_monotone_and_convergent():
    rng = random.Random(71)
    problem = random_scalar_problem(rng, barriers="both", dt_range=(0.3, 0.8))
    ladder = [1.0, 10.0, 100.0, 1000.0, 1e6]
    roots_p = [
        solve_penalized(problem, PenalizationParams(p, 64.0)).y.values[0]
        for p in ladder
    ]
    roots_q = [
        solve_penalized(problem, PenalizationParams(64.0, q)).y.values[0]
        for q in ladder
    ]
    for a, b in zip(roots_p, roots_p[1:]):
        assert b >= a - 1e-12
    for a, b in zip(roots_q, roots_q[1:]):
        assert b <= a + 1e-12
    projected = solve_two_barrier(problem)
    stiff = solve_penalized(problem, PenalizationParams(1e6, 1e6))
    gap = max(
        abs(a - b) for a, b in zip(stiff.y.values, projected.y.values)
    )
    assert gap <= 1e-3


def test_penalized_reports_positive_mass_when_binding():
    tree = EventTree.chain(2, 1.0)
    lower = AdaptedProcess.from_dict(tree, {"n0": 3.0, "n1": 3.0, "n2": -1e9})
    problem = ScalarRBSDEProblem(
        tree=tree,
        terminal={tree.index_of("n2"): 0.0},
        generator=lambda t, nodes, y: 0.0,
        lower=lower,
        upper=AdaptedProcess.constant(tree, 10.0),
    )
    pen = solve_penalized(problem, PenalizationParams(1000.0, 1000.0))
    assert pen.lower_mass > 0.5
    assert pen.upper_mass == 0.0


LADDER = (1.0, 10.0, 100.0, 1000.0, 1e6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_penalized_ladder_matches_the_scipy_oracle(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, max_depth=3, max_branching=3)
    problem = random_scalar_problem(rng, tree=tree, barriers="both",
                                    allow_nonlinear=True)
    pairs = [(p, q) for p in LADDER for q in LADDER]
    ladder = _penalized_solve([problem], *zip(*pairs))
    assert ladder.y.shape == (tree.n_nodes, len(pairs))
    for i, (p, q) in enumerate(pairs):
        pen = ladder.solution(i)
        oracle = penalized_values(problem, p, q)
        assert max(abs(a - b) for a, b in zip(pen.y.values, oracle)) <= 1e-10, (p, q)
        alone = _penalized_solve([problem], [p], [q]).solution(0)
        assert [pen.y.values.tolist(), pen.m_increments.tolist(), pen.k.values.tolist(),
                pen.a.values.tolist(), pen.lower_mass, pen.upper_mass] == [
            alone.y.values.tolist(), alone.m_increments.tolist(),
            alone.k.values.tolist(), alone.a.values.tolist(),
            alone.lower_mass, alone.upper_mass]


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_fused_ladders_equal_each_problems_own_ladder():
    # problems on one tree with every barrier set, walked as one ladder
    # (columns problem by problem, then pair by pair): each problem's
    # columns are its own ladder's, bit for bit
    rng = random.Random(97)
    pairs = [(p, q) for p in LADDER for q in LADDER]
    for _ in range(8):
        tree = random_tree(rng, max_depth=3, max_branching=3)
        problems = [random_scalar_problem(rng, tree=tree, barriers=barriers,
                                          allow_nonlinear=True)
                    for barriers in ("both", "lower", "upper", "none", "both")]
        fused = _penalized_solve(problems, *zip(*pairs))
        assert fused.y.shape == (tree.n_nodes, len(problems) * len(pairs))
        for b, problem in enumerate(problems):
            alone = _penalized_solve([problem], *zip(*pairs))
            cols = slice(b * len(pairs), (b + 1) * len(pairs))
            for field in ("y", "m", "k", "a", "lower_mass", "upper_mass"):
                assert _same_bits(getattr(fused, field)[..., cols],
                                  getattr(alone, field)), (b, field)


def test_walk_expectations_are_one_step_expectations():
    rng = random.Random(89)
    for _ in range(20):
        tree = random_tree(rng, max_depth=3, max_branching=4)
        terminal = {leaf: (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                    for leaf in tree.leaves}
        zero = PredictableIncrements.zero(tree)

        def keep(t, parents, targets):   # Y_u = E[Y_next | u], no push
            return targets, np.zeros(targets.shape), np.zeros(targets.shape)

        for col in _backward_solve(tree, terminal, (zero, zero), keep):
            for n in tree.nodes:
                if not n.is_leaf:
                    assert col.y.values[n.index] == one_step_expectation(
                        tree, col.y.values, n.index)


# -- representation check ----------------------------------------------------------


def test_representation_gap_small_for_lower_solves():
    rng = random.Random(73)
    for _ in range(10):
        problem = random_scalar_problem(rng, barriers="lower")
        sol = solve_lower(problem)
        assert verify_snell_representation(problem, sol) <= 1e-9


def test_representation_reduces_to_martingale_when_barrier_inert():
    tree = EventTree.binary(2, 1.0)
    problem = ScalarRBSDEProblem(
        tree=tree,
        terminal={leaf: 0.25 * leaf for leaf in tree.leaves},
        generator=lambda t, nodes, y: 0.0,
        lower=AdaptedProcess.constant(tree, -1e6),
    )
    sol = solve_lower(problem)
    assert verify_snell_representation(problem, sol) <= 1e-9


def test_representation_covers_two_barrier_solutions():
    rng = random.Random(79)
    for _ in range(10):
        problem = random_scalar_problem(rng, barriers="both")
        sol = solve_two_barrier(problem)
        assert verify_snell_representation(problem, sol) <= 1e-9


def test_representation_gap_is_nan_when_a_stopped_payoff_is_nan(scenarios_dir):
    import dataclasses

    from orbsde import ScalarSolution, picard_solve
    from orbsde.oblique import mode_problem
    from orbsde.scenario import Scenario

    system = Scenario.from_file(scenarios_dir / "switch2x2.json").build_problem()
    solution = picard_solve(system)
    column = ScalarSolution(solution.y[0], solution.m_increments[0],
                            solution.k[0], solution.a[0])
    problem = mode_problem(system, solution, 0)
    rd = next(n for n in system.tree.nodes if n.node_id == "rd")
    assert solution.k[0].out_of(rd.index) > 0.0  # the lower barrier binds at rd
    assert verify_snell_representation(problem, column) == 0.0
    nan_at_rd = dataclasses.replace(problem, generator=lambda t, nodes, c: np.where(
        nodes == rd.index, math.nan, problem.generator(t, nodes, c)))
    # stopping at rd is finite and comes first, so max() would give gap 0.0
    assert math.isnan(verify_snell_representation(nan_at_rd, column))


# -- determinism --------------------------------------------------------------------


def test_bitwise_identical_under_permuted_node_order():
    rng = random.Random(83)
    nodes = [
        {"id": "r", "t": 0, "parent": None},
        {"id": "a", "t": 1, "parent": "r", "p": 0.35},
        {"id": "b", "t": 1, "parent": "r", "p": 0.65},
        {"id": "a0", "t": 2, "parent": "a", "p": 0.5},
        {"id": "a1", "t": 2, "parent": "a", "p": 0.5},
        {"id": "b0", "t": 2, "parent": "b", "p": 0.25},
        {"id": "b1", "t": 2, "parent": "b", "p": 0.75},
    ]
    shuffled = list(nodes)
    rng.shuffle(shuffled)

    def solve_on(node_list):
        tree = EventTree.build(node_list, 0.5)
        lower = AdaptedProcess.from_fn(tree, lambda n: -0.3 - 0.1 * n.t)
        upper = AdaptedProcess.from_fn(tree, lambda n: 0.4 + 0.05 * n.t)
        terminal = {
            leaf: max(
                lower.values[leaf],
                min(upper.values[leaf], math.cos(leaf * 1.7)),
            )
            for leaf in tree.leaves
        }
        problem = ScalarRBSDEProblem(
            tree=tree,
            terminal=terminal,
            generator=lambda t, nodes, y: 0.2 - 0.4 * y,
            lower=lower,
            upper=upper,
        )
        return solve_two_barrier(problem)

    s1, s2 = solve_on(nodes), solve_on(shuffled)
    assert s1.y.values.tolist() == s2.y.values.tolist()
    assert s1.k.values.tolist() == s2.k.values.tolist()
    assert s1.a.values.tolist() == s2.a.values.tolist()
    assert s1.m_increments.tolist() == s2.m_increments.tolist()
