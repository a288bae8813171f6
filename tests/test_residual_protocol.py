"""The batched root finder's residual protocol and its stall-guard skip.

- ``_root_find_batch`` gives the scalar ``_root_find``'s root bit for bit
  on stiff penalized residuals whose per-element data are gathered once
  per index object (``scalar._per_index``, through ``_blockwise`` and
  ``_restricted`` as the solvers build them), with elements that retire
  between calls, so that consecutive calls see different index objects,
  of equal size too.
- ``_guard_free_steps`` never counts a halving on which the stall guard
  fires, for brackets of every width down to the stall, ends of every
  magnitude, ``lo > hi``, NaN and infinite ends.
- The residual calls and points per level of a small penalty-table ladder
  are pinned (``finder_counts.counting_finds``).
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finder_counts import counting_finds
from orbsde import oblique, scalar
from orbsde.errors import BracketingError
from orbsde.scalar import (
    RESIDUAL_TOL,
    _blockwise,
    _guard_bound,
    _guard_free_steps,
    _per_index,
    _restricted,
    _root_find,
    _root_find_batch,
    _roots,
)
from orbsde.scenario import PENALTY_LADDER, Scenario

# -- stiff penalized residuals -------------------------------------------------


def _penalized(y, a, b, lower, upper, p, q, target, dt):
    """phi(y) = y - (a - b y + p (L - y)^+ - q (y - U)^+) dt - target, the
    positive parts as the penalized scheme takes them.  b = -1/dt makes
    phi flat between the barriers (no secant step there)."""
    def positive(x):
        return np.where(x > 0.0, x, 0.0)
    return y - (a - b * y + p * positive(lower - y) - q * positive(y - upper)) * dt - target


@st.composite
def _element(draw):
    """One element: exact at the first probe, at the second, at the secant;
    flat where it starts (no secant step); or bisecting to the stall guard
    against a barrier with a weight up to 1e6."""
    kind = draw(st.sampled_from(["probe", "x1", "secant", "flat", "stiff", "stiff"]))
    dt = draw(st.sampled_from([0.125, 0.5, 1.0]))
    target = draw(st.floats(-5.0, 5.0))
    a, b, p, q = 0.0, 0.0, 0.0, 0.0
    lower, upper = -1e3, 1e3
    if kind == "secant":
        b = draw(st.floats(0.5, 4.0))
    if kind == "flat":
        b, a = -1.0 / dt, draw(st.floats(0.5, 2.0))   # phi = -a dt - target inside
        lower, upper = target - 3.0, target + 3.0
        p = q = draw(st.floats(10.0, 1e6))
    if kind == "stiff":
        b = draw(st.floats(0.0, 2.0))
        lower = target + draw(st.floats(0.1, 3.0))
        upper = lower + draw(st.floats(0.0, 2.0))
        p, q = draw(st.floats(1e3, 1e6)), draw(st.floats(0.0, 1e6))
    x0 = target if kind in ("probe", "x1", "secant", "stiff") else target + 0.5
    if kind == "probe":
        x0 = target + a * dt
    return (a, b, lower, upper, p, q, target, dt), x0


def _scalar_root(params, x0):
    try:
        return _root_find(lambda y: float(_penalized(np.array([y]), *params)[0]), x0,
                          RESIDUAL_TOL)
    except BracketingError:
        return BracketingError


def _gathering_residual(columns: np.ndarray, blocks: int):
    """The residual as the solvers build it: contiguous blocks, each with
    its own ``_per_index`` gather of the elements' parameters."""
    block = -(-columns.shape[1] // blocks)

    def owner():
        at = _per_index(lambda idx: columns[:, idx])
        return lambda y, idx: _penalized(y, *at(idx))

    return _blockwise([owner() for _ in range(blocks)], block)


# a flat element (no secant step) and one whose secant step is exact: the
# secant call is over element 1 alone, which retires, and the next call (a
# bracket expansion) is over element 0 alone, an index array of the same
# size
_EQUAL_SIZES = [((1.59, -8.0, -4.9, 1.1, 1e6, 1e6, -1.9, 0.125), -1.4),
                ((0.0, 2.46, -1e3, 1e3, 0.0, 0.0, -1.7, 1.0), -1.7)]


@settings(max_examples=150, deadline=None)
@given(cases=st.lists(_element(), min_size=1, max_size=40),
       blocks=st.integers(1, 3), subset=st.integers(0, 4))
@example(   # a secant-stepping element retires at f2 while a flat one goes on
    cases=_EQUAL_SIZES, blocks=1, subset=0)
def test_gathers_once_per_index_object_keep_the_scalar_roots(cases, blocks, subset):
    params = np.array([c for c, _ in cases]).T
    x0 = np.array([x for _, x in cases])
    expected = [_scalar_root(c, x) for c, x in cases]
    phi = _gathering_residual(params, blocks)
    if subset:   # every subset-th element dropped: a residual over the rest
        find = np.array([i for i in range(len(cases)) if i % (subset + 1)], dtype=np.intp)
        phi, x0 = _restricted(phi, find), x0[find]
        expected = [expected[i] for i in find.tolist()]
    if not x0.size:
        return
    if BracketingError in expected:
        with pytest.raises(BracketingError):
            _roots(_root_find_batch(phi, x0, RESIDUAL_TOL))
    else:
        assert _roots(_root_find_batch(phi, x0, RESIDUAL_TOL)).tolist() == expected


def test_the_explicit_example_retires_between_calls_of_equal_size():
    params = np.array([c for c, _ in _EQUAL_SIZES]).T
    calls = []

    def phi(y, idx):
        calls.append(idx.copy())
        return _penalized(y, *params[:, idx])

    _root_find_batch(phi, np.array([x for _, x in _EQUAL_SIZES]), RESIDUAL_TOL)
    assert [c.tolist() for c in calls[:4]] == [[0, 1], [0, 1], [1], [0]]


# -- the stall-guard skip -------------------------------------------------------


def _guard(lo: float, hi: float) -> bool:
    """The scalar finder's stall guard."""
    return hi - lo <= 4e-16 * max(1.0, abs(lo), abs(hi))


def _first_firing(lo: float, hi: float, rng: random.Random, limit: int) -> int:
    """The first halving (0 = the bracket's own step) on which the guard
    fires along a random path of halves, or ``limit``."""
    for j in range(limit):
        if _guard(lo, hi):
            return j
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if rng.random() < 0.5 else (mid, hi)
    return limit


@np.errstate(all="ignore")   # as in the finder: overflow gives inf
def _free(lo, hi) -> int:
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return _guard_free_steps(hi - lo, _guard_bound(lo, hi))


def test_the_guard_never_fires_on_a_counted_step():
    rng = random.Random(28)
    reached = 0   # brackets whose guard fires right after the counted steps
    for _ in range(4000):
        scale = 10.0 ** rng.uniform(-20.0, 300.0) * rng.choice((-1.0, 1.0))
        lo = scale * rng.uniform(-2.0, 2.0)
        width = max(1.0, abs(lo)) * 2.0 ** -rng.uniform(44.0, 56.0)
        hi = lo + width
        n = _free([lo], [hi])
        for _ in range(4):
            first = _first_firing(lo, hi, rng, n + 12)
            assert first >= n, (lo, hi, n, first)
            reached += first == n
    assert reached > 200   # the count is tight: one more would be wrong


def test_the_count_is_the_minimum_over_the_brackets():
    rng = random.Random(7)
    lo = np.array([rng.uniform(-3.0, 3.0) for _ in range(50)])
    hi = lo + np.array([2.0 ** -rng.uniform(0.0, 50.0) for _ in range(50)])
    assert _free(lo, hi) == min(_free([a], [b]) for a, b in zip(lo, hi))
    keep = np.arange(50) % 2 == 0
    assert _guard_free_steps(hi - lo, _guard_bound(lo, hi), keep) == min(
        _free([a], [b]) for a, b in zip(lo[keep], hi[keep]))


@pytest.mark.parametrize("lo, hi", [
    (1.0, 0.5),                   # lo > hi: the guard fires at once
    (2.0, 2.0),                   # no width
    (math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan),
    (-math.inf, 1.0), (0.0, math.inf), (math.inf, 1.0), (1.0, -math.inf),
    (-1e308, 1e308),              # the width overflows
    (1e307, 1.7e308),             # the mid overflows
    (1.0, 1.0 + 2.0**-52),        # at the stall already
])
def test_no_step_is_counted_for_brackets_outside_the_bound(lo, hi):
    assert _free([lo], [hi]) == 0
    assert _free([lo, 0.0], [hi, 1.0]) == 0


def test_a_wide_bracket_skips_the_guard_until_near_the_stall():
    # [0, 1] stalls after about 51 halvings; the count stops a step or two
    # short of that, never past it
    n = _free([0.0], [1.0])
    first = _first_firing(0.0, 1.0, random.Random(1), 80)
    assert first - 2 <= n <= first


# -- residual calls per level ----------------------------------------------------


def _ladder_counts(steps: int) -> list[tuple[int, int]]:
    import workloads
    (_, spec), = workloads.penalty_table(1, steps)
    problem = Scenario.from_dict(spec).build_problem()
    solution = oblique.solve_system(problem)
    pairs = [(p, q) for p in PENALTY_LADDER for q in PENALTY_LADDER]
    modes = [oblique.mode_problem(problem, solution, j) for j in range(problem.d)]
    with counting_finds() as finds:
        scalar._penalized_solve(modes, *zip(*pairs))
    return finds


@pytest.fixture
def perfbench_path(monkeypatch):
    from pathlib import Path
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))


def test_penalty_ladder_residual_calls_per_level(perfbench_path):
    # one root find per level, deepest first: (residual calls, points)
    assert _ladder_counts(4) == [(53, 24142), (22, 17714), (23, 11867), (18, 12840)]


def test_counting_finds_restores_every_binding():
    before = [m._root_find_batch for m in (scalar, oblique)]
    with counting_finds() as finds:
        assert scalar._root_find_batch is not before[0]
        roots, errors = scalar._root_find_batch(lambda x, idx: x - 1.0,
                                                np.array([0.0, 1.0]), RESIDUAL_TOL)
        assert (roots.tolist(), errors) == ([1.0, 1.0], [None])
    assert finds == [(2, 3)]
    assert [m._root_find_batch for m in (scalar, oblique)] == before
