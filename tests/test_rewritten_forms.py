"""Cheaper forms of the penalized residual against the forms they replaced.

- The penalized scheme's residual takes its two penalty terms as one sum,
  ``g + (p fmax(L - x, 0) + q fmin(U - x, 0))``, with a dropped term's
  weight 0 and its barrier -inf or +inf.  ``_two_term_residual`` below is
  the form it replaced: each term added on its own, ``(z)^+`` as
  ``where(z > 0, z, 0)``, a term with a weight that is not positive (or
  a barrier the problem lacks) dropped.  For ``L <= U`` the two agree at
  every point, NaN for NaN and zeros by value (the sign of a zero residual
  may differ), for x at L, at U, with L == U, at +-inf and NaN, infinite
  barriers, zero and positive weights and generator values of +-0 and
  +-inf, both for the finder's first, full active set (read from the
  level's arrays) and for a later one (gathered); and the batched finder
  gives the same roots bit for bit, and the same errors, on either.
- The ``table`` generator finds each time index's segment once and
  interpolates only the rows it reads; ``_two_row_table`` below is the
  form it replaced (every row interpolated, the segment found on each
  call).  They give the same bits, floats as floats and arrays as arrays,
  at every time index: at a table time, between times, before the first
  and past the last, and where ``t * dt`` falls exactly on a time.
"""

from __future__ import annotations

import random
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbsde import AdaptedProcess, EventTree, scalar
from orbsde.errors import BracketingError
from orbsde.scalar import RESIDUAL_TOL, ScalarRBSDEProblem, _penalized_solve, _root_find_batch
from orbsde.scenario import _make_generator
from orbsde.tree import LeafRows

# -- the penalty terms ------------------------------------------------------------


def _two_term_residual(x, g, lower, upper, p, q, target, dt):
    """phi(x) as the scheme took it with two penalty terms: each added on
    its own, a term whose weight is not positive dropped (a barrier the
    problem lacks comes with weight 0)."""
    def positive(z):
        return np.where(z > 0.0, z, 0.0)
    val = g
    val = np.where(p > 0, val + p * positive(lower - x), val)
    val = np.where(q > 0, val - q * positive(x - upper), val)
    return x - val * dt - target


_SPECIAL_G = [0.0, -0.0, np.inf, -np.inf]


@st.composite
def _problem(draw):
    """(lower, upper, generator (kind, a, slope), terminal): L <= U, either
    barrier possibly infinite or absent (None)."""
    lower = draw(st.one_of(st.just(-np.inf), st.just(np.inf), st.floats(-50.0, 50.0)))
    upper = (np.inf if lower == np.inf else draw(st.one_of(
        st.just(lower), st.just(np.inf),
        st.floats(0.0, 50.0).map(lambda w: lower + w if np.isfinite(lower) else w))))
    if draw(st.integers(0, 5)) == 0:
        lower = None
    if draw(st.integers(0, 5)) == 0:
        upper = None
    if draw(st.booleans()):
        gen = ("linear", draw(st.floats(-5.0, 5.0)), draw(st.floats(0.1, 3.0)))
    else:
        gen = ("constant", draw(st.one_of(st.sampled_from(_SPECIAL_G), st.floats(-5.0, 5.0))), 0.0)
    return lower, upper, gen, draw(st.floats(-20.0, 20.0))


def _generator(kind, a, slope):
    if kind == "constant":
        return lambda t, nodes, x: np.full(x.shape, a)
    return lambda t, nodes, x: a - slope * x


_WEIGHT = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))


def _point(draw, lower: float, upper: float) -> float:
    """A point: at L, at U, near one of them, at +-inf, NaN or anywhere."""
    pick = draw(st.sampled_from(["L", "U", "near", "inf", "-inf", "nan", "any"]))
    if pick in ("inf", "-inf", "nan"):
        return float(pick)
    end = lower if pick == "L" else upper
    if pick == "any" or (pick == "near" and not np.isfinite(end)):
        return draw(st.floats(-60.0, 60.0))
    return end + draw(st.floats(-1.0, 1.0)) if pick == "near" else end


def _solve_capturing(problems, p, q, before_find=None):
    """``_penalized_solve`` on a one-step tree, its finder's residual,
    targets and ``(roots, errors)`` captured; ``before_find(phi, x0)`` runs
    before the finder does."""
    seen = {}
    original = scalar._root_find_batch

    def capture(phi, x0, tol, blocks=None):
        seen["phi"], seen["x0"] = phi, x0.copy()
        if before_find is not None:
            seen["before"] = before_find(phi, x0)
        seen["found"] = original(phi, x0, tol, blocks)
        return seen["found"]

    scalar._root_find_batch = capture
    try:
        _penalized_solve(problems, p, q)
    except BracketingError:
        pass
    finally:
        scalar._root_find_batch = original
    return seen


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_the_one_sum_penalty_is_the_two_term_residual(data):
    draw = data.draw
    specs = draw(st.lists(_problem(), min_size=1, max_size=3))
    pairs = draw(st.lists(st.tuples(_WEIGHT, _WEIGHT), min_size=1, max_size=4))
    p, q = (list(w) for w in zip(*pairs))
    dt = draw(st.sampled_from([0.125, 0.5, 1.0]))
    tree = EventTree.binary(1, dt)
    problems, rows = [], []
    for lower, upper, gen, xi in specs:
        problems.append(ScalarRBSDEProblem(
            tree=tree, terminal=LeafRows(tree, [xi, xi]), generator=_generator(*gen),
            lower=None if lower is None else AdaptedProcess.constant(tree, lower),
            upper=None if upper is None else AdaptedProcess.constant(tree, upper)))
        for pi, qi in pairs:   # element b * pairs + i: pair i of problem b at the root
            rows.append((-np.inf if lower is None else lower, np.inf if upper is None else upper,
                         0.0 if lower is None else pi, 0.0 if upper is None else qi, gen))
    n = len(rows)
    points = np.array([_point(draw, lower, upper) for lower, upper, *_ in rows])
    sub = np.array(sorted(set(draw(st.lists(st.integers(0, n - 1), max_size=n)))),
                   dtype=np.intp)

    def oracle(x, idx, target):
        g = np.array([_generator(*rows[i][4])(0, None, np.array([xi]))[0]
                      for i, xi in zip(idx.tolist(), x.tolist())])
        lower, upper, pw, qw = (np.array([rows[i][k] for i in idx.tolist()]) for k in range(4))
        with np.errstate(all="ignore"):
            return _two_term_residual(x, g, lower, upper, pw, qw, target[idx], dt)

    def residuals(phi, x0):
        with np.errstate(all="ignore"):
            full = phi(points, np.arange(n))   # the first, full set: the level's arrays
            part = phi(points[sub], sub)       # a later set: gathered
        return full, part

    seen = _solve_capturing(problems, p, q, residuals)
    full, part = seen["before"]
    assert np.array_equal(full, oracle(points, np.arange(n), seen["x0"]), equal_nan=True)
    assert np.array_equal(part, oracle(points[sub], sub, seen["x0"]), equal_nan=True)

    # the finder on either form: roots bit for bit, the same errors; the
    # first run's finder gathered its first set, this one reads it in place
    fresh = _solve_capturing(problems, p, q)
    expected = _root_find_batch(lambda x, idx: oracle(x, idx, seen["x0"]), seen["x0"],
                                RESIDUAL_TOL)
    for found in (seen["found"], fresh["found"]):
        assert found[0].view(np.int64).tolist() == expected[0].view(np.int64).tolist()
        assert [str(e) for e in found[1]] == [str(e) for e in expected[1]]


def test_both_penalty_terms_meet_at_equal_barriers_and_infinite_points():
    # L == U, every element at x = L, then at +inf, then at -inf (the first
    # set read in place, the later ones gathered), with zero and positive
    # weights and generator values of +-0 and +-inf
    tree = EventTree.binary(1, 0.5)
    gens = [(lambda v: (lambda t, nodes, x: np.full(x.shape, v)))(v) for v in _SPECIAL_G]
    problems = [ScalarRBSDEProblem(tree=tree, terminal=LeafRows(tree, [1.0, 1.0]),
                                   generator=g, lower=AdaptedProcess.constant(tree, 1.0),
                                   upper=AdaptedProcess.constant(tree, 1.0)) for g in gens]
    p, q = [0.0, 10.0, 0.0, 1e6], [5.0, 0.0, 0.0, 1e6]
    xs = [np.full(16, x) for x in (1.0, np.inf, -np.inf)]
    with np.errstate(all="ignore"):
        seen = _solve_capturing(problems, p, q, lambda phi, x0: [
            phi(x, np.arange(16)) for x in xs])
        g = np.repeat(_SPECIAL_G, 4)
        pw, qw = np.tile(p, 4), np.tile(q, 4)
        expected = [_two_term_residual(x, g, 1.0, 1.0, pw, qw, seen["x0"], 0.5) for x in xs]
    for got, want in zip(seen["before"], expected):
        assert np.array_equal(got, want, equal_nan=True)
    assert all(np.isnan(want).any() and np.isinf(want).any() for want in expected[1:])


# -- the table generator -----------------------------------------------------------


def _two_row_table(spec: dict, mode: int, dt: float):
    """The table generator as it was: every row interpolated in y on each
    call, the time segment found on each call."""
    times = spec["times"]
    grid = np.asarray(spec["grid"])
    values = np.asarray(spec["values"])

    def table_gen(t, y, _m=mode):
        rows = [np.interp(y[_m], grid, row) for row in values]
        time = t * dt
        j = bisect_right(times, time) - 1
        if j < 0 or j == len(times) - 1 or times[j] == time:
            out = rows[max(j, 0)]
        else:
            slope = (rows[j + 1] - rows[j]) / (times[j + 1] - times[j])
            out = slope * (time - times[j]) + rows[j]
        return out if isinstance(out, np.ndarray) else float(out)

    return table_gen


# (times, dt): a time hit exactly by t * dt (0.25, 0.5, 2.0 at dt = 0.125),
# one missed by rounding (3 * 0.1 != 0.3), one time only, and times that
# start after t = 0
_TABLES = [([0.0, 1.0], 0.125), ([0.0, 0.25, 0.5, 2.0], 0.125), ([0.0, 0.3, 0.6], 0.1),
           ([0.5], 0.25), ([0.3, 0.7, 1.5], 0.2), ([0.0, 0.0, 1.0], 0.5)]
_GRID = [-2.0, -0.5, 0.0, 1.5, 3.0]


@settings(max_examples=60, deadline=None)
@given(table=st.sampled_from(_TABLES), seed=st.integers(0, 2**32 - 1),
       ys=st.lists(st.one_of(st.sampled_from(_GRID), st.floats(-6.0, 6.0)), max_size=6))
def test_the_table_generator_is_the_every_row_formula(table, seed, ys):
    times, dt = table
    rng = random.Random(seed)
    values = [sorted((rng.uniform(-3.0, 3.0) for _ in _GRID), reverse=True) for _ in times]
    spec = {"family": "table", "times": times, "grid": _GRID, "values": values}
    new, old = _make_generator(spec, 1, dt), _two_row_table(spec, 1, dt)
    steps = list(range(int(max(times) / dt) + 3)) * 2   # past the last time; twice each
    rng.shuffle(steps)
    hit = {t for t in steps if t * dt in times}
    assert hit or times == [0.3, 0.7, 1.5]
    for t in steps:
        for y in ys:
            a, b = new(t, (0.0, y)), old(t, (0.0, y))
            assert type(a) is float and a.hex() == b.hex()
        y = np.array(ys)
        a, b = new(t, (y, y)), old(t, (y, y))
        assert isinstance(a, np.ndarray) and a.view(np.int64).tolist() == (
            b.view(np.int64).tolist())


@pytest.mark.parametrize("times, dt", _TABLES)
def test_each_table_time_index_reads_only_its_segments_rows(times, dt, monkeypatch):
    # one row at or outside the table's times, two between
    values = [[1.0 - 0.1 * i, -1.0 - 0.1 * i] for i in range(len(times))]
    gen = _make_generator({"family": "table", "times": times, "grid": [-1.0, 1.0],
                           "values": values}, 0, dt)
    calls = []
    interp = np.interp
    monkeypatch.setattr(np, "interp", lambda *args: calls.append(1) or interp(*args))
    for t in range(int(max(times) / dt) + 3):
        calls.clear()
        gen(t, (0.25,))
        time = t * dt
        j = bisect_right(times, time) - 1
        between = 0 <= j < len(times) - 1 and times[j] != time
        assert len(calls) == (2 if between else 1)
