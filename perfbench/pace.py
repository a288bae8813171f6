"""A fixed block of reference work that measures how fast the machine runs now.

The benchmark's machine is a share of a host whose speed drifts by up to
2x over minutes, for the program and for any other code alike.  The run
times a reference block between the workload's steps and reports each
step in reference seconds: its wall time scaled by ``REF_SECONDS`` over the
reference blocks timed just before and just after it, that is, the time
the step would take on a machine on which one reference block takes
``REF_SECONDS``.

The block is the kind of work the solver does: a pure-Python bisection
whose residual calls ``np.interp`` on a 17-point grid and ``math``
functions, with results kept in a dict.  It uses nothing of ``orbsde``,
so a change to the program cannot move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

REF_SECONDS = 0.25   # nominal time of one block; the unit of the paced timings
ROOTS = 1800         # bisection roots in one block: about REF_SECONDS on a 2-core Xeon

_GRID = np.linspace(-4.0, 4.0, 17)
_VALUES = 0.3 - 0.4 * _GRID - 0.15 * _GRID * np.abs(_GRID)


def _root(c: float) -> float:
    def phi(y: float) -> float:
        return y - c - 0.1 * float(np.interp(y, _GRID, _VALUES)) + 0.01 * math.tanh(y)

    lo, hi = -10.0, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if phi(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def reference() -> float:
    """Wall seconds of one reference block."""
    sums: dict[int, float] = {}
    t0 = time.perf_counter()
    for i in range(ROOTS):
        sums[i % 97] = sums.get(i % 97, 0.0) + _root(0.01 * (i % 50))
    return time.perf_counter() - t0


class Clock:
    """Runs steps with a reference block after each, and gives each step's
    factor from wall to reference seconds (from the blocks around it)."""

    def __init__(self) -> None:
        reference()   # warm-up: the first block runs slower
        self.blocks = [reference()]

    def run(self, step):
        """``(result, wall seconds, factor)`` of one step."""
        t0 = time.perf_counter()
        result = step()
        wall = time.perf_counter() - t0
        before = self.blocks[-1]
        self.blocks.append(reference())
        return result, wall, REF_SECONDS / (0.5 * (before + self.blocks[-1]))
