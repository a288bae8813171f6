"""Residual calls and points of each batched root find.

``scalar._root_find_batch`` is bound by name in every module that calls
it, so a span around one binding misses the others.  ``counting_finds``
wraps each binding for the duration of a ``with`` block and records one
``(calls, points)`` pair per root find, in the order the finds run, and
passes the finder's block layout and its ``(roots, errors)`` on as they
are::

    with counting_finds() as finds:
        scalar._penalized_solve(problems, p, q)
    calls = sum(c for c, _ in finds)
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from orbsde import oblique, scalar, switching

_BINDINGS = (scalar, oblique, switching)


@contextlib.contextmanager
def counting_finds() -> Iterator[list[tuple[int, int]]]:
    """Record ``(residual calls, points)`` of every ``_root_find_batch``
    run inside the block; the bindings are restored on exit."""
    finds: list[tuple[int, int]] = []
    original = scalar._root_find_batch

    def counted(phi, x0, tol, blocks=None):
        tally = [0, 0]

        def residual(x, idx):   # passes idx on as it is, so gathers still hit
            tally[0] += 1
            tally[1] += x.size
            return phi(x, idx)

        try:
            return original(residual, x0, tol, blocks)
        finally:
            finds.append((tally[0], tally[1]))

    try:
        for module in _BINDINGS:
            module._root_find_batch = counted
        yield finds
    finally:
        for module in _BINDINGS:
            module._root_find_batch = original
