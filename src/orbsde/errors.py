"""Shared error types and the diagnostic violation record.

Validators never raise on bad *data*: they return lists of ``Violation``
records carrying node/time coordinates.  Solvers raise on violated
preconditions, wrapping the validator output.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One validation finding, with enough coordinates to locate it."""

    code: str
    message: str
    node_id: str | None = None
    time_index: int | None = None
    mode: int | None = None

    def __str__(self) -> str:
        where = []
        if self.node_id is not None:
            where.append(f"node={self.node_id}")
        if self.time_index is not None:
            where.append(f"t={self.time_index}")
        if self.mode is not None:
            where.append(f"mode={self.mode}")
        suffix = f" [{', '.join(where)}]" if where else ""
        return f"{self.code}: {self.message}{suffix}"

    def as_dict(self) -> dict:
        out: dict = {"code": self.code, "message": self.message}
        if self.node_id is not None:
            out["node_id"] = self.node_id
        if self.time_index is not None:
            out["time_index"] = self.time_index
        if self.mode is not None:
            out["mode"] = self.mode
        return out


class TreeStructureError(ValueError):
    """Raw tree input is unusable (duplicate ids, unknown parent, ...)."""


class InvalidTreeError(ValueError):
    """Tree failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class InvalidProblemError(ValueError):
    """Problem data failed validation; carries the violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class EnumerationCapError(RuntimeError):
    """An exhaustive enumeration would exceed its configured cap.

    Raised instead of silently truncating: oracles are exhaustive or absent.
    """


class BracketingError(RuntimeError):
    """The implicit-step residual could not be bracketed.

    Signals a generator that is not decreasing in y (or is otherwise
    pathological), since a decreasing generator makes the residual strictly
    increasing and a bracket always exists.
    """


class NonMonotoneSweepError(RuntimeError):
    """A Picard sweep or a Gauss-Seidel round decreased from a subsolution,
    or a node lies below every corner the start rule tries."""


class ConvergenceError(RuntimeError):
    """Sweep (or per-node round) budget exhausted before the sup-norm
    delta reached tolerance."""


class InternalConsistencyError(RuntimeError):
    """A solver invariant failed that valid data rule out (a binding cycle
    under triangle costs, a binding obstacle with no attaining mode);
    ``node_id`` locates it."""

    def __init__(self, message: str, node_id: str | None = None):
        self.node_id = node_id
        super().__init__(message)
