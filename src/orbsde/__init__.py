"""Reflected backward equations with oblique reflection on finite event
trees, and the constrained optimal switching problem they solve.

The package is organized around the substrate-to-application stack:

* :mod:`orbsde.tree`: event trees, adapted processes, predictable
  increments, stopping times, Doob decomposition, Snell envelopes, and
  exhaustive stopping-time enumeration;
* :mod:`orbsde.scalar`: one-dimensional reflected solvers (lower, upper,
  two-barrier, penalized) and the stopped-payoff representation check;
* :mod:`orbsde.oblique`: validation of the structural hypotheses, the
  single-pass solver for the d-mode system, and the monotone Picard
  solver that serves as its oracle;
* :mod:`orbsde.switching`: per-strategy constrained solves, exhaustive
  strategy enumeration (the value oracle), and the greedy optimal strategy;
* :mod:`orbsde.scenario` / :mod:`orbsde.cli`: the JSON scenario format and
  the ``orbsde`` command-line harness.
"""

from .errors import (
    BracketingError,
    ConvergenceError,
    EnumerationCapError,
    InternalConsistencyError,
    InvalidProblemError,
    InvalidTreeError,
    NonMonotoneSweepError,
    TreeStructureError,
    Violation,
)
from .oblique import (
    CostMatrix,
    MinimalityReport,
    ObliqueProblem,
    SystemSolution,
    build_subsolution,
    evaluate_H,
    picard_solve,
    solve_system,
    validate_problem,
    verify_minimality,
)
from .scalar import (
    PenalizationParams,
    PenalizedSolution,
    ScalarRBSDEProblem,
    ScalarSolution,
    implicit_step,
    solve_lower,
    solve_penalized,
    solve_two_barrier,
    solve_upper,
    verify_snell_representation,
)
from .scenario import Scenario, ScenarioError
from .switching import (
    StrategyValue,
    SwitchingStrategy,
    brute_force_value,
    check_switched_martingale,
    construct_optimal_strategy,
    enumerate_strategies,
    solve_for_strategy,
    unconstrained_start_value,
    worst_case_switching_cost,
)
from .tree import (
    AdaptedProcess,
    DoobDecomposition,
    EventTree,
    LeafRows,
    Node,
    PredictableIncrements,
    StoppingTime,
    conditional_expectation,
    doob_decomposition,
    enumerate_stopping_times,
    snell_envelope,
    stopping_time_count,
    validate_tree,
)

__version__ = "0.1.0"
