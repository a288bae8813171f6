"""Command-line harness: solve, verify, sweep-penalization, brute-force.

Exit codes: 0 success, 2 validation failure (kind ``usage``: arguments
argparse refuses, a sweep budget below 1 or a tolerance not >= 0), 3 solver
non-convergence (kind ``solver``) or a failed solver invariant (kind
``internal-consistency``), 4 oracle mismatch beyond tolerance.  Every nonzero exit writes a machine-readable
``diagnostic.json`` into the output directory, with node and time
coordinates wherever the failure has them.  Each command validates its
problem once: the solvers validate before they solve, and ``verify
--solution`` and ``brute-force``, which run no solver, call
``validate_problem`` themselves.

``solve`` and ``sweep-penalization`` use the single backward pass
(``solve_system``), where ``--tol`` and ``--max-sweeps`` bound the
Gauss-Seidel rounds at each node; ``verify`` re-solves with the Picard
iteration (``picard_solve``), the independent oracle, where they bound the
global sweeps.

The ``--seed`` flag is accepted for symmetry with the test harness, which
uses it to generate randomized property-test instances; solver runs are
deterministic and ignore it.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import (
    BracketingError,
    ConvergenceError,
    EnumerationCapError,
    InternalConsistencyError,
    InvalidProblemError,
    InvalidTreeError,
    NonMonotoneSweepError,
)
from .oblique import (
    _check_budget,
    mode_problem,
    picard_solve,
    solve_system,
    validate_problem,
    verify_minimality,
)
from .reporting import (
    fmt,
    load_solution_csv,
    solution_csv_text,
    summary_text,
    write_json,
    write_text,
)
from .scalar import (
    ScalarSolution,
    _penalized_solve,
    _worse,
    verify_snell_representation,
)
from .scenario import PENALTY_LADDER, Scenario, ScenarioError
from .switching import (
    _brute_force_all,
    _decoupling_verdict,
    brute_force_value,
    check_switched_martingale,
    construct_optimal_strategy,
    solve_for_strategy,
    unconstrained_start_value,
    worst_case_switching_cost,
)
from .tree import _check_stopping_caps

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_ORACLE_MISMATCH = 4

BF_TOL = 1e-8
SNELL_TOL = 1e-9
MINIMALITY_TOL = 1e-10
MARTINGALE_TOL = 1e-12


class _UsageError(Exception):
    """Arguments the parser refuses."""


class _Parser(argparse.ArgumentParser):
    """Raises :class:`_UsageError` where argparse would exit 2, so that
    ``main`` writes a diagnostic."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _named_out(argv: list[str]) -> Path:
    """The ``--out`` directory named in refused arguments, if any."""
    probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    probe.add_argument("--out", default="orbsde_out")
    try:
        return Path(probe.parse_known_args(argv)[0].out)
    except argparse.ArgumentError:
        return Path("orbsde_out")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbsde",
        description="Constrained switching systems on finite event trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "solve the system and write solution.csv + summary"),
        ("verify", "re-verify a solution against its defining properties "
                   "and the enumeration oracles"),
        ("sweep-penalization", "tabulate penalized root values over a "
                               "(p, q) ladder"),
        ("brute-force", "exhaustive strategy-enumeration value at the root"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("scenario", help="scenario JSON path")
        p.add_argument("--tol", type=float, default=None,
                       help="override solver tolerance")
        p.add_argument("--max-sweeps", type=int, default=None,
                       help="override sweep budget")
        p.add_argument("--out", default="orbsde_out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="reserved for randomized test-instance generation")
        if name == "verify":
            p.add_argument("--solution", default=None,
                           help="verify this solution CSV instead of re-solving")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: built on the first ``main`` call and
    reused by every later one (parsing leaves it as it was)."""
    return build_parser()


def _fail(out: Path, code: int, kind: str, detail, violations=None,
          node_id=None) -> int:
    """Write ``diagnostic.json`` into ``out`` and return the exit code."""
    payload = {"exit_code": code, "error": {"kind": kind, "detail": detail}}
    if node_id is not None:
        payload["error"]["node_id"] = node_id
    if violations:
        payload["violations"] = [v.as_dict() for v in violations]
    write_json(out / "diagnostic.json", payload)
    sys.stderr.write(f"orbsde: {kind}: {detail}\n")
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except _UsageError as err:
        return _fail(_named_out(argv), EXIT_VALIDATION, "usage", str(err))
    out = Path(args.out)
    fail = functools.partial(_fail, out)

    try:
        scenario = Scenario.from_file(args.scenario)
        problem = scenario.build_problem()
    except (ScenarioError, InvalidTreeError, ValueError) as err:
        violations = getattr(err, "violations", None)
        return fail(EXIT_VALIDATION, "scenario", str(err), violations)

    tol = args.tol if args.tol is not None else scenario.solver["tol"]
    max_sweeps = (
        args.max_sweeps if args.max_sweeps is not None
        else scenario.solver["max_sweeps"]
    )
    try:
        _check_budget(tol, max_sweeps)
    except ValueError as err:
        return fail(EXIT_VALIDATION, "usage", str(err))

    try:
        if args.command == "solve":
            return _cmd_solve(scenario, problem, tol, max_sweeps, out)
        if args.command == "verify":
            return _cmd_verify(scenario, problem, tol, max_sweeps, out,
                               args.solution, fail)
        if args.command == "sweep-penalization":
            return _cmd_sweep(scenario, problem, tol, max_sweeps, out)
        return _cmd_brute_force(scenario, problem, out)
    except (ConvergenceError, NonMonotoneSweepError, BracketingError) as err:
        return fail(EXIT_NO_CONVERGENCE, "solver", str(err))
    except InternalConsistencyError as err:
        return fail(EXIT_NO_CONVERGENCE, "internal-consistency", str(err),
                    node_id=err.node_id)
    except EnumerationCapError as err:
        return fail(EXIT_VALIDATION, "enumeration-cap", str(err))
    except InvalidProblemError as err:
        return fail(EXIT_VALIDATION, "problem-validation",
                    f"{len(err.violations)} violation(s); see diagnostic.json",
                    err.violations)


def _require_valid(problem) -> None:
    """``validate_problem`` for the commands that run no validating solver."""
    report = validate_problem(problem)
    if report:
        raise InvalidProblemError(report)


def _brute_force(problem, cap: int):
    """``best(j)``, the root's ``brute_force_value`` in start mode j, each
    read off one enumeration of every start mode (``_brute_force_all``).
    If that enumeration raises, ``best(j)`` is start mode j's own
    ``brute_force_value`` instead, so that an error surfaces at the mode,
    and with the message, that the per-mode enumerations give it."""
    try:
        return _brute_force_all(problem, problem.tree.root, cap)
    except Exception:
        return functools.partial(brute_force_value, problem, problem.tree.root, cap=cap)


def _cmd_solve(scenario, problem, tol, max_sweeps, out: Path) -> int:
    solution = solve_system(problem, tol, max_sweeps)
    minimality = verify_minimality(problem, solution)
    root = problem.tree.root
    summary = {
        "scenario": scenario.name,
        "root_values": solution.y_columns[root].tolist(),
        "sweeps": solution.sweeps,
        "final_delta": solution.final_delta,
        "max_flat_off_residual": max(
            minimality.worst_flat_off_lower, minimality.worst_flat_off_upper
        ),
        "worst_residual": minimality.worst_residual,
    }
    write_text(out / "solution.csv", solution_csv_text(problem, solution))
    write_json(out / "summary.json", summary)
    write_text(out / "summary.txt", summary_text(summary))
    return EXIT_OK


def _cmd_verify(scenario, problem, tol, max_sweeps, out: Path,
                solution_path, fail) -> int:
    if solution_path is None:
        solution = picard_solve(problem, tol=tol, max_sweeps=max_sweeps)
    else:
        _require_valid(problem)
        try:
            solution = load_solution_csv(Path(solution_path), problem)
        except (OSError, ValueError, KeyError) as err:
            return fail(EXIT_VALIDATION, "solution-file", str(err))
    tree = problem.tree
    d = problem.d
    results: dict = {"scenario": scenario.name, "checks": {}}
    mismatches: list[str] = []
    notes: list[str] = []
    if problem.costs is not None:
        results["worst_case_switching_cost"] = worst_case_switching_cost(problem)

    minimality = verify_minimality(problem, solution)
    results["checks"]["minimality"] = minimality.as_dict()
    if not minimality.ok(MINIMALITY_TOL):
        mismatches.append(
            f"minimality worst residual {minimality.worst_residual:.3g} "
            f"> {MINIMALITY_TOL:g}"
        )

    depth_cap = scenario.solver["stopping_depth_cap"]
    count_cap = scenario.solver["stopping_count_cap"]
    try:
        # the root's subtree is the deepest and largest, so the caps refuse
        # there first; checked before the d mode problems are built
        _check_stopping_caps(tree, tree.root, depth_cap, count_cap)
        worst_gap = 0.0
        for j in range(d):
            column = ScalarSolution(solution.y[j], solution.m_increments[j],
                                    solution.k[j], solution.a[j])
            gap = verify_snell_representation(
                mode_problem(problem, solution, j), column, depth_cap, count_cap
            )
            worst_gap = _worse(worst_gap, gap)
        results["checks"]["snell_representation_gap"] = worst_gap
        if not worst_gap <= SNELL_TOL:
            mismatches.append(
                f"stopped-payoff representation gap {worst_gap:.3g} > {SNELL_TOL:g}"
            )
    except EnumerationCapError as err:
        notes.append(f"representation check skipped: {err}")

    if _decoupling_verdict(problem):
        notes.append("brute-force cross-check skipped: generators are coupled")
    else:
        try:
            bf_results = []
            best = _brute_force(problem, scenario.solver["strategy_cap"])
            for j in range(d):
                value, _ = best(j)
                reachable = unconstrained_start_value(problem, solution, tree.root, j)
                y_root = solution.y[j][tree.root]
                push = solution.k[j].out_of(tree.root)
                bf_results.append(
                    {
                        "mode": j,
                        "brute_force": value,
                        "strategy_reachable_root_value": reachable,
                        "system_root_value": y_root,
                        "start_push": push,
                    }
                )
                if not abs(value - reachable) <= BF_TOL:
                    mismatches.append(
                        f"brute force {value:.12g} != reachable root value "
                        f"{reachable:.12g} in mode {j}"
                    )
                if push <= MINIMALITY_TOL and not abs(value - y_root) <= BF_TOL:
                    mismatches.append(
                        f"brute force {value:.12g} != system root {y_root:.12g} "
                        f"in mode {j} (no start push)"
                    )
                greedy = construct_optimal_strategy(problem, solution, tree.root, j)
                greedy_value = solve_for_strategy(problem, greedy).r[tree.root]
                bf_results[-1]["greedy_value"] = greedy_value
                if not abs(greedy_value - value) <= BF_TOL:
                    mismatches.append(
                        f"greedy strategy value {greedy_value:.12g} != brute "
                        f"force {value:.12g} in mode {j}"
                    )
                mart = check_switched_martingale(problem, solution, greedy)
                if not mart.ok(MARTINGALE_TOL):
                    mismatches.append(
                        f"switched martingale residual {mart.worst:.3g} in mode {j}"
                    )
            results["checks"]["brute_force"] = bf_results
        except EnumerationCapError as err:
            notes.append(f"brute-force cross-check skipped: {err}")

    results["notes"] = notes
    results["mismatches"] = mismatches
    write_json(out / "verification.json", results)
    write_text(
        out / "verification.txt",
        summary_text(
            {
                "scenario": scenario.name,
                "root_values": solution.y_columns[tree.root].tolist(),
                "worst_residual": minimality.worst_residual,
                "notes": notes + mismatches,
            }
        ),
    )
    if mismatches:
        return fail(EXIT_ORACLE_MISMATCH, "oracle-mismatch", "; ".join(mismatches))
    return EXIT_OK


def _cmd_sweep(scenario, problem, tol, max_sweeps, out: Path) -> int:
    solution = solve_system(problem, tol, max_sweeps)
    root = problem.tree.root
    lines = ["p,q,mode,root_y,projected_root_y\n"]
    pairs = [(p, q) for p in PENALTY_LADDER for q in PENALTY_LADDER]
    ladders = _penalized_solve(   # one walk: every mode's ladder, mode by mode
        [mode_problem(problem, solution, j) for j in range(problem.d)], *zip(*pairs))
    roots = ladders.y[root].reshape(problem.d, len(pairs)).tolist()
    root_values = solution.y_columns[root].tolist()
    for j, projected in enumerate(root_values):
        for (p, q), value in zip(pairs, roots[j]):
            lines.append(f"{fmt(p)},{fmt(q)},{j},{fmt(value)},{fmt(projected)}\n")
    write_text(out / "penalization.csv", "".join(lines))
    write_json(
        out / "summary.json",
        {
            "scenario": scenario.name,
            "ladder": list(PENALTY_LADDER),
            "root_values": root_values,
        },
    )
    return EXIT_OK


def _cmd_brute_force(scenario, problem, out: Path) -> int:
    _require_valid(problem)
    tree = problem.tree
    payload = {"scenario": scenario.name, "modes": []}
    best = _brute_force(problem, scenario.solver["strategy_cap"])
    for j in range(problem.d):
        value, strategy = best(j)
        payload["modes"].append(
            {
                "mode": j,
                "value": value,
                "argmax_strategy": strategy.as_id_dict(),
                "switch_events": [
                    {
                        "node_id": tree.ids[u],
                        "time_index": t,
                        "from_mode": m0,
                        "to_mode": m1,
                    }
                    for u, t, m0, m1 in strategy.switch_events()
                ],
            }
        )
    write_json(out / "brute_force.json", payload)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
