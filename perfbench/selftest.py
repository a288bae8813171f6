"""Self-test of the benchmark at the smallest tree sizes.

    python3 perfbench/selftest.py

Checks that a tiny run of every workload completes with no failures, that
two traced runs of a workload give identical counters, that a corrupted
``solution.csv`` value is counted as a failed invocation, and that the span
wrappers are all removed again and a missing target reads as unmeasured.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import spans
import workloads


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, run.__file__, "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=False)
    expect(proc.returncode == 0, f"{workload} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupted_solution_is_counted() -> None:
    work = run.ROOT / ".bench_work" / "selftest-corrupt"
    workload = workloads.WORKLOADS["picard-coupled"]
    try:
        files = run.write_scenarios(workload, 5, True, work)
        runner = run.Runner(workload, files, work, 5)
        solve, verify = runner.commands
        runner.run_command(solve)
        rows = solve.output.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = rows[1].split(",")
        fields[4] = repr(float(fields[4]) + 1e-3)      # the root's y in mode 0
        rows[1] = ",".join(fields)
        solve.output.write_text("".join(rows), encoding="utf-8")
        runner.run_command(verify)
        expect((runner.attempted, runner.failed) == (2, 1),
               f"corrupted solution: {runner.failed} of {runner.attempted} counted failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def wrappers_restored_and_missing_marked() -> None:
    from orbsde import cli, oblique, scalar, scenario, switching, tree

    modules = (cli, oblique, scalar, scenario, switching, tree,
               scenario.Scenario, tree.EventTree)
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.patch("orbsde.switching:_no_such_function", "switching.eval_strategy")
    tracer.restore()
    after = [dict(vars(m)) for m in modules]
    expect(all(b.keys() == a.keys() and all(b[k] is a[k] for k in b)
               for b, a in zip(before, after)), "a traced binding was not restored")
    values = spans.layer_values(tracer)
    expect(values["switching.strategies_evaluated"] is None
           and values["oblique.H_calls"] == 0, "a missing target was not marked unmeasured")


def main() -> int:
    if not run.use_sources():
        sys.stderr.write("selftest: no orbsde sources under src/\n")
        return 2
    for name in workloads.WORKLOADS:
        result = bench(name, 0)
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"{name}: {result}")
        first, second = bench(name, 1), bench(name, 1)
        counters = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] != "s"}
                    for r in (first, second)]
        expect(counters[0] == counters[1], f"{name}: traced counters differ")
        expect(first["correct"] and second["correct"], f"{name}: traced run failed")
        print(f"ok  {name}: tiny run and two traced runs")
    corrupted_solution_is_counted()
    print("ok  corrupted solution.csv counted as a failed invocation")
    wrappers_restored_and_missing_marked()
    print("ok  wrappers restored; a missing target reads as unmeasured")
    return 0


if __name__ == "__main__":
    sys.exit(main())
