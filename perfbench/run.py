"""orbsde benchmark: seeded workloads through the ``orbsde`` command line.

    python3 perfbench/run.py --workload picard-coupled --seed 3 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The benchmark writes the workload's scenario files from the
seed, then, for ``--seconds``, runs passes of the workload's commands
through ``orbsde.cli.main`` in this process, each followed by a quarter
second of ``Scenario.from_file`` + ``build_problem`` calls (``setup_s``).
Every output is checked, and repeated outputs must be byte-identical.
The end-to-end timings are in reference seconds (``pace.py``): a
reference block of fixed work is timed after every command and every
set-up block, and each step's wall time is scaled by the nominal block
time over the blocks around it, so that the host's drifting speed cancels
out.  Wall-clock medians are printed next to them.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted`` counts command invocations and ``failed`` those with a
nonzero exit or a failed output check (their ratio is ``error_rate``).
With ``--trace 0`` the metrics are the end-to-end ones: the medians
``setup_s`` and ``commands_s`` (one pass: solve + verify, or
sweep-penalization + the verify set), in reference seconds, and
``peak_rss_mb`` of this process.  Before that line each timing (also
``solve_s``, ``verify_s`` or ``sweep_s`` per command) is printed with its
median, best, tail and sample count, and ``error_rate`` with its counts,
next to the machine facts.  With ``--trace 1`` the run alternates an
untraced and a traced pass, times them in wall seconds (no reference
blocks), and reports the per-layer metrics of ``spans.PER_LAYER`` (self
times and counts of one pass) plus ``trace.overhead_s``; the spans of the
last traced pass are written to ``.bench_work/traces/``.

Workloads (why each one is here):

* picard-coupled: solve, then verify --solution, on a depth-11 binomial
  tree (4,095 nodes, d = 3) with affine-coupled generators.  Picard
  sweeps, evaluate_H, the scalar kernel with exact-secant roots, tree
  build, CSV write/load and verify_minimality.
* penalty-oracle: sweep-penalization on a depth-8 binomial tree (511
  nodes, d = 3) with kinked table generators (75 penalized solves whose
  roots need bisection, per-call generator interpolation), then verify
  (re-solving) a depth-3 binomial (15 nodes, d = 2) and a depth-8 chain
  (9 nodes, d = 3) with decoupled linear generators, where strategy and
  stopping-time enumeration, the greedy strategy and the
  switched-martingale check do the work.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import pace
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_SECONDS = 0.25    # of set-ups after each pass


def use_sources() -> bool:
    """Put the checkout's ``src/`` first on the import path, if it is there."""
    if not (ROOT / "src" / "orbsde" / "cli.py").is_file():
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def summarize(name: str, unit: str, values: list[float]) -> str:
    """Median, the highest percentile with ten samples beyond it, and n."""
    n = len(values)
    ordered = sorted(values)
    line = (f"  {name:<14} median {statistics.median(values):.6g} {unit}"
            f"  best {ordered[0]:.6g} {unit}")
    if n >= 20:   # exactly ten samples lie above ordered[n - 11]
        line += f"  p{100 * (n - 10) // n} {ordered[n - 11]:.6g} {unit}"
    else:
        line += f"  max {ordered[-1]:.6g} {unit} (no tail percentile above the median " \
                "has ten samples beyond it)"
    return line + f"  n={n}"


def fits(start: float, seconds: float, durations: list[float]) -> bool:
    """Whether one more step of typical duration ends within ``seconds``
    (the first step always runs)."""
    if not durations:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


class Runner:
    """Runs passes of one workload and tallies invocations and failures.

    With a ``clock``, every command is followed by a reference block and
    timed in reference seconds; without one, in wall seconds.
    """

    def __init__(self, workload: workloads.Workload, files: dict[str, Path],
                 work: Path, seed: int, clock: pace.Clock | None = None):
        from orbsde import cli

        self.cli = cli
        self.clock = clock
        self.commands = workload.commands(files, work, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.wall_passes: list[float] = []
        self._digests: dict[Path, str] = {}

    def run_pass(self) -> dict[str, float]:
        """One pass; returns its seconds per command kind."""
        gc.collect()
        times: dict[str, float] = {}
        wall = 0.0
        for command in self.commands:
            elapsed, factor = self.run_command(command)
            times[command.kind] = times.get(command.kind, 0.0) + elapsed * factor
            wall += elapsed
        self.wall_passes.append(wall)
        return times

    def run_command(self, command: workloads.Command) -> tuple[float, float]:
        """Run and check one invocation; returns its wall seconds and the
        factor to reference seconds (1 without a clock)."""
        def invoke():
            try:
                return self.cli.main(command.argv)
            except Exception as err:   # a traceback is a failed invocation too
                return f"with an uncaught {type(err).__name__}: {err}"

        if self.clock is None:
            t0 = time.perf_counter()
            code = invoke()
            elapsed, factor = time.perf_counter() - t0, 1.0
        else:
            code, elapsed, factor = self.clock.run(invoke)
        self.attempted += 1
        try:
            problems = (command.check(code, command.output.parent)
                        or self._same_bytes(command.output))
        except (OSError, ValueError, KeyError) as err:   # missing or malformed output
            problems = [f"unreadable output: {err!r}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{command.argv[0]}: {p}" for p in problems)
        return elapsed, factor

    def _same_bytes(self, path: Path) -> list[str]:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self._digests.setdefault(path, digest)
        return [] if digest == first else [f"{path.name} differs from the first pass"]


def write_scenarios(workload: workloads.Workload, seed: int, tiny: bool,
                    work: Path) -> dict[str, Path]:
    """The workload's scenario files for ``seed``, by label."""
    work.mkdir(parents=True, exist_ok=True)
    files = {}
    for label, scenario in workload.scenarios(seed, tiny):
        files[label] = work / f"{label}.json"
        files[label].write_text(json.dumps(scenario, indent=1) + "\n", encoding="utf-8")
    return files


def time_setup(files: dict[str, Path], seconds: float) -> list[float]:
    """Set up every scenario of the workload, repeatedly for ``seconds``
    (at least once); one sample per repetition."""
    from orbsde.scenario import Scenario

    samples: list[float] = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        gc.collect()
        t0 = time.perf_counter()
        for path in files.values():
            Scenario.from_file(path).build_problem()
        samples.append(time.perf_counter() - t0)
    return samples


def run_end_to_end(runner: Runner, files: dict[str, Path], seconds: float) -> dict:
    # set-ups are spread over the run like the passes, so that both
    # medians see the same spells of a busy machine
    clock = runner.clock
    setup: list[float] = []
    setup_wall: list[float] = []
    per_kind: dict[str, list[float]] = {}
    passes: list[float] = []
    steps: list[float] = []
    start = time.perf_counter()
    while fits(start, seconds, steps):
        t0 = time.perf_counter()
        times = runner.run_pass()
        passes.append(sum(times.values()))
        for kind, value in times.items():
            per_kind.setdefault(kind, []).append(value)
        samples, _, factor = clock.run(lambda: time_setup(files, SETUP_SECONDS))
        setup_wall.extend(samples)
        setup.extend(sample * factor for sample in samples)
        steps.append(time.perf_counter() - t0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"  timings in reference seconds (see pace.py); reference block "
          f"median {statistics.median(clock.blocks):.6g} s wall, nominal "
          f"{pace.REF_SECONDS:g} s, n={len(clock.blocks)}")
    print(summarize("setup_s", "s", setup))
    print(summarize("commands_s", "s", passes))
    for kind in sorted(per_kind):
        print(summarize(f"{kind}_s", "s", per_kind[kind]))
    print("  wall-clock seconds:")
    print(summarize("setup_s", "s", setup_wall))
    print(summarize("commands_s", "s", runner.wall_passes))
    print(f"  peak_rss_mb    {rss_mb:.6g} MB")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "commands_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run_traced(runner: Runner, seconds: float, trace_path: Path) -> dict:
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float | None]] = []
    pairs: list[float] = []
    start = time.perf_counter()
    tracer = None
    while fits(start, seconds, pairs):
        t0 = time.perf_counter()
        plain.append(sum(runner.run_pass().values()))
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            traced.append(sum(runner.run_pass().values()))
        finally:
            tracer.restore()
        layers.append(spans.layer_values(tracer))
        pairs.append(time.perf_counter() - t0)

    metrics = {}
    for metric, (unit, _) in spans.PER_LAYER.items():
        values = [layer[metric] for layer in layers]
        if values[0] is None:
            metrics[metric] = (None, unit)
        elif unit == "s":
            metrics[metric] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                runner.problems.append(f"{metric} differs between traced passes: {values}")
            metrics[metric] = (values[0], unit)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")

    tracer.write(trace_path)
    print(f"  traced passes {len(traced)}, untraced passes {len(plain)}; "
          f"spans of the last traced pass in {trace_path}")
    if tracer.missing:
        print(f"  unmeasured (target not found): {', '.join(sorted(tracer.missing))}")
    for metric, (value, unit) in metrics.items():
        shown = "unmeasured" if value is None else f"{value:.6g} {unit}"
        print(f"  {metric:<34} {shown}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest tree sizes, for the self-test")
    args = parser.parse_args(argv)

    if not use_sources():
        sys.stderr.write(f"perfbench: no orbsde sources under {ROOT / 'src'}; "
                         "run from a source checkout\n")
        return 2

    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        files = write_scenarios(workload, args.seed, args.tiny, work)
        runner = Runner(workload, files, work, args.seed,
                        None if args.trace else pace.Clock())
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}; machine {json.dumps(machine_facts())}")
        if args.trace:
            trace_path = (ROOT / ".bench_work" / "traces"
                          / f"{args.workload}-seed{args.seed}.npz")
            metrics = run_traced(runner, args.seconds, trace_path)
        else:
            metrics = run_end_to_end(runner, files, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    error_rate = runner.failed / runner.attempted
    print(f"  error_rate     {error_rate:.6g} ({runner.failed} of {runner.attempted} "
          "invocations failed)")
    for problem in runner.problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
