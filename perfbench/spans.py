"""Span tracing installed from outside the package.

Each target is a name bound in an ``orbsde`` module or class, and the
wrapper replaces that binding, because that is where the caller looks the
name up (``cli.picard_solve`` and ``oblique.validate_problem`` are separate
bindings of the same function, for instance).  Spans are kept in flat
arrays (name, parent, start, end in ns) and written out when the run ends;
self times and call counts are accumulated on the fly.  ``Tracer.restore``
puts every original binding back.  A target that no longer exists is
recorded in ``missing`` and the metrics built on it read as unmeasured.
"""

from __future__ import annotations

import importlib
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = {}
        self.results: dict[str, list] = {}
        self.missing: set[str] = set()
        self._stack: list[list[int]] = []   # [span id, child ns]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return idx

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn: Callable, post: Callable | None = None) -> Callable:
        """``fn`` recorded as span ``name``; ``post`` sees the result after
        the span has closed and returns what the caller gets."""
        idx = self._intern(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_ns = self.calls, self.self_ns

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0)
            frame = [sid, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                ends[sid] = t1
                dur = t1 - t0
                self_ns[idx] += dur - frame[1]
                calls[idx] += 1
                if stack:
                    stack[-1][1] += dur
            return post(result) if post is not None else result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def patch(self, target: str, name: str, post: Callable | None = None,
              inner: Callable[[Callable], Callable] | None = None) -> None:
        """Replace ``module:attr`` or ``module:Class.attr`` by a traced wrapper.

        ``inner`` adapts the original before it is wrapped (to count
        callbacks it is handed, for instance); its cost lands in the span.
        """
        module_name, _, path = target.partition(":")
        owner: object = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
        except (AttributeError, KeyError):
            self.missing.add(name)
            self._intern(name)
            return
        method = isinstance(raw, (classmethod, staticmethod))
        fn = raw.__func__ if method else raw
        if inner is not None:
            fn = inner(fn)
        new = self.wrap(name, fn, post)
        if method:
            new = type(raw)(new)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- reading -----------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        idx = self._name_index.get(name)
        return 0.0 if idx is None else self.self_ns[idx] / 1e9

    def n_calls(self, name: str) -> int:
        idx = self._name_index.get(name)
        return 0 if idx is None else self.calls[idx]

    def write(self, path: Path) -> None:
        """Spans as a compressed ``.npz``: ``names`` (a span's ``name`` is an
        index into it), ``parent`` (span index, -1 for none), ``start_ns``,
        ``end_ns``, and ``missing`` (targets that were not found)."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            missing=np.array(sorted(self.missing), dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )


def _counting_root_find(tracer: Tracer) -> Callable[[Callable], Callable]:
    """Count residual evaluations per root find (``phi`` is argument 0)."""
    def adapt(root_find: Callable) -> Callable:
        def counted(phi, *args, **kwargs):
            evals = 0

            def phi_counted(x):
                nonlocal evals
                evals += 1
                return phi(x)

            try:
                return root_find(phi_counted, *args, **kwargs)
            finally:
                tracer.count("scalar.residual_evals", evals)
                if evals > 3:
                    tracer.count("scalar.bisection_roots")
        return counted
    return adapt


def install(tracer: Tracer) -> None:
    """Bind a traced wrapper over every layer entry point."""
    def counter(name: str, size: Callable) -> Callable:
        def post(result):
            tracer.count(name, size(result))
            return result
        return post

    def keep(name: str) -> Callable:
        def post(result):
            tracer.results.setdefault(name, []).append(result)
            return result
        return post

    def traced_generator(gen: Callable) -> Callable:
        return tracer.wrap("scenario.generator", gen)

    root_find = _counting_root_find(tracer)
    targets = [
        ("orbsde.cli:main", "cli.main", None, None),
        ("orbsde.scenario:Scenario.from_file", "scenario.parse", None, None),
        ("orbsde.scenario:Scenario.build_problem", "scenario.build_problem", None, None),
        ("orbsde.scenario:_make_generator", "scenario.make_generator",
         traced_generator, None),
        ("orbsde.tree:EventTree.build", "tree.build",
         counter("tree.nodes", lambda tree: tree.n_nodes), None),
        ("orbsde.cli:validate_problem", "oblique.validate", None, None),
        ("orbsde.oblique:validate_problem", "oblique.validate", None, None),
        ("orbsde.cli:picard_solve", "oblique.picard", keep("oblique.picard"), None),
        ("orbsde.oblique:build_subsolution", "oblique.subsolution", None, None),
        ("orbsde.oblique:evaluate_H", "oblique.H", None, None),
        ("orbsde.oblique:binding_graph_cycles", "oblique.binding_cycles", None, None),
        ("orbsde.cli:verify_minimality", "oblique.minimality", None, None),
        ("orbsde.oblique:_backward_solve", "scalar.backward_solve", None, None),
        ("orbsde.scalar:_backward_solve", "scalar.backward_solve", None, None),
        ("orbsde.scalar:_root_find", "scalar.root_find", None, root_find),
        # the strategy oracle's own root finds, kept apart from the kernel's
        ("orbsde.switching:_root_find", "switching.root_find", None, None),
        ("orbsde.cli:_penalized_solve", "scalar.penalized_solve", None, None),
        ("orbsde.cli:verify_snell_representation", "scalar.snell_check", None, None),
        ("orbsde.scalar:enumerate_stopping_times", "tree.enumerate_stopping_times",
         counter("tree.stopping_times", len), None),
        ("orbsde.switching:_eval_strategy", "switching.eval_strategy", None, None),
        ("orbsde.cli:brute_force_value", "switching.brute_force", None, None),
        ("orbsde.cli:construct_optimal_strategy", "switching.greedy", None, None),
        ("orbsde.cli:check_switched_martingale", "switching.martingale_check",
         None, None),
        ("orbsde.cli:solution_csv_text", "reporting.csv_format",
         counter("reporting.csv_bytes", lambda text: len(text.encode())), None),
        ("orbsde.cli:load_solution_csv", "reporting.csv_load", None, None),
        ("orbsde.cli:write_text", "reporting.write", None, None),
        ("orbsde.cli:write_json", "reporting.write", None, None),
    ]
    for target, name, post, inner in targets:
        tracer.patch(target, name, post, inner)


def _pushes(tracer: Tracer, field: str) -> int:
    """(parent node, mode) pairs with a nonzero K (or A) push, summed over
    the solutions ``picard_solve`` returned: a fingerprint of the answer."""
    total = 0
    for solution in tracer.results.get("oblique.picard", ()):
        for inc in getattr(solution, field):
            tree = inc.tree
            total += sum(1 for n in tree.nodes if inc.out_of(n.index) > 0.0)
    return total


def _per_root(tracer: Tracer) -> float:
    roots = tracer.n_calls("scalar.root_find")
    return tracer.counters.get("scalar.residual_evals", 0) / roots if roots else 0.0


def _self(span: str):
    return lambda t: t.self_seconds(span), (span,)


def _calls(span: str):
    return lambda t: t.n_calls(span), (span,)


def _counter(name: str, span: str):
    return lambda t: t.counters.get(name, 0), (span,)


# metric name -> unit, (value from one traced pass, spans it rests on).
# Which end-to-end number each group should move, and where:
#   tree.build, scenario.parse/build_problem   setup_s, both workloads
#   oblique.*, reporting.*                     commands_s, picard-coupled
#   scalar.*, scenario.generator_*             commands_s, both workloads
#   tree.enumerate_stopping_times, switching.*,
#   scalar.snell_check                         commands_s, penalty-oracle
#   oblique.k_pushes, oblique.a_pushes         nothing: they fingerprint
#                                              the answer and must not move
PER_LAYER = {
    "tree.build_s": ("s", _self("tree.build")),
    "tree.nodes": ("count", _counter("tree.nodes", "tree.build")),
    "tree.enumerate_stopping_times_s": ("s", _self("tree.enumerate_stopping_times")),
    "tree.stopping_times": ("count", _counter("tree.stopping_times",
                                              "tree.enumerate_stopping_times")),
    "scenario.parse_s": ("s", _self("scenario.parse")),
    "scenario.build_problem_s": ("s", _self("scenario.build_problem")),
    "scenario.generator_calls": ("count", (lambda t: t.n_calls("scenario.generator"),
                                           ("scenario.make_generator",))),
    "scenario.generator_s": ("s", (lambda t: t.self_seconds("scenario.generator"),
                                   ("scenario.make_generator",))),
    "oblique.validate_calls": ("count", _calls("oblique.validate")),
    "oblique.validate_s": ("s", _self("oblique.validate")),
    "oblique.subsolution_calls": ("count", _calls("oblique.subsolution")),
    "oblique.subsolution_s": ("s", _self("oblique.subsolution")),
    "oblique.sweeps": ("count", (lambda t: sum(
        s.sweeps for s in t.results.get("oblique.picard", ())), ("oblique.picard",))),
    "oblique.picard_self_s": ("s", _self("oblique.picard")),
    "oblique.H_calls": ("count", _calls("oblique.H")),
    "oblique.H_s": ("s", _self("oblique.H")),
    "oblique.minimality_s": ("s", _self("oblique.minimality")),
    "oblique.binding_cycles_s": ("s", _self("oblique.binding_cycles")),
    "oblique.k_pushes": ("count", (lambda t: _pushes(t, "k"), ("oblique.picard",))),
    "oblique.a_pushes": ("count", (lambda t: _pushes(t, "a"), ("oblique.picard",))),
    "scalar.backward_solve_calls": ("count", _calls("scalar.backward_solve")),
    "scalar.backward_solve_s": ("s", _self("scalar.backward_solve")),
    "scalar.root_find_calls": ("count", _calls("scalar.root_find")),
    "scalar.root_find_s": ("s", _self("scalar.root_find")),
    "scalar.residual_evals": ("count", _counter("scalar.residual_evals",
                                                "scalar.root_find")),
    "scalar.residual_evals_per_root": ("evals/root", (_per_root, ("scalar.root_find",))),
    "scalar.bisection_roots": ("count", _counter("scalar.bisection_roots",
                                                 "scalar.root_find")),
    "scalar.penalized_solves": ("count", _calls("scalar.penalized_solve")),
    "scalar.penalized_solve_s": ("s", _self("scalar.penalized_solve")),
    "scalar.snell_check_s": ("s", _self("scalar.snell_check")),
    "switching.root_find_calls": ("count", _calls("switching.root_find")),
    "switching.root_find_s": ("s", _self("switching.root_find")),
    "switching.strategies_evaluated": ("count", _calls("switching.eval_strategy")),
    "switching.eval_strategy_s": ("s", _self("switching.eval_strategy")),
    "switching.brute_force_s": ("s", _self("switching.brute_force")),
    "switching.greedy_s": ("s", _self("switching.greedy")),
    "switching.martingale_check_s": ("s", _self("switching.martingale_check")),
    "reporting.csv_format_s": ("s", _self("reporting.csv_format")),
    "reporting.csv_bytes": ("bytes", _counter("reporting.csv_bytes",
                                              "reporting.csv_format")),
    "reporting.csv_load_s": ("s", _self("reporting.csv_load")),
    "reporting.write_s": ("s", _self("reporting.write")),
    "cli.self_s": ("s", _self("cli.main")),
}


def layer_values(tracer: Tracer) -> dict[str, float | None]:
    """Every per-layer metric of one traced pass; None where unmeasured."""
    out: dict[str, float | None] = {}
    for metric, (_unit, (value, spans)) in PER_LAYER.items():
        if tracer.missing.intersection(spans):
            out[metric] = None
            continue
        try:
            out[metric] = value(tracer)
        except AttributeError:   # a solution field renamed by a refactor
            out[metric] = None
    return out
