"""Scenario files: a versioned JSON description of a solvable problem.

Generator, cost, barrier and terminal specifications are restricted to
families that satisfy the structural hypotheses by construction (own
component decreasing, other components nondecreasing, positive costs), so
a parsed scenario either builds a validator-clean problem or the run
aborts with the validator report.  Time-dependent coefficients are always
evaluated at physical time ``t_index * dt``.

Schema (format 1), fully documented in the README:

    format         1
    name           optional label
    tree           {"kind": "chain" | "binomial" | "explicit", ...}
    modes          d >= 2
    generators     one spec per mode: constant | linear | affine-coupled | table
    costs          d x d matrix of constants or {"poly": [c0, c1, ...]}
    barriers       one upper-barrier spec per mode: constant | linear | table
    terminal       {"kind": "table" | "price-affine", ...}
    v_increments   optional, per mode: {parent node id: edge increment}
    solver         tolerance, sweep budget, enumeration caps
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .oblique import CostMatrix, ObliqueProblem
from .tree import AdaptedProcess, EventTree, PredictableIncrements

__all__ = ["Scenario", "ScenarioError", "SOLVER_DEFAULTS", "MAX_NODES"]

# the most nodes a chain or binomial tree spec may expand to (2^18; the
# 17-step binomial tree has 2^18 - 1), checked before the tree is built
MAX_NODES = 2**18

SOLVER_DEFAULTS = {
    "tol": 1e-10,
    "max_sweeps": 200,
    "stopping_depth_cap": 4,
    "stopping_count_cap": 10**6,
    "strategy_cap": 10**6,
}

PENALTY_LADDER = (1.0, 10.0, 100.0, 1000.0, 1e6)


class ScenarioError(ValueError):
    """Malformed scenario file (structure, not mathematics)."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ScenarioError(msg)


def _require_node_cap(kind: str, steps: int, nodes: int) -> None:
    _require(nodes <= MAX_NODES, f"steps = {steps} makes a {kind} tree of more "
             f"than {MAX_NODES} nodes")


def _poly_eval(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(list(coeffs)):
        acc = acc * x + float(c)
    return acc


class _Keys(dict):
    """A scenario section that remembers the last key looked up in it."""

    last = None

    def __getitem__(self, key):
        self.last = key
        return super().__getitem__(key)

    def get(self, key, default=None):
        return self[key] if key in self else default


def _cost_entry(entry: Any) -> dict | float:
    if isinstance(entry, (int, float)):
        return float(entry)
    if isinstance(entry, dict) and set(entry) == {"poly"}:
        return {"poly": [float(c) for c in entry["poly"]]}
    raise ScenarioError(f"bad cost entry {entry!r}")


def _cost_value(entry: dict | float, time: float) -> float:
    if isinstance(entry, dict):
        return _poly_eval(entry["poly"], time)
    return entry


@dataclass
class Scenario:
    """Parsed scenario; ``normalized()`` is the canonical round-trip form."""

    tree_spec: dict
    modes: int
    generators: list[dict]
    costs: list[list[dict | float]]
    barriers: list[dict]
    terminal: dict
    v_increments: list[dict]
    solver: dict
    name: str = ""

    # -- parsing -----------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: Mapping) -> "Scenario":
        """Parse a raw scenario.  A missing key or a value of the wrong type
        (one that ``float()`` or ``int()`` cannot convert included) raises
        ScenarioError naming the section and the key, and an error of a
        section's own parser names the section."""
        _require(isinstance(raw, Mapping), "scenario must be a JSON object")
        where: list = []

        def section(name: str, spec: Any, parse=None, *args) -> Any:
            where[:] = [name, _Keys(spec) if isinstance(spec, Mapping) else spec]
            if parse is None:
                return where[1]
            try:
                return parse(where[1], *args)
            except ScenarioError as err:
                raise ScenarioError(f"{name}: {err}") from err

        try:
            return cls._parse(section("scenario", raw), section)
        except ScenarioError:   # a ValueError too, with its own message
            raise
        except (KeyError, TypeError, AttributeError, ValueError,
                OverflowError) as err:
            name, spec = where
            key = getattr(spec, "last", None)
            detail = (f"missing key {err.args[0]!r}" if isinstance(err, KeyError)
                      else f"bad value for key {key!r} ({err})" if key is not None
                      else str(err))
            raise ScenarioError(f"{name}: {detail}") from err

    @classmethod
    def _parse(cls, raw: Mapping, section: Callable[[str, Any], Any]) -> "Scenario":
        _require(raw.get("format") == 1, "unsupported or missing format (need 1)")
        for key in ("tree", "modes", "generators", "costs", "barriers", "terminal"):
            _require(key in raw, f"missing field {key!r}")
        d = int(raw["modes"])
        _require(d >= 2, "need at least two modes")

        tree_spec = section("tree", raw["tree"], cls._parse_tree)
        gens = [
            section(f"generators[{i}]", g, cls._parse_generator, d)
            for i, g in enumerate(section("generators", raw["generators"]))
        ]
        _require(len(gens) == d, "one generator spec per mode required")
        costs = section("costs", raw["costs"])
        _require(
            isinstance(costs, list) and len(costs) == d
            and all(isinstance(row, list) and len(row) == d for row in costs),
            "costs must be a d x d matrix",
        )
        cost_rows = [[_cost_entry(e) for e in row] for row in costs]
        for j in range(d):
            _require(cost_rows[j][j] == 0.0, f"cost diagonal [{j}][{j}] must be 0")
        barriers = [
            section(f"barriers[{j}]", b, cls._parse_barrier)
            for j, b in enumerate(section("barriers", raw["barriers"]))
        ]
        _require(len(barriers) == d, "one barrier spec per mode required")
        terminal = section("terminal", raw["terminal"], cls._parse_terminal, d)
        v_raw = section("v_increments", raw.get("v_increments")) or [{}] * d
        _require(
            isinstance(v_raw, list) and len(v_raw) == d,
            "v_increments must list one parent->increment map per mode",
        )
        v_increments = [
            {str(k): float(v) for k, v in (section(f"v_increments[{j}]", entry)
                                           or {}).items()}
            for j, entry in enumerate(v_raw)
        ]
        solver = dict(SOLVER_DEFAULTS)
        options = section("solver", raw.get("solver")) or {}
        for k in options:
            _require(k in SOLVER_DEFAULTS, f"unknown solver option {k!r}")
            solver[k] = type(SOLVER_DEFAULTS[k])(options[k])
        return cls(
            tree_spec=tree_spec,
            modes=d,
            generators=gens,
            costs=cost_rows,
            barriers=barriers,
            terminal=terminal,
            v_increments=v_increments,
            solver=solver,
            name=str(raw.get("name", "")),
        )

    @classmethod
    def from_file(cls, path) -> "Scenario":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as err:
            raise ScenarioError(f"cannot read scenario: {err}") from err
        except json.JSONDecodeError as err:
            raise ScenarioError(f"scenario is not valid JSON: {err}") from err
        return cls.from_dict(raw)

    @staticmethod
    def _parse_tree(spec: Mapping) -> dict:
        _require(isinstance(spec, Mapping), "must be an object")
        kind = spec.get("kind")
        dt = float(spec.get("dt", 0.0))
        _require(dt > 0.0, "dt must be positive")
        if kind == "chain":
            steps = int(spec["steps"])
            _require(steps >= 1, "chain needs steps >= 1")
            _require_node_cap(kind, steps, steps + 1)
            return {"kind": "chain", "steps": steps, "dt": dt,
                    "x0": float(spec.get("x0", 1.0))}
        if kind == "binomial":
            steps = int(spec["steps"])
            _require(steps >= 1, "binomial needs steps >= 1")
            # 2^(steps + 1) - 1 nodes; the exponent is clipped, so that a
            # huge steps makes no huge integer
            _require_node_cap(kind, steps,
                              2 ** min(steps + 1, MAX_NODES.bit_length()) - 1)
            p_up = float(spec.get("p_up", 0.5))
            _require(0.0 < p_up < 1.0, "p_up must lie in (0, 1)")
            return {
                "kind": "binomial", "steps": steps, "dt": dt, "p_up": p_up,
                "x0": float(spec.get("x0", 1.0)),
                "up": float(spec.get("up", 1.0)),
                "down": float(spec.get("down", 1.0)),
            }
        if kind == "explicit":
            nodes = spec.get("nodes")
            _require(isinstance(nodes, list) and nodes, "explicit tree needs nodes")
            out = []
            for n in nodes:
                entry = {
                    "id": str(n["id"]),
                    "t": int(n["t"]),
                    "parent": None if n.get("parent") is None else str(n["parent"]),
                    "p": float(n.get("p", 1.0)),
                }
                if "price" in n:
                    entry["price"] = float(n["price"])
                out.append(entry)
            out.sort(key=lambda e: (e["t"], e["id"]))
            return {"kind": "explicit", "dt": dt, "nodes": out}
        raise ScenarioError(f"unknown tree kind {kind!r}")

    @staticmethod
    def _parse_generator(spec: Mapping, d: int) -> dict:
        _require(isinstance(spec, Mapping), "must be an object")
        fam = spec.get("family")
        if fam == "constant":
            return {"family": "constant", "a": float(spec["a"])}
        if fam == "linear":
            b = float(spec["b"])
            _require(b >= 0.0, "linear generator needs b >= 0")
            return {"family": "linear", "a": float(spec["a"]), "b": b}
        if fam == "affine-coupled":
            b = float(spec["b"])
            _require(b >= 0.0, "affine-coupled generator needs b >= 0")
            g = [float(x) for x in spec["g"]]
            _require(len(g) == d, "coupling vector must have one entry per mode")
            _require(all(x >= 0.0 for x in g), "coupling weights must be >= 0")
            return {"family": "affine-coupled", "a": float(spec["a"]), "b": b, "g": g}
        if fam == "table":
            times = [float(x) for x in spec["times"]]
            grid = [float(x) for x in spec["grid"]]
            values = [[float(v) for v in row] for row in spec["values"]]
            _require(len(times) >= 1 and len(grid) >= 2, "table too small")
            for name, knots in (("times", times), ("grid", grid)):
                _require(
                    all(map(math.isfinite, knots))
                    and all(a <= b for a, b in zip(knots, knots[1:])),
                    f"table {name} must be finite and ascending",
                )
            _require(len(values) == len(times), "one value row per time")
            for i, row in enumerate(values):
                _require(len(row) == len(grid), "row length must match grid")
                _require(all(map(math.isfinite, row)),
                         f"table row {i} must be finite")
                for a, b2 in zip(row, row[1:]):
                    _require(
                        b2 <= a + 1e-12,
                        f"table row {i} must be nonincreasing along the grid",
                    )
            return {"family": "table", "times": times, "grid": grid,
                    "values": values}
        raise ScenarioError(f"unknown generator family {fam!r}")

    @staticmethod
    def _parse_barrier(spec: Mapping) -> dict:
        _require(isinstance(spec, Mapping), "must be an object")
        kind = spec.get("kind")
        if kind == "constant":
            return {"kind": "constant", "value": float(spec["value"])}
        if kind == "linear":
            return {
                "kind": "linear",
                "intercept": float(spec["intercept"]),
                "slope": float(spec["slope"]),
            }
        if kind == "table":
            return {
                "kind": "table",
                "values": {str(k): float(v) for k, v in spec["values"].items()},
            }
        raise ScenarioError(f"unknown barrier kind {kind!r}")

    @staticmethod
    def _parse_terminal(spec: Mapping, d: int) -> dict:
        _require(isinstance(spec, Mapping), "must be an object")
        kind = spec.get("kind")
        if kind == "table":
            vals = {}
            for k, vec in spec["values"].items():
                _require(
                    isinstance(vec, list) and len(vec) == d,
                    f"terminal vector at {k!r} must have {d} entries",
                )
                vals[str(k)] = [float(v) for v in vec]
            return {"kind": "table", "values": vals}
        if kind == "price-affine":
            a = [float(x) for x in spec["a"]]
            b = [float(x) for x in spec["b"]]
            _require(len(a) == d and len(b) == d, "price-affine needs d coefficients")
            return {"kind": "price-affine", "a": a, "b": b}
        raise ScenarioError(f"unknown terminal kind {kind!r}")

    # -- canonical form ----------------------------------------------------

    def normalized(self) -> dict:
        return {
            "format": 1,
            "name": self.name,
            "tree": self.tree_spec,
            "modes": self.modes,
            "generators": self.generators,
            "costs": self.costs,
            "barriers": self.barriers,
            "terminal": self.terminal,
            "v_increments": self.v_increments,
            "solver": self.solver,
        }

    def to_json(self) -> str:
        return json.dumps(self.normalized(), indent=2, sort_keys=True) + "\n"

    # -- materialization ---------------------------------------------------

    def build_tree(self) -> tuple[EventTree, np.ndarray]:
        """Expand the tree spec; returns (tree, price per node index)."""
        spec = self.tree_spec
        dt = spec["dt"]
        if spec["kind"] == "chain":
            tree = EventTree.chain(spec["steps"], dt)
            return tree, np.full(tree.n_nodes, spec["x0"])
        if spec["kind"] == "binomial":
            tree = EventTree.binary(spec["steps"], dt, spec["p_up"])
            # level t + 1 is the parents of level t in order, each one's
            # 'd' child and then its 'u' child
            factors = np.array([spec["down"], spec["up"]])
            levels = [np.array([spec["x0"]])]
            # a price that overflows is inf, which the validators refuse
            # with coordinates
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(spec["steps"]):
                    levels.append((levels[-1][:, None] * factors).ravel())
            return tree, np.concatenate(levels)
        nodes = spec["nodes"]
        tree = EventTree.build(nodes, dt)
        prices = {n["id"]: n.get("price", 1.0) for n in nodes}
        return tree, np.array([prices[n.node_id] for n in tree.nodes])

    def build_problem(self) -> ObliqueProblem:
        """Materialize the validator-ready problem (math checks come later)."""
        tree, prices = self.build_tree()
        d = self.modes
        dt = tree.dt
        n_steps = tree.n_steps

        generators = tuple(
            _make_generator(spec, j, dt) for j, spec in enumerate(self.generators)
        )
        cost_values = np.zeros((n_steps + 1, d, d))
        for t in range(n_steps + 1):
            for j in range(d):
                for k in range(d):
                    if j != k:
                        cost_values[t, j, k] = _cost_value(self.costs[j][k], t * dt)
        costs = CostMatrix(cost_values)

        upper = tuple(
            _make_barrier(self.barriers[j], tree, dt) for j in range(d)
        )

        terminal: dict[int, tuple[float, ...]] = {}
        if self.terminal["kind"] == "table":
            vals = self.terminal["values"]
            for leaf in tree.leaves:
                nid = tree.ids[leaf]
                _require(nid in vals, f"terminal table misses leaf {nid!r}")
                terminal[leaf] = tuple(vals[nid])
        else:
            a, b = self.terminal["a"], self.terminal["b"]
            price = prices[list(tree.leaves)]
            rows = zip(*((a[j] + b[j] * price).tolist() for j in range(d)))
            terminal = dict(zip(tree.leaves, rows))

        v = []
        for per_id in self.v_increments:
            at = list(map(tree.index_map.get, per_id))
            if None in at:
                pid = next(pid for pid, u in zip(per_id, at) if u is None)
                raise ScenarioError(f"v_increments references unknown node {pid!r}")
            v.append(PredictableIncrements.from_parent_values(
                tree, dict(zip(at, per_id.values()))))

        return ObliqueProblem(
            tree=tree,
            d=d,
            terminal=terminal,
            generators=generators,
            v=tuple(v),
            upper=upper,
            costs=costs,
            reads=tuple(_reads(spec, j) for j, spec in enumerate(self.generators)),
        )


def _reads(spec: dict, mode: int) -> tuple[int, ...]:
    """The other components a generator of the family reads: none for
    constant, linear and table, the weighted ones for affine-coupled."""
    if spec["family"] != "affine-coupled":
        return ()
    return tuple(k for k, w in enumerate(spec["g"]) if k != mode and w != 0.0)


def _make_generator(spec: dict, mode: int, dt: float):
    fam = spec["family"]
    if fam == "constant":
        a = spec["a"]
        return lambda t, y: a
    if fam == "linear":
        a, b = spec["a"], spec["b"]
        return lambda t, y, _m=mode: a - b * y[_m]
    if fam == "affine-coupled":
        a, b, g = spec["a"], spec["b"], spec["g"]

        def gen(t, y, _m=mode, _a=a, _b=b, _g=g):
            acc = _a - _b * y[_m]
            for k, w in enumerate(_g):
                if k != _m and w != 0.0:
                    acc += w * y[k]
            return acc

        return gen
    times = spec["times"]
    grid = np.asarray(spec["grid"])
    values = np.asarray(spec["values"])

    def table_gen(t, y, _m=mode):
        # np.interp in y, for a float or an array alike; in time, numpy's
        # own segment and slope formula (its NaN fallback never applies to
        # a finite table)
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


def _make_barrier(spec: dict, tree: EventTree, dt: float) -> AdaptedProcess:
    if spec["kind"] == "constant":
        return AdaptedProcess.constant(tree, spec["value"])
    if spec["kind"] == "linear":
        a, s = spec["intercept"], spec["slope"]
        # an infinite or huge dt makes 0 * inf or an overflow here; the
        # validators refuse the non-finite dt or barrier with coordinates
        with np.errstate(invalid="ignore", over="ignore"):
            values = a + s * (tree.arrays.time * dt)
        return AdaptedProcess(tree, values)
    vals = spec["values"]
    missing = [nid for nid in tree.ids if nid not in vals]
    _require(not missing, f"barrier table misses nodes {missing}")
    return AdaptedProcess.from_dict(tree, vals)
