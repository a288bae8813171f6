"""Finite event trees as filtered probability spaces.

A tree node is an atom of the time-t sigma-field, so adapted processes are
one real per node, predictable increments are per-edge values constant
across siblings (decided at the parent), and stopping times are antichains
hitting every root-to-leaf path exactly once.  Everything downstream
(conditional expectations, Doob decompositions, Snell envelopes, the
reflected-equation solvers) runs on these four representations.

Conventions used throughout the package:

* node indices are canonical: sorted by ``(t, node_id)``, so identical
  node sets produce identical indexing regardless of input order;
* sums over children always run in index order, one term after the other
  (fixed summation order, bit-for-bit reproducible; for one or two
  children the sum is exactly rounded);
* an increment "on the edge into node c" is stored under c's index; the
  root slot of a :class:`PredictableIncrements` is fixed at 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    EnumerationCapError,
    InvalidTreeError,
    TreeStructureError,
    Violation,
)

PROB_TOL = 1e-12

__all__ = [
    "Node",
    "EventTree",
    "TreeArrays",
    "AdaptedProcess",
    "PredictableIncrements",
    "StoppingTime",
    "DoobDecomposition",
    "validate_tree",
    "conditional_expectation",
    "one_step_expectation",
    "doob_decomposition",
    "snell_envelope",
    "enumerate_stopping_times",
    "stopping_time_count",
]


@dataclass(frozen=True)
class Node:
    index: int
    node_id: str
    t: int
    parent: int | None
    children: tuple[int, ...]
    prob: float  # p(node | parent); 1.0 at the root

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class TreeArrays:
    """An :class:`EventTree` as read-only arrays, for level-at-a-time walks.

    Node i's children are ``child_index[child_ptr[i]:child_ptr[i + 1]]``,
    in index order (CSR), with their edge probabilities at the same
    positions of ``child_prob``.  ``parents[t]`` lists the nodes of level t
    that have children, in descending index order, the order in which a
    backward walk visits them.
    """

    child_ptr: np.ndarray
    child_index: np.ndarray
    child_prob: np.ndarray
    parents: tuple[np.ndarray, ...]

    @classmethod
    def of(cls, tree: "EventTree") -> "TreeArrays":
        nodes = tree.nodes
        counts = [len(n.children) for n in nodes]
        arrays = cls(
            child_ptr=np.concatenate(([0], np.cumsum(counts))).astype(np.intp),
            child_index=np.array([c for n in nodes for c in n.children], dtype=np.intp),
            child_prob=np.array([nodes[c].prob for n in nodes for c in n.children],
                                dtype=np.float64),
            parents=tuple(
                np.array([u for u in reversed(tree.level(t)) if counts[u]],
                         dtype=np.intp)
                for t in range(tree.n_steps + 1)
            ),
        )
        for arr in (arrays.child_ptr, arrays.child_index, arrays.child_prob,
                    *arrays.parents):
            arr.flags.writeable = False
        return arrays


class EventTree:
    """Rooted tree with per-edge transition probabilities and step length dt.

    The plain constructor is lenient (it only needs structurally usable
    input) so that :func:`validate_tree` can report problems;
    :meth:`EventTree.build` is the strict path everything else should use:
    it validates and then renormalizes each sibling block exactly.
    """

    def __init__(self, nodes: Sequence[Mapping], dt: float):
        specs = list(nodes)
        ids = [str(s["id"]) for s in specs]
        if len(set(ids)) != len(ids):
            raise TreeStructureError("duplicate node ids")
        by_id = {str(s["id"]): s for s in specs}
        for s in specs:
            p = s.get("parent")
            if p is not None and str(p) not in by_id:
                raise TreeStructureError(f"unknown parent {p!r} of node {s['id']!r}")

        order = sorted(specs, key=lambda s: (int(s["t"]), str(s["id"])))
        index_of = {str(s["id"]): i for i, s in enumerate(order)}
        children: list[list[int]] = [[] for _ in order]
        for i, s in enumerate(order):
            p = s.get("parent")
            if p is not None:
                children[index_of[str(p)]].append(i)

        self._dt = float(dt)
        self._nodes = tuple(
            Node(
                index=i,
                node_id=str(s["id"]),
                t=int(s["t"]),
                parent=None if s.get("parent") is None else index_of[str(s["parent"])],
                children=tuple(sorted(children[i])),
                prob=1.0 if s.get("parent") is None else float(s.get("p", 1.0)),
            )
            for i, s in enumerate(order)
        )
        self._index_of = index_of
        self._n_steps = max(n.t for n in self._nodes)
        levels: list[list[int]] = [[] for _ in range(self._n_steps + 1)]
        for n in self._nodes:
            if 0 <= n.t <= self._n_steps:
                levels[n.t].append(n.index)
        self._levels = tuple(tuple(l) for l in levels)
        self._leaves = tuple(n.index for n in self._nodes if n.is_leaf)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, nodes: Sequence[Mapping], dt: float) -> "EventTree":
        """Validate, renormalize sibling probabilities exactly, and return."""
        tree = cls(nodes, dt)
        report = validate_tree(tree)
        if report:
            raise InvalidTreeError(report)
        return tree._renormalized()

    def _renormalized(self) -> "EventTree":
        probs = [n.prob for n in self._nodes]
        for n in self._nodes:
            if n.children:
                s = math.fsum(probs[c] for c in n.children)
                for c in n.children:
                    probs[c] = probs[c] / s
        clone = object.__new__(EventTree)
        clone.__dict__.update(self.__dict__)
        clone.__dict__.pop("arrays", None)   # built from the old probabilities
        clone._nodes = tuple(
            Node(n.index, n.node_id, n.t, n.parent, n.children, probs[n.index])
            for n in self._nodes
        )
        return clone

    @classmethod
    def chain(cls, steps: int, dt: float) -> "EventTree":
        """Deterministic single-path tree with `steps` edges."""
        nodes = [{"id": "n0", "t": 0, "parent": None}]
        nodes += [
            {"id": f"n{k}", "t": k, "parent": f"n{k - 1}", "p": 1.0}
            for k in range(1, steps + 1)
        ]
        return cls.build(nodes, dt)

    @classmethod
    def binary(cls, steps: int, dt: float, p_up: float = 0.5) -> "EventTree":
        """Full non-recombining binary tree; 'd' branch sorts before 'u'."""
        nodes = [{"id": "r", "t": 0, "parent": None}]
        frontier = ["r"]
        for t in range(1, steps + 1):
            nxt = []
            for pid in frontier:
                for tag, p in (("d", 1.0 - p_up), ("u", p_up)):
                    nid = pid + tag
                    nodes.append({"id": nid, "t": t, "parent": pid, "p": p})
                    nxt.append(nid)
            frontier = nxt
        return cls.build(nodes, dt)

    # -- accessors ---------------------------------------------------------

    @property
    def dt(self) -> float:
        return self._dt

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_steps(self) -> int:
        return self._n_steps

    @property
    def nodes(self) -> tuple[Node, ...]:
        return self._nodes

    @property
    def root(self) -> int:
        roots = [n.index for n in self._nodes if n.parent is None]
        return roots[0]

    @property
    def leaves(self) -> tuple[int, ...]:
        return self._leaves

    def level(self, t: int) -> tuple[int, ...]:
        return self._levels[t]

    @functools.cached_property
    def arrays(self) -> TreeArrays:
        """The tree as read-only arrays, built on first use."""
        return TreeArrays.of(self)

    def node(self, i: int) -> Node:
        return self._nodes[i]

    def index_of(self, node_id: str) -> int:
        return self._index_of[node_id]

    def has_node(self, node_id: str) -> bool:
        return node_id in self._index_of

    def children(self, i: int) -> tuple[int, ...]:
        return self._nodes[i].children

    def node_probability(self, i: int) -> float:
        """Unconditional probability of reaching node i from the root."""
        p = 1.0
        n = self._nodes[i]
        while n.parent is not None:
            p *= n.prob
            n = self._nodes[n.parent]
        return p

    def subtree(self, i: int) -> tuple[int, ...]:
        """Indices of the subtree rooted at i, in ascending index order."""
        seen = {i}
        stack = [i]
        while stack:
            u = stack.pop()
            for c in self._nodes[u].children:
                seen.add(c)
                stack.append(c)
        return tuple(sorted(seen))

    def path_from_root(self, i: int) -> tuple[int, ...]:
        path = [i]
        n = self._nodes[i]
        while n.parent is not None:
            path.append(n.parent)
            n = self._nodes[n.parent]
        return tuple(reversed(path))


def validate_tree(tree: EventTree) -> list[Violation]:
    """Diagnostic structural check; empty list iff the tree is well-formed."""
    out: list[Violation] = []
    nodes = tree.nodes
    roots = [n for n in nodes if n.parent is None]
    if len(roots) != 1:
        out.append(Violation("root", f"expected exactly one root, found {len(roots)}"))
    for n in roots:
        if n.t != 0:
            out.append(Violation("root", "root not at time 0", n.node_id, n.t))
    if not tree.dt > 0.0:
        out.append(Violation("dt", f"step length must be positive, got {tree.dt}"))
    horizon = tree.n_steps
    for n in nodes:
        if n.parent is not None:
            pt = nodes[n.parent].t
            if n.t != pt + 1:
                out.append(
                    Violation(
                        "depth",
                        f"time index {n.t} is not parent's {pt} + 1",
                        n.node_id,
                        n.t,
                    )
                )
            if not (0.0 < n.prob <= 1.0 + PROB_TOL):
                out.append(
                    Violation(
                        "probability",
                        f"edge probability {n.prob} outside (0, 1]",
                        n.node_id,
                        n.t,
                    )
                )
        if n.is_leaf and n.t != horizon:
            out.append(
                Violation("horizon", "leaf before horizon", n.node_id, n.t)
            )
        if n.children:
            s = math.fsum(nodes[c].prob for c in n.children)
            if abs(s - 1.0) > PROB_TOL:
                out.append(
                    Violation(
                        "probability-sum",
                        f"probabilities sum {s:.17g} != 1 at node",
                        n.node_id,
                        n.t,
                    )
                )
    # reachability: walk down from each root; anything missed is orphaned
    reached: set[int] = set()
    stack = [n.index for n in roots]
    while stack:
        u = stack.pop()
        if u in reached:
            out.append(Violation("cycle", "node reachable twice", nodes[u].node_id))
            continue
        reached.add(u)
        stack.extend(nodes[u].children)
    for n in nodes:
        if n.index not in reached:
            out.append(Violation("orphan", "node unreachable from root", n.node_id, n.t))
    return out


@dataclass(frozen=True)
class AdaptedProcess:
    """One real value per node (a process adapted to the tree filtration)."""

    tree: EventTree
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != self.tree.n_nodes:
            raise ValueError(
                f"expected {self.tree.n_nodes} values, got {len(self.values)}"
            )

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    @classmethod
    def constant(cls, tree: EventTree, c: float) -> "AdaptedProcess":
        return cls(tree, (float(c),) * tree.n_nodes)

    @classmethod
    def from_fn(cls, tree: EventTree, fn: Callable[[Node], float]) -> "AdaptedProcess":
        return cls(tree, tuple(float(fn(n)) for n in tree.nodes))

    @classmethod
    def from_dict(cls, tree: EventTree, values: Mapping[str, float]) -> "AdaptedProcess":
        missing = [n.node_id for n in tree.nodes if n.node_id not in values]
        if missing:
            raise ValueError(f"missing values for nodes {missing}")
        return cls(tree, tuple(float(values[n.node_id]) for n in tree.nodes))

    def as_dict(self) -> dict[str, float]:
        return {n.node_id: self.values[n.index] for n in self.tree.nodes}


@dataclass(frozen=True)
class PredictableIncrements:
    """Per-edge increments decided at the parent (sibling edges identical).

    values[c] is the increment over the edge into node c; the root slot is 0.
    Sibling equality is exact by contract, which is what gives the discrete
    flat-off products ``increment * (value_at_parent - barrier_at_parent)``
    their meaning.
    """

    tree: EventTree
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != self.tree.n_nodes:
            raise ValueError(
                f"expected {self.tree.n_nodes} values, got {len(self.values)}"
            )
        if self.values[self.tree.root] != 0.0:
            raise ValueError("root slot of predictable increments must be 0")
        for n in self.tree.nodes:
            cs = n.children
            if len(cs) > 1:
                v0 = self.values[cs[0]]
                for c in cs[1:]:
                    # a NaN shared by all siblings is decided at the parent;
                    # the problem validators report it as non-finite data
                    if self.values[c] != v0 and not (
                        math.isnan(v0) and math.isnan(self.values[c])
                    ):
                        raise ValueError(
                            f"increment not parent-measurable at node {n.node_id}"
                        )

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    @classmethod
    def zero(cls, tree: EventTree) -> "PredictableIncrements":
        return cls(tree, (0.0,) * tree.n_nodes)

    @classmethod
    def from_parent_values(
        cls, tree: EventTree, per_parent: Mapping[int, float]
    ) -> "PredictableIncrements":
        """Build from {parent index: increment on its outgoing edges}."""
        vals = [0.0] * tree.n_nodes
        for u, v in per_parent.items():
            for c in tree.children(u):
                vals[c] = float(v)
        return cls(tree, tuple(vals))

    def out_of(self, u: int) -> float:
        """Increment on the edges leaving node u (0 at leaves)."""
        cs = self.tree.children(u)
        return self.values[cs[0]] if cs else 0.0

    def cumulative(self) -> AdaptedProcess:
        vals = [0.0] * self.tree.n_nodes
        for n in self.tree.nodes:
            if n.parent is not None:
                vals[n.index] = vals[n.parent] + self.values[n.index]
        return AdaptedProcess(self.tree, tuple(vals))


@dataclass(frozen=True)
class StoppingTime:
    """Stop-flag set hitting every start-to-leaf path exactly once.

    `start` defaults to the root; a non-root start describes a stopping time
    on the subtree (used when optimal-stopping values are checked node by
    node).  Flagging is per node, so measurability is structural, and the
    exactly-once rule forbids flagged descendants of flagged nodes.
    """

    tree: EventTree
    stopped: frozenset[int]
    start: int = 0

    def __post_init__(self):
        sub = self.tree.subtree(self.start)
        for leaf in sub:
            if not self.tree.node(leaf).is_leaf:
                continue
            hits = 0
            u = leaf
            while True:
                if u in self.stopped:
                    hits += 1
                if u == self.start:
                    break
                u = self.tree.node(u).parent
            if hits != 1:
                raise ValueError(
                    f"path to leaf {self.tree.node(leaf).node_id} has {hits} stops"
                )

    def stop_node_on_path(self, leaf: int) -> int:
        u = leaf
        while True:
            if u in self.stopped:
                return u
            if u == self.start:
                raise AssertionError("unreachable: validated at construction")
            u = self.tree.node(u).parent


@dataclass(frozen=True)
class DoobDecomposition:
    """X = X_root + M + cumulative C with M a martingale null at the root
    and C predictable (signed)."""

    martingale: AdaptedProcess
    predictable: PredictableIncrements


def one_step_expectation(tree: EventTree, values: Sequence[float], u: int) -> float:
    """E[X_{t+1} | node u] with the canonical child summation order: the
    terms added one after the other, from 0.0, in index order (the
    backward walk's sum, bit for bit)."""
    acc = 0.0
    for c in tree.children(u):
        acc += tree.node(c).prob * values[c]
    return acc


def conditional_expectation(tree: EventTree, x: AdaptedProcess, s: int) -> dict[int, float]:
    """Project time-(s+1) values of x onto the time-s nodes.

    Returns {node index at time s: weighted mean over its children}.
    """
    if not 0 <= s < tree.n_steps:
        raise ValueError(f"time index {s} has no successor level")
    return {u: one_step_expectation(tree, x.values, u) for u in tree.level(s)}


def doob_decomposition(tree: EventTree, x: AdaptedProcess) -> DoobDecomposition:
    """Split x into a martingale part and predictable per-edge increments.

    The predictable increment into the children of u is
    ``E[X_{t+1} | u] - X_u`` (one value per sibling block); the martingale
    increment on the edge into c is ``X_c - E[X_{t+1} | u]``.  Reconstruction
    is exact by construction.
    """
    m = [0.0] * tree.n_nodes
    c_inc = [0.0] * tree.n_nodes
    for n in tree.nodes:
        if n.is_leaf:
            continue
        e = one_step_expectation(tree, x.values, n.index)
        step = e - x.values[n.index]
        for c in n.children:
            c_inc[c] = step
            m[c] = m[n.index] + (x.values[c] - e)
    return DoobDecomposition(
        martingale=AdaptedProcess(tree, tuple(m)),
        predictable=PredictableIncrements(tree, tuple(c_inc)),
    )


def snell_envelope(
    tree: EventTree, reward: AdaptedProcess
) -> tuple[AdaptedProcess, StoppingTime]:
    """Minimal supermartingale dominating the reward, plus the first optimal stop.

    Backward recursion ``env_T = reward_T``,
    ``env_t = max(reward_t, E[env_{t+1} | .])``; the returned stopping time
    stops at the first node (along each path) where the envelope touches the
    reward.
    """
    env = [0.0] * tree.n_nodes
    for i in range(tree.n_nodes - 1, -1, -1):
        n = tree.node(i)
        if n.is_leaf:
            env[i] = reward.values[i]
        else:
            cont = one_step_expectation(tree, env, i)
            env[i] = max(reward.values[i], cont)
    flagged: set[int] = set()
    stack = [tree.root]
    while stack:
        u = stack.pop()
        if env[u] <= reward.values[u]:
            flagged.add(u)
        else:
            stack.extend(tree.children(u))
    return AdaptedProcess(tree, tuple(env)), StoppingTime(tree, frozenset(flagged))


def stopping_time_count(tree: EventTree, start: int | None = None) -> int:
    """Number of stopping times on the subtree from `start` (default: root).

    Satisfies N(leaf) = 1 and N(u) = 1 + prod over children of N(c).
    """
    start = tree.root if start is None else start

    def count(u: int) -> int:
        n = tree.node(u)
        if n.is_leaf:
            return 1
        prod = 1
        for c in n.children:
            prod *= count(c)
        return 1 + prod

    return count(start)


def enumerate_stopping_times(
    tree: EventTree,
    start: int | None = None,
    max_depth: int = 4,
    max_count: int = 10**6,
) -> list[StoppingTime]:
    """Exhaustive, duplicate-free list of stopping times on the subtree.

    Stopping times returned are defined on the subtree only (their flag sets
    cover every start-to-leaf path exactly once).  Refuses to run above the
    depth or count caps; exhaustive or absent, never sampled.
    """
    start = tree.root if start is None else start
    depth = tree.n_steps - tree.node(start).t
    if depth > max_depth:
        raise EnumerationCapError(
            f"subtree depth {depth} exceeds enumeration bound {max_depth}"
        )
    total = stopping_time_count(tree, start)
    if total > max_count:
        raise EnumerationCapError(
            f"{total} stopping times exceed enumeration cap {max_count}"
        )

    def enum(u: int) -> list[frozenset[int]]:
        out = [frozenset({u})]
        n = tree.node(u)
        if n.is_leaf:
            return out
        per_child = [enum(c) for c in n.children]
        combos = [frozenset()]
        for choices in per_child:
            combos = [base | extra for base in combos for extra in choices]
        return out + combos

    sets = enum(start)
    assert len(sets) == len(set(sets)) == total
    return [StoppingTime(tree, s, start) for s in sets]
