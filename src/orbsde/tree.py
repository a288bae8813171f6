"""Finite event trees as filtered probability spaces.

A tree node is an atom of the time-t sigma-field, so adapted processes are
one real per node, predictable increments are per-edge values constant
across siblings (decided at the parent), and stopping times are antichains
hitting every root-to-leaf path exactly once.  Everything downstream
(conditional expectations, Doob decompositions, Snell envelopes, the
reflected-equation solvers) runs on these four representations.

A tree is made from four canonical columns: the node ids, the time index,
the parent index (-1 at a root) and the edge probability, in ``(t, id)``
order.  :meth:`EventTree.binary` and :meth:`EventTree.chain` write these
columns directly; explicit node specs are sorted into them once.  The
checks of :func:`validate_tree` and the exact renormalization of each
sibling block both run on the columns, before any :class:`Node` is made,
and :class:`TreeArrays` is the same tree as read-only arrays.

An :class:`AdaptedProcess` or :class:`PredictableIncrements` stores its
values as a read-only ``(n_nodes,)`` float64 array copied from the sequence
it is given, so that no caller's array aliases it; indexing one gives a
Python float, and it equals only itself.

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
from types import MappingProxyType
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


def _read_only(*arrays: np.ndarray) -> np.ndarray:
    """Make ``arrays`` read-only; returns the first."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays[0]


class _Columns:
    """The canonical columns of a tree and its children in CSR form.

    ``time``, ``parent`` and ``prob`` are arrays over the nodes in index
    order; node u's children are ``child_index[child_ptr[u]:child_ptr[u + 1]]``
    in ascending index order.
    """

    def __init__(self, ids: Sequence[str], time, parent, prob):
        self.ids = tuple(ids)
        self.time = np.array(time, dtype=np.intp)
        self.parent = np.array(parent, dtype=np.intp)
        self.prob = np.array(prob, dtype=np.float64)
        kids = np.flatnonzero(self.parent >= 0)
        self.child_index = kids[np.argsort(self.parent[kids], kind="stable")]
        counts = np.bincount(self.parent[kids], minlength=len(self.ids))
        self.child_ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)

    def block_sums(self) -> np.ndarray:
        """Each node's children's probabilities summed exactly
        (``math.fsum``; 0.0 at a leaf).  One or two terms are summed with
        ``+``, which is the same exactly rounded sum; a non-finite pair goes
        through ``fsum`` too, for its overflow and inf - inf errors."""
        ptr, prob = self.child_ptr, self.prob[self.child_index]
        first, count = ptr[:-1], np.diff(ptr)
        sums = np.zeros(count.size)
        one, two = count == 1, count == 2
        sums[one] = prob[first[one]]
        sums[two] = prob[first[two]] + prob[first[two] + 1]
        for u in np.flatnonzero((count >= 3) | ((count > 0) & ~np.isfinite(sums))):
            sums[u] = math.fsum(prob[ptr[u]:ptr[u + 1]].tolist())
        return sums

    def renormalized(self) -> "_Columns":
        """The columns with each sibling block divided by its exact sum."""
        prob = self.prob.copy()
        kids = self.child_index
        prob[kids] /= self.block_sums()[self.parent[kids]]
        return _Columns(self.ids, self.time, self.parent, prob)

    @classmethod
    def of_specs(cls, nodes: Sequence[Mapping]) -> "_Columns":
        """Columns of per-node dict specs (``id``, ``t``, ``parent`` and an
        optional ``p``, default 1.0; the root's ``p`` is 1.0)."""
        specs = list(nodes)
        ids = [str(s["id"]) for s in specs]
        if len(set(ids)) != len(ids):
            raise TreeStructureError("duplicate node ids")
        known = set(ids)
        for s in specs:
            p = s.get("parent")
            if p is not None and str(p) not in known:
                raise TreeStructureError(f"unknown parent {p!r} of node {s['id']!r}")
        order = sorted(range(len(specs)), key=lambda i: (int(specs[i]["t"]), ids[i]))
        index_of = {ids[i]: k for k, i in enumerate(order)}
        ordered = [specs[i] for i in order]
        return cls(
            [ids[i] for i in order],
            [int(s["t"]) for s in ordered],
            [-1 if s.get("parent") is None else index_of[str(s["parent"])]
             for s in ordered],
            [1.0 if s.get("parent") is None else float(s.get("p", 1.0))
             for s in ordered],
        )


@dataclass(frozen=True)
class TreeArrays:
    """An :class:`EventTree` as read-only arrays, for level-at-a-time walks.

    Node i's children are ``child_index[child_ptr[i]:child_ptr[i + 1]]``,
    in index order (CSR), with their edge probabilities at the same
    positions of ``child_prob``; ``child_owner`` holds the parent of each
    of these slots and ``child_first`` the parent's first child.
    ``time`` is each node's time index.  ``parents[t]`` lists the nodes of
    level t that have children, in descending index order, the order in
    which a backward walk visits them.
    """

    child_ptr: np.ndarray
    child_index: np.ndarray
    child_prob: np.ndarray
    child_owner: np.ndarray
    child_first: np.ndarray
    time: np.ndarray
    parents: tuple[np.ndarray, ...]

    @classmethod
    def of(cls, cols: _Columns, levels: Sequence[range]) -> "TreeArrays":
        ptr, kids = cols.child_ptr, cols.child_index
        owner = cols.parent[kids]
        has_kids = np.diff(ptr) > 0
        arrays = cls(
            child_ptr=ptr,
            child_index=kids,
            child_prob=cols.prob[kids],
            child_owner=owner,
            child_first=kids[ptr[owner]],
            time=cols.time,
            parents=tuple(np.flatnonzero(has_kids[lvl.start:lvl.stop])[::-1]
                          + lvl.start for lvl in levels),
        )
        _read_only(arrays.child_ptr, arrays.child_index, arrays.child_prob,
                   arrays.child_owner, arrays.child_first, arrays.time,
                   *arrays.parents)
        return arrays


class EventTree:
    """Rooted tree with per-edge transition probabilities and step length dt.

    The plain constructor is lenient (it only needs structurally usable
    input) so that :func:`validate_tree` can report problems;
    :meth:`EventTree.build`, :meth:`EventTree.binary` and
    :meth:`EventTree.chain` are the strict paths everything else should
    use: they validate the columns and then renormalize each sibling block
    exactly.
    """

    def __init__(self, nodes: Sequence[Mapping], dt: float):
        self._fill(_Columns.of_specs(nodes), dt)

    def _fill(self, cols: _Columns, dt: float) -> None:
        _read_only(cols.time, cols.parent, cols.prob)
        self._cols = cols
        self._dt = float(dt)
        self._index_of = dict(zip(cols.ids, range(len(cols.ids))))
        self._n_steps = max(cols.time.tolist())
        # the time column ascends: level t is one run of indices
        bounds = np.searchsorted(cols.time, np.arange(self._n_steps + 2)).tolist()
        levels = [range(a, b) for a, b in zip(bounds, bounds[1:])]
        self._levels = tuple(tuple(lvl) for lvl in levels)
        self._roots = tuple(np.flatnonzero(cols.parent < 0).tolist())
        self._leaves = tuple(np.flatnonzero(np.diff(cols.child_ptr) == 0).tolist())
        self._arrays = TreeArrays.of(cols, levels)

    @functools.cached_property
    def nodes(self) -> tuple[Node, ...]:
        """The nodes in index order, made on first use."""
        cols = self._cols
        return tuple(map(Node, range(len(cols.ids)), cols.ids, cols.time.tolist(),
                         self._parent_of, self._children_of, cols.prob.tolist()))

    @functools.cached_property
    def _children_of(self) -> tuple[tuple[int, ...], ...]:
        """Each node's children, in index order, read off the CSR arrays."""
        ptr, kids = self._cols.child_ptr.tolist(), self._cols.child_index.tolist()
        return tuple(tuple(kids[a:b]) for a, b in zip(ptr, ptr[1:]))

    @functools.cached_property
    def _child_probs_of(self) -> tuple[tuple[float, ...], ...]:
        """Each node's child edge probabilities, in the order of its
        children, read off the CSR arrays."""
        ptr, probs = self._cols.child_ptr.tolist(), self._arrays.child_prob.tolist()
        return tuple(tuple(probs[a:b]) for a, b in zip(ptr, ptr[1:]))

    @functools.cached_property
    def _parent_of(self) -> tuple[int | None, ...]:
        """Each node's parent, None at the root."""
        return tuple(None if p < 0 else p for p in self._cols.parent.tolist())

    # -- construction ------------------------------------------------------

    @classmethod
    def from_columns(cls, ids: Sequence[str], time, parent, prob,
                     dt: float) -> "EventTree":
        """Validate canonical columns, renormalize each sibling block
        exactly, and return the tree.

        The columns are in ``(t, id)`` order: the node ids, the time index,
        the parent index (-1 at the root) and the edge probability (1.0 at
        the root).  Raises InvalidTreeError with the
        :func:`validate_tree` report.
        """
        cols = _Columns(ids, time, parent, prob)
        report = _violations(cols, float(dt))
        if report:
            raise InvalidTreeError(report)
        tree = object.__new__(cls)
        tree._fill(cols.renormalized(), dt)
        return tree

    @classmethod
    def build(cls, nodes: Sequence[Mapping], dt: float) -> "EventTree":
        """Sort per-node dict specs into columns; then as :meth:`from_columns`."""
        cols = _Columns.of_specs(nodes)
        return cls.from_columns(cols.ids, cols.time, cols.parent, cols.prob, dt)

    @classmethod
    def chain(cls, steps: int, dt: float) -> "EventTree":
        """Deterministic single-path tree with `steps` edges, ids n0, n1, ..."""
        return cls.from_columns([f"n{k}" for k in range(steps + 1)],
                                np.arange(steps + 1), np.arange(-1, steps),
                                np.ones(steps + 1), dt)

    @classmethod
    def binary(cls, steps: int, dt: float, p_up: float = 0.5) -> "EventTree":
        """Full non-recombining binary tree; 'd' branch sorts before 'u'.

        Level t holds the 2^t ids in generation order, which is their
        sorted order, so node i's parent is (i - 1) // 2 and its children
        are 2i + 1 ('d', probability 1 - p_up) and 2i + 2 ('u', p_up).
        """
        ids, level = ["r"], ["r"]
        for _ in range(steps):
            level = [pid + tag for pid in level for tag in "du"]
            ids.extend(level)
        index, t = np.arange(len(ids)), np.arange(steps + 1)
        prob = np.where(index % 2 == 1, 1.0 - p_up, p_up)
        prob[0] = 1.0
        return cls.from_columns(ids, np.repeat(t, 2 ** t), (index - 1) // 2, prob, dt)

    # -- accessors ---------------------------------------------------------

    @property
    def dt(self) -> float:
        return self._dt

    @property
    def n_nodes(self) -> int:
        return len(self._cols.ids)

    @property
    def ids(self) -> tuple[str, ...]:
        """The node ids in index order."""
        return self._cols.ids

    @property
    def n_steps(self) -> int:
        return self._n_steps

    @property
    def root(self) -> int:
        return self._roots[0]

    @property
    def leaves(self) -> tuple[int, ...]:
        return self._leaves

    def level(self, t: int) -> tuple[int, ...]:
        return self._levels[t]

    @property
    def arrays(self) -> TreeArrays:
        """The tree as read-only arrays."""
        return self._arrays

    def node(self, i: int) -> Node:
        return self.nodes[i]

    def index_of(self, node_id: str) -> int:
        return self._index_of[node_id]

    @property
    def index_map(self) -> Mapping[str, int]:
        """Node id -> index, read-only."""
        return MappingProxyType(self._index_of)

    def children(self, i: int) -> tuple[int, ...]:
        """Node i's children in index order (no :class:`Node` is made)."""
        return self._children_of[i]

    def parent(self, i: int) -> int | None:
        """Node i's parent, None at the root (no :class:`Node` is made)."""
        return self._parent_of[i]

    def node_probability(self, i: int) -> float:
        """Unconditional probability of reaching node i from the root."""
        return float(self.node_probabilities([i])[0])

    def node_probabilities(self, nodes: Sequence[int]) -> np.ndarray:
        """:meth:`node_probability` of each of ``nodes``: the edge
        probabilities multiplied from the node up to the root, in that
        order, read off the columns (no :class:`Node` is made)."""
        parent, prob = self._cols.parent, self._cols.prob
        at = np.array(nodes, dtype=np.intp)
        p = np.ones(at.size)
        up = parent[at] >= 0
        while up.any():
            p[up] *= prob[at[up]]
            at[up] = parent[at[up]]
            up = parent[at] >= 0
        return p

    def subtree(self, i: int) -> tuple[int, ...]:
        """Indices of the subtree rooted at i, in ascending index order
        (no :class:`Node` is made)."""
        kids = self._children_of
        level, seen = [i], [i]
        while level:
            level = [c for u in level for c in kids[u]]
            seen.extend(level)
        return tuple(sorted(seen))

    def path_from_root(self, i: int) -> tuple[int, ...]:
        path = [i]
        while self._parent_of[path[-1]] is not None:
            path.append(self._parent_of[path[-1]])
        return tuple(reversed(path))


def validate_tree(tree: EventTree) -> list[Violation]:
    """Diagnostic structural check; empty list iff the tree is well-formed."""
    return _violations(tree._cols, tree.dt)


def _violations(cols: _Columns, dt: float) -> list[Violation]:
    """The :func:`validate_tree` report of a tree's columns: the root and
    dt checks, then per node in index order its depth, edge probability,
    horizon and probability-sum checks, then the nodes unreachable from a
    root."""
    out: list[Violation] = []
    ids, time, parent, prob = cols.ids, cols.time, cols.parent, cols.prob
    roots = np.flatnonzero(parent < 0).tolist()
    if len(roots) != 1:
        out.append(Violation("root", f"expected exactly one root, found {len(roots)}"))
    for u in roots:
        if time[u] != 0:
            out.append(Violation("root", "root not at time 0", ids[u], int(time[u])))
    if not dt > 0.0:
        out.append(Violation("dt", f"step length must be positive, got {dt}"))
    horizon = max(time.tolist())
    has_parent = parent >= 0
    count = np.diff(cols.child_ptr)
    sums = cols.block_sums()
    depth = has_parent & (time != time[parent] + 1)
    outside = has_parent & ~((prob > 0.0) & (prob <= 1.0 + PROB_TOL))
    early = (count == 0) & (time != horizon)
    off = (count > 0) & (np.abs(sums - 1.0) > PROB_TOL)
    for u in np.flatnonzero(depth | outside | early | off).tolist():
        nid, t = ids[u], int(time[u])
        if depth[u]:
            out.append(Violation("depth", f"time index {t} is not parent's "
                                 f"{int(time[parent[u]])} + 1", nid, t))
        if outside[u]:
            out.append(Violation("probability", f"edge probability "
                                 f"{float(prob[u])} outside (0, 1]", nid, t))
        if early[u]:
            out.append(Violation("horizon", "leaf before horizon", nid, t))
        if off[u]:
            out.append(Violation("probability-sum", f"probabilities sum "
                                 f"{float(sums[u]):.17g} != 1 at node", nid, t))
    # reachability: jump to the 2^k-th ancestor until every chain that ends
    # at a root has reached it; anything else is orphaned
    ancestor = np.where(has_parent, parent, np.arange(parent.size))
    for _ in range(parent.size.bit_length()):
        jumped = ancestor[ancestor]
        if np.array_equal(jumped, ancestor):
            break
        ancestor = jumped
    for u in np.flatnonzero(has_parent[ancestor]).tolist():
        out.append(Violation("orphan", "node unreachable from root", ids[u],
                             int(time[u])))
    return out


@dataclass(frozen=True, eq=False)
class _PerNode:
    """What both per-node kinds store (see the module docstring)."""

    tree: EventTree
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size != self.tree.n_nodes:
            got = len(values) if values.ndim == 1 else f"shape {values.shape}"
            raise ValueError(f"expected {self.tree.n_nodes} values, got {got}")
        object.__setattr__(self, "values", _read_only(values))

    def __getitem__(self, i: int) -> float:
        return self.values.item(i)


@dataclass(frozen=True, eq=False)
class AdaptedProcess(_PerNode):
    """One real value per node (a process adapted to the tree filtration)."""

    @classmethod
    def constant(cls, tree: EventTree, c: float) -> "AdaptedProcess":
        return cls(tree, np.full(tree.n_nodes, float(c)))

    @classmethod
    def from_fn(cls, tree: EventTree, fn: Callable[[Node], float]) -> "AdaptedProcess":
        return cls(tree, [float(fn(n)) for n in tree.nodes])

    @classmethod
    def from_dict(cls, tree: EventTree, values: Mapping[str, float]) -> "AdaptedProcess":
        missing = [nid for nid in tree.ids if nid not in values]
        if missing:
            raise ValueError(f"missing values for nodes {missing}")
        return cls(tree, [float(values[nid]) for nid in tree.ids])


def _check_predictable(tree: EventTree, columns: np.ndarray) -> None:
    """Refuse increments that are not predictable: ``columns`` is an
    ``(n_nodes, m)`` array, one increment per column on the edge into each
    node.  Column by column, raises ValueError if the root slot is not 0,
    then if a child's increment differs from its first sibling's, naming
    the lowest-index parent where one does.  A NaN shared by all siblings
    is decided at the parent, and the problem validators report it as
    non-finite data."""
    arrays = tree.arrays
    kid, first = columns[arrays.child_index], columns[arrays.child_first]
    differ = (kid != first) & ~(np.isnan(kid) & np.isnan(first))
    rooted = columns[tree.root] != 0.0
    bad = rooted | differ.any(axis=0)
    if bad.any():
        j = int(np.argmax(bad))
        if rooted[j]:
            raise ValueError("root slot of predictable increments must be 0")
        u = int(arrays.child_owner[differ[:, j]].min())
        raise ValueError(f"increment not parent-measurable at node {tree.ids[u]}")


@dataclass(frozen=True, eq=False)
class PredictableIncrements(_PerNode):
    """Per-edge increments decided at the parent (sibling edges identical).

    values[c] is the increment over the edge into node c; the root slot is 0.
    Sibling equality is exact by contract, which is what gives the discrete
    flat-off products ``increment * (value_at_parent - barrier_at_parent)``
    their meaning.
    """

    def __post_init__(self):
        super().__post_init__()
        _check_predictable(self.tree, self.values[:, None])

    @classmethod
    def zero(cls, tree: EventTree) -> "PredictableIncrements":
        return cls(tree, np.zeros(tree.n_nodes))

    @classmethod
    def from_parent_values(
        cls, tree: EventTree, per_parent: Mapping[int, float]
    ) -> "PredictableIncrements":
        """Build from {parent index: increment on its outgoing edges}."""
        out_of = np.zeros(tree.n_nodes)
        out_of[list(per_parent)] = [float(v) for v in per_parent.values()]
        parent = tree._cols.parent
        return cls(tree, np.where(parent >= 0, out_of[parent], 0.0))

    def out_of(self, u: int) -> float:
        """Increment on the edges leaving node u (0 at leaves)."""
        cs = self.tree.children(u)
        return self[cs[0]] if cs else 0.0

    def cumulative(self) -> AdaptedProcess:
        # child slots go by parent in index order: a parent's sum comes first
        inc, arrays = self.values.tolist(), self.tree.arrays
        vals = [0.0] * self.tree.n_nodes
        for c, u in zip(arrays.child_index.tolist(), arrays.child_owner.tolist()):
            vals[c] = vals[u] + inc[c]
        return AdaptedProcess(self.tree, vals)


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
        tree = self.tree
        for leaf in tree.subtree(self.start):
            if tree.children(leaf):
                continue
            hits = 0
            u = leaf
            while True:
                if u in self.stopped:
                    hits += 1
                if u == self.start:
                    break
                u = tree.parent(u)
            if hits != 1:
                raise ValueError(f"path to leaf {tree.ids[leaf]} has {hits} stops")

    def stop_node_on_path(self, leaf: int) -> int:
        u = leaf
        while True:
            if u in self.stopped:
                return u
            if u == self.start:
                raise AssertionError("unreachable: validated at construction")
            u = self.tree.parent(u)


@dataclass(frozen=True)
class DoobDecomposition:
    """X = X_root + M + cumulative C with M a martingale null at the root
    and C predictable (signed)."""

    martingale: AdaptedProcess
    predictable: PredictableIncrements


def one_step_expectation(tree: EventTree, values: Sequence[float], u: int) -> float:
    """E[X_{t+1} | node u] with the canonical child summation order: the
    terms added one after the other, from 0.0, in index order (the
    backward walk's sum, bit for bit), the probabilities read off the CSR
    arrays of ``tree.arrays`` (no :class:`Node` is made)."""
    acc = 0.0
    for c, p in zip(tree.children(u), tree._child_probs_of[u]):
        acc += p * values[c]
    return acc


def conditional_expectation(tree: EventTree, x: AdaptedProcess, s: int) -> dict[int, float]:
    """Project time-(s+1) values of x onto the time-s nodes.

    Returns {node index at time s: weighted mean over its children}.
    """
    if not 0 <= s < tree.n_steps:
        raise ValueError(f"time index {s} has no successor level")
    values = x.values.tolist()
    return {u: one_step_expectation(tree, values, u) for u in tree.level(s)}


def doob_decomposition(tree: EventTree, x: AdaptedProcess) -> DoobDecomposition:
    """Split x into a martingale part and predictable per-edge increments.

    The predictable increment into the children of u is
    ``E[X_{t+1} | u] - X_u`` (one value per sibling block); the martingale
    increment on the edge into c is ``X_c - E[X_{t+1} | u]``.  Reconstruction
    is exact by construction.
    """
    xs = x.values.tolist()
    m = [0.0] * tree.n_nodes
    c_inc = [0.0] * tree.n_nodes
    for u in range(tree.n_nodes):
        if not tree.children(u):
            continue
        e = one_step_expectation(tree, xs, u)
        step = e - xs[u]
        for c in tree.children(u):
            c_inc[c] = step
            m[c] = m[u] + (xs[c] - e)
    return DoobDecomposition(
        martingale=AdaptedProcess(tree, m),
        predictable=PredictableIncrements(tree, c_inc),
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
    rewards = reward.values.tolist()
    env = [0.0] * tree.n_nodes
    for i in range(tree.n_nodes - 1, -1, -1):
        if not tree.children(i):
            env[i] = rewards[i]
        else:
            cont = one_step_expectation(tree, env, i)
            env[i] = max(rewards[i], cont)
    flagged: set[int] = set()
    stack = [tree.root]
    while stack:
        u = stack.pop()
        if env[u] <= rewards[u]:
            flagged.add(u)
        else:
            stack.extend(tree.children(u))
    return AdaptedProcess(tree, env), StoppingTime(tree, frozenset(flagged))


def stopping_time_count(tree: EventTree, start: int | None = None) -> int:
    """Number of stopping times on the subtree from `start` (default: root).

    Satisfies N(leaf) = 1 and N(u) = 1 + prod over children of N(c).
    """
    start = tree.root if start is None else start

    def count(u: int) -> int:
        kids = tree.children(u)
        if not kids:
            return 1
        prod = 1
        for c in kids:
            prod *= count(c)
        return 1 + prod

    return count(start)


def _check_stopping_caps(tree: EventTree, start: int, max_depth: int,
                         max_count: int) -> int:
    """Raise EnumerationCapError if the subtree of ``start`` is deeper than
    ``max_depth`` or has more than ``max_count`` stopping times (the depth
    is checked first, and the count only under it); returns the count."""
    depth = tree.n_steps - int(tree.arrays.time[start])
    if depth > max_depth:
        raise EnumerationCapError(
            f"subtree depth {depth} exceeds enumeration bound {max_depth}"
        )
    total = stopping_time_count(tree, start)
    if total > max_count:
        raise EnumerationCapError(
            f"{total} stopping times exceed enumeration cap {max_count}"
        )
    return total


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
    total = _check_stopping_caps(tree, start, max_depth, max_count)

    def enum(u: int) -> list[frozenset[int]]:
        out = [frozenset({u})]
        kids = tree.children(u)
        if not kids:
            return out
        per_child = [enum(c) for c in kids]
        combos = [frozenset()]
        for choices in per_child:
            combos = [base | extra for base in combos for extra in choices]
        return out + combos

    sets = enum(start)
    assert len(sets) == len(set(sets)) == total
    return [StoppingTime(tree, s, start) for s in sets]
