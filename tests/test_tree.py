"""Tree substrate: validation, expectations, Doob split, Snell, enumeration.

Core claims:
    - validate_tree reports probability sums, early leaves, orphans; empty
      report iff well-formed
    - conditional expectation is the probability-weighted child mean, and is
      linear and monotone
    - the Doob split reconstructs the process exactly and its martingale
      part has zero conditional increments; supermartingales get a
      nonincreasing predictable part
    - the Snell envelope equals the enumeration maximum over stopping times
      and is the minimal dominating supermartingale
    - stopping-time enumeration is exhaustive, duplicate-free, matches the
      product recursion, and refuses to run beyond its caps
    - binary and chain trees, written as columns, equal the trees of their
      explicit specs node by node and array by array, a bad dt included;
      sibling blocks that sum to 1 only within PROB_TOL renormalize alike
      from columns and from specs
    - predictable increments name the lowest-index parent whose siblings
      differ; a NaN shared by all siblings passes, a NaN beside a number
      does not
    - every way of making a process or increments stores one read-only
      float64 array of one value per node, which no source array aliases
    - levels are ranges of indices, and so are the leaves of a tree with no
      early leaf; LeafRows maps each leaf to its row of one read-only
      array and nothing else to anything
    - snell_envelope, doob_decomposition and conditional_expectation read
      the child probabilities off the CSR arrays and make no Node, with
      the bits of the sums taken through Node probabilities
"""

from __future__ import annotations

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbsde import (
    AdaptedProcess,
    EnumerationCapError,
    EventTree,
    InvalidTreeError,
    LeafRows,
    PredictableIncrements,
    StoppingTime,
    conditional_expectation,
    doob_decomposition,
    enumerate_stopping_times,
    snell_envelope,
    stopping_time_count,
    validate_tree,
)
from gen import random_tree, random_walk_process
from oracles import count_stopping_times, path_probability, stopped_expectation
from orbsde.oblique import SystemSolution
from orbsde.tree import one_step_expectation


def leaf_values(tree, mapping):
    return {tree.index_of(k): v for k, v in mapping.items()}


# -- validate_tree -----------------------------------------------------------


def test_well_formed_binary_tree_validates_clean():
    tree = EventTree.binary(2, 1.0)
    assert validate_tree(tree) == []


def test_probability_sum_violation_reported():
    nodes = [
        {"id": "r", "t": 0, "parent": None},
        {"id": "a", "t": 1, "parent": "r", "p": 0.6},
        {"id": "b", "t": 1, "parent": "r", "p": 0.6},
    ]
    tree = EventTree(nodes, 1.0)
    report = validate_tree(tree)
    assert any(
        v.code == "probability-sum" and "1.2" in v.message and v.node_id == "r"
        for v in report
    )
    with pytest.raises(InvalidTreeError):
        EventTree.build(nodes, 1.0)


def test_leaf_before_horizon_reported():
    nodes = [
        {"id": "r", "t": 0, "parent": None},
        {"id": "a", "t": 1, "parent": "r", "p": 0.5},
        {"id": "b", "t": 1, "parent": "r", "p": 0.5},
        {"id": "aa", "t": 2, "parent": "a", "p": 1.0},
    ]
    tree = EventTree(nodes, 1.0)
    assert any(
        v.code == "horizon" and v.node_id == "b" for v in validate_tree(tree)
    )


def test_probabilities_renormalized_exactly():
    nodes = [
        {"id": "r", "t": 0, "parent": None},
        {"id": "a", "t": 1, "parent": "r", "p": 0.1 + 0.2},  # 0.30000000000000004
        {"id": "b", "t": 1, "parent": "r", "p": 0.7},
    ]
    tree = EventTree.build(nodes, 1.0)
    a, b = tree.index_of("a"), tree.index_of("b")
    assert tree.node(a).prob + tree.node(b).prob == 1.0


def test_dt_must_be_positive():
    nodes = [{"id": "r", "t": 0, "parent": None}]
    assert any(v.code == "dt" for v in validate_tree(EventTree(nodes, 0.0)))


# -- conditional expectation --------------------------------------------------


def test_conditional_expectation_is_arithmetic_mean_for_fair_coin():
    tree = EventTree.binary(1, 1.0)
    x = AdaptedProcess.from_dict(tree, {"r": 0.0, "rd": 1.0, "ru": 3.0})
    assert conditional_expectation(tree, x, 0)[tree.root] == 2.0


def test_conditional_expectation_weighted_mean():
    nodes = [
        {"id": "r", "t": 0, "parent": None},
        {"id": "a", "t": 1, "parent": "r", "p": 0.2},
        {"id": "b", "t": 1, "parent": "r", "p": 0.3},
        {"id": "c", "t": 1, "parent": "r", "p": 0.5},
    ]
    tree = EventTree.build(nodes, 1.0)
    x = AdaptedProcess.from_dict(tree, {"r": 0.0, "a": 10.0, "b": 0.0, "c": 2.0})
    assert conditional_expectation(tree, x, 0)[tree.root] == pytest.approx(3.0, abs=1e-15)


def test_conditional_expectation_deterministic_chain_is_identity():
    tree = EventTree.chain(1, 1.0)
    x = AdaptedProcess.from_dict(tree, {"n0": 0.0, "n1": 7.0})
    assert conditional_expectation(tree, x, 0)[tree.root] == 7.0


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-5, 5), b=st.floats(-5, 5),
    x0=st.floats(-3, 3), x1=st.floats(-3, 3),
    y0=st.floats(-3, 3), y1=st.floats(-3, 3),
)
def test_conditional_expectation_linear(a, b, x0, x1, y0, y1):
    tree = EventTree.binary(1, 1.0)
    x = AdaptedProcess.from_dict(tree, {"r": 0.0, "rd": x0, "ru": x1})
    y = AdaptedProcess.from_dict(tree, {"r": 0.0, "rd": y0, "ru": y1})
    z = AdaptedProcess.from_dict(
        tree, {"r": 0.0, "rd": a * x0 + b * y0, "ru": a * x1 + b * y1}
    )
    ex = conditional_expectation(tree, x, 0)[0]
    ey = conditional_expectation(tree, y, 0)[0]
    ez = conditional_expectation(tree, z, 0)[0]
    assert ez == pytest.approx(a * ex + b * ey, abs=1e-9)


def test_conditional_expectation_monotone():
    rng = random.Random(7)
    for _ in range(25):
        tree = random_tree(rng)
        x_vals = random_walk_process(rng, tree)
        y_vals = [v + rng.uniform(0.0, 1.0) for v in x_vals]
        x = AdaptedProcess(tree, tuple(x_vals))
        y = AdaptedProcess(tree, tuple(y_vals))
        for s in range(tree.n_steps):
            ex = conditional_expectation(tree, x, s)
            ey = conditional_expectation(tree, y, s)
            assert all(ex[u] <= ey[u] + 1e-12 for u in ex)


# -- Doob decomposition -------------------------------------------------------


def _random_martingale(rng, tree):
    vals = [0.0] * tree.n_nodes
    vals[tree.root] = rng.uniform(-1, 1)
    for n in tree.nodes:
        if n.is_leaf:
            continue
        kids = n.children
        raw = [rng.uniform(-1, 1) for _ in kids]
        mean = sum(tree.node(c).prob * z for c, z in zip(kids, raw))
        for c, z in zip(kids, raw):
            vals[c] = vals[n.index] + (z - mean)
    return AdaptedProcess(tree, tuple(vals))


def test_doob_of_martingale_has_zero_predictable_part():
    rng = random.Random(3)
    tree = random_tree(rng, max_depth=3, max_branching=3)
    x = _random_martingale(rng, tree)
    dec = doob_decomposition(tree, x)
    assert all(abs(c) <= 1e-12 for c in dec.predictable.values)


def test_doob_of_deterministic_drift_has_zero_martingale_part():
    tree = EventTree.chain(3, 1.0)
    x = AdaptedProcess.from_fn(tree, lambda n: 5.0 - n.t)
    dec = doob_decomposition(tree, x)
    assert all(m == 0.0 for m in dec.martingale.values)
    for n in tree.nodes:
        if n.parent is not None:
            assert dec.predictable.values[n.index] == -1.0


def test_doob_reconstruction_exact_on_random_trees():
    rng = random.Random(11)
    for _ in range(30):
        tree = random_tree(rng)
        x = AdaptedProcess(tree, tuple(random_walk_process(rng, tree)))
        dec = doob_decomposition(tree, x)
        cum = dec.predictable.cumulative()
        for n in tree.nodes:
            rebuilt = (
                x.values[tree.root]
                + dec.martingale.values[n.index]
                + cum.values[n.index]
            )
            assert abs(rebuilt - x.values[n.index]) <= 1e-12
        # martingale part has zero conditional increments
        for n in tree.nodes:
            if n.is_leaf:
                continue
            inc = sum(
                tree.node(c).prob
                * (dec.martingale.values[c] - dec.martingale.values[n.index])
                for c in n.children
            )
            assert abs(inc) <= 1e-12


def test_doob_of_supermartingale_has_nonincreasing_predictable_part():
    rng = random.Random(13)
    tree = random_tree(rng, max_depth=3)
    base = _random_martingale(rng, tree)
    # subtract a predictable increasing drift: martingale minus cumulative drops
    vals = list(base.values)
    for n in tree.nodes:
        if n.is_leaf:
            continue
        drop = rng.uniform(0.0, 0.5)
        for c in n.children:
            vals[c] = vals[c] - (base.values[n.index] - vals[n.index]) - drop
    x = AdaptedProcess(tree, tuple(vals))
    dec = doob_decomposition(tree, x)
    assert all(c <= 1e-12 for c in dec.predictable.values)


# -- Snell envelope -----------------------------------------------------------


def test_snell_decreasing_deterministic_reward_stops_at_root():
    tree = EventTree.chain(3, 1.0)
    reward = AdaptedProcess.from_fn(tree, lambda n: 10.0 - n.t)
    env, stop = snell_envelope(tree, reward)
    assert env.values.tolist() == reward.values.tolist()
    assert stop.stopped == frozenset({tree.root})


def test_snell_of_martingale_reward_is_the_reward():
    rng = random.Random(5)
    tree = random_tree(rng, max_depth=3)
    reward = _random_martingale(rng, tree)
    env, _ = snell_envelope(tree, reward)
    for a, b in zip(env.values, reward.values):
        assert abs(a - b) <= 1e-12


def test_snell_two_step_binary_matches_enumeration():
    tree = EventTree.binary(2, 1.0)
    reward = AdaptedProcess.from_dict(
        tree,
        {"r": 0.0, "rd": 1.0, "ru": 0.0, "rdd": 0.0, "rdu": 0.0, "rud": 3.0,
         "ruu": 0.0},
    )
    env, stop = snell_envelope(tree, reward)
    best = max(
        stopped_expectation(tree, st_, reward.values)
        for st_ in enumerate_stopping_times(tree)
    )
    assert env.values[tree.root] == pytest.approx(best, abs=1e-12)
    assert env.values[tree.root] == pytest.approx(1.25, abs=1e-12)
    # optimal stop attains the maximum
    attained = stopped_expectation(tree, stop, reward.values)
    assert attained == pytest.approx(best, abs=1e-12)


def test_snell_envelope_dominates_and_is_minimal():
    rng = random.Random(17)
    tree = random_tree(rng, max_depth=3, max_branching=2)
    reward = AdaptedProcess(tree, tuple(random_walk_process(rng, tree)))
    env, _ = snell_envelope(tree, reward)
    assert all(e >= r - 1e-12 for e, r in zip(env.values, reward.values))
    dec = doob_decomposition(tree, env)
    depth = tree.n_steps
    for _ in range(100):
        # dominating supermartingale: bump the start, leak nonnegative
        # predictable junk bounded so the bump never fully drains
        bump = rng.uniform(0.0, 2.0)
        leak = PredictableIncrements.from_parent_values(
            tree,
            {
                n.index: -rng.uniform(0.0, bump / max(depth, 1))
                for n in tree.nodes
                if not n.is_leaf
            },
        )
        s_vals = [0.0] * tree.n_nodes
        s_vals[tree.root] = env.values[tree.root] + bump
        for n in tree.nodes:
            if n.parent is None:
                continue
            s_vals[n.index] = (
                s_vals[n.parent]
                + (dec.martingale.values[n.index] - dec.martingale.values[n.parent])
                + dec.predictable.values[n.index]
                + leak.values[n.index]
            )
        # S is a supermartingale dominating the reward...
        for n in tree.nodes:
            if not n.is_leaf:
                cont = sum(tree.node(c).prob * s_vals[c] for c in n.children)
                assert cont <= s_vals[n.index] + 1e-12
            assert s_vals[n.index] >= reward.values[n.index] - 1e-12
        # ... and the envelope sits below it everywhere
        assert all(
            env.values[i] <= s_vals[i] + 1e-12 for i in range(tree.n_nodes)
        )


# -- stopping-time enumeration ------------------------------------------------


def test_chain_of_length_two_has_three_stopping_times():
    tree = EventTree.chain(2, 1.0)
    times = enumerate_stopping_times(tree)
    assert len(times) == 3


def test_one_step_binary_has_two_stopping_times():
    tree = EventTree.binary(1, 1.0)
    times = enumerate_stopping_times(tree)
    assert len(times) == 2
    stops = {st_.stopped for st_ in times}
    assert frozenset({tree.root}) in stops
    assert frozenset(tree.leaves) in stops


def test_enumeration_count_matches_independent_recursion():
    rng = random.Random(23)
    for _ in range(20):
        tree = random_tree(rng, max_depth=3, max_branching=3)
        times = enumerate_stopping_times(tree)
        assert len(times) == count_stopping_times(tree)
        assert len({st_.stopped for st_ in times}) == len(times)
        assert len(times) == stopping_time_count(tree)


def test_enumeration_refuses_above_depth_cap():
    tree = EventTree.chain(5, 1.0)
    with pytest.raises(EnumerationCapError):
        enumerate_stopping_times(tree, max_depth=4)
    assert len(enumerate_stopping_times(tree, max_depth=5)) == 6


def test_enumeration_refuses_above_count_cap():
    tree = EventTree.binary(3, 1.0)
    with pytest.raises(EnumerationCapError):
        enumerate_stopping_times(tree, max_count=10)


def test_stopping_time_rejects_double_stops():
    tree = EventTree.chain(2, 1.0)
    with pytest.raises(ValueError):
        StoppingTime(tree, frozenset({0, 1}))
    with pytest.raises(ValueError):
        StoppingTime(tree, frozenset())


# -- canonical indexing -------------------------------------------------------


def test_node_order_is_input_order_independent():
    nodes = [
        {"id": "r", "t": 0, "parent": None},
        {"id": "a", "t": 1, "parent": "r", "p": 0.4},
        {"id": "b", "t": 1, "parent": "r", "p": 0.6},
    ]
    rng = random.Random(1)
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    t1 = EventTree.build(nodes, 1.0)
    t2 = EventTree.build(shuffled, 1.0)
    assert [n.node_id for n in t1.nodes] == [n.node_id for n in t2.nodes]
    assert [n.prob for n in t1.nodes] == [n.prob for n in t2.nodes]


def test_predictable_increments_must_match_across_siblings():
    tree = EventTree.binary(1, 1.0)
    with pytest.raises(ValueError):
        PredictableIncrements(tree, (0.0, 0.1, 0.2))
    with pytest.raises(ValueError):
        PredictableIncrements(tree, (0.5, 0.1, 0.1))  # root slot must be 0
    inc = PredictableIncrements.from_parent_values(tree, {tree.root: 0.7})
    assert inc.out_of(tree.root) == 0.7


def _ternary(depth: int) -> EventTree:
    nodes = [{"id": "r", "t": 0, "parent": None}]
    frontier = ["r"]
    for t in range(1, depth + 1):
        frontier = [pid + tag for pid in frontier for tag in "abc"]
        nodes += [{"id": nid, "t": t, "parent": nid[:-1], "p": p}
                  for nid, p in zip(frontier, [0.2, 0.3, 0.5] * len(frontier))]
    return EventTree.build(nodes, 1.0)


def test_predictable_increments_name_the_lowest_unequal_parent():
    tree = _ternary(2)
    per_parent = {u: 0.1 * (u + 1) for u in range(tree.n_nodes) if tree.children(u)}
    base = list(PredictableIncrements.from_parent_values(tree, per_parent).values)
    rb_kids = tree.children(tree.index_of("rb"))
    assert [base[c] for c in rb_kids] == [0.30000000000000004] * 3
    # two parents with unequal siblings: "rc" in its first child, "rb" in
    # its last; the error names rb, the lower index
    values = list(base)
    values[tree.children(tree.index_of("rc"))[0]] += 1.0
    values[tree.children(tree.index_of("rb"))[2]] -= 1.0
    with pytest.raises(ValueError, match="parent-measurable at node rb$"):
        PredictableIncrements(tree, tuple(values))
    # a NaN shared by all siblings is decided at the parent
    values = list(base)
    for c in tree.children(tree.index_of("ra")):
        values[c] = math.nan
    inc = PredictableIncrements(tree, tuple(values))
    assert math.isnan(inc.out_of(tree.index_of("ra")))
    # a NaN beside a number is not, in either order
    for slot in (0, 2):
        values = list(base)
        values[tree.children(tree.index_of("rc"))[slot]] = math.nan
        with pytest.raises(ValueError, match="parent-measurable at node rc$"):
            PredictableIncrements(tree, tuple(values))


def _binary_specs(steps: int, p_up: float) -> list[dict]:
    nodes = [{"id": "r", "t": 0, "parent": None}]
    frontier = ["r"]
    for t in range(1, steps + 1):
        nxt = []
        for pid in frontier:
            for tag, p in (("d", 1.0 - p_up), ("u", p_up)):
                nodes.append({"id": pid + tag, "t": t, "parent": pid, "p": p})
                nxt.append(pid + tag)
        frontier = nxt
    return nodes


def _chain_specs(steps: int) -> list[dict]:
    return [{"id": "n0", "t": 0, "parent": None}] + [
        {"id": f"n{k}", "t": k, "parent": f"n{k - 1}", "p": 1.0}
        for k in range(1, steps + 1)]


def _facts(tree: EventTree):
    """Every node field (probabilities as float.hex), each level, the
    leaves, dt and every TreeArrays field."""
    arrays = {}
    for field in dataclasses.fields(tree.arrays):
        value = getattr(tree.arrays, field.name)
        if field.name == "parents":
            arrays[field.name] = [level.tolist() for level in value]
        elif value.dtype.kind == "f":
            arrays[field.name] = [x.hex() for x in value.tolist()]
        else:
            arrays[field.name] = value.tolist()
    return ([(n.index, n.node_id, n.t, n.parent, n.children, n.prob.hex())
             for n in tree.nodes],
            [tree.level(t) for t in range(tree.n_steps + 1)],
            tree.leaves, tree.root, tree.dt, arrays)


@pytest.mark.parametrize("steps", range(1, 7))
def test_binary_and_chain_are_the_trees_of_their_specs(steps):
    for p_up in (0.5, 0.3, 1 / 3, 0.1 + 0.2, 0.987654321):
        assert _facts(EventTree.binary(steps, 0.25, p_up)) == _facts(
            EventTree.build(_binary_specs(steps, p_up), 0.25))
    assert _facts(EventTree.chain(steps, 0.25)) == _facts(
        EventTree.build(_chain_specs(steps), 0.25))


def test_sibling_blocks_off_one_renormalize_alike_from_columns_and_specs():
    # (1 - p) + p is exactly 1.0 for every p in (0, 1), so binary never
    # divides; these blocks of 2, 3 and 1 children sum to 1 within PROB_TOL
    blocks = {"r": [0.3, 0.7000000000001], "a": [0.2, 0.3, 0.4999999999995],
              "b": [1.0 + 1e-13]}
    assert all(math.fsum(ps) != 1.0 for ps in blocks.values())
    specs = [{"id": "r", "t": 0, "parent": None},
             {"id": "a", "t": 1, "parent": "r", "p": blocks["r"][0]},
             {"id": "b", "t": 1, "parent": "r", "p": blocks["r"][1]},
             *({"id": f"a{i}", "t": 2, "parent": "a", "p": p}
               for i, p in enumerate(blocks["a"])),
             {"id": "b0", "t": 2, "parent": "b", "p": blocks["b"][0]}]
    from_specs = EventTree.build(specs, 0.5)
    from_columns = EventTree.from_columns(
        [s["id"] for s in specs], [s["t"] for s in specs],
        [-1, 0, 0, 1, 1, 1, 2], [1.0] + [s["p"] for s in specs[1:]], 0.5)
    assert _facts(from_columns) == _facts(from_specs)
    for pid, ps in blocks.items():
        kids = from_specs.children(from_specs.index_of(pid))
        probs = [from_specs.node(c).prob for c in kids]
        assert probs == [p / math.fsum(ps) for p in ps] != ps


def test_levels_and_leaves_are_runs_of_indices():
    # a level is one run of indices, kept as a range (no per-node int); so
    # are the leaves of a tree with no early leaf, and the leaves of one
    # with an early leaf are a tuple
    specs = [{"id": "r", "t": 0, "parent": None},
             *({"id": nid, "t": 1, "parent": "r"} for nid in "abc"),
             {"id": "b0", "t": 2, "parent": "b"}]
    early = EventTree(specs, 1.0)   # leaves a, c and b0: 1, 3 and 4
    for tree in (EventTree.binary(4, 0.5), EventTree.chain(4, 0.5),
                 EventTree.build(_binary_specs(3, 0.3), 0.5), early):
        time = tree.arrays.time.tolist()
        for t in range(tree.n_steps + 1):
            level = tree.level(t)
            assert type(level) is range and level.step == 1
            assert list(level) == [u for u in range(tree.n_nodes) if time[u] == t]
        leaves = [u for u in range(tree.n_nodes) if not tree.children(u)]
        assert list(tree.leaves) == tree.arrays.leaves.tolist() == leaves
        assert type(tree.leaves) is (tuple if tree is early else range)


def test_leaf_rows_are_a_read_only_mapping_of_one_array():
    tree = EventTree.binary(2, 0.5)
    rows = np.arange(8.0).reshape(4, 2)
    by_leaf = LeafRows(tree, rows)
    rows[0, 0] = 99.0   # the mapping keeps its own copy
    assert dict(by_leaf) == {3: (0.0, 1.0), 4: (2.0, 3.0), 5: (4.0, 5.0), 6: (6.0, 7.0)}
    assert LeafRows(tree, np.arange(4.0))[5] == 2.0
    assert type(LeafRows(tree, np.arange(4.0))[5]) is float
    assert not by_leaf.rows.flags.writeable
    for key in (0, 2, 7, -1, "r", None):
        assert key not in by_leaf
        with pytest.raises(KeyError):
            by_leaf[key]
    with pytest.raises(ValueError, match="one row per leaf"):
        LeafRows(tree, np.zeros((3, 2)))


def test_indices_of_reads_the_id_index_map():
    tree = EventTree.binary(2, 0.5)
    assert tree.indices_of(["ru", "r", "nowhere", "rud"]).tolist() == [2, 0, -1, 5]
    assert tree.indices_of(()).tolist() == []


@pytest.mark.parametrize("dt", [0.0, math.nan])
def test_binary_and_chain_report_a_bad_dt_as_their_specs_do(dt):
    for make, specs in ((lambda: EventTree.binary(3, dt, 0.3), _binary_specs(3, 0.3)),
                        (lambda: EventTree.chain(3, dt), _chain_specs(3))):
        with pytest.raises(InvalidTreeError) as got:
            make()
        with pytest.raises(InvalidTreeError) as want:
            EventTree.build(specs, dt)
        assert got.value.violations == want.value.violations
        assert [v.code for v in got.value.violations] == ["dt"]


def test_adapted_process_requires_full_support():
    tree = EventTree.binary(1, 1.0)
    with pytest.raises(ValueError):
        AdaptedProcess(tree, (0.0, 1.0))
    with pytest.raises(ValueError):
        AdaptedProcess.from_dict(tree, {"r": 0.0, "ru": 1.0})


def _decided_at_parents(tree):
    """A writable array of per-node values decided at the parent (0 at the
    root): data for either kind of per-node object."""
    src = np.zeros(tree.n_nodes)
    src[tree.arrays.child_index] = 0.25 + tree.arrays.child_owner
    return src


def _solution_of(tree, src):
    cols = np.column_stack([src, -src])
    return SystemSolution(tree, cols, cols, cols, cols)


PER_NODE_FORMS = {
    "AdaptedProcess(tuple)": lambda tree, src: AdaptedProcess(tree, tuple(src.tolist())),
    "AdaptedProcess(array)": lambda tree, src: AdaptedProcess(tree, src),
    "PredictableIncrements(array)": lambda tree, src: PredictableIncrements(tree, src),
    "constant": lambda tree, src: AdaptedProcess.constant(tree, 1.5),
    "from_fn": lambda tree, src: AdaptedProcess.from_fn(tree, lambda n: src[n.index]),
    "from_dict": lambda tree, src: AdaptedProcess.from_dict(
        tree, dict(zip(tree.ids, src.tolist()))),
    "zero": lambda tree, src: PredictableIncrements.zero(tree),
    "from_parent_values": lambda tree, src: PredictableIncrements.from_parent_values(
        tree, {u: src[tree.children(u)[0]] for u in range(tree.n_nodes)
               if tree.children(u)}),
    "SystemSolution.y": lambda tree, src: _solution_of(tree, src).y[1],
    "SystemSolution.k": lambda tree, src: _solution_of(tree, src).k[1],
    "SystemSolution.a": lambda tree, src: _solution_of(tree, src).a[1],
}


@pytest.mark.parametrize("form", PER_NODE_FORMS)
def test_per_node_values_are_one_read_only_array(form):
    # every way of making a process or increments stores one read-only
    # float64 (n_nodes,) array that no source array aliases, and refuses
    # an array of any other shape
    tree = EventTree.binary(2, 0.5)
    src = _decided_at_parents(tree)
    made = PER_NODE_FORMS[form](tree, src)
    values = made.values
    assert isinstance(values, np.ndarray)
    assert (values.dtype, values.shape) == (np.float64, (tree.n_nodes,))
    assert not values.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 1.0
    before = values.tolist()
    assert [made[i] for i in range(tree.n_nodes)] == before
    assert all(type(made[i]) is float for i in range(tree.n_nodes))
    src[:] = 99.0
    assert made.values.tolist() == before
    with pytest.raises(ValueError, match=rf"expected {tree.n_nodes} values, got shape"):
        type(made)(tree, np.zeros((tree.n_nodes, 2)))


def test_path_probabilities_multiply_along_paths():
    rng = random.Random(29)
    tree = random_tree(rng)
    total = sum(path_probability(tree, leaf) for leaf in tree.leaves)
    assert total == pytest.approx(1.0, abs=1e-12)
    for leaf in tree.leaves:
        assert tree.node_probability(leaf) == pytest.approx(
            path_probability(tree, leaf), abs=1e-15
        )


def test_tree_arrays_are_the_nodes_as_arrays():
    rng = random.Random(31)
    for _ in range(10):
        tree = random_tree(rng, max_depth=3, max_branching=3)
        arrays = tree.arrays
        assert arrays is tree.arrays   # built once
        for n in tree.nodes:
            span = slice(arrays.child_ptr[n.index], arrays.child_ptr[n.index + 1])
            assert tuple(arrays.child_index[span]) == n.children
            assert tuple(arrays.child_prob[span]) == tuple(
                tree.node(c).prob for c in n.children)
            assert set(arrays.child_owner[span].tolist()) <= {n.index}
            assert set(arrays.child_first[span].tolist()) <= set(n.children[:1])
            assert arrays.time[n.index] == n.t
        assert tree.ids == tuple(n.node_id for n in tree.nodes)
        for t in range(tree.n_steps + 1):
            assert tuple(arrays.parents[t]) == tuple(
                u for u in reversed(tree.level(t)) if tree.children(u))
        with pytest.raises(ValueError):
            arrays.child_prob[0] = 0.5


@settings(max_examples=100, deadline=None)
@given(p=st.floats(0.01, 0.99), x=st.lists(
    st.floats(-1e6, 1e6, allow_subnormal=False), min_size=2, max_size=2))
def test_one_step_expectation_is_fsum_for_one_or_two_children(p, x):
    binary = EventTree.build([
        {"id": "r", "t": 0, "parent": None},
        {"id": "a", "t": 1, "parent": "r", "p": p},
        {"id": "b", "t": 1, "parent": "r", "p": 1.0 - p},
    ], 1.0)
    values = [0.0, *x]
    assert one_step_expectation(binary, values, binary.root) == math.fsum(
        binary.node(c).prob * values[c] for c in binary.children(binary.root))
    chain = EventTree.chain(1, 1.0)
    assert one_step_expectation(chain, [0.0, x[0]], chain.root) == math.fsum([x[0]])


def _node_expectation(tree: EventTree, values, u: int) -> float:
    """E[X_{t+1} | u] summed through the children's Node probabilities."""
    acc = 0.0
    for c in tree.node(u).children:
        acc += tree.node(c).prob * values[c]
    return acc


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("seed", range(6))
def test_expectations_read_the_csr_slots_and_make_no_node(seed):
    # snell_envelope, doob_decomposition and conditional_expectation on a
    # tree that has made no Node leave it so, and give the bits of the
    # same sums taken through Node probabilities on a copy of the tree
    def fresh():
        if seed == 0:
            return EventTree.binary(6, 0.1)
        return random_tree(random.Random(seed), max_depth=4, max_branching=3)

    tree, nodes = fresh(), fresh()
    xs = np.random.default_rng(seed).normal(size=tree.n_nodes)
    x = AdaptedProcess(tree, xs)
    env, _ = snell_envelope(tree, x)
    doob = doob_decomposition(tree, x)
    cond = [conditional_expectation(tree, x, s) for s in range(tree.n_steps)]
    assert "nodes" not in vars(tree)

    ref_env = xs.tolist()
    for u in range(nodes.n_nodes - 1, -1, -1):
        if nodes.node(u).children:
            ref_env[u] = max(ref_env[u], _node_expectation(nodes, ref_env, u))
    assert _bits(env.values) == _bits(ref_env)
    m, inc = [0.0] * nodes.n_nodes, [0.0] * nodes.n_nodes
    for n in nodes.nodes:
        e = _node_expectation(nodes, xs.tolist(), n.index)
        for c in n.children:
            inc[c], m[c] = e - xs[n.index], m[n.index] + (xs[c] - e)
    assert _bits(doob.martingale.values) == _bits(m)
    assert _bits(doob.predictable.values) == _bits(inc)
    for s, by_node in enumerate(cond):
        assert list(by_node) == list(nodes.level(s))
        assert _bits(list(by_node.values())) == _bits(
            [_node_expectation(nodes, xs.tolist(), u) for u in nodes.level(s)])
