import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planarflow.errors import CapacityViolation
from planarflow.flow import (
    FlowStore,
    decompose_acyclic,
    flow_value,
    inflow,
    inflow_all,
    is_antisymmetric,
    is_feasible,
    is_pseudoflow,
    residual_reachable,
)
from planarflow.graph import build_graph
from planarflow.solvers import graph_arcs, solve_msms_residual


def single_arc(cap=5):
    g = build_graph(2, [(0, 1, cap)], [[1], [0]])
    return g, FlowStore.for_graph(g)


def triangle(caps=(1, 1, 1)):
    arcs = [(0, 1, caps[0]), (1, 2, caps[1]), (2, 0, caps[2])]
    g = build_graph(3, arcs, [[1, 2], [2, 0], [0, 1]])
    return g, FlowStore.for_graph(g)


def test_inflow_single_arc():
    g, store = single_arc()
    store.apply([(0, 3)])
    assert inflow(g, store, 1) == 3
    assert inflow(g, store, 0) == -3


def test_inflow_zero_flow():
    g, store = triangle()
    assert all(inflow(g, store, v) == 0 for v in range(3))


def test_inflow_circulation_conserves():
    g, store = triangle()
    store.apply([(0, 1), (1, 1), (2, 1)])
    assert all(inflow(g, store, v) == 0 for v in range(3))


def test_accumulate_zero_is_noop():
    g, store = single_arc()
    store.apply([])
    assert store.vals == [0]


def test_accumulate_arithmetic_and_residuals():
    g, store = single_arc(cap=5)
    store.apply([(0, 3)])
    store.apply([(0, 2)])
    assert store.vals[0] == 5
    assert store.residual(g, 0) == 0
    assert store.residual(g, 1) == 5


def test_accumulate_over_capacity_raises():
    g, store = single_arc(cap=5)
    store.apply([(0, 3)])
    with pytest.raises(CapacityViolation):
        store.apply([(0, 3)])


def test_accumulate_below_zero_raises():
    g, store = single_arc(cap=5)
    with pytest.raises(CapacityViolation):
        store.apply([(0, -1)])


def test_feasibility_cases():
    arcs = [(0, 1, 2), (1, 2, 2)]
    g = build_graph(3, arcs, [[1], [0, 2], [1]])
    store = FlowStore.for_graph(g)
    assert is_feasible(g, store, {0}, {2})          # zero flow
    store.apply([(0, 2), (1, 2)])
    assert is_feasible(g, store, {0}, {2})          # saturated path, inflow(1)=0
    assert inflow(g, store, 1) == 0
    store2 = FlowStore.for_graph(g)
    store2.apply([(0, 2)])                    # flow ends at non-terminal
    assert not is_feasible(g, store2, {0}, {2})


def test_flow_value():
    g, store = single_arc(cap=7)
    assert flow_value(g, store, {1}) == 0
    store.apply([(0, 7)])
    assert flow_value(g, store, {1}) == 7


def test_flow_value_two_sinks():
    arcs = [(0, 1, 3), (0, 2, 4)]
    g = build_graph(3, arcs, [[1, 2], [0], [0]])
    store = FlowStore.for_graph(g)
    store.apply([(0, 3), (1, 4)])
    assert flow_value(g, store, {1, 2}) == 7


def test_residual_reachability_before_and_after_saturation():
    g, store = single_arc(cap=4)
    assert residual_reachable(g, store, {0}) == {0, 1}
    store.apply([(0, 4)])
    assert residual_reachable(g, store, {0}) == {0}
    assert residual_reachable(g, store, {1}) == {0, 1}  # reverse dart now residual


def test_no_residual_source_sink_path_after_max_flow():
    # independent check against the direct solver on a small diamond
    arcs = [(0, 1, 2), (0, 2, 3), (1, 3, 2), (2, 3, 1)]
    g = build_graph(4, arcs, [[1, 2], [3, 0], [0, 3], [1, 2]])
    store = FlowStore.for_graph(g)
    value, deltas = solve_msms_residual(g.n, graph_arcs(g), store, {0}, {3})
    store.apply(deltas)
    assert value == 3
    assert 3 not in residual_reachable(g, store, {0})
    assert is_feasible(g, store, {0}, {3})


def test_decompose_pure_circulation():
    g, store = triangle(caps=(2, 2, 2))
    store.apply([(0, 2), (1, 2), (2, 2)])
    circ, acyc = decompose_acyclic(g, store)
    assert acyc == {}
    assert circ == {0: 2, 1: 2, 2: 2}


def test_decompose_pure_path():
    arcs = [(0, 1, 2), (1, 2, 2)]
    g = build_graph(3, arcs, [[1], [0, 2], [1]])
    store = FlowStore.for_graph(g)
    store.apply([(0, 2), (1, 2)])
    circ, acyc = decompose_acyclic(g, store)
    assert circ == {}
    assert acyc == {0: 2, 1: 2}


def test_decompose_mixed_path_and_cycle():
    # path 0->1->2 plus a disjoint directed triangle 3->4->5->3
    arcs = [(0, 1, 2), (1, 2, 2), (3, 4, 1), (4, 5, 1), (5, 3, 1), (2, 3, 1)]
    rot = [[1], [0, 2], [1, 3], [2, 4, 5], [3, 5], [4, 3]]
    g = build_graph(6, arcs, rot)
    store = FlowStore.for_graph(g)
    store.apply([(0, 2), (1, 2), (2, 1), (3, 1), (4, 1)])
    circ, acyc = decompose_acyclic(g, store)
    assert circ == {2: 1, 3: 1, 4: 1}
    assert acyc == {0: 2, 1: 2}
    # circulation part conserves everywhere
    probe = FlowStore.for_graph(g)
    probe.apply(sorted(circ.items()))
    assert all(x == 0 for x in inflow_all(g, probe))


def test_antisymmetry_and_pseudoflow_checks():
    g, store = single_arc(cap=2)
    store.apply([(0, 2)])
    assert is_antisymmetric(g, store)
    assert is_pseudoflow(g, store)


@given(st.integers(3, 24), st.integers(0, 10 ** 6), st.integers(1, 4))
def test_solver_pushes_preserve_invariants(n, seed, rounds):
    from planarflow.generate import generate

    g, ts = generate("tri", n, seed).build()
    store = FlowStore.for_graph(g)
    rng = random.Random(seed)
    for _ in range(rounds):
        nodes = list(range(g.n))
        rng.shuffle(nodes)
        cut = rng.randint(1, g.n - 1)
        _, deltas = solve_msms_residual(
            g.n, graph_arcs(g), store, set(nodes[:cut]), set(nodes[cut:]))
        store.apply(deltas)
        assert is_antisymmetric(g, store)
        assert is_pseudoflow(g, store)


@given(st.integers(4, 20), st.integers(0, 10 ** 6))
def test_decomposition_parts_sum_to_flow(n, seed):
    from planarflow.generate import generate

    g, ts = generate("tri", n, seed).build()
    store = FlowStore.for_graph(g)
    _, deltas = solve_msms_residual(g.n, graph_arcs(g), store,
                                    ts.sources, ts.sinks)
    store.apply(deltas)
    circ, acyc = decompose_acyclic(g, store)
    for a in range(g.m):
        key = g.keys[a]
        assert store.vals[key] == circ.get(key, 0) + acyc.get(key, 0)
    # acyclic part: positive darts form a DAG (Kahn consumes every node)
    indeg = [0] * g.n
    out = [[] for _ in range(g.n)]
    for a in range(g.m):
        if acyc.get(g.keys[a], 0) > 0:
            out[g.tails[a]].append(g.heads[a])
            indeg[g.heads[a]] += 1
    queue = [v for v in range(g.n) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    assert seen == g.n
