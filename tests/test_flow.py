import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planarflow.errors import CapacityViolation
from planarflow.flow import (
    FlowStore,
    flow_value,
    inflow,
    inflow_all,
    is_feasible,
    is_pseudoflow,
    residual_reachable,
)
from planarflow.generate import generate
from planarflow.graph import NO_KEY, build_graph
from planarflow.separator import find_cycle_separator, split_into_pieces
from planarflow.solvers import graph_arcs, terminal_set_flow
from planarflow.surgery import detach_terminal_from_cycle, triangulate_and_biconnect
from support import decompose_flow, reference_residual_reachable, set_flows


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
    assert store.vals == (0,)


def test_accumulate_arithmetic_and_residuals():
    g, store = single_arc(cap=5)
    store.apply([(0, 3)])
    store.apply([(0, 2)])
    assert store.vals[0] == 5


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


def test_store_for_graph_copies_capacities_and_rejects_other_keys():
    g, store = triangle(caps=(4, 5, 6))
    assert (store.caps, store.vals) == ([4, 5, 6], (0, 0, 0))
    store.apply([(1, 2)])
    assert g.caps == [4, 5, 6]
    g.keys[2] = 0
    with pytest.raises(ValueError, match="identity keys"):
        FlowStore.for_graph(g)


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


def test_residual_searches_sharing_a_seen_array_visit_each_node_once():
    g, _ = generate("grid", 60, 0, cap_max=1).build()
    store = FlowStore.for_graph(g)
    rng = random.Random(0)
    set_flows(store, [rng.randint(0, c) for c in store.caps])
    for a_start, b_start in [({2}, {9}), ({21}, {30}), ({2, 21}, {9, 30})]:
        reach_a = residual_reachable(g, store, a_start)
        reach_b = residual_reachable(g, store, b_start)
        assert reach_a & reach_b and reach_b - reach_a   # the searches overlap
        seen = bytearray(g.n)
        assert residual_reachable(g, store, a_start, seen) == reach_a
        assert residual_reachable(g, store, b_start, seen) == reach_b - reach_a
        assert [v for v in range(g.n) if seen[v]] == sorted(reach_a | reach_b)


def audited_graphs(kind, n, seed):
    """The graphs a full audit searches, on one store: the input, its
    triangulation (NO_KEY chords), the level graph with a source and a
    sink detached from the separator cycle (fresh store keys), and both
    pieces of its split."""
    g, _ = generate(kind, n, seed, cap_max=2).build()
    store = FlowStore.for_graph(g)
    gt = triangulate_and_biconnect(g)
    sep = find_cycle_separator(gt)
    detaches = [(v, d, role, 3) for v, d, role
                in zip(sep.boundary, sep.cycle_darts, ("source", "sink"))]
    gd, _ = detach_terminal_from_cycle(gt, detaches, store)
    pieces = [p.graph for p in split_into_pieces(gd, sep)]
    return [g, gt, gd] + pieces, store


@pytest.mark.parametrize("kind", ["grid", "tri"])
@pytest.mark.parametrize("n, seed", [(30, 1), (120, 2), (400, 3)])
def test_residual_search_matches_the_dart_loop(kind, n, seed):
    """The keyed-adjacency search returns the dart loop's set and marks,
    alone and through a shared seen array, and reads the store afresh on
    every search of the same graph."""
    graphs, store = audited_graphs(kind, n, seed)
    assert any(NO_KEY in h.keys for h in graphs)
    assert any(max(h.keys) >= graphs[0].m for h in graphs)    # a detach key
    rng = random.Random(seed)
    for h in graphs:
        for _ in range(4):          # a new store state on the same graph
            set_flows(store, [rng.randint(0, c) for c in store.caps])
            seen, ref_seen = bytearray(h.n), bytearray(h.n)
            for _ in range(3):
                start = rng.sample(range(h.n), rng.randint(1, 4))
                assert residual_reachable(h, store, start) == \
                    reference_residual_reachable(h, store, start)
                assert residual_reachable(h, store, start, seen) == \
                    reference_residual_reachable(h, store, start, ref_seen)
                assert seen == ref_seen
    assert all(h.keyed_adjacency() is h.keyed_adjacency() for h in graphs)


def test_no_residual_source_sink_path_after_max_flow():
    # independent check against the direct solver on a small diamond
    arcs = [(0, 1, 2), (0, 2, 3), (1, 3, 2), (2, 3, 1)]
    g = build_graph(4, arcs, [[1, 2], [3, 0], [0, 3], [1, 2]])
    store = FlowStore.for_graph(g)
    value, _ = terminal_set_flow(store, graph_arcs(g, store), {0}, {3})
    assert value == 3
    assert 3 not in residual_reachable(g, store, {0})
    assert is_feasible(g, store, {0}, {3})


def assert_cancelled_and_ordered(g, store, circ, order):
    """circ conserves everywhere, and every positive arc of the flow
    minus circ runs forward in order, a permutation of the nodes."""
    assert sorted(order) == list(range(g.n))
    probe = FlowStore.for_graph(g)
    probe.apply(sorted(circ.items()))
    assert all(x == 0 for x in inflow_all(g, probe))
    rank = {v: i for i, v in enumerate(order)}
    for a in range(g.m):
        key = g.keys[a]
        rest = store.vals[key] - circ.get(key, 0)
        assert rest >= 0
        if rest > 0:
            assert rank[g.tails[a]] < rank[g.heads[a]]


def test_decompose_pure_circulation():
    g, store = triangle(caps=(2, 2, 2))
    store.apply([(0, 2), (1, 2), (2, 2)])
    circ, order = decompose_flow(g, store)
    assert circ == {0: 2, 1: 2, 2: 2}
    assert store.vals == (2, 2, 2)          # the store is left alone
    assert_cancelled_and_ordered(g, store, circ, order)


def test_decompose_pure_path():
    arcs = [(0, 1, 2), (1, 2, 2)]
    g = build_graph(3, arcs, [[1], [0, 2], [1]])
    store = FlowStore.for_graph(g)
    store.apply([(0, 2), (1, 2)])
    circ, order = decompose_flow(g, store)
    assert circ == {}
    assert order == [0, 1, 2]


def test_decompose_mixed_path_and_cycle():
    # path 0->1->2 plus a disjoint directed triangle 3->4->5->3
    arcs = [(0, 1, 2), (1, 2, 2), (3, 4, 1), (4, 5, 1), (5, 3, 1), (2, 3, 1)]
    rot = [[1], [0, 2], [1, 3], [2, 4, 5], [3, 5], [4, 3]]
    g = build_graph(6, arcs, rot)
    store = FlowStore.for_graph(g)
    store.apply([(0, 2), (1, 2), (2, 1), (3, 1), (4, 1)])
    circ, order = decompose_flow(g, store)
    assert circ == {2: 1, 3: 1, 4: 1}
    assert_cancelled_and_ordered(g, store, circ, order)


def test_antisymmetry_and_pseudoflow_checks():
    g, store = single_arc(cap=2)
    store.apply([(0, 2)])
    assert is_pseudoflow(g, store)
    set_flows(store, [3])
    assert not is_pseudoflow(g, store)
    store.res[:] = [1, 2]                   # flow 2 in range, pair sums to 3
    assert not is_pseudoflow(g, store)


def test_flows_are_a_read_only_view_of_the_residual_pairs():
    g, store = triangle(caps=(4, 5, 6))
    store.apply([(1, 2), (2, 6)])
    assert store.res == [4, 0, 3, 2, 0, 6]
    assert store.vals == (0, 2, 6)
    with pytest.raises(TypeError):
        store.vals[0] = 1
    assert store.new_key(7) == 3
    assert (store.res[6:], store.vals, len(store.head)) == ([7, 0], (0, 2, 6, 0), 8)


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
        terminal_set_flow(
            store, graph_arcs(g, store), set(nodes[:cut]), set(nodes[cut:]))
        assert is_pseudoflow(g, store)


@given(st.integers(4, 20), st.integers(0, 10 ** 6))
def test_decomposition_parts_sum_to_flow(n, seed):
    from planarflow.generate import generate

    g, ts = generate("tri", n, seed).build()
    store = FlowStore.for_graph(g)
    terminal_set_flow(store, graph_arcs(g, store), ts.sources, ts.sinks)
    before = store.vals
    circ, order = decompose_flow(g, store)
    assert store.vals == before
    assert_cancelled_and_ordered(g, store, circ, order)
