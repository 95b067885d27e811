import random

import pytest

from planarflow.flow import (
    FlowStore,
    flow_value,
    inflow_all,
    is_feasible,
    residual_reachable,
)
from planarflow.graph import build_graph
from planarflow.solvers import (
    graph_arcs,
    limited_max_flow,
    msss_max_flow,
    oracle_max_flow,
    ssms_max_flow,
)


def fan_into_sink():
    # two sources each with a unit arc into node 2
    arcs = [(0, 2, 1), (1, 2, 1)]
    g = build_graph(3, arcs, [[2], [2], [0, 1]])
    return g, FlowStore.for_graph(g)


def random_digraph(rng, n, density=0.45, cap_max=9):
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                arcs.append((u, v, rng.randint(0, cap_max)))
    return arcs


def test_msss_two_sources():
    g, store = fan_into_sink()
    value, deltas = msss_max_flow(g.n, graph_arcs(g), store, {0, 1}, 2)
    store.apply(deltas)
    assert value == 2
    assert flow_value(g, store, {2}) == 2


def test_msss_unreachable_sink_is_zero():
    arcs = [(2, 0, 5), (2, 1, 5)]
    g = build_graph(3, arcs, [[2], [2], [0, 1]])
    store = FlowStore.for_graph(g)
    value, deltas = msss_max_flow(g.n, graph_arcs(g), store, {0, 1}, 2)
    assert value == 0 and deltas == []


def test_msss_leaves_no_residual_path_to_sink():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(3, 9)
        arcs = random_digraph(rng, n)
        if not arcs:
            continue
        sources = set(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
        sink = rng.choice([v for v in range(n) if v not in sources])
        store = FlowStore()
        keyed = [(t, h, c, store.new_key(c)) for (t, h, c) in arcs]
        value, deltas = msss_max_flow(n, keyed, store, sources, sink)
        store.apply(deltas)
        oracle = oracle_max_flow(n, arcs, sources, {sink})
        assert value == oracle.value
        # no residual source-to-sink path: sink not reachable
        reach = _reach(n, keyed, store, sources)
        assert sink not in reach


def _reach(n, keyed_arcs, store, start):
    adj = {}
    for (t, h, c, key) in keyed_arcs:
        f = store.vals[key]
        if c - f > 0:
            adj.setdefault(t, []).append(h)
        if f > 0:
            adj.setdefault(h, []).append(t)
    seen = set(start)
    stack = list(start)
    while stack:
        v = stack.pop()
        for w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_ssms_single_sink_matches_plain_max_flow():
    arcs = [(0, 1, 2), (1, 2, 3)]
    g = build_graph(3, arcs, [[1], [0, 2], [1]])
    store = FlowStore.for_graph(g)
    value, deltas = ssms_max_flow(g.n, graph_arcs(g), store, 0, {2})
    store.apply(deltas)
    assert value == 2
    assert is_feasible(g, store, {0}, {2})


def test_ssms_source_with_no_outgoing_capacity_is_zero():
    arcs = [(1, 0, 4), (1, 2, 4)]
    g = build_graph(3, arcs, [[1], [0, 2], [1]])
    store = FlowStore.for_graph(g)
    value, deltas = ssms_max_flow(g.n, graph_arcs(g), store, 0, {2})
    assert value == 0 and deltas == []


def test_ssms_matches_oracle_and_reversal_roundtrip():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 9)
        arcs = random_digraph(rng, n)
        if not arcs:
            continue
        sinks = set(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
        source = rng.choice([v for v in range(n) if v not in sinks])
        store = FlowStore()
        keyed = [(t, h, c, store.new_key(c)) for (t, h, c) in arcs]
        value, deltas = ssms_max_flow(n, keyed, store, source, sinks)
        store.apply(deltas)
        assert value == oracle_max_flow(n, arcs, {source}, sinks).value
        # the returned assignment is a feasible source-to-sinks flow
        net_in = {}
        for (t, h, c, key) in keyed:
            f = store.vals[key]
            net_in[h] = net_in.get(h, 0) + f
            net_in[t] = net_in.get(t, 0) - f
        for v in range(n):
            if v != source and v not in sinks:
                assert net_in.get(v, 0) == 0
        assert sum(net_in.get(t, 0) for t in sinks) == value
        # maximality: no residual path from source to any sink
        reach = _reach(n, keyed, store, {source})
        assert not (reach & sinks)


def test_limited_flow_respects_delta():
    arcs = [(0, 1, 5)]
    g = build_graph(2, arcs, [[1], [0]])
    for delta, expect in [(3, 3), (10, 5), (0, 0)]:
        store = FlowStore.for_graph(g)
        value, deltas = limited_max_flow(g.n, graph_arcs(g), store, 0, 1, delta)
        store.apply(deltas)
        assert value == expect
        assert store.vals[0] == expect


def test_limited_flow_rejects_negative_delta():
    arcs = [(0, 1, 5)]
    g = build_graph(2, arcs, [[1], [0]])
    store = FlowStore.for_graph(g)
    with pytest.raises(ValueError):
        limited_max_flow(g.n, graph_arcs(g), store, 0, 1, -1)



def test_limited_flow_scratch_arcs_carry_flow_but_return_no_deltas():
    # 0 -> 1 (cap 2) plus an unkeyed scratch link 1 -> 2 to reach the sink
    arcs = [(0, 1, 2), (2, 1, 9)]
    g = build_graph(3, arcs, [[1], [0, 2], [1]])
    store = FlowStore.for_graph(g)
    value, deltas = limited_max_flow(g.n, graph_arcs(g), store, 0, 2, 5,
                                     [(1, 2, 100, 0)])
    assert value == 2
    assert deltas == [(0, 2)]
    assert limited_max_flow(g.n, graph_arcs(g), store, 0, 2, 5) == (0, [])

def test_limited_flow_maximality_when_short():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(3, 8)
        arcs = random_digraph(rng, n)
        if not arcs:
            continue
        s, t = rng.sample(range(n), 2)
        store = FlowStore()
        keyed = [(tl, h, c, store.new_key(c)) for (tl, h, c) in arcs]
        delta = rng.randint(0, 12)
        value, deltas = limited_max_flow(n, keyed, store, s, t, delta)
        store.apply(deltas)
        true_max = oracle_max_flow(n, arcs, {s}, {t}).value
        assert value == min(delta, true_max)
        if value < delta:
            assert t not in _reach(n, keyed, store, {s})


def test_oracle_single_arc():
    assert oracle_max_flow(2, [(0, 1, 7)], {0}, {1}).value == 7


def test_oracle_disconnected_terminals():
    assert oracle_max_flow(4, [(0, 1, 3), (2, 3, 3)], {0}, {3}).value == 0


def test_oracle_cut_certificate_on_random_instances():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(2, 9)
        arcs = random_digraph(rng, n)
        k = rng.randint(1, max(1, n // 2))
        nodes = list(range(n))
        rng.shuffle(nodes)
        sources = set(nodes[:k])
        sinks = set(nodes[k:k + max(1, rng.randint(1, n - k) if n > k else 1)])
        if not sinks:
            continue
        res = oracle_max_flow(n, arcs, sources, sinks)
        assert res.value == res.cut_capacity
        assert sources <= res.cut_nodes
        assert not (sinks & res.cut_nodes)
        # witness flow is feasible and has the stated value
        net_in = {}
        for a, f in res.flows.items():
            t, h, c = arcs[a]
            assert 0 <= f <= c
            net_in[h] = net_in.get(h, 0) + f
            net_in[t] = net_in.get(t, 0) - f
        for v in range(n):
            if v not in sources and v not in sinks:
                assert net_in.get(v, 0) == 0
        assert sum(net_in.get(t, 0) for t in sinks) == res.value


def test_solver_runs_are_deterministic():
    rng = random.Random(5)
    arcs = random_digraph(rng, 7)
    store1 = FlowStore()
    keyed1 = [(t, h, c, store1.new_key(c)) for (t, h, c) in arcs]
    v1, d1 = msss_max_flow(7, keyed1, store1, {0, 1}, 6)
    store2 = FlowStore()
    keyed2 = [(t, h, c, store2.new_key(c)) for (t, h, c) in arcs]
    v2, d2 = msss_max_flow(7, keyed2, store2, {0, 1}, 6)
    assert (v1, d1) == (v2, d2)
