import copy
import random

import pytest
from support import (
    apex_arcs,
    check_pushes_against_apex,
    edmonds_karp,
    flow_deltas,
    net_heads,
    residual_net,
)

from planarflow.config import EngineConfig
from planarflow import solvers
from planarflow.engine import msms_max_flow
from planarflow.errors import CapacityViolation
from planarflow.flow import (
    FlowStore,
    flow_value,
    inflow_all,
    is_feasible,
    residual_reachable,
)
from planarflow.generate import generate
from planarflow.graph import build_graph
from planarflow.oracle import oracle_max_flow
from planarflow.solvers import _search_trees, graph_arcs, input_net, terminal_set_flow


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
    value, _ = terminal_set_flow(store, graph_arcs(g, store), {0, 1}, {2})
    assert value == 2
    assert flow_value(g, store, {2}) == 2


def test_msss_unreachable_sink_is_zero():
    arcs = [(2, 0, 5), (2, 1, 5)]
    g = build_graph(3, arcs, [[2], [2], [0, 1]])
    store = FlowStore.for_graph(g)
    value, darts = terminal_set_flow(store, graph_arcs(g, store), {0, 1}, {2})
    assert value == 0 and darts == []


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
        value, _ = terminal_set_flow(store, residual_net(n, keyed, store), sources, {sink})
        oracle = oracle_max_flow(n, arcs, sources, {sink})
        assert value == oracle.value
        # no residual source-to-sink path: sink not reachable
        reach = _reach(n, keyed, store, sources)
        assert sink not in reach


def _reach(n, keyed_arcs, store, start):
    adj = {}
    vals = store.vals
    for (t, h, c, key) in keyed_arcs:
        f = vals[key]
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
    value, _ = terminal_set_flow(store, graph_arcs(g, store), {0}, {2})
    assert value == 2
    assert is_feasible(g, store, {0}, {2})


def test_ssms_source_with_no_outgoing_capacity_is_zero():
    arcs = [(1, 0, 4), (1, 2, 4)]
    g = build_graph(3, arcs, [[1], [0, 2], [1]])
    store = FlowStore.for_graph(g)
    value, darts = terminal_set_flow(store, graph_arcs(g, store), {0}, {2})
    assert value == 0 and darts == []


def test_ssms_matches_oracle_and_leaves_a_maximal_feasible_flow():
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
        value, _ = terminal_set_flow(store, residual_net(n, keyed, store), {source}, sinks)
        assert value == oracle_max_flow(n, arcs, {source}, sinks).value
        # the returned assignment is a feasible source-to-sinks flow
        net_in = {}
        vals = store.vals
        for (t, h, c, key) in keyed:
            f = vals[key]
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
        value, _ = terminal_set_flow(store, graph_arcs(g, store), [0], [1], delta)
        assert value == expect
        assert store.vals[0] == expect


@pytest.mark.parametrize("flow", [-1, 6, 9])
def test_a_core_that_leaves_an_arc_outside_its_capacity_raises(monkeypatch, flow):
    """terminal_set_flow checks every arc its core's augmenting paths
    used: a core that leaves one with a flow outside [0, cap] raises
    CapacityViolation, here on arc 1 (cap 5) of the path 0-1-2-3."""
    arcs = [(0, 1, 4), (1, 2, 5), (2, 3, 4)]
    g = build_graph(4, arcs, [[1], [0, 2], [1, 3], [2]])
    core = solvers._search_trees

    def broken(adj, head, res, sources, sinks, limit=None):
        value, darts = core(adj, head, res, sources, sinks, limit)
        res[2], res[3] = 5 - flow, flow
        return value, darts

    monkeypatch.setattr(solvers, "_search_trees", broken)
    store = FlowStore.for_graph(g)
    with pytest.raises(CapacityViolation, match=rf"^key 1: flow {flow} outside \[0, 5\]$"):
        terminal_set_flow(store, graph_arcs(g, store), [0], [3])


def test_limited_flow_rejects_negative_delta():
    arcs = [(0, 1, 5)]
    g = build_graph(2, arcs, [[1], [0]])
    store = FlowStore.for_graph(g)
    with pytest.raises(ValueError):
        terminal_set_flow(store, graph_arcs(g, store), [0], [1], -1)



def test_limited_flow_rejects_overlapping_sets():
    arcs = [(0, 1, 5), (1, 2, 5)]
    g = build_graph(3, arcs, [[1], [0, 2], [1]])
    store = FlowStore.for_graph(g)
    with pytest.raises(ValueError):
        terminal_set_flow(store, graph_arcs(g, store), [0, 1], [1, 2], 3)


def test_msss_paths_stop_at_the_first_sink():
    # 0 -> 1 (cap 2) -> 2 (cap 9), both 1 and 2 sinks: the flow ends at 1
    arcs = [(0, 1, 2), (1, 2, 9)]
    g = build_graph(3, arcs, [[1], [0, 2], [1]])
    store = FlowStore.for_graph(g)
    net = graph_arcs(g, store)
    value, _ = terminal_set_flow(store, net, [0], {1, 2})
    assert value == 2
    assert store.vals == (2, 0)
    assert terminal_set_flow(store, net, [0], {1, 2}) == (0, [])


def test_limited_flow_into_a_set_matches_linked_chain():
    """A limited flow between s and a node set T has the value of the same
    flow between s and T's first node with infinite links chained through
    T both ways; short of delta, no residual path joins s and T."""
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(3, 9)
        arcs = random_digraph(rng, n)
        if not arcs:
            continue
        s, *chain = rng.sample(range(n), rng.randint(2, n))
        inf = 1 + sum(c for (_, _, c) in arcs)
        linked = arcs + [arc for u, v in zip(chain, chain[1:])
                         for arc in ((u, v, inf), (v, u, inf))]
        for forward in (True, False):
            store = FlowStore()
            keyed = [(t, h, c, store.new_key(c)) for (t, h, c) in arcs]
            net = residual_net(n, keyed, store)
            delta = rng.randint(0, 15)
            if forward:
                value, _ = terminal_set_flow(store, net, [s], chain, delta)
                oracle = oracle_max_flow(n, linked, {s}, {chain[0]}).value
            else:
                value, _ = terminal_set_flow(store, net, chain, [s], delta)
                oracle = oracle_max_flow(n, linked, {chain[0]}, {s}).value
            assert value == min(delta, oracle)
            if value < delta:
                if forward:
                    assert not (_reach(n, keyed, store, {s}) & set(chain))
                else:
                    assert s not in _reach(n, keyed, store, set(chain))

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
        value, _ = terminal_set_flow(store, residual_net(n, keyed, store), [s], [t], delta)
        true_max = oracle_max_flow(n, arcs, {s}, {t}).value
        assert value == min(delta, true_max)
        if value < delta:
            assert t not in _reach(n, keyed, store, {s})


def test_oracle_single_arc():
    assert oracle_max_flow(2, [(0, 1, 7)], {0}, {1}).value == 7


def test_oracle_disconnected_terminals():
    assert oracle_max_flow(4, [(0, 1, 3), (2, 3, 3)], {0}, {3}).value == 0


def _brute_force_min_cut(n, arcs, sources, sinks):
    """Least capacity leaving a node set that holds every source and no
    sink, tried over every such set."""
    free = [v for v in range(n) if v not in sources and v not in sinks]
    best = None
    for mask in range(1 << len(free)):
        side = set(sources) | {v for i, v in enumerate(free) if mask >> i & 1}
        cap = sum(c for (t, h, c) in arcs if t in side and h not in side)
        best = cap if best is None else min(best, cap)
    return best


def test_oracle_cut_certificate_on_random_instances():
    """The oracle's cut certifies its flow, and every solver's value
    equals a minimum cut found by brute force, not by Dinic."""
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randint(2, 9)
        arcs = random_digraph(rng, n)
        k = rng.randint(1, max(1, n // 2))
        nodes = list(range(n))
        rng.shuffle(nodes)
        source_list = nodes[:k]
        sink_list = nodes[k:k + max(1, rng.randint(1, n - k) if n > k else 1)]
        if not sink_list:
            continue
        sources, sinks = set(source_list), set(sink_list)
        # two adjacent sources, two adjacent sinks and a source-to-sink arc
        for group in (source_list, sink_list):
            if len(group) >= 2:
                arcs.append((group[0], group[1], rng.randint(1, 9)))
        arcs.append((source_list[0], sink_list[0], rng.randint(1, 9)))
        cut = _brute_force_min_cut(n, arcs, sources, sinks)
        res = oracle_max_flow(n, arcs, sources, sinks)
        assert res.value == res.cut_capacity == cut
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

        def value(solver, *terminals, apex_to=()):
            store = FlowStore()
            keyed = [(t, h, c, store.new_key(c)) for (t, h, c) in arcs]
            if apex_to:
                keyed += apex_arcs(store, n, apex_to, inf)
            net = residual_net(n + 1 if apex_to else n, keyed, store)
            return solver(store, net, *terminals)[0]

        # the apex is node n, joined by keyed arcs above any cut
        inf = 1 + sum(c for (_, _, c) in arcs)
        assert value(terminal_set_flow, sources, sinks) == cut
        assert value(terminal_set_flow, sources, sinks) == cut
        assert value(terminal_set_flow, sources, sinks) == cut
        assert value(terminal_set_flow, sources, {n}, apex_to=sinks) == cut
        assert value(terminal_set_flow, {n}, sinks, apex_to=sources) == cut
        delta = rng.randint(0, 2 * cut + 1)
        assert value(terminal_set_flow, sources, sinks, delta) == min(delta, cut)


def _assert_pseudoflow_of_value(store, keyed, before, sources, sinks, value):
    """The store's flow changed from the flows before: every arc's flow
    stays in [0, cap] with a whole residual pair, and the changes
    conserve flow off the terminals and carry value from the sources
    into the sinks."""
    ends = {key: (t, h) for (t, h, _, key) in keyed}
    deltas = flow_deltas(before, store)
    vals, res = store.vals, store.res
    assert all(0 <= vals[key] <= c and res[2 * key] == c - vals[key]
               for (_, _, c, key) in keyed)
    excess = {}
    for key, d in deltas:
        t, h = ends[key]
        excess[t] = excess.get(t, 0) - d
        excess[h] = excess.get(h, 0) + d
    assert all(not x for v, x in excess.items() if v not in sources and v not in sinks)
    assert -sum(excess.get(s, 0) for s in sources) == value
    assert sum(excess.get(t, 0) for t in sinks) == value


def _check_against_edmonds_karp(rng, n, arcs, flows, sources, sinks):
    """terminal_set_flow in the shapes of the engine's four call sites on
    the residual net of arcs under flows (the source and sink pushes with
    one terminal and with whole sets, and limits that stop a run part
    way), and the oracle on the raw arcs, against edmonds_karp."""
    residual = [arc for (t, h, c), f in zip(arcs, flows)
                for arc in ((t, h, c - f), (h, t, f))]
    want = edmonds_karp(n, residual, sources, sinks)
    runs = [
        (terminal_set_flow, (sources, sinks), sources, sinks, want),
        (terminal_set_flow, (sources, sinks[:1]), sources, sinks[:1],
         edmonds_karp(n, residual, sources, sinks[:1])),
        (terminal_set_flow, (sources[:1], sinks), sources[:1], sinks,
         edmonds_karp(n, residual, sources[:1], sinks)),
        (terminal_set_flow, (sources, sinks), sources, sinks, want),
        (terminal_set_flow, (sources, sinks), sources, sinks, want),
    ]
    for delta in sorted({0, want // 2, max(want - 1, 0), want, want + 1,
                         rng.randint(0, 2 * want + 1)}):
        runs.append((terminal_set_flow, (sources, sinks, delta), sources,
                     sinks, min(delta, want)))
    for solver, terminals, srcs, snks, expect in runs:
        store = FlowStore()
        keyed = [(t, h, c, store.new_key(c)) for (t, h, c) in arcs]
        store.apply([(key, f) for (_, _, _, key), f in zip(keyed, flows) if f])
        net = residual_net(n, keyed, store)
        before = store.vals
        value, _ = solver(store, net, *terminals)
        assert value == expect, solver.__name__
        _assert_pseudoflow_of_value(store, keyed, before, srcs, snks, value)

    oracle = oracle_max_flow(n, arcs, sources, sinks)
    assert oracle.value == oracle.cut_capacity == edmonds_karp(n, arcs, sources, sinks)
    store = FlowStore()
    keyed = [(t, h, c, store.new_key(c)) for (t, h, c) in arcs]
    store.apply(sorted(oracle.flows.items()))
    _assert_pseudoflow_of_value(store, keyed, [0] * len(arcs), sources, sinks,
                                oracle.value)


# (n, arcs, sources, sinks), each built so the oracle's blocking-flow
# core, which _check_against_edmonds_karp runs too, meets one situation
_EDMONDS_KARP_CASES = {
    # source 0 is one dart from the sink, source 1 four darts: the first
    # phase's BFS pops 0 and stops with 1 unlabelled
    "unequal-distances-one-unlabelled": (
        6, [(0, 5, 2), (1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3)], [0, 1], [5]),
    # source 1 lies on source 0's shortest path 0-1-2-4; the path
    # saturates 1's only dart, so 0's DFS prunes 1 before 1's turn
    "source-on-a-path-pruned-by-an-earlier-dfs": (
        5, [(2, 4, 1), (3, 2, 1), (1, 2, 1), (0, 1, 5), (0, 3, 1)], [0, 1], [4]),
    # three paths of one phase; the limited flow's limits 1 and 2 stop
    # its run part way
    "limit-inside-a-phase": (
        5, [(0, 1, 1), (1, 4, 1), (0, 2, 1), (2, 4, 1), (0, 3, 1), (3, 4, 1)],
        [0], [4]),
    # two sources and two sinks: sink 5 hangs off source 1, and source 4
    # reaches the sinks only through node 0, one dart further out
    "sink-behind-a-source": (
        6, [(0, 1, 4), (1, 2, 2), (2, 3, 3), (1, 5, 1), (4, 0, 2), (0, 3, 1)],
        [1, 4], [3, 5]),
}


@pytest.mark.parametrize("case", sorted(_EDMONDS_KARP_CASES))
def test_solvers_match_edmonds_karp_on_hand_built_phases(case):
    n, arcs, sources, sinks = _EDMONDS_KARP_CASES[case]
    _check_against_edmonds_karp(random.Random(case), n, arcs, [0] * len(arcs),
                                sources, sinks)


def test_solvers_match_edmonds_karp_on_random_digraphs():
    """n = 10-40, 1-4 sources and 1-4 sinks, sparse enough for sources to
    sit at unequal distances from the sinks; half the trials start from a
    random pseudoflow, so the residual net has reverse darts."""
    rng = random.Random(2024)
    for _ in range(120):
        n = rng.randint(10, 40)
        arcs = random_digraph(rng, n, density=rng.uniform(1.5, 4.0) / n)
        flows = [0] * len(arcs)
        if rng.random() < 0.5:
            flows = [rng.randint(0, c) for (_, _, c) in arcs]
        nodes = list(range(n))
        rng.shuffle(nodes)
        k, l = rng.randint(1, 4), rng.randint(1, 4)
        _check_against_edmonds_karp(rng, n, arcs, flows, sorted(nodes[:k]),
                                    sorted(nodes[k:k + l]))


# (n, arcs, sources, sinks), each built so the search trees of the
# subroutines' core meet one situation that a wrong rule turns into a
# wrong value
_SEARCH_TREE_CASES = {
    # 0 takes 1 and 2, the sink 6 takes 5 and the dead ends 7 and 8, and
    # 1 takes 3 and 4; 4 meets 5, and the path 0-1-4-5-6 saturates 0-1.
    # The orphan 1's first neighbour with residual toward it, 3, is its
    # own child, so its chain reaches no root; 1 takes 2 instead (taking
    # 3 would close a parent cycle), and the next path runs 0-2-1-4-5-6
    "orphan-re-adopted-through-another-parent": (
        9, [(0, 1, 1), (0, 2, 5), (1, 3, 5), (3, 1, 5), (2, 1, 5), (1, 4, 4),
            (4, 5, 4), (5, 6, 4), (7, 6, 1), (8, 6, 1)], [0], [6]),
    # 3 takes 2 and 0, and the sink 1 meets 2; the path 3-2-1 saturates
    # 3-2, and the orphan 2 takes 0, whose chain 0-3 is marked good.  The
    # next path 3-0-2-1 saturates 3-0: the orphan 0's neighbour 2 now hangs
    # below 0, so 0 is freed and 2 with it.  A mark kept from the first
    # augmentation would vouch for 0's own old chain and close the parent
    # cycle 0-2-0
    "chain-marks-last-one-augmentation": (
        4, [(3, 2, 1), (0, 2, 2), (3, 0, 1), (2, 1, 3)], [3], [1]),
    # the source tree is 3-1-0 when 0 meets the sink 2, and the path
    # 3-1-0-2 saturates 3-1.  The orphan 1's only neighbour with residual
    # toward it is its own child 0, whose chain runs through 1, so 1 is
    # freed and 0 with it: a child left in the tree would carry a second
    # unit out of the freed 1
    "orphan-freed-with-its-child": (
        4, [(3, 1, 1), (1, 0, 2), (0, 2, 2)], [3], [2]),
    # the source queue holds 3 and the isolated 4, so the sink tree grows
    # first: 6 takes 2 and 1.  The popped 3 meets 2, and the path 3-2-6
    # saturates 2-6; 2's other way on leads to the free 0, so the orphan
    # 2 is freed while 3 still has residual toward it.  3 must go back
    # into the source queue to take 2 and find 3-2-0-1-6, or the source
    # queue runs dry at 1 of 2 units
    "freed-sink-tree-node-requeues-its-source-neighbour": (
        7, [(3, 2, 2), (0, 1, 1), (2, 6, 1), (2, 0, 1), (1, 6, 1)], [3, 4], [6]),
    # 1 takes 0 and 2 into the source tree; 5 meets 2, and the path 1-2-5
    # saturates 1-2.  The orphan 2 is freed while it still sits in the
    # source queue, and 5, back in its own queue, takes 2 into the sink
    # tree.  2 must enter the sink queue too: its scan there takes 3,
    # which meets 0 for the second unit, or the sink queue runs dry
    "node-queued-for-one-tree-taken-by-the-other": (
        6, [(2, 5, 2), (1, 0, 1), (3, 2, 1), (1, 2, 1), (0, 3, 1)], [1], [5]),
}


@pytest.mark.parametrize("case", sorted(_SEARCH_TREE_CASES))
def test_search_trees_match_edmonds_karp_on_hand_built_nets(case):
    n, arcs, sources, sinks = _SEARCH_TREE_CASES[case]
    _check_against_edmonds_karp(random.Random(case), n, arcs, [0] * len(arcs),
                                sources, sinks)


class _CountedHeads(list):
    """A dart-head list that counts its reads and fails past a budget,
    so that a parent cycle, which walks a chain forever, fails a test
    instead of hanging it."""

    def __init__(self, heads, budget):
        super().__init__(heads)
        self.reads, self.budget = 0, budget

    def __getitem__(self, i):
        self.reads += 1
        assert self.reads <= self.budget, f"more than {self.budget} head reads"
        return super().__getitem__(i)


def _core_on_counted_heads(n, arcs, sources, sinks, budget):
    """_search_trees on the raw arcs with counted heads: (value, reads)."""
    adj = [[] for _ in range(n)]
    head, res = [], []
    for (t, h, c) in arcs:
        adj[t].append(len(head))
        adj[h].append(len(head) + 1)
        head += (h, t)
        res += (c, 0)
    counted = _CountedHeads(head, budget)
    value, _ = _search_trees(adj, counted, res, sources, sinks)
    return value, counted.reads


# (n, arcs, sources, sinks), each built so that a stamp which vouches for
# a chain it should not lets an orphan take its own descendant as parent:
# the parent cycle then makes a chain walk run forever
_STAMP_CASES = {
    # the isolated sink 5 keeps the sink queue long.  2 takes 4 and 1, and
    # 4 takes 0; 1 meets the sink 3, and the path 2-1-3 saturates 2-1.
    # The orphan 1 takes 0, stamping 0 and 4.  The next path 2-4-0-1-3
    # saturates 2-4, and the orphan 4's only neighbour with residual toward
    # it is its own child 0: 0's stamp is from the last augmentation, so
    # the check must walk on to the orphan 4 and free 4 (and 0 and 1)
    "stamp-lasts-one-augmentation": (
        6, [(2, 4, 1), (2, 1, 1), (0, 1, 2), (1, 3, 3), (4, 0, 3)], [2], [3, 5]),
    # the source tree is the chain 2-3-0-1 when 1 meets the sink 4, and
    # the path saturates 2-3.  The orphan 3 first tries its child 0, whose
    # chain reaches the orphan 3, and then 1 below it: 0 must not have
    # been stamped by the failed check, or 3 takes 1 and closes 3-1-0-3
    "failed-chain-left-unstamped": (
        5, [(3, 0, 2), (1, 4, 2), (0, 1, 2), (2, 3, 1), (1, 3, 3)], [2], [4]),
}


@pytest.mark.parametrize("case", sorted(_STAMP_CASES))
def test_search_tree_stamps_vouch_only_for_rooted_chains(case):
    n, arcs, sources, sinks = _STAMP_CASES[case]
    value, _ = _core_on_counted_heads(n, arcs, sources, sinks, budget=1000)
    assert value == edmonds_karp(n, arcs, sources, sinks)


def test_orphans_sharing_one_chain_walk_it_once():
    """k orphans of one augmentation each take the end of one L-node
    chain: the first check stamps the chain, and the others stop at its
    stamped end, so the run reads fewer heads than k walks of it alone.

    Source 0 takes the hub 2 (over an arc of capacity 1) and the chain
    3..L+2; the hub takes the orphans-to-be, and the first of them leads
    to the sink 1 down a path longer than the chain.  Isolated sinks keep
    the sink queue longer than the source queue, so the source tree
    holds the whole chain before it meets the sink.  The first path
    saturates 0-2, the hub is freed, and every node it held is orphaned.
    """
    L = k = 40
    chain = list(range(3, 3 + L))
    held = list(range(3 + L, 3 + L + k))
    path = [held[0], *range(3 + L + k, 5 + 2 * L + k), 1]
    n = 5 + 2 * L + k + (k + 4)
    arcs = [(0, 2, 1), (0, chain[0], 10)]
    arcs += [(a, b, 10) for a, b in zip(chain, chain[1:])]
    arcs += [(2, x, 10) for x in held] + [(chain[-1], x, 10) for x in held]
    arcs += [(a, b, 10) for a, b in zip(path, path[1:])]
    sinks = [1, *range(5 + 2 * L + k, n)]
    value, reads = _core_on_counted_heads(n, arcs, [0], sinks, budget=L * k)
    assert value == edmonds_karp(n, arcs, [0], sinks) == 10
    assert reads < L * k


@pytest.mark.parametrize("kind", ["grid", "tri"])
@pytest.mark.parametrize("n", [30, 400])
def test_input_net_is_graph_arcs_in_rotation_order(kind, n):
    """The input's own net writes graph_arcs's heads and has its keys,
    and the same darts at every node, under a fresh store and under a
    random flow with a detach key beyond the input's arcs; its adjacency
    is the input's rotation itself."""
    g, _ = generate(kind, n, 7).build()
    store = FlowStore.for_graph(g)
    rng = random.Random(n)
    for _ in range(2):
        store.head[:] = [-1] * len(store.head)
        net = input_net(g, store)
        head = list(store.head)
        ref = graph_arcs(g, store)
        assert (head, net.keys) == (store.head, ref.keys)
        assert net_heads(net, store) == head[:2 * g.m]
        assert [sorted(darts) for darts in net.adj] == [sorted(darts) for darts in ref.adj]
        assert net.adj is g.rot and len(net) == len(ref) == g.m
        store.apply([(a, rng.randint(0, c) - store.vals[a]) for a, c in enumerate(g.caps)])
        store.new_key(5)


@pytest.mark.parametrize("kind", ["grid", "tri"])
def test_direct_solve_leaves_the_input_rotation_as_it_was(kind, monkeypatch):
    """A direct solve runs on the input's own rotation, not on a net from
    graph_arcs, and leaves that rotation as it found it."""
    g, ts = generate(kind, 400, 3).build()
    before = copy.deepcopy(g.rot)

    def no_copy(*args):
        raise AssertionError("the input's direct solve built a net by graph_arcs")

    monkeypatch.setattr("planarflow.engine.graph_arcs", no_copy)
    res = msms_max_flow(g, ts.sources, ts.sinks,
                        EngineConfig(audit="full", base_case=10 ** 9))
    assert g.rot == before
    arcs = list(zip(g.tails, g.heads, g.caps))
    assert res.value == oracle_max_flow(g.n, arcs, ts.sources, ts.sinks).value > 0


def test_limited_flow_meets_every_limit_on_random_digraphs():
    """terminal_set_flow at every limit from 0 to the max flow + 1, on a
    fresh net each time: the value is min(limit, max flow), the flow's
    change is a pseudoflow of that value, and a run short of its limit leaves no
    residual path from the sources to the sinks.  Half the trials start
    from a random pseudoflow."""
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(4, 24)
        arcs = random_digraph(rng, n, density=rng.uniform(1.5, 4.0) / n)
        flows = [0] * len(arcs)
        if rng.random() < 0.5:
            flows = [rng.randint(0, c) for (_, _, c) in arcs]
        nodes = list(range(n))
        rng.shuffle(nodes)
        k, l = rng.randint(1, 4), rng.randint(1, 3)
        sources, sinks = sorted(nodes[:k]), sorted(nodes[k:k + l])
        residual = [arc for (t, h, c), f in zip(arcs, flows)
                    for arc in ((t, h, c - f), (h, t, f))]
        want = edmonds_karp(n, residual, sources, sinks)
        for limit in range(want + 2):
            store = FlowStore()
            keyed = [(t, h, c, store.new_key(c)) for (t, h, c) in arcs]
            store.apply([(key, f) for (_, _, _, key), f in zip(keyed, flows) if f])
            before = store.vals
            value, _ = terminal_set_flow(store, residual_net(n, keyed, store),
                                        sources, sinks, limit)
            assert value == min(limit, want)
            _assert_pseudoflow_of_value(store, keyed, before, sources, sinks, value)
            if value < limit:
                assert not (_reach(n, keyed, store, sources) & set(sinks))


def test_solver_runs_are_deterministic():
    """Two runs of each subroutine on fresh stores and nets, the second
    given its terminal sets in reverse order, return equal values and
    darts and leave equal flows; two oracle runs return equal values and
    flows."""
    rng = random.Random(5)
    n = 12
    arcs = random_digraph(rng, n)
    boundary = [2, 5, 9]
    calls = [
        (terminal_set_flow, ([0, 1], [6])),
        (terminal_set_flow, ([0], [6, 7])),
        (terminal_set_flow, ([0, 1], [6, 7], 5)),
        (terminal_set_flow, ([0, 1], [6, 7])),
        (terminal_set_flow, ([0, 1], boundary)),
        (terminal_set_flow, (boundary, [6, 7])),
    ]

    def run(solver, terminals):
        store = FlowStore()
        keyed = [(t, h, c, store.new_key(c)) for (t, h, c) in arcs]
        return solver(store, residual_net(n, keyed, store), *terminals), store.vals

    for solver, terminals in calls:
        first = run(solver, terminals)
        flipped = [x[::-1] if isinstance(x, list) else x for x in terminals]
        assert first[0][0] > 0 and first[0][1] and any(first[1])
        assert run(solver, flipped) == first
    one = oracle_max_flow(n, arcs, [0, 1], [6, 7])
    two = oracle_max_flow(n, arcs, [1, 0], [7, 6])
    assert one.value > 0 and (one.value, one.flows) == (two.value, two.flows)


def _random_call(rng, store, net, n):
    """One terminal_set_flow call on net in the shape of a source push,
    a sink push, a walk step or a leaf solve, with random terminals;
    the pushes take one terminal or a whole set on their set side."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    cut = rng.randint(1, n - 1)
    srcs, snks = nodes[:cut], nodes[cut:]
    choice = rng.randrange(4)
    if choice == 0:
        return terminal_set_flow(store, net, srcs, snks if rng.random() < 0.5 else snks[:1])
    if choice == 1:
        return terminal_set_flow(store, net, srcs if rng.random() < 0.5 else srcs[:1], snks)
    if choice == 2:
        return terminal_set_flow(store, net, srcs, snks, rng.randint(0, 12))
    return terminal_set_flow(store, net, srcs, snks)


def test_one_net_stays_current_across_calls():
    """Solver calls on one net, each writing the store in place, leave
    the net and its heads equal to a net freshly built on the store and
    every key's residual pair whole; a call that pushes nothing returns
    no darts and leaves the residuals as they were."""
    rng = random.Random(37)
    for _ in range(80):
        n = rng.randint(2, 9)
        arcs = random_digraph(rng, n)
        store = FlowStore()
        keyed = [(t, h, c, store.new_key(c)) for (t, h, c) in arcs]
        net = residual_net(n, keyed, store)
        for _ in range(rng.randint(1, 8)):
            before = list(store.res)
            value, darts = _random_call(rng, store, net, n)
            res = store.res
            assert all(res[2 * k] >= 0 and res[2 * k] + res[2 * k + 1] == c
                       for (_, _, c, k) in keyed)
            head = list(store.head)
            fresh = residual_net(n, keyed, store)
            assert (net.adj, net.keys, head) == (fresh.adj, fresh.keys, store.head)
            if value == 0:
                assert darts == [] and store.res == before


def test_apex_pushes_on_one_net_match_two_fresh_nets():
    """The source push into the boundary set and the sink push out of it
    give the same values and darts, and leave the same flow, on one
    shared net as on a fresh net each."""
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(3, 9)
        arcs = random_digraph(rng, n)
        nodes = list(range(n))
        rng.shuffle(nodes)
        a = rng.randint(1, n - 2)
        b = rng.randint(1, n - 1 - a)
        sources, sinks, boundary = nodes[:a], nodes[a:a + b], nodes[a + b:]
        shared, fresh = FlowStore(), FlowStore()
        keyed = [(t, h, c, shared.new_key(c)) for (t, h, c) in arcs]
        for (_, _, c) in arcs:
            fresh.new_key(c)

        def apex_pushes(store, net_for):
            into = terminal_set_flow(store, net_for(store), sources, boundary)
            out = terminal_set_flow(store, net_for(store), boundary, sinks)
            return into, out

        net = residual_net(n, keyed, shared)
        one = apex_pushes(shared, lambda store: net)
        two = apex_pushes(fresh, lambda store: residual_net(n, keyed, store))
        assert one == two
        assert shared.vals == fresh.vals


def test_boundary_set_pushes_match_the_apex_on_random_digraphs():
    """Through the oracle's core, the source push into a boundary set
    takes the paths of the source push into the paper's apex joined to
    that set; the engine's pushes into and out of the set have the apex
    pushes' values, change the flow feasibly and block every residual
    path from the sources to the set and from the set to the sinks (see
    check_pushes_against_apex).  Half the trials start from a random
    pseudoflow."""
    rng = random.Random(43)
    for _ in range(150):
        n = rng.randint(7, 24)
        arcs = random_digraph(rng, n, density=rng.uniform(1.5, 5.0) / n)
        flows = [0] * len(arcs)
        if rng.random() < 0.5:
            flows = [rng.randint(0, c) for (_, _, c) in arcs]
        nodes = list(range(n))
        rng.shuffle(nodes)
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        k = rng.randint(1, n - a - b)
        check_pushes_against_apex(n, arcs, flows, nodes[:a], nodes[a:a + b],
                                  nodes[a + b:a + b + k])
