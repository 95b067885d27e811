"""Max-flow subroutines of the recursion plus the generic oracle.

Every subroutine obeys the global-flow discipline: it reads the residual
capacities c_f implied by a FlowStore, computes a flow of its own, and
returns it as (value, deltas) where deltas is a list of (key, delta)
pairs ready for FlowStore.apply.  Subroutines never mutate capacities or
the store.

All of them are built on one deterministic blocking-flow core (shortest
augmenting paths, lowest-index admissible dart first), so repeated runs
produce identical flows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import NO_KEY, PlanarGraph


class _DartNet:
    """Scratch residual network over explicit darts for one solver call."""

    __slots__ = ("num_nodes", "tail", "head", "res", "adj", "arc_keys", "init")

    def __init__(self, num_nodes):
        self.num_nodes = num_nodes
        self.tail = []
        self.head = []
        self.res = []
        self.arc_keys = []   # per dart pair: flow key or NO_KEY
        self.init = []       # initial residual of the even dart, for extraction

    def add_pair(self, u, v, res_fwd, res_rev, key):
        self.tail.append(u)
        self.head.append(v)
        self.res.append(res_fwd)
        self.tail.append(v)
        self.head.append(u)
        self.res.append(res_rev)
        self.arc_keys.append(key)
        self.init.append(res_fwd)

    def build_adj(self):
        adj = [[] for _ in range(self.num_nodes)]
        for d in range(len(self.tail)):
            adj[self.tail[d]].append(d)
        self.adj = adj

    def extract_deltas(self):
        """Net change per keyed arc: f(arc) grew by init_res - final_res."""
        out = []
        for a, key in enumerate(self.arc_keys):
            if key == NO_KEY:
                continue
            pushed = self.init[a] - self.res[2 * a]
            if pushed:
                out.append((key, pushed))
        return out


def _net_from_arcs(num_nodes, arcs, store, extra=()):
    """Residual net for (tail, head, cap, key) arcs under the store's flow."""
    net = _DartNet(num_nodes)
    for (t, h, c, key) in arcs:
        if key == NO_KEY:
            continue      # zero both ways; invisible to any flow
        f = store.vals[key]
        net.add_pair(t, h, store.caps[key] - f, f, key)
    for (t, h, res_fwd, res_rev) in extra:
        net.add_pair(t, h, res_fwd, res_rev, NO_KEY)
    return net


def graph_arcs(g: PlanarGraph):
    return [(g.tails[a], g.heads[a], g.caps[a], g.keys[a]) for a in range(g.m)]


def _dinic(net: _DartNet, source: int, sink: int, limit=None) -> int:
    """Blocking-flow max flow on the scratch net; returns the value pushed.

    Deterministic: BFS and DFS both scan darts in index order, so the
    lowest-index admissible dart is always used first.
    """
    net.build_adj()
    tail, head, res, adj = net.tail, net.head, net.res, net.adj
    n = net.num_nodes
    total = 0
    INFLEVEL = n + 1
    while limit is None or total < limit:
        level = [INFLEVEL] * n
        level[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            if v == sink:
                break
            lv = level[v] + 1
            for d in adj[v]:
                if res[d] > 0:
                    w = head[d]
                    if level[w] == INFLEVEL:
                        level[w] = lv
                        queue.append(w)
        if level[sink] == INFLEVEL:
            break
        ptr = [0] * n
        # depth-first blocking flow with an explicit dart stack
        while limit is None or total < limit:
            path = []
            v = source
            while v != sink:
                advanced = False
                while ptr[v] < len(adj[v]):
                    d = adj[v][ptr[v]]
                    if res[d] > 0 and level[head[d]] == level[v] + 1:
                        path.append(d)
                        v = head[d]
                        advanced = True
                        break
                    ptr[v] += 1
                if not advanced:
                    if not path:
                        v = None
                        break
                    level[v] = INFLEVEL   # dead end; prune
                    d = path.pop()
                    v = tail[d]
                    ptr[v] += 1
            if v is None:
                break
            bottleneck = min(res[d] for d in path)
            if limit is not None:
                bottleneck = min(bottleneck, limit - total)
            for d in path:
                res[d] -= bottleneck
                res[d ^ 1] += bottleneck
            total += bottleneck
    return total


def _solve_terminal_sets(num_nodes, arcs, store, sources, sinks,
                         limit=None, scratch=()):
    """Supersource/supersink reduction over the residual net.

    scratch holds unkeyed (tail, head, res_fwd, res_rev) arcs placed after
    the keyed arcs; their flow is not returned.
    """
    sources = sorted(sources)
    sinks = sorted(sinks)
    if not sources or not sinks:
        return 0, []
    bound = 1 + sum(store.caps[key] for (_, _, _, key) in arcs if key != NO_KEY)
    bound += sum(fwd + rev for (_, _, fwd, rev) in scratch)
    extra = list(scratch)
    sigma = num_nodes
    tau = num_nodes + 1
    for s in sources:
        extra.append((sigma, s, bound, 0))
    for t in sinks:
        extra.append((t, tau, bound, 0))
    net = _net_from_arcs(num_nodes + 2, arcs, store, extra=extra)
    value = _dinic(net, sigma, tau, limit=limit)
    return value, net.extract_deltas()


# -- the three subroutine contracts -----------------------------------------


def msss_max_flow(num_nodes, arcs, store, sources, sink, scratch=()):
    """Maximum flow from a source set to one sink in the residual graph.

    Returns (value, deltas).  After the deltas are accumulated, no
    residual path from the sources to the sink remains.  scratch: extra
    (tail, head, res_fwd, res_rev) arcs with no flow key; they may carry
    flow, but it is not part of the returned deltas.
    """
    if sink in set(sources):
        raise ValueError("sink may not be a source")
    return _solve_terminal_sets(num_nodes, arcs, store, sources, [sink], scratch=scratch)


def ssms_max_flow(num_nodes, arcs, store, source, sinks, scratch=()):
    """Maximum flow from one source to a sink set; scratch as for
    msss_max_flow."""
    if source in set(sinks):
        raise ValueError("source may not be a sink")
    return _solve_terminal_sets(num_nodes, arcs, store, [source], sinks,
                                scratch=scratch)


def limited_max_flow(num_nodes, arcs, store, sources, sinks, delta):
    """Flow of value min(delta, maxflow) from a source set to a sink set.

    When the value falls short of delta, no residual path from the
    sources to the sinks remains.
    """
    if delta < 0:
        raise ValueError("flow limit must be non-negative")
    if set(sources) & set(sinks):
        raise ValueError("sources and sinks overlap")
    if delta == 0:
        return 0, []
    return _solve_terminal_sets(num_nodes, arcs, store, sources, sinks,
                                limit=delta)


def solve_msms_residual(num_nodes, arcs, store, sources, sinks):
    """Direct multi-source multi-sink max flow on the residual graph.

    Used for recursion base cases; same reduction as the oracle but
    against live residual capacities.
    """
    return _solve_terminal_sets(num_nodes, arcs, store, sources, sinks)


# -- acceptance oracle -------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    value: int
    flows: dict            # arc index -> flow on the forward dart
    cut_nodes: frozenset   # source side of a minimum cut
    cut_capacity: int


def oracle_max_flow(num_nodes, arcs, sources, sinks) -> OracleResult:
    """Exact max-flow value for any directed integer-capacity graph.

    Supersource/supersink reduction over the raw capacities, plus a
    witness flow and a witness minimum cut; the cut capacity always
    equals the flow value and is returned so callers can certify runs.
    """
    sources = set(sources)
    sinks = set(sinks)
    if sources & sinks:
        raise ValueError("sources and sinks overlap")
    if not sources or not sinks:
        return OracleResult(0, {}, frozenset(sources), 0)
    bound = 1 + sum(c for (_, _, c) in arcs)
    net = _DartNet(num_nodes + 2)
    for (t, h, c) in arcs:
        net.add_pair(t, h, c, 0, NO_KEY)
    sigma, tau = num_nodes, num_nodes + 1
    for s in sorted(sources):
        net.add_pair(sigma, s, bound, 0, NO_KEY)
    for t in sorted(sinks):
        net.add_pair(t, tau, bound, 0, NO_KEY)
    value = _dinic(net, sigma, tau)

    flows = {}
    for a in range(len(arcs)):
        pushed = net.init[a] - net.res[2 * a]
        if pushed:
            flows[a] = pushed

    # residual reachability from the supersource gives the cut
    seen = bytearray(num_nodes + 2)
    seen[sigma] = 1
    queue = deque([sigma])
    while queue:
        v = queue.popleft()
        for d in net.adj[v]:
            if net.res[d] > 0 and not seen[net.head[d]]:
                seen[net.head[d]] = 1
                queue.append(net.head[d])
    cut_nodes = frozenset(v for v in range(num_nodes) if seen[v])
    cut_capacity = sum(c for (t, h, c) in arcs if t in cut_nodes and h not in cut_nodes)
    return OracleResult(value, flows, cut_nodes, cut_capacity)


def oracle_value_for_graph(g: PlanarGraph, sources, sinks) -> int:
    arcs = [(g.tails[a], g.heads[a], g.caps[a]) for a in range(g.m)]
    return oracle_max_flow(g.n, arcs, sources, sinks).value
