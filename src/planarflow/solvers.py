"""Max-flow subroutines of the recursion plus the generic oracle.

Every subroutine runs on a ResidualNet: flat dart arrays holding the
residual capacities c_f that a FlowStore implies on one graph's keyed
arcs.  It computes a flow of its own, updates the net's arrays in place
and returns (value, deltas), where deltas lists (key, delta) pairs for
the keyed arcs it changed, in arc order, ready for FlowStore.apply.
Subroutines never write the store and never build a net.

The caller applies each call's deltas to the store, which puts the store
back in step with the net.  So one net serves every call of a leaf solve,
or of a split level's two boundary pushes and its whole walk, as long as
nothing else writes those arcs' flow in between, and each call costs only
what it explores.

All of them, and the oracle, run one deterministic blocking-flow core
on flat dart arrays, so repeated runs produce identical flows.  Each
phase labels nodes with their residual distance to the whole sink set
(a BFS back from the sinks that stops at the first source it pops) and
augments only along darts that lower that label by one, lowest-index
admissible dart first, so every path is a shortest path to a sink.  No
node or arc is ever added: terminal sets stand in for the paper's
supersource, supersink, per-piece apex and boundary-suffix chain, with
the same values since every finite cut keeps each such set on one side.
Values are those of any max flow; which maximum flow, hence arc_flows,
depends on this choice of paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graph import NO_KEY


class ResidualNet:
    """Residual dart arrays of keyed arcs under a store's flow.

    The net's arc a, its a-th keyed arc, owns dart 2a (tail to head,
    residual cap - flow) and dart 2a + 1 (head to tail, residual flow);
    keys[a] is its flow key.  len(net) is the number of keyed arcs.
    """

    __slots__ = ("adj", "head", "res", "keys")

    def __init__(self, num_nodes, arcs, store):
        """arcs: (tail, head, key) triples, read once; NO_KEY arcs are
        skipped."""
        vals, caps = store.vals, store.caps
        adj = [[] for _ in range(num_nodes)]
        head, res, keys = [], [], []
        for (t, h, key) in arcs:
            if key == NO_KEY:
                continue      # zero both ways; invisible to any flow
            f = vals[key]
            adj[t].append(len(head))
            adj[h].append(len(head) + 1)
            head += (h, t)
            res += (caps[key] - f, f)
            keys.append(key)
        self.adj, self.head, self.res, self.keys = adj, head, res, keys

    def __len__(self):
        return len(self.keys)


def graph_arcs(g, store) -> ResidualNet:
    """The residual net of g's keyed arcs under the store's flow.  g is
    a PlanarGraph or anything else with its n, tails, heads and keys,
    such as a separator.Piece before its graph is built."""
    return ResidualNet(g.n, zip(g.tails, g.heads, g.keys), store)


def _dinic(adj, head, res, sources, sinks, limit=None):
    """Blocking-flow max flow from a source set to a disjoint sink set;
    returns (value, darts) and leaves the final residuals in res, where
    darts lists the darts of every augmenting path (with repeats).

    Dart d runs into head[d] with residual res[d]; d ^ 1 is its reverse,
    so a dart's tail is head[d ^ 1].  Each phase labels every node with
    its residual distance to the sink set, by a BFS from all sinks over
    reversed darts (d leaves v and res[d ^ 1] > 0) that stops at the
    first source it pops.  Then a DFS from each labelled source, in the
    given order, takes only darts d with res[d] > 0 that lower the label
    by one, so every step lies on a shortest path to a sink and a dead
    end comes only from darts saturated in this phase.  Deterministic:
    BFS and DFS both scan adj[v] in order, so the first admissible dart
    is always used first.
    """
    n = len(adj)
    is_source = bytearray(n)
    for s in sources:
        is_source[s] = 1
    unseen = n + 1           # label of an unlabelled or pruned node
    total = 0
    touched = []
    while limit is None or total < limit:
        dist = [unseen] * n
        for t in sinks:
            dist[t] = 0
        queue = deque(sinks)
        while queue:
            v = queue.popleft()
            if is_source[v]:
                break
            dv = dist[v] + 1
            for d in adj[v]:
                if res[d ^ 1] > 0 and dist[head[d]] == unseen:
                    dist[head[d]] = dv
                    queue.append(head[d])
        else:
            break            # no source reaches a sink: the flow is maximum
        ptr = [0] * n
        for s in sources:
            # depth-first blocking flow from s with an explicit dart stack
            path = []
            v = s
            while dist[s] != unseen and (limit is None or total < limit):
                if not dist[v]:           # label 0: a sink
                    push = min(res[d] for d in path)
                    if limit is not None:
                        push = min(push, limit - total)
                    for d in path:
                        res[d] -= push
                        res[d ^ 1] += push
                    total += push
                    touched += path
                    path = []
                    v = s
                    continue
                darts = adj[v]
                want = dist[v] - 1
                i = ptr[v]
                while i < len(darts) and not (
                        res[darts[i]] > 0 and dist[head[darts[i]]] == want):
                    i += 1
                ptr[v] = i
                if i < len(darts):
                    path.append(darts[i])
                    v = head[darts[i]]
                else:
                    dist[v] = unseen      # dead end; prune
                    if path:
                        v = head[path.pop() ^ 1]
                        ptr[v] += 1
    return total, touched


def _solve_terminal_sets(store, net, sources, sinks, limit=None):
    """Flow from a source set to a disjoint sink set on the net, which
    must match the store's flow on its keyed arcs.

    An arc's delta is its final reverse residual minus its stored flow,
    read only for the keyed arcs an augmenting path used.  The net keeps
    its final residuals.
    """
    if set(sources) & set(sinks):
        raise ValueError("sources and sinks overlap")
    if not sources or not sinks or limit == 0:
        return 0, []
    res, keys, vals = net.res, net.keys, store.vals
    value, darts = _dinic(net.adj, net.head, res, sorted(sources),
                          sorted(sinks), limit)
    deltas = []
    for a in sorted({d >> 1 for d in darts}):
        delta = res[2 * a + 1] - vals[keys[a]]
        if delta:
            deltas.append((keys[a], delta))
    return value, deltas


# -- the four subroutine contracts ------------------------------------------
#
# Each takes the store and a ResidualNet that matches it, raises
# ValueError when its source and sink sets overlap, and returns
# (value, deltas); the caller applies the deltas to keep the two in step.


def msss_max_flow(store, net, sources, sinks):
    """The source push of one split level: maximum flow from its sources
    into its boundary node set, the apex's stand-in (see
    surgery.attach_apex).  Afterwards no residual path from the sources to
    the sinks remains."""
    return _solve_terminal_sets(store, net, sources, sinks)


def ssms_max_flow(store, net, sources, sinks):
    """The sink push of one split level: maximum flow from its boundary
    node set into its sinks.  Afterwards no residual path between them
    remains."""
    return _solve_terminal_sets(store, net, sources, sinks)


def limited_max_flow(store, net, sources, sinks, delta):
    """Flow of value min(delta, maxflow) from a source set to a sink set.

    When the value falls short of delta, no residual path from the
    sources to the sinks remains.
    """
    if delta < 0:
        raise ValueError("flow limit must be non-negative")
    return _solve_terminal_sets(store, net, sources, sinks, limit=delta)


def solve_msms_residual(store, net, sources, sinks):
    """Direct multi-source multi-sink max flow on the residual graph.

    Used for recursion base cases; the oracle's flow, but against live
    residual capacities.
    """
    return _solve_terminal_sets(store, net, sources, sinks)


# -- acceptance oracle -------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    value: int
    flows: dict            # arc index -> flow on the forward dart
    cut_nodes: frozenset   # source side of a minimum cut
    cut_capacity: int


def oracle_max_flow(num_nodes, arcs, sources, sinks) -> OracleResult:
    """Exact max-flow value for any directed integer-capacity graph.

    The same blocking-flow core over the raw capacities, plus a witness
    flow and a witness minimum cut; the cut capacity always equals the
    flow value and is returned so callers can certify runs.
    """
    sources = set(sources)
    sinks = set(sinks)
    if sources & sinks:
        raise ValueError("sources and sinks overlap")
    if not sources or not sinks:
        return OracleResult(0, {}, frozenset(sources), 0)
    adj = [[] for _ in range(num_nodes)]
    head, res = [], []
    for (t, h, c) in arcs:
        adj[t].append(len(head))
        adj[h].append(len(head) + 1)
        head += (h, t)
        res += (c, 0)
    value, _ = _dinic(adj, head, res, sorted(sources), sorted(sinks))
    flows = {a: res[2 * a + 1] for a in range(len(arcs)) if res[2 * a + 1]}

    # residual reachability from the sources gives the cut
    seen = bytearray(num_nodes)
    for s in sources:
        seen[s] = 1
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        for d in adj[v]:
            if res[d] > 0 and not seen[head[d]]:
                seen[head[d]] = 1
                queue.append(head[d])
    cut_nodes = frozenset(v for v in range(num_nodes) if seen[v])
    cut_capacity = sum(c for (t, h, c) in arcs if t in cut_nodes and h not in cut_nodes)
    return OracleResult(value, flows, cut_nodes, cut_capacity)
