"""The acceptance oracle: an exact max flow for any directed graph.

oracle_max_flow runs a blocking-flow core, _dinic, on arrays of its own
and returns a witness flow and a witness minimum cut.  It imports no
other planarflow module, so the engine's values are checked against
code they do not share.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


def _dinic(adj, head, res, sources, sinks):
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
    while True:
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
            while dist[s] != unseen:
                if not dist[v]:           # label 0: a sink
                    push = min(res[d] for d in path)
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


@dataclass(frozen=True)
class OracleResult:
    value: int
    flows: dict            # arc index -> flow on the forward dart
    cut_nodes: frozenset   # source side of a minimum cut
    cut_capacity: int


def oracle_max_flow(num_nodes, arcs, sources, sinks) -> OracleResult:
    """Exact max-flow value for any directed integer-capacity graph.

    A blocking-flow core that terminal_set_flow does not use, run on the raw
    capacities, plus a witness flow and a witness minimum cut; the cut
    capacity always equals the flow value and is returned so callers can
    certify runs.
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
