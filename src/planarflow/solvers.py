"""The recursion's one max-flow subroutine plus the generic oracle.

terminal_set_flow is a flow from a source set to a disjoint sink set,
optionally under a limit.  The engine calls it under four names, one per
call site: msss_max_flow, ssms_max_flow, limited_max_flow and
solve_msms_residual are bindings of the same function.

It runs on a ResidualNet, one graph's adjacency over the store darts of
its keyed arcs, and augments the store's residuals in place.  graph_arcs
builds the net of a split level or a leaf; the input's direct solve runs
on the input's own rotation (input_net).  One net serves every call of a
leaf solve, or of a split level's two pushes and its whole walk, and each
call costs only what it explores.

It runs one deterministic search-tree core (Boykov and
Kolmogorov, IEEE TPAMI 26(9), 2004) on flat dart arrays, so repeated
runs produce identical flows.  The source set roots one tree and the
sink set another; they grow until they meet, each meeting is augmented,
and the trees survive the augmentation: only the branches it cut are
mended.  An orphan takes the first same-tree neighbour, in dart order,
whose parent chain reaches a root; a per-node stamp of the augmentation
that last found a node rooted ends each chain walk early, with the same
choices as a walk to the root.  No node or arc is ever added: terminal
sets stand in for the paper's supersource, supersink, per-piece apex
and boundary-suffix chain, with the same values since every finite cut
keeps each such set on one side, and since every terminal stays a root,
a path holds exactly one source and one sink.  Values are those of any
max flow; which maximum flow, hence arc_flows, depends on the paths
taken, and so on the order of each node's darts.

The oracle keeps a blocking-flow core and arrays of its own, so that the
engine's values are checked against code they do not share.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import CapacityViolation
from .graph import NO_KEY


class ResidualNet:
    """One graph's adjacency over the store darts of its keyed arcs.

    adj[v] lists the store darts leaving local node v: 2k for a keyed
    out-arc with key k, 2k + 1 for a keyed in-arc, in arc order (the
    input's own net: rotation order).  keys lists the arcs' keys in arc
    order; len(net) is their number.  Building a net writes its darts'
    heads, in its graph's node ids, into store.head, so a net is valid
    until the next one is built on its store.  The engine builds a
    level's net after both recursions return and uses it through the
    settle.
    """

    __slots__ = ("adj", "keys")

    def __init__(self, num_nodes, arcs, store):
        """arcs: (tail, head, key) triples, read once; NO_KEY arcs are
        skipped."""
        head = store.head
        adj = [[] for _ in range(num_nodes)]
        keys = []
        for (t, h, key) in arcs:
            if key == NO_KEY:
                continue      # zero both ways; invisible to any flow
            d = 2 * key
            adj[t].append(d)
            adj[h].append(d + 1)
            head[d] = h
            head[d + 1] = t
            keys.append(key)
        self.adj, self.keys = adj, keys

    def __len__(self):
        return len(self.keys)


def graph_arcs(g, store) -> ResidualNet:
    """The net of g's keyed arcs over the store.  g is a PlanarGraph or
    anything else with its n, tails, heads and keys, such as a
    separator.Piece before its graph is built.  Every net but the input's
    direct solve is built here; see input_net."""
    return ResidualNet(g.n, zip(g.tails, g.heads, g.keys), store)


def input_net(g, store) -> ResidualNet:
    """The net of the input graph g, on g's own rotation.

    The store was seeded from g (FlowStore.for_graph), so arc a has key
    a, and g has no chords: store dart d is g's dart d, and g.rot, which
    lists the darts leaving each node, is already the adjacency.  The net
    shares g.rot and g.keys instead of copying them; no solver writes
    either.  Each adj[v] holds the same darts as graph_arcs(g, store)'s,
    in rotation order, so a direct solve may take other paths (and
    arc_flows may differ) but not another value.
    """
    head, m = store.head, g.m
    head[0:2 * m:2], head[1:2 * m:2] = g.heads, g.tails
    net = ResidualNet.__new__(ResidualNet)
    net.adj, net.keys = g.rot, g.keys
    return net


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


_ROOT, _ORPHAN = -1, -2     # parent marks of a terminal and of an orphan


def _search_trees(adj, head, res, sources, sinks, limit=None):
    """Boykov-Kolmogorov max flow from a source set to a disjoint sink
    set; returns (value, darts) and leaves the final residuals in res,
    where darts lists, with repeats, a dart of every arc that an
    augmenting path used.

    Dart d runs into head[d] with residual res[d]; d ^ 1 is its reverse.
    The sources root a source tree of darts with residual away from them,
    the sinks a sink tree of darts with residual toward them.  A node's
    parent dart is the tree dart that enters it, so its parent is
    head[parent ^ 1] in either tree.  Each tree keeps a FIFO queue, and
    the tree whose queue is shorter grows next (the source tree on a
    tie), so a narrow tree can close before a wide one spends its
    growth.  A growing tree pops a node and scans its darts, taking every
    free neighbour it has residual toward (in the sink tree: from), and
    augmenting when the neighbour is in the other tree.  The path is the
    source chain, that meeting dart and the sink chain; it carries its
    bottleneck, capped at what the limit leaves.  Each chain is walked
    twice, once for the bottleneck and once to push it.

    Every tree dart an augmentation saturates orphans its child.  An
    orphan takes the first same-tree neighbour, in dart order, with
    residual toward it whose parent chain reaches a root.  Augmentations
    are counted in now, and a chain found to reach a root gets stamp now
    on every node it walked, so a later check in the same augmentation
    stops at the first stamped node; a stamp from an earlier
    augmentation vouches for nothing.  An orphan that finds no parent is
    freed: its children become orphans, and every neighbour in either
    tree that could take it goes back into that tree's queue.  A popped
    node is out of its queue, and membership is kept per tree, since a
    node can sit in both queues.

    So no residual dart leaves the source tree from a node outside its
    queue, and none enters the sink tree at such a node; the run stops as
    soon as either queue is empty, since that tree is then closed under
    residual darts (in its direction).  Terminals stay roots, so a
    path holds exactly one source and one sink.  Deterministic: the
    queues start in the given order and every scan follows adj[v].
    """
    n = len(adj)
    tree = bytearray(n)          # 0 free, 1 source tree, 2 sink tree
    parent = [_ROOT] * n
    stamp = [0] * n              # the augmentation that last found v rooted
    now = 0
    q1, q2 = deque(sources), deque(sinks)
    in1, in2 = bytearray(n), bytearray(n)
    for r in q1:
        tree[r] = in1[r] = 1
    for r in q2:
        tree[r] = 2
        in2[r] = 1
    total = 0
    touched = []

    while True:
        if len(q1) <= len(q2):
            side, queue, inq = 1, q1, in1
        else:
            side, queue, inq = 2, q2, in2
        v = -1
        while queue:
            v = queue.popleft()
            inq[v] = 0
            if tree[v] == side:
                break
            v = -1
        if v < 0:
            return total, touched
        flip = side - 1          # res[e ^ flip]: along e, or against it into v
        for e in adj[v]:
            if not res[e ^ flip]:
                continue
            w = head[e]
            tw = tree[w]
            if not tw:
                tree[w] = side
                parent[w] = e
                if not inq[w]:
                    inq[w] = 1
                    queue.append(w)
                continue
            if tw == side:
                continue
            # meet runs from the source tree into the sink tree; the path
            # runs along the source chain's parent darts and against the
            # sink chain's
            meet = e ^ flip
            while True:
                push = res[meet]
                d = parent[head[meet ^ 1]]
                while d >= 0:
                    if res[d] < push:
                        push = res[d]
                    d = parent[head[d ^ 1]]
                d = parent[head[meet]]
                while d >= 0:
                    if res[d ^ 1] < push:
                        push = res[d ^ 1]
                    d = parent[head[d ^ 1]]
                if limit is not None and push > limit - total:
                    push = limit - total
                total += push
                touched.append(meet)
                res[meet] -= push
                res[meet ^ 1] += push
                # a saturated tree dart orphans its child
                orphans = []
                x = head[meet ^ 1]
                d = parent[x]
                while d >= 0:
                    touched.append(d)
                    res[d] -= push
                    res[d ^ 1] += push
                    if not res[d]:
                        parent[x] = _ORPHAN
                        orphans.append(x)
                    x = head[d ^ 1]
                    d = parent[x]
                x = head[meet]
                d = parent[x]
                while d >= 0:
                    touched.append(d)
                    res[d ^ 1] -= push
                    res[d] += push
                    if not res[d ^ 1]:
                        parent[x] = _ORPHAN
                        orphans.append(x)
                    x = head[d ^ 1]
                    d = parent[x]
                now += 1
                for x in orphans:        # grows while it is read
                    tx = tree[x]
                    for e2 in adj[x]:
                        y = head[e2]
                        if tree[y] != tx or not (res[e2 ^ 1] if tx == 1 else res[e2]):
                            continue
                        z = y            # does y's chain reach a root?
                        while stamp[z] != now:
                            d = parent[z]
                            if d < 0:
                                break
                            z = head[d ^ 1]
                        if parent[z] == _ORPHAN:
                            continue
                        while y != z:
                            stamp[y] = now
                            y = head[parent[y] ^ 1]
                        parent[x] = e2 ^ 1
                        break
                    else:
                        tree[x] = 0
                        for e2 in adj[x]:
                            y = head[e2]
                            ty = tree[y]
                            if not ty:
                                continue
                            if parent[y] == e2:          # x was y's parent
                                parent[y] = _ORPHAN
                                orphans.append(y)
                            if ty == 1:
                                if res[e2 ^ 1] and not in1[y]:
                                    in1[y] = 1
                                    q1.append(y)
                            elif res[e2] and not in2[y]:
                                in2[y] = 1
                                q2.append(y)
                if total == limit:
                    return total, touched
                if not res[meet] or tree[v] != side or tree[w] != tw:
                    break
            if tree[v] != side:
                break


def terminal_set_flow(store, net, sources, sinks, limit=None):
    """Flow from a source set to a disjoint sink set on the net, which
    must be the last one built on the store; returns (value, darts).

    The value is the max flow's, or min(limit, max flow) under a limit.
    Whenever it falls short of the limit, no residual path from the
    sources to the sinks remains.  Raises ValueError when the sets
    overlap or the limit is negative.  The flow is written to store.res
    in place; darts lists, with repeats, a dart of every arc an
    augmenting path used, and each such arc's flow must lie in [0, cap],
    else CapacityViolation.
    """
    if limit is not None and limit < 0:
        raise ValueError("flow limit must be non-negative")
    if set(sources) & set(sinks):
        raise ValueError("sources and sinks overlap")
    if not sources or not sinks or limit == 0:
        return 0, []
    res, caps = store.res, store.caps
    value, darts = _search_trees(net.adj, store.head, res, sorted(sources),
                                 sorted(sinks), limit)
    for d in darts:
        f = res[d | 1]
        if f < 0 or f > caps[d >> 1]:
            raise CapacityViolation(
                f"key {d >> 1}: flow {f} outside [0, {caps[d >> 1]}]")
    return value, darts


# The engine's four calls of it, each under its own name so that a
# profile can tell them apart: a split level's source push from its
# sources into its boundary node set (the apex's stand-in, see
# surgery.attach_apex) and its sink push from that set into its sinks,
# each boundary-walk step under its limit, and a leaf's direct solve.
msss_max_flow = ssms_max_flow = limited_max_flow = solve_msms_residual = terminal_set_flow


# -- acceptance oracle -------------------------------------------------------


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
