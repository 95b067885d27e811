"""The recursion's one max-flow subroutine.

terminal_set_flow is a flow from a source set to a disjoint sink set,
optionally under a limit.  Every flow call of the engine is a call of
it: a split level's two boundary pushes, each run of its boundary walk
and a leaf's direct solve.  A walk run gives its roots budgets, the
finite terminal links of Boykov and Kolmogorov: a root sends or takes at
most its budget, and a spent root becomes a plain node.

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
keeps each such set on one side, and since every terminal stays a root
until its budget, if it has one, is spent, a path holds exactly one
source and one sink.  Values are those of any max flow; which maximum
flow, hence arc_flows, depends on the paths taken, and so on the order
of each node's darts.  The acceptance oracle (oracle.py) shares none of
this code.
"""

from __future__ import annotations

from collections import deque

from .errors import CapacityViolation
from .graph import NO_KEY


class ResidualNet:
    """One graph's adjacency over the store darts of its keyed arcs.

    adj[v] lists the store darts leaving local node v: 2k for a keyed
    out-arc with key k, 2k + 1 for a keyed in-arc, in arc order (the
    input's own net: rotation order).  keys lists the arcs' keys in arc
    order; len(net) is their number.  Building a net (graph_arcs,
    input_net) writes its darts' heads, in its graph's node ids, into
    store.head, so a net is valid until the next one is built on its
    store.  The engine builds a level's net after both recursions return
    and uses it through the settle.
    """

    __slots__ = ("adj", "keys")

    def __init__(self, adj, keys):
        self.adj, self.keys = adj, keys

    def __len__(self):
        return len(self.keys)


def graph_arcs(g, store) -> ResidualNet:
    """The net of g's keyed arcs over the store; NO_KEY arcs, zero both
    ways, are left out.  g is a PlanarGraph or anything else with its n,
    tails, heads and keys, such as a separator.Piece before its graph is
    built.  Every net but the input's direct solve is built here; see
    input_net."""
    head = store.head
    adj = [[] for _ in range(g.n)]
    keys = []
    for (t, h, key) in zip(g.tails, g.heads, g.keys):
        if key == NO_KEY:
            continue
        d = 2 * key
        adj[t].append(d)
        adj[h].append(d + 1)
        head[d] = h
        head[d + 1] = t
        keys.append(key)
    return ResidualNet(adj, keys)


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
    return ResidualNet(g.rot, g.keys)


_ROOT, _ORPHAN = -1, -2     # parent marks of a terminal and of an orphan


def _search_trees(adj, head, res, sources, sinks, limit=None, budget=None):
    """Boykov-Kolmogorov max flow from a source set to a disjoint sink
    set; returns (value, darts) and leaves the final residuals in res,
    where darts lists, with repeats, a dart of every arc that an
    augmenting path used.  budget, when given, maps some roots to the
    most they may still send (a source) or take (a sink), each above 0,
    and is spent in place; a root not in it has no bound.

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
    bottleneck, capped at what the limit leaves and at its two roots'
    budgets.  Each chain is walked twice, once for the bottleneck and
    once to push it, and once more to find its root when budgets are
    given.  A root whose budget reaches 0 is a saturated terminal link:
    it is marked an orphan before the push and goes through the same
    adoption as the orphans the push makes, after which it is a plain
    node.  A call without budgets pays one test per augmentation for
    them.  The run returns as soon as the value reaches the limit.

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
    residual darts (in its direction).  Terminals stay roots until
    their budgets are spent, so a path holds exactly one source and one
    sink, and a run short of its limit leaves no residual path between
    two roots with budget left: max-flow/min-cut with budgeted roots,
    which a walk run's invariants rest on (engine._redistribute_boundary).
    Deterministic: the queues start in the given order and every scan
    follows adj[v].
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
                orphans = []
                if budget is not None:       # the roots' own t-links
                    roots = []
                    for x in (head[meet ^ 1], head[meet]):
                        while parent[x] >= 0:
                            x = head[parent[x] ^ 1]
                        if x in budget:
                            roots.append(x)
                            if budget[x] < push:
                                push = budget[x]
                    for x in roots:          # a spent root becomes a plain node
                        budget[x] -= push
                        if not budget[x]:
                            parent[x] = _ORPHAN
                            orphans.append(x)
                total += push
                touched.append(meet)
                res[meet] -= push
                res[meet ^ 1] += push
                # a saturated tree dart orphans its child
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
                if total == limit:
                    return total, touched
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
                if not res[meet] or tree[v] != side or tree[w] != tw:
                    break
            if tree[v] != side:
                break


def terminal_set_flow(store, net, sources, sinks, limit=None):
    """Flow from a source set to a disjoint sink set on the net, which
    must be the last one built on the store; returns (value, darts).  The
    terminals may come in any iterables; each is read once.  Either set
    may instead be a dict from node to budget, the most that root may send
    (a source) or take (a sink): the finite terminal link of Boykov and
    Kolmogorov, where a plain terminal's link is infinite.  A root with
    budget 0 is a plain node.

    The value is the max flow's, or min(limit, max flow) under a limit;
    with budgets, the max flow's with every root's flow capped at its
    budget.  Whenever it falls short of the limit, no residual path from
    a source to a sink remains whose two ends both have budget left.
    Raises ValueError when the sets overlap or the limit or a budget is
    negative.  The flow is written to store.res in place; darts lists,
    with repeats, a dart of every arc an augmenting path used, and each
    such arc's flow must lie in [0, cap], else CapacityViolation.
    """
    budget = {}
    for terminals in (sources, sinks):
        if isinstance(terminals, dict):
            budget.update(terminals)
    sources, sinks = sorted(sources), sorted(sinks)
    if limit is not None and limit < 0:
        raise ValueError("flow limit must be non-negative")
    if set(sources) & set(sinks):
        raise ValueError("sources and sinks overlap")
    if budget:
        if min(budget.values()) < 0:
            raise ValueError("root budgets must be non-negative")
        sources = [v for v in sources if budget.get(v) != 0]
        sinks = [v for v in sinks if budget.get(v) != 0]
    if not sources or not sinks or limit == 0:
        return 0, []
    res, caps = store.res, store.caps
    value, darts = _search_trees(net.adj, store.head, res, sources, sinks, limit,
                                 budget or None)
    for d in darts:
        f = res[d | 1]
        if f < 0 or f > caps[d >> 1]:
            raise CapacityViolation(
                f"key {d >> 1}: flow {f} outside [0, {caps[d >> 1]}]")
    return value, darts
