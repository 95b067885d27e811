"""Dart-level flow state: the single global flow assignment and its checks.

All flow values are exact integers.  The store keeps one residual pair
per flow key (per arc), res[2k] = cap - flow and res[2k + 1] = flow, and
every solver and reader works on those darts: they are the only flow state.

residual_reachable lists the nodes it reaches and marks each in a seen
array with the caller's mark, so searches from several start classes can
share one array and a check can read which class, if any, reached a node.
"""

from __future__ import annotations

from itertools import compress

from .errors import CapacityViolation
from .graph import NO_KEY, PlanarGraph


class FlowStore:
    """Growable map from flow keys to residual pairs.

    One store backs a whole engine run; every subgraph, piece, and
    artificial arc reads and writes through its key, which is how flow
    updates made inside a piece reach the global state.  Key k owns the
    darts 2k and 2k + 1 of res and head; head is scratch space that the
    last solver net built fills (see solvers.ResidualNet).  apply keeps
    every flow it writes within [0, cap].
    """

    __slots__ = ("caps", "res", "head")

    def __init__(self):
        self.caps = []
        self.res = []
        self.head = []

    @classmethod
    def for_graph(cls, g: PlanarGraph) -> "FlowStore":
        if g.keys != list(range(g.m)):
            raise ValueError("graph arcs must carry identity keys to seed a store")
        store = cls()
        store.caps = list(g.caps)
        store.res = [0] * (2 * g.m)
        store.res[0::2] = g.caps
        store.head = [0] * (2 * g.m)
        return store

    @property
    def vals(self) -> tuple:
        """The flow of every key, as a tuple: a view, not the state."""
        return tuple(self.res[1::2])

    def new_key(self, cap: int) -> int:
        self.caps.append(cap)
        self.res += (cap, 0)
        self.head += (0, 0)
        return len(self.caps) - 1

    def apply(self, deltas) -> None:
        """Add delta to the flow of key for each (key, delta) pair.

        Raises CapacityViolation if any arc would leave [0, cap].
        """
        caps, res = self.caps, self.res
        for key, delta in deltas:
            f = res[2 * key + 1]
            nv = f + delta
            if nv < 0 or nv > caps[key]:
                raise CapacityViolation(
                    f"key {key}: flow {f}+{delta} outside [0, {caps[key]}]")
            res[2 * key] = caps[key] - nv
            res[2 * key + 1] = nv


def inflow(g: PlanarGraph, store: FlowStore, v: int) -> int:
    """Net inflow at v: flow on arcs into v minus flow on arcs out of v."""
    total = 0
    res = store.res
    keys = g.keys
    for d in g.rot[v]:
        key = keys[d >> 1]
        if key != NO_KEY:   # an odd dart: v is the head of the arc
            total += res[2 * key + 1] if d & 1 else -res[2 * key + 1]
    return total


def inflow_all(g: PlanarGraph, store: FlowStore):
    """Net inflow of every node, in one pass over the arcs."""
    acc = [0] * g.n
    res = store.res
    for t, h, key in zip(g.tails, g.heads, g.keys):
        if key == NO_KEY:
            continue
        f = res[2 * key + 1]
        if f:
            acc[h] += f
            acc[t] -= f
    return acc


def is_pseudoflow(g: PlanarGraph, store: FlowStore) -> bool:
    """Every keyed arc's pair is whole and within its capacity:
    0 <= flow <= cap and the two residuals sum to cap."""
    res, caps = store.res, store.caps
    for k in g.keys:
        if k != NO_KEY:
            f, c = res[2 * k + 1], caps[k]
            if not 0 <= f <= c or res[2 * k] + f != c:
                return False
    return True


def is_feasible(g: PlanarGraph, store: FlowStore, sources, sinks) -> bool:
    """Pseudoflow that conserves at every node outside sources and sinks:
    the nodes with a nonzero net inflow are all terminals."""
    if not is_pseudoflow(g, store):
        return False
    terminals = set(sources) | set(sinks)
    return terminals.issuperset(compress(range(g.n), inflow_all(g, store)))


def flow_value(g: PlanarGraph, store: FlowStore, sinks) -> int:
    """Value of a feasible flow: the sum of inflows at the sinks."""
    return sum(inflow(g, store, t) for t in sinks)


def residual_reachable(g: PlanarGraph, store: FlowStore, start, seen=None,
                       mark=1) -> list:
    """The nodes reachable from the start set along darts with positive
    residual, as a list in reach order (breadth first, the start nodes
    first).

    The search reads g.keyed_adjacency(), built on g's first search and
    kept: per node, the store darts of its keyed arcs, each with the
    neighbour it leads to, whose residual store.res holds.  The adjacency
    holds no flow, so the store may change between searches.

    With a caller's seen array (one byte per node of g), the search skips
    the nodes already marked, marks each node it reaches with mark and
    returns only those: searches that share one array visit each node
    once between them, and the array tells afterwards which search, if
    any, reached a node.
    """
    if seen is None:
        seen = bytearray(g.n)
    reached = []
    for v in start:
        if not seen[v]:
            seen[v] = mark
            reached.append(v)
    res = store.res
    adj = g.keyed_adjacency()
    for v in reached:       # grows while it is read: a breadth-first queue
        for d, w in adj[v]:
            if not seen[w] and res[d] > 0:      # most darts lead back to seen nodes
                seen[w] = mark
                reached.append(w)
    return reached


def decompose_acyclic(head, amounts):
    """Cancel the cycles of a flow on a set of darts; return
    (circulation, order).

    Dart d runs from head[d ^ 1] to head[d]; amounts maps each dart of
    the set to the flow it carries, zero allowed.  circulation maps dart
    -> amount, has zero inflow everywhere, and is what the caller
    subtracts from amounts to leave an acyclic flow; amounts itself is
    not changed.  Cycles are canceled by repeated DFS on the darts with
    positive amount, removing the minimum around each cycle.

    order lists every end of a dart of the set, in reverse DFS finishing
    order, the DFS roots taken in order of first appearance in amounts.
    A node finishes only when each of its darts with positive remaining
    amount leads to an already finished node, and later cancellations
    only lower amounts; so every dart still positive after the
    cancellation runs forward in order, which makes it a topological
    order of them.

    The DFS runs on lists: the ends are numbered by first appearance (a
    dart's tail before its head), and the set's darts by their position
    in amounts.
    """
    local = {}
    number = local.setdefault
    darts = list(amounts)
    tail, tip = [], []
    for d in darts:
        tail.append(number(head[d ^ 1], len(local)))
        tip.append(number(head[d], len(local)))
    nodes = list(local)
    remaining = list(amounts.values())
    out_darts = [[] for _ in nodes]
    for j, x in enumerate(remaining):
        if x > 0:
            out_darts[tail[j]].append(j)

    circulation = {}

    # Iterative DFS over darts with remaining positive amount; when a node
    # on the current path is revisited we found a cycle and cancel it.
    state = bytearray(len(nodes))  # 0 unvisited, 1 on stack, 2 done
    ptr = [0] * len(nodes)
    finished = []
    for root in range(len(nodes)):
        if state[root] != 0:
            continue
        stack = [root]
        path = []
        state[root] = 1
        while stack:
            v = stack[-1]
            out = out_darts[v]
            advanced = False
            while ptr[v] < len(out):
                j = out[ptr[v]]
                if remaining[j] <= 0:
                    ptr[v] += 1
                    continue
                w = tip[j]
                if state[w] == 1:
                    # cancel the cycle closing at w
                    cycle = [j]
                    for pj in reversed(path):
                        cycle.append(pj)
                        if tail[pj] == w:
                            break
                    delta = min(remaining[c] for c in cycle)
                    for c in cycle:
                        remaining[c] -= delta
                        d = darts[c]
                        circulation[d] = circulation.get(d, 0) + delta
                    # unwind the stack to w so exhausted darts get re-scanned
                    while stack[-1] != w:
                        state[stack.pop()] = 0
                        path.pop()
                    advanced = True
                    break
                if state[w] == 0:
                    stack.append(w)
                    path.append(j)
                    state[w] = 1
                    advanced = True
                    break
                ptr[v] += 1
            if not advanced:
                state[v] = 2
                finished.append(v)
                ptr[v] = 0
                stack.pop()
                if path:
                    path.pop()

    finished.reverse()
    return circulation, [nodes[i] for i in finished]
