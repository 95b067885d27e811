"""Dart-level flow state: the single global flow assignment and its checks.

All flow values are exact integers.  The store keeps one signed value per
flow key (per arc); the value is the flow on the forward dart, and the
reverse dart carries its negation, so antisymmetry holds by construction.
"""

from __future__ import annotations

from .errors import CapacityViolation
from .graph import NO_KEY, PlanarGraph


class FlowStore:
    """Growable map from flow keys to integer arc flows.

    One store backs a whole engine run; every subgraph, piece, and
    artificial arc reads and writes through its key, which is how flow
    updates made inside a piece propagate to the global state.  A
    pseudoflow bound 0 <= value <= cap is enforced on every update.
    """

    __slots__ = ("caps", "vals")

    def __init__(self):
        self.caps = []
        self.vals = []

    @classmethod
    def for_graph(cls, g: PlanarGraph) -> "FlowStore":
        if g.keys != list(range(g.m)):
            raise ValueError("graph arcs must carry identity keys to seed a store")
        store = cls()
        store.caps = list(g.caps)
        store.vals = [0] * g.m
        return store

    def new_key(self, cap: int) -> int:
        self.caps.append(cap)
        self.vals.append(0)
        return len(self.vals) - 1

    def apply(self, deltas) -> None:
        """Accumulate a solver result: vals[key] += delta for each pair.

        Raises CapacityViolation if any arc would leave [0, cap]; that
        means a solver ignored the residual discipline.
        """
        caps, vals = self.caps, self.vals
        for key, delta in deltas:
            nv = vals[key] + delta
            if nv < 0 or nv > caps[key]:
                raise CapacityViolation(
                    f"key {key}: flow {vals[key]}+{delta} outside [0, {caps[key]}]")
            vals[key] = nv


def inflow(g: PlanarGraph, store: FlowStore, v: int) -> int:
    """Net inflow at v: flow on arcs into v minus flow on arcs out of v."""
    total = 0
    vals = store.vals
    keys = g.keys
    for d in g.rot[v]:
        key = keys[d >> 1]
        if key == NO_KEY:
            continue
        if d & 1:  # v is the head of the arc
            total += vals[key]
        else:
            total -= vals[key]
    return total


def inflow_all(g: PlanarGraph, store: FlowStore):
    """Net inflow of every node, in one pass over the arcs."""
    acc = [0] * g.n
    vals = store.vals
    for a in range(g.m):
        key = g.keys[a]
        if key == NO_KEY:
            continue
        v = vals[key]
        if v:
            acc[g.heads[a]] += v
            acc[g.tails[a]] -= v
    return acc


def is_pseudoflow(g: PlanarGraph, store: FlowStore) -> bool:
    """Every dart respects its capacity: 0 <= f(a) <= c(a) on each keyed arc."""
    vals, caps = store.vals, store.caps
    return all(0 <= vals[k] <= caps[k] for k in g.keys if k != NO_KEY)


def is_feasible(g: PlanarGraph, store: FlowStore, sources, sinks) -> bool:
    """Pseudoflow that conserves at every node outside sources and sinks."""
    if not is_pseudoflow(g, store):
        return False
    acc = inflow_all(g, store)
    terminals = set(sources) | set(sinks)
    return all(acc[v] == 0 for v in range(g.n) if v not in terminals)


def flow_value(g: PlanarGraph, store: FlowStore, sinks) -> int:
    """Value of a feasible flow: the sum of inflows at the sinks."""
    return sum(inflow(g, store, t) for t in sinks)


def residual_reachable(g: PlanarGraph, store: FlowStore, start, seen=None) -> set:
    """Nodes reachable from the start set along darts with positive residual.

    The search reads g.keyed_adjacency(), built on g's first search and
    kept, and the store's caps and flows: an out-arc has residual
    cap - flow, an in-arc its flow.  The adjacency holds no flow, so the
    store may change between searches.

    With a caller's seen array (one byte per node of g), the search skips
    the nodes already marked, marks the nodes it reaches and returns only
    those: searches that share one array visit each node once between them.
    """
    if seen is None:
        seen = bytearray(g.n)
    reached = []
    for v in start:
        if not seen[v]:
            seen[v] = 1
            reached.append(v)
    caps, vals = store.caps, store.vals
    outs, ins = g.keyed_adjacency()
    for v in reached:       # grows while it is read: a breadth-first queue
        for k, w in outs[v]:
            if not seen[w] and vals[k] < caps[k]:
                seen[w] = 1
                reached.append(w)
        for k, w in ins[v]:
            if not seen[w] and vals[k] > 0:
                seen[w] = 1
                reached.append(w)
    return set(reached)


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
    """
    remaining = {d: x for d, x in amounts.items() if x > 0}
    out_darts = {}
    for d in amounts:
        out_darts.setdefault(head[d ^ 1], [])
        out_darts.setdefault(head[d], [])
    for d in remaining:
        out_darts[head[d ^ 1]].append(d)

    circulation = {}

    # Iterative DFS over darts with remaining positive amount; when a node
    # on the current path is revisited we found a cycle and cancel it.
    state = dict.fromkeys(out_darts, 0)  # 0 unvisited, 1 on stack, 2 done
    ptr = dict.fromkeys(out_darts, 0)
    finished = []
    for root in out_darts:
        if state[root] != 0:
            continue
        stack = [root]
        path = []
        state[root] = 1
        while stack:
            v = stack[-1]
            darts = out_darts[v]
            advanced = False
            while ptr[v] < len(darts):
                d = darts[ptr[v]]
                if remaining[d] <= 0:
                    ptr[v] += 1
                    continue
                w = head[d]
                if state[w] == 1:
                    # cancel the cycle closing at w
                    cycle = [d]
                    for pd in reversed(path):
                        cycle.append(pd)
                        if head[pd ^ 1] == w:
                            break
                    delta = min(remaining[c] for c in cycle)
                    for c in cycle:
                        remaining[c] -= delta
                        circulation[c] = circulation.get(c, 0) + delta
                    # unwind the stack to w so exhausted darts get re-scanned
                    while stack[-1] != w:
                        state[stack.pop()] = 0
                        path.pop()
                    advanced = True
                    break
                if state[w] == 0:
                    stack.append(w)
                    path.append(d)
                    state[w] = 1
                    advanced = True
                    break
                ptr[v] += 1
            if not advanced and (not stack or stack[-1] == v):
                state[v] = 2
                finished.append(v)
                ptr[v] = 0
                stack.pop()
                if path:
                    path.pop()

    finished.reverse()
    return circulation, finished
