"""Dart-level flow state: the single global flow assignment and its checks.

All flow values are exact integers.  The store keeps one signed value per
flow key (per arc); the value is the flow on the forward dart, and the
reverse dart carries its negation, so antisymmetry holds by construction
and is re-checked where the contracts ask for it.
"""

from __future__ import annotations

from collections import deque

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
        store = cls()
        for a in range(g.m):
            if g.keys[a] != a:
                raise ValueError("graph arcs must carry identity keys to seed a store")
            store.caps.append(g.caps[a])
            store.vals.append(0)
        return store

    def new_key(self, cap: int) -> int:
        self.caps.append(cap)
        self.vals.append(0)
        return len(self.vals) - 1

    def value(self, key: int) -> int:
        return 0 if key == NO_KEY else self.vals[key]

    def dart_flow(self, g: PlanarGraph, d: int) -> int:
        """Antisymmetric flow on a dart: +value forward, -value in reverse."""
        key = g.keys[d >> 1]
        if key == NO_KEY:
            return 0
        v = self.vals[key]
        return v if (d & 1) == 0 else -v

    def residual(self, g: PlanarGraph, d: int) -> int:
        """Residual capacity c(d) - f(d) of a dart."""
        key = g.keys[d >> 1]
        if key == NO_KEY:
            return 0
        v = self.vals[key]
        return self.caps[key] - v if (d & 1) == 0 else v

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
    """Every dart respects its capacity: f(d) <= c(d) on both darts."""
    for a in range(g.m):
        key = g.keys[a]
        v = store.value(key)
        cap = g.caps[a] if key == NO_KEY else store.caps[key]
        if v < 0 or v > cap:
            return False
    return True


def is_antisymmetric(g: PlanarGraph, store: FlowStore) -> bool:
    return all(store.dart_flow(g, d) + store.dart_flow(g, d ^ 1) == 0 for d in g.darts())


def is_feasible(g: PlanarGraph, store: FlowStore, sources, sinks) -> bool:
    """Pseudoflow that conserves at every node outside sources and sinks."""
    if not is_pseudoflow(g, store):
        return False
    acc = inflow_all(g, store)
    terminals = set(sources) | set(sinks)
    return all(acc[v] == 0 for v in range(g.n) if v not in terminals)


def flow_value(g: PlanarGraph, store: FlowStore, sinks) -> int:
    """Value of a feasible flow: the sum of inflows at the sinks."""
    acc = inflow_all(g, store)
    return sum(acc[t] for t in sinks)


def residual_reachable(g: PlanarGraph, store: FlowStore, start) -> set:
    """Nodes reachable from the start set along darts with positive residual."""
    seen = bytearray(g.n)
    queue = deque()
    for v in start:
        if not seen[v]:
            seen[v] = 1
            queue.append(v)
    caps, vals, keys = store.caps, store.vals, g.keys
    while queue:
        v = queue.popleft()
        for d in g.rot[v]:
            key = keys[d >> 1]
            if key == NO_KEY:
                continue
            res = caps[key] - vals[key] if (d & 1) == 0 else vals[key]
            if res > 0:
                w = g.dart_head(d)
                if not seen[w]:
                    seen[w] = 1
                    queue.append(w)
    return {v for v in range(g.n) if seen[v]}


def decompose_acyclic(g: PlanarGraph, store: FlowStore):
    """Split the current flow on g into a circulation and an acyclic part.

    Returns (circulation, acyclic) as key -> value dicts with
    circulation + acyclic equal to the stored flow on g's arcs.  The
    circulation has zero inflow everywhere; the positive darts of the
    acyclic part form a DAG.  Cycles are canceled by repeated DFS on the
    positive-flow darts, removing the minimum flow around each cycle.
    """
    remaining = {}
    out_arcs = [[] for _ in range(g.n)]
    for a in range(g.m):
        key = g.keys[a]
        if key == NO_KEY:
            continue
        v = store.vals[key]
        if v > 0:
            remaining[a] = v
            out_arcs[g.tails[a]].append(a)

    circulation = {}

    # Iterative DFS over arcs with remaining positive flow; when a node on
    # the current path is revisited we found a flow cycle and cancel it.
    state = bytearray(g.n)  # 0 unvisited, 1 on stack, 2 done
    ptr = [0] * g.n
    for root in range(g.n):
        if state[root] != 0:
            continue
        stack = [root]
        path_arcs = []
        state[root] = 1
        while stack:
            v = stack[-1]
            advanced = False
            while ptr[v] < len(out_arcs[v]):
                a = out_arcs[v][ptr[v]]
                if remaining.get(a, 0) <= 0:
                    ptr[v] += 1
                    continue
                w = g.heads[a]
                if state[w] == 1:
                    # cancel the cycle closing at w
                    cycle = [a]
                    for pa in reversed(path_arcs):
                        cycle.append(pa)
                        if g.tails[pa] == w:
                            break
                    delta = min(remaining[c] for c in cycle)
                    for c in cycle:
                        remaining[c] -= delta
                        circulation[g.keys[c]] = circulation.get(g.keys[c], 0) + delta
                    # unwind the stack to w so exhausted arcs get re-scanned
                    while stack[-1] != w:
                        state[stack.pop()] = 0
                        path_arcs.pop()
                    advanced = True
                    break
                if state[w] == 0:
                    stack.append(w)
                    path_arcs.append(a)
                    state[w] = 1
                    advanced = True
                    break
                ptr[v] += 1
            if not advanced and (not stack or stack[-1] == v):
                state[v] = 2
                ptr[v] = 0
                stack.pop()
                if path_arcs:
                    path_arcs.pop()

    acyclic = {}
    for a, v in remaining.items():
        if v > 0:
            acyclic[g.keys[a]] = acyclic.get(g.keys[a], 0) + v
    for a in range(g.m):
        key = g.keys[a]
        if key != NO_KEY and store.vals[key] != circulation.get(key, 0) + acyclic.get(key, 0):
            # keys are unique per arc, so a mismatch means a bookkeeping bug
            raise AssertionError("flow decomposition does not sum back to the flow")
    return circulation, acyclic
