"""Recursive multiple-source multiple-sink max flow on planar graphs.

One level of the recursion: split the graph along a balanced cycle
separator, recurse into both pieces, push flow between each piece's
terminals and its boundary through an infinite-capacity apex, walk the
boundary nodes in cyclic order moving each one's imbalance onto the
still-unwalked suffix with limited flows, and finally settle the
remaining boundary imbalance back onto the terminals.  All flow lives in
one global store; every subroutine sees current residual capacities and
its result is accumulated immediately.

Instrumentation is config-gated: audit level "full" re-checks every
reachability invariant the correctness argument relies on after each
step, "final" checks feasibility and maximality per level, "none" trusts
the algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

from .config import EngineConfig
from .errors import AuditFailure, SettlementStuck
from .flow import (
    FlowStore,
    decompose_acyclic,
    flow_value,
    inflow,
    inflow_all,
    is_feasible,
    residual_reachable,
)
from .graph import NO_KEY, PlanarGraph, TerminalSets
from .separator import find_cycle_separator, split_into_pieces
from .solvers import (
    graph_arcs,
    limited_max_flow,
    msss_max_flow,
    solve_msms_residual,
    ssms_max_flow,
)
from .surgery import attach_apex, detach_terminal_from_cycle, triangulate_and_biconnect


@dataclass
class LevelRecord:
    depth: int
    n: int
    kind: str                 # "split", "base", "guard-base", or "empty"
    boundary: int = 0
    child_sizes: tuple = ()


@dataclass
class RecursionStats:
    levels: list = field(default_factory=list)
    max_depth: int = 0
    max_boundary: int = 0
    max_boundary_ratio: float = 0.0   # k / sqrt(n) over all splits

    def record(self, rec: LevelRecord):
        self.levels.append(rec)
        self.max_depth = max(self.max_depth, rec.depth)
        if rec.kind == "split":
            self.max_boundary = max(self.max_boundary, rec.boundary)
            self.max_boundary_ratio = max(
                self.max_boundary_ratio, rec.boundary / sqrt(rec.n))

    def shape_violations(self, c_sep: float):
        """Splits where a child exceeds (2/3) parent + c_sep * sqrt(parent)."""
        bad = []
        for rec in self.levels:
            if rec.kind != "split":
                continue
            bound = (2.0 / 3.0) * rec.n + c_sep * sqrt(rec.n)
            for child in rec.child_sizes:
                if child > bound:
                    bad.append((rec.n, child, bound))
        return bad


@dataclass
class MsmsResult:
    value: int
    arc_flows: list           # flow per root arc
    stats: RecursionStats
    audits: int               # number of invariant checks performed


class MsmsEngine:
    """One engine instance solves one instance; not reusable."""

    def __init__(self, graph: PlanarGraph, sources, sinks,
                 config: EngineConfig | None = None, trace=None):
        TerminalSets(frozenset(sources), frozenset(sinks))
        self.root = graph
        self.sources = set(sources)
        self.sinks = set(sinks)
        self.cfg = config or EngineConfig()
        self.store = FlowStore.for_graph(graph)
        self.inf = 1 + graph.total_capacity()
        self.trace = trace
        self.stats = RecursionStats()
        self.audits = 0
        self._ran = False

    # -- public entry --------------------------------------------------------

    def run(self) -> MsmsResult:
        if self._ran:
            raise RuntimeError("MsmsEngine.run() may be called only once")
        self._ran = True
        self._solve(self.root, self.sources, self.sinks, 0)
        if self.cfg.audit != "none":
            self._check(is_feasible(self.root, self.store, self.sources, self.sinks),
                        "final flow is not feasible on the input graph")
            reach = residual_reachable(self.root, self.store, self.sources)
            self._check(not (reach & self.sinks),
                        "residual source-to-sink path after termination")
        value = flow_value(self.root, self.store, self.sinks)
        flows = [self.store.vals[k] for k in range(self.root.m)]
        return MsmsResult(value, flows, self.stats, self.audits)

    # -- audit plumbing --------------------------------------------------------

    def _check(self, ok: bool, message: str):
        self.audits += 1
        if not ok:
            raise AuditFailure(message)

    def _emit(self, record: dict):
        if self.trace is not None:
            self.trace(record)

    # -- recursion -------------------------------------------------------------

    def _solve(self, g: PlanarGraph, sources, sinks, depth):
        if not sources or not sinks:
            self.stats.record(LevelRecord(depth, g.n, "empty"))
            return
        if g.n <= self.cfg.base_case:
            self._base_solve(g, sources, sinks, depth, "base")
            return

        gt = triangulate_and_biconnect(g)
        sep = find_cycle_separator(gt)
        gd, lvl_sources, lvl_sinks = self._detach_boundary_terminals(
            gt, sep, sources, sinks)
        piece1, piece2 = split_into_pieces(gd, sep)
        if max(piece1.graph.n, piece2.graph.n) >= g.n:
            # a split that cannot shrink the problem; finish directly
            # (the just-created detach arcs stay at zero flow and are dropped)
            self._base_solve(g, sources, sinks, depth, "guard-base")
            return
        sources, sinks = lvl_sources, lvl_sinks

        self.stats.record(LevelRecord(
            depth, g.n, "split", sep.k, (piece1.graph.n, piece2.graph.n)))
        self._emit({"op": "separator", "depth": depth, "n": g.n, "k": sep.k,
                    "pieces": [piece1.graph.n, piece2.graph.n]})
        if self.cfg.audit == "full":
            keys1 = {k for k in piece1.graph.keys if k != NO_KEY}
            keys2 = {k for k in piece2.graph.keys if k != NO_KEY}
            self._check(not (keys1 & keys2),
                        "sibling pieces share flow-carrying arcs")

        boundary = sep.boundary
        for side, piece in enumerate((piece1, piece2)):
            local = piece.local_of
            sub_sources = {local[v] for v in sources if v in local}
            sub_sinks = {local[v] for v in sinks if v in local}
            self._solve(piece.graph, sub_sources, sub_sinks, depth + 1)
            self._audit_piece_recursed(piece, sub_sources, sub_sinks)
            self._push_boundary_phase(piece, side, sub_sources, sub_sinks, depth)

        self._audit_after_first_loop(gd, sources, sinks, boundary)
        self._redistribute_boundary(gd, boundary, sources, sinks, depth)
        self._settle_pseudoflow(gd, sources, sinks)
        self._audit_level_final(gd, sources, sinks)

    def _base_solve(self, g, sources, sinks, depth, kind):
        self.stats.record(LevelRecord(depth, g.n, kind))
        value, deltas = solve_msms_residual(g.n, graph_arcs(g), self.store,
                                            sources, sinks)
        self.store.apply(deltas)
        self._emit({"op": "solve_leaf", "depth": depth, "n": g.n, "value": value})
        if self.cfg.audit == "full":
            reach = residual_reachable(g, self.store, sources)
            self._check(not (reach & set(sinks)),
                        "leaf solve left a residual source-to-sink path")

    def _detach_boundary_terminals(self, gt, sep, sources, sinks):
        """Replace every terminal on the separator cycle with a fresh
        terminal embedded in an incident face.

        The new arc's capacity is the terminal's real directional
        capacity (arcs out of a source, into a sink): large enough that
        the max-flow value is exactly preserved, small enough that the
        arc cannot combine with an apex arc to carry unbounded junk flow
        that would saturate the apex attachment.
        """
        sources = set(sources)
        sinks = set(sinks)
        g = gt
        for i, v in enumerate(sep.boundary):
            role = "source" if v in sources else "sink" if v in sinks else None
            if role is None:
                continue
            want_parity = 0 if role == "source" else 1  # out-darts vs in-darts
            cap = sum(g.caps[d >> 1] for d in g.rot[v] if (d & 1) == want_parity)
            anchor = sep.cycle_darts[i]
            g, v_new = detach_terminal_from_cycle(g, v, anchor, role,
                                                  self.store, cap)
            if role == "source":
                sources.remove(v)
                sources.add(v_new)
            else:
                sinks.remove(v)
                sinks.add(v_new)
            self._emit({"op": "detach_terminal", "node": v, "role": role,
                        "replacement": v_new})
        return g, sources, sinks

    # -- per-piece boundary pushes (apex phases) --------------------------------

    def _push_boundary_phase(self, piece, side, sub_sources, sub_sinks, depth):
        ga, apex = attach_apex(piece.graph, piece.boundary_local,
                               self.store, self.inf)
        arcs = graph_arcs(ga)
        value_in, deltas = msss_max_flow(ga.n, arcs, self.store, sub_sources, apex) \
            if sub_sources else (0, [])
        self.store.apply(deltas)
        self._emit({"op": "push_sources_to_boundary", "depth": depth,
                    "piece": side, "value": value_in})
        self._audit_piece_sources_blocked(ga, piece, apex, sub_sources, sub_sinks)

        value_out, deltas = ssms_max_flow(ga.n, arcs, self.store, apex, sub_sinks) \
            if sub_sinks else (0, [])
        self.store.apply(deltas)
        self._emit({"op": "push_boundary_to_sinks", "depth": depth,
                    "piece": side, "value": value_out})
        # apex and its arcs are dropped here; flow on them is discarded,
        # which is what moves the imbalance onto the boundary nodes
        self._audit_piece_complete(piece, sub_sources, sub_sinks)

    # -- boundary redistribution -------------------------------------------------

    def _redistribute_boundary(self, gd, boundary, sources, sinks, depth):
        """Walk the boundary in cyclic order; move each node's imbalance
        onto the unwalked suffix through temporary infinite-capacity
        chain links, so conservation violations drain toward the end.

        The links are scratch arcs of the limited-flow call: their flow
        is never stored."""
        k = len(boundary)
        base_arcs = graph_arcs(gd)
        links = []
        for j in range(k - 1):
            u, v = boundary[j], boundary[j + 1]
            links.append((u, v, self.inf, 0))
            links.append((v, u, self.inf, 0))
        for i in range(k - 1):
            node = boundary[i]
            imbalance = inflow(gd, self.store, node)
            pushed = 0
            if imbalance != 0:
                src, dst = node, boundary[i + 1]
                if imbalance < 0:
                    src, dst = dst, src
                pushed, deltas = limited_max_flow(
                    gd.n, base_arcs, self.store, src, dst, abs(imbalance),
                    links[2 * (i + 1):])
                self.store.apply(deltas)
            if self.trace is not None:
                self._emit({
                    "op": "redistribute", "depth": depth, "index": i,
                    "node": node, "imbalance": imbalance, "pushed": pushed,
                    "boundary_inflow": [inflow(gd, self.store, b) for b in boundary],
                })
            self._audit_redistribute_iteration(gd, boundary, sources, sinks, i)

    # -- settlement ---------------------------------------------------------------

    def _settle_pseudoflow(self, gd, sources, sinks):
        """Convert the boundary pseudoflow into a feasible flow: cancel
        flow cycles, then in topological order of the remaining positive
        darts push excess back toward where it came from and deficits
        forward toward where they were headed."""
        circulation, _ = decompose_acyclic(gd, self.store)
        if circulation:
            self.store.apply([(key, -d) for key, d in sorted(circulation.items())])

        store = self.store
        pos_out = [[] for _ in range(gd.n)]
        pos_in = [[] for _ in range(gd.n)]
        indeg = [0] * gd.n
        for a in range(gd.m):
            key = gd.keys[a]
            if key != NO_KEY and store.vals[key] > 0:
                pos_out[gd.tails[a]].append(a)
                pos_in[gd.heads[a]].append(a)
                indeg[gd.heads[a]] += 1

        order = []
        queue = [v for v in range(gd.n) if indeg[v] == 0]
        head = 0
        indeg_work = list(indeg)
        while head < len(queue):
            v = queue[head]
            head += 1
            order.append(v)
            for a in pos_out[v]:
                w = gd.heads[a]
                indeg_work[w] -= 1
                if indeg_work[w] == 0:
                    queue.append(w)
        if len(order) != gd.n:
            raise SettlementStuck("positive flow darts still contain a cycle")

        balance = inflow_all(gd, store)
        terminals = set(sources) | set(sinks)

        for v in reversed(order):           # excess back toward emitters
            if v in terminals or balance[v] <= 0:
                continue
            need = balance[v]
            for a in pos_in[v]:
                key = gd.keys[a]
                take = min(store.vals[key], need)
                if take > 0:
                    store.vals[key] -= take
                    balance[v] -= take
                    balance[gd.tails[a]] += take
                    need -= take
                if need == 0:
                    break
            if need:
                raise SettlementStuck(f"excess {need} stranded at node {v}")

        for v in order:                     # deficits forward toward absorbers
            if v in terminals or balance[v] >= 0:
                continue
            need = -balance[v]
            for a in pos_out[v]:
                key = gd.keys[a]
                take = min(store.vals[key], need)
                if take > 0:
                    store.vals[key] -= take
                    balance[v] += take
                    balance[gd.heads[a]] -= take
                    need -= take
                if need == 0:
                    break
            if need:
                raise SettlementStuck(f"deficit {need} stranded at node {v}")

        for v in range(gd.n):
            if v not in terminals and balance[v] != 0:
                raise SettlementStuck(f"node {v} still violates conservation")

    # -- invariant audits -------------------------------------------------------------

    def _audit_piece_recursed(self, piece, sub_sources, sub_sinks):
        """After the recursive call: no residual source-to-sink path
        inside the piece."""
        if self.cfg.audit != "full":
            return
        reach = residual_reachable(piece.graph, self.store, sub_sources)
        self._check(not (reach & sub_sinks),
                    "piece recursion left a residual source-to-sink path")

    def _audit_piece_sources_blocked(self, ga, piece, apex, sub_sources, sub_sinks):
        """After pushing sources to the apex: within the piece there is no
        residual path from the sources to the sinks, nor to the boundary."""
        if self.cfg.audit != "full":
            return
        reach = residual_reachable(ga, self.store, sub_sources)
        boundary = set(piece.boundary_local)
        self._check(not (reach & sub_sinks),
                    "source push exposed a residual source-to-sink path")
        self._check(not (reach & boundary),
                    "residual source-to-boundary path after the source push")

    def _audit_piece_complete(self, piece, sub_sources, sub_sinks):
        """After both apex pushes: sources reach neither sinks nor
        boundary; boundary does not reach sinks (all within the piece)."""
        if self.cfg.audit != "full":
            return
        g = piece.graph
        boundary = set(piece.boundary_local)
        reach_s = residual_reachable(g, self.store, sub_sources)
        self._check(not (reach_s & sub_sinks),
                    "piece phase left a residual source-to-sink path")
        self._check(not (reach_s & boundary),
                    "piece phase left a residual source-to-boundary path")
        reach_c = residual_reachable(g, self.store, boundary)
        self._check(not (reach_c & sub_sinks),
                    "piece phase left a residual boundary-to-sink path")

    def _audit_after_first_loop(self, gd, sources, sinks, boundary):
        """Both pieces done: globally no residual source-to-sink,
        source-to-boundary, or boundary-to-sink path."""
        if self.cfg.audit != "full":
            return
        boundary_set = set(boundary)
        reach_s = residual_reachable(gd, self.store, sources)
        self._check(not (reach_s & set(sinks)),
                    "first loop left a global residual source-to-sink path")
        self._check(not (reach_s & boundary_set),
                    "first loop left a residual source-to-boundary path")
        reach_c = residual_reachable(gd, self.store, boundary_set)
        self._check(not (reach_c & set(sinks)),
                    "first loop left a residual boundary-to-sink path")

    def _audit_redistribute_iteration(self, gd, boundary, sources, sinks, i):
        """The four walk invariants, checked after iteration i."""
        if self.cfg.audit != "full":
            return
        store = self.store
        sinks = set(sinks)
        boundary_set = set(boundary)
        processed = boundary[: i + 1]
        unprocessed = boundary[i + 1:]

        reach_s = residual_reachable(gd, store, sources)
        self._check(not (reach_s & sinks),
                    "walk broke: residual source-to-sink path")
        self._check(not (reach_s & boundary_set),
                    "walk broke: residual source-to-boundary path")
        reach_c = residual_reachable(gd, store, boundary_set)
        self._check(not (reach_c & sinks),
                    "walk broke: residual boundary-to-sink path")

        pos = [p for p in processed if inflow(gd, store, p) > 0]
        neg = [p for p in processed if inflow(gd, store, p) < 0]
        if unprocessed:
            reach_un = residual_reachable(gd, store, set(unprocessed))
            self._check(not (reach_un & set(neg)),
                        "walk broke: unprocessed node reaches a drained processed node")
            reaching_un = residual_reaching(gd, store, set(unprocessed))
            self._check(not (reaching_un & set(pos)),
                        "walk broke: overfull processed node reaches an unprocessed node")
        if pos and neg:
            reach_pos = residual_reachable(gd, store, set(pos))
            self._check(not (reach_pos & set(neg)),
                        "walk broke: overfull processed node reaches a drained one")

    def _audit_level_final(self, gd, sources, sinks):
        if self.cfg.audit == "none":
            return
        self._check(is_feasible(gd, self.store, sources, sinks),
                    "level settlement did not restore conservation")
        reach = residual_reachable(gd, self.store, sources)
        self._check(not (reach & set(sinks)),
                    "level finished with a residual source-to-sink path")


def residual_reaching(g: PlanarGraph, store: FlowStore, targets) -> set:
    """Nodes that can reach the target set along residual darts."""
    seen = bytearray(g.n)
    stack = []
    for v in targets:
        if not seen[v]:
            seen[v] = 1
            stack.append(v)
    caps, vals, keys = store.caps, store.vals, g.keys
    while stack:
        v = stack.pop()
        for d in g.rot[v]:
            # we stand at v and look for residual darts INTO v: the dart
            # from head(d) to v is rev(d)
            key = keys[d >> 1]
            if key == NO_KEY:
                continue
            rd = d ^ 1
            res = caps[key] - vals[key] if (rd & 1) == 0 else vals[key]
            if res > 0:
                w = g.dart_head(d)
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
    return {v for v in range(g.n) if seen[v]}


def msms_max_flow(graph: PlanarGraph, sources, sinks,
                  config: EngineConfig | None = None, trace=None) -> MsmsResult:
    """Compute a maximum flow from the source set to the sink set."""
    return MsmsEngine(graph, sources, sinks, config=config, trace=trace).run()
