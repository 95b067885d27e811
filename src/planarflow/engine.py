"""Recursive multiple-source multiple-sink max flow on planar graphs.

One level of the recursion: split the graph along a balanced cycle
separator, recurse into both pieces, push flow in the level graph from
its sources into the boundary node set and from that set into its sinks
(the set stands in for the paper's infinite-capacity apex, and one push
does the work of both pieces' pushes), walk the boundary nodes in cyclic
order by same-sign runs, moving each run's imbalance onto the
still-unwalked suffix with one limited flow whose roots carry the run
nodes' imbalances as budgets, and finally settle the remaining boundary
imbalance back onto the terminals.  Each run leaves the walk invariants
in place, by max-flow/min-cut with budgeted roots (see
_redistribute_boundary).  The settle works on the level's change only:
the arcs whose flow moved since the level built its net, when the
pieces' flows conserved.  It cancels the change's cycles, then moves
each imbalance back along the acyclic rest in the topological order the
cancelling DFS returns, on lists indexed by level node.  All flow lives
in one global store, a residual pair per arc, which every subroutine
reads and writes in place.  A split level's pushes and walk share one
net of its graph over the store, and every flow among them is one
subroutine, solvers.terminal_set_flow.

run() pauses the cyclic garbage collector for the solve, its audits and
the flow value, through graph.collector_paused, as parse_instance_file
and build_graph do for the set-up before it, and turns it back on
afterwards if it was on.  The recursion builds no reference cycles: what
each level allocates is freed by reference counting, and a collector
pass over it would reclaim nothing.  Other threads of the caller get no
cyclic collection during the call.

The input is triangulated once, at the root; every piece inherits its
triangulation and its faces from the split (see separator.py).  A
piece's graph is built only when its level splits, or under
audit=full: an empty piece needs only its size, and a leaf is solved
from the piece's arc arrays.

Instrumentation is config-gated.  Audit level "final" checks, after each
level's settlement and once more on the input graph, that the flow
conserves and leaves no residual source-to-sink path.  "full" adds the
reachability invariants the correctness argument relies on, after every
leaf solve, piece recursion, boundary push and walk run (README, "Audits"),
with one shared residual search per check point (see _audit_separated): its
searches mark what each start class reaches in one seen array, and each
check reads its targets' marks.  The walk audit reads the processed
nodes' balances over the level graph's keyed adjacency, the searches'
own.  "full" also checks every piece's faces and triangulation.  "none"
trusts the algorithm.  `audits` counts the checks made; an AuditFailure
names the depth, the phase, the piece or walk step (a run's last index),
and up to five offending nodes (for a feasibility check, the keys of the
arcs that break their capacity, or when none does, the non-terminals
that do not conserve).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

from .config import EngineConfig
from .errors import (
    AuditFailure,
    Disconnected,
    EmbeddingInvalid,
    NonPlanarEmbedding,
    SettlementStuck,
)
from .flow import (
    FlowStore,
    decompose_acyclic,
    flow_value,
    inflow,
    inflow_all,
    is_feasible,
    residual_reachable,
)
from .graph import (
    NO_KEY,
    PlanarGraph,
    TerminalSets,
    collector_paused,
    is_triangulated_biconnected,
)
from .separator import BOUNDARY_CONSTANT, find_cycle_separator, split_into_pieces
from .solvers import graph_arcs, input_net, terminal_set_flow
from .surgery import detach_terminal_from_cycle, triangulate_and_biconnect

# The benchmark's layer names.  perfbench wraps these module globals to
# time each call site on its own, so the engine calls its one flow,
# terminal_set_flow, under four names: a split level's source push into
# its boundary node set, its sink push out of that set, each walk run
# and a leaf's direct solve.  attach_apex names the boundary node set
# that stands in for the paper's apex.  No other module uses them.
msss_max_flow = ssms_max_flow = limited_max_flow = solve_msms_residual = terminal_set_flow


def attach_apex(g, boundary):
    """The terminal set that stands in for the paper's apex of g: the
    boundary nodes, in cycle order.  Every finite cut puts the whole
    boundary on the apex's side, so a flow into this set, or out of it,
    has the value of one into or out of the apex.  Adds nothing to g."""
    return list(boundary)


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

    def shape_violations(self):
        """Splits where a child exceeds (2/3) parent + c * sqrt(parent),
        with c = separator.BOUNDARY_CONSTANT."""
        bad = []
        for rec in self.levels:
            if rec.kind != "split":
                continue
            bound = (2.0 / 3.0) * rec.n + BOUNDARY_CONSTANT * sqrt(rec.n)
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
        # one-shot iterables are read once, here; a node id is an int, not
        # a bool or a float such as 1.0 that equals one; bad ints are listed
        # sorted, then the other ids, which may not compare or hash, by repr
        sources, sinks = list(sources), list(sinks)
        ids = (*sources, *sinks)
        bad = [str(v) for v in sorted({v for v in ids
                                       if type(v) is int and not 0 <= v < graph.n})]
        bad += sorted({repr(v) for v in ids if type(v) is not int})
        if bad:
            raise ValueError(f"terminal ids outside the graph's nodes 0..{graph.n - 1}: "
                             f"[{', '.join(bad[:5])}]")
        TerminalSets(frozenset(sources), frozenset(sinks))
        self.root = graph
        self.sources = set(sources)
        self.sinks = set(sinks)
        self.cfg = config or EngineConfig()
        self.store = FlowStore.for_graph(graph)
        self.trace = trace
        self.stats = RecursionStats()
        self.audits = 0
        self._ran = False

    # -- public entry --------------------------------------------------------

    @collector_paused      # no cycles to collect: see the module docstring
    def run(self) -> MsmsResult:
        if self._ran:
            raise RuntimeError("MsmsEngine.run() may be called only once")
        self._ran = True
        self._solve(self.root, self.sources, self.sinks, 0)
        if self.cfg.audit != "none":
            self._check_feasible(self.root, self.sources, self.sinks,
                                 "final flow is not feasible on the input graph")
            self._check_sources_blocked(self.root, self.sources, self.sinks,
                                        "final flow")
        value = flow_value(self.root, self.store, self.sinks)
        flows = self.store.res[1:2 * self.root.m:2]
        return MsmsResult(value, flows, self.stats, self.audits)

    # -- audit plumbing --------------------------------------------------------

    def _check_feasible(self, g, sources, sinks, message):
        """One audit: is_feasible.  A failure names up to five sorted keys
        of g's arcs whose flow lies outside [0, cap] or whose residual
        pair does not sum to cap; when every arc is within its capacity,
        up to five sorted non-terminals whose net inflow is not zero."""
        self.audits += 1
        store = self.store
        if is_feasible(g, store, sources, sinks):
            return
        res, caps = store.res, store.caps
        keys = sorted({k for k in g.keys if k != NO_KEY and not (
            0 <= res[2 * k + 1] <= caps[k] and res[2 * k] + res[2 * k + 1] == caps[k])})
        if keys:
            raise AuditFailure(f"{message} (keys {keys[:5]} break their capacity)")
        terminals = set(sources) | set(sinks)
        acc = inflow_all(g, store)
        bad = [v for v in range(g.n) if acc[v] and v not in terminals][:5]
        raise AuditFailure(message + (f" (nodes {bad})" if bad else ""))

    def _check_unreached(self, seen, marks, targets, where, what):
        """One audit: no node of targets carries one of marks in seen, the
        array that the audit's residual searches marked.  A failure names
        where it happened and up to five offending nodes, sorted."""
        self.audits += 1
        for v in targets:
            if seen[v] in marks:
                hit = sorted({v for v in targets if seen[v] in marks})
                raise AuditFailure(f"{where}: {what} (nodes {hit[:5]})")

    def _check_sources_blocked(self, g, sources, sinks, where):
        """One audit: within g, the sources reach no sink along residual
        darts.  Returns the search's seen array, the reached nodes marked 1."""
        seen = bytearray(g.n)
        residual_reachable(g, self.store, sources, seen)
        self._check_unreached(seen, (1,), sinks, where, "source reaches a sink")
        return seen

    def _emit(self, record: dict):
        if self.trace is not None:
            self.trace(record)

    # -- recursion -------------------------------------------------------------

    def _solve(self, g, sources, sinks, depth):
        """Solve one level: g is the input graph at depth 0 and a Piece
        below, whose graph is read only if the level splits (or under
        audit=full).  Below audit=full a level lets go of what it no
        longer reads: its triangulated graph once a detach has copied
        it, and each piece's graph once the piece's recursion returns,
        so only one path of the recursion holds built graphs."""
        if not sources or not sinks:
            self.stats.record(LevelRecord(depth, g.n, "empty"))
            return
        if g.n <= self.cfg.base_case:
            self._base_solve(g, sources, sinks, depth, "base")
            return

        full = self.cfg.audit == "full"
        # the input is triangulated here; pieces inherit it from there on
        gt = triangulate_and_biconnect(g) if depth == 0 else g.graph
        sep = find_cycle_separator(gt)
        gd, lvl_sources, lvl_sinks = self._detach_boundary_terminals(
            gt, sep, sources, sinks)
        if gd is not gt and not full:
            # the detach copied gt's flat arrays, and nothing reads gt again
            gt = None
            if depth:
                g.drop_graph()
        piece1, piece2 = split_into_pieces(gd, sep)
        self._audit_pieces_embedded(depth, (piece1, piece2))
        if max(piece1.n, piece2.n) >= g.n:
            # a split that cannot shrink the problem; finish directly
            # (the just-created detach arcs stay at zero flow and are dropped)
            self._base_solve(g, sources, sinks, depth, "guard-base")
            return
        sources, sinks = lvl_sources, lvl_sinks

        self.stats.record(LevelRecord(
            depth, g.n, "split", sep.k, (piece1.n, piece2.n)))
        self._emit({"op": "separator", "depth": depth, "n": g.n, "k": sep.k,
                    "pieces": [piece1.n, piece2.n]})
        if full:
            self.audits += 1
            if (set(piece1.keys) & set(piece2.keys)) - {NO_KEY}:
                raise AuditFailure(f"depth {depth}: sibling pieces share flow-carrying arcs")

        parts = []
        for side, piece in enumerate((piece1, piece2)):
            local = piece.local_of
            sub_sources = {local[v] for v in sources if v in local}
            sub_sinks = {local[v] for v in sinks if v in local}
            self._solve(piece, sub_sources, sub_sinks, depth + 1)
            if not full:
                piece.drop_graph()      # not held through the sibling's recursion
            parts.append((piece, sub_sources, sub_sinks))
            if full:
                self._check_sources_blocked(piece.graph, sub_sources, sub_sinks,
                                            f"depth {depth} piece {side} recursion")

        net = graph_arcs(gd, self.store)
        res = self.store.res
        snapshot = [res[2 * k + 1] for k in net.keys]
        boundary = sep.boundary
        self._push_boundary(net, gd, boundary, sources, sinks, parts, depth)
        if full:        # both pieces done: the same separation, globally
            self._audit_separated(gd, sources, sinks, boundary,
                                  f"depth {depth} before the walk")
        self._redistribute_boundary(net, gd, boundary, sources, sinks, depth)
        self._settle_pseudoflow(net, snapshot, sources, sinks)
        self._audit_level_final(gd, sources, sinks, depth)

    def _base_solve(self, g, sources, sinks, depth, kind):
        """Solve g (the input graph, or a Piece below depth 0) directly,
        on one net of its keyed arcs: the input's own rotation and arrays
        at depth 0, one built by graph_arcs below.  A piece's graph is
        read only by the full audit."""
        self.stats.record(LevelRecord(depth, g.n, kind))
        net = graph_arcs(g, self.store) if depth else input_net(g, self.store)
        value, _ = solve_msms_residual(self.store, net, sources, sinks)
        self._emit({"op": "solve_leaf", "depth": depth, "n": g.n, "value": value})
        if self.cfg.audit == "full":
            self._check_sources_blocked(g.graph if depth else g, sources, sinks,
                                        f"depth {depth} {kind} solve")

    def _detach_boundary_terminals(self, gt, sep, sources, sinks):
        """Replace every terminal on the separator cycle with a fresh
        terminal embedded in an incident face, all in one surgery pass.

        The new arc's capacity is the terminal's real directional
        capacity (arcs out of a source, into a sink): large enough that
        the max-flow value is exactly preserved.  It must be finite: the
        arc joins a boundary node to a terminal of the piece, so the source
        push (into the boundary) or the sink push (out of it) would send an
        unbounded flow across it.
        """
        sources = set(sources)
        sinks = set(sinks)
        detaches = []
        for v, anchor in zip(sep.boundary, sep.cycle_darts):
            role = "source" if v in sources else "sink" if v in sinks else None
            if role is None:
                continue
            want_parity = 0 if role == "source" else 1  # out-darts vs in-darts
            cap = sum(gt.caps[d >> 1] for d in gt.rot[v] if (d & 1) == want_parity)
            detaches.append((v, anchor, role, cap))
        if not detaches:
            return gt, sources, sinks
        g, new_nodes = detach_terminal_from_cycle(gt, detaches, self.store)
        for (v, _, role, _), v_new in zip(detaches, new_nodes):
            terminals = sources if role == "source" else sinks
            terminals.remove(v)
            terminals.add(v_new)
            self._emit({"op": "detach_terminal", "node": v, "role": role,
                        "replacement": v_new})
        return g, sources, sinks

    # -- boundary pushes (apex phases) -------------------------------------------

    def _push_boundary(self, net, gd, boundary, sources, sinks, parts, depth):
        """Push the level's sources into the boundary node set, then that
        set into the sinks; the set stands in for the paper's apex, which
        would join every boundary node by infinite-capacity arcs.  That
        leaves the imbalance on the boundary nodes.

        Both pushes run on the level's net, once for both pieces, with the
        values of the two pieces' own pushes.  Every terminal of a push is
        a root of its search tree, so a path meets the boundary set only
        at one end: a source's path ends at the first boundary node it
        meets, and a path of the sink push leaves its boundary node into
        one piece's interior and stays there.  With the set contracted to
        one node, the rest of gd falls apart into those interiors, so each
        push's value is the sum of the pieces'.  The per-piece invariants
        hold afterwards, since the level-wide ones do, and audit=full
        checks them in each piece after each push."""
        store = self.store
        full = self.cfg.audit == "full"
        boundary_set = attach_apex(gd, boundary)
        value, _ = msss_max_flow(store, net, sources, boundary_set)
        self._emit({"op": "push_sources_to_boundary", "depth": depth, "value": value})
        if full:
            for side, (piece, sub_sources, sub_sinks) in enumerate(parts):
                where = f"depth {depth} piece {side} source push"
                seen = self._check_sources_blocked(piece.graph, sub_sources, sub_sinks, where)
                self._check_unreached(seen, (1,), piece.boundary_local, where,
                                      "source reaches a boundary node")

        value, _ = ssms_max_flow(store, net, boundary_set, sinks)
        self._emit({"op": "push_boundary_to_sinks", "depth": depth, "value": value})
        if full:
            for side, (piece, sub_sources, sub_sinks) in enumerate(parts):
                self._audit_separated(piece.graph, sub_sources, sub_sinks, piece.boundary_local,
                                      f"depth {depth} piece {side} apex pushes")

    # -- boundary redistribution -------------------------------------------------

    def _redistribute_boundary(self, net, gd, boundary, sources, sinks, depth):
        """Walk the boundary in cyclic order by same-sign runs; move each
        run's imbalance onto the unwalked suffix, so conservation
        violations drain toward the end.  A run is the maximal stretch
        boundary[i..j], ending by boundary[k - 2], whose imbalances all
        have one sign and are not all zero.  It is one limited flow from
        its nonzero nodes, each a root with its imbalance as its budget,
        into the suffix boundary[j + 1:] taken as a sink set (the other
        way round for deficits), limited to the budgets' sum; its zero
        nodes are plain nodes.  The paper walks one node at a time and
        chains the suffix with infinite-capacity arcs instead; every
        finite cut keeps a chained suffix on one side, so both flows have
        the same value.

        After the run, a run node left overfull reaches no suffix node,
        by max-flow/min-cut with budgeted roots (it has budget left, so
        such a path would have been augmented); no run node ends drained,
        since each sends at most its budget and a zero node conserves;
        and a node that reached no flow path before the run still
        reaches none, since the run only adds reverse residuals along its
        paths.  Those are the walk invariants, at run granularity.  Each
        node's imbalance is read once, before its run, except a run's
        break node: it opens the suffix, so the run may fill it, and it
        is read again to open the next run.  Every run runs on the
        level's net, over the flow the pushes left in the store."""
        store = self.store
        last = len(boundary) - 1
        i = 0
        while i < last:
            budgets, sign, j = {}, 0, i
            while j < last:
                imbalance = inflow(gd, store, boundary[j])
                if imbalance:
                    if sign * imbalance < 0:
                        break
                    sign = imbalance
                    budgets[boundary[j]] = abs(imbalance)
                j += 1
            if not budgets:
                return
            src, dst = budgets, boundary[j:]
            if sign < 0:
                src, dst = dst, src
            pushed, _ = limited_max_flow(store, net, src, dst, sum(budgets.values()))
            if self.trace is not None:
                self._emit({
                    "op": "redistribute", "depth": depth, "index": j - 1,
                    "nodes": list(budgets), "budgets": list(budgets.values()),
                    "pushed": pushed,
                    "boundary_inflow": [inflow(gd, store, b) for b in boundary],
                })
            self._audit_redistribute_iteration(gd, boundary, sources, sinks, j - 1, depth)
            i = j

    # -- settlement ---------------------------------------------------------------

    def _settle_pseudoflow(self, net, snapshot, sources, sinks):
        """Convert the level's pseudoflow into a feasible flow by settling
        its change: snapshot holds the flow of every arc of net.keys when
        the level built its net, after both pieces' recursions, and that
        flow conserves at every non-terminal.  So only the darts whose
        flow moved since then can carry an imbalance, each oriented by the
        sign of its move and carrying its size.  Cancel the cycles of that
        change, then, in the topological order of its remaining darts
        that the cancelling DFS returns, push excess back toward where it
        came from and deficits forward toward where they were headed.

        Settling only the change is exact: the pushes and the walk leave
        no residual path from a source or an overfull node to a sink or a
        drained node, so no drain crosses the saturated cut, and every
        flow between the snapshot's and the current one is within the
        capacities.  The change is keyed by store dart, read against the
        net's heads, and what is taken off it is written back through
        store.apply, which checks every flow.  Ranks, dart lists and
        balances are lists indexed by level node."""
        store = self.store
        head, res = store.head, store.res
        amounts = {}
        for k, before in zip(net.keys, snapshot):
            x = res[2 * k + 1] - before
            if x > 0:
                amounts[2 * k] = x
            elif x:
                amounts[2 * k + 1] = -x
        moved = dict(amounts)
        circulation, order = decompose_acyclic(head, amounts)
        for d, x in circulation.items():
            amounts[d] -= x

        # per level node; a dart list only for the change's nodes
        n = len(net.adj)
        rank = [0] * n
        pos_out = [None] * n
        pos_in = [None] * n
        balance = [0] * n
        for i, v in enumerate(order):
            rank[v] = i
            pos_out[v] = []
            pos_in[v] = []
        for d, x in amounts.items():
            if not x:
                continue
            t, h = head[d ^ 1], head[d]
            if rank[t] >= rank[h]:
                raise SettlementStuck("positive flow darts still contain a cycle")
            pos_out[t].append(d)
            pos_in[h].append(d)
            balance[h] += x
            balance[t] -= x
        terminals = set(sources) | set(sinks)

        # excess drains back toward emitters, then deficits forward
        # toward absorbers; sign turns a deficit into a positive need
        for nodes, darts_at, step, sign, what in (
                (reversed(order), pos_in, 1, 1, "excess"),
                (order, pos_out, 0, -1, "deficit")):
            for v in nodes:
                need = sign * balance[v]
                if v in terminals or need <= 0:
                    continue
                for d in darts_at[v]:
                    take = min(amounts[d], need)
                    if take > 0:
                        amounts[d] -= take
                        balance[v] -= sign * take
                        balance[head[d ^ step]] += sign * take
                        need -= take
                    if need == 0:
                        break
                if need:
                    raise SettlementStuck(f"{what} {need} stranded at node {v}")

        for v in order:
            if v not in terminals and balance[v] != 0:
                raise SettlementStuck(f"node {v} still violates conservation")

        # what was taken off dart d moves arc d >> 1 back toward its
        # snapshot: down for a forward dart, up for a reverse one
        store.apply([(d >> 1, moved[d] - x if d & 1 else x - moved[d])
                     for d, x in amounts.items() if x != moved[d]])

    # -- invariant audits -------------------------------------------------------------

    def _audit_pieces_embedded(self, depth, pieces):
        """The faces each piece inherited are its face walks, all of them
        triangles.  Like the input's own embedding check, not counted in
        audits."""
        if self.cfg.audit != "full":
            return
        for side, piece in enumerate(pieces):
            try:
                piece.graph.check_embedding()
            except (EmbeddingInvalid, Disconnected, NonPlanarEmbedding) as err:
                raise AuditFailure(f"depth {depth} piece {side}: {err}") from err
            if not is_triangulated_biconnected(piece.graph):
                raise AuditFailure(
                    f"depth {depth} piece {side}: not a two-connected triangulation")

    def _audit_separated(self, g, sources, sinks, boundary, where, walk=None):
        """Within g, along residual darts: sources reach neither sinks nor
        boundary, and the boundary does not reach the sinks.  After a walk
        run, walk = (pos, unprocessed, neg) adds the walk invariants: an
        overfull processed node (pos) reaches neither an unprocessed node
        nor a drained processed one (neg), and an unprocessed node reaches
        no drained one.

        One search through one seen array serves every start class, so no
        node is visited twice, and each class marks what it reaches with
        its own mark: sources 1, pos 2, the unprocessed nodes 3, the rest
        of the boundary 4.  A check reads its targets' marks.  Order rule:
        a class is searched before every class it must not reach, so
        sources, then pos, then the unprocessed nodes, then the rest of
        the boundary.  A search skips what an earlier one reached, and
        that hides no violation once the earlier checks pass: the sources'
        reach holds no boundary node and no sink, and pos's holds no
        unprocessed and no drained node, so a node reached earlier leads
        to no node a later check looks for.  A solve therefore fails at
        the same check point as with one search per class; when several
        invariants break at once, the message may name another of them.
        """
        store = self.store
        seen = self._check_sources_blocked(g, sources, sinks, where)
        self._check_unreached(seen, (1,), boundary, where, "source reaches a boundary node")
        if walk is not None:
            pos, unprocessed, neg = walk
            residual_reachable(g, store, pos, seen, 2)
            self._check_unreached(seen, (2,), unprocessed, where,
                                  "overfull processed node reaches an unprocessed node")
            if pos and neg:
                self._check_unreached(seen, (2,), neg, where,
                                      "overfull processed node reaches a drained one")
            residual_reachable(g, store, unprocessed, seen, 3)
            self._check_unreached(seen, (3,), neg, where,
                                  "unprocessed node reaches a drained processed node")
        residual_reachable(g, store, boundary, seen, 4)
        self._check_unreached(seen, (2, 3, 4), sinks, where, "boundary node reaches a sink")

    def _audit_redistribute_iteration(self, gd, boundary, sources, sinks, i, depth):
        """The separation and the three walk invariants once boundary[:i + 1]
        is walked: the walk calls it after each run, with i the run's last
        index, and names it walk step i.  i < len(boundary) - 1, so the
        unprocessed suffix is never empty.  A run keeps the invariants
        (see _redistribute_boundary): a run node left overfull has budget
        left, so by max-flow/min-cut with budgeted roots it reaches no
        suffix node; no run node ends drained; and the run's paths only add
        reverse residuals, so no earlier class reaches more than before.
        Each processed node's balance is read afresh over gd's keyed
        adjacency, which the run's searches use and which holds no chord."""
        if self.cfg.audit != "full":
            return
        res = self.store.res
        adj = gd.keyed_adjacency()
        pos, neg = [], []
        for p in boundary[: i + 1]:
            balance = 0     # net inflow: the flow in over odd darts less the flow out
            for d, _ in adj[p]:
                if d & 1:
                    balance += res[d]
                else:
                    balance -= res[d + 1]
            if balance > 0:
                pos.append(p)
            elif balance < 0:
                neg.append(p)
        self._audit_separated(gd, sources, sinks, boundary, f"depth {depth} walk step {i}",
                              (pos, boundary[i + 1:], neg))

    def _audit_level_final(self, gd, sources, sinks, depth):
        if self.cfg.audit == "none":
            return
        self._check_feasible(gd, sources, sinks,
                             f"depth {depth} settlement: level flow does not conserve")
        self._check_sources_blocked(gd, sources, sinks, f"depth {depth} settlement")


def msms_max_flow(graph: PlanarGraph, sources, sinks,
                  config: EngineConfig | None = None, trace=None) -> MsmsResult:
    """Compute a maximum flow from the source set to the sink set."""
    return MsmsEngine(graph, sources, sinks, config=config, trace=trace).run()
