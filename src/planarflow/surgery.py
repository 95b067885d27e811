"""Embedding surgery that preserves the maximum flow value.

All operations here edit a combinatorial embedding by inserting darts at
face corners.  A corner of a face walk sits at the head of each walk
dart; a new dart leaving that node lands inside the face when it is
spliced into the rotation immediately after the reverse of the walk
dart.  Everything below is built from that one splice rule.

Added arcs are either zero-capacity (triangulation and biconnection
chords, which can never carry flow) or terminal attachments at least as
large as the terminal's own capacity, so the maximum flow value between
any terminal sets is unchanged.  The apex of the per-piece pushes is not
embedded at all: attach_apex only lists its arcs for the solvers.
"""

from __future__ import annotations

from .errors import FaceNotIncident
from .flow import FlowStore
from .graph import NO_KEY, PlanarGraph, walk_faces


class EmbeddingEditor:
    """Mutable copy of a PlanarGraph for surgery; freeze() re-validates."""

    def __init__(self, g: PlanarGraph):
        self.tails = list(g.tails)
        self.heads = list(g.heads)
        self.caps = list(g.caps)
        self.keys = list(g.keys)
        self.rot = [list(r) for r in g.rot]
        self.pairs = g.adjacency_pairs()

    def dart_head(self, d):
        return self.heads[d >> 1] if (d & 1) == 0 else self.tails[d >> 1]

    def adjacent(self, u, v):
        return ((u, v) if u < v else (v, u)) in self.pairs

    def _new_arc(self, u, v, cap, key):
        a = len(self.tails)
        self.tails.append(u)
        self.heads.append(v)
        self.caps.append(cap)
        self.keys.append(key)
        self.pairs.add((u, v) if u < v else (v, u))
        return a

    def _splice_after(self, node, anchor, dart):
        r = self.rot[node]
        r.insert(r.index(anchor) + 1, dart)

    def add_chord(self, walk, s, t):
        """Add a zero-capacity arc between corners s and t of a face walk.

        Returns (arc, walk1, walk2) where the two walks are the faces the
        chord splits the old face into: walk1 contains the new forward
        dart, walk2 the reverse.
        """
        u = self.dart_head(walk[s])
        v = self.dart_head(walk[t])
        a = self._new_arc(u, v, 0, NO_KEY)
        du, dv = 2 * a, 2 * a + 1
        self._splice_after(u, walk[s] ^ 1, du)
        self._splice_after(v, walk[t] ^ 1, dv)
        r = len(walk)
        walk1 = [du] + [walk[(t + 1 + i) % r] for i in range((s - t) % r)]
        walk2 = [dv] + [walk[(s + 1 + i) % r] for i in range((t - s) % r)]
        return a, walk1, walk2

    def faces(self):
        return walk_faces(self.tails, self.heads, self.rot)[0]

    def freeze(self) -> PlanarGraph:
        g = PlanarGraph(self.tails, self.heads, self.caps, self.rot, keys=self.keys)
        g.check_embedding()
        return g


def _chord_candidates(nodes):
    """Corner pairs (s, t) to try, in order: first the corners after two
    consecutive visits of a repeated node (a biconnection chord), then
    every pair by increasing gap (a triangulation chord)."""
    r = len(nodes)
    last = {}
    for i, v in enumerate(nodes):
        if v in last:
            yield (last[v] + 1) % r, (i + 1) % r
        last[v] = i
    for gap in range(2, r - 1):
        for s in range(r):
            yield s, (s + gap) % r


def _triangulate(ed: EmbeddingEditor):
    """Chord every face down to a triangle on three distinct nodes, from
    one worklist of face walks.  Walks of length <= 3 are done: with no
    loops, their corners are distinct.  A longer walk that visits a node
    twice gets a biconnection chord where one fits, any other walk the
    first chord by increasing gap.  A simple walk of length >= 4 always
    has one: two chords with interleaved ends cannot both run outside the
    disc it bounds, so its corners are not a clique."""
    heads, tails = ed.heads, ed.tails
    stack = [w for w in ed.faces() if len(w) > 3]
    while stack:
        walk = stack.pop()
        if len(walk) <= 3:
            continue
        nodes = [tails[d >> 1] if d & 1 else heads[d >> 1] for d in walk]
        for s, t in _chord_candidates(nodes):
            if nodes[s] != nodes[t] and not ed.adjacent(nodes[s], nodes[t]):
                _, w1, w2 = ed.add_chord(walk, s, t)
                stack.append(w1)
                stack.append(w2)
                break
        else:
            raise AssertionError(f"face of length {len(walk)} has no addable chord")


def triangulate_and_biconnect(g: PlanarGraph) -> PlanarGraph:
    """Return a simple two-connected triangulation of g.

    Added arcs have zero capacity in both dart directions and no flow
    key, so the maximum flow between any terminal sets is exactly that of
    the input.  Requires n >= 3.
    """
    if g.n < 3:
        raise ValueError("triangulation requires at least 3 nodes")
    ed = EmbeddingEditor(g)
    _triangulate(ed)
    return ed.freeze()


def detach_terminal_from_cycle(g: PlanarGraph, detaches, store: FlowStore):
    """Replace terminals with fresh terminals embedded next to them.

    detaches lists (v, anchor_dart, role, cap), one entry per terminal,
    at distinct nodes v.  Each v' lands in the face at the corner after
    anchor_dart (a dart leaving v), joined to v by one arc: v' -> v for
    sources, v -> v' for sinks, with a fresh flow key of capacity cap.
    With cap at least v's real directional capacity the arc never
    constrains the terminal, so the max-flow value with v' substituted
    for v in the terminal set is unchanged.  New nodes and arcs are
    numbered in entry order.  Returns (graph, new_nodes).
    """
    ed = EmbeddingEditor(g)
    new_nodes = []
    for v, anchor_dart, role, cap in detaches:
        if role not in ("source", "sink"):
            raise ValueError("role must be 'source' or 'sink'")
        if g.dart_tail(anchor_dart) != v:
            raise FaceNotIncident(f"dart {anchor_dart} does not leave node {v}")
        v_new = len(ed.rot)
        key = store.new_key(cap)
        if role == "source":
            a = ed._new_arc(v_new, v, cap, key)
            dart_at_new, dart_at_v = 2 * a, 2 * a + 1
        else:
            a = ed._new_arc(v, v_new, cap, key)
            dart_at_v, dart_at_new = 2 * a, 2 * a + 1
        ed.rot.append([dart_at_new])
        ed._splice_after(v, anchor_dart, dart_at_v)
        new_nodes.append(v_new)
    return ed.freeze(), new_nodes


def attach_apex(g: PlanarGraph, boundary, inf_cap: int):
    """Join a virtual apex node g.n, not embedded, to every boundary node.

    Returns (apex, arcs): per boundary node b in order, the arcs b -> apex
    and apex -> b of capacity inf_cap, in the unkeyed scratch form
    (tail, head, res_fwd, res_rev) whose flow never reaches the store.
    """
    apex = g.n
    arcs = []
    for b in boundary:
        arcs.append((b, apex, inf_cap, 0))
        arcs.append((apex, b, inf_cap, 0))
    return apex, arcs
