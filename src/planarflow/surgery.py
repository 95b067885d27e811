"""Embedding surgery that preserves the maximum flow value.

All operations here edit a combinatorial embedding by inserting darts at
face corners.  A corner of a face walk sits at the head of each walk
dart; a new dart leaving that node lands inside the face when it is
spliced into the rotation immediately after the reverse of the walk
dart.  Everything below is built from that one splice rule.

Added arcs are either zero-capacity (triangulation and biconnection
chords, which can never carry flow) or infinite-capacity terminal and
apex attachments, so the maximum flow value between any terminal sets
is unchanged.
"""

from __future__ import annotations

from .errors import BoundaryNotOnCommonFace, FaceNotIncident
from .flow import FlowStore
from .graph import NO_KEY, PlanarGraph, is_triangulated_biconnected, walk_faces


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

    def add_node(self):
        self.rot.append([])
        return len(self.rot) - 1

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


def _walk_nodes(ed, walk):
    return [ed.dart_head(d) for d in walk]


def _make_biconnected(ed: EmbeddingEditor):
    """Chord face corners around repeated face-walk visits until every
    walk is simple (equivalent to two-connectedness for n >= 3)."""
    while True:
        progress = False
        clean = True
        for walk in ed.faces():
            nodes = _walk_nodes(ed, walk)
            first = {}
            dup_pairs = []
            for i, v in enumerate(nodes):
                if v in first:
                    dup_pairs.append((first[v], i))
                first[v] = i
            if not dup_pairs:
                continue
            clean = False
            r = len(walk)
            for s, t in dup_pairs:
                a = nodes[(s + 1) % r]
                b = nodes[(t + 1) % r]
                if a != b and not ed.adjacent(a, b):
                    ed.add_chord(walk, (s + 1) % r, (t + 1) % r)
                    progress = True
                    break
            if progress:
                break
        if clean:
            return
        if not progress:
            raise AssertionError("biconnection could not place a chord")


def _triangulate_faces(ed: EmbeddingEditor):
    """Chord every face down to triangles.  A face of length >= 4 in a
    simple biconnected planar embedding always has two non-adjacent
    corners (its corner set cannot be a clique), so the scan succeeds."""
    stack = [w for w in ed.faces() if len(w) > 3]
    while stack:
        walk = stack.pop()
        if len(walk) <= 3:
            continue
        nodes = _walk_nodes(ed, walk)
        r = len(walk)
        placed = False
        for gap in range(2, r - 1):
            for s in range(r):
                t = (s + gap) % r
                if nodes[s] != nodes[t] and not ed.adjacent(nodes[s], nodes[t]):
                    _, w1, w2 = ed.add_chord(walk, s, t)
                    stack.append(w1)
                    stack.append(w2)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            raise AssertionError(f"face of length {r} has no addable chord")


def triangulate_and_biconnect(g: PlanarGraph) -> PlanarGraph:
    """Return a simple two-connected triangulation of g.

    Added arcs have zero capacity in both dart directions and no flow
    key, so the maximum flow between any terminal sets is exactly that of
    the input.  Requires n >= 3.
    """
    if g.n < 3:
        raise ValueError("triangulation requires at least 3 nodes")
    ed = EmbeddingEditor(g)
    _make_biconnected(ed)
    _triangulate_faces(ed)
    out = ed.freeze()
    if not is_triangulated_biconnected(out):
        raise AssertionError("triangulation left a face that is not a triangle")
    return out


def detach_terminal_from_cycle(g: PlanarGraph, v: int, anchor_dart: int,
                               role: str, store: FlowStore, cap: int):
    """Replace terminal v with a fresh terminal v' embedded next to it.

    v' lands in the face at the corner after anchor_dart (a dart leaving
    v), joined to v by one arc: v' -> v for sources, v -> v' for sinks.
    With cap at least v's real directional capacity the arc never
    constrains the terminal, so the max-flow value with v' substituted
    for v in the terminal set is unchanged.  Returns (graph, v').
    """
    if role not in ("source", "sink"):
        raise ValueError("role must be 'source' or 'sink'")
    if g.dart_tail(anchor_dart) != v:
        raise FaceNotIncident(f"dart {anchor_dart} does not leave node {v}")
    ed = EmbeddingEditor(g)
    v_new = ed.add_node()
    key = store.new_key(cap)
    if role == "source":
        a = ed._new_arc(v_new, v, cap, key)
        dart_at_new, dart_at_v = 2 * a, 2 * a + 1
    else:
        a = ed._new_arc(v, v_new, cap, key)
        dart_at_v, dart_at_new = 2 * a, 2 * a + 1
    ed.rot[v_new] = [dart_at_new]
    ed._splice_after(v, anchor_dart, dart_at_v)
    return ed.freeze(), v_new


def attach_apex(g: PlanarGraph, boundary, store: FlowStore, inf_cap: int):
    """Embed an apex node in the face shared by all boundary nodes and
    join it to each of them with an infinite-capacity arc pair.

    Returns (graph, apex).  Raises BoundaryNotOnCommonFace when no face
    walk touches every boundary node.
    """
    want = set(boundary)
    hole = None
    for walk in g.faces():
        if want <= {g.dart_head(d) for d in walk}:
            hole = walk
            break
    if hole is None:
        raise BoundaryNotOnCommonFace(
            f"no face contains all {len(want)} boundary nodes")

    # first corner of each boundary node along the hole walk
    entry = {}
    for d in hole:
        h = g.dart_head(d)
        if h in want and h not in entry:
            entry[h] = d

    ed = EmbeddingEditor(g)
    apex = ed.add_node()
    walk_order = [g.dart_head(d) for d in hole if g.dart_head(d) in want]
    seen = set()
    ordered = [b for b in walk_order if not (b in seen or seen.add(b))]
    at_apex = []
    for b in ordered:
        key_in = store.new_key(inf_cap)
        key_out = store.new_key(inf_cap)
        a_in = ed._new_arc(b, apex, inf_cap, key_in)    # b -> apex
        a_out = ed._new_arc(apex, b, inf_cap, key_out)  # apex -> b
        to_apex = 2 * a_in          # dart b -> apex
        from_apex_rev = 2 * a_out + 1  # dart b -> apex direction of the out arc
        ed._splice_after(b, entry[b] ^ 1, from_apex_rev)
        ed._splice_after(b, entry[b] ^ 1, to_apex)
        # at the apex: reverse walk order, out-arc dart then in-arc reverse
        at_apex.append((2 * a_out, 2 * a_in + 1))
    ed.rot[apex] = [d for pair in reversed(at_apex) for d in pair]
    return ed.freeze(), apex
