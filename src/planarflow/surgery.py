"""Embedding surgery that preserves the maximum flow value.

All operations here edit a combinatorial embedding by inserting darts at
face corners.  A corner of a face walk sits at the head of each walk
dart; a new dart leaving that node lands inside the face when it is
spliced into the rotation immediately after the reverse of the walk
dart.  Everything below is built from that one splice rule.

Added arcs are either zero-capacity (triangulation and biconnection
chords, which can never carry flow) or terminal attachments at least as
large as the terminal's own capacity, so the maximum flow value between
any terminal sets is unchanged.  The apex of a level's boundary pushes
adds nothing either: the engine pushes into and out of the boundary node
set that stands in for it.

A face whose corners are all distinct is chorded ear by ear, at O(1) per
chord, with exactly the chords the general candidate search would add.

Surgery keeps the faces along with the rotations: each edit knows the
walks its darts land in, so its result carries its face list and no
face is walked again.  triangulate_and_biconnect, which runs once on the
input graph, checks its result; the rest trust their construction (the
engine re-checks every piece under audit=full).
"""

from __future__ import annotations

from collections import deque

from .errors import FaceNotIncident
from .flow import FlowStore
from .graph import NO_KEY, PlanarGraph


class EmbeddingEditor:
    """Arc arrays and rotations edited in place: it owns the lists it is
    given, the rotation lists too.  Whether two nodes are adjacent is
    read from a neighbour set built on first use per node, so an edit
    costs only what it touches."""

    def __init__(self, tails, heads, caps, keys, rot):
        self.tails, self.heads, self.caps, self.keys = tails, heads, caps, keys
        self.rot = rot
        self._nbrs = {}

    def dart_head(self, d):
        return self.heads[d >> 1] if (d & 1) == 0 else self.tails[d >> 1]

    def adjacent(self, u, v):
        nbrs = self._nbrs.get(u)
        if nbrs is None:
            nbrs = self._nbrs[u] = {self.dart_head(d) for d in self.rot[u]}
        return v in nbrs

    def link(self, u, v, after_u, after_v):
        """Add a zero-capacity arc u -> v whose darts land right after
        after_u in u's rotation and right after after_v in v's; returns
        its darts (du, dv), the objects the rotations hold, for the face
        walks to share."""
        a = len(self.tails)
        self.tails.append(u)
        self.heads.append(v)
        self.caps.append(0)
        self.keys.append(NO_KEY)
        for x, y in ((u, v), (v, u)):
            if x in self._nbrs:
                self._nbrs[x].add(y)
        du, dv = 2 * a, 2 * a + 1
        ru, rv = self.rot[u], self.rot[v]
        ru.insert(ru.index(after_u) + 1, du)
        rv.insert(rv.index(after_v) + 1, dv)
        return du, dv

    def add_chord(self, walk, s, t):
        """Add a zero-capacity arc between corners s and t of a face walk.

        Returns (arc, walk1, walk2) where the two walks are the faces the
        chord splits the old face into: walk1 contains the new forward
        dart, walk2 the reverse.
        """
        du, dv = self.link(self.dart_head(walk[s]), self.dart_head(walk[t]),
                           walk[s] ^ 1, walk[t] ^ 1)
        r = len(walk)
        walk1 = [du] + [walk[(t + 1 + i) % r] for i in range((s - t) % r)]
        walk2 = [dv] + [walk[(s + 1 + i) % r] for i in range((t - s) % r)]
        return du >> 1, walk1, walk2


def _spliced(seq, after, items):
    """A copy of seq with items inserted right after the element after."""
    i = seq.index(after) + 1
    return seq[:i] + items + seq[i:]


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


def _triangulate(ed: EmbeddingEditor, stack):
    """Chord the face walks on the worklist down to triangles on three
    distinct nodes, and return those triangles.  The worklist is a stack:
    the last walk is chorded first and both halves go back on it.  Walks
    of length <= 3 are done: with no loops, their corners are distinct.
    A longer walk that visits a node twice gets a biconnection chord
    where one fits, any other walk the first chord by increasing gap.  A
    simple walk of length >= 4 always has one: two chords with
    interleaved ends cannot both run outside the disc it bounds, so its
    corners are not a clique.

    A walk with distinct corners is cut ear by ear instead, at O(1) per
    chord: its first candidate is the corner pair (0, 2), which cuts off
    the ear [dv, w[1], w[2]], and the rest [du] + w[3:] + [w[0]] is the
    walk the stack would pop next.  Only a blocked ear sends the rest to
    the candidate loop, so the chords and triangles come out exactly as
    that loop alone makes them."""
    heads, tails = ed.heads, ed.tails
    done = []
    while stack:
        walk = stack.pop()
        if len(walk) <= 3:
            done.append(walk)
            continue
        nodes = [tails[d >> 1] if d & 1 else heads[d >> 1] for d in walk]
        if len(set(nodes)) == len(nodes):
            rest = deque(walk)
            while len(rest) > 3:
                u, v = ed.dart_head(rest[0]), ed.dart_head(rest[2])
                if ed.adjacent(u, v):
                    break
                w0, w1, w2 = rest.popleft(), rest.popleft(), rest.popleft()
                du, dv = ed.link(u, v, w0 ^ 1, w2 ^ 1)
                done.append([dv, w1, w2])
                rest.appendleft(du)
                rest.append(w0)
            walk = list(rest)
            if len(walk) <= 3:
                done.append(walk)
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
    return done


def triangulated(tails, heads, caps, keys, rot, faces) -> PlanarGraph:
    """The graph of these arrays (which it takes over) and face walks,
    with every face longer than three chorded into triangles.

    The worklist holds just the long faces, in walk_faces order: each
    walk turned to start at its lowest dart, the walks sorted by that
    dart.  So the chords depend only on the embedding, not on how the
    faces were found or numbered.  Faces of length <= 3 are kept as given.
    """
    ed = EmbeddingEditor(tails, heads, caps, keys, rot)
    kept, stack = [], []
    for walk in faces:
        if len(walk) <= 3:
            kept.append(walk)
        else:
            i = walk.index(min(walk))
            stack.append(walk[i:] + walk[:i])
    stack.sort()
    faces = kept + _triangulate(ed, stack)
    return PlanarGraph(tails, heads, caps, rot, keys=keys, faces=faces)


def triangulate_and_biconnect(g: PlanarGraph) -> PlanarGraph:
    """Return a simple two-connected triangulation of g, checked.

    Added arcs have zero capacity in both dart directions and no flow
    key, so the maximum flow between any terminal sets is exactly that of
    the input.  The result carries its faces.  Requires n >= 3.
    """
    if g.n < 3:
        raise ValueError("triangulation requires at least 3 nodes")
    gt = triangulated(list(g.tails), list(g.heads), list(g.caps), list(g.keys),
                      [list(r) for r in g.rot], g.faces())
    gt.check_embedding()
    return gt


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

    The graph is g's arrays plus the new arcs.  It carries g's faces,
    with each new arc's two darts spliced into the walk of its corner
    right after anchor_dart ^ 1, and g's dart_faces() extended to match;
    it is not re-checked.
    """
    tails, heads, caps, keys = list(g.tails), list(g.heads), list(g.caps), list(g.keys)
    rot = list(g.rot)
    faces = list(g.faces())
    face_of = list(g.dart_faces())
    new_nodes = []
    for v, anchor_dart, role, cap in detaches:
        if role not in ("source", "sink"):
            raise ValueError("role must be 'source' or 'sink'")
        if g.dart_tail(anchor_dart) != v:
            raise FaceNotIncident(f"dart {anchor_dart} does not leave node {v}")
        v_new = len(rot)
        a = len(tails)
        if role == "source":
            tails.append(v_new)
            heads.append(v)
            dart_at_new, dart_at_v = 2 * a, 2 * a + 1
        else:
            tails.append(v)
            heads.append(v_new)
            dart_at_v, dart_at_new = 2 * a, 2 * a + 1
        caps.append(cap)
        keys.append(store.new_key(cap))
        rot.append([dart_at_new])
        rot[v] = _spliced(rot[v], anchor_dart, [dart_at_v])
        f = face_of[anchor_dart ^ 1]
        faces[f] = _spliced(faces[f], anchor_dart ^ 1, [dart_at_v, dart_at_new])
        face_of += (f, f)
        new_nodes.append(v_new)
    return PlanarGraph(tails, heads, caps, rot, keys=keys, faces=faces,
                       face_of=face_of), new_nodes

