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

Faces are chorded on plain arrays by _triangulate, whose neighbour sets
(a dict local to the call, one set per node built on first use) answer
whether a chord's ends are already adjacent.  A face with distinct
corners is cut ear by ear at O(1) per chord, with exactly the chords of
the general candidate search, and splices inline: one call per chord
made triangulate_and_biconnect 1.07x slower on grid n = 1,600.

Surgery keeps the faces along with the rotations: each edit knows the
walks its darts land in, so its result carries its face list and no
face is walked again.  triangulate_and_biconnect, which runs once on the
input graph, checks its result; the rest trust their construction (the
engine re-checks every piece under audit=full).
"""

from __future__ import annotations

from .errors import FaceNotIncident, InvariantFailure, PlanarFlowError
from .flow import FlowStore
from .graph import NO_KEY, PlanarGraph


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


def _triangulate(tails, heads, caps, keys, rot, stack):
    """Chord the face walks on the worklist down to triangles on three
    distinct nodes, and return those triangles.  Chords are appended to
    the arc lists and spliced into rot in place.  The worklist is a stack:
    the last walk is chorded first and both halves go back on it.  Walks
    of length <= 3 are done: with no loops, their corners are distinct.
    A longer walk that visits a node twice gets a biconnection chord
    where one fits, any other walk the first chord by increasing gap.  A
    simple walk of length >= 4 always has one: two chords with
    interleaved ends cannot both run outside the disc it bounds, so its
    corners are not a clique.

    Adjacency is read from nbrs, this call's neighbour sets: a node's set
    is built from its rotation on first use, and each chord adds its ends
    to the sets already built.  A walk with distinct corners is cut ear
    by ear instead, at O(1) per chord: its first candidate is the corner
    pair (0, 2), which cuts off the ear [dv, w[1], w[2]], and the rest
    [du] + w[3:] + [w[0]] is the walk the stack would pop next.  Only a
    blocked ear sends the rest to the candidate loop, so the chords and
    triangles come out exactly as that loop alone makes them.  Both paths
    splice inline, since a call per ear costs about 7% here."""
    nbrs, done = {}, []
    while stack:
        walk = stack.pop()
        if len(walk) <= 3:
            done.append(walk)
            continue
        nodes = [tails[d >> 1] if d & 1 else heads[d >> 1] for d in walk]
        if len(set(nodes)) == len(nodes):
            # walk[i:] is the rest and nodes[i:] its corners; an ear
            # takes walk[i:i + 3], puts du in walk[i + 2] and walk[i] at
            # the end, and moves i on by two
            i = 0
            while len(walk) - i > 3:
                u, v = nodes[i], nodes[i + 2]
                near = nbrs.get(u)
                if near is None:
                    near = nbrs[u] = {tails[d >> 1] if d & 1 else heads[d >> 1]
                                      for d in rot[u]}
                if v in near:
                    break
                near.add(v)
                if v in nbrs:
                    nbrs[v].add(u)
                du = 2 * len(tails)
                dv = du + 1
                tails.append(u)
                heads.append(v)
                caps.append(0)
                keys.append(NO_KEY)
                w0, w2 = walk[i], walk[i + 2]
                r = rot[u]
                r.insert(r.index(w0 ^ 1) + 1, du)
                r = rot[v]
                r.insert(r.index(w2 ^ 1) + 1, dv)
                done.append([dv, walk[i + 1], w2])
                walk[i + 2] = du
                walk.append(w0)
                nodes.append(u)
                i += 2
            walk, nodes = walk[i:], nodes[i:]
            if len(walk) <= 3:
                done.append(walk)
                continue
        for s, t in _chord_candidates(nodes):
            u, v = nodes[s], nodes[t]
            near = nbrs.get(u)
            if near is None:
                near = nbrs[u] = {tails[d >> 1] if d & 1 else heads[d >> 1]
                                  for d in rot[u]}
            if u == v or v in near:
                continue
            near.add(v)
            if v in nbrs:
                nbrs[v].add(u)
            du = 2 * len(tails)
            dv = du + 1
            tails.append(u)
            heads.append(v)
            caps.append(0)
            keys.append(NO_KEY)
            r = rot[u]
            r.insert(r.index(walk[s] ^ 1) + 1, du)
            r = rot[v]
            r.insert(r.index(walk[t] ^ 1) + 1, dv)
            n, ww = len(walk), walk + walk
            stack.append([du] + ww[t + 1:t + 1 + (s - t) % n])
            stack.append([dv] + ww[s + 1:s + 1 + (t - s) % n])
            break
        else:
            raise InvariantFailure(f"face of length {len(walk)} has no addable chord")
    return done


def triangulated(tails, heads, caps, keys, rot, faces) -> PlanarGraph:
    """The graph of these arrays (which it takes over) and face walks,
    with every face longer than three chorded into triangles.

    The worklist holds just the long faces, in walk_faces order: each
    walk turned to start at its lowest dart, the walks sorted by that
    dart.  So the chords depend only on the embedding, not on how the
    faces were found or numbered.  Faces of length <= 3 are kept as given.
    """
    kept, stack = [], []
    for walk in faces:
        if len(walk) <= 3:
            kept.append(walk)
        else:
            i = walk.index(min(walk))
            stack.append(walk[i:] + walk[:i])
    stack.sort()
    faces = kept + _triangulate(tails, heads, caps, keys, rot, stack)
    return PlanarGraph(tails, heads, caps, rot, keys=keys, faces=faces)


def triangulate_and_biconnect(g: PlanarGraph) -> PlanarGraph:
    """Return a simple two-connected triangulation of g, checked.

    Added arcs have zero capacity in both dart directions and no flow
    key, so the maximum flow between any terminal sets is exactly that of
    the input.  The result carries its faces.  Requires n >= 3.  A result
    that fails its embedding check raises InvariantFailure.
    """
    if g.n < 3:
        raise ValueError("triangulation requires at least 3 nodes")
    gt = triangulated(list(g.tails), list(g.heads), list(g.caps), list(g.keys),
                      [list(r) for r in g.rot], g.faces())
    try:
        gt.check_embedding()
    except PlanarFlowError as err:     # EmbeddingInvalid, Disconnected, NonPlanarEmbedding
        raise InvariantFailure(f"triangulated input: {type(err).__name__}: {err}") from err
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

