"""Balanced simple-cycle separators and piece splitting.

The separator is the fundamental cycle of a non-tree arc over a BFS
spanning tree of the triangulated graph, chosen to minimize the larger
strict side (ties: fewer boundary nodes, then lowest arc id).  For a
two-connected triangulation some fundamental cycle always leaves at most
2n/3 nodes strictly on each side; the boundary length is measured and
reported rather than guaranteed by a theorem constant.

Candidate evaluation is O(1) per non-tree arc: the faces enclosed by a
fundamental cycle form a subtree of the dual spanning tree built on the
non-tree arcs, and for a triangulation with k cycle nodes and f enclosed
faces the strictly enclosed node count is (f - k) / 2 + 1.

Sides come from faces: the cycle's arcs cut the faces into two regions,
side 0 holding the face of each cycle dart's reverse, and the Separator
keeps the side of every face.  Every arc and node off the cycle lies on
the side of its faces, boundary chords included.  split_into_pieces
reads those sides and hands each piece its share of the faces plus the
hole, chorded into triangles, so a piece arrives triangulated and no
level walks its faces again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import PreconditionNotTriangulated
from .graph import NO_KEY, PlanarGraph
from .surgery import triangulated

# Documented boundary-size constant: every separator this module returns
# on the supported instance families satisfies k <= BOUNDARY_CONSTANT *
# sqrt(n).  Measured worst case over the acceptance families is 1.75
# (scripts/measure_separator_constant.py); the constant carries margin
# because the classical linear-time construction's 2 * sqrt(2) ~ 2.83 is
# not guaranteed by the BFS-tree fundamental-cycle method used here.
BOUNDARY_CONSTANT = 8.0


@dataclass
class Separator:
    """A Jordan cycle with its two strict sides."""

    boundary: list            # node ids in cycle order
    cycle_darts: list         # dart i runs boundary[i] -> boundary[i+1]
    inside: frozenset         # nodes strictly on side 0 (see _sides)
    outside: frozenset        # nodes strictly on side 1
    n: int
    face_side: list           # side (0 or 1) of every face of the graph

    @property
    def k(self):
        return len(self.boundary)


@dataclass
class Piece:
    """One side of a split, with its map back to the parent graph.

    Arc i of the piece graph corresponds to parent arc parent_arcs[i],
    or None for a zero-capacity arc the split added: the stand-ins that
    keep the boundary ring connected in the piece that does not own the
    cycle arcs, and the chords that triangulate the piece.  Flow keys
    are shared with the parent, so accumulating through a piece updates
    the global assignment directly.
    """

    graph: PlanarGraph
    boundary_local: list      # piece-local ids of the boundary, cycle order
    parent_nodes: list        # piece-local node id -> parent node id
    parent_arcs: list         # piece-local arc id -> parent arc id or None
    local_of: dict = field(default_factory=dict)  # parent node id -> local id


def _bfs_tree(g: PlanarGraph):
    parent = [-1] * g.n
    parent_arc = [-1] * g.n
    depth = [0] * g.n
    seen = bytearray(g.n)
    seen[0] = 1
    queue = deque([0])
    tails, heads = g.tails, g.heads
    while queue:
        v = queue.popleft()
        for d in g.rot[v]:
            w = tails[d >> 1] if d & 1 else heads[d >> 1]
            if not seen[w]:
                seen[w] = 1
                parent[w] = v
                parent_arc[w] = d >> 1
                depth[w] = depth[v] + 1
                queue.append(w)
    return parent, parent_arc, depth


class _Lca:
    def __init__(self, parent, depth):
        n = len(parent)
        self.depth = depth
        levels = max(1, max(depth).bit_length())
        up = [parent[:]]
        for j in range(1, levels):
            prev = up[j - 1]
            up.append([prev[prev[v]] if prev[v] >= 0 else -1 for v in range(n)])
        self.up = up

    def query(self, u, v):
        depth, up = self.depth, self.up
        if depth[u] < depth[v]:
            u, v = v, u
        diff = depth[u] - depth[v]
        j = 0
        while diff:
            if diff & 1:
                u = up[j][u]
            diff >>= 1
            j += 1
        if u == v:
            return u
        for j in range(len(up) - 1, -1, -1):
            if up[j][u] != up[j][v]:
                u = up[j][u]
                v = up[j][v]
        return up[0][u]


def find_cycle_separator(g: PlanarGraph) -> Separator:
    """Balanced simple-cycle separator of a two-connected triangulation.

    On a simple planar embedding with n >= 3 every face is at least
    three long, so all faces are triangles exactly when m = 3n - 6
    (Euler's formula); that O(1) count is the precondition test.
    """
    if g.n < 3 or g.m != 3 * g.n - 6:
        raise PreconditionNotTriangulated(
            "separator requires a two-connected triangulation")
    faces = g.faces()
    face_of = g.dart_faces()
    n = g.n

    parent, parent_arc, depth = _bfs_tree(g)
    in_tree = bytearray(g.m)
    for v in range(n):
        if parent_arc[v] >= 0:
            in_tree[parent_arc[v]] = 1

    # dual spanning tree over the non-tree arcs, rooted at face 0; the root
    # changes no score: seen from the other side of a cycle, inside and
    # outside trade places
    num_faces = len(faces)
    dual_adj = [[] for _ in range(num_faces)]
    for a in range(g.m):
        if not in_tree[a]:
            f1 = face_of[2 * a]
            f2 = face_of[2 * a + 1]
            dual_adj[f1].append((f2, a))
            dual_adj[f2].append((f1, a))
    dual_parent_arc = [-1] * num_faces
    dual_order = [0]
    seen = bytearray(num_faces)
    seen[0] = 1
    queue = deque([0])
    while queue:
        f = queue.popleft()
        for (f2, a) in dual_adj[f]:
            if not seen[f2]:
                seen[f2] = 1
                dual_parent_arc[f2] = a
                dual_order.append(f2)
                queue.append(f2)
    subtree = [1] * num_faces
    child_face = {}
    for f in reversed(dual_order):
        a = dual_parent_arc[f]
        if a >= 0:
            child_face[a] = f
            pf = face_of[2 * a] if face_of[2 * a] != f else face_of[2 * a + 1]
            subtree[pf] += subtree[f]

    lca = _Lca(parent, depth)
    best = None
    for a in range(g.m):
        if in_tree[a]:
            continue
        u, v = g.tails[a], g.heads[a]
        w = lca.query(u, v)
        k = depth[u] + depth[v] - 2 * depth[w] + 1
        f_in = subtree[child_face[a]]
        assert (f_in - k) % 2 == 0
        inside = (f_in - k) // 2 + 1
        outside = n - k - inside
        score = (max(inside, outside), k, a)
        if best is None or score < best:
            best = score
    _, _, a_star = best

    u, v = g.tails[a_star], g.heads[a_star]
    w = lca.query(u, v)
    path_u = []
    x = u
    while x != w:
        path_u.append(x)
        x = parent[x]
    path_v = []
    x = v
    while x != w:
        path_v.append(x)
        x = parent[x]
    boundary = path_u + [w] + list(reversed(path_v))
    # darts along boundary[i] -> boundary[i+1], closing with the non-tree arc
    darts = []
    for i in range(len(boundary)):
        x = boundary[i]
        y = boundary[(i + 1) % len(boundary)]
        if i + 1 < len(boundary):
            a = parent_arc[x] if parent[x] == y else parent_arc[y]
        else:
            a = a_star
        darts.append(2 * a if g.tails[a] == x else 2 * a + 1)

    face_side, inside, outside = _sides(g, darts)
    if not (len(inside) <= 2 * n / 3 and len(outside) <= 2 * n / 3):
        raise AssertionError(
            f"separator balance violated: {len(inside)}/{len(outside)} of {n}")
    return Separator(boundary, darts, frozenset(inside), frozenset(outside), n,
                     face_side)


def _sides(g: PlanarGraph, cycle_darts):
    """Side (0 or 1) of every face, and the nodes strictly on each side.

    The cycle's arcs cut the faces into two regions.  Side 0 is the
    region of the face of each cycle dart's reverse, found by one flood
    from cycle_darts[0] ^ 1 that crosses every arc off the cycle and no
    cycle arc; every face it does not reach is on side 1.  A node off the
    cycle lies on the side of its faces.  Raises AssertionError unless
    every cycle dart has its reverse's face on side 0 and its own on
    side 1.
    """
    faces = g.faces()
    face_of = g.dart_faces()
    tails, heads = g.tails, g.heads
    on_cycle = bytearray(g.m)
    for d in cycle_darts:
        on_cycle[d >> 1] = 1
    side = [1] * len(faces)
    start = face_of[cycle_darts[0] ^ 1]
    side[start] = 0
    stack = [start]
    while stack:
        for d in faces[stack.pop()]:
            if not on_cycle[d >> 1]:
                f = face_of[d ^ 1]
                if side[f]:
                    side[f] = 0
                    stack.append(f)
    _check_orientation(side, face_of, cycle_darts)

    on_cycle_node = bytearray(g.n)
    for d in cycle_darts:
        on_cycle_node[heads[d >> 1] if d & 1 else tails[d >> 1]] = 1
    inside, outside = set(), set()
    for v, r in enumerate(g.rot):
        if not on_cycle_node[v]:
            (outside if side[face_of[r[0]]] else inside).add(v)
    return side, inside, outside


def _check_orientation(side, face_of, cycle_darts):
    for d in cycle_darts:
        if side[face_of[d ^ 1]] or not side[face_of[d]]:
            raise AssertionError(f"cycle dart {d} does not separate side 0 from side 1")


def split_into_pieces(g: PlanarGraph, sep: Separator):
    """Split g along the separator cycle into two triangulated pieces.

    g is the graph sep was found on, or that graph after
    detach_terminal_from_cycle, whose faces keep their numbers; the split
    reads the face sides sep stored and floods nothing.  The first piece
    (side 0) owns the cycle arcs; the second receives zero-capacity
    artificial stand-ins for them so its boundary ring stays connected
    and embedded.  Every other arc, a chord between two boundary nodes
    included, and every detached terminal goes to the piece of the side
    its faces lie on, so every flow-carrying arc of g lands in exactly
    one piece.

    A piece's faces are g's faces on its side, renumbered, plus the hole:
    the one face the other side leaves, bounded by the cycle.  Only the
    hole and the faces around detached terminals are longer than three,
    so only they are chorded (see surgery.triangulated).
    """
    faces = g.faces()
    face_of = g.dart_faces()
    side = sep.face_side
    _check_orientation(side, face_of, sep.cycle_darts)
    arc_side = [side[f] for f in face_of[::2]]
    for d in sep.cycle_darts:
        arc_side[d >> 1] = 0
    strict = (sorted(sep.inside), sorted(sep.outside))
    for v in range(sep.n, g.n):   # detached terminals, numbered after sep's graph
        strict[side[face_of[g.rot[v][0]]]].append(v)
    holes = (sep.cycle_darts, [d ^ 1 for d in reversed(sep.cycle_darts)])

    pieces = []
    for side_id in (0, 1):
        nodes = list(sep.boundary) + strict[side_id]
        local = {p: i for i, p in enumerate(nodes)}
        own = [a for a in range(g.m) if arc_side[a] == side_id]
        stand_ins = [d >> 1 for d in sep.cycle_darts] if side_id else []
        arcs = own + stand_ins
        dart = [-1] * (2 * g.m)      # parent dart -> piece dart
        for i, a in enumerate(arcs):
            dart[2 * a] = 2 * i
            dart[2 * a + 1] = 2 * i + 1
        tails = [local[g.tails[a]] for a in arcs]
        heads = [local[g.heads[a]] for a in arcs]
        caps = [g.caps[a] for a in own] + [0] * len(stand_ins)
        keys = [g.keys[a] for a in own] + [NO_KEY] * len(stand_ins)
        rot = [[dart[d] for d in g.rot[p] if dart[d] >= 0] for p in nodes]
        piece_faces = [[dart[d] for d in walk]
                       for walk, s in zip(faces, side) if s == side_id]
        piece_faces.append([dart[d] for d in holes[side_id]])

        pg = triangulated(tails, heads, caps, keys, rot, piece_faces)
        parent_arcs = own + [None] * (pg.m - len(own))
        pieces.append(Piece(
            graph=pg,
            boundary_local=[local[p] for p in sep.boundary],
            parent_nodes=nodes,
            parent_arcs=parent_arcs,
            local_of=local,
        ))
    return pieces[0], pieces[1]
