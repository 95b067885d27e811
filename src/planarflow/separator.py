"""Balanced simple-cycle separators and piece splitting.

The separator is the fundamental cycle of a non-tree arc over a BFS
spanning tree of the triangulated graph, chosen to minimize the larger
strict side (ties: fewer boundary nodes, then lowest arc id).  For a
two-connected triangulation some fundamental cycle always leaves at most
2n/3 nodes strictly on each side; the boundary length is measured and
reported rather than guaranteed by a theorem constant.

Candidate evaluation is O(1) per non-tree arc, from one pass up the
dual spanning tree that the non-tree arcs form.  That tree is rooted at
a face with node 0, the BFS root, as a corner, so the faces below a
non-tree arc are the side of its cycle that does not strictly hold
node 0.  Two subtree totals then give the cycle: the face count f, and
the least corner depth top, which is the depth of the cycle's top node
lca(u, v), since every node strictly inside the cycle lies deeper.
So the cycle has k = depth(u) + depth(v) - 2 * top + 1 nodes, and for a
triangulation the strictly enclosed node count is (f - k) / 2 + 1.  The
chosen cycle is read off by walking parent darts up to depth top.  One
list of dart heads serves the BFS tree, the corner depths and that walk.
One flood over the faces builds the dual tree and, per face it pops,
also sets the face's own top from its three corners' depths and records
its dual parent, the face it was reached from; the candidate pass and
the side pass read those parents.

Sides come from the same dual tree (tree-cotree duality): cutting the
chosen arc's dual edge splits it into the faces below that edge and the
rest, which are the two regions the cycle's arcs cut the faces into.
Side 0 is the region holding the face of each cycle dart's reverse, and
the Separator keeps the side of every face.  Every arc and node off the
cycle lies on the side of its faces, boundary chords included.
split_into_pieces reads those sides and hands each piece its share of
the faces plus the hole, chorded into triangles, so a piece arrives
triangulated and no level walks its faces again.  It fills each piece's
node maps and arc arrays at once but builds the piece graph (rotations,
faces, chords) on first read, so at audit=none the pieces that never
split, the empty ones and the leaves, are never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import compress

from .errors import InvariantFailure, PreconditionNotTriangulated
from .graph import NO_KEY, PlanarGraph, dart_heads
from .surgery import triangulated

# Documented boundary-size constant: every separator this module returns
# on the supported instance families satisfies k <= BOUNDARY_CONSTANT *
# sqrt(n).  Measured worst case over the acceptance families is 1.75
# (scripts/measure_separator_constant.py); the constant carries margin
# because the classical linear-time construction's 2 * sqrt(2) ~ 2.83 is
# not guaranteed by the BFS-tree fundamental-cycle method used here.
BOUNDARY_CONSTANT = 8.0

# bytes.translate tables that turn a byte mask of sides into the mask of
# side 0, or of side 1; a 2 is on neither
_PICK = (bytes.maketrans(b"\0\1\2", b"\1\0\0"), bytes.maketrans(b"\0\1\2", b"\0\1\0"))


@dataclass
class Separator:
    """A Jordan cycle with its two strict sides."""

    boundary: list            # node ids in cycle order
    cycle_darts: list         # dart i runs boundary[i] -> boundary[i+1]
    inside: list              # nodes strictly on side 0, in id order
    outside: list             # nodes strictly on side 1, in id order
    n: int
    face_side: list           # side (0 or 1) of every face of the graph

    @property
    def k(self):
        return len(self.boundary)


def _dropped():
    raise InvariantFailure("piece graph read after drop_graph let it go")


class Piece:
    """One side of a split, with its map back to the parent graph.

    n, boundary_local (the piece-local ids of the boundary, in cycle
    order), parent_nodes (piece-local node id -> parent node id) and
    local_of (parent node id -> local id) are filled at once.  So are
    tails, heads and keys, the arc arrays of the piece graph: its own
    arcs, in parent arc order, then the stand-ins.  The graph itself,
    rotations, faces and triangulation chords, is built on the first
    read of graph, which then drops what it was built from; the build
    appends the chords to those same arc arrays.  drop_graph lets it go
    again, with parent_arcs, after which neither may be read.

    Arc i of the piece graph corresponds to parent arc parent_arcs[i],
    or None for a zero-capacity arc the split added: the stand-ins that
    keep the boundary ring connected in the piece that does not own the
    cycle arcs, and the chords that triangulate the piece.  Neither
    carries a flow key, so a residual net of the arc arrays is the net
    of the graph, built or not (see solvers.graph_arcs).  Flow keys are
    shared with the parent, so accumulating through a piece updates the
    global assignment directly.
    """

    __slots__ = ("boundary_local", "parent_nodes", "local_of", "tails", "heads",
                 "keys", "_own", "_build", "_graph")

    def __init__(self, boundary_local, parent_nodes, local_of, tails, heads, keys,
                 own, build):
        """own: the parent arcs of the piece's own arcs; build: a call
        that returns the piece graph, made at most once."""
        self.boundary_local = boundary_local
        self.parent_nodes = parent_nodes
        self.local_of = local_of
        self.tails, self.heads, self.keys = tails, heads, keys
        self._own = own
        self._build = build
        self._graph = None

    @property
    def n(self):
        return len(self.parent_nodes)

    @property
    def graph(self) -> PlanarGraph:
        if self._graph is None:
            self._graph = self._build()
            self._build = None
        return self._graph

    def drop_graph(self):
        """Let the graph, or what it would be built from, and the
        parent_arcs list go once nothing will read them again: its level's
        recursion is done and no audit reads the piece.  A later read of
        graph or parent_arcs raises InvariantFailure."""
        self._graph = None
        self._build = _dropped
        self._own = None

    @property
    def parent_arcs(self):
        """Piece-local arc id -> parent arc id, or None for an arc the
        split added; reads graph first, so it too raises once dropped."""
        return self._own + [None] * (self.graph.m - len(self._own))


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

    head = dart_heads(g)
    parent_dart, depth = g.spanning_tree(head)
    in_tree = bytearray(g.m)
    for d in parent_dart[1:]:
        in_tree[d >> 1] = 1

    # The non-tree arcs span the dual.  Rooting it at a face with corner
    # node 0 makes the faces below non-tree arc a the side of a's cycle
    # that does not strictly hold node 0.  Their corners are the cycle's
    # nodes and the nodes strictly inside, whose tree paths to node 0
    # must pass through a cycle node, so the least corner depth below a
    # is the depth of the cycle's top node, lca(tail, head).  One flood
    # builds that tree: per face, its least corner depth top, the dart
    # of its dual parent's walk it was entered by (via) and that parent
    # (par).
    nf = len(faces)
    start = face_of[g.rot[0][0]]
    via, par, top = [-1] * nf, [-1] * nf, [0] * nf
    seen = bytearray(nf)
    seen[start] = 1
    order = [start]
    for f in order:
        x, y, z = walk = faces[f]
        t, dy, dz = depth[head[x]], depth[head[y]], depth[head[z]]
        if dy < t:
            t = dy
        if dz < t:
            t = dz
        top[f] = t
        for d in walk:
            if not in_tree[d >> 1]:
                f2 = face_of[d ^ 1]
                if not seen[f2]:
                    seen[f2] = 1
                    via[f2] = d
                    par[f2] = f
                    order.append(f2)
    count = [1] * nf
    # the least (larger strict side, k, arc), compared field by field;
    # every candidate's larger side is below n
    best_big = best_k = best_a = n
    for f in order[:0:-1]:        # children before parents, the root left out
        d = via[f]
        t = top[f]
        k = depth[head[d]] + depth[head[d ^ 1]] - 2 * t + 1
        c = count[f]
        if (c - k) % 2:
            raise InvariantFailure(
                f"arc {d >> 1}: {c} enclosed faces and {k} cycle nodes "
                "differ in parity")
        enclosed = (c - k) // 2 + 1
        big = n - k - enclosed
        if enclosed > big:
            big = enclosed
        if big < best_big or big == best_big and (
                k < best_k or k == best_k and d >> 1 < best_a):
            best_big, best_k, best_a, best_face = big, k, d >> 1, f
        p = par[f]
        count[p] += c
        if t < top[p]:
            top[p] = t
    a_star, top_depth = best_a, top[best_face]

    # tree paths from both ends of a_star up to the top node
    up_u, up_v = [g.tails[a_star]], [g.heads[a_star]]
    for up in (up_u, up_v):
        while depth[up[-1]] > top_depth:
            up.append(head[parent_dart[up[-1]] ^ 1])
    boundary = up_u + up_v[-2::-1]
    # dart i runs boundary[i] -> boundary[i + 1]: up the tree from the
    # tail, down to the head, and back along a_star
    darts = ([parent_dart[x] ^ 1 for x in up_u[:-1]]
             + [parent_dart[x] for x in up_v[-2::-1]] + [2 * a_star + 1])

    # Cutting a_star's dual edge splits the dual tree into the faces
    # below it and the rest, the two regions the cycle bounds.  Side 0
    # holds the face of every cycle dart's reverse, 2 * a_star among them.
    d = via[best_face]
    below = (d & 1) ^ 1       # best_face holds d ^ 1
    side = [below ^ 1] * nf
    side[best_face] = below
    for f in order[order.index(best_face) + 1:]:
        if side[par[f]] == below:
            side[f] = below
    _check_orientation(side, face_of, darts)

    # a node off the cycle lies on the side of its faces
    on_cycle = bytearray(n)
    for v in boundary:
        on_cycle[v] = 1
    inside, outside = [], []
    for v, r in enumerate(g.rot):
        if not on_cycle[v]:
            (outside if side[face_of[r[0]]] else inside).append(v)
    if not (len(inside) <= 2 * n / 3 and len(outside) <= 2 * n / 3):
        raise InvariantFailure(
            f"separator balance violated: {len(inside)}/{len(outside)} of {n}")
    return Separator(boundary, darts, inside, outside, n, side)


def _check_orientation(side, face_of, cycle_darts):
    for d in cycle_darts:
        if side[face_of[d ^ 1]] or not side[face_of[d]]:
            raise InvariantFailure(f"cycle dart {d} does not separate side 0 from side 1")


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
    so only they are chorded (see surgery.triangulated).  The split
    fills each piece's node maps and arc arrays; rotations, faces and
    chords wait for the first read of piece.graph.
    """
    face_of = g.dart_faces()
    g_tails, g_heads, g_keys, g_rot = g.tails, g.heads, g.keys, g.rot
    side = sep.face_side
    _check_orientation(side, face_of, sep.cycle_darts)
    arc_sides = bytearray(map(side.__getitem__, face_of[::2]))
    for d in sep.cycle_darts:
        arc_sides[d >> 1] = 0
    strict = (list(sep.inside), list(sep.outside))
    for v in range(sep.n, g.n):   # detached terminals, numbered after sep's graph
        strict[side[face_of[g_rot[v][0]]]].append(v)
    stand_ins = [d >> 1 for d in sep.cycle_darts]

    k = sep.k
    pieces = []
    for side_id in (0, 1):
        nodes = list(sep.boundary) + strict[side_id]     # the boundary first
        local = dict(zip(nodes, range(len(nodes))))
        own = list(compress(range(g.m), arc_sides.translate(_PICK[side_id])))
        arcs = own + stand_ins if side_id else own
        tails = list(map(local.__getitem__, map(g_tails.__getitem__, arcs)))
        heads = list(map(local.__getitem__, map(g_heads.__getitem__, arcs)))
        keys = list(map(g_keys.__getitem__, own))
        keys += [NO_KEY] * (len(arcs) - len(own))
        pieces.append(Piece(list(range(k)), nodes, local, tails, heads, keys, own,
                            partial(_build_piece, g, k, sep.n, sep.cycle_darts, side,
                                    side_id, nodes, arcs, len(own), tails, heads, keys)))
    return pieces[0], pieces[1]


def _build_piece(g, k, sep_n, cycle_darts, side, side_id, nodes, arcs, owned,
                 tails, heads, keys):
    """The graph of one side of split_into_pieces: its nodes, the k
    boundary nodes first, and its arcs (the first owned of them its own,
    the rest stand-ins) with the arc arrays the split made for them, plus
    its rotations and faces, chorded.  sep_n, cycle_darts and side are
    the separator's n, cycle_darts and face_side; the piece holds them
    and not the separator, whose strict sides the split has copied."""
    faces = g.faces()
    face_of = g.dart_faces()
    g_caps, g_rot = g.caps, g.rot
    dart = [-1] * (2 * g.m)      # parent dart -> piece dart
    for i, a in enumerate(arcs):
        dart[2 * a] = 2 * i
        dart[2 * a + 1] = 2 * i + 1
    caps = list(map(g_caps.__getitem__, arcs[:owned])) + [0] * (len(arcs) - owned)
    # a boundary node keeps the darts on this side; a strict node's darts
    # all lie on its side
    rot = [[dart[d] for d in g_rot[p] if dart[d] >= 0] for p in nodes[:k]]
    rot += [[dart[d] for d in g_rot[p]] for p in nodes[k:]]
    # Every face is a triangle but the ones a detach grew, each holding
    # its terminal's dart.  Triangles are copied by unpacking; the grown
    # faces, marked 2 so neither side picks them there, go after them,
    # which changes nothing, since triangulated sorts the faces it chords.
    grown = {face_of[g_rot[v][0]] for v in range(sep_n, g.n)}
    face_sides = bytearray(side)
    for f in grown:
        face_sides[f] = 2
    piece_faces = [[dart[x], dart[y], dart[z]]
                   for x, y, z in compress(faces, face_sides.translate(_PICK[side_id]))]
    piece_faces += [[dart[d] for d in faces[f]] for f in grown if side[f] == side_id]
    hole = (cycle_darts if side_id == 0
            else [d ^ 1 for d in reversed(cycle_darts)])
    piece_faces.append([dart[d] for d in hole])
    return triangulated(tails, heads, caps, keys, rot, piece_faces)
