"""Embedded directed planar graphs with dart-level bookkeeping.

A graph is a list of capacitated arcs plus a rotation system: for every
node, the clockwise cyclic order of the darts leaving it.  The rotation
system is the single source of truth for the embedding.  Its faces are
walked from it on first use, or given at construction by surgery that
already knows them (a piece inherits its parent's faces).  walk_faces is
the one routine that follows the rotation's face successors:
check_embedding runs it once, over the given faces too, and rejects any
that is not the face walk from its first dart; a given triangle, the
form of every piece's face, is accepted by three successor tests.

Every arc owns two darts.  Dart ``2*a`` points with arc ``a`` and carries
its capacity; dart ``2*a + 1`` points against it and carries capacity
zero.  The reverse of dart ``d`` is ``d ^ 1``.

Arcs carry a *flow key*, the index of their entry in a
:class:`planarflow.flow.FlowStore`.  Artificial zero-capacity arcs that
can never carry flow use ``NO_KEY``.  keyed_adjacency() lists each
node's keyed arcs by store dart and neighbour, for the residual searches
of planarflow.flow.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps

from .errors import (
    Disconnected,
    EmbeddingInvalid,
    NonPlanarEmbedding,
    ParallelArcOrLoop,
    TerminalOverlap,
)

NO_KEY = -1


def collector_paused(func):
    """Run func with Python's cyclic garbage collector disabled, and turn
    it back on afterwards, also when func raises, only if it was on at
    entry, so that paused calls nest.  For code that makes no reference
    cycles: reference counting frees what it drops, and a collector pass
    over what it allocates would reclaim nothing.  The pause is global,
    so other threads get no cyclic collection while func runs."""
    @wraps(func)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()
    return paused


def walk_faces(tails, heads, rot, given=None):
    """Face walks of a rotation system, plus the face index of every dart.

    The given walks come first, in their order: each is followed from its
    first dart, and the first one that is not the face walk starting there
    raises EmbeddingInvalid.  A given triangle is accepted by three
    successor tests, when its first dart is in range and unclaimed; any
    other walk, and a triangle that fails them, is followed dart by dart,
    which names what is wrong.  The faces they leave out follow, each
    starting at its lowest-index dart, in that order.  The successor of
    dart d is the dart after d ^ 1 in the clockwise rotation at the head
    of d.  A bare node, the one graph without darts that embeds, has one
    face: the empty walk.
    """
    num_darts = 2 * len(tails)
    succ = _successors(rot, num_darts)
    face_of = [-1] * num_darts
    faces = [] if given is None else list(given)
    for f, walk in enumerate(faces):
        if len(walk) == 3:      # a triangle: three successor tests
            x, y, z = walk      # (x != y: a loop's one-dart face passes the three)
            if (0 <= x < num_darts and face_of[x] < 0 and x != y
                    and succ[x] == y and succ[y] == z and succ[z] == x):
                face_of[x] = face_of[y] = face_of[z] = f
                continue
        d0 = walk[0] if walk else -1
        if not 0 <= d0 < num_darts or face_of[d0] >= 0:
            raise EmbeddingInvalid(f"given face {f} {walk} is not a face walk")
        d = d0
        for x in walk:
            if x != d or face_of[x] >= 0:
                break
            face_of[x] = f
            d = succ[x]
        else:
            if d == d0:
                continue        # it stepped to each dart's successor and closed
        ref = [d0]
        while succ[ref[-1]] != d0:
            ref.append(succ[ref[-1]])
        raise EmbeddingInvalid(f"given face {f} {walk} disagrees with the face walk {ref}")
    left = num_darts - sum(map(len, faces))      # darts no given walk holds
    for d0 in range(num_darts if left else 0):
        if face_of[d0] >= 0:
            continue
        f = len(faces)
        walk = []
        d = d0
        while face_of[d] < 0:
            face_of[d] = f
            walk.append(d)
            d = succ[d]
        faces.append(walk)
    if not faces and len(rot) == 1:
        faces.append([])
    return faces, face_of


def _successors(rot, num_darts):
    """The successor of every dart in its face walk."""
    succ = [0] * num_darts
    for r in rot:
        if r:
            prev = r[-1]
            for d in r:
                succ[prev ^ 1] = d
                prev = d
    return succ


class PlanarGraph:
    """Immutable embedded directed planar graph.

    Safe to share across concurrent readers; surgery operations return
    new graphs instead of mutating.  The graph takes ownership of the
    lists it is given, the rotation lists too, and copies none of them:
    callers hand over lists that nobody edits afterwards.  faces, when
    given, lists every face walk of the rotation system, in any order and
    from any start dart; face_of, when given with it, is dart_faces().
    Like the faces, keyed_adjacency() is built on first use and kept; it
    holds arcs, never flow, so one graph serves every store state.
    """

    __slots__ = (
        "n", "m", "tails", "heads", "caps", "keys",
        "rot", "_faces", "_face_of", "_adjacency", "_tree",
    )

    def __init__(self, tails, heads, caps, rot, keys=None, faces=None, face_of=None):
        self.tails = tails
        self.heads = heads
        self.caps = caps
        self.rot = rot
        self.n = len(rot)
        self.m = len(tails)
        self.keys = keys if keys is not None else list(range(self.m))
        self._faces = faces
        self._face_of = face_of
        self._adjacency = None
        self._tree = None

    # -- dart accessors ----------------------------------------------------

    def dart_tail(self, d: int) -> int:
        return self.tails[d >> 1] if (d & 1) == 0 else self.heads[d >> 1]

    def dart_head(self, d: int) -> int:
        return self.heads[d >> 1] if (d & 1) == 0 else self.tails[d >> 1]

    # -- embedding ---------------------------------------------------------

    def faces(self):
        """All face walks, each a list of darts: the ones given at
        construction, else those walk_faces finds."""
        if self._faces is None:
            self._faces, self._face_of = walk_faces(self.tails, self.heads, self.rot)
        return self._faces

    def dart_faces(self):
        """The index in faces() of every dart's face, in dart order."""
        if self._face_of is None:
            face_of = [0] * (2 * self.m)
            for f, walk in enumerate(self.faces()):
                if len(walk) == 3:
                    x, y, z = walk
                    face_of[x] = face_of[y] = face_of[z] = f
                else:
                    for d in walk:
                        face_of[d] = f
            self._face_of = face_of
        return self._face_of

    def spanning_tree(self, head=None):
        """bfs_tree(self, head): the one check_embedding built and kept,
        else a fresh one, which is not kept."""
        return self._tree or bfs_tree(self, head)

    @property
    def num_faces(self) -> int:
        return len(self.faces())

    # -- residual structure ------------------------------------------------

    def keyed_adjacency(self):
        """Per node, the (store dart, neighbour) pairs of its keyed arcs,
        in arc order: dart 2k for an out-arc with key k, whose residual is
        cap - flow, and 2k + 1 for an in-arc, whose residual is the flow.
        NO_KEY arcs are left out."""
        if self._adjacency is None:
            adj = [[] for _ in range(self.n)]
            for t, h, k in zip(self.tails, self.heads, self.keys):
                if k != NO_KEY:
                    adj[t].append((2 * k, h))
                    adj[h].append((2 * k + 1, t))
            self._adjacency = adj
        return self._adjacency

    # -- validation --------------------------------------------------------

    def check_embedding(self):
        """Raise unless the rotation system is a planar embedding of a
        connected graph (Euler's formula n - m + f = 2) and the given
        faces, if any, are its face walks.

        One walk_faces call follows the given faces and walks the ones
        they leave out, so a wrong given face is named before Euler's
        check runs, and a missing one is counted after it.  A graph given
        its faces by surgery, a leaf piece checked at audit=full too, keeps
        the checked dart-to-face index as dart_faces() and the
        connectivity test's BFS tree as spanning_tree() for the separator;
        the input, triangulated before any split, keeps neither (its
        dart_faces() is rebuilt from its faces if read).

        Each of the 2m darts must be listed once, at the node it leaves.
        A dart id outside 0..2m - 1 is out of range: a negative one by its
        own test, a larger one where it indexes past the dart arrays."""
        if self.n == 1 and self.m == 0 and not self.rot[0]:
            return  # a bare node embeds in the sphere with one face
        tails, heads, rot = self.tails, self.heads, self.rot
        num_darts = 2 * self.m
        tail = [0] * num_darts
        tail[0::2] = tails
        tail[1::2] = heads
        counts = [0] * num_darts
        try:
            for v, r in enumerate(rot):
                for d in r:
                    if d < 0:
                        raise IndexError(d)
                    if tail[d] != v:
                        raise EmbeddingInvalid(
                            f"dart {d} listed at node {v} but leaves node {tail[d]}")
                    counts[d] += 1
        except IndexError:      # d < 0, or d >= 2m in tail[d]
            raise EmbeddingInvalid(f"dart {d} listed at node {v} is out of range: "
                                   f"the graph has {num_darts} darts") from None
        if counts.count(1) != num_darts:
            d = next(d for d, c in enumerate(counts) if c != 1)
            raise EmbeddingInvalid(f"dart {d} appears {counts[d]} times in the rotation system")
        del tail, counts        # not held through the search and the walk
        tree = bfs_tree(self)
        if -1 in tree[1]:
            raise Disconnected("graph is not connected")
        given = self._faces
        faces, face_of = walk_faces(tails, heads, rot, given)
        if self.n - self.m + len(faces) != 2:
            raise NonPlanarEmbedding(
                f"Euler check failed: n={self.n} m={self.m} f={len(faces)}")
        if given is None:
            self._faces = faces
        elif len(given) != len(faces):
            raise EmbeddingInvalid(
                f"{len(given)} faces given but the rotation system has {len(faces)}")
        else:
            self._tree = tree
            self._face_of = face_of


def dart_heads(g: PlanarGraph):
    """The head of every dart: dart 2a runs to heads[a], dart 2a + 1 to
    tails[a]."""
    head = [0] * (2 * g.m)
    head[0::2] = g.heads
    head[1::2] = g.tails
    return head


def bfs_tree(g: PlanarGraph, head=None):
    """Breadth-first spanning tree from node 0, darts taken in rotation
    order: (parent_dart, depth) per node, each -1 for a node the search
    does not reach; the root has depth 0 and no parent dart.  A node's
    parent dart runs from its parent to it, so the parent is the head of
    its reverse.  head, when given, is dart_heads(g)."""
    parent_dart = [-1] * g.n
    depth = [-1] * g.n
    if g.n == 0:
        return parent_dart, depth
    if head is None:
        head = dart_heads(g)
    rot = g.rot
    depth[0] = 0
    queue = [0]
    for v in queue:
        below = depth[v] + 1
        for d in rot[v]:
            w = head[d]
            if depth[w] < 0:
                parent_dart[w] = d
                depth[w] = below
                queue.append(w)
    return parent_dart, depth


def is_triangulated_biconnected(g: PlanarGraph) -> bool:
    """Every face is a triangle on three distinct nodes: three darts
    whose heads differ pairwise."""
    head = dart_heads(g)
    for walk in g.faces():
        if len(walk) != 3:
            return False
        x, y, z = walk
        a, b, c = head[x], head[y], head[z]
        if a == b or b == c or a == c:
            return False
    return True


@dataclass(frozen=True)
class TerminalSets:
    """Disjoint source and sink node sets."""

    sources: frozenset
    sinks: frozenset

    def __post_init__(self):
        overlap = self.sources & self.sinks
        if overlap:
            # ints sorted, then the other ids, which may not compare, by repr
            ids = [str(v) for v in sorted(v for v in overlap if type(v) is int)]
            ids += sorted(repr(v) for v in overlap if type(v) is not int)
            raise TerminalOverlap(f"nodes [{', '.join(ids)}] are both sources and sinks")


@collector_paused
def build_graph(n, arcs, rotations, labels=None) -> PlanarGraph:
    """Build and validate a PlanarGraph from raw instance data.

    arcs: list of (tail, head, capacity) with 0-based node ids.
    rotations: per node, the incident neighbor ids in clockwise order.
    labels: the name of each node in error messages (default: its id).
    The graph must be simple (no self-loops, at most one arc per
    unordered node pair), connected, and the rotation system must pass
    the Euler check.

    One pass over the arcs checks each arc in turn (endpoints in range,
    not a self-loop, no earlier arc on its node pair, capacity not
    negative) and files its two darts in their tails' neighbor maps.
    The rotation is then read by taking each listed neighbor off its
    node's map: every node lists each of its neighbors exactly once when
    every take finds its neighbor and no map is left holding one.  Only
    when that fails are the sorted neighbor lists compared node by node,
    to name the first node that is wrong.  The maps are let go before
    check_embedding runs.

    The build and its check_embedding run with the cyclic collector
    paused (collector_paused): the graph's lists and maps hold no
    reference cycles, so a collector pass over them would reclaim
    nothing.  Other threads get no cyclic collection during the build.
    """
    def name(v):
        return v if labels is None else labels[v]

    tails, heads, caps = [], [], []
    # per node: neighbor -> dart leaving it; a wrong rotation count is
    # reported after the arc checks, so n is not trusted until then
    incident = [{} for _ in rotations] if len(rotations) == n else defaultdict(dict)
    d = 0                                  # the forward dart of the arc at hand
    for t, h, c in arcs:
        if not (0 <= t < n and 0 <= h < n):
            raise EmbeddingInvalid(f"arc {d // 2}: endpoint out of range")
        if t == h:
            raise ParallelArcOrLoop(f"arc {name(t)} {name(h)} is a self-loop")
        out = incident[t]
        if h in out:
            raise ParallelArcOrLoop(
                f"two arcs join nodes {name(min(t, h))} and {name(max(t, h))}")
        if c < 0:
            raise EmbeddingInvalid(f"arc {name(t)} {name(h)}: negative capacity {c}")
        out[h] = d
        incident[h][t] = d + 1
        d += 2
        tails.append(t)
        heads.append(h)
        caps.append(c)

    if len(rotations) != n:
        raise EmbeddingInvalid(f"expected {n} rotation lines, got {len(rotations)}")
    try:            # each lookup takes its neighbor off the node's map
        rot = [[out.pop(u) for u in nbrs] for out, nbrs in zip(incident, rotations)]
        ok = not any(incident)
    except KeyError:
        ok = False
    del incident    # emptied maps keep their tables; not held through the check
    if not ok:
        neighbors = [[] for _ in range(n)]
        for t, h in zip(tails, heads):
            neighbors[t].append(h)
            neighbors[h].append(t)
        for v, nbrs in enumerate(rotations):
            if sorted(nbrs) != sorted(neighbors[v]):
                raise EmbeddingInvalid(
                    f"node {name(v)}: rotation lists {sorted(map(name, nbrs))} "
                    f"but neighbors are {sorted(map(name, neighbors[v]))}")

    g = PlanarGraph(tails, heads, caps, rot)
    g.check_embedding()
    return g
