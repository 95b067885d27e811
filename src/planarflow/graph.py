"""Embedded directed planar graphs with dart-level bookkeeping.

A graph is a list of capacitated arcs plus a rotation system: for every
node, the clockwise cyclic order of the darts leaving it.  The rotation
system is the single source of truth for the embedding; faces are derived
from it and never stored independently.

Every arc owns two darts.  Dart ``2*a`` points with arc ``a`` and carries
its capacity; dart ``2*a + 1`` points against it and carries capacity
zero.  ``rev(d) == d ^ 1``.

Arcs carry a *flow key*, the index of their entry in a
:class:`planarflow.flow.FlowStore`.  Artificial zero-capacity arcs that
can never carry flow use ``NO_KEY``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    Disconnected,
    EmbeddingInvalid,
    NonPlanarEmbedding,
    ParallelArcOrLoop,
    TerminalOverlap,
)

NO_KEY = -1


def rev(d: int) -> int:
    """The opposite dart of the same arc."""
    return d ^ 1


def walk_faces(tails, heads, rot):
    """Face walks of a rotation system, plus the face index of every dart.

    Walks start at their lowest-index dart and are listed in that order.
    The successor of dart d is the dart after rev(d) in the clockwise
    rotation at the head of d.
    """
    num_darts = 2 * len(tails)
    pos = [0] * num_darts
    for r in rot:
        for i, d in enumerate(r):
            pos[d] = i
    face_of = [-1] * num_darts
    faces = []
    for d0 in range(num_darts):
        if face_of[d0] >= 0:
            continue
        f = len(faces)
        walk = []
        d = d0
        while face_of[d] < 0:
            face_of[d] = f
            walk.append(d)
            r = rot[tails[d >> 1] if d & 1 else heads[d >> 1]]
            d = r[(pos[d ^ 1] + 1) % len(r)]
        faces.append(walk)
    return faces, face_of


class PlanarGraph:
    """Immutable embedded directed planar graph.

    Safe to share across concurrent readers; surgery operations return
    new graphs instead of mutating.
    """

    __slots__ = (
        "n", "m", "tails", "heads", "caps", "keys",
        "rot", "_faces", "_face_of",
    )

    def __init__(self, tails, heads, caps, rot, keys=None):
        self.tails = list(tails)
        self.heads = list(heads)
        self.caps = list(caps)
        self.rot = [list(r) for r in rot]
        self.n = len(self.rot)
        self.m = len(self.tails)
        self.keys = list(keys) if keys is not None else list(range(self.m))
        self._faces = None
        self._face_of = None

    # -- dart accessors ----------------------------------------------------

    def dart_tail(self, d: int) -> int:
        return self.tails[d >> 1] if (d & 1) == 0 else self.heads[d >> 1]

    def dart_head(self, d: int) -> int:
        return self.heads[d >> 1] if (d & 1) == 0 else self.tails[d >> 1]

    def dart_cap(self, d: int) -> int:
        """Capacity of a dart: the arc capacity forward, zero in reverse."""
        return self.caps[d >> 1] if (d & 1) == 0 else 0

    def darts(self):
        return range(2 * self.m)

    # -- embedding ---------------------------------------------------------

    def faces(self):
        """All face walks, each a list of darts (see walk_faces)."""
        if self._faces is None:
            self._faces, self._face_of = walk_faces(self.tails, self.heads, self.rot)
        return self._faces

    def face_of_dart(self, d: int) -> int:
        self.faces()
        return self._face_of[d]

    @property
    def num_faces(self) -> int:
        return len(self.faces())

    # -- validation --------------------------------------------------------

    def check_embedding(self):
        """Raise unless the rotation system is a planar embedding of a
        connected graph (Euler's formula n - m + f = 2)."""
        if self.n == 1 and self.m == 0:
            return  # a bare node embeds in the sphere with one face
        counts = [0] * (2 * self.m)
        for v in range(self.n):
            for d in self.rot[v]:
                if self.dart_tail(d) != v:
                    raise EmbeddingInvalid(
                        f"dart {d} listed at node {v} but leaves node {self.dart_tail(d)}")
                counts[d] += 1
        for d, c in enumerate(counts):
            if c != 1:
                raise EmbeddingInvalid(f"dart {d} appears {c} times in the rotation system")
        if self.n - self._count_reachable(0) > 0:
            raise Disconnected("graph is not connected")
        if self.n - self.m + self.num_faces != 2:
            raise NonPlanarEmbedding(
                f"Euler check failed: n={self.n} m={self.m} f={self.num_faces}")

    def _count_reachable(self, start: int) -> int:
        if self.n == 0:
            return 0
        seen = bytearray(self.n)
        seen[start] = 1
        queue = deque([start])
        count = 1
        while queue:
            v = queue.popleft()
            for d in self.rot[v]:
                w = self.dart_head(d)
                if not seen[w]:
                    seen[w] = 1
                    count += 1
                    queue.append(w)
        return count

    def adjacency_pairs(self):
        """Set of unordered endpoint pairs, one per arc."""
        return {
            (t, h) if t < h else (h, t)
            for t, h in zip(self.tails, self.heads)
        }

    def total_capacity(self) -> int:
        return sum(self.caps)


def is_triangulated_biconnected(g: PlanarGraph) -> bool:
    """Every face is a triangle on three distinct nodes."""
    for walk in g.faces():
        if len(walk) != 3 or len({g.dart_head(d) for d in walk}) != 3:
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
            raise TerminalOverlap(f"nodes {sorted(overlap)} are both sources and sinks")


def build_graph(n, arcs, rotations) -> PlanarGraph:
    """Build and validate a PlanarGraph from raw instance data.

    arcs: list of (tail, head, capacity) with 0-based node ids.
    rotations: per node, the incident neighbor ids in clockwise order.
    The graph must be simple (no self-loops, at most one arc per
    unordered node pair), connected, and the rotation system must pass
    the Euler check.
    """
    tails, heads, caps = [], [], []
    arc_by_pair = {}
    for a, (t, h, c) in enumerate(arcs):
        if not (0 <= t < n and 0 <= h < n):
            raise EmbeddingInvalid(f"arc {a}: endpoint out of range")
        if t == h:
            raise ParallelArcOrLoop(f"arc {a} is a self-loop at node {t}")
        pair = (t, h) if t < h else (h, t)
        if pair in arc_by_pair:
            raise ParallelArcOrLoop(f"arcs {arc_by_pair[pair]} and {a} join the same nodes")
        if c < 0:
            raise EmbeddingInvalid(f"arc {a}: negative capacity {c}")
        arc_by_pair[pair] = a
        tails.append(t)
        heads.append(h)
        caps.append(c)

    if len(rotations) != n:
        raise EmbeddingInvalid(f"expected {n} rotation lines, got {len(rotations)}")
    incident = [dict() for _ in range(n)]
    for a in range(len(tails)):
        incident[tails[a]][heads[a]] = 2 * a
        incident[heads[a]][tails[a]] = 2 * a + 1
    rot = []
    for v, nbrs in enumerate(rotations):
        if sorted(nbrs) != sorted(incident[v]):
            raise EmbeddingInvalid(
                f"node {v}: rotation lists {sorted(nbrs)} but neighbors are {sorted(incident[v])}")
        rot.append([incident[v][u] for u in nbrs])

    g = PlanarGraph(tails, heads, caps, rot)
    g.check_embedding()
    return g
