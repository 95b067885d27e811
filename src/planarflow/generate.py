"""Seeded random planar instance generators.

Two families: rectangular grids (quadrilateral faces, randomized arc
directions) and stacked triangulations grown by repeatedly inserting a
node into a random face.  Both maintain an explicit rotation system, so
the output always parses back as a valid embedded instance, and both are
deterministic per seed.
"""

from __future__ import annotations

import random
from math import isqrt

from .instance import InstanceFile

MIN_NODES = {"grid": 2, "tri": 3}    # the least n each kind can be built on


def _dart(tails, a, x):
    """Dart of arc a leaving node x."""
    return 2 * a if tails[a] == x else 2 * a + 1


def random_triangulation_arrays(n, rng, cap_max=9):
    """Stacked triangulation on exactly n >= 3 nodes.

    Returns (tails, heads, caps, rot) with rot as per-node dart lists in
    clockwise order.  Arc directions and capacities are randomized.
    """
    if n < 3:
        raise ValueError(f"triangulation needs n >= {MIN_NODES['tri']}")
    tails, heads, caps = [], [], []

    def new_arc(x, y):
        if rng.random() < 0.5:
            x, y = y, x
        tails.append(x)
        heads.append(y)
        caps.append(rng.randint(0, cap_max))
        return len(tails) - 1

    a01 = new_arc(0, 1)
    a12 = new_arc(1, 2)
    a20 = new_arc(2, 0)
    d01 = _dart(tails, a01, 0)
    d12 = _dart(tails, a12, 1)
    d20 = _dart(tails, a20, 2)
    rot = [
        [d01, d20 ^ 1],
        [d12, d01 ^ 1],
        [d20, d12 ^ 1],
    ]
    # faces as dart triples [a->b, b->c, c->a]; both sides of the triangle
    faces = [
        [d01, d12, d20],
        [d01 ^ 1, d20 ^ 1, d12 ^ 1],
    ]

    for x in range(3, n):
        fi = rng.randrange(len(faces))
        da, db, dc = faces[fi]
        a = tails[da >> 1] if (da & 1) == 0 else heads[da >> 1]
        b = tails[db >> 1] if (db & 1) == 0 else heads[db >> 1]
        c = tails[dc >> 1] if (dc & 1) == 0 else heads[dc >> 1]
        rot.append([])
        axa = new_arc(x, a)
        axb = new_arc(x, b)
        axc = new_arc(x, c)
        d_xa = _dart(tails, axa, x)
        d_xb = _dart(tails, axb, x)
        d_xc = _dart(tails, axc, x)
        rot[x] = [d_xb, d_xa, d_xc]
        ra = rot[a]
        ra.insert(ra.index(dc ^ 1) + 1, d_xa ^ 1)
        rb = rot[b]
        rb.insert(rb.index(da ^ 1) + 1, d_xb ^ 1)
        rc = rot[c]
        rc.insert(rc.index(db ^ 1) + 1, d_xc ^ 1)
        faces[fi] = [da, d_xb ^ 1, d_xa]
        faces.append([db, d_xc ^ 1, d_xb])
        faces.append([dc, d_xa ^ 1, d_xc])
    return tails, heads, caps, rot


def grid_arrays(n, rng, cap_max=9):
    """Lattice on exactly n >= 2 nodes: isqrt(n) full rows plus a ragged
    last row, 4-neighbor arcs with randomized directions."""
    if n < 2:
        raise ValueError(f"grid needs n >= {MIN_NODES['grid']}")
    rows = max(1, isqrt(n))
    cols = n // rows
    rem = n - rows * cols

    def node(i, j):
        return i * cols + j

    coords = [(i, j) for i in range(rows) for j in range(cols)]
    coords += [(rows, j) for j in range(rem)]
    index = {c: v for v, c in enumerate(coords)}

    tails, heads, caps = [], [], []
    arc_at = {}

    def new_arc(u, v):
        if rng.random() < 0.5:
            u, v = v, u
        tails.append(u)
        heads.append(v)
        caps.append(rng.randint(0, cap_max))
        a = len(tails) - 1
        arc_at[(u, v)] = a
        arc_at[(v, u)] = a
        return a

    for (i, j) in coords:
        if (i, j + 1) in index:
            new_arc(index[(i, j)], index[(i, j + 1)])
        if (i + 1, j) in index:
            new_arc(index[(i, j)], index[(i + 1, j)])

    rot = []
    for (i, j) in coords:
        v = index[(i, j)]
        order = []
        for (di, dj) in ((-1, 0), (0, 1), (1, 0), (0, -1)):  # N E S W clockwise
            w = index.get((i + di, j + dj))
            if w is not None and (v, w) in arc_at:
                order.append(_dart(tails, arc_at[(v, w)], v))
        rot.append(order)
    return tails, heads, caps, rot


def _sample_terminals(n, rng, s_frac, t_frac):
    ns = max(1, int(s_frac * n))
    nt = max(1, int(t_frac * n))
    ns = min(ns, n - 1)
    nt = min(nt, n - ns)
    picks = rng.sample(range(n), ns + nt)
    return sorted(picks[:ns]), sorted(picks[ns:])


def generate(kind, n, seed, cap_max=9, s_frac=0.1, t_frac=0.1) -> InstanceFile:
    """Deterministic random instance of the given kind and size."""
    rng = random.Random(seed)
    if kind == "grid":
        tails, heads, caps, rot = grid_arrays(n, rng, cap_max)
    elif kind == "tri":
        tails, heads, caps, rot = random_triangulation_arrays(n, rng, cap_max)
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    num_nodes = len(rot)
    sources, sinks = _sample_terminals(num_nodes, rng, s_frac, t_frac)

    rotations = []
    for v, darts in enumerate(rot):
        nbrs = []
        for d in darts:
            a = d >> 1
            nbrs.append(heads[a] if (d & 1) == 0 else tails[a])
        rotations.append(nbrs)
    arcs = list(zip(tails, heads, caps))
    return InstanceFile(
        num_nodes=num_nodes,
        arcs=arcs,
        rotations=rotations,
        sources=sources,
        sinks=sinks,
        comments=[f"kind={kind} n={n} seed={seed} cap_max={cap_max}"],
    )
