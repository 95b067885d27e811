"""Seeded random planar instance generators.

Two families: lattices (quadrilateral faces, randomized arc directions)
and stacked triangulations grown by repeatedly inserting a node into a
random face.  Each generator writes the instance format directly: arcs
as (tail, head, cap) and, per node, its neighbor ids in clockwise order,
so the output always parses back as a valid embedded instance.  Both are
deterministic per seed.  The lattice's rotations come from
instance.lattice_rotations, which the DIMACS shim shares.
"""

from __future__ import annotations

import random
from math import isqrt

from .instance import InstanceFile, lattice_rotations

MIN_NODES = {"grid": 2, "tri": 3}    # the least n each kind can be built on


def _random_arc(rng, x, y, cap_max):
    """Arc between x and y: a coin picks its direction, then its capacity."""
    if rng.random() < 0.5:
        x, y = y, x
    return x, y, rng.randint(0, cap_max)


def triangulation_arcs_and_rotations(n, rng, cap_max=9):
    """Stacked triangulation on exactly n >= 3 nodes, as (arcs, rotations).

    Arc directions and capacities are randomized.  Faces are kept as
    corner triples (a, b, c) in walk order; a new node x goes into one,
    and x's rotation is b, a, c.
    """
    if n < 3:
        raise ValueError(f"triangulation needs n >= {MIN_NODES['tri']}")
    arcs = [_random_arc(rng, 0, 1, cap_max), _random_arc(rng, 1, 2, cap_max),
            _random_arc(rng, 2, 0, cap_max)]
    rot = [[1, 2], [2, 0], [0, 1]]
    faces = [(0, 1, 2), (1, 0, 2)]    # both sides of the triangle

    for x in range(3, n):
        fi = rng.randrange(len(faces))
        a, b, c = faces[fi]
        arcs += (_random_arc(rng, x, a, cap_max), _random_arc(rng, x, b, cap_max),
                 _random_arc(rng, x, c, cap_max))
        rot.append([b, a, c])
        for v, after in ((a, c), (b, a), (c, b)):
            rv = rot[v]
            rv.insert(rv.index(after) + 1, x)
        faces[fi] = (a, b, x)
        faces.append((b, c, x))
        faces.append((c, a, x))
    return arcs, rot


def grid_arcs_and_rotations(n, rng, cap_max=9):
    """Lattice on exactly n >= 2 nodes, as (arcs, rotations): isqrt(n)
    full rows plus a ragged last row, 4-neighbor arcs with randomized
    directions, each node's east arc drawn before its south arc."""
    if n < 2:
        raise ValueError(f"grid needs n >= {MIN_NODES['grid']}")
    rot = lattice_rotations(n, n // max(1, isqrt(n)))
    # east precedes south in each rotation, and north and west are below v
    arcs = [_random_arc(rng, v, w, cap_max)
            for v, nbrs in enumerate(rot) for w in nbrs if w > v]
    return arcs, rot


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
        arcs, rotations = grid_arcs_and_rotations(n, rng, cap_max)
    elif kind == "tri":
        arcs, rotations = triangulation_arcs_and_rotations(n, rng, cap_max)
    else:
        raise ValueError(f"unknown instance kind {kind!r}")
    num_nodes = len(rotations)
    sources, sinks = _sample_terminals(num_nodes, rng, s_frac, t_frac)
    return InstanceFile(
        num_nodes=num_nodes,
        arcs=arcs,
        rotations=rotations,
        sources=sources,
        sinks=sinks,
        comments=[f"kind={kind} n={n} seed={seed} cap_max={cap_max}"],
    )
