import itertools
import random

import pytest

from planarflow.errors import BoundaryNotOnCommonFace, FaceNotIncident
from planarflow.flow import FlowStore
from planarflow.graph import NO_KEY, build_graph, is_triangulated_biconnected
from planarflow.solvers import graph_arcs, msss_max_flow, oracle_value_for_graph
from planarflow.surgery import (
    attach_apex,
    detach_terminal_from_cycle,
    triangulate_and_biconnect,
)


def triangle():
    return build_graph(3, [(0, 1, 5), (1, 2, 3), (2, 0, 2)], [[1, 2], [2, 0], [0, 1]])


def square():
    arcs = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
    return build_graph(4, arcs, [[1, 3], [2, 0], [3, 1], [0, 2]])


def path3():
    return build_graph(3, [(0, 1, 4), (1, 2, 6)], [[1], [0, 2], [1]])


def random_planar_connected(rng, n):
    """Random connected plane graph built by inserting nodes into faces of a
    triangle and keeping a random subset of chords (always spanning)."""
    from planarflow.generate import random_triangulation_arrays

    tails, heads, caps, rot = random_triangulation_arrays(n, rng)
    return build_graph(n, [(t, h, c) for t, h, c in zip(tails, heads, caps)],
                       rot_to_neighbors(tails, heads, rot))


def rot_to_neighbors(tails, heads, rot):
    out = []
    for v, darts in enumerate(rot):
        nbrs = []
        for d in darts:
            a = d >> 1
            nbrs.append(heads[a] if (d & 1) == 0 else tails[a])
        out.append(nbrs)
    return out


def test_triangle_already_triangulated():
    g = triangle()
    out = triangulate_and_biconnect(g)
    assert out.m == g.m
    assert is_triangulated_biconnected(out)


def test_square_gets_one_chord_per_quad_face():
    g = square()
    out = triangulate_and_biconnect(g)
    # two quadrilateral faces (inner and outer), one diagonal each
    assert out.m == g.m + 2
    assert is_triangulated_biconnected(out)
    assert all(out.caps[a] == 0 and out.keys[a] == NO_KEY for a in range(g.m, out.m))


def test_path3_biconnected_and_value_preserved():
    g = path3()
    out = triangulate_and_biconnect(g)
    assert is_triangulated_biconnected(out)
    for s, t in itertools.permutations(range(3), 2):
        before = oracle_value_for_graph(g, {s}, {t})
        after = oracle_value_for_graph(out, {s}, {t})
        assert before == after


def test_triangulation_preserves_value_on_random_instances():
    rng = random.Random(3)
    for trial in range(25):
        n = rng.randint(3, 24)
        g = random_planar_connected(rng, n)
        out = triangulate_and_biconnect(g)
        assert is_triangulated_biconnected(out)
        s = rng.randrange(n)
        t = rng.choice([v for v in range(n) if v != s])
        assert oracle_value_for_graph(g, {s}, {t}) == oracle_value_for_graph(out, {s}, {t})


def test_detach_source_preserves_value():
    g = triangle()
    store = FlowStore.for_graph(g)
    inf = 1 + g.total_capacity()
    g2, s_new = detach_terminal_from_cycle(g, 0, g.rot[0][0], "source", store, inf)
    assert s_new == 3
    assert g2.keys[-1] == len(store.vals) - 1 and g2.keys[-1] >= g.m
    assert g2.caps[-1] == store.caps[g2.keys[-1]] == inf
    assert g2.tails[-1] == s_new and g2.heads[-1] == 0
    assert oracle_value_for_graph(g2, {s_new}, {2}) == oracle_value_for_graph(g, {0}, {2})


def test_detach_sink_preserves_value():
    g = triangle()
    store = FlowStore.for_graph(g)
    inf = 1 + g.total_capacity()
    g2, t_new = detach_terminal_from_cycle(g, 2, g.rot[2][0], "sink", store, inf)
    assert g2.tails[-1] == 2 and g2.heads[-1] == t_new
    assert oracle_value_for_graph(g2, {0}, {t_new}) == oracle_value_for_graph(g, {0}, {2})


def test_detach_rejects_dart_not_at_node():
    g = triangle()
    store = FlowStore.for_graph(g)
    with pytest.raises(FaceNotIncident):
        detach_terminal_from_cycle(g, 0, g.rot[1][0], "source", store, 99)


def test_attach_apex_three_boundary_nodes():
    g = triangle()
    store = FlowStore.for_graph(g)
    inf = 1 + g.total_capacity()
    g2, apex = attach_apex(g, [0, 1, 2], store, inf)
    assert apex == 3
    assert g2.n == 4 and g2.m == g.m + 6
    assert g2.n - g2.m + g2.num_faces == 2  # still a planar embedding
    # pushing everything to the apex matches a direct oracle on the same net
    value, deltas = msss_max_flow(g2.n, graph_arcs(g2), store, {0}, apex)
    store.apply(deltas)
    assert value == oracle_value_for_graph(g2, {0}, {apex})
    # no artificial arc is pushed past its capacity bound
    for a in range(g.m, g2.m):
        assert store.vals[g2.keys[a]] <= inf


def test_attach_apex_single_boundary_node():
    g = triangle()
    store = FlowStore.for_graph(g)
    g2, apex = attach_apex(g, [1], store, 11)
    assert g2.m == g.m + 2
    assert g2.n - g2.m + g2.num_faces == 2


def test_attach_apex_requires_common_face():
    # octahedron: antipodal nodes 0 and 5 share no face
    arcs = [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1),
            (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1),
            (5, 1, 1), (5, 2, 1), (5, 3, 1), (5, 4, 1)]
    rot = [[1, 4, 3, 2], [0, 2, 5, 4], [0, 3, 5, 1],
           [0, 4, 5, 2], [0, 1, 5, 3], [1, 2, 3, 4]]
    g = build_graph(6, arcs, rot)
    assert g.num_faces == 8
    store = FlowStore.for_graph(g)
    with pytest.raises(BoundaryNotOnCommonFace):
        attach_apex(g, [0, 5], store, 9)


def test_surgery_output_keeps_euler_on_random_instances():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(3, 30)
        g = random_planar_connected(rng, n)
        gt = triangulate_and_biconnect(g)
        gt.check_embedding()
        store = FlowStore.for_graph(g)
        boundary = sorted(rng.sample(range(n), rng.randint(1, 3)))
        walk_sets = [{gt.dart_head(d) for d in w} for w in gt.faces()]
        if any(set(boundary) <= ws for ws in walk_sets):
            g2, apex = attach_apex(gt, boundary, store, 1 + g.total_capacity())
            g2.check_embedding()
