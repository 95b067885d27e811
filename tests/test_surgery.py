import itertools
import random

import pytest

from planarflow.errors import FaceNotIncident
from planarflow.flow import FlowStore
from planarflow.graph import NO_KEY, build_graph, is_triangulated_biconnected
from planarflow.solvers import (
    graph_arcs,
    msss_max_flow,
    oracle_max_flow,
    ssms_max_flow,
)
from planarflow.surgery import (
    attach_apex,
    detach_terminal_from_cycle,
    triangulate_and_biconnect,
)
from support import oracle_value_for_graph


def triangle():
    return build_graph(3, [(0, 1, 5), (1, 2, 3), (2, 0, 2)], [[1, 2], [2, 0], [0, 1]])


def square():
    arcs = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
    return build_graph(4, arcs, [[1, 3], [2, 0], [3, 1], [0, 2]])


def path3():
    return build_graph(3, [(0, 1, 4), (1, 2, 6)], [[1], [0, 2], [1]])


def random_planar_connected(rng, n):
    """Random connected plane graph: a random triangulation cut down to a
    random spanning tree plus a random subset of its other arcs, so faces
    may be long and may visit a node more than once."""
    from planarflow.generate import random_triangulation_arrays

    tails, heads, caps, rot = random_triangulation_arrays(n, rng)
    order = list(range(len(tails)))
    rng.shuffle(order)
    keep_frac = rng.random()
    comp = list(range(n))

    def find(v):
        while comp[v] != v:
            v = comp[v]
        return v

    kept = set()
    for a in order:
        ru, rv = find(tails[a]), find(heads[a])
        if ru != rv:
            comp[ru] = rv
            kept.add(a)
        elif rng.random() < keep_frac:
            kept.add(a)
    arcs = [(tails[a], heads[a], caps[a]) for a in sorted(kept)]
    rot = [[d for d in darts if d >> 1 in kept] for darts in rot]
    return build_graph(n, arcs, rot_to_neighbors(tails, heads, rot))


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
    inf = 1 + sum(g.caps)
    g2, new_nodes = detach_terminal_from_cycle(g, [(0, g.rot[0][0], "source", inf)], store)
    assert new_nodes == [3]
    s_new = new_nodes[0]
    assert g2.keys[-1] == len(store.vals) - 1 and g2.keys[-1] >= g.m
    assert g2.caps[-1] == store.caps[g2.keys[-1]] == inf
    assert g2.tails[-1] == s_new and g2.heads[-1] == 0
    assert oracle_value_for_graph(g2, {s_new}, {2}) == oracle_value_for_graph(g, {0}, {2})


def test_detach_sink_preserves_value():
    g = triangle()
    store = FlowStore.for_graph(g)
    inf = 1 + sum(g.caps)
    g2, (t_new,) = detach_terminal_from_cycle(g, [(2, g.rot[2][0], "sink", inf)], store)
    assert g2.tails[-1] == 2 and g2.heads[-1] == t_new
    assert oracle_value_for_graph(g2, {0}, {t_new}) == oracle_value_for_graph(g, {0}, {2})


def test_detach_rejects_dart_not_at_node():
    g = triangle()
    store = FlowStore.for_graph(g)
    with pytest.raises(FaceNotIncident):
        detach_terminal_from_cycle(g, [(0, g.rot[1][0], "source", 99)], store)


def test_detach_source_and_sink_in_one_call():
    g = square()
    store = FlowStore.for_graph(g)
    detaches = [(2, g.rot[2][1], "sink", 2), (0, g.rot[0][0], "source", 3)]
    g2, new_nodes = detach_terminal_from_cycle(g, detaches, store)
    assert new_nodes == [g.n, g.n + 1]
    t_new, s_new = new_nodes
    assert (g2.tails[g.m], g2.heads[g.m]) == (2, t_new)
    assert (g2.tails[g.m + 1], g2.heads[g.m + 1]) == (s_new, 0)
    assert g2.keys[g.m:] == [g.m, g.m + 1] and len(store.vals) == g.m + 2
    assert store.caps[g.m:] == g2.caps[g.m:] == [2, 3]
    g2.check_embedding()
    face_of = {d: f for f, walk in enumerate(g2.faces()) for d in walk}
    assert g2.dart_faces() == [face_of[d] for d in range(2 * g2.m)]
    assert oracle_value_for_graph(g2, {s_new}, {t_new}) == oracle_value_for_graph(g, {0}, {2})


def check_apex_against_oracle(boundary):
    """attach_apex adds nothing and returns the boundary in cycle order.
    Pushing into or out of that set matches an oracle on the net with
    the paper's apex written out, in both directions.  A terminal on the
    boundary overlaps the set and is rejected (the engine detaches such
    terminals before the pushes)."""
    g = triangle()
    inf = 1 + sum(g.caps)
    terminals = attach_apex(g, boundary)
    assert terminals == list(boundary)
    apex = g.n
    written_out = [(g.tails[a], g.heads[a], g.caps[a]) for a in range(g.m)]
    written_out += [arc for b in boundary for arc in ((b, apex, inf), (apex, b, inf))]
    store = FlowStore.for_graph(g)
    for v in (0, 2):
        if v in boundary:
            with pytest.raises(ValueError):
                msss_max_flow(store, graph_arcs(g, store), {v}, terminals)
            with pytest.raises(ValueError):
                ssms_max_flow(store, graph_arcs(g, store), terminals, {v})
            continue
        value, _ = msss_max_flow(store, graph_arcs(g, store), {v}, terminals)
        assert value == oracle_max_flow(g.n + 1, written_out, {v}, {apex}).value > 0
        value, _ = ssms_max_flow(store, graph_arcs(g, store), terminals, {v})
        assert value == oracle_max_flow(g.n + 1, written_out, {apex}, {v}).value > 0


def test_attach_apex_three_boundary_nodes():
    check_apex_against_oracle([0, 1, 2])


def test_attach_apex_single_boundary_node():
    check_apex_against_oracle([1])


def test_surgery_output_keeps_euler_on_random_instances():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(3, 30)
        g = random_planar_connected(rng, n)
        gt = triangulate_and_biconnect(g)
        gt.check_embedding()
