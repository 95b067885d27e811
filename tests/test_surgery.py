import itertools
import math
import random

import pytest

from planarflow import separator, surgery
from planarflow.config import EngineConfig
from planarflow.engine import attach_apex, msms_max_flow
from planarflow.errors import FaceNotIncident
from planarflow.flow import FlowStore
from planarflow.generate import generate, triangulation_arcs_and_rotations
from planarflow.graph import NO_KEY, build_graph, is_triangulated_biconnected
from planarflow.oracle import oracle_max_flow
from planarflow.solvers import graph_arcs, terminal_set_flow
from planarflow.surgery import detach_terminal_from_cycle, triangulate_and_biconnect
from support import (
    generic_triangulate,
    oracle_value_for_graph,
    same_embedding,
    triangulated_both_ways,
)


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
    arcs, rot = triangulation_arcs_and_rotations(n, rng)
    order = list(range(len(arcs)))
    rng.shuffle(order)
    keep_frac = rng.random()
    comp = list(range(n))

    def find(v):
        while comp[v] != v:
            v = comp[v]
        return v

    kept = set()
    for a in order:
        ru, rv = find(arcs[a][0]), find(arcs[a][1])
        if ru != rv:
            comp[ru] = rv
            kept.add(a)
        elif rng.random() < keep_frac:
            kept.add(a)
    pairs = {frozenset(arcs[a][:2]) for a in kept}
    rot = [[w for w in nbrs if frozenset((v, w)) in pairs] for v, nbrs in enumerate(rot)]
    return build_graph(n, [arcs[a] for a in sorted(kept)], rot)


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


def chorded_both_ways(g):
    return triangulated_both_ways(g.tails, g.heads, g.caps, g.keys, g.rot, g.faces())


@pytest.mark.parametrize("kind", ["grid", "tri"])
def test_ear_path_matches_the_generic_loop_on_root_faces(kind):
    for seed in range(4):
        g, _ = generate(kind, 300, seed).build()
        fast, ref = chorded_both_ways(g)
        assert same_embedding(fast, ref)


def test_ear_path_matches_the_generic_loop_on_piece_holes(monkeypatch):
    """Every hole and pendant face a split chords, in real solves."""
    calls = []
    real = separator.triangulated

    def recording(tails, heads, caps, keys, rot, faces):
        calls.append((list(tails), list(heads), list(caps), list(keys),
                      [list(r) for r in rot], [list(f) for f in faces]))
        return real(tails, heads, caps, keys, rot, faces)
    monkeypatch.setattr(separator, "triangulated", recording)
    for kind in ("grid", "tri"):
        g, ts = generate(kind, 400, 5).build()
        msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=16))
    assert len(calls) > 40
    for args in calls:
        fast, ref = triangulated_both_ways(*args)
        assert same_embedding(fast, ref)


def test_every_piece_of_recursive_solves_chords_as_the_generic_loop(monkeypatch):
    """Every piece built in grid and tri solves at base_case 8: holes that
    a boundary chord crosses (two corners joined off the hole) and faces
    a detach grew (a terminal's corner visited twice) both occur."""
    calls = []
    real = separator.triangulated

    def recording(tails, heads, caps, keys, rot, faces):
        calls.append((list(tails), list(heads), list(caps), list(keys),
                      [list(r) for r in rot], [list(f) for f in faces]))
        return real(tails, heads, caps, keys, rot, faces)
    monkeypatch.setattr(separator, "triangulated", recording)
    for kind in ("grid", "tri"):
        for seed in range(2):
            g, ts = generate(kind, 400, seed).build()
            msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=8))
    chorded_holes = grown = 0
    for tails, heads, caps, keys, rot, faces in calls:
        def corner(d):
            return tails[d >> 1] if d & 1 else heads[d >> 1]
        hole = [corner(d) for d in faces[-1]]     # the split appends the hole last
        on_hole = set(zip(hole, hole[1:] + hole[:1]))
        chorded_holes += any(corner(d) in hole and (v, corner(d)) not in on_hole
                             and (corner(d), v) not in on_hole
                             for v in hole for d in rot[v])
        grown += any(len({corner(d) for d in f}) < len(f) for f in faces)
        fast, ref = triangulated_both_ways(tails, heads, caps, keys, rot, faces)
        assert same_embedding(fast, ref)
    assert len(calls) > 200
    assert chorded_holes > 50 and grown > 50


def polygon_with_outside_chord(k, a, b):
    """A k-cycle 0 -> 1 -> ... -> 0 on a circle, plus an arc a -> b drawn
    outside it, with rotations sorted by angle."""
    arcs = [(i, (i + 1) % k, 1) for i in range(k)] + [(a, b, 1)]
    spot = [(math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k))
            for i in range(k)]

    def angle(v, w):
        if {v, w} == {a, b}:      # leaves straight outward
            return math.atan2(spot[v][1], spot[v][0]) % (2 * math.pi)
        return math.atan2(spot[w][1] - spot[v][1],
                          spot[w][0] - spot[v][0]) % (2 * math.pi)
    nbrs = [[(i - 1) % k, (i + 1) % k] + [u for u in (a, b) if {i, u} == {a, b}]
            for i in range(k)]
    return build_graph(k, arcs, [sorted(ns, key=lambda w: angle(v, w))
                                 for v, ns in enumerate(nbrs)])


@pytest.mark.parametrize("k, a, b", [(4, 0, 2), (6, 2, 4), (7, 5, 3)],
                         ids=["first-ear", "second-ear", "heptagon"])
def test_blocked_ear_falls_back_to_the_candidate_loop(k, a, b):
    """The inner k-face, turned to start at node 0's corner: its ears run
    0-2, 2-4, ..., so the outside arc a-b blocks one of them."""
    g = polygon_with_outside_chord(k, a, b)
    (walk,) = [f for f in g.faces() if len(f) == k]
    i = next(i for i, d in enumerate(walk) if g.dart_head(d) == 0)
    walk = walk[i:] + walk[:i]
    corners = [g.dart_head(d) for d in walk]
    assert {a, b} in ({corners[0], corners[2]}, {corners[2], corners[4 % k]})

    outs = []
    for chord in (surgery._triangulate, generic_triangulate):
        tails, heads, rot = list(g.tails), list(g.heads), [list(r) for r in g.rot]
        faces = chord(tails, heads, list(g.caps), list(g.keys), rot, [list(walk)])
        outs.append((faces, tails, heads, rot))
    assert outs[0] == outs[1]
    faces, tails, heads, _ = outs[0]
    assert len(faces) == k - 2 and len(tails) == g.m + k - 3
    pairs = {frozenset(p) for p in zip(tails, heads)}
    assert len(pairs) == len(tails)     # no arc a-b was added twice


def test_repeated_corner_walks_match_the_generic_loop():
    """Faces that visit a node twice, around a path or a tree, go to the
    candidate loop whole."""
    fast, ref = chorded_both_ways(path3())
    assert same_embedding(fast, ref)
    rng = random.Random(23)
    repeated = 0
    for _ in range(30):
        g = random_planar_connected(rng, rng.randint(3, 30))
        repeated += any(len({g.dart_head(d) for d in f}) < len(f) for f in g.faces())
        fast, ref = chorded_both_ways(g)
        assert same_embedding(fast, ref)
    assert repeated > 5


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
    for v in (0, 2):
        store = FlowStore.for_graph(g)      # each push starts from zero flow
        if v in boundary:
            with pytest.raises(ValueError):
                terminal_set_flow(store, graph_arcs(g, store), {v}, terminals)
            with pytest.raises(ValueError):
                terminal_set_flow(store, graph_arcs(g, store), terminals, {v})
            continue
        value, _ = terminal_set_flow(store, graph_arcs(g, store), {v}, terminals)
        assert value == oracle_max_flow(g.n + 1, written_out, {v}, {apex}).value > 0
        store = FlowStore.for_graph(g)
        value, _ = terminal_set_flow(store, graph_arcs(g, store), terminals, {v})
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
