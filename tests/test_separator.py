import dataclasses
import math
import random
from collections import deque

import pytest

from planarflow import EngineConfig, engine, graph, msms_max_flow, separator
from planarflow.errors import InvariantFailure, PreconditionNotTriangulated
from planarflow.flow import FlowStore
from planarflow.generate import (
    generate,
    grid_arcs_and_rotations,
    triangulation_arcs_and_rotations,
)
from planarflow.graph import NO_KEY, build_graph
from planarflow.separator import find_cycle_separator, split_into_pieces
from planarflow.solvers import graph_arcs
from planarflow.surgery import detach_terminal_from_cycle, triangulate_and_biconnect
from support import (
    net_heads,
    reference_find_cycle_separator,
    reference_split_into_pieces,
    same_piece,
    same_separator,
    set_flows,
)


def grid_graph(n, seed):
    return build_graph(n, *grid_arcs_and_rotations(n, random.Random(seed)))


def tri_graph(n, seed):
    return build_graph(n, *triangulation_arcs_and_rotations(n, random.Random(seed)))


def check_separator(g, sep):
    n = g.n
    k = sep.k
    assert len(set(sep.boundary)) == k
    assert len(sep.inside) <= 2 * n / 3
    assert len(sep.outside) <= 2 * n / 3
    assert len(sep.inside) + len(sep.outside) + k == n
    # boundary is a cycle of real arcs, consecutive nodes adjacent
    for i, d in enumerate(sep.cycle_darts):
        assert g.dart_tail(d) == sep.boundary[i]
        assert g.dart_head(d) == sep.boundary[(i + 1) % k]


def strict_sides(g, cycle):
    """The two strict sides of a simple cycle of nodes, found without
    faces: at each cycle node the rotation scan labels the darts from the
    dart to the next cycle node round to the dart to the previous one 0,
    the rest 1, and each component of the off-cycle nodes takes the label
    of the darts that reach it."""
    k = len(cycle)
    at = {x: i for i, x in enumerate(cycle)}
    label = {}
    for i, x in enumerate(cycle):
        heads = [g.dart_head(d) for d in g.rot[x]]
        j = heads.index(cycle[(i + 1) % k])
        prev = cycle[i - 1]
        side = 0
        for step in range(1, len(heads)):
            w = heads[(j + step) % len(heads)]
            if w == prev:
                side = 1
            elif w not in at:
                assert label.setdefault(w, side) == side
    sides = (set(), set())
    for v0 in [v for v in range(g.n) if v not in at]:
        if any(v0 in s for s in sides):
            continue
        comp, queue, seen = set(), deque([v0]), {v0}
        while queue:
            v = queue.popleft()
            comp.add(v)
            for d in g.rot[v]:
                w = g.dart_head(d)
                if w not in at and w not in seen:
                    seen.add(w)
                    queue.append(w)
        (side,) = {label[v] for v in comp if v in label}
        sides[side].update(comp)
    return frozenset(sides[0]), frozenset(sides[1])


def best_fundamental_cycle(g):
    """Brute force over the fundamental cycles of the BFS tree from node
    0 (darts in rotation order): the one with the least (larger strict
    side, k, arc), as (score, cycle nodes from tail up to the top node
    and down to head, strict sides)."""
    parent, depth = [-1] * g.n, [-1] * g.n
    tree = set()
    depth[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for d in g.rot[v]:
            w = g.dart_head(d)
            if depth[w] < 0:
                depth[w], parent[w] = depth[v] + 1, v
                tree.add(d >> 1)
                queue.append(w)
    best = None
    for a in range(g.m):
        if a in tree:
            continue
        up_u, up_v = [g.tails[a]], [g.heads[a]]
        while up_u[-1]:
            up_u.append(parent[up_u[-1]])
        while up_v[-1] not in up_u:
            up_v.append(parent[up_v[-1]])
        cycle = up_u[:up_u.index(up_v[-1]) + 1] + up_v[-2::-1]
        sides = strict_sides(g, cycle)
        score = (max(map(len, sides)), len(cycle), a)
        if best is None or score < best[0]:
            best = (score, cycle, sides)
    return best


@pytest.mark.parametrize("kind", ["grid", "tri"])
@pytest.mark.parametrize("n", [10, 50, 200])
def test_separator_is_the_best_fundamental_cycle(kind, n):
    """The search minimizes the larger side over all fundamental cycles,
    on the root triangulation and on both pieces of its split, whose
    face numbers come from the parent's."""
    for seed in range(5):
        if kind == "grid":
            g = grid_graph(n, seed)
        else:
            g = tri_graph(n, seed)
        gt = triangulate_and_biconnect(g)
        pieces = split_into_pieces(gt, find_cycle_separator(gt))
        for level in [gt] + [p.graph for p in pieces if p.graph.n >= 3]:
            (_, k, a), cycle, sides = best_fundamental_cycle(level)
            sep = find_cycle_separator(level)
            assert sep.cycle_darts[-1] >> 1 == a
            assert sep.boundary == cycle and sep.k == k
            assert sorted([sep.inside, sep.outside]) == sorted(map(sorted, sides))


def test_requires_triangulation():
    g = build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)],
                    [[1, 3], [2, 0], [3, 1], [0, 2]])
    with pytest.raises(PreconditionNotTriangulated):
        find_cycle_separator(g)


def test_triangle_base_case():
    g = tri_graph(3, 0)
    sep = find_cycle_separator(g)
    assert sep.k == 3
    assert not sep.inside and not sep.outside


def test_grid_separator_bounds():
    g0 = grid_graph(100, 1)
    g = triangulate_and_biconnect(g0)
    sep = find_cycle_separator(g)
    check_separator(g, sep)
    assert sep.k <= 8.0 * math.sqrt(100)


def test_random_triangulations_many_seeds():
    for seed in range(1000):
        g = tri_graph(50, seed)
        gt = triangulate_and_biconnect(g)
        sep = find_cycle_separator(gt)
        check_separator(gt, sep)
        assert sep.k <= 8.0 * math.sqrt(gt.n)


def test_split_sizes_sum_to_n_plus_k():
    g = triangulate_and_biconnect(grid_graph(64, 3))
    sep = find_cycle_separator(g)
    p1, p2 = split_into_pieces(g, sep)
    assert p1.graph.n + p2.graph.n == g.n + sep.k
    assert p1.graph.n <= 2 * g.n / 3 + sep.k
    assert p2.graph.n <= 2 * g.n / 3 + sep.k


def test_split_partitions_flow_arcs():
    for seed in (0, 5, 9):
        g = triangulate_and_biconnect(tri_graph(40, seed))
        sep = find_cycle_separator(g)
        p1, p2 = split_into_pieces(g, sep)
        seen = {}
        for piece in (p1, p2):
            for la, pa in enumerate(piece.parent_arcs):
                if pa is None:
                    assert piece.graph.keys[la] == NO_KEY
                    continue
                assert pa not in seen, "parent arc appears in both pieces"
                seen[pa] = piece
                assert piece.graph.keys[la] == g.keys[pa]
        assert sorted(seen) == list(range(g.m))


def test_split_pieces_are_valid_embeddings():
    for seed in range(6):
        g = triangulate_and_biconnect(tri_graph(35, seed))
        sep = find_cycle_separator(g)
        p1, p2 = split_into_pieces(g, sep)
        for piece in (p1, p2):
            piece.graph.check_embedding()
            # boundary ring is present and in order
            k = len(piece.boundary_local)
            for i in range(k):
                u = piece.boundary_local[i]
                v = piece.boundary_local[(i + 1) % k]
                assert any(
                    {piece.graph.tails[a], piece.graph.heads[a]} == {u, v}
                    for a in range(piece.graph.m)
                )


def test_interior_arcs_stay_on_their_side():
    g = triangulate_and_biconnect(tri_graph(45, 2))
    sep = find_cycle_separator(g)
    p1, p2 = split_into_pieces(g, sep)
    inside, outside = sep.inside, sep.outside
    for piece, strict in ((p1, inside), (p2, outside)):
        local_parent = piece.parent_nodes
        for la, pa in enumerate(piece.parent_arcs):
            if pa is None:
                continue
            t, h = g.tails[pa], g.heads[pa]
            for node in (t, h):
                assert node in strict or node in set(sep.boundary)


def test_consecutive_boundary_nodes_cofacial():
    g = triangulate_and_biconnect(tri_graph(60, 7))
    sep = find_cycle_separator(g)
    face_of = g.dart_faces()
    for i in range(sep.k):
        d = sep.cycle_darts[i]
        # adjacent nodes always share the two faces of their arc
        assert face_of[d] != face_of[d ^ 1] or g.m == 1


@pytest.mark.parametrize("kind", ["grid", "tri"])
@pytest.mark.parametrize("n", [30, 90])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_detached_level_graph(kind, n, seed):
    """Every boundary node carries a pendant terminal, as in a level graph
    whose cycle is all terminals: each lands with its arc in one piece."""
    if kind == "grid":
        g = grid_graph(n, seed)
    else:
        g = tri_graph(n, seed)
    store = FlowStore.for_graph(g)
    gt = triangulate_and_biconnect(g)
    sep = find_cycle_separator(gt)
    detaches = [(v, sep.cycle_darts[i], ("source", "sink")[i % 2], 1)
                for i, v in enumerate(sep.boundary)]
    gd, new_nodes = detach_terminal_from_cycle(gt, detaches, store)
    p1, p2 = split_into_pieces(gd, sep)

    keyed = {}
    for piece in (p1, p2):
        for la, pa in enumerate(piece.parent_arcs):
            if pa is None:
                assert piece.graph.keys[la] == NO_KEY
                continue
            assert piece.graph.keys[la] == gd.keys[pa]
            if gd.keys[pa] != NO_KEY:
                assert pa not in keyed, "keyed arc appears in both pieces"
                keyed[pa] = piece
    assert sorted(keyed) == [a for a in range(gd.m) if gd.keys[a] != NO_KEY]
    assert p1.graph.n + p2.graph.n == gd.n + sep.k

    for j, v_new in enumerate(new_nodes):
        holders = [piece for piece in (p1, p2) if v_new in piece.local_of]
        assert len(holders) == 1
        assert keyed[gt.m + j] is holders[0]
    for piece in (p1, p2):
        piece.graph.check_embedding()


@pytest.mark.parametrize("flipped", [0, 1, -1])
def test_split_rejects_a_mis_oriented_cycle(flipped):
    g = triangulate_and_biconnect(tri_graph(40, 3))
    sep = find_cycle_separator(g)
    darts = list(sep.cycle_darts)
    darts[flipped] ^= 1
    with pytest.raises(InvariantFailure):
        split_into_pieces(g, dataclasses.replace(sep, cycle_darts=darts))


@pytest.mark.parametrize("kind", ["grid", "tri"])
def test_a_piece_is_built_on_the_first_read_of_its_graph(monkeypatch, kind):
    """The split fills node maps and arc arrays only; the first read of
    piece.graph builds it once, and its keyed arcs give the same residual
    net, with the same heads, as the arrays did before the build."""
    builds = []
    real = separator.triangulated
    monkeypatch.setattr(separator, "triangulated",
                        lambda *args: builds.append(1) or real(*args))
    g, ts = generate(kind, 300, 5).build()
    gt = triangulate_and_biconnect(g)
    store = FlowStore.for_graph(g)
    set_flows(store, [c // 2 for c in store.caps])
    sep = find_cycle_separator(gt)
    pieces = split_into_pieces(gt, sep)
    assert not builds
    nets = [(net, net_heads(net, store)) for net in (graph_arcs(p, store) for p in pieces)]
    assert [p.n for p in pieces] == [len(p.parent_nodes) for p in pieces]
    assert not builds
    for i, (piece, (net, heads)) in enumerate(zip(pieces, nets)):
        h = piece.graph
        assert len(builds) == i + 1 and piece.graph is h and piece.n == h.n
        built = graph_arcs(h, store)
        assert (net.adj, heads, net.keys) == (built.adj, net_heads(built, store), built.keys)
    assert all(map(same_piece, pieces, reference_split_into_pieces(gt, sep)))
    assert len(builds) == 2


def test_a_dropped_piece_graph_cannot_be_read():
    """drop_graph lets a piece's graph go, built or not, with its parent
    arcs; a later read of graph or parent_arcs names the drop, and the
    arc arrays still give the piece's net."""
    g, _ = generate("grid", 300, 5).build()
    gt = triangulate_and_biconnect(g)
    store = FlowStore.for_graph(g)
    built, unbuilt = split_into_pieces(gt, find_cycle_separator(gt))
    net = graph_arcs(built.graph, store)
    for piece in (built, unbuilt):
        piece.drop_graph()
        for read in (lambda: piece.graph, lambda: piece.parent_arcs):
            with pytest.raises(InvariantFailure,
                               match="^piece graph read after drop_graph let it go$"):
                read()
    assert graph_arcs(built, store).adj == net.adj


@pytest.mark.parametrize("audit", ["none", "full"])
def test_the_separator_reuses_the_embedding_checks_bfs_tree(monkeypatch, audit):
    """Every graph a separator runs on was checked, so its BFS tree is the
    check's: at audit=full every split level's graph is checked and no
    separator runs a BFS of its own; at audit=none only the root's
    triangulation is checked, so the root's separator runs none and each
    piece that splits runs one."""
    g, ts = generate("grid", 800, 1).build()
    calls = []
    real = graph.bfs_tree
    monkeypatch.setattr(graph, "bfs_tree", lambda *args: calls.append(1) or real(*args))
    checks = []
    check = graph.PlanarGraph.check_embedding
    monkeypatch.setattr(graph.PlanarGraph, "check_embedding",
                        lambda g: checks.append(1) or check(g))
    res = msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(audit=audit))
    splits = [rec.kind for rec in res.stats.levels].count("split")
    assert splits > 10
    assert len(calls) == (len(checks) if audit == "full" else splits)


@pytest.mark.parametrize("kind", ["grid", "tri"])
def test_separator_and_split_match_the_reference_on_root_triangulations(kind):
    for seed in range(4):
        g, _ = generate(kind, 300, seed).build()
        gt = triangulate_and_biconnect(g)
        sep = find_cycle_separator(gt)
        assert same_separator(sep, reference_find_cycle_separator(gt))
        pieces = split_into_pieces(gt, sep)
        assert all(map(same_piece, pieces, reference_split_into_pieces(gt, sep)))


def test_separator_and_split_match_the_reference_in_recursive_solves(monkeypatch):
    """Every find and split call of recursive solves, the levels whose
    cycle terminals were detached included."""
    calls = {"find": 0, "split": 0, "detached": 0}
    real_find, real_split = engine.find_cycle_separator, engine.split_into_pieces

    def find(g):
        sep = real_find(g)
        assert same_separator(sep, reference_find_cycle_separator(g))
        calls["find"] += 1
        return sep

    def split(g, sep):
        pieces = real_split(g, sep)
        assert all(map(same_piece, pieces, reference_split_into_pieces(g, sep)))
        calls["split"] += 1
        calls["detached"] += g.n > sep.n
        return pieces
    monkeypatch.setattr(engine, "find_cycle_separator", find)
    monkeypatch.setattr(engine, "split_into_pieces", split)
    for kind in ("grid", "tri"):
        for seed in range(2):
            g, ts = generate(kind, 400, seed).build()
            msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=8))
    assert calls["find"] == calls["split"] > 100
    assert calls["detached"] > 20
