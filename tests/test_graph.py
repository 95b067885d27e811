import itertools
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from planarflow.config import EngineConfig
from planarflow.engine import msms_max_flow
from planarflow.errors import (
    Disconnected,
    EmbeddingInvalid,
    NonPlanarEmbedding,
    ParallelArcOrLoop,
    PlanarFlowError,
    TerminalOverlap,
)
from planarflow.flow import FlowStore
from planarflow.generate import MIN_NODES, generate
from planarflow.graph import (
    PlanarGraph,
    TerminalSets,
    bfs_tree,
    build_graph,
    is_triangulated_biconnected,
    walk_faces,
)
from planarflow.instance import parse_instance
from planarflow.surgery import detach_terminal_from_cycle, triangulate_and_biconnect

from support import reference_build_graph, reference_is_triangulated_biconnected


def triangle():
    arcs = [(0, 1, 5), (1, 2, 3), (2, 0, 2)]
    rotations = [[1, 2], [2, 0], [0, 1]]
    return build_graph(3, arcs, rotations)


def test_triangle_has_two_faces():
    g = triangle()
    assert g.num_faces == 2
    assert g.n - g.m + g.num_faces == 2


def test_single_arc_has_one_face():
    g = build_graph(2, [(0, 1, 7)], [[1], [0]])
    assert g.num_faces == 1


def test_bare_node_has_one_empty_face():
    g, ts = parse_instance("p pmf 1 0\nr 1\ns 1\n")
    assert g.faces() == [[]] and g.dart_faces() == []
    assert g.n - g.m + g.num_faces == 2
    g.check_embedding()
    for audit, audits in (("none", 0), ("final", 2), ("full", 2)):
        res = msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(audit=audit))
        assert (res.value, res.arc_flows, res.audits) == (0, [], audits)


def test_k5_fails_euler_for_any_rotation():
    nodes = range(5)
    arcs = [(u, v, 1) for u, v in itertools.combinations(nodes, 2)]
    rotations = [[u for u in nodes if u != v] for v in nodes]
    with pytest.raises(NonPlanarEmbedding):
        build_graph(5, arcs, rotations)


def test_self_loop_rejected():
    with pytest.raises(ParallelArcOrLoop):
        build_graph(2, [(0, 0, 1)], [[], []])


def test_parallel_arc_rejected():
    with pytest.raises(ParallelArcOrLoop):
        build_graph(2, [(0, 1, 1), (1, 0, 2)], [[1, 1], [0, 0]])


def test_disconnected_rejected():
    arcs = [(0, 1, 1), (2, 3, 1)]
    rotations = [[1], [0], [3], [2]]
    with pytest.raises(Disconnected):
        build_graph(4, arcs, rotations)
    g = PlanarGraph([0, 2], [1, 3], [1, 1], [[0], [1], [2], [3]])
    parent_dart, depth = bfs_tree(g)
    # node 1 hangs below node 0 by dart 0 of arc 0; nodes 2 and 3 are not reached
    assert parent_dart == [-1, 0, -1, -1] and depth == [0, 1, -1, -1]
    assert (g.dart_tail(parent_dart[1]), parent_dart[1] >> 1) == (0, 0)


@pytest.mark.parametrize("kind", ["grid", "tri"])
def test_bfs_tree_parent_darts(kind):
    """Each parent dart runs from a node one level up, taken in rotation
    order from the first node of that level to reach the child: the tree
    an independent breadth-first search builds."""
    g, _ = generate(kind, 60, 4).build()
    parent, depth = [-1] * g.n, [-1] * g.n
    depth[0] = 0
    queue = [0]
    for v in queue:
        for d in g.rot[v]:
            w = g.dart_head(d)
            if depth[w] < 0:
                parent[w], depth[w] = v, depth[v] + 1
                queue.append(w)
    parent_dart, tree_depth = bfs_tree(g)
    assert tree_depth == depth and parent_dart[0] == -1
    for w in range(1, g.n):
        d = parent_dart[w]
        assert (g.dart_tail(d), g.dart_head(d)) == (parent[w], w)


@pytest.mark.parametrize("kind, n, seed", [("grid", 60, 4), ("tri", 60, 5), ("grid", 800, 1),
                                          ("tri", 400, 2)])
def test_check_embedding_keeps_its_bfs_tree(kind, n, seed):
    """The embedding check keeps the BFS tree of its connectivity test on
    the triangulation, which was given its faces: spanning_tree() is that
    tree, equal to bfs_tree's.  The input walked its own faces and keeps
    none, nor does an unchecked graph: each gets a fresh tree per call."""
    g, ts = generate(kind, n, seed).build()
    gt = triangulate_and_biconnect(g)
    assert gt.spanning_tree() is gt.spanning_tree() == bfs_tree(gt)
    assert g.spanning_tree() is not g.spanning_tree()
    assert g.spanning_tree() == bfs_tree(g)
    unchecked = PlanarGraph(list(gt.tails), list(gt.heads), list(gt.caps),
                            [list(r) for r in gt.rot], list(gt.keys))
    assert unchecked.spanning_tree() is not unchecked.spanning_tree()
    assert unchecked.spanning_tree() == bfs_tree(gt)


@pytest.mark.parametrize("kind, n, seed", [("grid", 60, 4), ("tri", 60, 5), ("grid", 800, 1),
                                          ("tri", 400, 2)])
def test_only_a_graph_given_its_faces_keeps_its_dart_to_face_index(kind, n, seed):
    """The input walked its own faces and keeps no dart-to-face list;
    dart_faces() rebuilds the walk's.  The triangulation, given its
    faces, keeps the one its embedding check made."""
    g, _ = generate(kind, n, seed).build()
    assert g._face_of is None
    assert g.dart_faces() == walk_faces(g.tails, g.heads, g.rot)[1]
    gt = triangulate_and_biconnect(g)
    kept = gt._face_of
    assert kept is not None and gt.dart_faces() is kept
    assert kept == walk_faces(gt.tails, gt.heads, gt.rot, gt.faces())[1]


def test_empty_graph_fails_euler():
    with pytest.raises(NonPlanarEmbedding):
        build_graph(0, [], [])


def test_rotation_listing_non_neighbor_rejected():
    with pytest.raises(EmbeddingInvalid):
        build_graph(3, [(0, 1, 1), (1, 2, 1)], [[1], [0, 2], [0]])


@pytest.mark.parametrize("n, arcs, rotations, error, message", [
    # node 0 lists neighbour 1 twice; node 2 lists 0, which is not its neighbour
    (4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)], [[1, 1], [2, 0], [3, 0], [0, 2]],
     EmbeddingInvalid, "node 0: rotation lists [1, 1] but neighbors are [1, 3]"),
    (3, [(0, 1, 1), (2, 2, 1), (1, 0, 1)], [[1], [0], []],
     ParallelArcOrLoop, "arc 2 2 is a self-loop"),
    (3, [(0, 1, 1), (1, 0, 1), (2, 2, 1)], [[1], [0], []],
     ParallelArcOrLoop, "two arcs join nodes 0 and 1"),
    (2, [(0, 1, 1), (1, 0, -1)], [[1], [0]],
     ParallelArcOrLoop, "two arcs join nodes 0 and 1"),
    (2, [(0, 1, -1), (1, 0, 1)], [[1], [0]],
     EmbeddingInvalid, "arc 0 1: negative capacity -1"),
    (3, [(0, 3, 1), (1, 1, 1)], [[3], [], []],
     EmbeddingInvalid, "arc 0: endpoint out of range"),
    (2, [(0, 1, 1), (0, 1, 1)], [[1]],
     ParallelArcOrLoop, "two arcs join nodes 0 and 1"),
    (2, [(0, 1, 1)], [[1]],
     EmbeddingInvalid, "expected 2 rotation lines, got 1"),
    (10 ** 12, [(0, 1, 1)], [],
     EmbeddingInvalid, "expected 1000000000000 rotation lines, got 0"),
])
def test_build_graph_names_the_first_error(n, arcs, rotations, error, message):
    """Arcs are checked in order, each by range, loop, parallel pair and
    capacity; then the rotation count; then nodes in order."""
    for build in (build_graph, reference_build_graph):
        with pytest.raises(error) as err:
            build(n, arcs, rotations)
        assert str(err.value) == message


def _mutated_graph_input(rng, n, arcs, rotations):
    """One or two random faults in a copy of (arcs, rotations)."""
    arcs = list(arcs)
    rotations = [list(r) for r in rotations]
    for _ in range(rng.choice((1, 1, 2))):
        r = rotations[rng.randrange(n)]
        op = rng.randrange(9)
        if op == 0 and r:                       # drop a neighbour
            del r[rng.randrange(len(r))]
        elif op == 1 and r:                     # list a neighbour twice
            r.insert(rng.randrange(len(r) + 1), rng.choice(r))
        elif op == 2 and r:                     # retarget a neighbour
            r[rng.randrange(len(r))] = rng.randrange(n)
        elif op == 3 and len(r) > 1:            # swap two neighbours
            i, j = rng.sample(range(len(r)), 2)
            r[i], r[j] = r[j], r[i]
        elif op == 4:                           # swap neighbours between two nodes
            other = rotations[rng.randrange(n)]
            if r and other:
                i, j = rng.randrange(len(r)), rng.randrange(len(other))
                r[i], other[j] = other[j], r[i]
        elif op == 5:                           # a parallel arc, either way round
            t, h, c = rng.choice(arcs)
            arcs.insert(rng.randrange(len(arcs) + 1), rng.choice(((t, h, c), (h, t, 1))))
        elif op == 6:                           # a self-loop
            v = rng.randrange(n)
            arcs.insert(rng.randrange(len(arcs) + 1), (v, v, 1))
        elif op == 7:                           # a negative capacity
            a = rng.randrange(len(arcs))
            t, h, _ = arcs[a]
            arcs[a] = (t, h, -rng.randint(1, 9))
        else:                                   # an endpoint out of range
            a = rng.randrange(len(arcs))
            t, h, c = arcs[a]
            arcs[a] = (t, rng.choice((-1, n)), c)
    return arcs, rotations


def _build_outcome(build, n, arcs, rotations, labels):
    try:
        g = build(n, arcs, rotations, labels)
    except PlanarFlowError as err:
        return type(err), str(err)
    return g.tails, g.heads, g.caps, g.rot, g.faces()


def test_build_graph_matches_the_reference_on_mutated_input():
    """Over mutated grid and tri inputs, the single validating pass raises
    the reference's error type and message, or builds its graph; every
    failure is a PlanarFlowError."""
    rng = random.Random(2027)
    outcomes = {}
    for trial in range(1200):
        kind = ("grid", "tri")[trial % 2]
        inst = generate(kind, rng.randint(MIN_NODES[kind], 30), trial)
        n = inst.num_nodes
        arcs, rotations = _mutated_graph_input(rng, n, inst.arcs, inst.rotations)
        labels = range(1, n + 1) if trial % 3 else None
        got = _build_outcome(build_graph, n, arcs, rotations, labels)
        want = _build_outcome(reference_build_graph, n, arcs, rotations, labels)
        assert got == want, (kind, n, trial)
        name = got[0].__name__ if isinstance(got[0], type) else "built"
        outcomes[name] = outcomes.get(name, 0) + 1
    # every kind of outcome shows up, so no check is starved of cases
    assert set(outcomes) == {"built", "EmbeddingInvalid", "ParallelArcOrLoop",
                             "NonPlanarEmbedding"}, outcomes


def test_dart_involution_and_caps():
    g = triangle()
    for d in range(2 * g.m):
        assert g.caps[d >> 1] >= 0
        assert g.dart_tail(d) == g.dart_head(d ^ 1)


def test_every_dart_in_exactly_one_rotation():
    g = triangle()
    listed = [d for v in range(g.n) for d in g.rot[v]]
    assert sorted(listed) == list(range(2 * g.m))


@pytest.mark.parametrize("rot, message", [
    ([[0, 2], [1, 5], [3, 4]], "dart 2 listed at node 0 but leaves node 1"),
    ([[0, 5, 0], [1, 2], [3, 4]], "dart 0 appears 2 times in the rotation system"),
    ([[0], [1, 2], [3, 4]], "dart 5 appears 0 times in the rotation system"),
    ([[0, 0], [1, 2], [3, 4]], "dart 0 appears 2 times in the rotation system"),
    ([[0, -1], [2, 1], [4, 3]], "dart -1 listed at node 0 is out of range: the graph has 6 darts"),
    ([[0, 9], [2, 1], [4, 3]], "dart 9 listed at node 0 is out of range: the graph has 6 darts"),
])
def test_check_embedding_rejects_bad_rotation(rot, message):
    # darts of the triangle 0 -> 1 -> 2 -> 0: 2a leaves tails[a], 2a+1 heads[a]
    g = PlanarGraph([0, 1, 2], [1, 2, 0], [1, 1, 1], rot)
    with pytest.raises(EmbeddingInvalid) as err:
        g.check_embedding()
    assert str(err.value) == message


def test_check_embedding_rejects_a_dart_listed_at_a_bare_node():
    g = PlanarGraph([], [], [], [[5]])
    with pytest.raises(EmbeddingInvalid) as err:
        g.check_embedding()
    assert str(err.value) == "dart 5 listed at node 0 is out of range: the graph has 0 darts"
    PlanarGraph([], [], [], [[]]).check_embedding()


@pytest.mark.parametrize("faces, message", [
    ([[0, 2, 4], [1, 5, 3]], None),
    ([[4, 0, 2], [3, 1, 5]], None),
    ([[1, 5, 3], [0, 2, 4]], None),
    ([[0, 4, 2], [1, 5, 3]], "given face 0 [0, 4, 2] disagrees with the face walk [0, 2, 4]"),
    ([[0, 2, 4]], "1 faces given but the rotation system has 2"),
    ([[0, 2, 4], [2, 4, 0]], "given face 1 [2, 4, 0] is not a face walk"),
    ([[0, 2, 4], [1, 5, 3], []], "given face 2 [] is not a face walk"),
    ([[0, 2, 4], [1, 5, 3, 6]], "given face 1 [1, 5, 3, 6] disagrees with the face walk [1, 5, 3]"),
])
def test_check_embedding_compares_given_faces(faces, message):
    # the triangle 0 -> 1 -> 2 -> 0 with its two face walks
    g = PlanarGraph([0, 1, 2], [1, 2, 0], [1, 1, 1], [[0, 5], [2, 1], [4, 3]],
                    faces=faces)
    if message is None:
        g.check_embedding()
        assert g.faces() is faces
    else:
        with pytest.raises(EmbeddingInvalid) as err:
            g.check_embedding()
        assert str(err.value) == message


def reference_walk_faces(tails, heads, rot):
    """The face walk by rotation position lookups, as first written."""
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


def with_pendants(g):
    """g triangulated, with a source and a sink detached on face corners."""
    gt = triangulate_and_biconnect(g)
    detaches = [(0, gt.rot[0][0], "source", 5), (1, gt.rot[1][-1], "sink", 5)]
    return detach_terminal_from_cycle(gt, detaches, FlowStore.for_graph(g))[0]


@pytest.mark.parametrize("kind, n, seed", [
    ("grid", 2, 1), ("grid", 9, 2), ("grid", 60, 3), ("tri", 3, 4), ("tri", 50, 5),
])
def test_walk_faces_matches_reference(kind, n, seed):
    g, _ = generate(kind, n, seed).build()
    graphs = [g, with_pendants(g)] if g.n >= 3 else [g]
    for h in graphs:
        assert walk_faces(h.tails, h.heads, h.rot) == \
            reference_walk_faces(h.tails, h.heads, h.rot)


def test_grid_faces():
    # 2x2 grid: 4 nodes, 4 arcs, inner face plus outer face
    arcs = [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]
    rotations = [[1, 2], [3, 0], [0, 3], [1, 2]]
    g = build_graph(4, arcs, rotations)
    assert g.num_faces == 2


def test_terminal_sets_reject_overlap():
    with pytest.raises(TerminalOverlap):
        TerminalSets(frozenset({1, 2}), frozenset({2, 3}))


def test_terminal_sets_name_an_overlap_of_ids_that_do_not_compare():
    """Ints sorted, then the other ids by repr, as the engine lists bad ids."""
    with pytest.raises(TerminalOverlap, match=r"^nodes \[1, 3, 'a'\] are both"):
        TerminalSets(frozenset({'a', 1, 3}), frozenset({3, 'a', 1}))
    with pytest.raises(TerminalOverlap, match=r"^nodes \[1, 'a'\] are both"):
        TerminalSets(frozenset({'a', 1}), frozenset({'a', 1}))


def test_terminal_sets_ok():
    ts = TerminalSets(frozenset({0}), frozenset({5}))
    assert 0 in ts.sources and 5 in ts.sinks


@given(st.sampled_from(["grid", "tri"]), st.integers(2, 60), st.integers(0, 10 ** 6))
def test_generated_instances_are_valid_embeddings(kind, n, seed):
    assume(n >= MIN_NODES[kind])
    g, ts = generate(kind, n, seed).build()
    assert g.n - g.m + g.num_faces == 2
    if kind == "tri":
        assert g.m == 3 * g.n - 6


@pytest.mark.parametrize("kind", ["grid", "tri"])
def test_generate_rejects_sizes_below_its_kind_minimum(kind):
    with pytest.raises(ValueError):
        generate(kind, MIN_NODES[kind] - 1, 0)


@given(st.integers(3, 50), st.integers(0, 10 ** 6))
def test_dart_involution_on_generated_graphs(n, seed):
    g, _ = generate("tri", n, seed).build()
    for d in range(2 * g.m):
        assert g.dart_tail(d) == g.dart_head(d ^ 1)


@given(st.integers(3, 50), st.integers(0, 10 ** 6))
def test_rotation_partitions_darts_on_generated_graphs(n, seed):
    g, _ = generate("tri", n, seed).build()
    listed = sorted(d for v in range(g.n) for d in g.rot[v])
    assert listed == list(range(2 * g.m))


def with_faces(g, faces):
    """g's arrays under other face walks, not checked."""
    return PlanarGraph(g.tails, g.heads, g.caps, g.rot, keys=g.keys, faces=faces)


@pytest.mark.parametrize("kind, n, seed", [("grid", 60, 1), ("tri", 50, 2), ("grid", 400, 3)])
def test_triangle_test_matches_the_set_reference(kind, n, seed):
    """Three distinct dart heads per face, as the set test reads it, on
    real triangulations, on the untriangulated input, and on face lists
    with one walk swapped for a 4-walk, a 2-walk, an empty walk, or a
    triangle that repeats a corner."""
    g, _ = generate(kind, n, seed).build()
    gt = with_pendants(g)
    tri = triangulate_and_biconnect(g)
    faces = tri.faces()
    x, y, z = faces[0]
    mutants = [[faces[0] + [faces[1][0]]], [[x, y]], [[]], [[x, y, x]], [[x, y, y ^ 1]]]
    graphs = [g, gt, tri] + [with_faces(tri, walk + faces[1:]) for walk in mutants]
    answers = [is_triangulated_biconnected(h) for h in graphs]
    assert answers == [reference_is_triangulated_biconnected(h) for h in graphs]
    assert answers[2] and not any(answers[3:])
