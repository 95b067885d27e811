"""check_embedding's given-face check against the check it replaced.

check_embedding follows given faces in its one walk_faces call.  The
reference in support.py checks them as two routines did before: a
successor check that accepts them as they are, else a fresh walk that
Euler's formula counts and the given walks are compared with.  On
rotation systems that pass Euler's check, both must accept the same
face lists and reject the others with the same error.
"""

import random

import pytest

from planarflow.errors import EmbeddingInvalid, NonPlanarEmbedding, PlanarFlowError
from planarflow.generate import generate
from planarflow.graph import PlanarGraph, walk_faces
from planarflow.separator import find_cycle_separator, split_into_pieces
from planarflow.surgery import triangulate_and_biconnect
from support import reference_check_given_faces


def graphs_of(kind, n, seed):
    """The built root, its triangulation and the two pieces of its split."""
    g, _ = generate(kind, n, seed).build()
    gt = triangulate_and_biconnect(g)
    pieces = split_into_pieces(gt, find_cycle_separator(gt))
    return [g, gt] + [p.graph for p in pieces]


def _pick(rng, faces):
    return rng.randrange(len(faces))


def _rotate(rng, faces, num_darts):
    w = faces[_pick(rng, faces)]
    k = rng.randrange(len(w) + 1)
    w[:] = w[k:] + w[:k]


def _reorder(rng, faces, num_darts):
    rng.shuffle(faces)


def _drop(rng, faces, num_darts):
    del faces[_pick(rng, faces)]


def _duplicate(rng, faces, num_darts):
    faces.insert(rng.randrange(len(faces) + 1), list(faces[_pick(rng, faces)]))


def _reverse(rng, faces, num_darts):
    faces[_pick(rng, faces)].reverse()


def _swap(rng, faces, num_darts):
    """Swap two darts, of one walk or of two."""
    spots = []
    for _ in range(2):
        w = faces[_pick(rng, faces)]
        if not w:
            return
        spots.append((w, rng.randrange(len(w))))
    (w, i), (x, j) = spots
    w[i], x[j] = x[j], w[i]


def _append(rng, faces, num_darts):
    faces[_pick(rng, faces)].append(rng.randrange(num_darts))


def _cut(rng, faces, num_darts):
    w = faces[_pick(rng, faces)]
    if w:
        del w[rng.randrange(len(w))]


def _add_empty(rng, faces, num_darts):
    faces.insert(rng.randrange(len(faces) + 1), [])


def _twice(rng, faces, num_darts):
    """One walk run around its face twice."""
    faces[_pick(rng, faces)] *= 2


def _out_of_range(rng, faces, num_darts):
    w = faces[_pick(rng, faces)]
    w.insert(rng.randrange(len(w) + 1), rng.choice([-1, num_darts, num_darts + 7]))


MUTATIONS = (_rotate, _reorder, _drop, _duplicate, _reverse, _swap, _append,
             _cut, _add_empty, _twice, _out_of_range)


def outcome(check):
    """None when check() passes, else the error's type and message."""
    try:
        check()
    except PlanarFlowError as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("kind", ["grid", "tri"])
@pytest.mark.parametrize("n, seed", [(30, 1), (120, 2), (400, 3)])
def test_given_faces_are_checked_as_the_reference_does(kind, n, seed):
    rng = random.Random(f"{kind} {n} {seed}")
    accepted = rejected = 0
    for h in graphs_of(kind, n, seed):
        num_darts = 2 * h.m
        for trial in range(60):
            faces = [list(w) for w in h.faces()]
            for _ in range(trial % 3):          # a third of the lists stay whole
                rng.choice(MUTATIONS)(rng, faces, num_darts)
            g = PlanarGraph(h.tails, h.heads, h.caps, h.rot, h.keys, faces=faces)
            got = outcome(g.check_embedding)
            want = outcome(lambda: reference_check_given_faces(
                h.tails, h.heads, h.rot, faces))
            assert got == want, (trial, faces)
            if got is None:
                accepted += 1
                assert g.faces() is faces
                assert g._face_of is not None      # the check kept its index
                face_of = g.dart_faces()
                assert all(face_of[d] == f for f, w in enumerate(faces) for d in w)
            else:
                rejected += 1
    assert accepted and rejected


def test_a_wrong_given_face_is_named_before_the_euler_check():
    """The one case where the order changed: a rotation system that fails
    Euler's check and has given faces that are not its face walks.  The
    walk over the given faces names the first bad one; the reference
    counted the walked faces first."""
    h, _ = generate("tri", 30, 4).build()
    v = next(v for v, r in enumerate(h.rot) if len(r) >= 4)
    rot = [list(r) for r in h.rot]
    rot[v][0], rot[v][1] = rot[v][1], rot[v][0]
    faces = [list(w) for w in h.faces()]
    assert h.n - h.m + len(walk_faces(h.tails, h.heads, rot)[0]) != 2
    g = PlanarGraph(h.tails, h.heads, h.caps, rot, h.keys, faces=faces)
    with pytest.raises(EmbeddingInvalid, match=r"^given face \d+ .* face walk"):
        g.check_embedding()
    with pytest.raises(NonPlanarEmbedding, match="^Euler check failed"):
        reference_check_given_faces(h.tails, h.heads, rot, faces)


def triangle_rejections(h):
    """Given face lists of h (whose faces are all triangles), each with one
    three-dart walk that no triangle check may accept, and the message the
    dart-by-dart walk gives for it."""
    faces = [list(w) for w in h.faces()]
    f = len(faces) // 2
    x, y, z = faces[f]
    other = faces[f - 1][0]
    ref = [x, y, z]
    cases = []
    for walk, why in (([x, z, y], "disagrees with the face walk %s" % ref),
                      ([x, y, other], "disagrees with the face walk %s" % ref),
                      ([x, x, y], "disagrees with the face walk %s" % ref),
                      ([x, y, x], "disagrees with the face walk %s" % ref),
                      ([x, y, 2 * h.m], "disagrees with the face walk %s" % ref),
                      ([x, y, -1], "disagrees with the face walk %s" % ref),
                      ([-1, y, z], "is not a face walk"),
                      ([2 * h.m, y, z], "is not a face walk"),
                      ([2 * h.m + 5, x, y], "is not a face walk")):
        given = [list(w) for w in faces]
        given[f] = walk
        cases.append((given, f"given face {f} {walk} {why}"))
    given = [list(w) for w in faces]         # the same triangle twice
    given.insert(f + 1, [y, z, x])
    cases.append((given, f"given face {f + 1} {[y, z, x]} is not a face walk"))
    return cases


@pytest.mark.parametrize("kind", ["grid", "tri"])
def test_given_triangles_that_are_not_face_walks_are_named(kind):
    """A three-dart walk out of order, with a dart of another face, with a
    repeated dart, with an out-of-range dart, or claimed twice, is named
    as the dart-by-dart walk names it, through check_embedding and
    walk_faces."""
    for h in graphs_of(kind, 120, 2)[1:]:      # triangulations: every face a triangle
        assert all(len(w) == 3 for w in h.faces())
        for given, message in triangle_rejections(h):
            g = PlanarGraph(h.tails, h.heads, h.caps, h.rot, h.keys, faces=given)
            with pytest.raises(EmbeddingInvalid) as err:
                g.check_embedding()
            assert str(err.value) == message
            with pytest.raises(EmbeddingInvalid) as err:
                walk_faces(h.tails, h.heads, h.rot, given)
            assert str(err.value) == message


def test_a_loop_s_one_dart_face_given_as_a_triangle_is_rejected():
    """Dart 0 of a loop is its own successor, so [0, 0, 0] passes three
    successor tests; it is no face walk."""
    with pytest.raises(EmbeddingInvalid,
                       match=r"^given face 0 \[0, 0, 0\] disagrees with the face walk \[0\]$"):
        walk_faces([0], [0], [[1, 0]], [[0, 0, 0], [1]])
