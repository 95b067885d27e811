import gc
import hashlib
import random
from math import isqrt

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from planarflow.errors import (
    Disconnected,
    EmbeddingInvalid,
    ParallelArcOrLoop,
    ParseError,
    TerminalOverlap,
)
from planarflow.generate import MIN_NODES, generate
from planarflow.instance import (
    ROTATION_LINE_CHARS,
    import_dimacs_max,
    lattice_rotations,
    parse_instance,
    parse_instance_file,
    serialize_instance,
)
from support import oracle_value_for_graph

MINIMAL = """p pmf 2 1
a 1 2 7
r 1 2
r 2 1
s 1
t 2
"""


def test_parse_minimal_instance():
    g, ts = parse_instance(MINIMAL)
    assert g.n == 2 and g.m == 1 and g.caps == [7]
    assert ts.sources == {0} and ts.sinks == {1}
    assert oracle_value_for_graph(g, ts.sources, ts.sinks) == 7


@pytest.mark.parametrize("kind", ["grid", "tri"])
def test_each_node_id_is_one_int_object(kind):
    """Every arc end, rotation entry and terminal that names a node holds
    the same int object for it."""
    inst = parse_instance_file(generate(kind, 900, 3).text())
    named = [v for t, h, _ in inst.arcs for v in (t, h)]
    named += [v for r in inst.rotations for v in r]
    named += inst.sources + inst.sinks
    first = {}
    for v in named:
        assert first.setdefault(v, v) is v
    assert sorted(first) == list(range(inst.num_nodes))


def test_a_count_above_the_id_table_bound_still_fails_at_line_1():
    """The last count that gets an id table and the first that does not,
    each promised by a two-node file, fail alike: at line 1, for the
    rotation lines the file lacks."""
    body = MINIMAL.split("\n", 1)[1]
    n = 2
    while ROTATION_LINE_CHARS * (n + 1) <= len(f"p pmf {n + 1} 1\n" + body) + 1:
        n += 1
    for count in (n, n + 1):
        with pytest.raises(ParseError) as exc:
            parse_instance_file(f"p pmf {count} 1\n" + body)
        assert exc.value.line == 1
        assert str(exc.value) == (f"line 1: missing rotation lines for {count - 2} "
                                  f"nodes: {list(range(3, min(count, 7) + 1))}"
                                  f"{' and more' if count > 7 else ''}")


def test_parse_rejects_terminal_overlap():
    text = MINIMAL.replace("t 2", "t 1")
    with pytest.raises(TerminalOverlap, match=r"nodes \[1\] are both"):
        parse_instance(text)


def test_parse_rejects_bad_rotation():
    bad = """p pmf 3 2
a 1 2 1
a 2 3 1
r 1 2
r 2 1 3
r 3 1
"""
    with pytest.raises(EmbeddingInvalid):
        parse_instance(bad)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_instance_file("p pmf 2 1\na 1 2\n")
    assert exc.value.line == 2


def test_parse_rejects_unknown_tag():
    with pytest.raises(ParseError):
        parse_instance_file("p pmf 1 0\nq nonsense\n")


def test_parse_rejects_disconnected():
    text = """p pmf 4 2
a 1 2 1
a 3 4 1
r 1 2
r 2 1
r 3 4
r 4 3
s 1
t 2
"""
    with pytest.raises(Disconnected):
        parse_instance(text)


def test_serialize_parse_roundtrip_idempotent():
    inst = generate("grid", 30, 5)
    once = serialize_instance(parse_instance_file(inst.text()))
    twice = serialize_instance(parse_instance_file(once))
    assert once == twice


def test_comments_dropped_in_canonical_form():
    inst = parse_instance_file("c hello\n" + MINIMAL)
    assert inst.comments == ["hello"]
    assert "c " not in serialize_instance(inst)


def test_generate_deterministic():
    a = generate("grid", 50, 123).text()
    b = generate("grid", 50, 123).text()
    assert a == b
    c = generate("grid", 50, 124).text()
    assert a != c


def test_generate_grid_shape():
    inst = generate("grid", 9, 1)
    assert inst.num_nodes == 9
    g, ts = inst.build()
    assert g.n == 9
    # 3x3 grid has 12 lattice arcs
    assert g.m == 12


def test_generate_grid_ragged():
    inst = generate("grid", 11, 2)
    g, ts = inst.build()
    assert g.n == 11


def test_generate_triangulation_parses_valid():
    inst = generate("tri", 100, 7)
    g, ts = inst.build()
    assert g.n == 100
    assert g.m == 3 * 100 - 6
    assert ts.sources and ts.sinks


def test_generate_terminals_disjoint_and_sized():
    inst = generate("tri", 200, 3, s_frac=0.1, t_frac=0.1)
    assert len(inst.sources) == 20 and len(inst.sinks) == 20
    assert not (set(inst.sources) & set(inst.sinks))


def test_generate_tiny():
    for n in (2, 3, 4):
        g, ts = generate("grid", n, 0).build()
        assert g.n == n


# SHA-256 of generate(kind, n, seed, cap_max=cap_max).text(), the default
# cap_max where it is None: small and ragged grids, each perfbench
# workload's first two instances, and one default case.  A change to a
# generator's draws, their order or its layout changes these.
GENERATED_DIGESTS = [
    ("grid", 2, 3, 100, "41dbf145e95fc242b9fb014878958f5378707d228c85099c350b5ad4be0075e0"),
    ("grid", 3, 3, 100, "adf7e225f1aac3b1c208015a80820d3dfbbeb43146cb38d9ac93c1186724021f"),
    ("grid", 5, 3, 100, "16e8dcc5ac7332190199328b96ba086736e2e611c7d60f9d072c935e914bc076"),
    ("grid", 11, 3, 100, "dcba9046699dbd032abdd600fdaa834432070ab92ec884b59bf702ce4564fbd8"),
    ("grid", 60, 3, 100, "62b7963ffe1b10658d460dc42e965d08be4fd7b83e6341449d711efba2ee9690"),
    ("grid", 800, 1000, 10 ** 6, "eba7fe90f13747f8963c0afc044a6d515ad1f56ccd1e33567cb6e2f514958430"),
    ("grid", 800, 1001, 10 ** 6, "61517fc9da76f2c17c68b96842e8b785d3843bfd9e758e8c55ea631b859ee84f"),
    ("grid", 1600, 1000, 10 ** 6, "52cbc8c9870fc359db3849332384ca925a9fabf11afe47a86b76619a5f945cc0"),
    ("grid", 1600, 1001, 10 ** 6, "c88dd47159153c62588dcd2879c69d73aee66a64bf629ae83475349116503e97"),
    ("tri", 1600, 1000, 10 ** 6, "16dc3915874deee8b2377119213f8d919427825a9db3bc67e94cab7282cb5f21"),
    ("tri", 1600, 1001, 10 ** 6, "e39f12668a15632f8b43b98cfddb01f2ea9135dc556d6bec5c63031cf74b6b62"),
    ("tri", 6400, 1000, 10 ** 6, "d6f56fa98b46b1506102a916d36fd12f643a37f1a295475996b387e5c95b9bbb"),
    ("tri", 6400, 1001, 10 ** 6, "2c9140cb00e521499e5f938023489069a2403f4165b101ad01da02c5aed44be2"),
    ("tri", 50, 7, None, "f82d65579bdbd452d9a630b00af69edc6b6eb9407f9ba3b9bc4c6c4d0ba9dc54"),
]


@pytest.mark.parametrize("kind, n, seed, cap_max, digest", GENERATED_DIGESTS,
                         ids=[f"{k}-{n}-{s}-{c}" for k, n, s, c, _ in GENERATED_DIGESTS])
def test_generated_instances_are_pinned(kind, n, seed, cap_max, digest):
    kwargs = {} if cap_max is None else {"cap_max": cap_max}
    text = generate(kind, n, seed, **kwargs).text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_dimacs_import_grid():
    lines = ["p max 6 7", "n 1 s", "n 6 t"]
    # 2x3 grid arcs
    for (u, v) in [(1, 2), (2, 3), (4, 5), (5, 6), (1, 4), (2, 5), (3, 6)]:
        lines.append(f"a {u} {v} 3")
    inst = import_dimacs_max("\n".join(lines))
    g, ts = inst.build()
    assert g.n == 6 and ts.sources == {0} and ts.sinks == {5}


def test_dimacs_import_rejects_non_grid():
    text = "p max 4 3\nn 1 s\nn 4 t\na 1 2 1\na 1 3 1\na 1 4 1\n"
    with pytest.raises(ParseError):
        import_dimacs_max(text)


def divisor_grid_rotations(num_nodes, pairs):
    """The rotations of the first rows x cols grid, rows rising through
    the divisors of num_nodes, whose node pairs are pairs; None if none
    is.  The import once tried every divisor this way."""
    for rows in range(1, num_nodes + 1):
        if num_nodes % rows:
            continue
        cols = num_nodes // rows
        expected = {(v, v + 1) for v in range(num_nodes) if (v + 1) % cols}
        expected |= {(v, v + cols) for v in range(num_nodes - cols)}
        if pairs == expected:
            return [[u for u in (v - cols, v + 1, v + cols, v - 1)
                     if 0 <= u < num_nodes and (min(u, v), max(u, v)) in pairs]
                    for v in range(num_nodes)]
    return None


def test_dimacs_import_matches_the_divisor_search_on_small_grids():
    """Every R x C grid and path, 1 <= R, C <= 6, imports as the divisor
    search read it, arcs in any order and direction; with one arc more or
    one arc less it is rejected exactly when that search found no grid."""
    rng = random.Random(7)
    for rows in range(1, 7):
        for cols in range(1, 7):
            n = rows * cols
            if n < 2:
                continue       # source and sink need two nodes
            grid = sorted({(v, v + 1) for v in range(n) if (v + 1) % cols}
                          | {(v, v + cols) for v in range(n - cols)})
            others = [(u, v) for u in range(n) for v in range(u + 1, n)
                      if (u, v) not in grid]
            variants = [grid, grid[1:], grid[:-1]]
            variants += [grid + [rng.choice(others)] for _ in range(3) if others]
            for pairs in variants:
                pairs = list(pairs)
                rng.shuffle(pairs)
                arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs]
                text = "\n".join([f"p max {n} {len(arcs)}", "n 1 s", f"n {n} t"]
                                  + [f"a {t + 1} {h + 1} 5" for t, h in arcs])
                want = divisor_grid_rotations(n, set(pairs))
                if want is None:
                    with pytest.raises(ParseError, match="too few for a grid|"
                                                         "not grid-recognizable"):
                        import_dimacs_max(text)
                else:
                    inst = import_dimacs_max(text)
                    assert inst.rotations == want
                    assert inst.arcs == [(t, h, 5) for t, h in arcs]
                    assert (inst.sources, inst.sinks) == ([0], [n - 1])


@pytest.mark.parametrize("n", [n for n in range(2, 121) if n % isqrt(n) == 0])
def test_the_grid_generator_and_the_dimacs_shim_share_the_lattice(n):
    """A full grid's arcs, read back through the shim with the corner
    nodes as terminals, get the generator's rotations."""
    for seed in range(3):
        inst = generate("grid", n, seed)
        text = "\n".join([f"p max {n} {len(inst.arcs)}", "n 1 s", f"n {n} t"]
                         + [f"a {t + 1} {h + 1} {c}" for t, h, c in inst.arcs])
        imported = import_dimacs_max(text)
        assert imported.rotations == inst.rotations
        assert imported.arcs == inst.arcs


@pytest.mark.parametrize("n", [2, 3, 7])
def test_the_dimacs_shim_reads_one_column_as_one_row(n):
    """A one-column lattice has the arcs of a one-row one, and with at
    most two neighbors a node's clockwise order is the same either way."""
    column = lattice_rotations(n, 1)
    text = "\n".join([f"p max {n} {n - 1}", "n 1 s", f"n {n} t"]
                     + [f"a {v + 2} {v + 1} 4" for v in range(n - 1)])
    imported = import_dimacs_max(text)
    assert imported.rotations == lattice_rotations(n, n)
    assert [sorted(r) for r in imported.rotations] == [sorted(r) for r in column]


def test_lattice_rotations_are_symmetric_and_at_most_four_wide():
    for n in range(2, 201):
        rot = lattice_rotations(n, n // isqrt(n))
        assert len(rot) == n
        for v, nbrs in enumerate(rot):
            assert len(nbrs) <= 4 and len(set(nbrs)) == len(nbrs)
            assert all(0 <= w < n and w != v and v in rot[w] for w in nbrs)


@given(st.sampled_from(["grid", "tri"]), st.integers(2, 80), st.integers(0, 10 ** 6))
def test_roundtrip_idempotent_on_generated_instances(kind, n, seed):
    assume(n >= MIN_NODES[kind])
    inst = generate(kind, n, seed)
    once = serialize_instance(parse_instance_file(inst.text()))
    assert serialize_instance(parse_instance_file(once)) == once


# parse and build pause the cyclic collector: they must leave no garbage
# cycles for it, and the caller's collector state must come back
MALFORMED = [
    (MINIMAL.replace("a 1 2 7", "a 1 x 7"),
     ParseError, "line 2: arc fields must be integers"),
    ("p pmf 2 2\na 1 2 7\na 2 1 3\nr 1 2\nr 2 1\ns 1\nt 2\n",
     ParallelArcOrLoop, "two arcs join nodes 1 and 2"),
    ("p pmf 3 2\na 1 2 7\na 2 3 3\nr 1 3\nr 2 1 3\nr 3 2\ns 1\nt 3\n",
     EmbeddingInvalid, r"node 1: rotation lists \[3\] but neighbors are \[2\]"),
]
MALFORMED_IDS = ["bad-arc-line", "parallel-arcs", "wrong-rotation"]


def test_parse_and_build_leave_the_collector_as_they_found_it(collecting):
    inst = parse_instance_file(generate("tri", 120, 5).text())
    assert gc.isenabled() is collecting
    g, _ = inst.build()
    assert g.n == 120
    assert gc.isenabled() is collecting


@pytest.mark.parametrize("text, error, message", MALFORMED, ids=MALFORMED_IDS)
def test_parse_and_build_leave_the_collector_as_they_found_it_when_they_raise(
        text, error, message, collecting):
    with pytest.raises(error, match=message):
        parse_instance_file(text).build()
    assert gc.isenabled() is collecting


@pytest.mark.parametrize("kind", ["grid", "tri"])
@pytest.mark.parametrize("n", [20, 300, 1600])
def test_set_up_leaves_no_garbage_cycles(kind, n):
    text = generate(kind, n, 1).text()
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        g, ts = parse_instance_file(text).build()
        found = gc.collect()
    finally:
        if was:
            gc.enable()
    assert found == 0
    assert g.n == n and ts.sources and ts.sinks


@pytest.mark.parametrize("text, error", [case[:2] for case in MALFORMED], ids=MALFORMED_IDS)
def test_a_malformed_text_leaves_no_garbage_cycles(text, error):
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    raised = False
    try:
        try:
            parse_instance_file(text).build()
        except error:
            raised = True
        found = gc.collect()
    finally:
        if was:
            gc.enable()
    assert raised and found == 0
