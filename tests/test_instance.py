import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from planarflow.errors import (
    Disconnected,
    EmbeddingInvalid,
    ParseError,
    TerminalOverlap,
)
from planarflow.generate import MIN_NODES, generate
from planarflow.instance import (
    import_dimacs_max,
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


@given(st.sampled_from(["grid", "tri"]), st.integers(2, 80), st.integers(0, 10 ** 6))
def test_roundtrip_idempotent_on_generated_instances(kind, n, seed):
    assume(n >= MIN_NODES[kind])
    inst = generate(kind, n, seed)
    once = serialize_instance(parse_instance_file(inst.text()))
    assert serialize_instance(parse_instance_file(once)) == once
