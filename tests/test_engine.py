import random

import pytest

from planarflow.config import EngineConfig
from planarflow.engine import MsmsEngine, msms_max_flow, residual_reaching
from planarflow.errors import AuditFailure
from planarflow.flow import FlowStore, is_feasible, residual_reachable
from planarflow.generate import generate
from planarflow.graph import build_graph
from planarflow.solvers import oracle_max_flow


def oracle_value(g, sources, sinks):
    arcs = [(g.tails[a], g.heads[a], g.caps[a]) for a in range(g.m)]
    return oracle_max_flow(g.n, arcs, sources, sinks).value


def test_single_arc():
    g = build_graph(2, [(0, 1, 7)], [[1], [0]])
    res = msms_max_flow(g, {0}, {1})
    assert res.value == 7
    assert res.arc_flows == [7]


def test_small_instance_uses_base_case():
    inst = generate("tri", 20, 3)
    g, ts = inst.build()
    res = msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=32))
    assert [rec.kind for rec in res.stats.levels] == ["base"]
    assert res.value == oracle_value(g, ts.sources, ts.sinks)


def test_recursion_engages_above_base_case():
    inst = generate("tri", 120, 5)
    g, ts = inst.build()
    res = msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=16))
    kinds = {rec.kind for rec in res.stats.levels}
    assert "split" in kinds
    assert res.value == oracle_value(g, ts.sources, ts.sinks)


def test_no_sources_or_no_sinks_is_zero():
    g = build_graph(2, [(0, 1, 7)], [[1], [0]])
    assert msms_max_flow(g, set(), {1}).value == 0
    assert msms_max_flow(g, {0}, set()).value == 0


def test_matches_oracle_with_full_audits():
    rng = random.Random(99)
    for _ in range(25):
        kind = rng.choice(["grid", "tri"])
        n = rng.randint(2, 260)
        inst = generate(kind, n, rng.randrange(10_000), cap_max=50)
        g, ts = inst.build()
        res = msms_max_flow(g, ts.sources, ts.sinks,
                            EngineConfig(audit="full", base_case=12))
        assert res.value == oracle_value(g, ts.sources, ts.sinks)


def test_final_flow_is_feasible_and_maximal():
    inst = generate("grid", 150, 11, cap_max=40)
    g, ts = inst.build()
    eng = MsmsEngine(g, ts.sources, ts.sinks, EngineConfig(audit="final"))
    res = eng.run()
    assert is_feasible(g, eng.store, ts.sources, ts.sinks)
    assert not (residual_reachable(g, eng.store, ts.sources) & ts.sinks)
    assert res.value == oracle_value(g, ts.sources, ts.sinks)


def test_tiny_graph_with_aggressive_base_case_hits_guard():
    g = build_graph(3, [(0, 1, 4), (1, 2, 6)], [[1], [0, 2], [1]])
    res = msms_max_flow(g, {0}, {2}, EngineConfig(base_case=2))
    assert res.value == 4
    assert any(rec.kind == "guard-base" for rec in res.stats.levels)


def test_terminals_on_separator_are_handled():
    # every node a terminal forces detachments at every level
    inst = generate("tri", 90, 17)
    g, ts = inst.build()
    nodes = list(range(g.n))
    rng = random.Random(0)
    rng.shuffle(nodes)
    sources = set(nodes[: g.n // 2])
    sinks = set(nodes[g.n // 2:])
    res = msms_max_flow(g, sources, sinks, EngineConfig(audit="full", base_case=12))
    assert res.value == oracle_value(g, sources, sinks)


def test_trace_records_cover_all_phases():
    inst = generate("grid", 100, 2)
    g, ts = inst.build()
    records = []
    msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=16),
                  trace=records.append)
    ops = {r["op"] for r in records}
    assert {"separator", "push_sources_to_boundary",
            "push_boundary_to_sinks", "redistribute", "solve_leaf"} <= ops
    redis = [r for r in records if r["op"] == "redistribute"]
    assert all("boundary_inflow" in r and "pushed" in r for r in redis)


def test_stats_shape_bound_holds():
    inst = generate("tri", 400, 23)
    g, ts = inst.build()
    res = msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=24))
    assert res.stats.shape_violations(c_sep=8.0) == []
    assert res.stats.max_depth <= 30


def test_deterministic_given_config():
    inst = generate("grid", 80, 4)
    g, ts = inst.build()
    r1 = msms_max_flow(g, ts.sources, ts.sinks)
    r2 = msms_max_flow(g, ts.sources, ts.sinks)
    assert r1.value == r2.value
    assert r1.arc_flows == r2.arc_flows



def test_second_run_raises():
    g, ts = generate("grid", 100, 3).build()
    eng = MsmsEngine(g, ts.sources, ts.sinks, EngineConfig(base_case=16))
    res = eng.run()
    levels = len(res.stats.levels)
    with pytest.raises(RuntimeError):
        eng.run()
    assert len(res.stats.levels) == levels

def test_settlement_mechanics_excess_returns_to_source():
    # source -> x -> sink path carrying 5; park 2 extra units on x by hand
    g = build_graph(3, [(0, 1, 9), (1, 2, 5)], [[1], [0, 2], [1]])
    eng = MsmsEngine(g, {0}, {2}, EngineConfig())
    eng.store.apply([(0, 7), (1, 5)])  # inflow(x) = +2
    eng._settle_pseudoflow(g, {0}, {2})
    assert eng.store.vals == [5, 5]
    assert is_feasible(g, eng.store, {0}, {2})


def test_settlement_mechanics_deficit_drains_from_sink():
    g = build_graph(3, [(0, 1, 9), (1, 2, 5)], [[1], [0, 2], [1]])
    eng = MsmsEngine(g, {0}, {2}, EngineConfig())
    eng.store.apply([(0, 3), (1, 5)])  # inflow(x) = -2
    eng._settle_pseudoflow(g, {0}, {2})
    assert eng.store.vals == [3, 3]


def test_settlement_noop_when_conserving():
    g = build_graph(3, [(0, 1, 9), (1, 2, 5)], [[1], [0, 2], [1]])
    eng = MsmsEngine(g, {0}, {2}, EngineConfig())
    eng.store.apply([(0, 4), (1, 4)])
    eng._settle_pseudoflow(g, {0}, {2})
    assert eng.store.vals == [4, 4]


def test_residual_reaching_is_reverse_of_reachable():
    inst = generate("tri", 30, 9)
    g, ts = inst.build()
    store = FlowStore.for_graph(g)
    rng = random.Random(1)
    from planarflow.solvers import graph_arcs, solve_msms_residual
    _, deltas = solve_msms_residual(g.n, graph_arcs(g), store,
                                    ts.sources, ts.sinks)
    store.apply(deltas)
    for v in range(0, g.n, 7):
        reaching = residual_reaching(g, store, {v})
        for u in range(g.n):
            assert (u in reaching) == (v in residual_reachable(g, store, {u}))


def test_audit_mode_counts_checks():
    inst = generate("grid", 90, 6)
    g, ts = inst.build()
    res_none = msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(audit="none"))
    res_full = msms_max_flow(g, ts.sources, ts.sinks,
                             EngineConfig(audit="full", base_case=16))
    assert res_none.audits == 0
    assert res_full.audits > 10
