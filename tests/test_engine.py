import ast
import gc
import random
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import planarflow
from planarflow import engine, separator, solvers, surgery
from planarflow.config import EngineConfig
from planarflow.engine import MsmsEngine, msms_max_flow
from planarflow.errors import AuditFailure, CapacityViolation, SettlementStuck
from planarflow.flow import FlowStore, inflow_all, is_feasible, residual_reachable
from planarflow.generate import generate
from planarflow.graph import (
    NO_KEY,
    PlanarGraph,
    build_graph,
    is_triangulated_biconnected,
    walk_faces,
)
from planarflow.oracle import oracle_max_flow
from planarflow.solvers import graph_arcs
from support import (
    check_pushes_against_apex,
    piece_pushes,
    reference_residual_reachable,
    reference_settle_pseudoflow,
    set_flows,
    walk_violations,
)


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
    assert not (set(residual_reachable(g, eng.store, ts.sources)) & ts.sinks)
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


def test_store_holds_only_root_arcs_and_detach_arcs():
    # the apex pushes and the walk add no arcs: no store key beyond the detaches
    inst = generate("grid", 400, 1)
    g, ts = inst.build()
    records = []
    eng = MsmsEngine(g, ts.sources, ts.sinks, trace=records.append)
    res = eng.run()
    detaches = sum(1 for r in records if r["op"] == "detach_terminal")
    assert detaches > 0
    assert len(eng.store.vals) == g.m + detaches
    assert res.value == oracle_value(g, ts.sources, ts.sinks)


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
    assert redis and all({"nodes", "budgets", "pushed", "boundary_inflow"} <= r.keys()
                         for r in redis)
    for r in redis:
        assert len(r["nodes"]) == len(r["budgets"]) > 0 and min(r["budgets"]) > 0
        assert 0 <= r["pushed"] <= sum(r["budgets"])


def test_stats_shape_bound_holds():
    inst = generate("tri", 400, 23)
    g, ts = inst.build()
    res = msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=24))
    assert res.stats.shape_violations() == []
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


def settle(eng, g, sources, sinks):
    """The engine's settlement of g's whole flow, read as its change from
    an all-zero snapshot."""
    net = graph_arcs(g, eng.store)
    eng._settle_pseudoflow(net, [0] * len(net), sources, sinks)


def test_settlement_mechanics_excess_returns_to_source():
    # source -> x -> sink path carrying 5; park 2 extra units on x by hand
    g = build_graph(3, [(0, 1, 9), (1, 2, 5)], [[1], [0, 2], [1]])
    eng = MsmsEngine(g, {0}, {2}, EngineConfig())
    eng.store.apply([(0, 7), (1, 5)])  # inflow(x) = +2
    settle(eng, g, {0}, {2})
    assert eng.store.vals == (5, 5)
    assert is_feasible(g, eng.store, {0}, {2})


def test_settlement_mechanics_deficit_drains_from_sink():
    g = build_graph(3, [(0, 1, 9), (1, 2, 5)], [[1], [0, 2], [1]])
    eng = MsmsEngine(g, {0}, {2}, EngineConfig())
    eng.store.apply([(0, 3), (1, 5)])  # inflow(x) = -2
    settle(eng, g, {0}, {2})
    assert eng.store.vals == (3, 3)


def test_settlement_noop_when_conserving():
    g = build_graph(3, [(0, 1, 9), (1, 2, 5)], [[1], [0, 2], [1]])
    eng = MsmsEngine(g, {0}, {2}, EngineConfig())
    eng.store.apply([(0, 4), (1, 4)])
    settle(eng, g, {0}, {2})
    assert eng.store.vals == (4, 4)


def test_settlement_cancels_a_cycle_then_returns_excess_and_drains_deficit():
    # 0 -> 1 -> 2 -> 3 -> 4 with the back arc 3 -> 1 closing a cycle
    arcs = [(0, 1, 9), (1, 2, 9), (2, 3, 9), (3, 1, 9), (3, 4, 9)]
    rot = [[1], [0, 2, 3], [1, 3], [2, 1, 4], [3]]
    g = build_graph(5, arcs, rot)
    eng = MsmsEngine(g, {0}, {4}, EngineConfig())
    # cycle 1-2-3 carries 2; inflow(1) = +3 and inflow(3) = -1
    eng.store.apply([(0, 5), (1, 4), (2, 4), (3, 2), (4, 3)])
    settle(eng, g, {0}, {4})
    assert eng.store.vals == (2, 2, 2, 0, 2)
    assert is_feasible(g, eng.store, {0}, {4})


def test_settlement_rejects_an_order_against_a_positive_arc(monkeypatch):
    g = build_graph(3, [(0, 1, 9), (1, 2, 5)], [[1], [0, 2], [1]])
    eng = MsmsEngine(g, {0}, {2}, EngineConfig())
    eng.store.apply([(0, 4), (1, 4)])
    monkeypatch.setattr(engine, "decompose_acyclic", lambda head, amounts: ({}, [2, 1, 0]))
    with pytest.raises(SettlementStuck, match="still contain a cycle"):
        settle(eng, g, {0}, {2})


@pytest.mark.parametrize("kind", ["grid", "tri"])
@pytest.mark.parametrize("n, base_case", [(400, 3), (400, 8), (300, 32), (120, 3)])
def test_settling_the_change_matches_the_whole_level_reference(monkeypatch, kind, n,
                                                               base_case):
    """At every split level, settling only the arcs whose flow moved since
    the snapshot leaves a flow that conserves at every non-terminal, moves
    no other arc, and has the value of the whole-level reference settle."""
    levels = []
    real = MsmsEngine._settle_pseudoflow

    def recording(self, net, snapshot, sources, sinks):
        head = self.store.head
        level = SimpleNamespace(n=len(net.adj), m=len(net),
                                tails=[head[2 * k + 1] for k in net.keys],
                                heads=[head[2 * k] for k in net.keys], keys=net.keys)
        ref = FlowStore()
        ref.caps, ref.res = self.store.caps, list(self.store.res)
        reference_settle_pseudoflow(ref, level, sources, sinks)
        vals = self.store.vals
        moved = [vals[k] != s for k, s in zip(net.keys, snapshot)]
        real(self, net, snapshot, sources, sinks)
        levels.append((level, snapshot, moved, ref.res, list(self.store.res),
                       set(sources) | set(sinks), sinks))
    monkeypatch.setattr(MsmsEngine, "_settle_pseudoflow", recording)

    for seed in range(2):
        levels.clear()
        g, ts = generate(kind, n, seed).build()
        res = msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=base_case))
        assert res.value == oracle_value(g, ts.sources, ts.sinks)
        assert len(levels) > 2
        for level, snapshot, moved, ref_res, res, terminals, sinks in levels:
            balance = inflow_all(level, SimpleNamespace(res=res))
            assert all(b == 0 for v, b in enumerate(balance) if v not in terminals)
            ref_balance = inflow_all(level, SimpleNamespace(res=ref_res))
            assert sum(balance[t] for t in sinks) == sum(ref_balance[t] for t in sinks)
            assert all(res[2 * key + 1] == x for key, x, m in zip(level.keys, snapshot, moved)
                       if not m)
        assert sum(sum(moved) for _, _, moved, *_ in levels) < sum(
            len(level.keys) for level, *_ in levels)


def test_audit_mode_counts_checks():
    inst = generate("grid", 90, 6)
    g, ts = inst.build()
    res_none = msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(audit="none"))
    res_full = msms_max_flow(g, ts.sources, ts.sinks,
                             EngineConfig(audit="full", base_case=16))
    assert res_none.audits == 0
    assert res_full.audits == 300       # the walk audits once per run


def test_walk_that_pushes_nothing_fails_the_full_audit_at_a_named_step(monkeypatch):
    monkeypatch.setattr(engine, "limited_max_flow",
                        lambda store, net, src, dst, limit: (0, []))
    g, ts = generate("grid", 200, 3).build()
    with pytest.raises(AuditFailure, match=r"^depth \d+ walk step \d+: .* \(nodes \[\d"):
        msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(audit="full", base_case=16))


def run_full_audit_until_it_fails(g, ts):
    """A full-audit solve of g that fails: its message and the audits made."""
    eng = MsmsEngine(g, ts.sources, ts.sinks, EngineConfig(audit="full", base_case=16))
    with pytest.raises(AuditFailure) as err:
        eng.run()
    return str(err.value), eng.audits


@pytest.mark.parametrize("push, audits, message", [
    ("msss_max_flow", 11,
     "depth 4 piece 1 source push: source reaches a boundary node (nodes [5])"),
    ("ssms_max_flow", 63,
     "depth 4 piece 0 apex pushes: boundary node reaches a sink (nodes [10, 12])"),
], ids=["source-push", "sink-push"])
def test_apex_push_that_pushes_nothing_fails_the_full_audit(monkeypatch, push, audits,
                                                            message):
    monkeypatch.setattr(engine, push, lambda store, net, sources, sinks: (0, []))
    g, ts = generate("grid", 200, 3).build()
    assert run_full_audit_until_it_fails(g, ts) == (message, audits)


def test_piece_recursion_that_solves_nothing_fails_the_full_audit(monkeypatch):
    real = MsmsEngine._solve

    def solve_the_root_only(self, level, sources, sinks, depth):
        if depth == 0:
            real(self, level, sources, sinks, depth)
    monkeypatch.setattr(MsmsEngine, "_solve", solve_the_root_only)
    g, ts = generate("grid", 200, 3).build()
    assert run_full_audit_until_it_fails(g, ts) == (
        "depth 0 piece 0 recursion: source reaches a sink (nodes [35, 36, 48, 74, 80])", 2)


def record_level_pushes(monkeypatch, around):
    """Call around(engine, gd, boundary, sources, sinks, parts) before
    every level's boundary pushes and keep what it returns, paired with
    the flow those pushes leave on gd's keyed arcs."""
    levels = []
    push = MsmsEngine._push_boundary

    def recording(self, net, gd, boundary, sources, sinks, parts, depth):
        before = around(self, gd, boundary, sources, sinks, parts)
        push(self, net, gd, boundary, sources, sinks, parts, depth)
        vals = self.store.vals
        levels.append((before, [vals[k] for k in gd.keys if k != NO_KEY]))
    monkeypatch.setattr(MsmsEngine, "_push_boundary", recording)
    return levels


@pytest.mark.parametrize("kind, n, seed", [("grid", 200, 3), ("tri", 300, 8)])
def test_boundary_set_pushes_match_the_apex_on_real_pieces(monkeypatch, kind, n, seed):
    """At every split level of a recursive solve, from the flow both
    pieces' recursions left there, the pushes into and out of the level
    graph's boundary set match the pushes through the paper's apex joined
    to every boundary node (see check_pushes_against_apex), and the
    engine's own pushes leave the same flow as that check's."""
    def state(eng, gd, boundary, sources, sinks, parts):
        keyed = [(t, h, k) for t, h, k in zip(gd.tails, gd.heads, gd.keys) if k != NO_KEY]
        vals = eng.store.vals
        return (gd.n, [(t, h, eng.store.caps[k]) for t, h, k in keyed],
                [vals[k] for _, _, k in keyed], sorted(sources),
                sorted(sinks), boundary)

    levels = record_level_pushes(monkeypatch, state)
    g, ts = generate(kind, n, seed).build()
    msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=16))
    assert len(levels) > 4
    for level, after in levels:
        assert check_pushes_against_apex(*level) == after


@pytest.mark.parametrize("kind, n, seed", [("grid", 400, 1), ("tri", 400, 2)])
def test_level_pushes_have_the_values_of_the_piece_pushes(monkeypatch, kind, n, seed):
    """From the store both recursions left, the level's source push and
    sink push each move the sum of what the two pieces' own pushes move."""
    def piece_values(eng, gd, boundary, sources, sinks, parts):
        store = FlowStore()
        store.caps, store.res = list(eng.store.caps), list(eng.store.res)
        store.head = [0] * len(store.res)
        return [sum(v) for v in zip(*(piece_pushes(store, *part) for part in parts))]

    levels = record_level_pushes(monkeypatch, piece_values)
    records = []
    g, ts = generate(kind, n, seed).build()
    msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=16), trace=records.append)
    into = [r["value"] for r in records if r["op"] == "push_sources_to_boundary"]
    out = [r["value"] for r in records if r["op"] == "push_boundary_to_sinks"]
    assert len(levels) == len(into) == len(out) > 10
    assert [before for before, _ in levels] == [list(v) for v in zip(into, out)]
    assert any(sum(v) for v in zip(into, out))


@pytest.mark.parametrize("kind, n, base_case", [("grid", 400, 16), ("tri", 300, 8),
                                                ("grid", 60, 3)])
def test_one_residual_net_per_level(monkeypatch, kind, n, base_case):
    """A solve builds one residual net per split level, for its pushes and
    its walk, and one per leaf (grid n = 60 has a guard-base leaf)."""
    builds = []
    real = engine.graph_arcs
    monkeypatch.setattr(engine, "graph_arcs", lambda g, store: builds.append(g) or real(g, store))
    g, ts = generate(kind, n, 1).build()
    res = msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=base_case))
    kinds = [rec.kind for rec in res.stats.levels]
    assert kinds.count("split") > 0
    assert len(builds) == len(kinds) - kinds.count("empty")


@pytest.mark.parametrize("audit", ["final", "full"])
def test_feasibility_audit_names_the_nodes_that_do_not_conserve(monkeypatch, audit):
    monkeypatch.setattr(MsmsEngine, "_settle_pseudoflow",
                        lambda self, net, snapshot, sources, sinks: None)
    g, ts = generate("grid", 200, 3).build()
    with pytest.raises(AuditFailure, match=r"^depth \d+ settlement: level flow does not "
                                           r"conserve \(nodes \[\d+(, \d+){0,4}\]\)$"):
        msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(audit=audit, base_case=16))

    monkeypatch.setattr(MsmsEngine, "_audit_level_final",
                        lambda self, gd, sources, sinks, depth: None)
    with pytest.raises(AuditFailure, match=r"^final flow is not feasible on the input "
                                           r"graph \(nodes \[\d"):
        msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(audit=audit, base_case=16))


@pytest.mark.parametrize("audit", ["final", "full"])
def test_feasibility_audit_names_the_keys_that_break_their_capacity(monkeypatch, audit):
    """A flow that conserves but leaves one arc above its capacity, and
    another with a residual pair that does not sum to it, both on arcs
    between two terminals: the final check names both keys, sorted."""
    g, ts = generate("grid", 30, 3).build()
    terminals = ts.sources | ts.sinks
    between = [a for a in range(g.m) if g.tails[a] in terminals and g.heads[a] in terminals]
    assert len(between) == 2
    real_solve = MsmsEngine._solve

    def solve_then_break(self, level, sources, sinks, depth):
        real_solve(self, level, sources, sinks, depth)
        if depth == 0:
            res, caps = self.store.res, self.store.caps
            torn, over = between
            res[2 * over + 1], res[2 * over] = caps[over] + 1, -1
            res[2 * torn] += 1
    monkeypatch.setattr(MsmsEngine, "_solve", solve_then_break)
    with pytest.raises(AuditFailure) as err:
        msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(audit=audit))
    assert str(err.value) == ("final flow is not feasible on the input graph "
                              f"(keys {sorted(between)} break their capacity)")


@pytest.mark.parametrize("base_case", [10 ** 9, 8], ids=["direct", "recursive"])
def test_terminal_ids_outside_the_graph_are_rejected(base_case):
    g, _ = generate("tri", 50, 1).build()
    cfg = EngineConfig(base_case=base_case, audit="full")
    for sources, sinks in (({-1}, {1}), ({0}, {g.n}), ({-1, 0}, {g.n, g.n + 7})):
        with pytest.raises(ValueError, match=r"outside the graph's nodes 0\.\.49"):
            msms_max_flow(g, sources, sinks, cfg)
    with pytest.raises(ValueError, match=r": \[-2, -1, 50, 51, 52\]$"):
        msms_max_flow(g, {-2, -1, 0}, {50, 51, 52, 53}, cfg)


@pytest.mark.parametrize("base_case", [10 ** 9, 8], ids=["direct", "recursive"])
def test_terminal_ids_that_are_not_ints_are_rejected(base_case):
    """1.0 and True equal node 1 but are not node ids; ids of mixed types,
    unhashable ones too, are listed ints first, sorted, then the rest in
    repr order, before any overlap between the sets is looked for."""
    g, _ = generate("tri", 50, 1).build()
    cfg = EngineConfig(base_case=base_case, audit="full")
    for sources, sinks, listed in (({1.0}, {3}, "[1.0]"), ({0}, {True}, "[True]"),
                                   ({"3"}, {99}, "[99, '3']"),
                                   ({0, 2.5, 60}, {4, "x", -1}, "[-1, 60, 'x', 2.5]"),
                                   ([[1], "3"], ["3", 2], "['3', [1]]")):
        with pytest.raises(ValueError, match=r"outside the graph's nodes 0\.\.49: "
                                             + re.escape(listed) + "$"):
            msms_max_flow(g, sources, sinks, cfg)


ONE_SHOT = {"iterator": iter, "generator": lambda ids: (v for v in ids)}


@pytest.mark.parametrize("base_case", [10 ** 9, 8], ids=["direct", "recursive"])
@pytest.mark.parametrize("shape", ONE_SHOT)
def test_terminals_may_arrive_as_one_shot_iterables(monkeypatch, base_case, shape):
    """Both entry points read their terminals once: the engine given
    iterators or generators solves as it does given lists, value and
    arc_flows, and so does a solve whose every terminal_set_flow call
    gets its terminals that way, but for a walk run's budgeted roots,
    which come as a dict from node to budget."""
    one_shot = ONE_SHOT[shape]
    cfg = EngineConfig(base_case=base_case, audit="full")
    built = [generate(*case).build() for case in (("grid", 100, 1), ("tri", 200, 2))]

    def solve(wrap):
        return [(r.value, r.arc_flows) for r in (
            msms_max_flow(g, wrap(sorted(ts.sources)), wrap(sorted(ts.sinks)), cfg)
            for g, ts in built)]

    want = solve(list)
    assert want[0][0] == 29
    assert solve(one_shot) == want

    calls = []

    def flow(store, net, sources, sinks, *limit):
        calls.append(limit)
        sources, sinks = (ids if isinstance(ids, dict) else one_shot(ids)
                          for ids in (sources, sinks))
        return solvers.terminal_set_flow(store, net, sources, sinks, *limit)

    for name in SOLVER_NAMES:
        monkeypatch.setattr(engine, name, flow)
    assert solve(list) == want
    assert any(calls) == (base_case == 8)     # the walk's limited flows


def test_walk_audit_is_exact_on_random_residual_states():
    """The engine's shared-search walk audit fails exactly on the states
    where separate searches find a broken predicate, and names one of
    them; a passing audit makes the same number of checks as before."""
    rng = random.Random(19)
    outcomes = set()
    for _ in range(1500):
        kind = rng.choice(["grid", "tri"])
        g, _ = generate(kind, rng.randint(6, 40), rng.randrange(10 ** 6),
                        cap_max=rng.choice((1, 2, 5))).build()
        nodes = list(range(g.n))
        rng.shuffle(nodes)
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        k = rng.randint(2, min(8, g.n - a - b))
        sources, sinks, boundary = set(nodes[:a]), set(nodes[a:a + b]), nodes[a + b:a + b + k]
        i = rng.randrange(k - 1)
        eng = MsmsEngine(g, sources, sinks, EngineConfig(audit="full"))
        set_flows(eng.store, [rng.randint(0, c) for c in eng.store.caps])
        expected = walk_violations(g, eng.store, sources, sinks, boundary, i)
        try:
            eng._audit_redistribute_iteration(g, boundary, sources, sinks, i, 2)
        except AuditFailure as err:
            where, what = str(err).split(": ", 1)
            assert where == f"depth 2 walk step {i}"
            assert what.rsplit(" (nodes ", 1)[0] in expected
            outcomes.add("fails")
        else:
            assert expected == []
            balance = inflow_all(g, eng.store)
            signs = {(balance[p] > 0) - (balance[p] < 0) for p in boundary[: i + 1]}
            assert eng.audits == 5 + ({1, -1} <= signs)
            outcomes.add("passes")
    assert outcomes == {"fails", "passes"}


def test_walk_runs_keep_the_walk_invariants_on_random_residual_states(monkeypatch):
    """From a random residual state, three pushes (sources to sinks, to
    the boundary, boundary to sinks) give what a level hands its walk;
    after every run of the walk, separate searches find no broken walk
    predicate.  The runs follow each other along the boundary and end by
    boundary[k - 2]; each is one limited flow between budgeted roots of
    its own stretch and the rest of the boundary, limited to the
    budgets' sum; the nodes after the last run, up to boundary[k - 2],
    end the walk balanced."""
    rng = random.Random(11)
    after = []
    calls = []

    def checking(self, gd, boundary, sources, sinks, i, depth):
        after.append((i, walk_violations(gd, self.store, sources, sinks, boundary, i)))

    def flow(store, net, src, dst, limit):
        calls.append((src, dst, limit))
        return solvers.terminal_set_flow(store, net, src, dst, limit)

    monkeypatch.setattr(MsmsEngine, "_audit_redistribute_iteration", checking)
    monkeypatch.setattr(engine, "limited_max_flow", flow)
    multi_root = 0
    for _ in range(400):
        kind = rng.choice(["grid", "tri"])
        g, _ = generate(kind, rng.randint(6, 40), rng.randrange(10 ** 6),
                        cap_max=rng.choice((1, 2, 5))).build()
        nodes = list(range(g.n))
        rng.shuffle(nodes)
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        k = rng.randint(2, min(10, g.n - a - b))
        sources, sinks, boundary = set(nodes[:a]), set(nodes[a:a + b]), nodes[a + b:a + b + k]
        eng = MsmsEngine(g, sources, sinks, EngineConfig())
        set_flows(eng.store, [rng.randint(0, c) for c in eng.store.caps])
        net = graph_arcs(g, eng.store)
        for src, dst in ((sources, sinks), (sources, boundary), (boundary, sinks)):
            solvers.terminal_set_flow(eng.store, net, src, dst)
        assert walk_violations(g, eng.store, sources, sinks, boundary, -1) == []
        after.clear()
        calls.clear()
        eng._redistribute_boundary(net, g, boundary, sources, sinks, 0)
        assert [hit for _, hit in after] == [[]] * len(calls)
        ends = [i for i, _ in after]
        assert ends == sorted(set(ends)) and all(i <= k - 2 for i in ends)
        start = 0
        for i, (src, dst, limit) in zip(ends, calls):
            budgets = src if isinstance(src, dict) else dst
            rest = dst if isinstance(src, dict) else src
            assert list(rest) == boundary[i + 1:]
            assert set(budgets) <= set(boundary[start:i + 1]) and limit == sum(budgets.values())
            assert min(budgets.values()) > 0
            multi_root += len(budgets) > 1
            start = i + 1
        balance = inflow_all(g, eng.store)
        assert not any(balance[v] for v in boundary[start:k - 1])
    assert multi_root > 0


SEPARATION_CHECKS = ("source reaches a sink", "source reaches a boundary node",
                     "boundary node reaches a sink")


def separation_violations(g, store, sources, sinks, boundary):
    """The no-walk separation predicates that fail, in the audit's order,
    each with up to five sorted offending nodes, by separate searches."""
    from_sources = reference_residual_reachable(g, store, sources)
    from_boundary = reference_residual_reachable(g, store, boundary)
    hits = (from_sources & set(sinks), from_sources & set(boundary),
            from_boundary & set(sinks))
    return [(what, sorted(hit)[:5]) for what, hit in zip(SEPARATION_CHECKS, hits) if hit]


@pytest.mark.parametrize("form", ["apex pushes", "before the walk"])
def test_separation_audit_is_exact_on_random_residual_states(form):
    """The engine's one-array separation audit, in its two forms without a
    walk, fails exactly where separate searches find a broken predicate,
    names the first in check order with its nodes, and counts the checks
    made up to it.  Each check is the first to fail somewhere."""
    rng = random.Random(form)
    outcomes = set()
    for _ in range(600):
        kind = rng.choice(["grid", "tri"])
        g, _ = generate(kind, rng.randint(6, 40), rng.randrange(10 ** 6),
                        cap_max=rng.choice((1, 2, 5))).build()
        nodes = list(range(g.n))
        rng.shuffle(nodes)
        a, b = rng.randint(1, 2), rng.randint(1, 2)
        k = rng.randint(1, min(8, g.n - a - b))
        sources, sinks, boundary = set(nodes[:a]), set(nodes[a:a + b]), nodes[a + b:a + b + k]
        eng = MsmsEngine(g, sources, sinks, EngineConfig(audit="full"))
        set_flows(eng.store, [rng.randint(0, c) for c in eng.store.caps])
        expected = separation_violations(g, eng.store, sources, sinks, boundary)
        where = "depth 2 piece 1 apex pushes" if form == "apex pushes" \
            else "depth 2 before the walk"
        try:
            eng._audit_separated(g, sources, sinks, boundary, where)
        except AuditFailure as err:
            what, hit = expected[0]
            assert str(err) == f"{where}: {what} (nodes {hit})"
            assert eng.audits == SEPARATION_CHECKS.index(what) + 1
            outcomes.add(what)
        else:
            assert expected == []
            assert eng.audits == 3
            outcomes.add("passes")
    assert outcomes == {*SEPARATION_CHECKS, "passes"}


def cyclic_faces(walks):
    """Each walk turned to start at its lowest dart, the walks sorted."""
    out = []
    for walk in walks:
        i = walk.index(min(walk))
        out.append(walk[i:] + walk[:i])
    return sorted(out)


def record_pieces(monkeypatch):
    """Collect every piece the engine's splits produce."""
    pieces = []
    real_split = engine.split_into_pieces

    def split(g, sep):
        result = real_split(g, sep)
        pieces.extend(result)
        return result
    monkeypatch.setattr(engine, "split_into_pieces", split)
    return pieces


@pytest.mark.parametrize("kind", ["grid", "tri"])
@pytest.mark.parametrize("n", [30, 90, 400])
@pytest.mark.parametrize("base_case", [3, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pieces_inherit_their_face_walks(monkeypatch, kind, n, base_case, seed):
    """Every piece carries exactly the face walks of its rotation, though
    a run walks none of them, and is a two-connected triangulation, so
    the pieces that split need no check.  The pieces keep their graphs,
    which are read after the solve."""
    g, ts = generate(kind, n, seed).build()
    monkeypatch.setattr(separator.Piece, "drop_graph", lambda piece: None)
    pieces = record_pieces(monkeypatch)
    separated = []
    real_find = engine.find_cycle_separator
    monkeypatch.setattr(engine, "find_cycle_separator",
                        lambda h: separated.append(h) or real_find(h))
    res = msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=base_case))
    assert res.value == oracle_value(g, ts.sources, ts.sinks)
    assert pieces or n <= base_case
    for piece in pieces:
        h = piece.graph
        assert cyclic_faces(h.faces()) == walk_faces(h.tails, h.heads, h.rot)[0]
        assert is_triangulated_biconnected(h)
    for h in separated:
        assert is_triangulated_biconnected(h)


def test_one_triangulation_and_one_check_per_solve(monkeypatch):
    """A recursive solve triangulates and checks the embedding once, at
    the root; under audit=full the engine also checks every piece once."""
    g, ts = generate("grid", 400, 1).build()
    calls = {"triangulate": 0}
    checked = []
    real_tri = engine.triangulate_and_biconnect
    real_check = PlanarGraph.check_embedding

    def triangulate(h):
        calls["triangulate"] += 1
        return real_tri(h)

    def check(h):
        checked.append(h)
        return real_check(h)
    monkeypatch.setattr(engine, "triangulate_and_biconnect", triangulate)
    monkeypatch.setattr(PlanarGraph, "check_embedding", check)

    res = MsmsEngine(g, ts.sources, ts.sinks, EngineConfig(audit="none")).run()
    assert sum(rec.kind == "split" for rec in res.stats.levels) > 10
    assert calls["triangulate"] == 1
    assert len(checked) <= 1

    calls["triangulate"] = 0
    checked.clear()
    pieces = record_pieces(monkeypatch)
    MsmsEngine(g, ts.sources, ts.sinks, EngineConfig(audit="full")).run()
    assert calls["triangulate"] == 1 and len(pieces) > 20
    assert sorted(map(id, checked[1:])) == sorted(id(p.graph) for p in pieces)


def count_builds(monkeypatch):
    """Count the triangulated graphs a solve builds: the root's, through
    triangulate_and_biconnect, and every piece's."""
    builds = []
    for module in (surgery, separator):
        real = module.triangulated
        monkeypatch.setattr(module, "triangulated",
                            lambda *args, real=real: builds.append(1) or real(*args))
    return builds


def record_level_kinds(monkeypatch):
    """Pair every level's graph or piece with the kind of its level."""
    kinds = []
    real = MsmsEngine._solve

    def solve(self, g, sources, sinks, depth):
        i = len(self.stats.levels)
        real(self, g, sources, sinks, depth)
        kinds.append((g, self.stats.levels[i].kind))
    monkeypatch.setattr(MsmsEngine, "_solve", solve)
    return kinds


@pytest.mark.parametrize("kind, n, base_case", [("grid", 400, 8), ("tri", 400, 8),
                                                ("tri", 400, 3), ("grid", 300, 32),
                                                ("grid", 60, 3)])
def test_only_the_pieces_that_split_are_built(monkeypatch, kind, n, base_case):
    """At audit=none a piece's graph is built only when its level splits
    or falls back to a guard-base solve; empty pieces and leaves are
    solved from the arc arrays the split filled.  A piece's graph is let
    go once its recursion returns, or before, once a detach copied it;
    the first drop sees whether the graph was built."""
    builds = count_builds(monkeypatch)
    kinds = record_level_kinds(monkeypatch)
    built = {}
    drop = separator.Piece.drop_graph

    def recording(piece):
        built.setdefault(id(piece), piece._graph is not None)
        drop(piece)
    monkeypatch.setattr(separator.Piece, "drop_graph", recording)
    g, ts = generate(kind, n, 1).build()
    res = msms_max_flow(g, ts.sources, ts.sinks,
                        EngineConfig(base_case=base_case, audit="none"))
    assert res.value == oracle_value(g, ts.sources, ts.sinks)
    levels = [rec.kind for rec in res.stats.levels]
    assert len(builds) == levels.count("split") + levels.count("guard-base")
    pieces = kinds[:-1]                 # the root's level finishes last
    found = {k for _, k in pieces}
    assert found >= {"split", "empty"} and found & {"base", "guard-base"}
    for piece, k in pieces:
        assert built[id(piece)] == (k in ("split", "guard-base"))
        assert piece._graph is None


def test_every_piece_is_built_under_the_full_audit(monkeypatch):
    builds = count_builds(monkeypatch)
    pieces = record_pieces(monkeypatch)
    g, ts = generate("grid", 300, 2).build()
    res = msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=8, audit="full"))
    assert res.value == oracle_value(g, ts.sources, ts.sinks)
    assert len(pieces) > 20 and all(p._graph is not None for p in pieces)
    assert len(builds) == len(pieces) + 1


def test_piece_with_wrong_faces_fails_the_full_audit(monkeypatch):
    g, ts = generate("tri", 120, 4).build()
    real_split = engine.split_into_pieces

    def split(gd, sep):
        p1, p2 = real_split(gd, sep)
        p2.graph._faces = p2.graph.faces()[1:]
        return p1, p2
    monkeypatch.setattr(engine, "split_into_pieces", split)
    with pytest.raises(AuditFailure, match="^depth 0 piece 1: .* faces given"):
        msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(audit="full"))


SOLVER_NAMES = ("msss_max_flow", "ssms_max_flow", "limited_max_flow", "solve_msms_residual")


def test_the_four_solver_names_are_one_terminal_set_flow():
    """The engine calls one terminal-set flow under four names, so each
    name takes a limit and rejects a negative one and overlapping sets."""
    for name in SOLVER_NAMES:
        assert getattr(engine, name) is solvers.terminal_set_flow
    g = build_graph(3, [(0, 1, 5), (1, 2, 4)], [[1], [0, 2], [1]])
    store = FlowStore.for_graph(g)
    net = graph_arcs(g, store)
    flow = solvers.terminal_set_flow
    with pytest.raises(ValueError, match="^flow limit must be non-negative$"):
        flow(store, net, [0], [2], -1)
    with pytest.raises(ValueError, match="^sources and sinks overlap$"):
        flow(store, net, [0, 1], [1, 2])
    with pytest.raises(ValueError, match="^sources and sinks overlap$"):
        flow(store, net, [0, 1], [1, 2], 3)
    value, _ = flow(store, net, [0], [2], 3)
    assert (value, store.vals) == (3, (3, 3))
    value, _ = flow(store, net, [0], [2])
    assert (value, store.vals) == (1, (4, 4))


BENCHMARK_NAMES = SOLVER_NAMES + ("attach_apex",)
ORACLE_FREE = ("engine.py", "solvers.py", "flow.py", "graph.py", "separator.py",
               "surgery.py")


def _imports(path):
    """Every module, and every name of a module, that a source file
    imports, dotted; a relative import keeps its leading dots."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "" if base.endswith(".") else "."
            out.add(base)
            out.update(base + sep + alias.name for alias in node.names)
    return out


def test_the_engine_imports_no_oracle_and_owns_the_benchmark_names():
    """The engine's modules import nothing of the oracle, the oracle
    imports no planarflow module, and the five names the benchmark wraps
    are module-level bindings of engine.py alone."""
    src = Path(engine.__file__).parent
    for name in ORACLE_FREE:
        assert not any(m == base or m.startswith(base + ".")
                       for m in _imports(src / name)
                       for base in (".oracle", "planarflow.oracle")), name
    assert not any(m.startswith(".") or m.split(".")[0] == "planarflow"
                   for m in _imports(src / "oracle.py"))
    for path in sorted(src.glob("*.py")):
        defined = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        if path.name == "engine.py":
            assert defined.issuperset(BENCHMARK_NAMES)
        else:
            assert defined.isdisjoint(BENCHMARK_NAMES), path.name
    assert not any(hasattr(planarflow, name) for name in BENCHMARK_NAMES)
    assert engine.msss_max_flow is solvers.terminal_set_flow
    assert engine.attach_apex(None, (3, 1)) == [3, 1]


@pytest.mark.parametrize("audit", ["none", "full"])
@pytest.mark.parametrize("base_case", [3, 8, 32])
@pytest.mark.parametrize("kind, n", [("grid", 60), ("tri", 150), ("grid", 400), ("tri", 400)])
def test_every_solver_call_and_settle_gets_the_last_net_built(monkeypatch, kind, n,
                                                              base_case, audit):
    """Building a net claims the store's head array, so a net is valid
    until the next one is built: every solver call and every settle of a
    solve gets the net built last, checked at the call, since a stale net
    can send the core round a loop.  After the solve every key's
    residual pair is whole: both entries non-negative, summing to the
    capacity."""
    built, users = [], []

    def last_built(net):
        assert net is built[-1], "a net used after another one was built"
        users.append(net)

    def building(real):
        def build(g, store):
            built.append(real(g, store))
            return built[-1]
        return build

    def checking(real):
        def call(first, net, *args):
            last_built(net)
            return real(first, net, *args)
        return call

    for name in ("graph_arcs", "input_net"):
        monkeypatch.setattr(engine, name, building(getattr(engine, name)))
    for name in SOLVER_NAMES:
        monkeypatch.setattr(engine, name, checking(getattr(engine, name)))
    monkeypatch.setattr(MsmsEngine, "_settle_pseudoflow",
                        checking(MsmsEngine._settle_pseudoflow))

    g, ts = generate(kind, n, 1).build()
    eng = MsmsEngine(g, ts.sources, ts.sinks, EngineConfig(base_case=base_case, audit=audit))
    assert eng.run().value == oracle_value(g, ts.sources, ts.sinks)
    assert len(users) > len(built) > 0
    res, caps = eng.store.res, eng.store.caps
    assert len(res) == 2 * len(caps)
    assert all(res[2 * k] >= 0 and res[2 * k + 1] >= 0 and res[2 * k] + res[2 * k + 1] == c
               for k, c in enumerate(caps))


def test_a_settle_that_would_leave_an_arc_outside_its_capacity_raises(monkeypatch):
    """The settle writes its change through FlowStore.apply, which checks
    every flow: a cancelled circulation larger than the change drives
    both arcs below zero."""
    g = build_graph(3, [(0, 1, 9), (1, 2, 5)], [[1], [0, 2], [1]])
    eng = MsmsEngine(g, {0}, {2}, EngineConfig())
    eng.store.apply([(0, 4), (1, 4)])
    monkeypatch.setattr(engine, "decompose_acyclic",
                        lambda head, amounts: ({0: 9, 2: 9}, [0, 1, 2]))
    with pytest.raises(CapacityViolation, match=r"^key 0: flow 4\+-9 outside \[0, 9\]$"):
        settle(eng, g, {0}, {2})
    assert eng.store.vals == (4, 4)


# run() pauses the cyclic collector: the recursion must leave no garbage
# cycles for it, and the caller's collector state must come back
_PAUSE_CASES = [
    (n, audit, base_case)
    for n, audits in ((20, ("none", "final", "full")), (300, ("none", "final", "full")),
                      (1600, ("none", "final")))
    for audit in audits
    for base_case in (3, 32, 10 ** 9)
]


@pytest.mark.parametrize("kind", ["grid", "tri"])
@pytest.mark.parametrize("n, audit, base_case", _PAUSE_CASES)
def test_a_solve_leaves_no_garbage_cycles(kind, n, audit, base_case):
    g, ts = generate(kind, n, 1).build()
    records = []
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        res = MsmsEngine(g, ts.sources, ts.sinks,
                         EngineConfig(base_case=base_case, audit=audit),
                         trace=records.append).run()
        found = gc.collect()
    finally:
        if was:
            gc.enable()
    assert found == 0
    assert records and res.value == oracle_value(g, ts.sources, ts.sinks)


def test_run_leaves_the_collector_as_it_found_it(collecting):
    g, ts = generate("tri", 120, 5).build()
    res = msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=16))
    assert "split" in {rec.kind for rec in res.stats.levels}
    assert gc.isenabled() is collecting


def test_run_leaves_the_collector_as_it_found_it_when_it_raises(monkeypatch, collecting):
    """As in the settle's CapacityViolation test, the cancelled circulation
    is larger than the change; with no order to drain it along, the first
    split level's settle raises."""
    g, ts = generate("tri", 120, 5).build()
    monkeypatch.setattr(engine, "decompose_acyclic",
                        lambda head, amounts: ({d: 10 ** 12 for d in amounts}, []))
    with pytest.raises(SettlementStuck, match="still contain a cycle"):
        msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(base_case=16))
    assert gc.isenabled() is collecting
