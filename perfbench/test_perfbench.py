"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from tracing import Tracer, self_times
from verify import check_flow


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] with children a [1, 4], b [5, 6] and c [8, 9.5];
    # a has grandchildren g [2, 3] and h [3, 3.5]; a second root [11, 12].
    starts = [0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 11.0]
    ends = [10.0, 4.0, 3.0, 3.5, 6.0, 9.5, 12.0]
    parents = [-1, 0, 1, 1, 0, 0, -1]
    got = self_times(starts, ends, parents)
    assert got == pytest.approx([10 - 3 - 1 - 1.5, 3 - 1 - 0.5, 1, 0.5, 1, 1.5, 1])


def test_tracer_spans_nest_and_total_per_name():
    tr = Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)
    with tr.span("outer"):
        assert inner(1) == 2
        assert inner(2) == 3
    assert list(tr.parents) == [-1, 0, 0]
    totals = tr.totals()
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    outer_self = totals["outer"][1]
    assert outer_self == pytest.approx(
        tr.ends[0] - tr.starts[0] - sum(tr.ends[i] - tr.starts[i] for i in (1, 2)))


def test_missing_names_are_skipped_and_wrappers_removed():
    def find_cycle_separator(g):
        return SimpleNamespace(k=4)

    engine = SimpleNamespace(find_cycle_separator=find_cycle_separator,
                             MSSS_BACKENDS={"x": SimpleNamespace(fn=None)})
    modules = {"engine": engine, "graph": SimpleNamespace(), "flow": SimpleNamespace()}
    tr = Tracer()
    with tr.installed_in(modules):
        engine.find_cycle_separator(SimpleNamespace(n=16))
        engine.find_cycle_separator(SimpleNamespace())      # hook cannot read n
    assert engine.find_cycle_separator is find_cycle_separator
    assert tr.installed == {"separator.find"}
    assert tr.totals()["separator.find"][0] == 2
    assert "separator.k_sum" in tr.counters.broken


# -- tail percentile -----------------------------------------------------------------


def test_tail_keeps_ten_samples_above_it():
    assert run.tail(list(range(10))) is None
    assert run.tail([5.0] + list(range(10))) == (0, pytest.approx(100 / 11))
    value, pct = run.tail(list(range(100, 0, -1)))
    assert (value, pct) == (90, 90.0)
    assert sum(1 for v in range(1, 101) if v > value) == 10


# -- independent verification -----------------------------------------------------------

# s=0 -> 1 -> t=3 and s -> 2 -> t, capacities 3, 2, 4, 1; max flow 3
ARCS = [(0, 1, 3), (1, 3, 2), (0, 2, 4), (2, 3, 1)]


def test_check_flow_accepts_a_maximum_flow():
    assert check_flow(4, ARCS, [0], [3], [2, 2, 1, 1], 3) is None


@pytest.mark.parametrize("flows, value, words", [
    ([3, 2, 1, 1], 3, "non-terminal"),       # conservation broken at node 1
    ([2, 3, 1, 1], 4, "outside"),            # over capacity on arc 1
    ([2, 2, 1, -1], 1, "outside"),           # negative flow
    ([2, 2, 1, 1], 4, "reported value"),     # wrong value
    ([1, 1, 1, 1], 2, "not maximum"),        # feasible but augmentable
    ([2, 2, 1], 3, "arc flows"),             # wrong length
])
def test_check_flow_rejects_corrupted_answers(flows, value, words):
    assert words in check_flow(4, ARCS, [0], [3], flows, value)


@pytest.fixture(scope="module")
def planarflow():
    return run.load_planarflow()


def test_check_flow_on_a_real_solve_and_a_corrupted_copy(planarflow):
    pf, _ = planarflow
    inst = pf.generate("grid", 100, 7, cap_max=10 ** 6)
    g, ts = pf.parse_instance_file(inst.text()).build()
    res = pf.MsmsEngine(g, ts.sources, ts.sinks, pf.EngineConfig()).run()
    assert run.verify_answer(pf, inst, (res.value, res.arc_flows, None)) is None
    flows = list(res.arc_flows)
    a = next(i for i, f in enumerate(flows) if f > 0)
    flows[a] -= 1
    assert check_flow(inst.num_nodes, inst.arcs, inst.sources, inst.sinks,
                      flows, res.value) is not None
    assert "oracle" in run.verify_answer(pf, inst, (res.value + 1, res.arc_flows, None))


# -- traced runs ------------------------------------------------------------------------


def _traced(planarflow, wl):
    pf, modules = planarflow
    samples, metrics, _ = run.run_traced(pf, modules, wl, seed=3, count=2)
    assert all(s.error is None for s in samples)
    return metrics


def test_direct_solve_calls_no_surgery_separator_or_limited_flow(planarflow):
    m = _traced(planarflow, run.Workload("tri", 200, {"base_case": 10 ** 9}, 1.0))
    for name in ("surgery.triangulate", "surgery.detach", "surgery.attach_apex",
                 "separator.find", "separator.split", "solvers.limited",
                 "flow.reachable"):
        assert m[f"{name}.calls"] == 0, name
    assert m["solvers.leaf.calls"] == 1
    assert m["graph.check_embedding.calls"] == 1      # the parse-time check
    assert m["flow.store_keys_per_arc"] == 1


def test_reachability_audits_show_only_under_full_audit(planarflow):
    plain = _traced(planarflow, run.Workload("grid", 120, {}, 1.0))
    audited = _traced(planarflow, run.Workload("grid", 120, {"audit": "full"}, 1.0,
                                               with_oracle=True))
    assert plain["flow.reachable.calls"] == 0 and plain["solvers.oracle.calls"] == 0
    assert audited["flow.reachable.calls"] > 0 and audited["solvers.oracle.calls"] == 1
    assert audited["engine.audits"] > 0
    assert plain["surgery.triangulate.calls"] > 0 and plain["engine.levels.split"] > 0
    assert set(plain) <= set(run.PER_LAYER)


# -- BENCHMARK.json -------------------------------------------------------------------------


def test_benchmark_json_matches_the_driver():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
