import random

from support import decompose_flow, sink_push_trial, source_push_trial


def run_trials(trial, seed, wanted):
    rng = random.Random(seed)
    held = 0
    attempts = 0
    while held < wanted and attempts < wanted * 20:
        attempts += 1
        result = trial(rng)
        if result is None:
            continue
        assert result, f"push property violated (trial {attempts}, seed {seed})"
        held += 1
    assert held == wanted, "could not construct enough precondition samples"


def test_source_side_push_preserves_unreachability():
    run_trials(source_push_trial, seed=101, wanted=400)


def test_sink_side_push_preserves_unreachability():
    run_trials(sink_push_trial, seed=202, wanted=400)


def test_circulation_crosses_no_cut():
    # canceling the cyclic part never changes net flow into any node set
    from planarflow.flow import FlowStore, inflow_all
    from planarflow.graph import build_graph
    from planarflow.generate import generate

    rng = random.Random(7)
    for _ in range(30):
        inst = generate("tri", rng.randint(4, 16), rng.randrange(10_000))
        g, ts = inst.build()
        store = FlowStore.for_graph(g)
        from planarflow.solvers import graph_arcs, terminal_set_flow
        for _ in range(3):
            nodes = list(range(g.n))
            rng.shuffle(nodes)
            cut = rng.randint(1, g.n - 1)
            terminal_set_flow(
                store, graph_arcs(g, store), set(nodes[:cut]), set(nodes[cut:]))
        circ, _ = decompose_flow(g, store)
        probe = FlowStore.for_graph(g)
        probe.apply(sorted(circ.items()))
        balance = inflow_all(g, probe)
        assert all(b == 0 for b in balance)
        for _ in range(5):
            chosen = {v for v in range(g.n) if rng.random() < 0.4}
            assert sum(balance[v] for v in chosen) == 0
