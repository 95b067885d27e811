"""Time two trees' search-tree cores on the same captured calls.

    python3 scripts/replay_core.py TREE_A TREE_B --kind tri --n 6400 \
        --base-case 1000000000 --seeds 1000..1002 --reps 7

TREE_A and TREE_B are source trees holding src/planarflow, for example a
`git archive` of a parent commit and this checkout.  Tree A solves the
instances generate(kind, n, seed, cap_max=10**6) for every seed in S..T
(both ends included) with the given base case, in a subprocess that
imports planarflow only from TREE_A/src, and records every call of
planarflow.solvers._search_trees: its adjacency, heads, residuals as
they were before the call, terminal lists, limit and budgets (a walk
run's roots, as they were before the call; None for every other call).
A call is kept on compact arrays of its own (see compact), since the
core's head and residual arrays are shared by every call and span the
whole flow store.

Each tree then gets a subprocess of its own, again importing only its
src/, that runs its _search_trees on fresh copies of the captured
residuals and budgets.  A call with budgets passes them as the core's
budget argument, and one without calls the core as a tree before budgets
did, so a core without that argument replays only captures that have no
budgets (a worker that fails is reported as died).  The trees take
turns, one replay of every call per turn, A first on even turns and B
first on odd ones; only the core calls are timed.  The report gives
each tree's best and every turn's total over the R turns, and the ratio
of the bests.  The exit status is 1 if any call's value differs between
the trees, else 0.
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from two_trees import import_tree, seed_range, take_turns

CAP_MAX = 10 ** 6


def compact(adj, head, res):
    """(adj, head, res) renumbered to the arcs adj lists, as 0..m'-1 in
    order of first appearance, with each arc's dart pair kept and each
    node's darts in their order: copies of only those darts' heads and
    residuals, on which the core makes the same choices."""
    arc_of = {}
    new_adj = [[2 * arc_of.setdefault(d >> 1, len(arc_of)) | (d & 1) for d in darts]
               for darts in adj]
    new_head, new_res = [0] * (2 * len(arc_of)), [0] * (2 * len(arc_of))
    for old, a in arc_of.items():
        new_head[2 * a:2 * a + 2] = head[2 * old:2 * old + 2]
        new_res[2 * a:2 * a + 2] = res[2 * old:2 * old + 2]
    return new_adj, new_head, new_res


def capture(tree, kind, n, base_case, seeds, path):
    """Solve every seed's instance with tree's planarflow and pickle its
    core calls to path."""
    planarflow = import_tree(tree)
    solvers = planarflow.solvers
    core = solvers._search_trees
    calls = []

    def recording(adj, head, res, sources, sinks, limit=None, *budget):
        # a core before budgets takes no seventh argument, so pass one on
        # only when the caller gave it
        calls.append((*compact(adj, head, res), list(sources), list(sinks), limit,
                      dict(budget[0]) if budget and budget[0] else None))
        return core(adj, head, res, sources, sinks, limit, *budget)

    solvers._search_trees = recording
    cfg = planarflow.EngineConfig(base_case=base_case)
    for seed in seeds:
        g, ts = planarflow.generate(kind, n, seed, cap_max=CAP_MAX).build()
        planarflow.msms_max_flow(g, ts.sources, ts.sinks, cfg)
    with open(path, "wb") as f:
        pickle.dump(calls, f, protocol=pickle.HIGHEST_PROTOCOL)


def replay(tree, path):
    """Serve turns: for each line read, replay every captured call on a
    fresh copy of its residuals and print the core's total seconds and
    the calls' values as one JSON line."""
    core = import_tree(tree).solvers._search_trees
    with open(path, "rb") as f:
        calls = pickle.load(f)
    for _ in sys.stdin:
        gc.collect()
        gc.disable()
        seconds, values = 0.0, []
        for adj, head, res, sources, sinks, limit, budget in calls:
            res, budget = list(res), () if budget is None else (dict(budget),)
            start = perf_counter()
            value, _ = core(adj, head, res, sources, sinks, limit, *budget)
            seconds += perf_counter() - start
            values.append(value)
        gc.enable()
        print(json.dumps({"seconds": seconds, "values": values}), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", nargs="?")
    ap.add_argument("tree_b", nargs="?")
    ap.add_argument("--kind", default="tri")
    ap.add_argument("--n", type=int, default=1600)
    ap.add_argument("--base-case", type=int, default=32)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1000..1002"))
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--capture", nargs=2, help=argparse.SUPPRESS)
    ap.add_argument("--replay", nargs=2, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.capture:
        capture(args.capture[0], args.kind, args.n, args.base_case, args.seeds,
                args.capture[1])
        return 0
    if args.replay:
        replay(*args.replay)
        return 0
    if not (args.tree_a and args.tree_b):
        ap.error("TREE_A and TREE_B are required")
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "calls.pickle")
        subprocess.run([sys.executable, __file__, "--capture", args.tree_a, path,
                        "--kind", args.kind, "--n", str(args.n),
                        "--base-case", str(args.base_case),
                        "--seeds", f"{args.seeds[0]}..{args.seeds[-1]}"], check=True)
        trees = {"A": args.tree_a, "B": args.tree_b}
        turns = take_turns({side: [sys.executable, __file__, "--replay", tree, path]
                            for side, tree in trees.items()}, args.reps, "replay worker")
    if turns is None:
        return 1
    values = {side: turns[side][0]["values"] for side in trees}
    seconds = {side: [turn["seconds"] for turn in turns[side]] for side in trees}

    calls = len(values["A"])
    differ = sum(a != b for a, b in zip(values["A"], values["B"]))
    print(f"{calls} core calls of {args.kind} n={args.n} base_case={args.base_case} "
          f"seeds {args.seeds[0]}..{args.seeds[-1]}, captured from tree A")
    for side, tree in trees.items():
        runs = ", ".join(f"{s:.4f}" for s in seconds[side])
        print(f"tree {side} ({tree}): best {min(seconds[side]):.4f} s of {args.reps} ({runs})")
    print(f"B/A best: {min(seconds['B']) / min(seconds['A']):.3f}")
    print(f"values differ on {differ} of {calls} calls")
    return 1 if differ or len(values["B"]) != calls else 0


if __name__ == "__main__":
    sys.exit(main())
