"""Time named engine layers of two trees on the same solves, untraced.

    python3 scripts/time_layers.py TREE_A TREE_B --kind grid --n 800 \
        --audit full --base-case 32 --seeds 1000..1007 --reps 7

TREE_A and TREE_B are source trees holding src/planarflow, for example a
`git archive` of a parent commit and this checkout.  Each tree gets a
subprocess of its own that imports planarflow only from its src/ and
wraps the layers NAMES lists in wall-clock timers.  A name is a
planarflow.engine global (residual_reachable, inflow, is_feasible) or a
method of one (MsmsEngine._audit_separated, PlanarGraph.check_embedding),
so it times the calls the engine makes through that name (inflow
leaves out flow_value's calls, made inside planarflow.flow).  A layer's
time is inclusive: everything inside its outermost call, the timers of
the layers it calls included, so a name that only one tree calls often
would tilt the comparison of the layers around it.

One turn writes the texts of the instances generate(kind, n, seed,
cap_max=10**6) for every seed in S..T (both ends included), untimed, and
sets each up as `planarflow solve` does, parse_instance_file(text).build(),
each followed by one gc.collect().  It then solves each parsed graph with
MsmsEngine(...).run() under the given audit level and base case, each
after a gc.collect(), twice: once with the layer timers and once bare,
with every timer removed, the bare solves first on even turns and last
on odd ones.  The script leaves the garbage collector on, so a tree that
pauses it in set-up or in run() is timed with the pause, and one that
does not is timed with the collector's passes.  The trees take turns, A
first on even turns and B first on odd ones.  The report gives, per
layer and tree, the best total over the R turns and the calls in one
turn, and the ratio of the bests; "solve" is the engine's construction
plus run() with the timers, "solve_bare" the same without them (a tree
that calls a wrapped name more often pays for more timer calls in
"solve" only), "setup" is parse plus build, and "collect" is the
gc.collect() after each set-up, so a pause that only defers the
collector's work shows as a smaller setup and a larger collect.  The
layers count only the timed solves' calls.  A name a tree does not have
is reported absent there.  A last line gives the ratio B/A of each
turn's pair, for the solves and for the bare solves, as a median and a
min-max over the turns, so one run shows its own spread.  The exit
status is 1 if any solve's value differs between the trees, else 0.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from time import perf_counter

from two_trees import import_tree, seed_range, take_turns

CAP_MAX = 10 ** 6
NAMES = (
    "MsmsEngine._audit_pieces_embedded",
    "is_triangulated_biconnected",
    "PlanarGraph.check_embedding",
    "MsmsEngine._audit_separated",
    "MsmsEngine._audit_redistribute_iteration",
    "residual_reachable",
    "inflow",
    "is_feasible",
    "triangulate_and_biconnect",
    "find_cycle_separator",
    "split_into_pieces",
    "limited_max_flow",
    "MsmsEngine._settle_pseudoflow",
)


def wrap(owner, attr, seconds, calls, name):
    """Replace owner.attr by a timer that adds the time of its outermost
    calls to seconds[name] and counts every call; return (owner, attr,
    the original, the timer)."""
    inner = getattr(owner, attr)
    depth = 0

    def timed(*args, **kwargs):
        nonlocal depth
        calls[name] += 1
        if depth:
            return inner(*args, **kwargs)
        depth = 1
        start = perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            seconds[name] += perf_counter() - start
            depth = 0

    setattr(owner, attr, timed)
    return owner, attr, inner, timed


def solve_all(planarflow, built, cfg):
    """Solve every built (graph, terminals) pair, each after a
    gc.collect(); return the seconds in the solves and their values."""
    solve_s, values = 0.0, []
    for g, ts in built:
        gc.collect()
        start = perf_counter()
        res = planarflow.MsmsEngine(g, ts.sources, ts.sinks, cfg).run()
        solve_s += perf_counter() - start
        values.append(res.value)
    return solve_s, values


def serve(tree, kind, n, audit, base_case, seeds):
    """For each line read, run one turn and print its per-layer seconds,
    calls and the solves' values as one JSON line."""
    planarflow = import_tree(tree)
    engine = planarflow.engine
    seconds, calls, absent, sites = {}, {}, [], []
    for name in NAMES:
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(engine, owner_name, None) if owner_name else engine
        if owner is None or not callable(getattr(owner, attr, None)):
            absent.append(name)
            continue
        seconds[name], calls[name] = 0.0, 0
        sites.append(wrap(owner, attr, seconds, calls, name))
    parse_instance_file = planarflow.instance.parse_instance_file
    cfg = planarflow.EngineConfig(audit=audit, base_case=base_case)
    for turn, _ in enumerate(sys.stdin):
        texts = [planarflow.generate(kind, n, seed, cap_max=CAP_MAX).text()
                 for seed in seeds]
        built, setup_s, collect_s = [], 0.0, 0.0
        gc.collect()
        for text in texts:
            start = perf_counter()
            built.append(parse_instance_file(text).build())
            setup_s += perf_counter() - start
            start = perf_counter()
            gc.collect()
            collect_s += perf_counter() - start
        for name in seconds:
            seconds[name], calls[name] = 0.0, 0
        solves = {}
        for bare in ((True, False) if turn % 2 == 0 else (False, True)):
            for owner, attr, inner, timed in sites:
                setattr(owner, attr, inner if bare else timed)
            solves[bare] = solve_all(planarflow, built, cfg)
        solve_s, values = solves[False]
        print(json.dumps({"seconds": {"solve": solve_s, "solve_bare": solves[True][0],
                                      "setup": setup_s, "collect": collect_s, **seconds},
                          "calls": {"solve": len(built), "solve_bare": len(built),
                                    "setup": len(built), "collect": len(built), **calls},
                          "absent": absent, "values": values}), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", nargs="?")
    ap.add_argument("tree_b", nargs="?")
    ap.add_argument("--kind", default="grid")
    ap.add_argument("--n", type=int, default=800)
    ap.add_argument("--audit", default="full")
    ap.add_argument("--base-case", type=int, default=32)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1000..1003"))
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--serve", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.serve:
        serve(args.serve, args.kind, args.n, args.audit, args.base_case, args.seeds)
        return 0
    if not (args.tree_a and args.tree_b):
        ap.error("TREE_A and TREE_B are required")
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    trees = {"A": args.tree_a, "B": args.tree_b}
    command = [sys.executable, __file__, "--kind", args.kind, "--n", str(args.n),
               "--audit", args.audit, "--base-case", str(args.base_case),
               "--seeds", f"{args.seeds[0]}..{args.seeds[-1]}"]
    turns = take_turns({side: command + ["--serve", tree] for side, tree in trees.items()},
                       args.reps, "worker")
    if turns is None:
        return 1

    print(f"{args.kind} n={args.n} audit={args.audit} base_case={args.base_case} "
          f"seeds {args.seeds[0]}..{args.seeds[-1]}, best of {args.reps} turns, "
          f"seconds per turn")
    for side, tree in trees.items():
        print(f"tree {side}: {tree}")
    print(f"{'layer':44} {'A best':>9} {'B best':>9} {'B/A':>7} {'A calls':>9} {'B calls':>9}")
    for name in ("solve", "solve_bare", "setup", "collect") + NAMES:
        best, count = {}, {}
        for side in trees:
            first = turns[side][0]
            if name in first["absent"]:
                best[side], count[side] = "absent", "-"
            else:
                best[side] = min(t["seconds"][name] for t in turns[side])
                count[side] = first["calls"][name]
        both = all(isinstance(best[s], float) for s in trees)
        ratio = f"{best['B'] / best['A']:.3f}" if both and best["A"] > 0 else "-"
        cells = [f"{b:.4f}" if isinstance(b, float) else b for b in best.values()]
        print(f"{name:44} {cells[0]:>9} {cells[1]:>9} {ratio:>7} "
              f"{count['A']:>9} {count['B']:>9}")
    values = {side: turns[side][0]["values"] for side in trees}
    differ = sum(a != b for a, b in zip(values["A"], values["B"]))
    print(f"values differ on {differ} of {len(args.seeds)} solves")
    spreads = []
    for row in ("solve", "solve_bare"):
        pairs = sorted(b["seconds"][row] / a["seconds"][row]
                       for a, b in zip(turns["A"], turns["B"]))
        spreads.append(f"{row} B/A per turn: median {statistics.median(pairs):.3f}, "
                       f"min {pairs[0]:.3f}, max {pairs[-1]:.3f}")
    print(f"{'; '.join(spreads)} over {args.reps} turns")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
