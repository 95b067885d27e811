"""Time named engine layers of two trees on the same solves, untraced.

    python3 scripts/time_layers.py TREE_A TREE_B --kind grid --n 800 \
        --audit full --base-case 32 --seeds 1000..1007 --reps 7

TREE_A and TREE_B are source trees holding src/planarflow, for example a
`git archive` of a parent commit and this checkout.  Each tree gets a
subprocess of its own that imports planarflow only from its src/ and
wraps the layers NAMES lists in wall-clock timers.  A name is a
planarflow.engine global (residual_reachable) or a method of one
(MsmsEngine._audit_separated, PlanarGraph.check_embedding), so it times
the calls the engine makes through that name.  A layer's time is
inclusive: everything inside its outermost call, the timers of the
layers it calls included, so a name that only one tree calls often
would tilt the comparison of the layers around it.

One turn builds the instances generate(kind, n, seed, cap_max=10**6) for
every seed in S..T (both ends included), untimed, then solves each with
MsmsEngine(...).run() under the given audit level and base case, the
garbage collector off.  The trees take turns, A first on even turns and
B first on odd ones.  The report gives, per layer and tree, the best
total over the R turns and the calls in one turn, and the ratio of the
bests; "solve" is the engine's construction plus run().  A name a tree
does not have is reported absent there.  The exit status is 1 if any
solve's value differs between the trees, else 0.
"""

from __future__ import annotations

import argparse
import gc
import json
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
    "find_cycle_separator",
    "split_into_pieces",
    "limited_max_flow",
    "MsmsEngine._settle_pseudoflow",
)


def wrap(owner, attr, seconds, calls, name):
    """Replace owner.attr by a timer that adds the time of its outermost
    calls to seconds[name] and counts every call."""
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


def serve(tree, kind, n, audit, base_case, seeds):
    """For each line read, run one turn and print its per-layer seconds,
    calls and the solves' values as one JSON line."""
    planarflow = import_tree(tree)
    engine = planarflow.engine
    seconds, calls, absent = {}, {}, []
    for name in NAMES:
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(engine, owner_name, None) if owner_name else engine
        if owner is None or not callable(getattr(owner, attr, None)):
            absent.append(name)
            continue
        seconds[name], calls[name] = 0.0, 0
        wrap(owner, attr, seconds, calls, name)
    cfg = planarflow.EngineConfig(audit=audit, base_case=base_case)
    for _ in sys.stdin:
        built = [planarflow.generate(kind, n, seed, cap_max=CAP_MAX).build()
                 for seed in seeds]
        for name in seconds:
            seconds[name], calls[name] = 0.0, 0
        solve_s, values = 0.0, []
        for g, ts in built:
            gc.collect()
            gc.disable()
            start = perf_counter()
            res = planarflow.MsmsEngine(g, ts.sources, ts.sinks, cfg).run()
            solve_s += perf_counter() - start
            gc.enable()
            values.append(res.value)
        print(json.dumps({"seconds": {"solve": solve_s, **seconds},
                          "calls": {"solve": len(built), **calls},
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
    for name in ("solve",) + NAMES:
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
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
