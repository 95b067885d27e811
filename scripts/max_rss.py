"""Max RSS of `planarflow solve FILE` under two source trees.

    python3 scripts/max_rss.py TREE_A TREE_B FILE... --base-case 32 \
        --audit none --reps 3

TREE_A and TREE_B are source trees holding src/planarflow, for example a
`git archive` of a parent commit and this checkout.  Every solve runs in
a child process of its own, which imports planarflow only from its
tree's src/ and runs the CLI's `solve FILE --audit L --base-case N`; the
child's peak resident set comes from os.wait4, so one solve's figure
holds the interpreter, the imports, the text, the set-up and the solve,
and nothing of any other solve.  Each rep runs every file under both
trees, A first on even reps and B first on odd ones.  The report gives,
per file and tree, the max RSS of every rep in MiB and their median,
the ratio B/A of the medians, and the value each solve printed.  The
exit status is 1 when a solve's printed value line differs between the
trees or between reps (a failed solve prints its exit status instead),
else 0.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys

from two_trees import import_tree


def serve(tree, argv):
    """Run `planarflow solve` with argv from tree's src/ and exit with
    its status."""
    import_tree(tree)
    from planarflow.cli import main as cli_main
    sys.exit(cli_main(["solve"] + argv))


def run_child(tree, argv):
    """(max RSS in MiB, the value line or the exit status) of one solve."""
    child = subprocess.Popen([sys.executable, __file__, "--serve", tree] + argv,
                             stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    values = [line for line in out.splitlines() if line.startswith("value ")]
    shown = values[0] if child.returncode == 0 and values else f"exit {child.returncode}"
    return usage.ru_maxrss / 1024, shown


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--serve"]:
        serve(argv[1], argv[2:])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a")
    ap.add_argument("tree_b")
    ap.add_argument("files", nargs="+", metavar="FILE")
    ap.add_argument("--base-case", type=int, default=32)
    ap.add_argument("--audit", default="none")
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be at least 1")

    trees = {"A": args.tree_a, "B": args.tree_b}
    rss = {(f, side): [] for f in args.files for side in trees}
    shown = {(f, side): set() for f in args.files for side in trees}
    for rep in range(args.reps):
        for f in args.files:
            for side in ("AB" if rep % 2 == 0 else "BA"):
                mib, value = run_child(trees[side], [f, "--audit", args.audit,
                                                     "--base-case", str(args.base_case)])
                rss[f, side].append(mib)
                shown[f, side].add(value)

    print(f"planarflow solve FILE --audit {args.audit} --base-case {args.base_case}, "
          f"max RSS in MiB, {args.reps} reps, one process per solve")
    for side, tree in trees.items():
        print(f"tree {side}: {tree}")
    differ = 0
    for f in args.files:
        print(f)
        medians = {}
        for side in trees:
            medians[side] = statistics.median(rss[f, side])
            reps = " ".join(f"{mib:.1f}" for mib in rss[f, side])
            print(f"  {side}: {reps}  median {medians[side]:.1f}  "
                  f"{' | '.join(sorted(shown[f, side]))}")
        print(f"  B/A {medians['B'] / medians['A']:.3f}")
        differ += len(shown[f, "A"] | shown[f, "B"]) > 1
    print(f"values differ on {differ} of {len(args.files)} files")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
