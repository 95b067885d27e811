"""What the scripts that run two source trees side by side share.

import_tree imports planarflow from one tree's src/ and nowhere else;
seed_range parses a --seeds S..T argument; take_turns drives one worker
subprocess per tree through alternating turns.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def import_tree(tree):
    """planarflow from tree/src, and nowhere else."""
    src = (Path(tree) / "src").resolve()
    sys.path.insert(0, str(src))
    import planarflow
    if not Path(planarflow.__file__).resolve().is_relative_to(src):
        sys.exit(f"imported planarflow from {planarflow.__file__}, not {src}")
    return planarflow


def seed_range(text):
    lo, sep, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must read S..T, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def take_turns(commands, reps, worker_name):
    """Start one worker per side from commands ({"A": argv, "B": argv})
    and run reps turns, A first on even turns and B first on odd ones.
    A turn writes one line to a worker's stdin and reads one JSON line
    back.  Returns side -> the turns' JSON objects in order, or None,
    after printing "tree <side> <worker_name> died", when a worker ends
    before it answers."""
    workers = {side: subprocess.Popen(command, stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
               for side, command in commands.items()}
    turns = {side: [] for side in commands}
    try:
        for rep in range(reps):
            for side in ("AB" if rep % 2 == 0 else "BA"):
                worker = workers[side]
                worker.stdin.write("turn\n")
                worker.stdin.flush()
                line = worker.stdout.readline()
                if not line:
                    print(f"tree {side} {worker_name} died")
                    return None
                turns[side].append(json.loads(line))
    finally:
        for worker in workers.values():
            worker.stdin.close()
            worker.wait()
    return turns
