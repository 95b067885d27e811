"""Compare a change's answers with its parent's on 180 seeded instances.

    python3 scripts/compare_with_parent.py PARENT_TREE [--change-tree DIR]

PARENT_TREE and the change tree (default: this checkout) are source trees
holding src/planarflow, for example `git archive PARENT | tar -x -C DIR`.
Each tree solves every instance in its own subprocess, which imports
planarflow only from that tree's src/.  The instances:

- the 36-instance set: grid and tri at n = 50/200/800/1600, seeds
  1001-1003, audit=none, and at n = 100/400, seeds 1-3, audit=full;
  cap_max 10**6 and the default base case;
- the 144-instance deep sweep: grid and tri at n = 20/60/160, base_case
  3/4/8/32, seeds 0-5, audit=full, cap_max 9.

Every answer of both trees is verified on the raw input arcs by
perfbench/verify.py's check_flow.  The report counts instances whose
value, audits, arc_flows, recursion shape or separators differ, and
names each one on its own line.  The shape is every level's depth, n,
kind, boundary size and child sizes, in recursion order, which shows
equal sizes only; the separators are every cycle
planarflow.engine.find_cycle_separator returns, its boundary and cycle
darts, in call order, so equal separators mean the same cycles split the
same pieces.  The exit status is 0 when values and audits agree
everywhere and every answer passes, else 1: differing arc_flows, shapes
and separators are reported only.  A last line gives both trees' src/
sizes in lines of Python and the net change.

A malformed-input pass follows in the same subprocesses: each tree runs
parse_instance_file(text).build() on 2,000 seeded mutations of small grid
and tri instance texts (lines deleted, duplicated or inserted; fields
retyped, dropped or swapped; tokens appended).  An outcome is the error's
type, message and line, or the built graph's arrays, faces and
terminals.  The pass reports how many outcomes differ, naming the first
few, and the exit status is 1 if any does, or if either tree raises an
exception that is not a PlanarFlowError.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

from two_trees import import_tree

REPO = Path(__file__).resolve().parent.parent
MALFORMED_TEXTS = 2000
MALFORMED_SEED = 20240611
SHOWN = 5           # differing malformed outcomes named one per line


def instance_specs():
    """(name, kind, n, seed, cap_max, config) for all 180 instances."""
    specs = []
    for kind in ("grid", "tri"):
        for n in (50, 200, 800, 1600):
            for seed in (1001, 1002, 1003):
                specs.append((kind, n, seed, 10 ** 6, {"audit": "none"}))
        for n in (100, 400):
            for seed in (1, 2, 3):
                specs.append((kind, n, seed, 10 ** 6, {"audit": "full"}))
    for kind in ("grid", "tri"):
        for n in (20, 60, 160):
            for base_case in (3, 4, 8, 32):
                for seed in range(6):
                    specs.append((kind, n, seed, 9,
                                  {"audit": "full", "base_case": base_case}))
    return [(f"{kind} n={n} seed={seed} cap_max={cap} "
             + " ".join(f"{k}={v}" for k, v in sorted(cfg.items())),
             kind, n, seed, cap, cfg)
            for (kind, n, seed, cap, cfg) in specs]


def _token(rng, n):
    """A field for a mutated line: mostly a node id in or near 1..n."""
    if rng.random() < 0.7:
        return str(rng.randint(1, n) if rng.random() < 0.8 else rng.randint(-1, n + 1))
    return rng.choice(("x", "1.5", "a", "r", str(10 ** 12)))


def mutate(text, n, rng):
    """One or two random edits of an instance text of n nodes."""
    lines = text.splitlines()
    for _ in range(rng.choice((1, 1, 2))):
        i = rng.randrange(len(lines))
        fields = lines[i].split()
        op = rng.randrange(7)
        if op == 0:                                 # delete a line
            del lines[i]
        elif op == 1:                               # duplicate a line
            lines.insert(i, lines[i])
        elif op == 2:                               # insert a line
            tag = rng.choice("aarrstpcq")
            lines.insert(i, " ".join([tag] + [_token(rng, n)
                                              for _ in range(rng.randint(0, 4))]))
        elif op == 3 and fields:                    # retype a field
            fields[rng.randrange(len(fields))] = _token(rng, n)
        elif op == 4 and fields:                    # drop a field
            del fields[rng.randrange(len(fields))]
        elif op == 5 and len(fields) > 1:           # swap two fields
            a, b = rng.sample(range(len(fields)), 2)
            fields[a], fields[b] = fields[b], fields[a]
        else:                                       # append a token
            fields.append(_token(rng, n))
        if op >= 3:
            lines[i] = " ".join(fields)
        if not lines:
            break
    return "\n".join(lines) + "\n"


def malformed_outcomes(planarflow):
    """Yield (sha256 of the text, outcome) for every mutated text."""
    from planarflow.errors import PlanarFlowError
    from planarflow.generate import MIN_NODES
    from planarflow.instance import parse_instance_file

    rng = random.Random(MALFORMED_SEED)
    for i in range(MALFORMED_TEXTS):
        kind = ("grid", "tri")[i % 2]
        n = rng.randint(max(3, MIN_NODES[kind]), 30)
        text = mutate(planarflow.generate(kind, n, i).text(), n, rng)
        try:
            g, ts = parse_instance_file(text).build()
            graph = (g.tails, g.heads, g.caps, g.rot, g.faces(),
                     sorted(ts.sources), sorted(ts.sinks))
            outcome = {"graph": hashlib.sha256(repr(graph).encode()).hexdigest()}
        except PlanarFlowError as e:
            outcome = {"error": type(e).__name__, "message": str(e),
                       "line": getattr(e, "line", None)}
        except Exception as e:   # reported: only PlanarFlowError may escape
            outcome = {"other": f"{type(e).__name__}: {e}"}
        yield hashlib.sha256(text.encode()).hexdigest(), outcome


def work(tree):
    """Solve every instance with the planarflow in tree/src; print one
    JSON line per instance, then one per malformed text."""
    planarflow = import_tree(tree)
    sys.path.insert(0, str(REPO / "perfbench"))
    from planarflow.instance import parse_instance_file
    from verify import check_flow

    cycles = []
    find = planarflow.engine.find_cycle_separator

    def recording_find(g):
        sep = find(g)
        cycles.append((sep.boundary, sep.cycle_darts))
        return sep
    planarflow.engine.find_cycle_separator = recording_find
    for name, kind, n, seed, cap, cfg in instance_specs():
        cycles.clear()
        text = planarflow.generate(kind, n, seed, cap_max=cap).text()
        row = {"name": name, "sha256": hashlib.sha256(text.encode()).hexdigest()}
        try:
            inst = parse_instance_file(text)
            g, ts = inst.build()
            res = planarflow.MsmsEngine(g, ts.sources, ts.sinks,
                                        planarflow.EngineConfig(**cfg)).run()
            row.update(
                value=res.value, audits=res.audits,
                flows=hashlib.sha256(repr(res.arc_flows).encode()).hexdigest(),
                shape=hashlib.sha256(repr([
                    (r.depth, r.n, r.kind, r.boundary, tuple(r.child_sizes))
                    for r in res.stats.levels]).encode()).hexdigest(),
                separators=hashlib.sha256(repr(cycles).encode()).hexdigest(),
                check=check_flow(inst.num_nodes, inst.arcs, inst.sources,
                                 inst.sinks, res.arc_flows, res.value))
        except Exception as e:   # reported, not raised: the other rows still count
            row["error"] = f"{type(e).__name__}: {e}"
        print(json.dumps(row), flush=True)
    for i, (sha, outcome) in enumerate(malformed_outcomes(planarflow)):
        print(json.dumps({"malformed": i, "sha256": sha, **outcome}))


def compare_malformed(parent, change):
    """Print the malformed pass's report; return whether it passed."""
    differ = []
    other = 0
    for p, c in zip(parent, change):
        other += ("other" in p) + ("other" in c)
        if p != c:
            differ.append((p, c))
    for p, c in differ[:SHOWN]:
        print(f"malformed text {p['malformed']}: "
              + ("the two trees mutate different texts" if p["sha256"] != c["sha256"]
                 else f"{_outcome(p)} (parent) != {_outcome(c)} (change)"))
    kinds = Counter(row.get("error") or ("built" if "graph" in row else "other")
                    for row in change)
    print(f"malformed pass: {len(change)} texts, outcomes differ on {len(differ)}, "
          f"{other} exceptions outside PlanarFlowError; change outcomes: "
          + ", ".join(f"{k} {v}" for k, v in kinds.most_common()))
    return (len(parent) == len(change) == MALFORMED_TEXTS
            and not differ and not other)


def _outcome(row):
    if "graph" in row:
        return f"graph {row['graph'][:12]}"
    if "other" in row:
        return row["other"]
    return f"{row['error']} at line {row['line']}: {row['message']}"


def src_lines(tree):
    """Lines in the .py files under tree/src, as wc -l counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (Path(tree) / "src").rglob("*.py"))


def run_tree(tree):
    return subprocess.Popen([sys.executable, __file__, "--worker", str(tree)],
                            stdout=subprocess.PIPE, text=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_tree", nargs="?")
    ap.add_argument("--change-tree", default=str(REPO))
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        work(args.worker)
        return 0
    if not args.parent_tree:
        ap.error("PARENT_TREE is required")

    procs = {"parent": run_tree(args.parent_tree), "change": run_tree(args.change_tree)}
    rows, malformed = {}, {}
    for side, proc in procs.items():
        out, _ = proc.communicate()
        if proc.returncode:
            print(f"{side} worker exited {proc.returncode}")
            return 1
        lines = [json.loads(line) for line in out.splitlines()]
        rows[side] = [row for row in lines if "malformed" not in row]
        malformed[side] = [row for row in lines if "malformed" in row]

    bad = 0
    counts = {"value": 0, "audits": 0, "flows": 0, "shape": 0, "separators": 0}
    labels = {"flows": "arc_flows differ", "shape": "recursion shape differs",
              "separators": "separators differ"}
    audits = {"parent": [0, 0], "change": [0, 0]}   # 36-instance set, deep sweep
    for i, (p, c) in enumerate(zip(rows["parent"], rows["change"])):
        for side, row in (("parent", p), ("change", c)):
            problem = row.get("error") or row.get("check")
            if problem:
                bad += 1
                print(f"{side} {row['name']}: {problem}")
            audits[side][i >= 36] += row.get("audits", 0)
        if p["sha256"] != c["sha256"]:
            bad += 1
            print(f"{p['name']}: the two trees generate different instances")
        for key in counts:
            if p.get(key) != c.get(key):
                counts[key] += 1
                if key in labels:
                    print(f"{p['name']}: {labels[key]}")
                else:
                    print(f"{p['name']}: {key} {p.get(key)} (parent) "
                          f"!= {c.get(key)} (change)")
    total = len(rows["change"])
    print(f"{total} instances: values differ on {counts['value']}, audits on "
          f"{counts['audits']}, arc_flows on {counts['flows']}, recursion "
          f"shape on {counts['shape']}, separators on {counts['separators']}; "
          f"audits summed "
          f"over the 36-instance set and the deep sweep: {audits['parent']} "
          f"(parent), {audits['change']} (change); "
          f"{bad} failed answers or instance mismatches")
    malformed_ok = compare_malformed(malformed["parent"], malformed["change"])
    before, after = src_lines(args.parent_tree), src_lines(args.change_tree)
    print(f"src/ lines: {before} (parent), {after} (change), net {after - before:+d}")
    ok = (len(rows["parent"]) == total == len(instance_specs()) and not bad
          and not counts["value"] and not counts["audits"] and malformed_ok)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
