#!/usr/bin/env python3
"""Run the benchmark over seeds 1 to 10, twice, and summarise it.

    python3 perfbench/baseline.py --out perfbench/baseline

runs ``run.py`` once per seed and workload with tracing off, seed by seed
and round-robin over the workloads, reversing their order on every other
seed, so that a slow stretch of the machine is shared by all workloads
instead of landing on one workload's whole set.  It does this twice, as
two separate sets, and then runs each workload once with tracing on
(seed 1).  One process runs at a time.  It writes ``<out>.json`` (every
run's result line) and ``<out>.md``: per workload, each end-to-end
metric's median and quartile spread in both sets, how much worse the
second median is than the first, each against the metric's bound in
BENCHMARK.json, and the traced per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        # the unscaled wall medians, to show what scaling to one speed removes
        record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
        walls = [s["wall"][0] for s in record["samples"] if s["error"] is None]
        result["unscaled"] = {"solve_s_p50": statistics.median(w[1] for w in walls),
                              "setup_s": statistics.median(w[0] for w in walls)}
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    return result


def run_set(names, seconds):
    runs = {n: [] for n in names}
    for i, seed in enumerate(SEEDS):
        for n in (names if i % 2 == 0 else names[::-1]):
            runs[n].append(run_once(n, seed, seconds, 0))
    return runs


def spread(values):
    """(median, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def layer_table(metrics):
    """Rows of (function, calls/solve, self s/solve, share of traced time)."""
    names = sorted({k.rsplit(".", 1)[0] for k in metrics if k.endswith(".self_s")})
    total = sum(metrics[f"{n}.self_s"] for n in names) or 1.0
    rows = [(n, metrics[f"{n}.calls"], metrics[f"{n}.self_s"],
             metrics[f"{n}.self_s"] / total) for n in names]
    return sorted(rows, key=lambda r: -r[2])


def render(spec, env, sets, traced):
    lines = ["# planarflow benchmark baseline", "",
             f"git {env['git']}, python {env['python']}, nproc {env['nproc']}, "
             f"{env['machine']}; run_seconds {spec['run_seconds']}; {SETS} sets "
             f"of seeds {SEEDS[0]}-{SEEDS[-1]}, run round-robin over the workloads.", "",
             "Spread is (q3 - q1) / median over a set's ten runs, as "
             "`statistics.quantiles(values, n=4)` gives the quartiles; worse is how "
             "much worse set 2's median is than set 1's (negative: better).  A "
             "metric passes when both spreads (not counted for setup_s) and worse "
             "stay within its bound.  Unscaled rows are wall times before scaling "
             "to the reference speed; they have no bound.", ""]
    for w in spec["workloads"]:
        name = w["name"]
        lines += [f"## {name}", "", w["why"], "",
                  "| metric | unit | median 1 | spread 1 | median 2 | spread 2 | "
                  "worse | bound | passes |",
                  "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
        for m in spec["end_to_end"]:
            metric = m["name"]
            (med1, sp1), (med2, sp2) = (
                spread([r["metrics"][metric]["value"] for r in runs[name]]) for runs in sets)
            worse = (med2 - med1) / med1 * (1 if m["better"] == "lower" else -1)
            spreads_ok = metric == "setup_s" or max(sp1, sp2) <= m["bound"]
            passes = "yes" if spreads_ok and worse <= m["bound"] else "**no**"
            lines.append(f"| {metric} | {m['unit']} | {med1:.4g} | {sp1:.3f} | {med2:.4g} | "
                         f"{sp2:.3f} | {worse:+.3f} | {m['bound']} | {passes} |")
        for metric in ("solve_s_p50", "setup_s"):
            (med1, sp1), (med2, sp2) = (
                spread([r["unscaled"][metric] for r in runs[name]]) for runs in sets)
            lines.append(f"| {metric}, unscaled | s | {med1:.4g} | {sp1:.3f} | {med2:.4g} | "
                         f"{sp2:.3f} | {(med2 - med1) / med1:+.3f} | | |")
        failed = sum(r["failed"] for runs in sets for r in runs[name])
        attempted = sum(r["attempted"] for runs in sets for r in runs[name])
        lines += ["", f"fail_frac {failed / attempted} ({failed} of {attempted} solves).", ""]
        tm = {k: v["value"] for k, v in traced[name]["metrics"].items()}
        lines += [f"Traced run (seed {SEEDS[0]}): overhead against the untraced "
                  f"solves of the same instances "
                  f"{tm.get('trace.overhead_frac', float('nan')):+.1%}.  Self times "
                  f"are unscaled wall seconds.", "",
                  "| function | calls/solve | self s/solve | share |",
                  "| --- | --- | --- | --- |"]
        for fn, calls, self_s, share in layer_table(tm):
            lines.append(f"| {fn} | {calls:.4g} | {self_s:.4g} | {share:.1%} |")
        lines += ["", "| counter | value | unit |", "| --- | --- | --- |"]
        for m in spec["per_layer"]:
            metric = m["name"]
            if metric.endswith((".calls", ".self_s")) or metric == "trace.overhead_frac":
                continue
            value = tm.get(metric)
            shown = "absent" if value is None else f"{value:.4g}"
            lines.append(f"| {metric} | {shown} | {m['unit']} |")
        lines.append("")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="output path without extension")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sets = [run_set(names, seconds) for _ in range(SETS)]
    traced = {n: run_once(n, SEEDS[0], seconds, 1) for n in names}
    env = {"git": git_sha(), "python": platform.python_version(),
           "nproc": os.cpu_count(), "machine": platform.machine()}

    out = Path(args.out)
    out.with_suffix(".json").write_text(json.dumps(
        {"env": env, "sets": sets, "traced": traced}, indent=1) + "\n")
    out.with_suffix(".md").write_text(render(spec, env, sets, traced))
    print(out.with_suffix(".md").read_text())


if __name__ == "__main__":
    main()
