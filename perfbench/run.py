#!/usr/bin/env python3
"""The planarflow benchmark: seeded instances, solved and verified.

Run from the repository root:

    python3 perfbench/run.py --workload grid-recursive --seed 1 --seconds 20 --trace 0

Each run generates its instances from ``--seed`` (instance j uses generator
seed ``seed * 1000 + j``), parses and builds each one from its text, solves
it through the public API, one solve at a time, and checks every answer
outside the timed region.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` solves half as many instances twice each, untraced and
traced, and reports per-layer metrics plus the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it print every metric with
its unit, and ``fail_frac``; the JSON carries the same fraction as
``failed`` / ``attempted`` and as ``verified_frac``, its complement, which
unlike ``fail_frac`` is never zero.  Per-instance records (with a SHA-256
of every instance text) and, when tracing, the raw spans are written under
``perfbench/out/``.

A run solves a fixed number of instances, ``seconds * per_second`` of its
workload (at least 11), which at the commit that defined the benchmark
takes ``--seconds`` to a third longer, set-up and verification included.
Fixing the count, instead of stopping on the clock, keeps the sample count
the same for every commit compared.  Nothing of a solve but its answer is
kept past the solve, and all answers are verified after the run's peak
memory is read, so that figure is the program's and not the verifier's.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from array import array
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import ENGINE_SITES, HARNESS_SPANS, HOOKS, METHOD_SITES, Tracer
from verify import check_flow

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

CAP_MAX = 10 ** 6
TAIL_BEYOND = 10          # the tail percentile keeps this many solves above it
WARMUP_SEED = -1

# Every time a run reports is its wall time scaled to one machine speed:
# multiplied by REFERENCE_CALIBRATION_S over the mean time of the
# calibration loop (calibration_s) run just before and just after it.  The
# 2-vCPU machine the benchmark was defined on drifts between speeds up to
# 1.5x apart, for stretches of seconds to minutes, and the loop's time
# follows most of that drift: in perfbench/baseline.md scaling cuts the
# run-to-run spread of the median solve time from 0.13-0.30 to 0.04-0.11.
# No change to planarflow can move the loop, so a slower program still
# reads slower.  Unscaled wall times are printed too and kept in the run
# record.
CALIBRATION_LOOPS = 150_000
REFERENCE_CALIBRATION_S = 0.015


@dataclass(frozen=True)
class Workload:
    kind: str
    n: int
    config: dict                  # EngineConfig fields
    per_second: float             # instances per second of --seconds
    with_oracle: bool = False     # the timed operation includes the oracle

    def count(self, seconds):
        return max(TAIL_BEYOND + 1, round(seconds * self.per_second))


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "grid-recursive": Workload("grid", 1600, {}, per_second=0.55),
    "tri-recursive": Workload("tri", 1600, {}, per_second=0.8),
    "tri-direct": Workload("tri", 6400, {"base_case": 10 ** 9}, per_second=1.0),
    "grid-check": Workload("grid", 800, {"audit": "full"}, per_second=1.1,
                           with_oracle=True),
}

END_TO_END = {
    "solve_s_p50": "s",
    "nodes_per_s": "nodes/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "verified_frac": "ratio",
}

# Printed beside the end-to-end metrics, but not in the result line: a run
# holds 11 to 22 solves, so the percentile with ten solves above it sits
# at p9 to p55 and repeats solve_s_p50 instead of showing a slow tail.
PRINTED_ONLY = {"solve_s_tail": "s"}

LEVEL_KINDS = ("split", "base", "guard-base", "empty")


def _layer_units():
    units = {}
    functions = {name for name, _ in ENGINE_SITES}
    functions.update(site[0] for site in METHOD_SITES)
    functions.update(HARNESS_SPANS)
    for name in sorted(functions):
        units[f"{name}.calls"] = "calls/solve"
        units[f"{name}.self_s"] = "s/solve"
    units.update({
        "surgery.triangulate.chords": "arcs/solve",
        "separator.k_sum": "nodes/solve",
        "separator.k_over_sqrt_n_max": "ratio",
        "solvers.limited.arcs": "arcs/solve",
        "solvers.limited.useful_frac": "ratio",
        "solvers.msss.arcs": "arcs/solve",
        "solvers.ssms.arcs": "arcs/solve",
        "solvers.leaf.arcs": "arcs/solve",
        "flow.store_keys_per_arc": "keys/arc",
        "engine.audits": "checks/solve",
        "engine.max_depth": "levels",
        "trace.overhead_frac": "ratio",
    })
    for kind in LEVEL_KINDS:
        units[f"engine.levels.{kind.replace('-', '_')}"] = "levels/solve"
    return units


PER_LAYER = _layer_units()


# -- statistics ----------------------------------------------------------------


def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile) of the highest percentile that still has at least
    ``beyond`` samples above it, or None when there are too few samples."""
    if len(values) <= beyond:
        return None
    ordered = sorted(values)
    i = len(ordered) - beyond - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


# -- the program under test ------------------------------------------------------


def load_planarflow():
    """Import planarflow from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "planarflow" / "__init__.py").is_file():
        sys.exit(f"run.py: no planarflow sources in {src}")
    sys.path.insert(0, str(src))
    import planarflow
    from planarflow import engine, flow, graph
    from planarflow.instance import parse_instance_file

    if not Path(planarflow.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"run.py: imported planarflow from {planarflow.__file__}, not {src}")
    api = SimpleNamespace(
        generate=planarflow.generate,
        parse_instance_file=parse_instance_file,
        EngineConfig=planarflow.EngineConfig,
        MsmsEngine=planarflow.MsmsEngine,
        oracle_max_flow=planarflow.oracle_max_flow,
    )
    return api, {"engine": engine, "graph": graph, "flow": flow}


@dataclass
class Sample:
    index: int
    seed: int
    sha256: str
    n: int
    setup_s: float | None = None
    solve_s: float | None = None
    traced_solve_s: float | None = None
    failures: int = 0
    error: str | None = None      # the first failure's reason
    # per measured solve: wall setup and solve seconds, unscaled, and the
    # calibration times before setup, between the two and after the solve
    wall: list = field(default_factory=list)


def make_instance(pf, wl, seed):
    inst = pf.generate(wl.kind, wl.n, seed, cap_max=CAP_MAX)
    return inst, inst.text()


def set_up(pf, text, span):
    """What `planarflow solve FILE` does before solving."""
    with span("instance.parse"):
        parsed = pf.parse_instance_file(text)
    with span("instance.build"):
        g, terminals = parsed.build()
    return parsed, g, terminals


def solve(pf, wl, parsed, g, terminals, span):
    """The timed operation: engine construction plus run(); on a check
    workload also the oracle run, as `planarflow check` does (its value is
    compared by verify_answer)."""
    with span("engine.init"):
        eng = pf.MsmsEngine(g, terminals.sources, terminals.sinks,
                            pf.EngineConfig(**wl.config))
    with span("engine.run"):
        res = eng.run()
    oracle_value = None
    if wl.with_oracle:
        with span("solvers.oracle"):
            oracle_value = pf.oracle_max_flow(parsed.num_nodes, parsed.arcs,
                                              parsed.sources, parsed.sinks).value
    return eng, res, oracle_value


def verify_answer(pf, inst, answer):
    """None if the answer is right, else why not.  Runs outside timing."""
    value, arc_flows, oracle_value = answer
    if oracle_value is None:
        oracle_value = pf.oracle_max_flow(inst.num_nodes, inst.arcs,
                                          inst.sources, inst.sinks).value
    if value != oracle_value:
        return f"value {value} but the oracle says {oracle_value}"
    return check_flow(inst.num_nodes, inst.arcs, inst.sources, inst.sinks,
                      arc_flows, value)


def fail(sample, reason):
    sample.failures += 1
    sample.error = sample.error or reason


def calibration_s():
    """Wall time of a fixed pure-Python loop that shares no code with
    planarflow: the machine's speed at this moment."""
    t0 = perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i % 7
    return perf_counter() - t0


def measure(pf, wl, text, sample, span=nullcontext, inspect=None):
    """Set up and solve one instance; returns (setup time, solve time,
    answer).  Both times are scaled to the reference speed by the
    calibration runs just before and after them.  The answer is (value,
    arc flows, oracle value); nothing else of the solve is kept, so that
    the run's peak memory is the program's.  ``inspect(engine, result)``
    sees the solve before it is dropped.  An exception is recorded in the
    sample and returns None instead of aborting the run."""
    try:
        gc.collect()
        c0 = calibration_s()
        t0 = perf_counter()
        parsed, g, terminals = set_up(pf, text, span)
        setup_s = perf_counter() - t0
        c1 = calibration_s()
        gc.collect()
        t0 = perf_counter()
        eng, res, oracle_value = solve(pf, wl, parsed, g, terminals, span)
        elapsed = perf_counter() - t0
        c2 = calibration_s()
        if inspect is not None:
            inspect(eng, res)
        sample.wall.append((setup_s, elapsed, c0, c1, c2))
        return (setup_s * 2 * REFERENCE_CALIBRATION_S / (c0 + c1),
                elapsed * 2 * REFERENCE_CALIBRATION_S / (c1 + c2),
                (res.value, array("q", res.arc_flows), oracle_value))
    except Exception as exc:       # a failed solve must not end the run
        traceback.print_exc(file=sys.stderr)
        fail(sample, f"{type(exc).__name__}: {exc}")
        return None


def verify_all(pf, wl, checks):
    """Verify every (sample, answer) pair, regenerating its instance."""
    for sample, answer in checks:
        try:
            inst, _ = make_instance(pf, wl, sample.seed)
            reason = verify_answer(pf, inst, answer)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            fail(sample, reason)


# -- the two kinds of run ----------------------------------------------------------


def warm_up(pf, wl):
    """One untimed solve of a quarter-size instance of the workload, so that
    first-call costs stay out of the measurements."""
    small = replace(wl, n=max(wl.n // 4, 16))
    _, text = make_instance(pf, small, WARMUP_SEED)
    warm = Sample(-1, WARMUP_SEED, "", small.n)
    done = measure(pf, small, text, warm)
    if done is not None:
        verify_all(pf, small, [(warm, done[2])])


def instances(pf, wl, seed, count):
    for j in range(count):
        inst_seed = seed * 1000 + j
        inst, text = make_instance(pf, wl, inst_seed)
        sample = Sample(j, inst_seed, hashlib.sha256(text.encode()).hexdigest(),
                        inst.num_nodes)
        del inst        # regenerated for verification, after the peak is read
        yield sample, text


def run_untraced(pf, wl, seed, count):
    samples, checks = [], []
    for sample, text in instances(pf, wl, seed, count):
        samples.append(sample)
        done = measure(pf, wl, text, sample)
        if done is not None:
            sample.setup_s, sample.solve_s = done[0], done[1]
            checks.append((sample, done[2]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verify_all(pf, wl, checks)

    ok = [s for s in samples if s.error is None]
    solve_times = [s.solve_s for s in ok]
    metrics, notes = {}, {}
    if ok:
        metrics["solve_s_p50"] = statistics.median(solve_times)
        found = tail(solve_times)
        if found is not None:
            metrics["solve_s_tail"] = found[0]
            notes["solve_s_tail"] = (f"p{found[1]:.1f} of {len(ok)} solves: a low "
                                     f"percentile at this sample count, not a tail")
        metrics["nodes_per_s"] = sum(s.n for s in ok) / sum(solve_times)
        metrics["setup_s"] = statistics.median(s.setup_s for s in ok)
        walls = [s.wall[0] for s in ok]
        calibration = statistics.median(c for w in walls for c in w[2:])
        notes["solve_s_p50"] = (f"unscaled wall {statistics.median(w[1] for w in walls):.4g} s, "
                                f"calibration loop {calibration * 1000:.4g} ms")
        notes["setup_s"] = f"unscaled wall {statistics.median(w[0] for w in walls):.4g} s"
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["verified_frac"] = len(ok) / len(samples)
    return samples, metrics, notes


def run_traced(pf, modules, wl, seed, count):
    """Solve every instance untraced and traced, alternating which goes
    first; per-layer numbers come from the traced solves only."""
    tracer = Tracer()
    engine_counts = {}
    samples, checks = [], []
    for sample, text in instances(pf, wl, seed, count):
        samples.append(sample)
        for traced in ((False, True) if sample.index % 2 == 0 else (True, False)):
            if not traced:
                done = measure(pf, wl, text, sample)
                if done is not None:
                    sample.solve_s = done[1]
                    checks.append((sample, done[2]))
                continue
            tracer.instance = sample.index
            with tracer.installed_in(modules):
                done = measure(pf, wl, text, sample, span=tracer.span,
                               inspect=lambda eng, res: _count_engine(engine_counts, eng, res))
            if done is not None:
                sample.setup_s, sample.traced_solve_s = done[0], done[1]
                checks.append((sample, done[2]))
    verify_all(pf, wl, checks)

    totals = tracer.totals()
    raw = {}
    for name in tracer.installed | set(HARNESS_SPANS):
        raw[f"{name}.calls"], raw[f"{name}.self_s"] = totals.get(name, (0, 0.0))
    counters = tracer.counters
    for layer, (_, names) in HOOKS.items():
        if layer in tracer.installed:
            raw.update((n, counters.values.get(n, 0))
                       for n in names if n not in counters.broken)
    if "solvers.limited.useful" in raw:
        calls = raw["solvers.limited.calls"]
        useful = raw.pop("solvers.limited.useful")
        raw["solvers.limited.useful_frac"] = useful / calls if calls else 0.0
    raw.update((n, v) for n, v in engine_counts.items() if v is not None)
    if "flow.store_keys" in raw and "flow.root_arcs" in raw:
        raw["flow.store_keys_per_arc"] = raw["flow.store_keys"] / raw["flow.root_arcs"]

    paired = [s for s in samples if s.error is None]
    untraced = sum(s.solve_s for s in paired)
    if untraced > 0:
        raw["trace.overhead_frac"] = sum(s.traced_solve_s for s in paired) / untraced - 1
    solves = max(len(paired), 1)
    metrics = {name: value / solves if PER_LAYER[name].endswith("/solve") else value
               for name, value in raw.items() if name in PER_LAYER}
    return samples, metrics, tracer


def _count_engine(counts, eng, res):
    """Counters read from the engine and its result after a traced solve;
    any that the commit under test no longer exposes become absent (None)."""
    def add(name, read, combine=lambda a, b: a + b):
        if name in counts and counts[name] is None:
            return
        try:
            value = read()
        except (AttributeError, TypeError):
            counts[name] = None
            return
        counts[name] = combine(counts[name], value) if name in counts else value

    add("flow.store_keys", lambda: len(eng.store.vals))
    add("flow.root_arcs", lambda: len(res.arc_flows))
    add("engine.audits", lambda: res.audits)
    add("engine.max_depth", lambda: res.stats.max_depth, max)
    for kind in LEVEL_KINDS:
        add(f"engine.levels.{kind.replace('-', '_')}",
            lambda kind=kind: sum(1 for rec in res.stats.levels if rec.kind == kind))


# -- entry point ----------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pf, modules = load_planarflow()
    wl = WORKLOADS[args.workload]
    count = wl.count(args.seconds)
    warm_up(pf, wl)
    if args.trace:
        # every instance is solved twice, so half as many keep the run length
        count = max(2, count // 2)
        samples, metrics, tracer = run_traced(pf, modules, wl, args.seed, count)
        units = printed = PER_LAYER
        notes = {}
    else:
        samples, metrics, notes = run_untraced(pf, wl, args.seed, count)
        units = END_TO_END
        printed = {**END_TO_END, **PRINTED_ONLY}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = hashlib.sha256("".join(s.sha256 for s in samples).encode()).hexdigest()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "kind": wl.kind, "n": wl.n, "config": wl.config, "count": count,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "inputs_sha256": inputs, "metrics": metrics, "notes": notes,
        "samples": [asdict(s) for s in samples],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.jsonl")

    failed = sum(s.failures for s in samples)
    attempted = len(samples) * (2 if args.trace else 1)
    print(f"workload {args.workload}: {count} instances of {wl.kind} n={wl.n} "
          f"config={wl.config}, seed {args.seed}, python {record['python']}, "
          f"nproc {record['nproc']}")
    print(f"inputs sha256 {inputs}")
    for s in samples:
        if s.error is not None:
            print(f"FAILED instance seed {s.seed}: {s.error}")
    print(f"fail_frac {failed / attempted} ratio ({failed} of {attempted} solves)")
    for name, unit in printed.items():
        if name in metrics:
            note = f" ({notes[name]})" if name in notes else ""
            print(f"{name} {metrics[name]:.6g} {unit}{note}")
        else:
            print(f"{name} absent")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
