"""Acceptance suite: one test per criterion, pinned tolerances.

Every numeric comparison against the direct solver is exact (integer
arithmetic, tolerance zero).  Structural bounds use the documented
constants pinned here and in planarflow.separator.
"""

import math
import random

from support import FuzzPool, fuzz_sequence, sink_push_trial, source_push_trial

from planarflow.bench import BALANCE_CONSTANT, fit_exponent, report, run_one
from planarflow.config import EngineConfig
from planarflow.engine import MsmsEngine
from planarflow.generate import MIN_NODES, generate
from planarflow.separator import BOUNDARY_CONSTANT, find_cycle_separator
from planarflow.solvers import oracle_max_flow
from planarflow.surgery import triangulate_and_biconnect

DEPTH_SLACK = 4          # pinned headroom over ceil(log_{3/2} n)
MILLER_CONSTANT = 2 * math.sqrt(2)


def _oracle_value(g, sources, sinks):
    arcs = [(g.tails[a], g.heads[a], g.caps[a]) for a in range(g.m)]
    return oracle_max_flow(g.n, arcs, sources, sinks).value


def _size_schedule():
    """1000 deterministic sizes covering [2, 2000], weighted small."""
    sizes = [2 + ((i * 997) % 299) for i in range(850)]
    sizes += [301 + ((i * 131) % 700) for i in range(100)]
    sizes += [1001 + ((i * 211) % 999) for i in range(48)]
    sizes += [2, 2000]
    assert len(sizes) == 1000
    assert min(sizes) == 2 and max(sizes) == 2000
    return sizes


def test_criterion_1_oracle_equivalence_1000_instances():
    mismatches = []
    for i, n in enumerate(_size_schedule()):
        kind = "grid" if i % 2 == 0 else "tri"
        n = max(n, MIN_NODES[kind])   # the schedule's n = 2 as a triangle
        g, ts = generate(kind, n, seed=i, cap_max=10 ** 6).build()
        res = MsmsEngine(g, ts.sources, ts.sinks, EngineConfig(audit="none")).run()
        want = _oracle_value(g, ts.sources, ts.sinks)
        if res.value != want:
            mismatches.append((kind, n, i, res.value, want))
    print(f"\nACCEPTANCE 1 (oracle equivalence, 1000 instances, exact): "
          f"{'PASS' if not mismatches else 'FAIL'} ({len(mismatches)} mismatches)")
    assert not mismatches


def test_criterion_2_invariant_audits_200_instances():
    failures = []
    for i in range(200):
        n = 2 + ((i * 997) % 399)
        kind = "grid" if i % 2 == 0 else "tri"
        g, ts = generate(kind, n, seed=10_000 + i, cap_max=10 ** 6).build()
        try:
            res = MsmsEngine(g, ts.sources, ts.sinks,
                             EngineConfig(audit="full", base_case=16)).run()
            if res.value != _oracle_value(g, ts.sources, ts.sinks):
                failures.append((kind, n, i, "value"))
        except Exception as e:  # audit failures included
            failures.append((kind, n, i, repr(e)))
    print(f"\nACCEPTANCE 2 (invariant audits on 200 instances, zero failures): "
          f"{'PASS' if not failures else 'FAIL'} {failures[:3]}")
    assert not failures


def test_criterion_3_push_property_trials():
    for name, trial, seed in (("source-side", source_push_trial, 31),
                              ("sink-side", sink_push_trial, 32)):
        rng = random.Random(seed)
        held = 0
        attempts = 0
        violations = 0
        while held < 10_000:
            attempts += 1
            result = trial(rng)
            if result is None:
                continue
            held += 1
            if not result:
                violations += 1
        print(f"\nACCEPTANCE 3 ({name} push property, 10^4 trials): "
              f"{'PASS' if violations == 0 else 'FAIL'} "
              f"({held} trials, {attempts - held} skipped samples)")
        assert violations == 0


def test_criterion_4_separator_bounds_500_triangulations():
    rng = random.Random(77)
    worst_ratio = 0.0
    bad = []
    for i in range(500):
        if i < 2:
            n = 10_000
        else:
            n = int(math.exp(rng.uniform(math.log(16), math.log(10_000))))
        g, _ = generate("tri", n, seed=20_000 + i).build()
        gt = triangulate_and_biconnect(g)
        sep = find_cycle_separator(gt)
        ratio = sep.k / math.sqrt(gt.n)
        worst_ratio = max(worst_ratio, ratio)
        if len(sep.inside) > 2 * gt.n / 3 or len(sep.outside) > 2 * gt.n / 3:
            bad.append((n, i, "balance"))
        if sep.k > BOUNDARY_CONSTANT * math.sqrt(gt.n):
            bad.append((n, i, "size"))
    print(f"\nACCEPTANCE 4 (separator bounds on 500 triangulations): "
          f"{'PASS' if not bad else 'FAIL'}; worst k/sqrt(n) = {worst_ratio:.3f} "
          f"under documented c_sep = {BOUNDARY_CONSTANT} "
          f"(classical linear-time constant would be {MILLER_CONSTANT:.2f}, "
          f"not required here)")
    assert not bad


def test_criterion_5_recursion_shape():
    bad = []
    max_depths = []
    for kind in ("grid", "tri"):
        for n in (64, 128, 256, 512, 1024, 2048):
            for seed in (0, 1):
                g, ts = generate(kind, n, seed=30_000 + seed, cap_max=10 ** 6).build()
                res = MsmsEngine(g, ts.sources, ts.sinks, EngineConfig()).run()
                if res.value != _oracle_value(g, ts.sources, ts.sinks):
                    bad.append((kind, n, seed, "value"))
                depth_bound = math.ceil(math.log(g.n) / math.log(1.5)) + DEPTH_SLACK
                if res.stats.max_depth > depth_bound:
                    bad.append((kind, n, seed, "depth", res.stats.max_depth))
                viols = res.stats.shape_violations()
                if viols:
                    bad.append((kind, n, seed, "child-size", viols[:2]))
                max_depths.append((g.n, res.stats.max_depth, depth_bound))
    print(f"\nACCEPTANCE 5 (recursion shape, depth <= ceil(log_1.5 n) + "
          f"{DEPTH_SLACK}, child <= (2/3)p + {BOUNDARY_CONSTANT}*sqrt(p)): "
          f"{'PASS' if not bad else 'FAIL'}; deepest run "
          f"{max((d for _, d, _ in max_depths), default=0)}")
    assert not bad


def test_criterion_6_invariant_fuzz_100k_sequences():
    pool = FuzzPool()
    rng = random.Random(99)
    violations = 0
    for _ in range(100_000):
        violations += fuzz_sequence(pool, rng)
    print(f"\nACCEPTANCE 6 (antisymmetry/pseudoflow fuzz, 10^5 sequences): "
          f"{'PASS' if violations == 0 else 'FAIL'} ({violations} violations)")
    assert violations == 0


def test_criterion_7_bench_reports_scaling_not_asymptotics():
    rows = [run_one(kind, n, seed=3, cap_max=10 ** 4)
            for kind in ("grid", "tri") for n in (64, 128, 256, 512)]
    text = report(rows)
    assert "out of scope" in text
    assert "empirical scaling exponent" in text
    exponent = fit_exponent(rows)
    assert exponent is not None
    assert f"{BALANCE_CONSTANT:.4f}" == "0.7368"
    assert f"{BALANCE_CONSTANT:.4f}" in text
    print(f"\nACCEPTANCE 7 (bench reports measured exponent, labels bound out "
          f"of scope): PASS; measured exponent {exponent:.2f} on the ladder")
