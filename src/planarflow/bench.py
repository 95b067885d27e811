"""Benchmark harness: timing rows, recursion-shape data, scaling fit.

The recursion's two-piece sizes follow child <= (2/3) n + c * sqrt(n)
for the measured boundary constant c, so the analysis reports the
balance constant (1/3)^1.5 + (2/3)^1.5 of the idealized recurrence as a
sanity footer.  The original asymptotic bound relies on subroutines this
package deliberately replaces with simpler ones, so the analysis only
reports the measured exponent; it asserts nothing about it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

from .config import EngineConfig
from .engine import MsmsEngine
from .errors import InvariantFailure
from .generate import generate
from .oracle import oracle_max_flow
from .separator import BOUNDARY_CONSTANT

BALANCE_CONSTANT = (1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5

SCOPE_NOTE = ("asymptotic bound of the underlying algorithm is out of scope: "
              "substituted subroutines here have relaxed asymptotics; the exponents "
              "below are measured, not asserted")

CSV_HEADER = ("kind,n,seed,value,seconds,depth,max_boundary,"
              "max_boundary_ratio,max_child_ratio,direct_seconds")

DIRECT_BASE_CASE = 10 ** 9     # no recursion: one direct solve of the whole graph


@dataclass
class BenchRow:
    kind: str
    n: int
    seed: int
    value: int
    seconds: float
    depth: int
    max_boundary: int
    max_boundary_ratio: float | None    # None when no level split
    max_child_ratio: float | None
    direct_seconds: float

    def csv(self) -> str:
        ratios = ("" if r is None else f"{r:.4f}"
                  for r in (self.max_boundary_ratio, self.max_child_ratio))
        return (f"{self.kind},{self.n},{self.seed},{self.value},"
                f"{self.seconds:.6f},{self.depth},{self.max_boundary},"
                f"{','.join(ratios)},{self.direct_seconds:.6f}")


def _timed_solve(inst, config):
    g, ts = inst.build()
    start = time.perf_counter()
    res = MsmsEngine(g, ts.sources, ts.sinks, config).run()
    return res, time.perf_counter() - start


def run_one(kind, n, seed, cap_max=10 ** 6, config: EngineConfig | None = None,
            s_frac=0.1, t_frac=0.1) -> BenchRow:
    """Time the recursive solve of one seeded instance, then a direct
    solve of the same instance as the reference; their values must agree."""
    inst = generate(kind, n, seed, cap_max=cap_max, s_frac=s_frac, t_frac=t_frac)
    config = config or EngineConfig()
    res, elapsed = _timed_solve(inst, config)
    direct, direct_elapsed = _timed_solve(
        inst, replace(config, base_case=DIRECT_BASE_CASE))
    if direct.value != res.value:
        raise InvariantFailure(f"{kind} n={n} seed={seed}: recursive value "
                               f"{res.value} != direct value {direct.value}")
    child_ratios = [child / rec.n for rec in res.stats.levels if rec.kind == "split"
                    for child in rec.child_sizes]
    return BenchRow(kind, inst.num_nodes, seed, res.value, elapsed,
                    res.stats.max_depth, res.stats.max_boundary,
                    res.stats.max_boundary_ratio if child_ratios else None,
                    max(child_ratios, default=None), direct_elapsed)


@dataclass
class RunReport:
    """Outcome of one verified run: solver value against the oracle."""

    kind: str
    n: int
    seed: int
    value: int
    oracle_value: int
    seconds: float
    audits: int
    shape_ok: bool

    @property
    def passed(self) -> bool:
        return self.value == self.oracle_value and self.shape_ok


def check_one(kind, n, seed, cap_max=10 ** 6,
              config: EngineConfig | None = None) -> RunReport:
    """Solve one seeded instance with full audits and verify against the
    oracle; audit failures propagate as AuditFailure."""
    inst = generate(kind, n, seed, cap_max=cap_max)
    res, elapsed = _timed_solve(inst, config or EngineConfig(audit="full"))
    want = oracle_max_flow(inst.num_nodes, inst.arcs, inst.sources, inst.sinks).value
    return RunReport(
        kind=kind, n=inst.num_nodes, seed=seed, value=res.value, oracle_value=want,
        seconds=elapsed, audits=res.audits, shape_ok=not res.stats.shape_violations(),
    )


def fit_exponent(rows) -> float | None:
    """Least-squares slope of log(time) against log(n)."""
    pts = [(math.log(r.n), math.log(r.seconds)) for r in rows
           if r.seconds > 0 and r.n > 1]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def report(rows) -> str:
    lines = [CSV_HEADER]
    lines += [r.csv() for r in rows]
    lines.append(f"# {SCOPE_NOTE}")
    for kind in dict.fromkeys(r.kind for r in rows):   # one fit per family
        exponent = fit_exponent([r for r in rows if r.kind == kind])
        if exponent is None:
            lines.append(f"# empirical scaling exponent for {kind}: insufficient data")
        else:
            lines.append(f"# empirical scaling exponent for {kind} "
                         f"(log time vs log n): {exponent:.3f}")
    lines.append(f"# boundary size constant in use: c_sep = {BOUNDARY_CONSTANT}")
    worst = max((r.max_child_ratio for r in rows if r.max_child_ratio is not None),
                default=None)
    observed = (f"{worst:.4f} (bound per level: 2/3 + c_sep/sqrt(n))" if worst
                else "none (no split level)")
    lines.append(f"# worst child/parent size ratio observed: {observed}")
    lines.append(f"# recurrence balance constant (1/3)^1.5 + (2/3)^1.5 = "
                 f"{BALANCE_CONSTANT:.4f}")
    return "\n".join(lines) + "\n"
