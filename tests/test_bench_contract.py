"""The benchmark's output contract, run the way the benchmark is run.

`perfbench/run.py` is started as a program from the repository root; its
last line of standard output must be one strict JSON object that reports
a correct run and every metric that `BENCHMARK.json` declares for the
run's mode: end-to-end untraced, per-layer traced.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_grid_check(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-check",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def _declared(section):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}


def test_grid_check_run_prints_every_end_to_end_metric():
    result = json.loads(_run_grid_check(0)[-1])
    assert result["correct"] is True
    assert _declared("end_to_end") <= set(result["metrics"])


def test_traced_run_prints_every_per_layer_metric_as_strict_json():
    # a per-layer name goes absent when its engine global disappears or
    # its counter hook no longer fits the call's arguments
    lines = _run_grid_check(1)
    assert not [line for line in lines if line.endswith(" absent")]
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert _declared("per_layer") <= set(result["metrics"])
