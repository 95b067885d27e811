import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "time_layers.py"


def time_layers(tree_a, tree_b):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(tree_a), str(tree_b), "--kind", "grid",
         "--n", "60", "--audit", "full", "--base-case", "8", "--seeds", "1..2",
         "--reps", "2"],
        capture_output=True, text=True, timeout=120)


def rows(stdout):
    """layer -> the row's cells after the name."""
    return {line.split()[0]: line.split()[1:] for line in stdout.splitlines()[4:-1]}


def test_a_tree_timed_against_itself_agrees():
    out = time_layers(REPO, REPO)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "values differ on 0 of 2 solves" in out.stdout
    table = rows(out.stdout)
    assert table["solve"][3:] == ["2", "2"]
    assert table["solve_bare"][3:] == ["2", "2"]
    assert {"setup", "collect"} <= table.keys()
    a_calls, b_calls = table["residual_reachable"][3:]
    assert a_calls == b_calls and int(a_calls) > 0
    assert "absent" not in out.stdout


def test_time_layers_exits_1_when_a_solve_returns_another_value(tmp_path):
    """Tree B's engine reports one unit more than it found."""
    shutil.copytree(REPO / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    engine = tmp_path / "src" / "planarflow" / "engine.py"
    engine.write_text(engine.read_text() + (
        "\n\n_exact_run = MsmsEngine.run\n\n\n"
        "def _run_plus_one(self):\n"
        "    res = _exact_run(self)\n"
        "    res.value += 1\n"
        "    return res\n\n\n"
        "MsmsEngine.run = _run_plus_one\n"))
    out = time_layers(REPO, tmp_path)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "values differ on 2 of 2 solves" in out.stdout
