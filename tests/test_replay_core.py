import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "replay_core.py"


def replay(tree_a, tree_b):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(tree_a), str(tree_b), "--kind", "grid",
         "--n", "60", "--base-case", "8", "--seeds", "1..2", "--reps", "2"],
        capture_output=True, text=True, timeout=120)


def test_replay_of_a_tree_against_itself_agrees():
    out = replay(REPO, REPO)
    assert out.returncode == 0, out.stdout + out.stderr
    calls = int(out.stdout.split()[0])
    assert calls > 2
    assert f"values differ on 0 of {calls} calls" in out.stdout
    assert out.stdout.count(" s of 2 (") == 2


def test_replay_exits_1_when_a_core_returns_other_values(tmp_path):
    """Tree B's core reports one unit more than it pushed."""
    shutil.copytree(REPO / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solvers = tmp_path / "src" / "planarflow" / "solvers.py"
    solvers.write_text(solvers.read_text() + (
        "\n\n_exact = _search_trees\n\n\n"
        "def _search_trees(*args):\n"
        "    value, darts = _exact(*args)\n"
        "    return value + 1, darts\n"))
    out = replay(REPO, tmp_path)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "values differ on 0 " not in out.stdout
