import pickle
import shutil
import subprocess
import sys
from pathlib import Path

from planarflow.solvers import _search_trees

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


def test_a_capture_keeps_each_walk_run_budget_as_it_was_before_the_call(tmp_path):
    """The walk's runs reach the core with budgets: the capture keeps a
    copy made before the core spends it, and the core, replayed on that
    copy and the captured residuals, gives a value within the budgets."""
    path = tmp_path / "calls.pickle"
    subprocess.run([sys.executable, str(SCRIPT), "--capture", str(REPO), str(path),
                    "--kind", "grid", "--n", "60", "--base-case", "8", "--seeds", "1..1"],
                   check=True, timeout=120)
    calls = pickle.loads(path.read_bytes())
    budgeted = [call for call in calls if call[-1] is not None]
    assert budgeted and len(budgeted) < len(calls)
    for adj, head, res, sources, sinks, limit, budget in budgeted:
        assert set(budget) <= set(sources) | set(sinks)
        assert min(budget.values()) > 0 and limit == sum(budget.values())
        value, _ = _search_trees(adj, head, list(res), sources, sinks, limit, dict(budget))
        assert 0 <= value <= limit
