import shutil
import subprocess
import sys
from pathlib import Path

from planarflow.generate import generate

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "max_rss.py"


def max_rss(tree_a, tree_b, path):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(tree_a), str(tree_b), str(path),
         "--base-case", "8", "--audit", "final", "--reps", "2"],
        capture_output=True, text=True, timeout=120)


def instance(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(generate("grid", 60, 3).text())
    return path


def tree_rows(stdout):
    """tree -> (the max RSS of each rep, the median, the printed values)."""
    rows = {}
    for line in stdout.splitlines():
        side, _, rest = line.strip().partition(": ")
        if side in ("A", "B"):
            cells, _, values = rest.partition("  median ")
            median, _, shown = values.partition("  ")
            rows[side] = ([float(x) for x in cells.split()], float(median), shown)
    return rows


def test_a_tree_measured_against_itself_agrees(tmp_path):
    out = max_rss(REPO, REPO, instance(tmp_path))
    assert out.returncode == 0, out.stdout + out.stderr
    assert "values differ on 0 of 1 files" in out.stdout
    rows = tree_rows(out.stdout)
    for reps, median, shown in rows.values():
        assert len(reps) == 2 and all(mib > 1 for mib in reps)
        assert min(reps) <= median <= max(reps)
        assert shown.startswith("value ") and "|" not in shown
    assert rows["A"][2] == rows["B"][2]
    assert "B/A " in out.stdout


def test_max_rss_exits_1_when_a_solve_prints_another_value(tmp_path):
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
    out = max_rss(REPO, tmp_path, instance(tmp_path))
    assert out.returncode == 1, out.stdout + out.stderr
    assert "values differ on 1 of 1 files" in out.stdout
    rows = tree_rows(out.stdout)
    assert int(rows["B"][2].split()[1]) == int(rows["A"][2].split()[1]) + 1
