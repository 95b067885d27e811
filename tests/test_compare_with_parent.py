import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "compare_with_parent.py"


def compare(parent, change):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), "--change-tree", str(change)],
        capture_output=True, text=True, timeout=300)


def test_malformed_pass_of_a_tree_against_itself_agrees():
    out = compare(REPO, REPO)
    assert out.returncode == 0, out.stdout + out.stderr
    assert ("malformed pass: 2000 texts, outcomes differ on 0, "
            "0 exceptions outside PlanarFlowError") in out.stdout
    for kind in ("ParseError", "EmbeddingInvalid", "ParallelArcOrLoop", "built"):
        assert f" {kind} " in out.stdout


def test_malformed_pass_exits_1_when_a_message_is_worded_differently(tmp_path):
    """The change tree's build_graph words its rotation error differently."""
    shutil.copytree(REPO / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    graph = tmp_path / "src" / "planarflow" / "graph.py"
    text = graph.read_text()
    assert text.count("but neighbors are") == 1
    graph.write_text(text.replace("but neighbors are", "but its neighbors are"))
    out = compare(REPO, tmp_path)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "outcomes differ on 0," not in out.stdout
    assert "but its neighbors are" in out.stdout


def test_malformed_pass_counts_exceptions_outside_planarflow_error(tmp_path):
    """The change tree's parser raises KeyError on an unknown line tag."""
    shutil.copytree(REPO / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    instance = tmp_path / "src" / "planarflow" / "instance.py"
    text = instance.read_text()
    old = 'raise ParseError(lineno, f"unknown line tag {tag!r}")'
    assert text.count(old) == 1
    instance.write_text(text.replace(old, "raise KeyError(tag)"))
    out = compare(REPO, tmp_path)
    assert out.returncode == 1, out.stdout + out.stderr
    assert " 0 exceptions outside PlanarFlowError" not in out.stdout
    assert "KeyError" in out.stdout
