import json

import pytest

from planarflow.bench import BALANCE_CONSTANT
from planarflow.cli import main
from planarflow.generate import generate


def test_gen_then_solve(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    assert main(["gen", "--kind", "grid", "--n", "25", "--seed", "3",
                 "-o", str(path)]) == 0
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("value ")


def test_solve_dump_flow(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("p pmf 2 1\na 1 2 7\nr 1 2\nr 2 1\ns 1\nt 2\n")
    assert main(["solve", str(path), "--dump-flow"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "value 7"
    assert out[1] == "f 1 2 7"


def test_solve_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("p pmf 2 1\na 1 2\n")
    assert main(["solve", str(path)]) == 2


def test_solve_per_component(tmp_path, capsys):
    text = """p pmf 4 2
a 1 2 5
a 3 4 9
r 1 2
r 2 1
r 3 4
r 4 3
s 1
s 3
t 2
t 4
"""
    path = tmp_path / "two.txt"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2  # strict parse rejects disconnected
    assert main(["solve", str(path), "--per-component", "--dump-flow"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["value 14", "f 1 2 5", "f 3 4 9"]


@pytest.mark.parametrize("rotations", [
    "r 1 2\nr 2 1\nr 3 4\nr 4 1\n",        # node 4 names node 1, its non-neighbour
    "r 1 2\nr 2 1\nr 3\nr 4 3\n",          # node 3 omits its neighbour
], ids=["non-neighbour", "missing-neighbour"])
def test_solve_per_component_rejects_an_invalid_component(tmp_path, capsys, rotations):
    path = tmp_path / "two.txt"
    path.write_text("p pmf 4 2\na 1 2 5\na 3 4 9\n" + rotations + "s 1\nt 2\n")
    assert main(["solve", str(path), "--per-component"]) == 2
    assert "parse error" in capsys.readouterr().err


def test_solve_with_trace(tmp_path):
    inst = generate("grid", 60, 2)
    path = tmp_path / "inst.txt"
    path.write_text(inst.text())
    trace_path = tmp_path / "trace.jsonl"
    assert main(["solve", str(path), "--trace", str(trace_path),
                 "--base-case", "16"]) == 0
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert any(r["op"] == "separator" for r in records)
    assert any(r["op"] == "redistribute" for r in records)


def test_check_command_passes(capsys):
    assert main(["check", "--kind", "tri", "--n", "40", "--count", "5",
                 "--seed", "7", "--cap-max", "100"]) == 0
    out = capsys.readouterr().out
    assert "all 5 runs verified" in out


def test_check_larger_batch(capsys):
    assert main(["check", "--kind", "grid", "--n", "60", "--count", "25",
                 "--seed", "0", "--cap-max", "1000"]) == 0


def test_bench_report_format(capsys):
    assert main(["bench", "--kinds", "grid", "--sizes", "30,60",
                 "--repeats", "1", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("kind,n,seed,value,seconds,depth,max_boundary")
    assert any("out of scope" in l for l in lines)
    assert any("empirical scaling exponent" in l for l in lines)
    assert any(f"{BALANCE_CONSTANT:.4f}" in l for l in lines)
    assert f"{BALANCE_CONSTANT:.4f}" == "0.7368"


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("base_case = 16\naudit = final\n# comment\n")
    inst = generate("tri", 50, 1)
    path = tmp_path / "inst.txt"
    path.write_text(inst.text())
    assert main(["solve", str(path), "--config", str(cfg)]) == 0


def test_config_rejects_unknown_key(tmp_path):
    from planarflow.config import parse_config_file
    for key in ("bogus", "seed", "msss_backend", "limited_backend"):
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            parse_config_file(f"{key} = 1\n")


@pytest.mark.parametrize("bad_line, lineno", [
    ("p max x 3", 1),
    ("n 1", 2),
    ("n 9 s", 2),
    ("a 1 2", 4),
])
def test_import_dimacs_rejects_malformed_lines(tmp_path, capsys, bad_line, lineno):
    lines = ["p max 2 1", "n 1 s", "n 2 t", "a 1 2 3"]
    lines[lineno - 1] = bad_line
    path = tmp_path / "bad.max"
    path.write_text("\n".join(lines) + "\n")
    assert main(["import-dimacs", str(path)]) == 2
    assert f"line {lineno}:" in capsys.readouterr().err


def test_import_dimacs(tmp_path, capsys):
    lines = ["p max 6 7", "n 1 s", "n 6 t"]
    for (u, v) in [(1, 2), (2, 3), (4, 5), (5, 6), (1, 4), (2, 5), (3, 6)]:
        lines.append(f"a {u} {v} 3")
    path = tmp_path / "g.max"
    path.write_text("\n".join(lines) + "\n")
    out_path = tmp_path / "converted.txt"
    assert main(["import-dimacs", str(path), "-o", str(out_path)]) == 0
    assert main(["solve", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("value ")
