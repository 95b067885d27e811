import argparse
import dataclasses
import json
import re
import weakref
from pathlib import Path

import pytest

from planarflow import cli, engine, surgery
from planarflow.bench import BALANCE_CONSTANT, BenchRow, fit_exponent, report
from planarflow.cli import build_parser, main
from planarflow.errors import CapacityViolation, SettlementStuck
from planarflow.generate import generate

README = Path(__file__).resolve().parent.parent / "README.md"


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
    # build errors name nodes by the file's ids, whole-file or per component
    for text, message in [
        ("p pmf 3 2\na 1 2 5\na 2 3 4\nr 1 2\nr 2 1 3\nr 3\ns 1\nt 2\n",
         "node 3: rotation lists [] but neighbors are [2]"),
        ("p pmf 2 1\na 1 2 7\nr 1 2\nr 2 1\ns 1\nt 1\nt 2\n",
         "nodes [1] are both sources and sinks"),
        ("p pmf 2 2\na 1 2 5\na 2 1 4\nr 1 2\nr 2 1\ns 1\nt 2\n",
         "two arcs join nodes 1 and 2"),
    ]:
        path.write_text(text)
        for extra in ([], ["--per-component"]):
            assert main(["solve", str(path)] + extra) == 2
            assert message in capsys.readouterr().err


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


@pytest.mark.parametrize("rotations, message", [
    ("r 1 2\nr 2 1\nr 3 4\nr 4 1\n",        # node 4 names node 1, its non-neighbour
     "node 4: rotation lists [1] but neighbors are [3]"),
    ("r 1 2\nr 2 1\nr 3\nr 4 3\n",          # node 3 omits its neighbour
     "node 3: rotation lists [] but neighbors are [4]"),
], ids=["non-neighbour", "missing-neighbour"])
def test_solve_per_component_rejects_an_invalid_component(tmp_path, capsys,
                                                          rotations, message):
    path = tmp_path / "two.txt"
    path.write_text("p pmf 4 2\na 1 2 5\na 3 4 9\n" + rotations + "s 1\nt 2\n")
    assert main(["solve", str(path), "--per-component"]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and message in err


@pytest.mark.parametrize("extra", [[], ["--per-component"]])
def test_solve_lets_go_of_the_parsed_file_before_it_solves(tmp_path, capsys, monkeypatch,
                                                         extra):
    path = tmp_path / "inst.txt"
    path.write_text(generate("grid", 60, 2).text())
    parsed = []
    parse = cli.parse_instance_file

    def recording(text):
        inst = parse(text)
        parsed.append(weakref.ref(inst))
        return inst
    monkeypatch.setattr(cli, "parse_instance_file", recording)
    alive = []
    run = engine.MsmsEngine.run

    def checking(self):
        alive.append(parsed[0]() is not None)
        return run(self)
    monkeypatch.setattr(engine.MsmsEngine, "run", checking)
    assert main(["solve", str(path)] + extra) == 0
    assert capsys.readouterr().out.startswith("value ")
    assert alive == [False]


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


@pytest.mark.parametrize("target, error", [
    ("planarflow.engine.MsmsEngine._settle_pseudoflow", SettlementStuck),
    ("planarflow.flow.FlowStore.apply", CapacityViolation),
], ids=["settlement-stuck", "capacity-violation"])
def test_internal_invariant_failure_exits_3_with_one_line(tmp_path, capsys,
                                                          monkeypatch, target, error):
    def fail(*args):
        raise error("injected")

    monkeypatch.setattr(target, fail)
    path = tmp_path / "inst.txt"
    path.write_text(generate("grid", 60, 2).text())
    trace_path = tmp_path / "trace.jsonl"
    assert main(["solve", str(path), "--trace", str(trace_path),
                 "--base-case", "4"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("invariant failure: ")
    text = trace_path.read_text()
    assert text.endswith("\n")
    assert any(json.loads(line)["op"] == "separator" for line in text.splitlines())


def flip_a_cycle_dart(monkeypatch):
    real = engine.split_into_pieces

    def split(g, sep):
        darts = list(sep.cycle_darts)
        darts[0] ^= 1
        return real(g, dataclasses.replace(sep, cycle_darts=darts))
    monkeypatch.setattr(engine, "split_into_pieces", split)


def detach_at_a_dart_that_does_not_leave_the_node(monkeypatch):
    real = engine.detach_terminal_from_cycle

    def detach(g, detaches, store):
        (v, anchor, role, cap), *rest = detaches
        return real(g, [(v, anchor ^ 1, role, cap), *rest], store)
    monkeypatch.setattr(engine, "detach_terminal_from_cycle", detach)


def reverse_a_rotation_of_the_triangulation(monkeypatch):
    real = surgery.triangulated

    def triangulated(*args):
        gt = real(*args)
        next(r for r in gt.rot if len(r) >= 3).reverse()
        return gt
    monkeypatch.setattr(surgery, "triangulated", triangulated)


@pytest.mark.parametrize("fault", [
    flip_a_cycle_dart,
    detach_at_a_dart_that_does_not_leave_the_node,
    reverse_a_rotation_of_the_triangulation,
], ids=["split-orientation", "detach-anchor", "root-triangulation"])
def test_a_broken_separator_surgery_or_triangulation_check_exits_3(tmp_path, capsys,
                                                                   monkeypatch, fault):
    """A check that the separator, a detach or the root triangulation
    runs, failing in a real solve, ends solve, bench and check with exit 3
    and one line, not a traceback."""
    fault(monkeypatch)
    path = tmp_path / "inst.txt"
    path.write_text(generate("grid", 60, 2).text())
    for argv in (["solve", str(path), "--base-case", "4"],
                 ["bench", "--kinds", "grid", "--sizes", "60", "--seed", "2",
                  "--base-case", "4"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("invariant failure: ")
    assert main(["check", "--kind", "grid", "--n", "60", "--count", "1", "--seed", "2",
                 "--base-case", "4"]) == 3
    out = capsys.readouterr().out
    assert out.startswith("FAILED kind=grid n=60 seed=2 invariant failure: ")
    assert len(out.splitlines()) == 1


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
    assert lines[0].endswith(",direct_seconds")
    for row in lines[1:3]:
        assert row.startswith("grid,") and float(row.split(",")[-1]) > 0
    assert any("out of scope" in l for l in lines)
    assert any("empirical scaling exponent" in l for l in lines)
    assert any(f"{BALANCE_CONSTANT:.4f}" in l for l in lines)
    assert f"{BALANCE_CONSTANT:.4f}" == "0.7368"


def test_bench_footer_names_the_worst_child_ratio_or_no_split_level(capsys):
    """n = 4 solves at the root, so no level splits and no ratio is seen;
    n = 100 splits at least once."""
    footer = "# worst child/parent size ratio observed: "
    assert main(["bench", "--kinds", "grid", "--sizes", "4", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert footer + "none (no split level)" in lines
    assert main(["bench", "--kinds", "grid", "--sizes", "100", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    (line,) = [l for l in lines if l.startswith(footer)]
    worst = max(float(row.split(",")[8]) for row in lines[1:] if row.startswith("grid,"))
    assert 0 < worst < 1
    assert line == footer + f"{worst:.4f} (bound per level: 2/3 + c_sep/sqrt(n))"


def test_bench_row_leaves_the_ratios_empty_when_no_level_split(capsys):
    """A row's max_boundary_ratio and max_child_ratio (fields 7 and 8)
    are empty when its solve had no split level, as at n = 4, and numbers
    when it had one, as at n = 100."""
    assert main(["bench", "--kinds", "grid", "--sizes", "4", "--repeats", "1"]) == 0
    (row,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("grid,")]
    fields = row.split(",")
    assert len(fields) == 10 and fields[7:9] == ["", ""]
    assert float(fields[9]) > 0
    assert main(["bench", "--kinds", "grid", "--sizes", "100", "--repeats", "1"]) == 0
    (row,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("grid,")]
    fields = row.split(",")
    assert len(fields) == 10
    assert float(fields[7]) > 0 and 0 < float(fields[8]) < 1


def test_bench_fits_one_exponent_per_kind():
    """Two families with different slopes: each footer line is the fit of
    its own kind's rows, not of both together."""
    rows = [BenchRow(kind, n, 0, 0, scale * n ** slope, 0, 0, 0.0, 0.0, 0.0)
            for kind, scale, slope in (("grid", 1e-6, 2.0), ("tri", 3e-5, 1.25))
            for n in (100, 200, 400, 800)]
    rows[1].seconds *= 1.1                 # off the line, so the fit is a fit
    lines = report(rows).splitlines()
    fits = [line for line in lines if "empirical scaling exponent" in line]
    assert len(fits) == 2
    for line, kind in zip(fits, ("grid", "tri")):
        exponent = fit_exponent([r for r in rows if r.kind == kind])
        assert line == (f"# empirical scaling exponent for {kind} "
                        f"(log time vs log n): {exponent:.3f}")
    assert fits[0] != fits[1]


def test_bench_exits_3_when_the_direct_value_differs(monkeypatch, capsys):
    from types import SimpleNamespace

    import planarflow.bench as bench
    real = bench._timed_solve

    def skewed(inst, config):
        res, seconds = real(inst, config)
        if config.base_case == bench.DIRECT_BASE_CASE:
            res = SimpleNamespace(value=res.value + 1)
        return res, seconds

    monkeypatch.setattr(bench, "_timed_solve", skewed)
    assert main(["bench", "--kinds", "grid", "--sizes", "30"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "!= direct value" in err


def test_solve_takes_the_engine_options_as_flags(tmp_path, capsys):
    """--audit and --base-case set the solve's EngineConfig."""
    from planarflow import EngineConfig, msms_max_flow
    inst = generate("tri", 50, 1)
    path = tmp_path / "inst.txt"
    path.write_text(inst.text())
    assert main(["solve", str(path), "--audit", "final", "--base-case", "16"]) == 0
    g, ts = inst.build()
    want = msms_max_flow(g, ts.sources, ts.sinks, EngineConfig(audit="final", base_case=16))
    assert capsys.readouterr().out == f"value {want.value}\n"


def test_solve_has_no_config_file_option(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(generate("tri", 20, 1).text())
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", str(path), "--config", str(tmp_path / "run.cfg")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("audit", [[], ["--audit", "none"]])
def test_check_runs_full_audits_unless_told_a_level(capsys, audit):
    assert main(["check", "--kind", "grid", "--n", "60", "--count", "3", *audit]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[-1] == "all 3 runs verified"
    for line in lines[:-1]:
        assert int(re.search(r" audits=(\d+) ", line).group(1)) > 0


@pytest.mark.parametrize("value", ["5", None, 2.5, 32.0, True, False])
def test_config_rejects_a_base_case_that_is_not_an_integer(value):
    from planarflow.config import EngineConfig
    from planarflow.errors import ConfigError
    with pytest.raises(ConfigError, match=f"^base_case must be an integer, got {value!r}$"):
        EngineConfig(base_case=value)


@pytest.mark.parametrize("bad_line, lineno", [
    ("p max x 3", 1),
    ("n 1", 2),
    ("n 9 s", 2),
    ("a 1 2", 4),
    ("a 1 2 -5", 4),
    ("n 1 t", 3),
    pytest.param("a 1 2 3\na 2 1 4", 4, id="a 2 1 4 after a 1 2 3-4"),
    pytest.param("p max 2 1\np max 2 1", 1, id="p max 2 1 twice-2"),
    pytest.param("n 1 s\nn 2 s", 2, id="n 2 s after n 1 s-3"),
    pytest.param("n 2 t\nn 2 t", 3, id="n 2 t twice-4"),
    ("a 2 9 5", 4),
    ("a 0 2 5", 4),
    ("a 2 2 5", 4),
])
def test_import_dimacs_rejects_malformed_lines(tmp_path, capsys, bad_line, lineno):
    """bad_line replaces line lineno; the error names bad_line's last line."""
    lines = ["p max 2 1", "n 1 s", "n 2 t", "a 1 2 3"]
    lines[lineno - 1] = bad_line
    path = tmp_path / "bad.max"
    path.write_text("\n".join(lines) + "\n")
    assert main(["import-dimacs", str(path)]) == 2
    last = lineno + bad_line.count("\n")
    assert f"line {last}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "{tmp}/missing.txt"],
    ["import-dimacs", "{tmp}/missing.max"],
    ["solve", "{inst}", "--base-case", "1"],
    ["solve", "{inst}", "--trace", "{tmp}/no-such-dir/trace.jsonl"],
    ["bench", "--kinds", "foo"],
    ["bench", "--sizes", "abc"],
    ["bench", "--kinds", "grid", "--sizes", "0"],
    ["gen", "--kind", "grid", "--n", "1"],
    ["check", "--kind", "grid", "--n", "1"],
    ["gen", "--kind", "tri", "--n", "-5"],
    ["gen", "--kind", "tri", "--n", "2"],
    ["check", "--kind", "tri", "--n", "2"],
    ["bench", "--kinds", "tri", "--sizes", "0,-5"],
    ["gen", "--kind", "grid", "--n", "9", "--cap-max", "-1"],
    ["check", "--kind", "grid", "--n", "9", "--cap-max", "-1"],
    ["bench", "--kinds", "grid", "--sizes", "9", "--cap-max", "-1"],
    ["check", "--kind", "grid", "--n", "9", "--count", "-1"],
    ["check", "--kind", "grid", "--n", "9", "--count", "0"],
    ["bench", "--kinds", "grid", "--sizes", "9", "--repeats", "0"],
    ["bench", "--kinds", "grid", "--sizes", "9", "--repeats", "-2"],
    ["gen", "--kind", "grid", "--n", "9", "--s-frac", "1.5"],
    ["gen", "--kind", "grid", "--n", "9", "--s-frac", "-0.5"],
    ["gen", "--kind", "grid", "--n", "9", "--t-frac", "nan"],
    ["gen", "--kind", "grid", "--n", "9", "--s-frac", "inf"],
    ["bench", "--kinds", "grid", "--sizes", "9", "--s-frac", "1.5"],
    ["solve", "{tmp}/not-utf8.bin"],
    ["import-dimacs", "{tmp}/not-utf8.bin"],
    ["import-dimacs", "{tmp}/arc-endpoint-9.max"],
    ["import-dimacs", "{tmp}/arc-endpoint-0.max"],
    ["import-dimacs", "{tmp}/arc-loop.max"],
    ["import-dimacs", "{tmp}/arc-count-7.max"],
    ["import-dimacs", "{tmp}/arc-count-x.max"],
    ["import-dimacs", "{tmp}/arc-count-minus-1.max"],
    ["import-dimacs", "{tmp}/nodes-0.max"],
    ["import-dimacs", "{tmp}/unknown-tag.max"],
    ["import-dimacs", "{tmp}/nodes-10-to-the-12.max"],
    ["solve", "{tmp}/nodes-10-to-the-12.txt"],
], ids=["missing-instance", "missing-dimacs", "base-case-1", "trace-in-missing-dir",
        "bench-unknown-kind", "bench-non-integer-size", "bench-grid-size-0",
        "gen-grid-n-1", "check-grid-n-1", "gen-tri-n-minus-5", "gen-tri-n-2",
        "check-tri-n-2", "bench-tri-sizes-0-minus-5", "gen-negative-cap-max",
        "check-negative-cap-max", "bench-negative-cap-max", "check-count-minus-1",
        "check-count-0", "bench-repeats-0", "bench-repeats-minus-2",
        "gen-s-frac-1.5", "gen-s-frac-minus-0.5", "gen-t-frac-nan", "gen-s-frac-inf",
        "bench-s-frac-1.5",
        "solve-not-utf8", "import-dimacs-not-utf8", "import-dimacs-arc-endpoint-9",
        "import-dimacs-arc-endpoint-0", "import-dimacs-arc-loop",
        "import-dimacs-arc-count-7", "import-dimacs-arc-count-x",
        "import-dimacs-arc-count-minus-1", "import-dimacs-nodes-0",
        "import-dimacs-unknown-tag", "import-dimacs-nodes-10-to-the-12",
        "solve-nodes-10-to-the-12"])
def test_bad_outside_input_exits_2_with_one_line(tmp_path, capsys, argv):
    (tmp_path / "not-utf8.bin").write_bytes(b"\xff")
    head = "n 1 s\nn 2 t\na 1 2 3\n"
    bad_dimacs = {  # file -> (text, the error it must get, at the line that holds it)
        "arc-endpoint-9.max": ("p max 4 1\nn 1 s\nn 4 t\na 3 9 5\n",
                               "line 4: arc endpoint outside the problem line's nodes"),
        "arc-endpoint-0.max": ("p max 4 1\nn 1 s\nn 4 t\na 0 2 5\n",
                               "line 4: arc endpoint outside the problem line's nodes"),
        "arc-loop.max": ("p max 4 1\nn 1 s\nn 4 t\na 3 3 5\n",
                         "line 4: arc joins node 3 to itself"),
        "arc-count-7.max": ("p max 2 7\n" + head,
                            "line 1: problem line promises 7 arcs, found 1"),
        "arc-count-x.max": ("p max 2 x\n" + head, "line 1: expected an integer, got 'x'"),
        "arc-count-minus-1.max": ("p max 2 -1\n" + head,
                                  "line 1: need at least 1 node and at least 0 arcs"),
        "nodes-0.max": ("p max 0 1\n" + head,
                        "line 1: need at least 1 node and at least 0 arcs"),
        "unknown-tag.max": ("p max 2 1\nx foo\n" + head, "line 2: unknown line tag 'x'"),
        "nodes-10-to-the-12.max": (
            "p max 1000000000000 1\n" + head,
            "line 1: 1000000000000 nodes but only 1 arcs: too few for a grid on them"),
    }
    for name, (text, _) in bad_dimacs.items():
        (tmp_path / name).write_text(text)
    inst = tmp_path / "inst.txt"
    inst.write_text(generate("tri", 20, 1).text())
    bad_instances = {  # file -> (text, the error it must get)
        "nodes-10-to-the-12.txt": (  # a 9-node grid promising 10**12 nodes
            generate("grid", 9, 1).text().replace("p pmf 9 ", "p pmf 1000000000000 "),
            "line 1: missing rotation lines for 999999999991 nodes: "
            "[10, 11, 12, 13, 14] and more"),
    }
    for name, (text, _) in bad_instances.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(tmp=tmp_path, inst=inst) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    name = argv[-1].rsplit("/", 1)[-1]
    if name in bad_dimacs:
        assert err == f"import error: {bad_dimacs[name][1]}\n"
    elif name in bad_instances:
        assert err == f"parse error: {bad_instances[name][1]}\n"
    else:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


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


def test_readme_synopsis_lists_every_option():
    """Each command's line in the README's CLI block names every option
    string its subparser defines, help aside."""
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    synopsis = {}
    for line in block.splitlines():
        words = re.split(r"[\s\[\]|]+", line.strip())
        if words[0] == "planarflow":
            synopsis[words[1]] = {w for w in words if w.startswith("-")}
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert synopsis.keys() == commands.choices.keys()
    for name, sub in commands.choices.items():
        options = {o for a in sub._actions if a.dest != "help" for o in a.option_strings}
        assert not options - synopsis[name], (name, sorted(options - synopsis[name]))
