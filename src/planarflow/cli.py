"""Command-line interface: gen, solve, check, bench, import-dimacs."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .bench import check_one, report, run_one
from .config import AUDIT_LEVELS, EngineConfig
from .engine import MsmsEngine
from .errors import AuditFailure, ConfigError, InvariantFailure, PlanarFlowError
from .generate import MIN_NODES, generate
from .graph import build_graph
from .instance import (
    import_dimacs_max,
    parse_instance_file,
    serialize_instance,
)

EXIT_PARSE = 2
EXIT_AUDIT = 3
EXIT_MISMATCH = 4


def _read_text(path) -> str:
    """An input file's text; one that is not UTF-8 is bad input."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _engine_config(args) -> EngineConfig:
    return EngineConfig(audit=args.audit, base_case=args.base_case)


def _check_gen_args(kind, n, cap_max, s_frac=0.0, t_frac=0.0):
    """Reject a kind, node count, capacity bound or terminal fraction
    that generate() cannot build from."""
    if kind not in MIN_NODES:
        raise ConfigError(f"unknown instance kind {kind!r}; "
                          f"expected {' or '.join(MIN_NODES)}")
    if n < MIN_NODES[kind]:
        raise ConfigError(f"a {kind} needs at least {MIN_NODES[kind]} nodes, got {n}")
    if cap_max < 0:
        raise ConfigError(f"--cap-max must be non-negative, got {cap_max}")
    for flag, frac in (("--s-frac", s_frac), ("--t-frac", t_frac)):
        if not 0 <= frac <= 1:      # also false for nan
            raise ConfigError(f"{flag} must be a fraction in [0, 1], got {frac}")


def _check_runs(flag, count):
    if count < 1:
        raise ConfigError(f"{flag} must be at least 1, got {count}")


def _failure_kind(e) -> str:
    return "audit failure" if isinstance(e, AuditFailure) else "invariant failure"


def _trace_writer(path):
    if not path:
        return None, None
    fh = open(path, "w")
    return (lambda record: fh.write(json.dumps(record) + "\n")), fh


def cmd_gen(args) -> int:
    _check_gen_args(args.kind, args.n, args.cap_max, args.s_frac, args.t_frac)
    inst = generate(args.kind, args.n, args.seed, cap_max=args.cap_max,
                    s_frac=args.s_frac, t_frac=args.t_frac)
    text = inst.text()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_solve(args) -> int:
    cfg = _engine_config(args)
    text = _read_text(args.file)
    try:
        inst = parse_instance_file(text)
        del text        # the build reads only the parsed file
        if args.per_component:
            problems = _build_components(inst)
        else:
            g, ts = inst.build()
            problems = [(g, ts.sources, ts.sinks, range(g.n))]
        del inst        # the solves read only the graphs, terminals and node maps
    except PlanarFlowError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    trace, fh = _trace_writer(args.trace)
    try:
        results = [MsmsEngine(g, sources, sinks, cfg, trace=trace).run()
                   for g, sources, sinks, _ in problems]
    finally:
        if fh:
            fh.close()
    print(f"value {sum(res.value for res in results)}")
    if args.dump_flow:
        for (g, _, _, nodes), res in zip(problems, results):
            for a, f in enumerate(res.arc_flows):
                if f:
                    print(f"f {nodes[g.tails[a]] + 1} {nodes[g.heads[a]] + 1} {f}")
    return 0


def _build_components(inst):
    """Validate every connected component as an instance of its own;
    return (graph, sources, sinks, nodes) for those with both terminal
    kinds, where nodes maps the graph's node ids back to the instance's.

    Components join the nodes linked by an arc or by a rotation entry, so
    a rotation that names a node outside its arcs' component is rejected
    by build_graph like any other mismatch.
    """
    inst.terminal_sets()
    n = inst.num_nodes
    nbrs = [[] for _ in range(n)]
    links = [(t, h) for t, h, _ in inst.arcs]
    links += [(v, u) for v, r in enumerate(inst.rotations) for u in r]
    for u, v in links:
        nbrs[u].append(v)
        nbrs[v].append(u)
    comp = [-1] * n
    members = []
    for start in range(n):
        if comp[start] >= 0:
            continue
        c = len(members)
        comp[start] = c
        nodes = [start]
        for v in nodes:
            for w in nbrs[v]:
                if comp[w] < 0:
                    comp[w] = c
                    nodes.append(w)
        members.append(sorted(nodes))
    out = []
    for c, nodes in enumerate(members):
        local = {v: i for i, v in enumerate(nodes)}
        arcs = [(local[t], local[h], cap) for t, h, cap in inst.arcs if comp[t] == c]
        rotations = [[local[u] for u in inst.rotations[v]] for v in nodes]
        sub = build_graph(len(nodes), arcs, rotations, [v + 1 for v in nodes])
        sources = {local[v] for v in inst.sources if comp[v] == c}
        sinks = {local[v] for v in inst.sinks if comp[v] == c}
        if sources and sinks:
            out.append((sub, sources, sinks, nodes))
    return out


def cmd_check(args) -> int:
    _check_gen_args(args.kind, args.n, args.cap_max)
    _check_runs("--count", args.count)
    cfg = _engine_config(args)
    if cfg.audit == "none":
        cfg = replace(cfg, audit="full")
    failures = 0
    audit_failures = 0
    for i in range(args.count):
        seed = args.seed + i
        try:
            rep = check_one(args.kind, args.n, seed, cap_max=args.cap_max, config=cfg)
        except InvariantFailure as e:
            audit_failures += 1
            print(f"FAILED kind={args.kind} n={args.n} seed={seed} "
                  f"{_failure_kind(e)}: {e}")
            continue
        status = "ok" if rep.passed else "FAILED"
        if not rep.passed:
            failures += 1
        print(f"{status} kind={rep.kind} n={rep.n} seed={seed} "
              f"value={rep.value} oracle={rep.oracle_value} "
              f"audits={rep.audits} time={rep.seconds:.3f}s")
    if audit_failures:
        return EXIT_AUDIT
    if failures:
        return EXIT_MISMATCH
    print(f"all {args.count} runs verified")
    return 0


def cmd_bench(args) -> int:
    cfg = _engine_config(args)
    try:
        sizes = [int(x) for x in args.sizes.split(",")]
    except ValueError:
        raise ConfigError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    _check_runs("--repeats", args.repeats)
    kinds = args.kinds.split(",")
    for kind in kinds:
        for n in sizes:
            _check_gen_args(kind, n, args.cap_max, args.s_frac, args.t_frac)
    rows = [run_one(kind, n, args.seed + r, cap_max=args.cap_max, config=cfg,
                    s_frac=args.s_frac, t_frac=args.t_frac)
            for kind in kinds for n in sizes for r in range(args.repeats)]
    sys.stdout.write(report(rows))
    return 0


def cmd_import_dimacs(args) -> int:
    raw = _read_text(args.file)
    try:
        inst = import_dimacs_max(raw)
    except PlanarFlowError as e:
        print(f"import error: {e}", file=sys.stderr)
        return EXIT_PARSE
    text = serialize_instance(inst)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planarflow",
        description="max flow in directed planar graphs with many sources and sinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    engine_options = argparse.ArgumentParser(add_help=False)    # solve, check, bench
    engine_options.add_argument("--audit", choices=AUDIT_LEVELS, default=EngineConfig.audit)
    engine_options.add_argument("--base-case", type=int, default=EngineConfig.base_case,
                                dest="base_case")

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--kind", choices=list(MIN_NODES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap-max", type=int, default=9, dest="cap_max")
    p.add_argument("--s-frac", type=float, default=0.1, dest="s_frac")
    p.add_argument("--t-frac", type=float, default=0.1, dest="t_frac")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("solve", parents=[engine_options], help="solve an instance file")
    p.add_argument("file")
    p.add_argument("--dump-flow", action="store_true", dest="dump_flow")
    p.add_argument("--per-component", action="store_true", dest="per_component")
    p.add_argument("--trace")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("check", parents=[engine_options],
                       help="solve seeded instances and verify against the oracle")
    p.add_argument("--kind", choices=list(MIN_NODES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap-max", type=int, default=10 ** 6, dest="cap_max")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("bench", parents=[engine_options],
                       help="timing rows plus recursion-shape report (CSV)")
    p.add_argument("--kinds", default="grid,tri")
    p.add_argument("--sizes", default="100,200,400,800")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap-max", type=int, default=10 ** 6, dest="cap_max")
    p.add_argument("--s-frac", type=float, default=0.1, dest="s_frac")
    p.add_argument("--t-frac", type=float, default=0.1, dest="t_frac")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("import-dimacs", help="convert a grid-recognizable DIMACS max file")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_import_dimacs)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvariantFailure as e:         # a bug, not bad input
        print(f"{_failure_kind(e)}: {e}", file=sys.stderr)
        return EXIT_AUDIT
    except (OSError, ConfigError) as e:   # files and option values
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
