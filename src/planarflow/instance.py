"""Instance file format: parsing, validation, canonical serialization.

Line-oriented plain text with 1-indexed nodes:

    c  <comment>
    p  pmf <nodes> <arcs>
    a  <tail> <head> <capacity>
    r  <node> <neighbor> <neighbor> ...   (clockwise, one line per node)
    s  <source>
    t  <sink>

Rotation lines may list neighbor ids because the graph is simple.  The
canonical form orders arcs, rotations, and terminals deterministically
and drops comments, so serialize(parse(x)) is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError
from .graph import TerminalSets, build_graph


@dataclass
class InstanceFile:
    """Structured form of one instance file."""

    num_nodes: int
    arcs: list          # (tail, head, cap), 0-based
    rotations: list     # per node, neighbor ids clockwise, 0-based
    sources: list
    sinks: list
    comments: list = field(default_factory=list)

    def text(self) -> str:
        lines = [f"c {c}" for c in self.comments]
        lines.append(f"p pmf {self.num_nodes} {len(self.arcs)}")
        for t, h, c in self.arcs:
            lines.append(f"a {t + 1} {h + 1} {c}")
        for v, nbrs in enumerate(self.rotations):
            lines.append("r " + " ".join(str(x + 1) for x in [v] + list(nbrs)))
        for s in self.sources:
            lines.append(f"s {s + 1}")
        for t in self.sinks:
            lines.append(f"t {t + 1}")
        return "\n".join(lines) + "\n"

    def build(self):
        """Validate and build the (PlanarGraph, TerminalSets) pair."""
        terminals = TerminalSets(frozenset(self.sources), frozenset(self.sinks))
        return build_graph(self.num_nodes, self.arcs, self.rotations), terminals


def parse_instance_file(text: str) -> InstanceFile:
    """Parse the text format; errors carry 1-based line numbers."""
    num_nodes = None
    num_arcs = None
    arcs = []
    rotations = {}
    sources = []
    sinks = []
    comments = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "c":
            comments.append(line[2:] if len(line) > 2 else "")
            continue
        if tag == "p":
            if num_nodes is not None:
                raise ParseError(lineno, "duplicate problem line")
            if len(parts) != 4 or parts[1] != "pmf":
                raise ParseError(lineno, "expected 'p pmf <nodes> <arcs>'")
            try:
                num_nodes, num_arcs = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(lineno, "node and arc counts must be integers")
            if num_nodes < 1 or num_arcs < 0:
                raise ParseError(lineno, "counts out of range")
            continue
        if num_nodes is None:
            raise ParseError(lineno, "data line before problem line")
        if tag == "a":
            if len(parts) != 4:
                raise ParseError(lineno, "expected 'a <tail> <head> <capacity>'")
            try:
                t, h, c = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(lineno, "arc fields must be integers")
            if not (1 <= t <= num_nodes and 1 <= h <= num_nodes):
                raise ParseError(lineno, f"arc endpoint out of range 1..{num_nodes}")
            if c < 0:
                raise ParseError(lineno, "capacity must be non-negative")
            arcs.append((t - 1, h - 1, c))
        elif tag == "r":
            if len(parts) < 2:
                raise ParseError(lineno, "expected 'r <node> <neighbors...>'")
            try:
                ids = [int(x) for x in parts[1:]]
            except ValueError:
                raise ParseError(lineno, "rotation fields must be integers")
            if not all(1 <= x <= num_nodes for x in ids):
                raise ParseError(lineno, f"node id out of range 1..{num_nodes}")
            v = ids[0] - 1
            if v in rotations:
                raise ParseError(lineno, f"duplicate rotation line for node {v + 1}")
            rotations[v] = [x - 1 for x in ids[1:]]
        elif tag in ("s", "t"):
            if len(parts) != 2:
                raise ParseError(lineno, f"expected '{tag} <node>'")
            try:
                node = int(parts[1])
            except ValueError:
                raise ParseError(lineno, "terminal must be an integer node id")
            if not (1 <= node <= num_nodes):
                raise ParseError(lineno, f"terminal out of range 1..{num_nodes}")
            (sources if tag == "s" else sinks).append(node - 1)
        else:
            raise ParseError(lineno, f"unknown line tag {tag!r}")

    if num_nodes is None:
        raise ParseError(1, "missing problem line")
    if len(arcs) != num_arcs:
        raise ParseError(1, f"problem line promises {num_arcs} arcs, found {len(arcs)}")
    if set(rotations) != set(range(num_nodes)):
        missing = sorted(set(range(num_nodes)) - set(rotations))
        raise ParseError(1, f"missing rotation lines for nodes {[v + 1 for v in missing]}")
    return InstanceFile(
        num_nodes=num_nodes,
        arcs=arcs,
        rotations=[rotations[v] for v in range(num_nodes)],
        sources=sorted(set(sources)),
        sinks=sorted(set(sinks)),
        comments=comments,
    )


def parse_instance(text: str):
    """Parse and validate, returning (PlanarGraph, TerminalSets)."""
    return parse_instance_file(text).build()


def serialize_instance(inst: InstanceFile) -> str:
    """Canonical text: comments dropped, terminals sorted."""
    return InstanceFile(
        num_nodes=inst.num_nodes,
        arcs=list(inst.arcs),
        rotations=[list(r) for r in inst.rotations],
        sources=sorted(set(inst.sources)),
        sinks=sorted(set(inst.sinks)),
        comments=[],
    ).text()


def import_dimacs_max(text: str) -> InstanceFile:
    """Shim for single-source single-sink DIMACS .max files.

    An embedding is synthesized only when the arc set is recognizable as
    a rows-by-cols grid over nodes numbered row-major; anything else is
    rejected, since the format carries no embedding.
    """
    num_nodes = None
    arcs = []
    source = None
    sink = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "max":
                raise ParseError(lineno, "expected 'p max <nodes> <arcs>'")
            num_nodes = _int_field(lineno, parts[2])
        elif parts[0] == "n":
            if len(parts) != 3:
                raise ParseError(lineno, "expected 'n <node> s|t'")
            node = _int_field(lineno, parts[1]) - 1
            if num_nodes is None or not 0 <= node < num_nodes:
                raise ParseError(lineno, "node descriptor outside the problem line's nodes")
            if parts[2] == "s":
                source = node
            elif parts[2] == "t":
                sink = node
            else:
                raise ParseError(lineno, "node descriptor must be s or t")
        elif parts[0] == "a":
            if len(parts) != 4:
                raise ParseError(lineno, "expected 'a <tail> <head> <capacity>'")
            t, h, c = (_int_field(lineno, x) for x in parts[1:])
            arcs.append((t - 1, h - 1, c))
    if num_nodes is None or source is None or sink is None:
        raise ParseError(1, "missing problem line or terminal descriptors")

    pairs = {(min(t, h), max(t, h)) for t, h, _ in arcs}
    for rows in range(1, num_nodes + 1):
        if num_nodes % rows:
            continue
        cols = num_nodes // rows
        expected = set()
        for i in range(rows):
            for j in range(cols):
                v = i * cols + j
                if j + 1 < cols:
                    expected.add((v, v + 1))
                if i + 1 < rows:
                    expected.add((v, v + cols))
        if pairs == expected:
            rotations = []
            for v in range(num_nodes):
                i, j = divmod(v, cols)
                order = []
                for (di, dj) in ((-1, 0), (0, 1), (1, 0), (0, -1)):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < rows and 0 <= jj < cols:
                        order.append(ii * cols + jj)
                rotations.append(order)
            return InstanceFile(
                num_nodes=num_nodes,
                arcs=arcs,
                rotations=rotations,
                sources=[source],
                sinks=[sink],
                comments=["imported from DIMACS max"],
            )
    raise ParseError(1, "arc set is not grid-recognizable; cannot synthesize an embedding")


def _int_field(lineno, text):
    try:
        return int(text)
    except ValueError:
        raise ParseError(lineno, f"expected an integer, got {text!r}") from None
