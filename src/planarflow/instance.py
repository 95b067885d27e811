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

lattice_rotations is the one description of the row-major lattice (each
node's neighbors north, east, south, west); the grid generator and the
DIMACS shim both build their rotations from it.

parse_instance_file runs with the cyclic garbage collector paused, and
so does build_graph (graph.collector_paused): the parse makes only
lists, tuples and ints, which hold no reference cycles, so the
collector's passes over them, about 70 on a 6,400-node triangulation,
would reclaim nothing.  The collector comes back on afterwards, also
when a line is rejected, if it was on.  Other threads of the caller get
no cyclic collection during the parse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from .errors import ParseError, TerminalOverlap
from .graph import TerminalSets, build_graph, collector_paused


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

    def terminal_sets(self) -> TerminalSets:
        """The terminals; an overlap is reported by the file's node ids."""
        overlap = set(self.sources) & set(self.sinks)
        if overlap:
            raise TerminalOverlap(
                f"nodes {sorted(v + 1 for v in overlap)} are both sources and sinks")
        return TerminalSets(frozenset(self.sources), frozenset(self.sinks))

    def build(self):
        """Validate and build the (PlanarGraph, TerminalSets) pair."""
        terminals = self.terminal_sets()
        labels = range(1, self.num_nodes + 1)
        return build_graph(self.num_nodes, self.arcs, self.rotations, labels), terminals


@collector_paused
def parse_instance_file(text: str) -> InstanceFile:
    """Parse the text format; errors carry 1-based line numbers.

    Each line is checked as it is read, so an error names the first bad
    line in file order; the checks that need the whole file (a problem
    line, the arc count, every rotation line) follow, reported at line 1.
    """
    num_nodes = None
    num_arcs = None
    arcs = []
    rotations = {}
    sources = []
    sinks = []
    comments = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "a" and num_nodes is not None:
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
        elif tag == "r" and num_nodes is not None:
            if len(parts) < 2:
                raise ParseError(lineno, "expected 'r <node> <neighbors...>'")
            try:
                ids = [int(x) - 1 for x in parts[1:]]      # 0-based
            except ValueError:
                raise ParseError(lineno, "rotation fields must be integers")
            if min(ids) < 0 or max(ids) >= num_nodes:
                raise ParseError(lineno, f"node id out of range 1..{num_nodes}")
            v = ids[0]
            if v in rotations:
                raise ParseError(lineno, f"duplicate rotation line for node {v + 1}")
            rotations[v] = ids[1:]
        elif tag == "c":
            line = raw.strip()
            comments.append(line[2:] if len(line) > 2 else "")
        elif tag == "p":
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
        elif num_nodes is None:
            raise ParseError(lineno, "data line before problem line")
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
    if len(rotations) != num_nodes:   # its keys are in range and distinct
        absent = num_nodes - len(rotations)
        first = list(islice((v + 1 for v in range(num_nodes) if v not in rotations), 5))
        raise ParseError(1, f"missing rotation lines for {absent} nodes: "
                            f"{first}{' and more' if absent > 5 else ''}")
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
    num_nodes = num_arcs = None
    arcs = []
    line_of_pair = {}
    ends = {}             # "s" and "t" -> node
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "max":
                raise ParseError(lineno, "expected 'p max <nodes> <arcs>'")
            if num_nodes is not None:
                raise ParseError(lineno, "duplicate problem line")
            num_nodes, num_arcs = _int_field(lineno, parts[2]), _int_field(lineno, parts[3])
            if num_nodes < 1 or num_arcs < 0:
                raise ParseError(lineno, "need at least 1 node and at least 0 arcs")
        elif parts[0] == "n":
            if len(parts) != 3:
                raise ParseError(lineno, "expected 'n <node> s|t'")
            node = _int_field(lineno, parts[1]) - 1
            if num_nodes is None or not 0 <= node < num_nodes:
                raise ParseError(lineno, "node descriptor outside the problem line's nodes")
            if parts[2] not in ("s", "t"):
                raise ParseError(lineno, "node descriptor must be s or t")
            if parts[2] in ends:
                raise ParseError(lineno, f"second '{parts[2]}' descriptor; only one "
                                         f"source and one sink are allowed")
            if ends.get("t" if parts[2] == "s" else "s") == node:
                raise ParseError(lineno, f"node {node + 1} is both source and sink")
            ends[parts[2]] = node
        elif parts[0] == "a":
            if len(parts) != 4:
                raise ParseError(lineno, "expected 'a <tail> <head> <capacity>'")
            t, h, c = (_int_field(lineno, x) for x in parts[1:])
            if c < 0:
                raise ParseError(lineno, "capacity must be non-negative")
            if num_nodes is None or not (0 < t <= num_nodes and 0 < h <= num_nodes):
                raise ParseError(lineno, "arc endpoint outside the problem line's nodes")
            if t == h:
                raise ParseError(lineno, f"arc joins node {t} to itself")
            pair = (min(t, h) - 1, max(t, h) - 1)
            if pair in line_of_pair:
                raise ParseError(lineno, f"nodes {t} and {h} already joined on line "
                                         f"{line_of_pair[pair]}")
            line_of_pair[pair] = lineno
            arcs.append((t - 1, h - 1, c))
        else:
            raise ParseError(lineno, f"unknown line tag {parts[0]!r}")
    if num_nodes is None or len(ends) < 2:
        raise ParseError(1, "missing problem line or terminal descriptors")
    if len(arcs) != num_arcs:
        raise ParseError(1, f"problem line promises {num_arcs} arcs, found {len(arcs)}")

    if num_nodes > num_arcs + 1:   # a connected grid has >= num_nodes - 1 arcs
        raise ParseError(1, f"{num_nodes} nodes but only {num_arcs} arcs: "
                            "too few for a grid on them")
    # the width is node 0's larger neighbour in a grid of two rows or more,
    # else the grid is one row
    nbrs0 = [h for (t, h) in line_of_pair if t == 0]
    cols = max(nbrs0) if len(nbrs0) == 2 else num_nodes
    rotations = lattice_rotations(num_nodes, cols)
    expected = {(v, w) for v, nbrs in enumerate(rotations) for w in nbrs if v < w}
    if num_nodes % cols or line_of_pair.keys() != expected:
        raise ParseError(1, "arc set is not grid-recognizable; cannot synthesize an embedding")
    return InstanceFile(
        num_nodes=num_nodes,
        arcs=arcs,
        rotations=rotations,
        sources=[ends["s"]],
        sinks=[ends["t"]],
        comments=["imported from DIMACS max"],
    )


def lattice_rotations(n, cols):
    """Rotations of the lattice on nodes 0..n-1 numbered row-major, cols
    to a row, the last row possibly shorter: each node's neighbors
    clockwise as north, east, south, west, those that exist."""
    rotations = []
    for v in range(n):
        j = v % cols
        nbrs = [v - cols] if v >= cols else []
        if j + 1 < cols and v + 1 < n:
            nbrs.append(v + 1)
        if v + cols < n:
            nbrs.append(v + cols)
        if j:
            nbrs.append(v - 1)
        rotations.append(nbrs)
    return rotations


def _int_field(lineno, text):
    try:
        return int(text)
    except ValueError:
        raise ParseError(lineno, f"expected an integer, got {text!r}") from None
