"""Checks of a solver's answer that share no code with planarflow.

The engine's flow checks (``planarflow.flow``) and the oracle both rest on
the package's own Dinic, so a bug that is wrong the same way in both would
pass them.  This module only reads the raw input arcs and the per-arc flow
the engine returns, in O(n + m).
"""

from __future__ import annotations


def check_flow(num_nodes, arcs, sources, sinks, arc_flows, value):
    """Return None if ``arc_flows`` is a maximum flow of the stated value,
    else a one-line reason.

    ``arcs`` are (tail, head, capacity) triples; ``arc_flows[i]`` is the
    flow on arc i.  Checked: capacity bounds, conservation at every node
    that is not a terminal, ``value`` equal to the sinks' net inflow, and
    maximality, as no residual path from a source to a sink.
    """
    if len(arc_flows) != len(arcs):
        return f"{len(arc_flows)} arc flows for {len(arcs)} arcs"
    net = [0] * num_nodes     # inflow minus outflow
    for i, ((t, h, cap), f) in enumerate(zip(arcs, arc_flows)):
        if not 0 <= f <= cap:
            return f"arc {i}: flow {f} outside [0, {cap}]"
        net[h] += f
        net[t] -= f
    terminals = set(sources) | set(sinks)
    for v in range(num_nodes):
        if net[v] and v not in terminals:
            return f"node {v}: net inflow {net[v]} at a non-terminal"
    inflow = sum(net[t] for t in sinks)
    if inflow != value:
        return f"reported value {value} but the sinks take in {inflow}"

    residual = [[] for _ in range(num_nodes)]
    for (t, h, cap), f in zip(arcs, arc_flows):
        if f < cap:
            residual[t].append(h)
        if f > 0:
            residual[h].append(t)
    seen = bytearray(num_nodes)
    stack = list(sources)
    for s in stack:
        seen[s] = 1
    while stack:
        for w in residual[stack.pop()]:
            if not seen[w]:
                seen[w] = 1
                stack.append(w)
    reached = [t for t in sinks if seen[t]]
    if reached:
        return f"not maximum: residual path from a source to sink {reached[0]}"
    return None
