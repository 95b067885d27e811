"""Spans around the calls the engine makes into each planarflow layer.

Wrappers are installed where the engine looks names up at run time: the
globals of ``planarflow.engine``, the entries of the solver registries
(the engine binds these when it is constructed) and two methods,
``PlanarGraph.check_embedding`` and ``FlowStore.apply``.  A name that does
not exist at the commit under test is skipped and its metrics are
reported as absent, so refactors that delete a name need no edit here.

``PlanarGraph.faces`` and ``face_of_dart`` are deliberately not wrapped:
they are cached, called ~10^5 times per solve, and a wrapper would mostly
measure itself.

Spans live in memory as parallel arrays; every per-layer number is derived
from them (plus counters recorded in the same wrappers) after the run.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from dataclasses import replace
from math import sqrt
from time import perf_counter

# (layer metric, name looked up in planarflow.engine)
ENGINE_SITES = (
    ("surgery.triangulate", "triangulate_and_biconnect"),
    ("surgery.detach", "detach_terminal_from_cycle"),
    ("surgery.attach_apex", "attach_apex"),
    ("separator.find", "find_cycle_separator"),
    ("separator.split", "split_into_pieces"),
    ("solvers.leaf", "solve_msms_residual"),
    ("solvers.msss", "msss_max_flow"),
    ("solvers.ssms", "ssms_max_flow"),
    ("solvers.limited", "limited_max_flow"),
    ("solvers.graph_arcs", "graph_arcs"),
    ("flow.reachable", "residual_reachable"),
    ("flow.reachable", "residual_reaching"),
    ("flow.is_feasible", "is_feasible"),
    ("flow.decompose", "decompose_acyclic"),
    ("flow.inflow", "inflow"),
    ("flow.inflow", "inflow_all"),
)

# (layer metric, registry name in planarflow.engine); entries are rebound
REGISTRY_SITES = (
    ("solvers.msss", "MSSS_BACKENDS"),
    ("solvers.limited", "LIMITED_BACKENDS"),
)

# (layer metric, planarflow module, class, method)
METHOD_SITES = (
    ("graph.check_embedding", "graph", "PlanarGraph", "check_embedding"),
    ("flow.apply", "flow", "FlowStore", "apply"),
)

# Spans the benchmark opens itself around its calls into the package.
HARNESS_SPANS = ("instance.parse", "instance.build", "engine.init",
                 "engine.run", "solvers.oracle")


def _count_chords(c, args, result):
    c.add("surgery.triangulate.chords", result.m - args[0].m)


def _count_separator(c, args, result):
    c.add("separator.k_sum", result.k)
    c.maximum("separator.k_over_sqrt_n_max", result.k / sqrt(args[0].n))


def _count_arcs(metric):
    def hook(c, args, result):
        c.add(metric, len(args[1]))
    return hook


def _count_limited(c, args, result):
    c.add("solvers.limited.arcs", len(args[1]))
    c.add("solvers.limited.useful", 1 if result[0] > 0 else 0)


# Counters recorded at the same boundaries as the spans.  A hook that no
# longer fits the wrapped function's signature marks its counters absent.
HOOKS = {
    "surgery.triangulate": (_count_chords, ("surgery.triangulate.chords",)),
    "separator.find": (_count_separator,
                       ("separator.k_sum", "separator.k_over_sqrt_n_max")),
    "solvers.limited": (_count_limited,
                        ("solvers.limited.arcs", "solvers.limited.useful")),
    "solvers.msss": (_count_arcs("solvers.msss.arcs"), ("solvers.msss.arcs",)),
    "solvers.ssms": (_count_arcs("solvers.ssms.arcs"), ("solvers.ssms.arcs",)),
    "solvers.leaf": (_count_arcs("solvers.leaf.arcs"), ("solvers.leaf.arcs",)),
}


class Counters:
    """Named counters; a counter whose hook failed is marked broken."""

    def __init__(self):
        self.values = {}
        self.broken = set()

    def add(self, name, amount):
        self.values[name] = self.values.get(name, 0) + amount

    def maximum(self, name, value):
        self.values[name] = max(self.values.get(name, value), value)


class Tracer:
    """In-memory span recorder.

    Span i has a name id, start and end (perf_counter seconds), the index
    of its parent span (-1 for a root) and the id of the instance being
    solved.  Spans are appended on entry, so index order is start order.
    """

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.instances = array("l")
        self.instance = -1
        self._stack = [-1]
        self.counters = Counters()
        self.installed = set()   # layer metrics with at least one live wrapper

    def _open(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.instances.append(self.instance)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        hook, counter_names = HOOKS.get(name, (None, ()))
        counters = self.counters

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None and not counters.broken.issuperset(counter_names):
                try:
                    hook(counters, args, result)
                except (AttributeError, IndexError, TypeError, ZeroDivisionError):
                    counters.broken.update(counter_names)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed_in(self, modules):
        """Install every wrapper for the duration of the block.

        ``modules`` maps "engine", "graph" and "flow" to the planarflow
        modules of those names.
        """
        engine_module = modules["engine"]
        undo = []
        try:
            for name, attr in ENGINE_SITES:
                fn = getattr(engine_module, attr, None)
                if callable(fn):
                    undo.append((setattr, engine_module, attr, fn))
                    setattr(engine_module, attr, self.wrap(name, fn))
                    self.installed.add(name)
            for name, attr in REGISTRY_SITES:
                registry = getattr(engine_module, attr, None)
                if not isinstance(registry, dict):
                    continue
                for key, entry in list(registry.items()):
                    if callable(getattr(entry, "fn", None)):
                        wrapped = replace(entry, fn=self.wrap(name, entry.fn))
                    elif callable(entry):
                        wrapped = self.wrap(name, entry)
                    else:
                        continue
                    undo.append((registry.__setitem__, key, entry))
                    registry[key] = wrapped
                    self.installed.add(name)
            for name, module, cls_name, method in METHOD_SITES:
                cls = getattr(modules[module], cls_name, None)
                fn = getattr(cls, method, None)
                if callable(fn):
                    undo.append((setattr, cls, method, fn))
                    setattr(cls, method, self.wrap(name, fn))
                    self.installed.add(name)
            yield
        finally:
            for action in reversed(undo):
                action[0](*action[1:])

    # -- derived numbers ------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus its children's durations."""
        return self_times(self.starts, self.ends, self.parents)

    def totals(self):
        """name -> (calls, self seconds) over all recorded spans."""
        out = {name: [0, 0.0] for name in self.names}
        for nid, s in zip(self.name_ids, self.self_times()):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += s
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path):
        """One JSON array per span: name, start, end, parent, instance."""
        with open(path, "w") as fh:
            for i in range(len(self.starts)):
                fh.write(json.dumps([self.names[self.name_ids[i]], self.starts[i],
                                     self.ends[i], self.parents[i],
                                     self.instances[i]]) + "\n")


def self_times(starts, ends, parents):
    """Self time of every span: its duration minus its direct children's.

    Spans come from one stack, so children lie inside their parent and
    never overlap one another.
    """
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out
