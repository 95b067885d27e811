"""Shared test helpers: randomized residual-path experiments and oracle values.

The two residual-path push properties are tested by construction: pick the protected set
so the preconditions hold by definition of residual reachability, push a
random flow with the stated terminal role, and check the protected set
is still unreachable.
"""

import random
from collections import deque
from types import SimpleNamespace

import pytest

from planarflow import oracle, separator, surgery
from planarflow.flow import FlowStore, decompose_acyclic
from planarflow.errors import EmbeddingInvalid, NonPlanarEmbedding, ParallelArcOrLoop
from planarflow.graph import NO_KEY, PlanarGraph, dart_heads, walk_faces
from planarflow.oracle import oracle_max_flow
from planarflow.solvers import graph_arcs, terminal_set_flow


def random_digraph(rng, n, density=0.5, cap_max=9):
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                arcs.append((u, v, rng.randint(0, cap_max)))
    return arcs


def edmonds_karp(n, arcs, sources, sinks):
    """Max-flow value from a source set to a disjoint sink set by BFS
    augmenting paths (Edmonds-Karp) on a residual capacity matrix with a
    supersource n and a supersink n + 1; shares no code with the solvers."""
    size = n + 2
    cap = [[0] * size for _ in range(size)]
    for (u, v, c) in arcs:
        cap[u][v] += c
    inf = 1 + sum(c for (_, _, c) in arcs)
    for s in sources:
        cap[n][s] = inf
    for t in sinks:
        cap[t][n + 1] = inf
    value = 0
    while True:
        parent = [-1] * size
        parent[n] = n
        queue = deque([n])
        while queue and parent[n + 1] < 0:
            u = queue.popleft()
            for v in range(size):
                if parent[v] < 0 and cap[u][v] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[n + 1] < 0:
            return value
        path, v = [], n + 1
        while v != n:
            path.append((parent[v], v))
            v = parent[v]
        push = min(cap[u][v] for (u, v) in path)
        for (u, v) in path:
            cap[u][v] -= push
            cap[v][u] += push
        value += push


def oracle_value_for_graph(g, sources, sinks):
    arcs = [(g.tails[a], g.heads[a], g.caps[a]) for a in range(g.m)]
    return oracle_max_flow(g.n, arcs, sources, sinks).value


def set_flows(store, flows):
    """Give every key k of the store the flow flows[k], writing both
    residuals of its pair: cap - flow and the flow."""
    flows = list(flows)
    store.res[0::2] = [c - f for c, f in zip(store.caps, flows, strict=True)]
    store.res[1::2] = flows


def flow_deltas(before, store):
    """The (key, change) pairs of the keys whose flow moved since the
    flows before, in key order."""
    return [(k, f - b) for k, (b, f) in enumerate(zip(before, store.vals)) if f != b]


def net_heads(net, store):
    """The heads the net wrote into the store, per net arc in order: the
    forward dart's, then the reverse dart's."""
    head = store.head
    return [head[d] for k in net.keys for d in (2 * k, 2 * k + 1)]


def keyed(store, arcs):
    return [(t, h, c, store.new_key(c)) for (t, h, c) in arcs]


def residual_net(n, keyed_arcs, store):
    """The residual net of (tail, head, cap, key) arcs under the store."""
    return graph_arcs(SimpleNamespace(n=n, tails=[t for (t, _, _, _) in keyed_arcs],
                                      heads=[h for (_, h, _, _) in keyed_arcs],
                                      keys=[key for (_, _, _, key) in keyed_arcs]),
                      store)


def apex_arcs(store, apex, boundary, inf):
    """The paper's apex, kept as a reference for the boundary-set pushes:
    node apex joined to each boundary node b by keyed arcs b -> apex and
    apex -> b of capacity inf, as (tail, head, cap, key) tuples, in
    increasing boundary node order."""
    return [(t, h, inf, store.new_key(inf))
            for b in sorted(boundary) for (t, h) in ((b, apex), (apex, b))]


def dinic_push(store, net, sources, sinks):
    """A terminal-set flow through the oracle's blocking-flow core,
    oracle._dinic, on the store's residual pairs over the net, the last
    one built on it: writes the store like a subroutine and returns
    (value, deltas), the flow changes by key (flow_deltas)."""
    before = store.vals
    value, _ = oracle._dinic(net.adj, store.head, store.res, sorted(sources),
                             sorted(sinks))
    return value, flow_deltas(before, store)


def check_pushes_against_apex(n, arcs, flows, sources, sinks, boundary):
    """The source push into the boundary set, then the sink push out of
    it, on one net of arcs (tail, head, cap) carrying flows, against the
    same pushes through the apex reference.  Each store below has a net
    of its own.

    The formulation is checked with every push through the oracle's core
    (dinic_push), whose labels put the apex one level above the set, so
    the two source pushes take the same paths: the set push must return
    the apex push's value and its deltas on the real arcs, and the two
    sink pushes after them the same value.  The engine's own pushes, on
    another copy, must return the apex pushes' values, the sink push's
    from the flow the engine's source push left.  That source push must
    change the flow within the capacities, conserve it off the sources
    and the boundary and leave no residual path from the sources to the
    boundary; the sink push must leave none from the boundary to the
    sinks.  Returns the arcs' flows after the engine's pushes."""
    inf = 1 + sum(c for (_, _, c) in arcs)

    def seeded(start, apex=False):
        """A store and net of the arcs carrying start, with the apex as
        node n if asked."""
        store = FlowStore()
        ka = keyed(store, arcs)
        store.apply([(key, f) for (_, _, _, key), f in zip(ka, start) if f])
        if apex:
            return store, residual_net(n + 1, ka + apex_arcs(store, n, boundary, inf), store)
        return store, residual_net(n, ka, store)

    ref_set, ref_set_net = seeded(flows)
    ref, ref_net = seeded(flows, apex=True)
    real = len(arcs)     # keys of the real arcs; the apex arcs come after
    set_into = dinic_push(ref_set, ref_set_net, sources, boundary)
    ref_into = dinic_push(ref, ref_net, sources, [n])
    assert set_into == (ref_into[0], [(k, d) for k, d in ref_into[1] if k < real])
    assert (dinic_push(ref_set, ref_set_net, boundary, sinks)[0]
            == dinic_push(ref, ref_net, [n], sinks)[0])

    store, net = seeded(flows)
    ka = [(t, h, c, key) for key, (t, h, c) in enumerate(arcs)]   # store's keys
    into = terminal_set_flow(store, net, sources, boundary)
    assert into[0] == ref_into[0]
    vals = store.vals
    assert all(0 <= vals[key] <= c for (_, _, c, key) in ka)
    excess = {}
    for (t, h, _, key), f in zip(ka, flows):
        excess[h] = excess.get(h, 0) + vals[key] - f
        excess[t] = excess.get(t, 0) - vals[key] + f
    ends = set(sources) | set(boundary)
    assert not [v for v, x in excess.items() if x and v not in ends]
    assert not (reach(n, ka, store, sources) & set(boundary))

    ref, ref_net = seeded(store.vals, apex=True)
    out = terminal_set_flow(store, net, boundary, sinks)
    assert out[0] == dinic_push(ref, ref_net, [n], sinks)[0]
    assert not (reach(n, ka, store, boundary) & set(sinks))
    return list(store.vals)


def reach(n, keyed_arcs, store, start):
    """Residual forward reachability over keyed arcs."""
    adj = [[] for _ in range(n)]
    vals = store.vals
    for (t, h, c, key) in keyed_arcs:
        f = vals[key]
        if c - f > 0:
            adj[t].append(h)
        if f > 0:
            adj[h].append(t)
    seen = set(start)
    stack = list(start)
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def scramble_flow(n, arcs_keyed, store, rng, rounds=2):
    """Push a few random feasible flows to create residual texture."""
    for _ in range(rounds):
        nodes = list(range(n))
        rng.shuffle(nodes)
        a = rng.randint(1, max(1, n // 3))
        b = rng.randint(1, max(1, n // 3))
        srcs, snks = set(nodes[:a]), set(nodes[a:a + b])
        if not srcs or not snks:
            continue
        terminal_set_flow(store, residual_net(n, arcs_keyed, store), srcs, snks)


def source_push_trial(rng):
    """One trial of: pushing a flow whose sources cannot reach a protected
    set (and neither can the observers) keeps the set unreachable.

    Returns True if the property held, None if the preconditions could
    not be constructed for this sample.
    """
    n = rng.randint(4, 20)
    arcs = random_digraph(rng, n)
    if not arcs:
        return None
    store = FlowStore()
    ka = keyed(store, arcs)
    scramble_flow(n, ka, store, rng)

    nodes = list(range(n))
    rng.shuffle(nodes)
    x_count = rng.randint(1, max(1, n // 4))
    a_count = rng.randint(1, max(1, n // 4))
    push_sources = set(nodes[:x_count])
    observers = set(nodes[x_count:x_count + a_count])
    blocked = [v for v in range(n)
               if v not in reach(n, ka, store, push_sources | observers)]
    if not blocked:
        return None
    protected = set(rng.sample(blocked, rng.randint(1, len(blocked))))

    sink_pool = [v for v in range(n) if v not in push_sources]
    push_sinks = set(rng.sample(sink_pool, rng.randint(1, max(1, len(sink_pool) // 2))))
    terminal_set_flow(store, residual_net(n, ka, store), push_sources, push_sinks)
    return not (reach(n, ka, store, observers) & protected)


class FuzzPool:
    """Pool of small parsed instances reused across fuzz sequences."""

    def __init__(self, count=64, n_lo=4, n_hi=10, seed=12345):
        from planarflow.generate import generate

        rng = random.Random(seed)
        self.entries = []
        for i in range(count):
            kind = "tri" if i % 2 == 0 else "grid"
            n = rng.randint(n_lo, n_hi)
            inst = generate(kind, n, seed=seed + i, cap_max=9,
                            s_frac=0.3, t_frac=0.3)
            g, ts = inst.build()
            self.entries.append((g, sorted(ts.sources), sorted(ts.sinks)))


def fuzz_sequence(pool, rng, ops_lo=2, ops_hi=4):
    """Run one random public-operation sequence on a pooled instance.

    Every operation draws its terminals from the instance's source and
    sink sets, so the accumulated flow must stay a feasible flow for
    them.  All operations share one residual net.  The pseudoflow bounds
    and every key's residual pair are checked after every operation;
    feasibility at the end.  Returns
    the number of violations (0 for a clean sequence).
    """
    g, sources, sinks = pool.entries[rng.randrange(len(pool.entries))]
    store = FlowStore.for_graph(g)
    net = graph_arcs(g, store)
    caps = store.caps
    violations = 0

    def check_invariants():
        nonlocal violations
        res = store.res
        for key, v in enumerate(store.vals):
            if v < 0 or v > caps[key] or res[2 * key] + v != caps[key]:
                violations += 1

    for _ in range(rng.randint(ops_lo, ops_hi)):
        choice = rng.randrange(4)
        if choice == 0:
            srcs = set(rng.sample(sources, rng.randint(1, len(sources))))
            t = rng.choice(sinks)
            terminal_set_flow(store, net, srcs, {t})
        elif choice == 1:
            s = rng.choice(sources)
            snks = set(rng.sample(sinks, rng.randint(1, len(sinks))))
            terminal_set_flow(store, net, {s}, snks)
        elif choice == 2:
            s = rng.choice(sources)
            t = rng.choice(sinks)
            terminal_set_flow(store, net, [s], [t], rng.randint(0, 12))
        else:
            terminal_set_flow(store, net, set(sources), set(sinks))
        check_invariants()

    from planarflow.flow import is_feasible
    if not is_feasible(g, store, set(sources), set(sinks)):
        violations += 1
    return violations


def sink_push_trial(rng):
    """Mirror trial: pushing a flow whose sinks the observers cannot reach
    keeps every already-unreachable set unreachable."""
    n = rng.randint(4, 20)
    arcs = random_digraph(rng, n)
    if not arcs:
        return None
    store = FlowStore()
    ka = keyed(store, arcs)
    scramble_flow(n, ka, store, rng)

    nodes = list(range(n))
    rng.shuffle(nodes)
    a_count = rng.randint(1, max(1, n // 4))
    observers = set(nodes[:a_count])
    seen = reach(n, ka, store, observers)
    outside = [v for v in range(n) if v not in seen]
    if len(outside) < 2:
        return None
    rng.shuffle(outside)
    x_count = rng.randint(1, len(outside) - 1)
    push_sinks = set(outside[:x_count])
    protected = set(outside[x_count:])

    source_pool = [v for v in range(n) if v not in push_sinks]
    push_sources = set(rng.sample(source_pool,
                                  rng.randint(1, max(1, len(source_pool) // 2))))
    terminal_set_flow(store, residual_net(n, ka, store), push_sources, push_sinks)
    return not (reach(n, ka, store, observers) & protected)


def walk_violations(g, store, sources, sinks, boundary, i):
    """The six reachability predicates of walk step i, each checked by its
    own breadth-first search over g's keyed arcs: forward from a class,
    or backward from the unprocessed nodes for the overfull-to-unprocessed
    one.  Returns the names of the predicates that fail."""
    forward = [[] for _ in range(g.n)]
    backward = [[] for _ in range(g.n)]
    balance = [0] * g.n
    vals = store.vals
    for a in range(g.m):
        key = g.keys[a]
        if key == NO_KEY:
            continue
        t, h = g.tails[a], g.heads[a]
        f, c = vals[key], store.caps[key]
        balance[h] += f
        balance[t] -= f
        for u, w, res in ((t, h, c - f), (h, t, f)):
            if res > 0:
                forward[u].append(w)
                backward[w].append(u)

    def bfs(adj, start):
        seen = set(start)
        queue = deque(seen)
        while queue:
            for w in adj[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    processed, unprocessed = boundary[: i + 1], boundary[i + 1:]
    pos = {p for p in processed if balance[p] > 0}
    neg = {p for p in processed if balance[p] < 0}
    from_sources = bfs(forward, sources)
    failed = {
        "source reaches a sink": from_sources & set(sinks),
        "source reaches a boundary node": from_sources & set(boundary),
        "boundary node reaches a sink": bfs(forward, boundary) & set(sinks),
        "unprocessed node reaches a drained processed node": bfs(forward, unprocessed) & neg,
        "overfull processed node reaches an unprocessed node": bfs(backward, unprocessed) & pos,
        "overfull processed node reaches a drained one": bfs(forward, pos) & neg,
    }
    return sorted(name for name, hit in failed.items() if hit)


def generic_triangulate(tails, heads, caps, keys, rot, stack):
    """The chording loop with no ear path, kept as the reference for
    surgery._triangulate, with which it shares no adjacency test and no
    splice: every walk longer than three takes the first chord from
    surgery._chord_candidates whose ends differ and whose tail's rotation
    does not already reach its head, and both halves go back on the
    stack."""
    def head(d):
        return tails[d >> 1] if d & 1 else heads[d >> 1]

    done = []
    while stack:
        walk = stack.pop()
        if len(walk) <= 3:
            done.append(walk)
            continue
        nodes = [head(d) for d in walk]
        for s, t in surgery._chord_candidates(nodes):
            u, v = nodes[s], nodes[t]
            if u == v or v in [head(d) for d in rot[u]]:
                continue
            du, dv = 2 * len(tails), 2 * len(tails) + 1
            tails.append(u)
            heads.append(v)
            caps.append(0)
            keys.append(NO_KEY)
            for x, after, d in ((u, walk[s] ^ 1, du), (v, walk[t] ^ 1, dv)):
                j = rot[x].index(after) + 1
                rot[x][j:j] = [d]
            # the walk read from corner s on: corner t ends its first k darts
            k = (t - s) % len(walk)
            turned = walk[s + 1:] + walk[:s + 1]
            stack.append([du] + turned[k:])
            stack.append([dv] + turned[:k])
            break
        else:
            raise AssertionError(f"face of length {len(walk)} has no addable chord")
    return done


def triangulated_both_ways(tails, heads, caps, keys, rot, faces):
    """surgery.triangulated on two copies of its inputs: as it is, and
    with generic_triangulate as its chording loop.  Returns both graphs."""
    def copy():
        return (list(tails), list(heads), list(caps), list(keys),
                [list(r) for r in rot], [list(f) for f in faces])

    fast = surgery.triangulated(*copy())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(surgery, "_triangulate", generic_triangulate)
        ref = surgery.triangulated(*copy())
    return fast, ref


def same_embedding(g, h):
    """Identical arc arrays, rotations and face lists."""
    return ((g.tails, g.heads, g.keys, g.rot, g.faces())
            == (h.tails, h.heads, h.keys, h.rot, h.faces()))


def piece_pushes(store, piece, sub_sources, sub_sinks):
    """One piece's two boundary-set pushes on a net of its own, the
    reference for the level push: its sources into its boundary nodes,
    then those into its sinks.  Both write the store; returns their
    values.  The net is built from the piece's arc arrays, which outlive
    its graph."""
    net = graph_arcs(piece, store)
    value_in, _ = terminal_set_flow(store, net, sub_sources, piece.boundary_local)
    value_out, _ = terminal_set_flow(store, net, piece.boundary_local, sub_sinks)
    return value_in, value_out


def reference_find_cycle_separator(g):
    """The separator search as it was before the sides were read off the
    dual tree, kept as the reference for separator.find_cycle_separator:
    a BFS tree of parent nodes and arcs, a score tuple per non-tree arc,
    and the sides found by a second flood (reference_sides)."""
    faces = g.faces()
    face_of = g.dart_faces()
    n, tails, heads = g.n, g.tails, g.heads

    parent, parent_arc, depth = [-1] * n, [-1] * n, [-1] * n
    depth[0] = 0
    queue = [0]
    for v in queue:
        for d in g.rot[v]:
            w = tails[d >> 1] if d & 1 else heads[d >> 1]
            if depth[w] < 0:
                parent[w], parent_arc[w], depth[w] = v, d >> 1, depth[v] + 1
                queue.append(w)
    in_tree = bytearray(g.m)
    for a in parent_arc[1:]:
        in_tree[a] = 1

    order, via = reference_flood(faces, face_of, face_of[g.rot[0][0]], in_tree)
    head_depth = [x for t, h in zip(tails, heads) for x in (depth[h], depth[t])]
    top = [min(head_depth[x], head_depth[y], head_depth[z]) for x, y, z in faces]
    count = [1] * len(faces)
    best = None
    for f in reversed(order):
        d = via[f]
        if d < 0:
            continue
        a = d >> 1
        k = depth[tails[a]] + depth[heads[a]] - 2 * top[f] + 1
        inside = (count[f] - k) // 2 + 1
        score = (max(inside, n - k - inside), k, a)
        if best is None or score < best:
            best, top_depth = score, top[f]
        p = face_of[d]
        count[p] += count[f]
        top[p] = min(top[p], top[f])
    a_star = best[2]

    up_u, up_v = [tails[a_star]], [heads[a_star]]
    for up in (up_u, up_v):
        while depth[up[-1]] > top_depth:
            up.append(parent[up[-1]])
    boundary = up_u + up_v[-2::-1]
    arcs = ([parent_arc[x] for x in up_u[:-1]]
            + [parent_arc[x] for x in up_v[-2::-1]] + [a_star])
    darts = [2 * a + (tails[a] != x) for x, a in zip(boundary, arcs)]
    face_side, inside, outside = reference_sides(g, darts)
    return separator.Separator(boundary, darts, frozenset(inside),
                               frozenset(outside), n, face_side)


def reference_sides(g, cycle_darts):
    """Side (0 or 1) of every face, by a flood from the face of
    cycle_darts[0] ^ 1 that crosses no cycle arc, and the nodes strictly
    on each side."""
    faces = g.faces()
    face_of = g.dart_faces()
    on_cycle = bytearray(g.m)
    for d in cycle_darts:
        on_cycle[d >> 1] = 1
    side = [1] * len(faces)
    for f in reference_flood(faces, face_of, face_of[cycle_darts[0] ^ 1], on_cycle)[0]:
        side[f] = 0
    on_cycle_node = {g.dart_tail(d) for d in cycle_darts}
    inside, outside = set(), set()
    for v, r in enumerate(g.rot):
        if v not in on_cycle_node:
            (outside if side[face_of[r[0]]] else inside).add(v)
    return side, inside, outside


def reference_split_into_pieces(g, sep):
    """The split with a per-dart side filter at every node and one
    comprehension call per face, kept as the reference for
    separator.split_into_pieces."""
    faces = g.faces()
    face_of = g.dart_faces()
    side = sep.face_side
    arc_side = [side[f] for f in face_of[::2]]
    for d in sep.cycle_darts:
        arc_side[d >> 1] = 0
    strict = (sorted(sep.inside), sorted(sep.outside))
    for v in range(sep.n, g.n):
        strict[side[face_of[g.rot[v][0]]]].append(v)
    holes = (sep.cycle_darts, [d ^ 1 for d in reversed(sep.cycle_darts)])

    pieces = []
    for side_id in (0, 1):
        nodes = list(sep.boundary) + strict[side_id]
        local = {p: i for i, p in enumerate(nodes)}
        own = [a for a in range(g.m) if arc_side[a] == side_id]
        stand_ins = [d >> 1 for d in sep.cycle_darts] if side_id else []
        arcs = own + stand_ins
        dart = [-1] * (2 * g.m)
        for i, a in enumerate(arcs):
            dart[2 * a] = 2 * i
            dart[2 * a + 1] = 2 * i + 1
        tails = [local[g.tails[a]] for a in arcs]
        heads = [local[g.heads[a]] for a in arcs]
        caps = [g.caps[a] for a in own] + [0] * len(stand_ins)
        keys = [g.keys[a] for a in own] + [NO_KEY] * len(stand_ins)
        rot = [[dart[d] for d in g.rot[p] if dart[d] >= 0] for p in nodes]
        piece_faces = [[dart[d] for d in walk]
                       for walk, s in zip(faces, side) if s == side_id]
        piece_faces.append([dart[d] for d in holes[side_id]])
        pg = surgery.triangulated(tails, heads, caps, keys, rot, piece_faces)
        pieces.append(separator.Piece(
            [local[p] for p in sep.boundary], nodes, local, pg.tails, pg.heads, pg.keys,
            own, lambda pg=pg: pg))
    return pieces[0], pieces[1]


def reference_flood(faces, face_of, start, blocked):
    """Breadth-first search of the faces from face start, crossing every
    arc a with blocked[a] == 0: the faces reached in search order, and
    per face the dart of its search parent's walk it was entered by."""
    via = [-1] * len(faces)
    seen = bytearray(len(faces))
    seen[start] = 1
    order = [start]
    for f in order:
        for d in faces[f]:
            if not blocked[d >> 1]:
                f2 = face_of[d ^ 1]
                if not seen[f2]:
                    seen[f2] = 1
                    via[f2] = d
                    order.append(f2)
    return order, via


def same_separator(s, t):
    """Equal boundary, cycle darts, strict sides and face sides."""
    return ((s.boundary, s.cycle_darts, s.inside, s.outside, s.face_side)
            == (t.boundary, t.cycle_darts, t.inside, t.outside, t.face_side))


def same_piece(p, q):
    """Equal arc arrays, rotations, faces and maps to the parent."""
    g, h = p.graph, q.graph
    return ((g.tails, g.heads, g.caps, g.keys, g.rot, g.faces(), p.boundary_local,
             p.parent_nodes, p.parent_arcs, p.local_of)
            == (h.tails, h.heads, h.caps, h.keys, h.rot, h.faces(), q.boundary_local,
                q.parent_nodes, q.parent_arcs, q.local_of))


def reference_decompose_acyclic(g, store):
    """decompose_acyclic as it was before it took a dart set, kept as the
    reference: cancel the flow cycles on g; return (circulation, order).

    circulation maps key -> value, has zero inflow everywhere, and is what
    the caller subtracts from the store to leave an acyclic flow; the
    store itself is not changed.  Cycles are canceled by repeated DFS on
    the positive-flow darts, removing the minimum flow around each cycle.

    order lists every node in reverse DFS finishing order.  A node
    finishes only when each of its out-arcs with positive remaining flow
    leads to an already finished node, and later cancellations only lower
    flow; so every positive arc of the stored flow minus the circulation
    runs forward in order, which makes it a topological order of them.
    """
    vals = store.vals
    remaining = {a: vals[key] for a, key in enumerate(g.keys)
                 if key != NO_KEY and vals[key] > 0}
    out_arcs = [[] for _ in range(g.n)]
    for a in remaining:
        out_arcs[g.tails[a]].append(a)

    circulation = {}

    # Iterative DFS over arcs with remaining positive flow; when a node on
    # the current path is revisited we found a flow cycle and cancel it.
    state = bytearray(g.n)  # 0 unvisited, 1 on stack, 2 done
    ptr = [0] * g.n
    finished = []
    for root in range(g.n):
        if state[root] != 0:
            continue
        stack = [root]
        path_arcs = []
        state[root] = 1
        while stack:
            v = stack[-1]
            advanced = False
            while ptr[v] < len(out_arcs[v]):
                a = out_arcs[v][ptr[v]]
                if remaining.get(a, 0) <= 0:
                    ptr[v] += 1
                    continue
                w = g.heads[a]
                if state[w] == 1:
                    # cancel the cycle closing at w
                    cycle = [a]
                    for pa in reversed(path_arcs):
                        cycle.append(pa)
                        if g.tails[pa] == w:
                            break
                    delta = min(remaining[c] for c in cycle)
                    for c in cycle:
                        remaining[c] -= delta
                        circulation[g.keys[c]] = circulation.get(g.keys[c], 0) + delta
                    # unwind the stack to w so exhausted arcs get re-scanned
                    while stack[-1] != w:
                        state[stack.pop()] = 0
                        path_arcs.pop()
                    advanced = True
                    break
                if state[w] == 0:
                    stack.append(w)
                    path_arcs.append(a)
                    state[w] = 1
                    advanced = True
                    break
                ptr[v] += 1
            if not advanced and (not stack or stack[-1] == v):
                state[v] = 2
                finished.append(v)
                ptr[v] = 0
                stack.pop()
                if path_arcs:
                    path_arcs.pop()

    finished.reverse()
    return circulation, finished

def reference_settle_pseudoflow(store, gd, sources, sinks):
    """The settlement as it was before it worked on a level's change,
    kept as the reference: cancel the flow cycles on every keyed arc of
    gd, then drain each non-terminal's excess back and fill its deficit
    forward along the positive arcs, in topological order.  Writes the
    store; raises AssertionError where the engine raises SettlementStuck."""
    circulation, order = reference_decompose_acyclic(gd, store)
    if circulation:
        store.apply([(key, -d) for key, d in sorted(circulation.items())])
    vals = list(store.vals)
    rank = [0] * gd.n
    for i, v in enumerate(order):
        rank[v] = i
    positive = [a for a, key in enumerate(gd.keys) if key != NO_KEY and vals[key] > 0]
    pos_out = [[] for _ in range(gd.n)]
    pos_in = [[] for _ in range(gd.n)]
    balance = [0] * gd.n
    for a in positive:
        t, h = gd.tails[a], gd.heads[a]
        assert rank[t] < rank[h], "positive flow darts still contain a cycle"
        pos_out[t].append(a)
        pos_in[h].append(a)
        x = vals[gd.keys[a]]
        balance[h] += x
        balance[t] -= x
    terminals = set(sources) | set(sinks)
    for nodes, arcs_at, far_ends, sign in (
            (reversed(order), pos_in, gd.tails, 1),
            (order, pos_out, gd.heads, -1)):
        for v in nodes:
            need = sign * balance[v]
            if v in terminals or need <= 0:
                continue
            for a in arcs_at[v]:
                key = gd.keys[a]
                take = min(vals[key], need)
                if take > 0:
                    vals[key] -= take
                    balance[v] -= sign * take
                    balance[far_ends[a]] += sign * take
                    need -= take
                if need == 0:
                    break
            assert not need, f"{need} stranded at node {v}"
    assert all(balance[v] == 0 for v in range(gd.n) if v not in terminals)
    set_flows(store, vals)


def decompose_flow(g, store):
    """decompose_acyclic on the flow of g's keyed arcs, read as its change
    from an all-zero snapshot: each arc's forward dart with its flow.
    Returns (circulation by flow key, order)."""
    vals = store.vals
    amounts = {2 * a: vals[key] for a, key in enumerate(g.keys) if key != NO_KEY}
    circulation, order = decompose_acyclic(dart_heads(g), amounts)
    return {g.keys[d >> 1]: x for d, x in circulation.items()}, order


# -- the given-face check as it stood before walk_faces followed given faces --


def _successors(rot, num_darts):
    succ = [0] * num_darts
    for r in rot:
        for i, d in enumerate(r):
            succ[r[i - 1] ^ 1] = d
    return succ


def are_face_walks(given, rot, num_darts):
    """Whether the given walks are the face walks of the rotation system,
    each once: the walks hold every dart once, and each steps from every
    dart to its successor, the last one back to the first."""
    if sum(map(len, given)) != num_darts:
        return False
    succ = _successors(rot, num_darts)
    seen = bytearray(num_darts)
    try:
        for walk in given:
            prev = walk[-1]
            for d in walk:
                if succ[prev] != d or seen[d]:
                    return False
                seen[d] = 1
                prev = d
    except IndexError:      # an empty walk, or a dart out of range
        return False
    return True


def check_given_faces(given, faces, face_of):
    """Raise unless the given walks are the walked faces, each once, as
    cyclic dart sequences."""
    matched = bytearray(len(faces))
    for i, walk in enumerate(given):
        f = face_of[walk[0]] if walk and 0 <= walk[0] < len(face_of) else None
        if f is None or matched[f]:
            raise EmbeddingInvalid(f"given face {i} {walk} is not a face walk")
        ref = faces[f]
        j = ref.index(walk[0])
        if walk != ref[j:] + ref[:j]:
            raise EmbeddingInvalid(
                f"given face {i} {walk} disagrees with the face walk {ref[j:] + ref[:j]}")
        matched[f] = 1
    if len(given) != len(faces):
        raise EmbeddingInvalid(
            f"{len(given)} faces given but the rotation system has {len(faces)}")


def reference_check_given_faces(tails, heads, rot, given):
    """The face part of check_embedding by the two routines above, for a
    rotation system of a connected graph that lists every dart once:
    given faces that pass the successor check are counted as they are,
    others are walked afresh, counted by Euler's formula and compared
    walk by walk."""
    num_darts = 2 * len(tails)
    faces = None
    if not are_face_walks(given, rot, num_darts):
        faces, face_of = walk_faces(tails, heads, rot)
    num_faces = len(given if faces is None else faces)
    if len(rot) - len(tails) + num_faces != 2:
        raise NonPlanarEmbedding(
            f"Euler check failed: n={len(rot)} m={len(tails)} f={num_faces}")
    if faces is not None:
        check_given_faces(given, faces, face_of)


# -- build_graph as it stood before its single validating pass --


def reference_build_graph(n, arcs, rotations, labels=None):
    """build_graph with a set of node pairs for the parallel-arc check and
    a sorted comparison of every node's rotation with its neighbors."""
    def name(v):
        return v if labels is None else labels[v]

    tails, heads, caps = [], [], []
    pairs = set()
    for a, (t, h, c) in enumerate(arcs):
        if not (0 <= t < n and 0 <= h < n):
            raise EmbeddingInvalid(f"arc {a}: endpoint out of range")
        if t == h:
            raise ParallelArcOrLoop(f"arc {name(t)} {name(h)} is a self-loop")
        pair = (t, h) if t < h else (h, t)
        if pair in pairs:
            raise ParallelArcOrLoop(f"two arcs join nodes {name(pair[0])} and {name(pair[1])}")
        if c < 0:
            raise EmbeddingInvalid(f"arc {name(t)} {name(h)}: negative capacity {c}")
        pairs.add(pair)
        tails.append(t)
        heads.append(h)
        caps.append(c)

    if len(rotations) != n:
        raise EmbeddingInvalid(f"expected {n} rotation lines, got {len(rotations)}")
    incident = [dict() for _ in range(n)]
    for a in range(len(tails)):
        incident[tails[a]][heads[a]] = 2 * a
        incident[heads[a]][tails[a]] = 2 * a + 1
    rot = []
    for v, nbrs in enumerate(rotations):
        if sorted(nbrs) != sorted(incident[v]):
            raise EmbeddingInvalid(
                f"node {name(v)}: rotation lists {sorted(map(name, nbrs))} "
                f"but neighbors are {sorted(map(name, incident[v]))}")
        rot.append([incident[v][u] for u in nbrs])

    g = PlanarGraph(tails, heads, caps, rot)
    g.check_embedding()
    return g


# -- the residual search and the triangle test before the keyed adjacency --


def reference_residual_reachable(g, store, start, seen=None):
    """flow.residual_reachable as a loop over every dart of each reached
    node's rotation, kept as the reference for the keyed-adjacency search:
    same arguments, same set, same marks in seen."""
    if seen is None:
        seen = bytearray(g.n)
    reached = []
    for v in start:
        if not seen[v]:
            seen[v] = 1
            reached.append(v)
    caps, vals = store.caps, store.vals
    tails, heads, keys = g.tails, g.heads, g.keys
    for v in reached:
        for d in g.rot[v]:
            key = keys[d >> 1]
            if key == NO_KEY:
                continue
            res = vals[key] if d & 1 else caps[key] - vals[key]
            if res > 0:
                w = tails[d >> 1] if d & 1 else heads[d >> 1]
                if not seen[w]:
                    seen[w] = 1
                    reached.append(w)
    return set(reached)


def reference_is_triangulated_biconnected(g):
    """Every face walk has three darts whose heads, taken as a set, are
    three nodes."""
    tails, heads = g.tails, g.heads
    for walk in g.faces():
        if len(walk) != 3 or len({tails[d >> 1] if d & 1 else heads[d >> 1]
                                  for d in walk}) != 3:
            return False
    return True
