import importlib
import random

import networkx as nx
import pytest

from graphcake.divide import (
    _build_intervals,
    _divide,
    _resolve_root,
    _subtree_edges,
    decycle,
    divide,
)
from graphcake.iterative import ADAPTIVE_IDENTICAL, FIXED_QUARTER, iterative_divide
from graphcake.model import (
    ContractViolation,
    Edge,
    EdgeInterval,
    Graph,
    Instance,
    PointOnEdge,
    Share,
    StepDensity,
    check,
    eval_share,
    eval_share_each,
    full_cake,
    is_connected,
    node_sort_key,
    point_node,
    share_covers_node,
)
from graphcake.generate import GeneratorSpec, generate

from conftest import F, single_edge_instance, star_instance, triangle_instance, uniform_density


def vertex_at(graph, edge_id, pos):
    """Vertex id if the position is an edge end, else None."""
    node = point_node(graph, edge_id, pos)
    return node[1] if node[0] == "v" else None


def values(instance, share, agents=None):
    agents = agents or instance.agents
    return {a: eval_share(instance, a, share) for a in agents}


# ---------------------------------------------------------------------------
# decycle


def test_decycle_triangle_breaks_one_cycle():
    inst = triangle_instance()
    tree = decycle(inst, full_cake(inst.graph), "a")
    assert len(tree.order) == 4
    assert len(tree.intervals) == 3
    assert sum(key[0] == "d" for key in tree.keys) == 1


def test_decycle_tree_is_identity():
    inst = star_instance(3)
    tree = decycle(inst, full_cake(inst.graph), "c")
    assert len(tree.order) == 4
    assert not any(key[0] == "d" for key in tree.keys)


def test_decycle_preserves_values():
    inst = triangle_instance()
    whole = full_cake(inst.graph)
    tree = decycle(inst, whole, "b")
    collected = Share(tuple(tree.intervals[s] for s in _subtree_edges(tree, tree.root)))
    for agent in inst.agents:
        assert eval_share(inst, agent, collected) == eval_share(inst, agent, whole)


def test_decycle_rejects_missing_root():
    inst = triangle_instance()
    with pytest.raises(ValueError):
        decycle(inst, Share((EdgeInterval("e1", F(0), F(1, 2)),)), "c")


def test_decycle_self_loop_stays_under_its_vertex():
    # A loop at "a" plus two parallel a-b edges: breaking the loop moves its
    # hi end to a fresh leaf, and its lo end must still hang under "a".
    graph = Graph(
        ("a", "b"),
        (Edge("e1", ("a", "a")), Edge("e2", ("a", "b")), Edge("e3", ("a", "b"))),
    )
    val = {e.id: uniform_density(F(1, 3)) for e in graph.edges}
    inst = Instance(graph, (1,), {1: val})
    tree = decycle(inst, full_cake(graph), "b")
    loop = EdgeInterval("e1", F(0), F(1))
    assert tree.intervals[0] == loop
    assert (tree.keys[tree.lo[0]], tree.keys[tree.hi[0]]) == (("v", "a"), ("d", "e1", F(0), F(1)))
    assert sum(key[0] == "d" for key in tree.keys) == 2
    assert len(tree.order) == 4 and len(tree.intervals) == 3
    a = tree.keys.index(("v", "a"))
    assert [(tree.keys[child], tree.intervals[s]) for child, s in tree.children[a]] == [
        (("d", "e1", F(0), F(1)), loop),
        (("d", "e2", F(0), F(1)), EdgeInterval("e2", F(0), F(1))),
    ]
    duplicate = tree.keys.index(("d", "e1", F(0), F(1)))
    assert [node for node in tree.order if (duplicate, 0) in tree.children[node]] == [a]


# ---------------------------------------------------------------------------
# decycle against a restart-from-scratch oracle: the decycle of an earlier
# version, which kept tuple-keyed sub-edges and rebuilt a node-keyed
# adjacency before every cycle search.  Only ``se.sort_key`` became
# ``_sort_key(se)``, its record entries became plain tuples, and the tree
# comes back as ``tree_shape`` tuples.  The oracle numbers its duplicate
# keys by break, which decycle no longer does: ``oracle_shape`` drops that
# serial and the record, and the two shapes must then be equal.  The
# sub-edge end keys in the shape already show which end was detached.


class _SubEdge:
    """One interval of the subcake with (mutable) endpoint node keys."""

    __slots__ = ("interval", "lo_node", "hi_node")

    def __init__(self, interval, lo_node, hi_node):
        self.interval = interval
        self.lo_node = lo_node
        self.hi_node = hi_node

    def other(self, node):
        return self.hi_node if node == self.lo_node else self.lo_node


def _sort_key(se):
    return (se.interval.edge, se.interval.lo, se.interval.hi)


def _adjacency(subedges):
    adj = {}
    for se in subedges:
        adj.setdefault(se.lo_node, []).append(se)
        if se.hi_node != se.lo_node:
            adj.setdefault(se.hi_node, []).append(se)
    for lst in adj.values():
        lst.sort(key=lambda se: _sort_key(se))
    return adj


def _find_cycle(subedges, start):
    """Edges of the first cycle met by a depth-first search, or None."""
    adj = _adjacency(subedges)
    visited = {start}
    parent_edge = {}
    parent_node = {}
    stack = [(start, iter(adj.get(start, [])))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for se in it:
            if se.lo_node == se.hi_node:
                return [se]
            if se is parent_edge.get(node):
                continue
            other = se.other(node)
            if other in visited:
                # Back edge to an ancestor: walk up from `node` to `other`.
                cycle = [se]
                cur = node
                while cur != other:
                    cycle.append(parent_edge[cur])
                    cur = parent_node[cur]
                return cycle
            visited.add(other)
            parent_edge[other] = se
            parent_node[other] = node
            stack.append((other, iter(adj.get(other, []))))
            advanced = True
            break
        if not advanced:
            stack.pop()
    return None


def _edge(se):
    return (se.interval, se.lo_node, se.hi_node)


def restart_decycle(instance, subcake, root):
    root_node, root_point = _resolve_root(instance, subcake, root)
    graph = instance.graph
    subedges = [
        _SubEdge(iv, point_node(graph, iv.edge, iv.lo), point_node(graph, iv.edge, iv.hi))
        for iv in _build_intervals(instance, subcake, root_point)
    ]
    nodes = {se.lo_node for se in subedges} | {se.hi_node for se in subedges}
    if root_node not in nodes:
        raise ValueError(f"root {root!r} is not a point of the subcake")

    record = []
    serial = 0
    while True:
        cycle = _find_cycle(subedges, root_node)
        if cycle is None:
            break
        target = min(cycle, key=lambda se: _sort_key(se))
        if target.lo_node == target.hi_node:
            split = target.hi_node
            side = "hi"
        else:
            lo_k, hi_k = node_sort_key(target.lo_node), node_sort_key(target.hi_node)
            side = "hi" if hi_k > lo_k else "lo"
            split = target.hi_node if side == "hi" else target.lo_node
        duplicate = ("d", target.interval.edge, target.interval.lo, target.interval.hi, serial)
        serial += 1
        if side == "hi":
            target.hi_node = duplicate
        else:
            target.lo_node = duplicate
        record.append((split, duplicate, target.interval))

    adj = _adjacency(subedges)
    parent = {root_node: None}
    children = {}
    order = [root_node]
    stack = [root_node]
    seen = {root_node}
    while stack:
        node = stack.pop()
        kids = []
        for se in adj.get(node, []):
            other = se.other(node)
            if other in seen:
                continue
            seen.add(other)
            kids.append((other, se))
            parent[other] = (node, se)
            order.append(other)
            stack.append(other)
        children[node] = sorted(kids, key=lambda k: (node_sort_key(k[0]), _sort_key(k[1])))
    for node in order:
        children.setdefault(node, [])
    check(len(order) == len(nodes) + len(record), "decycle produced a disconnected view")
    return (
        root_node,
        order,
        {node: None if up is None else (up[0], _edge(up[1])) for node, up in parent.items()},
        {node: [(child, _edge(se)) for child, se in kids] for node, kids in children.items()},
        tuple(record),
    )


def tree_shape(tree):
    """A SubcakeTree read through its point keys: the root, the node order,
    and each node's parent and its children in order, with sub-edges by
    value."""
    keys = tree.keys

    def edge(s):
        return (tree.intervals[s], keys[tree.lo[s]], keys[tree.hi[s]])

    parent = {keys[tree.root]: None}
    children = {}
    for node in tree.order:
        children[keys[node]] = [(keys[child], edge(s)) for child, s in tree.children[node]]
        for child, s in tree.children[node]:
            parent[keys[child]] = (keys[node], edge(s))
    return (keys[tree.root], [keys[node] for node in tree.order], parent, children)


def oracle_shape(expected):
    """``restart_decycle``'s result as a ``tree_shape``: the break serial
    dropped from every duplicate key, and the record left out."""
    root, order, parent, children, _record = expected

    def node(key):
        return key[:4] if key[0] == "d" else key

    def edge(e):
        return (e[0], node(e[1]), node(e[2]))

    return (
        node(root),
        [node(key) for key in order],
        {node(key): None if up is None else (node(up[0]), edge(up[1])) for key, up in parent.items()},
        {node(key): [(node(child), edge(e)) for child, e in kids] for key, kids in children.items()},
    )


def assert_breaks_outside_max_spanning_tree(instance, tree):
    """The broken sub-edges, those with a ("d") end, are exactly those
    networkx leaves out of a maximum spanning tree weighted by sub-edge
    index."""
    multigraph = nx.MultiGraph()
    for s, iv in enumerate(tree.intervals):
        lo, hi = point_node(instance.graph, iv.edge, iv.lo), point_node(instance.graph, iv.edge, iv.hi)
        multigraph.add_edge(lo, hi, key=s, weight=s)
    kept = {k for _, _, k in nx.maximum_spanning_edges(multigraph, keys=True, data=False)}
    keys = tree.keys
    broken = {s for s in range(len(tree.intervals)) if "d" in (keys[tree.lo[s]][0], keys[tree.hi[s]][0])}
    assert broken == set(range(len(tree.intervals))) - kept


def random_multigraph_instance(rng):
    """A connected multigraph with self-loops and parallel edges."""
    vertices = tuple(f"u{k}" for k in range(rng.randint(1, 4)))
    pairs = [(vertices[rng.randrange(k)], vertices[k]) for k in range(1, len(vertices))]
    for _ in range(rng.randint(1, 5)):
        kind = rng.randrange(3)
        if kind == 0:
            v = rng.choice(vertices)
            pairs.append((v, v))
        elif kind == 1 and pairs:
            pairs.append(rng.choice(pairs)[::-1] if rng.randrange(2) else rng.choice(pairs))
        else:
            pairs.append((rng.choice(vertices), rng.choice(vertices)))
    graph = Graph(vertices, tuple(Edge(f"e{k:02d}", p) for k, p in enumerate(pairs, start=1)))
    val = {e.id: uniform_density(F(1, len(pairs))) for e in graph.edges}
    return Instance(graph, (1,), {1: val})


def random_root(rng, instance, subcake):
    """A covered vertex id, an interval end or an interior point."""
    iv = rng.choice(subcake.intervals)
    kind = rng.randrange(3)
    if kind == 0 and not iv.degenerate:
        return PointOnEdge(iv.edge, (iv.lo + iv.hi) / 2)
    pos = rng.choice((iv.lo, iv.hi))
    node = point_node(instance.graph, iv.edge, pos)
    if kind == 1 and node[0] == "v":
        return node[1]
    return PointOnEdge(iv.edge, pos)


def assert_decycle_matches_oracle(instance, subcake, root):
    try:
        expected = restart_decycle(instance, subcake, root)
    except ValueError:
        with pytest.raises(ValueError):
            decycle(instance, subcake, root)
        return
    tree = decycle(instance, subcake, root)
    assert tree_shape(tree) == oracle_shape(expected)
    assert_breaks_outside_max_spanning_tree(instance, tree)


def test_decycle_matches_restart_oracle_on_random_connected():
    rng = random.Random(5150)
    broken = 0
    for seed in range(120):
        spec = GeneratorSpec("random-connected", m=2 + seed % 14, n=2, pieces=2, seed=seed)
        instance = generate(spec)
        for subcake in (full_cake(instance.graph), random_subcake(rng, instance)):
            root = random_root(rng, instance, subcake)
            assert_decycle_matches_oracle(instance, subcake, root)
            broken += sum(key[0] == "d" for key in decycle(instance, subcake, root).keys)
    assert broken > 300  # the cycle-breaking path is exercised


def test_decycle_matches_restart_oracle_on_loops_and_parallel_edges():
    rng = random.Random(8128)
    loops = 0
    for _ in range(200):
        instance = random_multigraph_instance(rng)
        subcake = full_cake(instance.graph) if rng.randrange(2) else random_subcake(rng, instance)
        root = random_root(rng, instance, subcake)
        assert_decycle_matches_oracle(instance, subcake, root)
        loops += any(e.endpoints[0] == e.endpoints[1] for e in instance.graph.edges)
    assert loops > 100


def test_decycle_matches_restart_oracle_on_points_and_missing_roots(fig1):
    point = Share((EdgeInterval("e1", F(1, 2), F(1, 2)),))
    assert_decycle_matches_oracle(fig1, point, PointOnEdge("e1", F(1, 2)))
    tri = triangle_instance()
    half = Share((EdgeInterval("e1", F(0), F(1, 2)),))
    assert_decycle_matches_oracle(tri, half, "c")
    assert_decycle_matches_oracle(tri, half, PointOnEdge("e2", F(1, 2)))


# ---------------------------------------------------------------------------
# divide: hand-traced examples


def test_divide_single_edge_exact_quarter():
    inst = single_edge_instance()
    first, rest = divide(inst, full_cake(inst.graph), (1, 2), F(1, 4), "b")
    assert first.intervals == (EdgeInterval("e1", F(0), F(1, 4)),)
    assert values(inst, first) == {1: F(1, 4), 2: F(1, 4)}
    assert rest.intervals == (EdgeInterval("e1", F(1, 4), F(1)),)


def test_divide_star_takes_full_leaf_edge(fig1):
    first, rest = divide(fig1, full_cake(fig1.graph), (1,), F(1, 3), "c")
    assert first.intervals == (EdgeInterval("e1", F(0), F(1)),)
    assert rest.intervals == (EdgeInterval("e2", F(0), F(1)), EdgeInterval("e3", F(0), F(1)))


def test_divide_whole_value_leaves_degenerate_root():
    inst = single_edge_instance()
    first, rest = divide(inst, full_cake(inst.graph), (1, 2), F(1), "b")
    assert eval_share(inst, 1, first) == 1
    assert rest.intervals == (EdgeInterval("e1", F(1), F(1)),)
    assert share_covers_node(inst.graph, rest, ("v", "b"))


def test_divide_accepts_midedge_root():
    inst = single_edge_instance()
    root = PointOnEdge("e1", F(1, 2))
    first, rest = divide(inst, full_cake(inst.graph), (1, 2), F(1, 8), root)
    assert eval_share(inst, 1, first) == F(1, 8)
    assert share_covers_node(inst.graph, rest, point_node(inst.graph, "e1", F(1, 2)))


def test_divide_rejects_a_root_that_is_no_point():
    inst = single_edge_instance()
    with pytest.raises(ValueError, match="root must be a vertex id or PointOnEdge, got 0"):
        divide(inst, full_cake(inst.graph), (1, 2), F(1, 4), 0)


def test_divide_rejects_bad_beta():
    inst = single_edge_instance()
    with pytest.raises(ValueError):
        divide(inst, full_cake(inst.graph), (1, 2), F(0), "a")
    with pytest.raises(ValueError):
        divide(inst, full_cake(inst.graph), (1, 2), F(2), "a")
    with pytest.raises(ValueError):
        divide(inst, full_cake(inst.graph), (), F(1, 4), "a")


def test_divide_trace_case1_names_cut_and_split_point():
    inst = single_edge_instance()
    trace = []
    divide(inst, full_cake(inst.graph), (1, 2), F(1, 4), "b", trace=trace)
    assert trace == [{"at": ("v", "b"), "case": 1, "cut": ("e1", F(1, 4)), "witness": 1}]
    trace = []
    divide(inst, full_cake(inst.graph), (1, 2), F(1, 8), PointOnEdge("e1", F(1, 2)), trace=trace)
    assert trace == [{"at": ("p", "e1", F(1, 2)), "case": 1, "cut": ("e1", F(1, 8)), "witness": 1}]


def test_divide_trace_case2_counts_taken_children(fig1):
    trace = []
    first, rest = divide(fig1, full_cake(fig1.graph), (1, 2), F(2, 3), "c", trace=trace)
    assert trace == [{"at": ("v", "c"), "case": 2, "children": 2, "witness": 1}]
    assert rest.intervals == (EdgeInterval("e3", F(0), F(1)),)
    # Two legs c-x-y of two edges each: both legs go, and "c" stays behind.
    graph = Graph(
        ("c", "x1", "x2", "y1", "y2"),
        (Edge("e1", ("c", "x1")), Edge("e2", ("x1", "y1")), Edge("e3", ("c", "x2")), Edge("e4", ("x2", "y2"))),
    )
    val = {e.id: uniform_density(F(1, 4)) for e in graph.edges}
    spider = Instance(graph, (1, 2), {1: val, 2: val})
    trace = []
    first, rest = divide(spider, full_cake(graph), (1, 2), F(3, 4), "c", trace=trace)
    assert trace == [{"at": ("v", "c"), "case": 2, "children": 2, "witness": 1}]
    assert first == full_cake(graph)
    assert rest.intervals == (EdgeInterval("e1", F(0), F(0)),)


def test_divide_determinism(fig1):
    runs = [divide(fig1, full_cake(fig1.graph), (1, 2), F(1, 4), "c") for _ in range(3)]
    assert all(r == runs[0] for r in runs)


@pytest.mark.parametrize("solve", [
    lambda inst: divide(inst, full_cake(inst.graph), (1, 2), F(1, 4), "a"),
    lambda inst: iterative_divide(inst, FIXED_QUARTER),
    lambda inst: iterative_divide(inst, ADAPTIVE_IDENTICAL),
], ids=["divide", "fixed-quarter", "adaptive-identical"])
def test_partition_check_sees_a_sub_edge_the_tree_lost(monkeypatch, solve):
    """The totals come from the subcake's own intervals, not from the tree, so
    a sub-edge lost before ``decycle`` builds the tree breaks the check."""
    divide_module = importlib.import_module("graphcake.divide")
    build = divide_module._build_intervals
    monkeypatch.setattr(divide_module, "_build_intervals", lambda *args: build(*args)[:-1])
    with pytest.raises(ContractViolation, match="divide must partition values"):
        solve(triangle_instance(n=2))


def test_first_share_check_sees_a_cut_that_overshoots(monkeypatch):
    """A cut that lands where the first share is worth 2*beta breaks the
    first share's bound."""
    divide_module = importlib.import_module("graphcake.divide")
    cut = divide_module.cut
    monkeypatch.setattr(divide_module, "cut", lambda inst, a, iv, anchor, target: cut(inst, a, iv, anchor, 2 * target))
    inst = single_edge_instance()
    with pytest.raises(ContractViolation, match=r"first share worth 1/2 >= 2\*beta to agent 1"):
        divide(inst, full_cake(inst.graph), (1, 2), F(1, 4), "b")


def fresh_pairs(instance, share, agents):
    """Each agent's ``integral_pair`` of every interval of ``share``."""
    return {
        a: [instance.density(a, iv.edge).integral_pair(iv.lo, iv.hi) for iv in share.intervals]
        for a in agents
    }


def multigraph_instance(rng, n, identical):
    """``n`` agents on a ``random_multigraph_instance`` graph, each valuing
    every edge uniformly with its own random weights, or all sharing one."""
    graph = random_multigraph_instance(rng).graph

    def valuation():
        weights = [rng.randint(1, 4) for _ in graph.edges]
        return {e.id: uniform_density(F(w, sum(weights))) for e, w in zip(graph.edges, weights)}

    shared = valuation()
    agents = tuple(range(1, n + 1))
    return Instance(graph, agents, {a: shared if identical else valuation() for a in agents})


def test_iterative_rounds_carry_each_remainders_integrals(monkeypatch):
    """Under both schedules, on random-connected instances and on multigraphs
    with self-loops and parallel edges, every per-interval list the core
    hands back equals ``integral_pair`` recomputed on that remainder's
    intervals, and the next round gets that remainder with that list."""
    iterative_module = importlib.import_module("graphcake.iterative")
    core = iterative_module._divide
    calls = []

    def recording(instance, subcake, agents, totals, beta, root, ledger=None, trace=None, pairs=None):
        out = core(instance, subcake, agents, totals, beta, root, ledger, trace, pairs)
        calls.append((subcake, pairs, out))
        return out

    monkeypatch.setattr(iterative_module, "_divide", recording)
    rng = random.Random(1998)
    instances = [
        generate(GeneratorSpec(
            "random-connected", m=2 + seed % 12, n=2 + seed % 5, pieces=1 + seed % 3,
            identical=seed % 2 == 1, seed=seed,
        ))
        for seed in range(30)
    ] + [multigraph_instance(rng, 2 + k % 4, k % 2 == 1) for k in range(40)]
    handed = loops = 0
    for instance in instances:
        loops += any(e.endpoints[0] == e.endpoints[1] for e in instance.graph.edges)
        schedules = (FIXED_QUARTER, ADAPTIVE_IDENTICAL) if instance.identical_valuations() else (FIXED_QUARTER,)
        for schedule in schedules:
            calls.clear()
            iterative_divide(instance, schedule)
            assert calls and calls[0][1] is None
            for k, (_subcake, _pairs, (_first, rest, values, pairs)) in enumerate(calls):
                assert pairs == fresh_pairs(instance, rest, values)
                if k + 1 < len(calls):
                    assert calls[k + 1][0] is rest and calls[k + 1][1] is pairs
                    handed += 1
    assert handed > 150
    assert loops > 15


def test_divide_core_expands_each_lead_values_to_its_group():
    """Agents 1 and 3 share a valuation, agent 2 has its own; the core values
    the shares once per lead and hands agent 3 agent 1's pair."""
    graph = Graph(("a", "b"), (Edge("e1", ("a", "b")),))
    even = {"e1": uniform_density(1)}
    low = {"e1": StepDensity((F(0), F(1, 2), F(1)), (F(2), F(0)))}
    inst = Instance(graph, (1, 2, 3), {1: even, 2: low, 3: dict(even)})
    assert inst.valuation_groups((1, 2, 3)) == {1: [1, 3], 2: [2]}
    subcake = full_cake(graph)
    totals = eval_share_each(inst, (1, 2, 3), subcake)
    first, rest, got, pairs = _divide(inst, subcake, (1, 2, 3), totals, F(1, 4), "a")
    assert first.intervals == (EdgeInterval("e1", F(3, 4), F(1)),)
    assert got == {1: (F(1, 4), F(3, 4)), 3: (F(1, 4), F(3, 4)), 2: (F(0), F(1))}
    assert rest.intervals == (EdgeInterval("e1", F(0), F(3, 4)),)
    assert {a: [F(*pair) for pair in p] for a, p in pairs.items()} == {1: [F(3, 4)], 3: [F(3, 4)], 2: [F(1)]}
    assert pairs[3] is pairs[1]


def test_divide_core_returns_the_values_of_its_shares():
    """Every (first, remainder) pair the core returns is ``eval_share`` of the
    shares it returns, for every agent asked, and the shares are the public
    ``divide``'s.  The per-interval pairs it returns are the remainder's
    integrals; handed to a second round on that remainder, they give the
    same result as integrating afresh, whether the tree keeps the
    remainder's intervals (a vertex root) or splits one (an interior root)."""
    rng = random.Random(2021)
    kinds = set()
    second_rounds = set()
    for seed in range(80):
        identical = seed % 2 == 1
        interior = seed % 4 < 2
        instance = generate(GeneratorSpec(
            "random-connected", m=2 + seed % 9, n=2 + seed % 4, pieces=1 + seed % 3,
            identical=identical, seed=seed,
        ))
        subcake = random_subcake(rng, instance)
        agents = tuple(sorted(rng.sample(instance.agents, rng.randint(1, instance.n))))
        totals = eval_share_each(instance, agents, subcake)
        beta = max(totals.values()) * F(rng.randint(1, 16), 16)
        if beta == 0:
            continue
        iv = subcake.intervals[rng.randrange(len(subcake.intervals))]
        if interior:
            root = PointOnEdge(iv.edge, (iv.lo + iv.hi) / 2)
        else:
            root = vertex_at(instance.graph, iv.edge, iv.lo) or vertex_at(instance.graph, iv.edge, iv.hi)
        first, rest, got, pairs = _divide(instance, subcake, agents, totals, beta, root)
        assert sorted(got) == list(agents)
        for a in agents:
            assert got[a] == (eval_share(instance, a, first), eval_share(instance, a, rest))
        assert pairs == fresh_pairs(instance, rest, agents)
        assert divide(instance, subcake, agents, beta, root) == (first, rest)
        kinds.add((identical, interior))

        rest_totals = {a: rv for a, (_fv, rv) in got.items()}
        rest_beta = max(rest_totals.values()) * F(rng.randint(1, 16), 16)
        if rest_beta == 0:
            continue
        carried = _divide(instance, rest, agents, rest_totals, rest_beta, root, pairs=pairs)
        assert carried == _divide(instance, rest, agents, rest_totals, rest_beta, root)
        assert carried[3] == fresh_pairs(instance, carried[1], agents)
        second_rounds.add(decycle(instance, rest, root).intervals == list(rest.intervals))
    assert len(kinds) == 4
    assert second_rounds == {True, False}


# ---------------------------------------------------------------------------
# randomized contract trials


def random_subcake(rng, instance):
    """A random connected subcake: the component of a random partial cover."""
    graph = instance.graph
    candidates = []
    for e in graph.edges:
        style = rng.randrange(4)
        if style == 0:
            continue
        if style == 1:
            candidates.append(EdgeInterval(e.id, F(0), F(1)))
        elif style == 2:
            candidates.append(EdgeInterval(e.id, F(0), F(rng.randint(1, 8), 8)))
        else:
            candidates.append(EdgeInterval(e.id, F(rng.randint(0, 7), 8), F(1)))
    if not candidates:
        candidates = [EdgeInterval(graph.edges[0].id, F(0), F(1))]
    seed = [candidates.pop(rng.randrange(len(candidates)))]
    grew = True
    while grew:
        grew = False
        for cand in list(candidates):
            if is_connected(graph, Share(tuple(seed + [cand]))):
                seed.append(cand)
                candidates.remove(cand)
                grew = True
    return Share(tuple(seed))


def divide_contract_trial(rng, instance):
    subcake = random_subcake(rng, instance)
    agents = tuple(sorted(rng.sample(instance.agents, rng.randint(1, instance.n))))
    totals = [eval_share(instance, a, subcake) for a in agents]
    if max(totals) == 0:
        return False
    beta = max(totals) * F(rng.randint(1, 16), 16)
    if beta == 0:
        return False
    boundary = sorted(
        {(ivx.edge, ivx.lo) for ivx in subcake.intervals}
        | {(ivx.edge, ivx.hi) for ivx in subcake.intervals}
    )
    edge, pos = boundary[rng.randrange(len(boundary))]
    root = PointOnEdge(edge, pos)
    root_node = point_node(instance.graph, edge, pos)

    first, rest = divide(instance, subcake, agents, beta, root)
    for a in agents:
        fv = eval_share(instance, a, first)
        assert fv < 2 * beta
        assert fv + eval_share(instance, a, rest) == eval_share(instance, a, subcake)
    assert any(eval_share(instance, a, first) >= beta for a in agents)
    assert is_connected(instance.graph, first)
    assert is_connected(instance.graph, rest)
    assert share_covers_node(instance.graph, rest, root_node)
    return True


def test_divide_randomized_contract():
    rng = random.Random(20240)
    done = 0
    attempts = 0
    while done < 500 and attempts < 3000:
        attempts += 1
        spec = GeneratorSpec(
            "random-connected",
            m=2 + attempts % 9,
            n=1 + attempts % 4,
            pieces=1 + attempts % 3,
            seed=attempts,
        )
        instance = generate(spec)
        if divide_contract_trial(rng, instance):
            done += 1
    assert done == 500
