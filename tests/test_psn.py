import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from graphcake.cli import main
from graphcake.fairness import fairness_report
from graphcake.generate import GeneratorSpec, generate
from graphcake.io import save_instance
from graphcake.model import Edge, EdgeInterval, Graph, Instance, canonical_share, eval_share, piece_count
from graphcake.psn import (
    EdgeBijection,
    OrientedEdge,
    graph_is_acyclic,
    lift_segment,
    min_diameter_spanning_tree,
    path_instance,
    psn_allocate,
    psn_certificate,
    psn_exact_check,
    tree_dfs_bijection,
)
from graphcake.rational import Rational, rational

from conftest import F, integral, multigraph, path_instance as make_path_instance, share_components, star_instance, uniform_density


def star_graph(m):
    return star_instance(m).graph


def fig5_tree():
    """Height-3 tree whose depth-first layout is the edge-id order."""
    edges = [
        ("e01", "v00", "v01"),
        ("e02", "v01", "v02"),
        ("e03", "v02", "v03"),
        ("e04", "v02", "v04"),
        ("e05", "v01", "v05"),
        ("e06", "v05", "v06"),
        ("e07", "v05", "v07"),
        ("e08", "v01", "v08"),
        ("e09", "v08", "v09"),
        ("e10", "v08", "v10"),
        ("e11", "v00", "v11"),
        ("e12", "v11", "v12"),
        ("e13", "v11", "v13"),
        ("e14", "v13", "v14"),
        ("e15", "v13", "v15"),
    ]
    vertices = tuple(sorted({v for _, u, w in edges for v in (u, w)}))
    return Graph(vertices, tuple(Edge(i, (u, w)) for i, u, w in edges))


# ---------------------------------------------------------------------------
# depth-first layouts


def test_star_layout_leaf_at_right(fig1):
    bijection = tree_dfs_bijection(fig1.graph, "c")
    assert [e.edge for e in bijection.entries] == ["e1", "e2", "e3"]
    # Edges list the leaf first, so the far-from-root end is position 0.
    assert all(e.reversed for e in bijection.entries)


def test_path_layout_is_identity():
    inst = make_path_instance(4)
    bijection = tree_dfs_bijection(inst.graph, "u0")
    assert [e.edge for e in bijection.entries] == ["e1", "e2", "e3", "e4"]
    assert not any(e.reversed for e in bijection.entries)
    assert psn_exact_check(inst.graph, bijection) == 1


def test_fig5_layout_order_matches_depth_first():
    tree = fig5_tree()
    bijection = tree_dfs_bijection(tree, "v00")
    assert [e.edge for e in bijection.entries] == [f"e{k:02d}" for k in range(1, 16)]


def test_dfs_layout_rejects_cycles():
    inst = generate(GeneratorSpec("random-connected", m=6, n=1, seed=5))
    assert not graph_is_acyclic(inst.graph)
    with pytest.raises(ValueError):
        tree_dfs_bijection(inst.graph, inst.graph.vertices[0])


def test_dfs_layout_rejects_an_unknown_root(fig1):
    with pytest.raises(ValueError, match="unknown root 'v9'"):
        tree_dfs_bijection(fig1.graph, "v9")


# ---------------------------------------------------------------------------
# exact path-similarity checks


def test_star_exact_psn_is_two():
    for m in (3, 4, 6):
        g = star_graph(m)
        bijection = tree_dfs_bijection(g, "c")
        assert psn_exact_check(g, bijection) == 2


def test_fig5_exact_psn_at_most_four_with_witness():
    tree = fig5_tree()
    bijection = tree_dfs_bijection(tree, "v00")
    exact = psn_exact_check(tree, bijection)
    assert exact <= 4
    # The witness segment spans from inside e03 to inside e14.
    assert piece_count(tree, lift_segment(bijection, F(2) + F(1, 2), F(13) + F(1, 2))) == 4
    assert exact == 4


def test_lift_single_slot_segment(fig1):
    bijection = tree_dfs_bijection(fig1.graph, "c")
    assert piece_count(fig1.graph, lift_segment(bijection, F(1, 4), F(3, 4))) == 1


def test_lift_rejects_a_segment_outside_the_path(fig1):
    bijection = tree_dfs_bijection(fig1.graph, "c")
    for lo, hi in ((F(-1, 2), F(1)), (F(1), F(7, 2)), (F(2), F(1))):
        with pytest.raises(ValueError, match="segment outside the path cake"):
            lift_segment(bijection, lo, hi)


def test_lift_star_segment_two_pieces():
    g = star_graph(6)
    bijection = tree_dfs_bijection(g, "c")
    # From inside the second slot to inside the sixth: the leaf-side tail of
    # edge 2 is isolated; everything else meets at the center.
    assert piece_count(g, lift_segment(bijection, F(1) + F(1, 3), F(5) + F(1, 2))) == 2


def test_lift_preserves_values(fig1):
    bijection, _ = psn_certificate(fig1.graph)
    flat = path_instance(fig1, bijection)
    lo, hi = F(1, 3), F(5, 2)
    lift = lift_segment(bijection, lo, hi)
    for agent in fig1.agents:
        flat_val = sum(
            integral(flat.density(agent, f"s{j:03d}"), max(lo - j, F(0)), min(hi - j, F(1)))
            for j in range(bijection.m)
            if max(lo - j, F(0)) < min(hi - j, F(1))
        )
        assert eval_share(fig1, agent, lift) == flat_val


def _lift_every_slot(graph, bijection, lo, hi):
    """Reference lift: the preimage of [lo, hi] gathered over every slot of
    the path, then merged into one canonical share."""
    intervals = []
    for slot, entry in enumerate(bijection.entries):
        a = max(lo - slot, F(0))
        b = min(hi - slot, F(1))
        if a < b:
            if entry.reversed:
                a, b = 1 - b, 1 - a
            intervals.append(EdgeInterval(entry.edge, a, b))
    return canonical_share(graph, intervals)


@st.composite
def _layouts(draw):
    """A multigraph with self-loops and parallel edges, or a generated tree,
    with up to 8 edges each, laid out by its certificate or in a random slot
    order and orientation."""
    if draw(st.booleans()):
        graph = multigraph(draw(st.integers(0, 10**6)))
    else:
        spec = GeneratorSpec("tree", m=draw(st.integers(1, 8)), n=1, seed=draw(st.integers(0, 10**6)))
        graph = generate(spec).graph
    if draw(st.booleans()):
        return graph, psn_certificate(graph)[0]
    ids = draw(st.permutations([e.id for e in graph.edges]))
    flips = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    return graph, EdgeBijection(tuple(OrientedEdge(e, r) for e, r in zip(ids, flips)))


@st.composite
def _segments(draw):
    """A layout and a segment with both ends on the quarter grid of [0, m]."""
    graph, bijection = draw(_layouts())
    lo, hi = sorted(draw(st.lists(st.integers(0, 4 * bijection.m), min_size=2, max_size=2)))
    return graph, bijection, F(lo, 4), F(hi, 4)


_EXAMPLE_TREE = fig5_tree()
_EXAMPLE_LAYOUT = tree_dfs_bijection(_EXAMPLE_TREE, "v00")


@settings(max_examples=300, deadline=None)
@example(case=(_EXAMPLE_TREE, _EXAMPLE_LAYOUT, F(15), F(15)))
@example(case=(_EXAMPLE_TREE, _EXAMPLE_LAYOUT, F(9, 4), F(11, 4)))
@given(case=_segments())
def test_lift_matches_the_every_slot_reference(case):
    graph, bijection, lo, hi = case
    reference = _lift_every_slot(graph, bijection, lo, hi)
    lift = lift_segment(bijection, lo, hi)
    assert lift == reference
    assert piece_count(graph, lift) == len(share_components(graph, reference))


def test_lifted_endpoints_are_reduced_rationals():
    """The lift builds its end-slot positions from integer pairs with no gcd,
    so every end must already be a ``Rational`` in lowest terms, forward
    slot or reversed, for segment ends given as ``int``, ``Fraction`` or
    ``Rational``: an unreduced pair would compare unequal to the same value.
    Each segment also lifts to the reference share."""
    rng = random.Random(29)
    kinds = {"int": int, "Fraction": F, "Rational": rational}
    seen = Counter()
    for seed in range(12):
        graph = multigraph(seed)
        ids = [e.id for e in graph.edges]
        rng.shuffle(ids)
        flips = [k % 2 == seed % 2 for k in range(len(ids))]
        bijection = EdgeBijection(tuple(OrientedEdge(e, r) for e, r in zip(ids, flips)))
        reversed_slot = dict(zip(ids, flips))
        points = [F(k, 6) for k in range(6 * bijection.m + 1)]
        for (lo, hi), (name, kind) in itertools.product(itertools.combinations(points, 2), kinds.items()):
            if name == "int" and (lo.denominator, hi.denominator) != (1, 1):
                continue
            lift = lift_segment(bijection, kind(lo), kind(hi))
            assert lift == _lift_every_slot(graph, bijection, lo, hi)
            for interval in lift.intervals:
                for end in (interval.lo, interval.hi):
                    reduced = Fraction(end.numerator, end.denominator)
                    assert type(end) is Rational
                    assert end == reduced and hash(end) == hash(reduced)
                    seen[name, reversed_slot[interval.edge], end.denominator > 1] += 1
    assert len(seen) == 3 * 2 * 2 - 2  # int ends give no mid-edge positions
    assert min(seen.values()) >= 20


def test_bijection_equality_and_hash_ignore_the_whole_slot_cache():
    entries = (OrientedEdge("e1", False), OrientedEdge("e2", True))
    first, second = EdgeBijection(entries), EdgeBijection(entries)
    assert first._whole == (EdgeInterval("e1", 0, 1), EdgeInterval("e2", 0, 1))
    object.__setattr__(second, "_whole", ())
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) == f"EdgeBijection(entries={entries!r})"
    assert first != EdgeBijection(entries[::-1])


def test_bijection_refuses_a_repeated_edge():
    with pytest.raises(ValueError, match="an edge bijection lays out each edge once"):
        EdgeBijection((OrientedEdge("e1", False), OrientedEdge("e2", True), OrientedEdge("e1", True)))


def _lemma_layouts():
    """``multigraph(seed)`` for seeds 0-59, each in a seeded random slot order
    and orientation, and the certificate layouts of seeded generator trees
    and random-connected graphs with m <= 12 (one-slot layouts included)."""
    layouts = []
    for seed in range(60):
        graph = multigraph(seed)
        rng = random.Random(seed)
        ids = [e.id for e in graph.edges]
        rng.shuffle(ids)
        layouts.append((graph, EdgeBijection(tuple(OrientedEdge(e, rng.random() < 0.5) for e in ids))))
    for family in ("tree", "random-connected"):
        for m in range(1, 13):
            for seed in range(2):
                graph = generate(GeneratorSpec(family, m=m, n=1, seed=seed)).graph
                layouts.append((graph, psn_certificate(graph)[0]))
    return layouts


LEMMA_LAYOUTS = _lemma_layouts()


def test_moving_an_inner_boundary_end_outward_never_lowers_the_count():
    """``psn_exact_check``'s lemma, on every half-slot segment: an end on an
    inner slot boundary k, moved half a slot outward to a midpoint, lifts to
    at least as many pieces.  Some moves raise it, so the check is not
    vacuous."""
    half = F(1, 2)
    moves = raised = 0
    for graph, bijection in LEMMA_LAYOUTS:
        m = bijection.m
        points = [F(k, 2) for k in range(2 * m + 1)]
        count = {(a, b): piece_count(graph, lift_segment(bijection, a, b))
                 for a, b in itertools.combinations(points, 2)}
        for (a, b), pieces in count.items():
            for moved, inner in (((a - half, b), 0 < a < m and a.denominator == 1),
                                 ((a, b + half), 0 < b < m and b.denominator == 1)):
                if inner:
                    assert count[moved] >= pieces, (graph, bijection, a, b, moved)
                    moves += 1
                    raised += count[moved] > pieces
    assert moves > 7000 and raised > 2000


def _with_examples(layouts):
    """Hypothesis ``example`` decorators, one per fixed layout."""
    def add(test):
        for layout in layouts:
            test = example(layout=layout)(test)
        return test
    return add


def _sweep_layouts():
    """Certificate layouts of a 14-edge tree, a 14-edge random-connected
    graph and a 20-edge tree (the exact check's cap), a one-slot self-loop,
    and two parallel edges laid out the same way and opposite ways."""
    layouts = []
    for family, m in (("tree", 14), ("random-connected", 14), ("tree", 20)):
        graph = generate(GeneratorSpec(family, m=m, n=1, seed=0)).graph
        layouts.append((graph, psn_certificate(graph)[0]))
    loop = Graph(("a",), (Edge("e1", ("a", "a")),))
    layouts.append((loop, EdgeBijection((OrientedEdge("e1", False),))))
    parallel = Graph(("a", "b"), (Edge("e1", ("a", "b")), Edge("e2", ("a", "b"))))
    for flip in (False, True):
        layouts.append((parallel, EdgeBijection((OrientedEdge("e1", False), OrientedEdge("e2", flip)))))
    return layouts


@settings(max_examples=40, deadline=None)
@_with_examples(LEMMA_LAYOUTS + _sweep_layouts())
@given(layout=_layouts())
def test_exact_psn_is_the_reference_lifts_largest_piece_count(layout):
    """The sweep of ``psn_exact_check`` against every half-slot segment
    lifted by the reference, on drawn layouts, on every lemma layout and on
    the sweep's edge cases."""
    graph, bijection = layout
    points = [F(k, 2) for k in range(2 * bijection.m + 1)]
    assert psn_exact_check(graph, bijection) == max(
        len(share_components(graph, _lift_every_slot(graph, bijection, a, b)))
        for a, b in itertools.combinations(points, 2)
    )


# ---------------------------------------------------------------------------
# minimum-diameter spanning trees


def square_graph():
    return Graph(
        ("a", "b", "c", "d"),
        (Edge("e1", ("a", "b")), Edge("e2", ("b", "c")), Edge("e3", ("c", "d")), Edge("e4", ("d", "a"))),
    )


def complete_graph(nv):
    vertices = tuple(f"v{k}" for k in range(nv))
    edges = tuple(
        Edge(f"e{i:02d}", pair)
        for i, pair in enumerate(itertools.combinations(vertices, 2), start=1)
    )
    return Graph(vertices, edges)


def test_tree_input_is_its_own_spanning_tree(fig1):
    tree_edges, root, d, h = min_diameter_spanning_tree(fig1.graph)
    assert set(tree_edges) == {"e1", "e2", "e3"}
    assert root == "c" and d == 2 and h == 1


def test_square_spanning_tree():
    tree_edges, root, d, h = min_diameter_spanning_tree(square_graph())
    assert len(tree_edges) == 3
    assert d == 3 and h == 2


def test_k4_spanning_tree_is_a_star():
    tree_edges, root, d, h = min_diameter_spanning_tree(complete_graph(4))
    assert d == 2 and h == 1


def test_k8_spanning_tree_is_a_star():
    graph = complete_graph(8)
    assert len(graph.edges) == 28
    tree_edges, root, d, h = min_diameter_spanning_tree(graph)
    assert len(tree_edges) == 7
    assert d == 2 and h == 1
    _, cert = psn_certificate(graph)
    assert cert.bound == 3 and not cert.heuristic


def test_square_certificate_bound():
    bijection, cert = psn_certificate(square_graph())
    assert cert.bound == 4  # ceil(3/2) + 2
    assert cert.construction == "min-diameter-spanning-tree"
    assert psn_exact_check(square_graph(), bijection) <= 4


def test_k4_certificate_bound():
    bijection, cert = psn_certificate(complete_graph(4))
    assert cert.bound == 3
    assert psn_exact_check(complete_graph(4), bijection) <= 3


def test_tree_certificate_uses_height(fig1):
    _, cert = psn_certificate(fig1.graph)
    assert cert.construction == "tree-dfs"
    assert cert.bound == cert.height + 1 == 2


def _as_nx(graph):
    g = nx.MultiGraph()
    g.add_nodes_from(graph.vertices)
    for e in graph.edges:
        g.add_edge(e.endpoints[0], e.endpoints[1], key=e.id)
    return g


def _doubled_absolute_radius(graph):
    """Twice the smallest, over all points of the graph, farthest distance to
    a vertex, from networkx all-pairs distances.

    At position t of edge (u, w) vertex x lies at min(t + d(u, x), 1 - t +
    d(w, x)).  The largest of these tents is minimized at t = 0, t = 1 or
    where a rising side meets a falling one, so those points are scanned
    exactly; no center location is assumed.
    """
    dist = dict(nx.all_pairs_shortest_path_length(nx.Graph(_as_nx(graph))))
    best = None
    for e in graph.edges:
        u, w = e.endpoints
        ts = {F(0), F(1)}
        ts.update(F(1 + dist[w][y] - dist[u][x], 2) for x in graph.vertices for y in graph.vertices)
        for t in ts:
            if 0 <= t <= 1:
                far = max(min(t + dist[u][x], 1 - t + dist[w][x]) for x in graph.vertices)
                best = far if best is None else min(best, far)
    return 2 * best


def _mdst_oracle_graphs():
    """Seeded graphs small enough to enumerate every spanning tree: three on
    at most 7 vertices, and eight cyclic ones on 9-10 vertices."""
    graphs = [
        generate(GeneratorSpec("random-connected", m=3 + seed % 8, n=1, seed=seed)).graph
        for seed in (3, 7, 21)
    ]
    for seed in (9, 11, 12, 17, 29, 30, 34, 35):
        graph = generate(GeneratorSpec("random-connected", m=14, n=1, seed=seed)).graph
        assert 9 <= len(graph.vertices) <= 10 and not graph_is_acyclic(graph)
        graphs.append(graph)
    return graphs


def test_spanning_tree_diameter_is_minimal_against_networkx():
    for graph in _mdst_oracle_graphs():
        _, _, d, _ = min_diameter_spanning_tree(graph)
        g = _as_nx(graph)
        best = min(
            nx.diameter(nx.Graph(tree))
            for tree in nx.SpanningTreeIterator(nx.Graph(g))
        )
        assert d == best


def test_spanning_tree_diameter_is_twice_the_absolute_radius():
    graphs = _mdst_oracle_graphs() + [square_graph(), complete_graph(4), complete_graph(8)]
    graphs += [
        generate(GeneratorSpec("random-connected", m=m, n=1, seed=500 + m)).graph
        for m in range(1, 41)
    ]
    for graph in graphs:
        _, _, d, _ = min_diameter_spanning_tree(graph)
        assert d == _doubled_absolute_radius(graph)


# ---------------------------------------------------------------------------
# exhaustive certificate soundness at small scale


def test_all_trees_up_to_seven_vertices_meet_height_bound():
    for nv in range(2, 8):
        for t in nx.nonisomorphic_trees(nv):
            edges = tuple(
                Edge(f"e{i:02d}", (f"v{u:02d}", f"v{w:02d}"))
                for i, (u, w) in enumerate(sorted(t.edges()), start=1)
            )
            graph = Graph(tuple(f"v{k:02d}" for k in range(nv)), edges)
            for root in graph.vertices:
                bijection = tree_dfs_bijection(graph, root)
                depth = nx.shortest_path_length(nx.Graph(t), int(root[1:]))
                height = max(depth.values())
                assert psn_exact_check(graph, bijection) <= height + 1


# ---------------------------------------------------------------------------
# solving on the flattened cake


def test_psn_allocate_star_pieces_within_bound(fig1):
    allocation, cert, pieces = psn_allocate(fig1)
    assert all(p <= cert.bound for p in pieces)
    report = fairness_report(fig1, allocation)
    assert report.envy_factor <= 2


def test_psn_allocate_path_is_direct():
    inst = make_path_instance(4, n=2)
    allocation, cert, pieces = psn_allocate(inst)
    assert all(p == 1 for p in pieces)


def test_psn_allocate_cycle():
    graph = square_graph()
    val = {e.id: uniform_density(F(1, 4)) for e in graph.edges}
    inst = Instance(graph, (1, 2), {1: val, 2: val})
    allocation, cert, pieces = psn_allocate(inst)
    assert all(p <= cert.bound == 4 for p in pieces)


def test_psn_allocate_non_identical_uses_additive_solver():
    inst = generate(GeneratorSpec("star", m=4, n=3, seed=17))
    allocation, cert, pieces = psn_allocate(inst)
    report = fairness_report(inst, allocation)
    assert report.additive_envy <= F(1, 2)
    assert all(p <= cert.bound for p in pieces)


def test_psn_allocate_rejects_a_non_path_solver(fig1):
    for algorithm in ("star-3eps", "no-such-solver"):
        with pytest.raises(ValueError, match=f"unknown path solver '{algorithm}'"):
            psn_allocate(fig1, algorithm=algorithm)


def test_exact_check_refuses_a_layout_of_other_edges():
    """A layout of only some of the graph's edges, of a foreign edge alone,
    or of a real edge and a foreign one has no path similarity number."""
    graph = make_path_instance(2).graph
    for entries in (
        (OrientedEdge("e1", False),),
        (OrientedEdge("e9", False),),
        (OrientedEdge("e1", False), OrientedEdge("e9", True)),
    ):
        with pytest.raises(ValueError, match="does not lay out exactly the graph's edges"):
            psn_exact_check(graph, EdgeBijection(entries))


def test_exact_check_enforces_size_cap():
    inst = star_instance(21, n=1)
    bijection = tree_dfs_bijection(inst.graph, "c")
    with pytest.raises(ValueError, match="capped"):
        psn_exact_check(inst.graph, bijection)


# ---------------------------------------------------------------------------
# pinned layout bytes


def _uniform_instance(graph):
    density = {e.id: uniform_density(F(1, len(graph.edges))) for e in graph.edges}
    return Instance(graph, (1,), {1: density})


LAYOUT_PIN_GRAPHS = {
    "tree": lambda: [generate(GeneratorSpec("tree", m=m, n=1, seed=s)).graph
                     for m in range(1, 17) for s in range(3)],
    "star": lambda: [star_graph(m) for m in range(1, 13)],
    "random-connected": lambda: [generate(GeneratorSpec("random-connected", m=m, n=1, seed=s)).graph
                                 for m in range(1, 31) for s in range(4)],
    "multigraph": lambda: [multigraph(seed) for seed in range(150)],
}


@pytest.mark.parametrize("family, digest", [
    ("tree", "39032b3426c9884e7f953c2a2369477af6ae80287b5314f61389164e1bdf19fd"),
    ("star", "4d0145ec9795d5b064e23305d20d8ccacccf49e89b6aff2db53df82ed3b777f5"),
    ("random-connected", "1d8559562b71b9d1384e97a5839c45d2962106c078cbfca0c332d1dcb00f0b59"),
    ("multigraph", "db703d56d3dceb8e0bac9f300fb971c3a7cd9f73248c12985d0b6e27d90d52b0"),
])
def test_psn_layout_bytes_pinned(tmp_path, family, digest):
    """The sha256 over ``graphcake psn`` output (certificate and oriented
    edges) for each graph of a seeded family, in order."""
    inst_file, out_file = tmp_path / "inst.json", tmp_path / "psn.json"
    sha = hashlib.sha256()
    for graph in LAYOUT_PIN_GRAPHS[family]():
        inst_file.write_bytes(save_instance(_uniform_instance(graph)))
        assert main(["psn", "--instance", str(inst_file), "--output", str(out_file)]) == 0
        sha.update(out_file.read_bytes())
    assert sha.hexdigest() == digest
