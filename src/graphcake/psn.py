"""Flattening a graph cake onto a path cake and lifting pieces back.

An edge bijection lays the graph's edges out as consecutive unit slots of a
path, each with a chosen orientation.  Its path similarity number is the
largest number of connected pieces any single path segment can map back to;
certificates bound it by height + 1 for trees (depth-first layout) and by
ceil(d/2) + 2 in general via a minimum-diameter spanning tree whose non-tree
edges hang as pendant leaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from .model import (
    Allocation,
    Edge,
    EdgeInterval,
    Graph,
    Instance,
    Share,
    ZERO,
    ONE,
    check,
    eval_share,
    piece_count,
    validate_allocation,
)
from .rational import Rational, as_pair, from_reduced_pair
from .solvers import DEFAULT_EPSILON, SOLVERS

EXACT_CHECK_EDGE_CAP = 20


@dataclass(frozen=True)
class OrientedEdge:
    edge: str
    reversed: bool  # True: edge position 0 maps to the right end of its slot


@dataclass(frozen=True)
class EdgeBijection:
    """Layout of all graph edges as consecutive unit slots of a path, one slot each."""

    entries: tuple[OrientedEdge, ...]
    # The whole edge [0, 1] of each slot, built once and shared by every lift.
    _whole: tuple[EdgeInterval, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len({e.edge for e in self.entries}) != len(self.entries):
            raise ValueError("an edge bijection lays out each edge once")
        object.__setattr__(self, "_whole", tuple(EdgeInterval(e.edge, ZERO, ONE) for e in self.entries))

    @property
    def m(self) -> int:
        return len(self.entries)

    def _slot_interval(self, slot: int, an: int, ad: int, bn: int, bd: int) -> EdgeInterval:
        """Edge interval corresponding to path range [slot + an/ad, slot +
        bn/bd], the pairs in lowest terms with positive denominators.

        A reversed slot maps x = n/d to 1 - x = (d - n)/d, which stays in
        lowest terms, since gcd(d - n, d) = gcd(n, d); so no value needs a
        gcd.  The range [0, 1] is the slot's shared whole-edge interval.
        """
        if not an and bn == bd:
            return self._whole[slot]
        entry = self.entries[slot]
        if entry.reversed:
            an, ad, bn, bd = bd - bn, bd, ad - an, ad
        return EdgeInterval(entry.edge, from_reduced_pair(an, ad), from_reduced_pair(bn, bd))


@dataclass(frozen=True)
class PsnCertificate:
    bound: int
    construction: str            # "tree-dfs" | "min-diameter-spanning-tree"
    root: str
    height: int
    diameter: int
    tree_edges: tuple[str, ...]
    # Every certificate rests on an exact minimum-diameter spanning tree.
    heuristic: ClassVar[bool] = False

    def as_dict(self) -> dict:
        return {
            "bound": self.bound,
            "construction": self.construction,
            "root": self.root,
            "height": self.height,
            "heuristic": self.heuristic,
            "diameter": self.diameter,
            "tree_edges": list(self.tree_edges),
        }


# ---------------------------------------------------------------------------
# Tree layout


def graph_is_acyclic(graph: Graph) -> bool:
    return len(graph.edges) == len(graph.vertices) - 1


def _tree_adjacency(vertices, edges) -> dict[str, list[tuple[str, str]]]:
    adj: dict[str, list[tuple[str, str]]] = {v: [] for v in vertices}
    for e in edges:
        u, w = e.endpoints
        adj[u].append((w, e.id))
        adj[w].append((u, e.id))
    for lst in adj.values():
        lst.sort()
    return adj


def _preorder(adj, root: str):
    """Depth-first preorder from ``root`` over a tree adjacency, children in
    list order: (vertex, edge id it was reached by, depth) after the root."""
    seen = {root}
    stack = [(root, iter(adj[root]))]
    while stack:
        for child, edge_id in stack[-1][1]:
            if child not in seen:
                seen.add(child)
                yield child, edge_id, len(stack)
                stack.append((child, iter(adj[child])))
                break
        else:
            stack.pop()


def _layout(graph: Graph, tree_edges, root: str) -> tuple[EdgeBijection, int]:
    """Depth-first layout of a spanning tree with every non-tree edge hung as
    a pendant leaf, and the height of that tree.

    A pendant attaches at the endpoint discovered earlier by the tree's
    preorder (the first endpoint on a tie, so always for a self-loop).  Each
    edge's endpoint farther from the root lands on the right end of its
    slot, so any slot prefix touching the left end reaches back toward the
    root side; a pendant's far end is the endpoint it does not attach at.
    """
    adj = _tree_adjacency(graph.vertices, [graph.edge(e) for e in tree_edges])
    discovery = {root: 0}
    for order, (vertex, _, _) in enumerate(_preorder(adj, root), start=1):
        discovery[vertex] = order
    tree_set = set(tree_edges)
    names = set(graph.vertices)
    pendant_reversed: dict[str, bool] = {}
    for e in sorted(graph.edges, key=lambda e: e.id):
        if e.id in tree_set:
            continue
        u, w = e.endpoints
        at_second = discovery[w] < discovery[u]
        # The leaf name is the sort key that places the pendant among its
        # attach vertex's children, so it is part of the layout's bytes.
        leaf = f"pendant {e.id}"
        while leaf in names:
            leaf += "'"
        names.add(leaf)
        adj[w if at_second else u].append((leaf, e.id))
        adj[leaf] = []
        pendant_reversed[e.id] = at_second
    for lst in adj.values():
        lst.sort()
    entries: list[OrientedEdge] = []
    height = 0
    for vertex, edge_id, depth in _preorder(adj, root):
        if edge_id in pendant_reversed:
            entries.append(OrientedEdge(edge_id, reversed=pendant_reversed[edge_id]))
        else:
            entries.append(OrientedEdge(edge_id, reversed=graph.edge(edge_id).endpoints[0] == vertex))
        height = max(height, depth)
    check(len(entries) == len(graph.edges), "depth-first layout missed edges")
    return EdgeBijection(tuple(entries)), height


def tree_dfs_bijection(graph: Graph, root: str) -> EdgeBijection:
    """Depth-first edge layout of a tree, children in vertex-id order."""
    if not graph_is_acyclic(graph):
        raise ValueError("depth-first layout needs an acyclic graph")
    if root not in graph.vertices:
        raise ValueError(f"unknown root {root!r}")
    return _layout(graph, [e.id for e in graph.edges], root)[0]


def _bfs(adj, sources) -> tuple[dict[str, int], dict[str, str]]:
    """Hop distance of each reached vertex from the nearest source, and the
    edge it was first reached by (sources and adjacency taken in order)."""
    depth = {s: 0 for s in sources}
    parent_edge: dict[str, str] = {}
    frontier = list(sources)
    while frontier:
        nxt = []
        for node in frontier:
            for other, edge_id in adj[node]:
                if other not in depth:
                    depth[other] = depth[node] + 1
                    parent_edge[other] = edge_id
                    nxt.append(other)
        frontier = nxt
    return depth, parent_edge


def _eccentricities(vertices, edges) -> dict[str, int]:
    adj = _tree_adjacency(vertices, edges)
    out = {}
    for v in vertices:
        depth, _ = _bfs(adj, [v])
        check(len(depth) == len(set(vertices)), "tree edges do not span the vertices")
        out[v] = max(depth.values())
    return out


# ---------------------------------------------------------------------------
# Minimum-diameter spanning trees (unit edge lengths)


def _spanning_tree_stats(vertices, tree_edges) -> tuple[int, str, int]:
    ecc = _eccentricities(vertices, tree_edges)
    diameter = max(ecc.values())
    root = min(v for v, e in ecc.items() if e == min(ecc.values()))
    return diameter, root, ecc[root]


def min_diameter_spanning_tree(graph: Graph) -> tuple[tuple[str, ...], str, int, int]:
    """(tree edge ids, root, diameter, height) of a minimum-diameter spanning tree.

    With unit edge lengths the absolute 1-center of the graph lies at a
    vertex or at an edge midpoint, and a shortest-path tree grown from it is
    a minimum-diameter spanning tree whose diameter is twice the absolute
    radius (Hassin & Tamir, IPL 1995).  Radii are doubled to stay integral:
    2 ecc(v) at vertex v, 1 + 2 max_x min(d(u, x), d(w, x)) at the midpoint
    of edge (u, w).  Ties go to a vertex before an edge, then to the smaller
    id.  The root is a tree vertex of minimum eccentricity (smallest id), so
    the rooted height is ceil(diameter/2) at most.  O(V E) time.
    """
    vertices = tuple(sorted(graph.vertices))
    candidates = [e for e in graph.edges if e.endpoints[0] != e.endpoints[1]]
    adj = _tree_adjacency(vertices, candidates)
    dist = {v: _bfs(adj, [v])[0] for v in vertices}
    centers = [(2 * max(dist[v].values()), 0, v) for v in vertices]
    for e in candidates:
        du, dw = dist[e.endpoints[0]], dist[e.endpoints[1]]
        centers.append((1 + 2 * max(min(du[x], dw[x]) for x in vertices), 1, e.id))
    doubled_radius, kind, center = min(centers)
    if kind == 0:
        _, parent_edge = _bfs(adj, [center])
        tree_edges = set(parent_edge.values())
    else:
        _, parent_edge = _bfs(adj, sorted(graph.edge(center).endpoints))
        tree_edges = set(parent_edge.values()) | {center}
    tree_ids = tuple(sorted(tree_edges))
    d, root, h = _spanning_tree_stats(vertices, [graph.edge(e) for e in tree_ids])
    check(d == doubled_radius, f"tree diameter {d} differs from the doubled radius {doubled_radius}")
    check(2 * h <= d + 1, f"rooted height {h} above ceil({d}/2)")
    return tree_ids, root, d, h


def psn_certificate(graph: Graph) -> tuple[EdgeBijection, PsnCertificate]:
    """Depth-first layout of a minimum-diameter spanning tree with its
    piece-count bound: height + 1 for a tree, ceil(d/2) + 2 otherwise."""
    tree_edges, root, d, _ = min_diameter_spanning_tree(graph)
    bijection, height = _layout(graph, tree_edges, root)
    if graph_is_acyclic(graph):
        bound, construction = height + 1, "tree-dfs"
    else:
        bound, construction = (d + 1) // 2 + 2, "min-diameter-spanning-tree"
    return bijection, PsnCertificate(bound, construction, root, height, d, tree_edges)


# ---------------------------------------------------------------------------
# Lifting path segments back into the graph


def lift_segment(bijection: EdgeBijection, lo: Rational, hi: Rational) -> Share:
    """The preimage of path range [lo, hi], as one canonical share.

    Only positive-length slot overlaps contribute (a segment endpoint that
    grazes a slot boundary adds no material), so only slots floor(lo) to
    ceil(hi) - 1 are visited.  The segment's ends are read as integer
    pairs: lo - floor(lo) and hi - (ceil(hi) - 1) stay in lowest terms,
    since subtracting an integer from a reduced pair keeps its gcd at 1, so
    the two end slots build their intervals with no ``Rational``
    arithmetic, and every slot strictly between them is the layout's shared
    whole-edge interval.  Each edge fills exactly one slot (``EdgeBijection``
    refuses a repeated edge) and every interval has positive length, so the
    intervals, sorted by edge id, are canonical as they stand.  The share's
    value equals the segment's for every agent because the mapping only
    relabels positions; ``piece_count`` counts its connected pieces.
    """
    ln, ld = as_pair(lo)
    hn, hd = as_pair(hi)
    if not (0 <= ln and ln * hd <= hn * ld and hn <= bijection.m * hd):
        raise ValueError("segment outside the path cake")
    first, last = ln // ld, -(-hn // hd) - 1
    an, bn = ln - first * ld, hn - last * hd  # lo - first = an/ld, hi - last = bn/hd
    if first < last:
        intervals = [
            bijection._slot_interval(first, an, ld, 1, 1),
            *bijection._whole[first + 1:last],
            bijection._slot_interval(last, 0, 1, bn, hd),
        ]
        intervals.sort(key=lambda iv: iv.edge)
    elif first == last and an * hd < bn * ld:
        intervals = [bijection._slot_interval(first, an, ld, bn, hd)]
    else:
        intervals = []
    return Share(tuple(intervals))


def _root(parent: dict[str, str], vertex: str) -> str:
    while parent[vertex] != vertex:  # path halving
        parent[vertex] = vertex = parent[parent[vertex]]
    return vertex


def psn_exact_check(graph: Graph, bijection: EdgeBijection) -> int:
    """Exact path similarity number of a layout: the largest number of
    connected pieces that one path segment lifts to, by an O(m^2) sweep.

    Piece counts only change when a segment end crosses a slot boundary, so
    ends ranging over the 2m + 1 half-slot points 0, 1/2, 1, ..., m cover
    every case.  Only the m + 2 points 0, m and the slot midpoints k + 1/2
    need to be ends, by this lemma: moving an end that lies on an inner
    boundary k (0 < k < m) half a slot outward, to k + 1/2 for a right end
    or k - 1/2 for a left end, never lowers the count.  The move adds one
    half-edge of positive length in a slot the segment did not reach, so no
    other interval of the share lies on that edge, and the half-edge
    touches exactly one vertex.  It either joins the one piece that holds
    that vertex or becomes a piece of its own: no two pieces merge, and
    none is lost.  Moving every inner-boundary end outward so maps each
    half-slot segment to a kept segment with at least its count, so the
    maximum over the C(m + 2, 2) kept segments is the maximum over all
    C(2m + 1, 2).

    The sweep rests on the same fact: a half-edge touches one vertex, and a
    whole slot joins its two ends.  Each slot is read as its (left, right)
    vertex pair.  From each start, 0 or a midpoint j + 1/2 (whose segment
    first holds slot j's right vertex), the slots to its right are added one
    at a time to a union-find keyed by vertex, with a running count of its
    components.  Before slot k is added, the segment ending at k + 1/2 has
    that many pieces if slot k's left vertex is already held, and one more
    otherwise; after the last slot, the segment ending at m has exactly that
    many.  Refuses a layout that does not lay out exactly the graph's edges.
    """
    m = bijection.m
    if m > EXACT_CHECK_EDGE_CAP:
        raise ValueError(f"exact check capped at {EXACT_CHECK_EDGE_CAP} edges")
    if sorted(entry.edge for entry in bijection.entries) != sorted(e.id for e in graph.edges):
        raise ValueError("the layout does not lay out exactly the graph's edges")
    slots = []
    for entry in bijection.entries:
        u, w = graph.edge(entry.edge).endpoints
        slots.append((w, u) if entry.reversed else (u, w))
    best = 0
    for start in range(-1, m):  # -1 starts at 0, j at j + 1/2
        if start < 0:
            parent, pieces = {}, 0
        else:
            held = slots[start][1]
            parent, pieces = {held: held}, 1
        for left, right in slots[start + 1:]:
            best = max(best, pieces if left in parent else pieces + 1)
            for vertex in (left, right):
                if vertex not in parent:
                    parent[vertex] = vertex
                    pieces += 1
            a, b = _root(parent, left), _root(parent, right)
            if a != b:
                parent[b] = a
                pieces -= 1
        best = max(best, pieces)
    return best


# ---------------------------------------------------------------------------
# Solving on the flattened cake


def path_instance(instance: Instance, bijection: EdgeBijection) -> Instance:
    """The same valuations transported onto the path cake of the layout."""
    m = bijection.m
    vertices = tuple(f"w{j:03d}" for j in range(m + 1))
    edges = tuple(Edge(f"s{j:03d}", (vertices[j], vertices[j + 1])) for j in range(m))
    path_graph = Graph(vertices, edges)
    valuations = {}
    for agent in instance.agents:
        per_edge = {}
        for j, entry in enumerate(bijection.entries):
            d = instance.density(agent, entry.edge)
            per_edge[f"s{j:03d}"] = d.mirrored() if entry.reversed else d
        valuations[agent] = per_edge
    return Instance(path_graph, instance.agents, valuations)


def _share_to_path_range(share: Share) -> tuple[Rational, Rational]:
    lo = None
    hi = None
    for iv in share.intervals:
        slot = int(iv.edge[1:])
        a, b = slot + iv.lo, slot + iv.hi
        lo = a if lo is None else min(lo, a)
        hi = b if hi is None else max(hi, b)
    return lo, hi


def path_solver(instance: Instance, algorithm: str) -> str:
    """The solver ``psn_allocate`` runs for ``algorithm``: ``auto`` is
    identical-4ef for identical valuations (the path cake keeps them) and
    iterative-divide otherwise; a name that is no path solver raises
    ``ValueError``."""
    if algorithm == "auto":
        algorithm = "identical-4ef" if instance.identical_valuations() else "iterative-divide"
    solver = SOLVERS.get(algorithm)
    if solver is None or not solver.on_path:
        raise ValueError(f"unknown path solver {algorithm!r}")
    return algorithm


def psn_allocate(
    instance: Instance,
    epsilon: Rational = DEFAULT_EPSILON,
    algorithm: str = "auto",
    ledger=None,
) -> tuple[Allocation, PsnCertificate, tuple[int, ...]]:
    """Solve on the flattened cake and lift the (connected) path shares back.

    Each agent's share is the lift of its path share's range.  Values are
    preserved by the layout, so the path solver's fairness guarantee
    transfers verbatim; each share's ``piece_count``, returned per agent, is
    checked against the certificate's bound.
    """
    solver = SOLVERS[path_solver(instance, algorithm)]
    bijection, cert = psn_certificate(instance.graph)
    flat = path_instance(instance, bijection)
    flat_allocation = solver.run(flat, epsilon, ledger, None)

    lifted = []
    pieces = []
    for agent, share in zip(instance.agents, flat_allocation.shares):
        if share.is_empty:
            lifted.append(Share.empty())
            pieces.append(0)
            continue
        lift = lift_segment(bijection, *_share_to_path_range(share))
        count = piece_count(instance.graph, lift)
        check(count <= cert.bound, "lift produced more pieces than certified")
        same_value = eval_share(instance, agent, lift) == eval_share(flat, agent, share)
        check(same_value, "lifting must preserve values exactly")
        lifted.append(lift)
        pieces.append(count)
    result = Allocation(tuple(lifted))
    report = validate_allocation(instance, result)
    check(report.disjoint_ok and report.complete_ok, f"lift broke the partition: {report}")
    return result, cert, tuple(pieces)
