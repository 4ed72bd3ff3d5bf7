import random
from fractions import Fraction

import pytest
from hypothesis import settings

from graphcake.generate import fig1_instance
from graphcake.model import Edge, Graph, Instance, Share, StepDensity, _component_labels, canonical_share
from graphcake.rational import from_pair

# Tier-1 draws the same examples on every run and keeps no example database,
# so that a commit passes or fails alike each time.  The profile is loaded
# here, before the test modules build their ``@settings`` from it.
# ``pytest --hypothesis-profile=explore`` draws fresh examples instead.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore")
settings.load_profile("tier1")


def F(a, b=None):
    return Fraction(a) if b is None else Fraction(a, b)


def uniform_density(total):
    return StepDensity((F(0), F(1)), (F(total),))


def single_edge_instance(n=2):
    """Unit interval cake: one edge a-b, uniform value 1."""
    graph = Graph(("a", "b"), (Edge("e1", ("a", "b")),))
    val = {"e1": uniform_density(1)}
    return Instance(graph, tuple(range(1, n + 1)), {i: val for i in range(1, n + 1)})


def path_instance(num_edges, n=2, weights=None):
    """Path cake with uniform per-edge weights (normalized)."""
    vertices = tuple(f"u{k}" for k in range(num_edges + 1))
    edges = tuple(Edge(f"e{k}", (f"u{k - 1}", f"u{k}")) for k in range(1, num_edges + 1))
    graph = Graph(vertices, edges)
    weights = weights or [F(1, num_edges)] * num_edges
    val = {e.id: uniform_density(w) for e, w in zip(edges, weights)}
    return Instance(graph, tuple(range(1, n + 1)), {i: val for i in range(1, n + 1)})


def triangle_instance(n=2):
    graph = Graph(
        ("a", "b", "c"),
        (Edge("e1", ("a", "b")), Edge("e2", ("b", "c")), Edge("e3", ("c", "a"))),
    )
    val = {e: uniform_density(F(1, 3)) for e in ("e1", "e2", "e3")}
    return Instance(graph, tuple(range(1, n + 1)), {i: val for i in range(1, n + 1)})


def star_instance(m, n=2, leaf_weights=None):
    vertices = ("c",) + tuple(f"v{k:02d}" for k in range(1, m + 1))
    edges = tuple(Edge(f"e{k:02d}", (f"v{k:02d}", "c")) for k in range(1, m + 1))
    graph = Graph(vertices, edges)
    leaf_weights = leaf_weights or [F(1, m)] * m
    val = {e.id: uniform_density(w) for e, w in zip(edges, leaf_weights)}
    return Instance(graph, tuple(range(1, n + 1)), {i: val for i in range(1, n + 1)})


# Vertex ids on both sides of "pendant", and two that a pendant leaf name
# would clash with.
MULTIGRAPH_NAMES = ("0", "a", "m", "pendant", "pendant e1", "pendant e2'", "pf", "q", "v00", "z")


def multigraph(seed):
    """A connected multigraph on 1-6 of the names above with up to 8 edges,
    self-loops and parallel edges included."""
    rng = random.Random(seed)
    vertices = rng.sample(MULTIGRAPH_NAMES, rng.randint(1, 6))
    pairs = [(vertices[rng.randrange(k)], vertices[k]) for k in range(1, len(vertices))]
    while not pairs or len(pairs) < rng.randint(len(vertices), 8):
        pairs.append((rng.choice(vertices), rng.choice(vertices)))
    rng.shuffle(pairs)
    ids = rng.sample(range(1, 10), len(pairs))
    return Graph(tuple(vertices), tuple(Edge(f"e{k}", pair) for k, pair in zip(ids, pairs)))


def _mirrored(instance, edge_ids):
    """The same cake with the given edges' endpoints and densities reversed."""

    def flip(d):
        return StepDensity(
            tuple(1 - b for b in reversed(d.breakpoints)), tuple(reversed(d.values))
        )

    graph = instance.graph
    edges = tuple(
        Edge(e.id, e.endpoints[::-1]) if e.id in edge_ids else e for e in graph.edges
    )
    valuations = {
        a: {e: flip(d) if e in edge_ids else d for e, d in val.items()}
        for a, val in instance.valuations.items()
    }
    return Instance(Graph(graph.vertices, edges), instance.agents, valuations)


def share_components(graph, share):
    """Maximal connected pieces of a share, in canonical order: its
    canonical intervals grouped by their ``_component_labels`` label, each
    group a subsequence of the canonical tuple."""
    ivs = canonical_share(graph, share.intervals).intervals
    grouped = {}
    for label, x in zip(_component_labels(graph, ivs), ivs):
        grouped.setdefault(label, []).append(x)
    return [Share(tuple(group)) for group in grouped.values()]


def integral(density, lo, hi):
    """The density's integral over [lo, hi], reduced to one ``Rational``."""
    return from_pair(*density.integral_pair(lo, hi))


def density_value_oracle(density, lo, hi, refine=8):
    """Independent integral: midpoint sums on a breakpoint-refining grid,
    exact for step densities."""
    points = {lo, hi}
    points.update(b for b in density.breakpoints if lo < b < hi)
    grid = sorted(points)
    fine = []
    for a, b in zip(grid, grid[1:]):
        for k in range(refine):
            fine.append((a + (b - a) * F(k, refine), a + (b - a) * F(k + 1, refine)))
    total = F(0)
    for a, b in fine:
        mid = (a + b) / 2
        idx = max(i for i, x in enumerate(density.breakpoints) if x <= mid)
        idx = min(idx, len(density.values) - 1)
        total += density.values[idx] * (b - a)
    return total


@pytest.fixture
def fig1():
    return fig1_instance()
