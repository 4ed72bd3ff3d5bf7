"""Seeded instance generators.

Densities are random small-denominator rationals rescaled so every agent's
total is exactly 1; the same spec and seed always produce identical bytes.
Breakpoints have denominators 4, 6, 8 or 12, so an agent's total is summed
as one integer over their common denominator, 24, and a piece of weight w
gets density 24 * w / total: the only rationals built are the final ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

from .model import Edge, Graph, Instance, StepDensity
from .rational import rational

FAMILIES = ("star", "tree", "random-connected", "fig1")


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    m: int = 3                    # edges
    n: int = 2                    # agents
    pieces: int = 2               # max density pieces per edge
    identical: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family != "fig1" and (self.m < 1 or self.n < 1 or self.pieces < 1):
            raise ValueError("need m >= 1, n >= 1, pieces >= 1")


def fig1_instance() -> Instance:
    """Three-spoke star, two agents, uniform value 1/3 per spoke."""
    graph = Graph(
        ("c", "v1", "v2", "v3"),
        (Edge("e1", ("v1", "c")), Edge("e2", ("v2", "c")), Edge("e3", ("v3", "c"))),
    )
    density = {e: StepDensity.uniform(rational(1, 3)) for e in ("e1", "e2", "e3")}
    return Instance(graph, (1, 2), {1: density, 2: density})


DENOMINATORS = (4, 6, 8, 12)
LCM = lcm(*DENOMINATORS)
MAX_WEIGHT = 8
# Every breakpoint, by denominator and numerator.
_POINTS = {d: tuple(rational(i, d) for i in range(d + 1)) for d in DENOMINATORS}


def _random_valuation(rng: random.Random, edge_ids: list[str], pieces: int) -> dict[str, StepDensity]:
    raw: dict[str, tuple[int, list[int], list[int]]] = {}
    total = 0  # in units of 1/LCM
    for e in edge_ids:
        k = rng.randint(1, pieces)
        denom = rng.choice(DENOMINATORS)
        steps = [0, *sorted(rng.sample(range(1, denom), min(k - 1, denom - 1))), denom]
        weights = [rng.randint(0, MAX_WEIGHT) for _ in range(len(steps) - 1)]
        raw[e] = (denom, steps, weights)
        total += LCM // denom * sum(w * (r - l) for w, l, r in zip(weights, steps, steps[1:]))
    if not total:
        # Worthless draws get a uniform fallback on the first edge.
        denom, steps, weights = raw[edge_ids[0]]
        weights[0] = 1
        total = LCM // denom * steps[1]
    # Weight w on a piece is a density of LCM * w / total.
    scaled = [rational(LCM * w, total) for w in range(MAX_WEIGHT + 1)]
    return {
        e: StepDensity(tuple(map(_POINTS[denom].__getitem__, steps)), tuple(map(scaled.__getitem__, weights)))
        for e, (denom, steps, weights) in raw.items()
    }


def _finish(graph: Graph, spec: GeneratorSpec, rng: random.Random) -> Instance:
    edge_ids = sorted(e.id for e in graph.edges)
    if spec.identical:
        shared = _random_valuation(rng, edge_ids, spec.pieces)
        valuations = {a: shared for a in range(1, spec.n + 1)}
    else:
        valuations = {
            a: _random_valuation(rng, edge_ids, spec.pieces) for a in range(1, spec.n + 1)
        }
    return Instance(graph, tuple(range(1, spec.n + 1)), valuations)


def _star_graph(m: int) -> Graph:
    vertices = ("c",) + tuple(f"v{k:02d}" for k in range(1, m + 1))
    edges = tuple(Edge(f"e{k:02d}", (f"v{k:02d}", "c")) for k in range(1, m + 1))
    return Graph(vertices, edges)


def _tree_graph(rng: random.Random, m: int) -> Graph:
    nv = m + 1
    vertices = tuple(f"v{k:02d}" for k in range(nv))
    edges = []
    for k in range(1, nv):
        parent = rng.randrange(k)
        edges.append(Edge(f"e{k:02d}", (vertices[parent], vertices[k])))
    return Graph(vertices, tuple(edges))


def _random_connected_graph(rng: random.Random, m: int) -> Graph:
    nv = rng.randint(2, m + 1)
    vertices = tuple(f"v{k:02d}" for k in range(nv))
    edges = []
    for k in range(1, nv):
        parent = rng.randrange(k)
        edges.append((vertices[parent], vertices[k]))
    while len(edges) < m:
        u = rng.randrange(nv)
        w = rng.randrange(nv)
        if u == w:
            continue  # keep the random family loop-free; loops are unit-tested
        edges.append((vertices[u], vertices[w]))
    return Graph(
        vertices,
        tuple(Edge(f"e{k:02d}", pair) for k, pair in enumerate(edges, start=1)),
    )


def generate(spec: GeneratorSpec) -> Instance:
    if spec.family == "fig1":
        return fig1_instance()
    rng = random.Random(spec.seed)
    if spec.family == "star":
        graph = _star_graph(spec.m)
    elif spec.family == "tree":
        graph = _tree_graph(rng, spec.m)
    else:
        graph = _random_connected_graph(rng, spec.m)
    return _finish(graph, spec, rng)
