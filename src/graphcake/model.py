"""Core data model for graph cakes.

A cake is a connected multigraph whose edges are divisible unit-parameter
segments.  Agents hold piecewise-constant (step) value densities over each
edge.  Every position, density, and value in the engine is an exact
rational (a ``fractions.Fraction`` subclass with exact-type fast paths, or
``gmpy2.mpq`` when that optional package is installed; see ``rational.py``);
no floating point enters any computation, so all fairness checks are exact
comparisons.

Positions on an edge run from 0 at the first listed endpoint to 1 at the
second.  Vertices are shared points: a share containing position 0 of some
edge touches every other share containing the corresponding vertex.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .rational import ONE, Rational, ZERO, rational


class ContractViolation(AssertionError):
    """An internal algorithm guarantee failed: a bug, not a user error."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise ContractViolation(message)


# ---------------------------------------------------------------------------
# Graph


@dataclass(frozen=True)
class Edge:
    id: str
    endpoints: tuple[str, str]


@dataclass(frozen=True)
class Graph:
    """Connected multigraph; parallel edges and self-loops are permitted."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    _edge_map: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        if not self.edges:
            raise ValueError("a cake needs at least one edge")
        edge_map = {}
        vset = set(self.vertices)
        for e in self.edges:
            if e.id in edge_map:
                raise ValueError(f"duplicate edge id {e.id!r}")
            for v in e.endpoints:
                if v not in vset:
                    raise ValueError(f"edge {e.id!r} references unknown vertex {v!r}")
            edge_map[e.id] = e
        object.__setattr__(self, "_edge_map", edge_map)
        if not self._is_vertex_connected():
            raise ValueError("graph is not connected")

    def _is_vertex_connected(self) -> bool:
        adjacency: dict[str, set[str]] = {v: set() for v in self.vertices}
        for e in self.edges:
            u, w = e.endpoints
            adjacency[u].add(w)
            adjacency[w].add(u)
        start = self.vertices[0]
        seen = {start}
        stack = [start]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def edge(self, edge_id: str) -> Edge:
        try:
            return self._edge_map[edge_id]
        except KeyError:
            raise ValueError(f"unknown edge id {edge_id!r}") from None

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)


# ---------------------------------------------------------------------------
# Points, intervals, shares


@dataclass(frozen=True, order=True)
class PointOnEdge:
    edge: str
    position: Rational

    def __post_init__(self):
        if not (ZERO <= self.position <= ONE):
            raise ValueError(f"position {self.position} outside [0, 1]")


@dataclass(frozen=True, order=True)
class EdgeInterval:
    """Closed sub-interval [lo, hi] of one edge; lo == hi is a single point."""

    edge: str
    lo: Rational
    hi: Rational

    def __post_init__(self):
        if not (ZERO <= self.lo <= self.hi <= ONE):
            raise ValueError(f"bad interval [{self.lo}, {self.hi}] on {self.edge!r}")

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi


@dataclass(frozen=True)
class Share:
    """A finite union of closed edge intervals.

    Shares produced by the solvers are kept canonical: intervals sorted by
    (edge, lo, hi), same-edge runs merged, redundant single points dropped.
    """

    intervals: tuple[EdgeInterval, ...]

    @classmethod
    def empty(cls) -> "Share":
        return cls(())

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def on_edge(self, edge_id: str) -> list[EdgeInterval]:
        return [iv for iv in self.intervals if iv.edge == edge_id]


def full_cake(graph: Graph) -> Share:
    return Share(tuple(EdgeInterval(e.id, ZERO, ONE) for e in graph.edges))


# ---------------------------------------------------------------------------
# Point/vertex identification and share geometry


def vertex_at(graph: Graph, edge_id: str, pos: Rational) -> str | None:
    """Vertex id if the position is an edge end, else None."""
    if pos == ZERO:
        return graph.edge(edge_id).endpoints[0]
    if pos == ONE:
        return graph.edge(edge_id).endpoints[1]
    return None


def point_node(graph: Graph, edge_id: str, pos: Rational) -> tuple:
    """Canonical key of a cake point: vertices unify across incident edges."""
    v = vertex_at(graph, edge_id, pos)
    if v is not None:
        return ("v", v)
    return ("p", edge_id, pos)


def node_sort_key(node: tuple) -> tuple:
    # Original vertices first, then mid-edge points; deterministic everywhere.
    if node[0] == "v":
        return (0, node[1], ZERO)
    return (1, node[1], node[2])


def share_covers_node(graph: Graph, share: Share, node: tuple) -> bool:
    if node[0] == "p":
        _, edge_id, pos = node
        return any(iv.edge == edge_id and iv.lo <= pos <= iv.hi for iv in share.intervals)
    vid = node[1]
    for iv in share.intervals:
        u, w = graph.edge(iv.edge).endpoints
        if (u == vid and iv.lo == ZERO) or (w == vid and iv.hi == ONE):
            return True
    return False


def share_boundary_nodes(graph: Graph, share: Share) -> set[tuple]:
    nodes = set()
    for iv in share.intervals:
        nodes.add(point_node(graph, iv.edge, iv.lo))
        nodes.add(point_node(graph, iv.edge, iv.hi))
    return nodes


def contact_nodes(graph: Graph, a: Share, b: Share) -> list[tuple]:
    """Points lying in both shares, sorted (vertices first).

    For disjoint shares every common point is an interval boundary of at
    least one side, so scanning boundary nodes is exhaustive.
    """
    candidates = share_boundary_nodes(graph, a) | share_boundary_nodes(graph, b)
    hits = [
        node
        for node in candidates
        if share_covers_node(graph, a, node) and share_covers_node(graph, b, node)
    ]
    return sorted(hits, key=node_sort_key)


def _component_labels(graph: Graph, ivs: Sequence[EdgeInterval]) -> list[int]:
    """Union-find roots of the interval contact relation.

    Two intervals touch when they meet at a point of the same edge or when
    each contains an endpoint position mapping to the same vertex.
    """
    parent = list(range(len(ivs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    by_edge: dict[str, list[int]] = {}
    for idx, iv in enumerate(ivs):
        by_edge.setdefault(iv.edge, []).append(idx)
    for idxs in by_edge.values():
        idxs.sort(key=lambda i: (ivs[i].lo, ivs[i].hi))
        run_end = ivs[idxs[0]].hi
        run_root = idxs[0]
        for i in idxs[1:]:
            if ivs[i].lo <= run_end:
                union(i, run_root)
            else:
                run_root = i
            run_end = max(run_end, ivs[i].hi)

    at_vertex: dict[str, list[int]] = {}
    for idx, iv in enumerate(ivs):
        u, w = graph.edge(iv.edge).endpoints
        if iv.lo == ZERO:
            at_vertex.setdefault(u, []).append(idx)
        if iv.hi == ONE:
            at_vertex.setdefault(w, []).append(idx)
    for idxs in at_vertex.values():
        for i in idxs[1:]:
            union(i, idxs[0])
    return [find(i) for i in range(len(ivs))]


def is_connected(graph: Graph, share: Share) -> bool:
    """True iff the share is topologically connected.

    Two intervals touch when they meet at a point of the same edge or when
    each contains an endpoint position mapping to the same vertex.  An empty
    share is trivially connected.
    """
    ivs = share.intervals
    if len(ivs) <= 1:
        return True
    labels = _component_labels(graph, ivs)
    return all(label == labels[0] for label in labels)


def share_components(graph: Graph, share: Share) -> list[Share]:
    """Maximal connected pieces of a share, in canonical order."""
    ivs = share.intervals
    if not ivs:
        return []
    labels = _component_labels(graph, ivs)
    grouped: dict[int, list[EdgeInterval]] = {}
    for label, iv in zip(labels, ivs):
        grouped.setdefault(label, []).append(iv)
    pieces = [canonical_share(graph, group) for group in grouped.values()]
    return sorted(pieces, key=lambda s: s.intervals)


def canonical_share(graph: Graph, intervals: Iterable[EdgeInterval]) -> Share:
    """Sort, merge same-edge runs, and drop redundant degenerate points.

    The represented point set is preserved exactly: a single point survives
    only when no other interval of the share already covers it.
    """
    by_edge: dict[str, list[EdgeInterval]] = {}
    for iv in intervals:
        by_edge.setdefault(iv.edge, []).append(iv)
    merged: list[EdgeInterval] = []
    for edge_id in sorted(by_edge):
        run: EdgeInterval | None = None
        for iv in sorted(by_edge[edge_id], key=lambda x: (x.lo, x.hi)):
            if run is None:
                run = iv
            elif iv.lo <= run.hi:
                if iv.hi > run.hi:
                    run = EdgeInterval(edge_id, run.lo, iv.hi)
            else:
                merged.append(run)
                run = iv
        if run is not None:
            merged.append(run)
    # A leftover degenerate whose point is a vertex may still duplicate a
    # point covered through another edge; drop those.
    result: list[EdgeInterval] = []
    for iv in merged:
        if iv.degenerate:
            node = point_node(graph, iv.edge, iv.lo)
            others = Share(tuple(x for x in merged if x is not iv))
            if share_covers_node(graph, others, node):
                continue
        result.append(iv)
    return Share(tuple(sorted(result, key=lambda x: (x.edge, x.lo, x.hi))))


# ---------------------------------------------------------------------------
# Step densities


@dataclass(frozen=True)
class StepDensity:
    """Piecewise-constant density over one edge.

    ``breakpoints`` strictly increase from 0 to 1; ``values`` holds one
    nonnegative density per piece.  Cumulative integrals are precomputed, and
    on first use so is each piece's line ``prefix(x) = values[i] * x +
    _offset[i]``: evaluation is a bisect, one exact multiplication and one
    addition.  An integral from 0 is one prefix, and the whole edge [0, 1]
    is the stored total, with no arithmetic at all.
    """

    breakpoints: tuple[Rational, ...]
    values: tuple[Rational, ...]
    _cum: tuple[Rational, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bp, vals = self.breakpoints, self.values
        if len(bp) < 2 or bp[0] != ZERO or bp[-1] != ONE:
            raise ValueError("breakpoints must run from 0 to 1")
        if any(bp[i] >= bp[i + 1] for i in range(len(bp) - 1)):
            raise ValueError("breakpoints must strictly increase")
        if len(vals) != len(bp) - 1:
            raise ValueError("need one density value per piece")
        if any(v < 0 for v in vals):
            raise ValueError("densities must be nonnegative")
        cum = [ZERO]
        for i, v in enumerate(vals):
            cum.append(cum[-1] + v * (bp[i + 1] - bp[i]))
        object.__setattr__(self, "_cum", tuple(cum))

    @cached_property
    def _offset(self) -> tuple[Rational, ...]:
        return tuple(c - v * b for c, v, b in zip(self._cum, self.values, self.breakpoints))

    @classmethod
    def uniform(cls, value: Rational) -> "StepDensity":
        return cls((ZERO, ONE), (rational(value),))

    @property
    def total(self) -> Rational:
        return self._cum[-1]

    def prefix(self, x: Rational) -> Rational:
        """Integral over [0, x]."""
        i = bisect_right(self.breakpoints, x) - 1
        if i >= len(self.values):
            return self._cum[-1]
        return self.values[i] * x + self._offset[i]

    def integral(self, lo: Rational, hi: Rational) -> Rational:
        if not lo:
            return self._cum[-1] if hi == 1 else self.prefix(hi)
        return self.prefix(hi) - self.prefix(lo)

    def cut_position(self, lo: Rational, hi: Rational, anchor: str, target: Rational) -> Rational:
        """First position (scanning from the anchor end of [lo, hi]) where the
        segment from the anchor reaches exactly ``target``.

        On zero-density plateaus this is the extreme of the valid set nearest
        the anchor; target 0 returns the anchor itself.
        """
        if anchor not in ("lo", "hi"):
            raise ValueError("anchor must be 'lo' or 'hi'")
        p_lo, p_hi = self.prefix(lo), self.prefix(hi)
        if target < 0 or target > p_hi - p_lo:
            raise ValueError("cut target exceeds interval value")
        if target == 0:
            return lo if anchor == "lo" else hi
        return self.cut_from_prefix(p_lo if anchor == "lo" else p_hi, anchor, target)

    def cut_from_prefix(self, anchor_prefix: Rational, anchor: str, target: Rational) -> Rational:
        """``cut_position`` for a caller that already knows ``prefix`` of the
        anchor end.

        Unchecked: the caller guarantees ``0 < target`` and that the target
        fits between the anchor and the far end of its interval.
        """
        if anchor == "lo":
            # Smallest x with prefix(x) == prefix(lo) + target.
            t_abs = anchor_prefix + target
            j = bisect_left(self._cum, t_abs)
        else:
            # Largest x with prefix(x) == prefix(hi) - target.
            t_abs = anchor_prefix - target
            j = bisect_right(self._cum, t_abs)
        return (t_abs - self._offset[j - 1]) / self.values[j - 1]


# ---------------------------------------------------------------------------
# Instances and allocations


@dataclass(frozen=True)
class Instance:
    """A cake, agents 1..n, and one normalized valuation per agent.

    Agents with equal valuations share one valuation mapping object, however
    the mappings were passed in, so ``valuations[a] is valuations[b]`` tells
    whether agents a and b value the cake identically.  Evaluations that
    loop over agents use this to compute once per distinct valuation.
    """

    graph: Graph
    agents: tuple[int, ...]
    valuations: Mapping[int, Mapping[str, StepDensity]]

    def __post_init__(self):
        n = len(self.agents)
        if n < 1 or self.agents != tuple(range(1, n + 1)):
            raise ValueError("agents must be exactly 1..n")
        edge_ids = set(self.graph.edge_ids())
        distinct: list[Mapping[str, StepDensity]] = []
        shared: dict[int, Mapping[str, StepDensity]] = {}
        for agent in self.agents:
            val = self.valuations.get(agent)
            if val is None:
                raise ValueError(f"agent {agent} has no valuation")
            same = next((d for d in distinct if d is val or d == val), None)
            if same is None:
                if set(val) != edge_ids:
                    raise ValueError(f"agent {agent} must value every edge exactly once")
                total = sum((d.total for d in val.values()), ZERO)
                if total != 1:
                    raise ValueError(f"agent {agent} valuation sums to {total}, not 1")
                distinct.append(val)
                same = val
            shared[agent] = same
        object.__setattr__(self, "valuations", shared)

    @property
    def n(self) -> int:
        return len(self.agents)

    def density(self, agent: int, edge_id: str) -> StepDensity:
        try:
            return self.valuations[agent][edge_id]
        except KeyError:
            raise ValueError(f"unknown agent {agent} or edge {edge_id!r}") from None

    def identical_valuations(self) -> bool:
        first = self.valuations[self.agents[0]]
        return all(self.valuations[a] is first for a in self.agents[1:])

    def valuation_groups(self, agents: Iterable[int]) -> dict[int, list[int]]:
        """Agents grouped by shared valuation, keyed by each group's first
        agent in the order given."""
        first: dict[int, int] = {}
        groups: dict[int, list[int]] = {}
        for agent in agents:
            lead = first.setdefault(id(self.valuations[agent]), agent)
            groups.setdefault(lead, []).append(agent)
        return groups


@dataclass(frozen=True)
class Allocation:
    """One share per agent, aligned with ``instance.agents``."""

    shares: tuple[Share, ...]

    def share_of(self, agent: int) -> Share:
        return self.shares[agent - 1]


# ---------------------------------------------------------------------------
# Robertson-Webb queries


def eval_interval(instance: Instance, agent: int, interval: EdgeInterval, ledger=None) -> Rational:
    if ledger is not None:
        ledger.record_eval()
    return instance.density(agent, interval.edge).integral(interval.lo, interval.hi)


def eval_share(instance: Instance, agent: int, share: Share, ledger=None) -> Rational:
    """Value of a share to an agent: the sum of its interval integrals."""
    total = ZERO
    for iv in share.intervals:
        total += eval_interval(instance, agent, iv, ledger)
    return total


def eval_share_each(instance: Instance, agents: Iterable[int], share: Share, ledger=None) -> dict[int, Rational]:
    """Value of a share to each of ``agents``, evaluated once per distinct
    valuation; the ledger still records one Eval per agent and interval."""
    values: dict[int, Rational] = {}
    for lead, group in instance.valuation_groups(agents).items():
        value = eval_share(instance, lead, share)
        for agent in group:
            values[agent] = value
    if ledger is not None:
        ledger.record_eval(len(values) * len(share.intervals))
    return values


def cut(
    instance: Instance,
    agent: int,
    interval: EdgeInterval,
    anchor: str,
    target: Rational,
    ledger=None,
) -> PointOnEdge:
    """Point nearest the anchor end of ``interval`` cutting off exactly
    ``target`` of the agent's value."""
    if ledger is not None:
        ledger.record_cut()
    density = instance.density(agent, interval.edge)
    pos = density.cut_position(interval.lo, interval.hi, anchor, target)
    return PointOnEdge(interval.edge, pos)


# ---------------------------------------------------------------------------
# Allocation validation


@dataclass(frozen=True)
class ValidationReport:
    overlaps: tuple[tuple[str, Rational, Rational, int, int], ...]
    gaps: tuple[tuple[str, Rational, Rational], ...]
    disconnected: tuple[int, ...]

    @property
    def disjoint_ok(self) -> bool:
        return not self.overlaps

    @property
    def complete_ok(self) -> bool:
        return not self.gaps

    @property
    def connectivity_ok(self) -> bool:
        return not self.disconnected

    @property
    def ok(self) -> bool:
        return self.disjoint_ok and self.complete_ok and self.connectivity_ok


def validate_partial(instance: Instance, shares: Sequence[Share]) -> ValidationReport:
    """Disjointness and connectivity checks; completeness is not required."""
    graph = instance.graph
    overlaps = []
    for edge in graph.edges:
        entries = []
        for agent, share in zip(instance.agents, shares):
            entries.extend((iv.lo, iv.hi, agent) for iv in share.on_edge(edge.id))
        entries.sort()
        for i in range(len(entries)):
            lo_i, hi_i, a_i = entries[i]
            for j in range(i + 1, len(entries)):
                lo_j, hi_j, a_j = entries[j]
                if lo_j >= hi_i:
                    break
                if a_j != a_i and min(hi_i, hi_j) > lo_j:
                    overlaps.append((edge.id, lo_j, min(hi_i, hi_j), a_i, a_j))
    disconnected = [
        agent
        for agent, share in zip(instance.agents, shares)
        if not is_connected(graph, share)
    ]
    return ValidationReport(tuple(overlaps), (), tuple(disconnected))


def validate_allocation(instance: Instance, allocation: Allocation) -> ValidationReport:
    """Pairwise disjointness, completeness, and per-share connectivity.

    Violations are reported with offending segments; only positive-length
    overlaps or uncovered segments count (shared single points never do).
    """
    partial = validate_partial(instance, allocation.shares)
    gaps = tuple(_uncovered(instance.graph, allocation.shares))
    return ValidationReport(partial.overlaps, gaps, partial.disconnected)


def complement_spans(spans: Iterable[tuple[Rational, Rational]], lo: Rational, hi: Rational) -> list[tuple]:
    """The sub-spans of [lo, hi] that no (lo, hi) span in ``spans`` covers,
    in increasing order; the spans lie within [lo, hi], and a single-point
    span splits the gap around it."""
    gaps = []
    cursor = lo
    for a, b in sorted(spans):
        if a > cursor:
            gaps.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < hi:
        gaps.append((cursor, hi))
    return gaps


def _uncovered(graph: Graph, shares: Sequence[Share]) -> Iterable[tuple[str, Rational, Rational]]:
    """``(edge, lo, hi)`` for each segment no share covers, edge by edge."""
    for edge in graph.edges:
        covered = [(iv.lo, iv.hi) for share in shares for iv in share.on_edge(edge.id)]
        for lo, hi in complement_spans(covered, ZERO, ONE):
            yield edge.id, lo, hi


def uncovered_share(graph: Graph, shares: Sequence[Share]) -> Share:
    """Everything not covered by the given shares, as a canonical share."""
    return canonical_share(graph, [EdgeInterval(*gap) for gap in _uncovered(graph, shares)])
