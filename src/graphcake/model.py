"""Core data model for graph cakes.

A cake is a connected multigraph whose edges are divisible unit-parameter
segments.  Agents hold piecewise-constant (step) value densities over each
edge.  Every position, density, and value in the engine is an exact
rational (a ``fractions.Fraction`` subclass with exact-type fast paths; see
``rational.py``); no floating point enters any computation, so all fairness
checks are exact comparisons.

Positions on an edge run from 0 at the first listed endpoint to 1 at the
second.  Vertices are shared points: a share containing position 0 of some
edge touches every other share containing the corresponding vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

from .rational import ONE, Rational, ZERO, as_pair, from_pair, pair_sum, rational, reduced_pair


class ContractViolation(AssertionError):
    """An internal algorithm guarantee failed: a bug, not a user error."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise ContractViolation(message)


def checked_epsilon(epsilon: Rational) -> Rational:
    """``epsilon`` as a ``Rational``; every epsilon bound needs 0 < epsilon < 1."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be a rational in (0, 1)")
    return rational(epsilon)


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


def point_node(graph: Graph, edge_id: str, pos: Rational) -> tuple:
    """Canonical key of a cake point: ``("v", vertex)`` at an edge end, so
    vertices unify across incident edges, else ``("p", edge, pos)``."""
    if pos == ZERO:
        return ("v", graph.edge(edge_id).endpoints[0])
    if pos == ONE:
        return ("v", graph.edge(edge_id).endpoints[1])
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


def _component_labels(graph: Graph, ivs: Sequence[EdgeInterval]) -> list[int]:
    """Component label of each interval of a canonical share: the smallest
    index among the intervals joined to it through shared vertices.

    Canonical same-edge intervals lie strictly apart, so two intervals touch
    only when each holds an edge end mapping to the same vertex.  The ends
    are read as integer pairs: an interval holds its edge's first endpoint
    when ``lo``'s numerator is 0, and its second when ``hi``'s numerator
    equals its denominator.  One flat union-find joins each interval to the
    first interval seen at every vertex it holds.  Each root is the smallest
    index of its set, so ``parent[i] <= i`` throughout, and one forward pass
    turns every parent into its root.
    """
    edge_map = graph._edge_map
    parent = list(range(len(ivs)))
    first_at: dict[str, int] = {}
    for i, iv in enumerate(ivs):
        ln, _ = as_pair(iv.lo)
        hn, hd = as_pair(iv.hi)
        if ln and hn != hd:
            continue
        u, w = edge_map[iv.edge].endpoints
        for vertex in (w,) if ln else (u, w) if hn == hd else (u,):
            j = first_at.setdefault(vertex, i)
            r = i
            while parent[j] != j:  # path halving
                parent[j] = j = parent[parent[j]]
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            if j < r:
                parent[r] = j
            elif r < j:
                parent[j] = r
    for i, p in enumerate(parent):
        parent[i] = parent[p]
    return parent


def piece_count(graph: Graph, share: Share) -> int:
    """Number of maximal connected pieces of a share: 0 when empty, and 1
    for a lone interval, even on an edge the graph lacks.  Otherwise the
    share goes through ``canonical_share`` (one linear check when it is
    canonical already), after which two intervals touch only through a
    shared vertex, and the pieces are the distinct ``_component_labels``.
    """
    ivs = share.intervals
    if len(ivs) <= 1:
        return len(ivs)
    return len(set(_component_labels(graph, canonical_share(graph, ivs).intervals)))


def is_connected(graph: Graph, share: Share) -> bool:
    """True iff the share is topologically connected: at most one piece."""
    return piece_count(graph, share) <= 1


def _is_canonical(intervals: Sequence[EdgeInterval]) -> bool:
    """True iff the intervals are sorted by (edge, lo), same-edge intervals
    are strictly apart, and none is a single point."""
    prev = None
    for iv in intervals:
        if not iv.lo < iv.hi:
            return False
        if prev is not None and (iv.edge < prev.edge or (iv.edge == prev.edge and iv.lo <= prev.hi)):
            return False
        prev = iv
    return True


def canonical_share(graph: Graph, intervals: Iterable[EdgeInterval]) -> Share:
    """Sort, merge same-edge runs, and drop redundant degenerate points.

    The represented point set is preserved exactly: a single point survives
    only when no interval of positive length, and no single point kept
    before it, already covers it.  Input that is already in that form with
    no single point (sorted by edge and position, same-edge intervals
    strictly apart) passes one linear check and comes back as is.
    """
    intervals = tuple(intervals)
    if _is_canonical(intervals):
        return Share(intervals)
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
    points: list[EdgeInterval] = []
    for iv in merged:
        (points if iv.degenerate else result).append(iv)
    for iv in points:
        if not share_covers_node(graph, Share(tuple(result)), point_node(graph, iv.edge, iv.lo)):
            result.append(iv)
    return Share(tuple(sorted(result, key=lambda x: (x.edge, x.lo, x.hi))))


# ---------------------------------------------------------------------------
# Step densities


@dataclass(frozen=True)
class StepDensity:
    """Piecewise-constant density over one edge.

    ``breakpoints`` strictly increase from 0 to 1; ``values`` holds one
    nonnegative density per piece.  Construction checks them on integer
    numerators and denominators and builds one table, every entry a reduced
    integer pair: per piece its left breakpoint, its line ``prefix(x) = v * x
    + o`` and the integral up to its right end.

    Every query answers from that table on integer ``(numerator,
    denominator)`` pairs.  ``prefix_at`` (the integral over [0, x]) and
    ``integral_pair`` (over [lo, hi], unreduced) find their pieces by
    position, through one search that cross-multiplies against the left
    breakpoints; the whole edge [0, 1] is the last piece's integral, with no
    arithmetic at all.  ``cut_pair`` finds a Cut's piece by value, against
    the integrals up to each right end.  ``cut_position`` is its
    ``Rational`` entry point, and ``eval_share`` sums the ``integral_pair``
    pairs of a whole share before its one reduction.
    """

    breakpoints: tuple[Rational, ...]
    values: tuple[Rational, ...]
    # Per piece (bn, bd, vn, vd, on, od, cn, cd): the left breakpoint bn/bd,
    # the line prefix(x) = vn/vd * x + on/od and the integral cn/cd up to
    # the piece's right end.
    _pieces: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = list(map(as_pair, self.breakpoints))
        if len(points) < 2 or points[0][0] or points[-1][0] != points[-1][1]:
            raise ValueError("breakpoints must run from 0 to 1")
        # One loop checks the order and builds the table; a missing value
        # reads as 0 until the count check after it.
        values = self.values
        pieces = []
        negative = False
        cn, cd = 0, 1
        for (bn, bd), (rn, rd), value in zip(points, points[1:], chain(values, repeat(0))):
            if bn * rd >= rn * bd:
                raise ValueError("breakpoints must strictly increase")
            vn, vd = as_pair(value)
            negative = negative or vn < 0
            on, od = reduced_pair(cn * vd * bd - vn * bn * cd, cd * vd * bd)  # o = cum - v * b
            cn, cd = reduced_pair(vn * rn * od + on * vd * rd, vd * rd * od)  # v * r + o
            pieces.append((bn, bd, vn, vd, on, od, cn, cd))
        if len(values) != len(pieces):
            raise ValueError("need one density value per piece")
        if negative:
            raise ValueError("densities must be nonnegative")
        object.__setattr__(self, "_pieces", tuple(pieces))

    @classmethod
    def uniform(cls, value: Rational) -> "StepDensity":
        return cls((ZERO, ONE), (rational(value),))

    @property
    def total(self) -> Rational:
        return from_pair(*self._pieces[-1][6:])

    def mirrored(self) -> "StepDensity":
        """The same density read from the other end: position x becomes 1 - x."""
        return StepDensity(
            tuple(ONE - b for b in reversed(self.breakpoints)), tuple(reversed(self.values))
        )

    def _index(self, xn: int, xd: int, start: int = 0) -> int:
        """The last piece, from ``start`` on, whose left breakpoint is at or
        below ``xn/xd``; ``xd`` must be positive."""
        pieces = self._pieces
        i, j = start, len(pieces) - 1
        while i < j:
            mid = (i + j + 1) // 2
            piece = pieces[mid]
            if piece[0] * xd <= xn * piece[1]:
                i = mid
            else:
                j = mid - 1
        return i

    def prefix_at(self, xn: int, xd: int) -> tuple[int, int]:
        """Integral over [0, xn/xd] as a reduced pair, the denominator
        positive; ``xd`` must be positive."""
        _, _, vn, vd, on, od, _, _ = self._pieces[self._index(xn, xd)]
        return reduced_pair(vn * xn * od + on * vd * xd, vd * xd * od)

    def integral_pair(self, lo: Rational, hi: Rational) -> tuple[int, int]:
        """Integral over [lo, hi] as an unreduced ``(numerator, denominator)``
        pair, the denominator positive."""
        ln, ld = as_pair(lo)
        hn, hd = as_pair(hi)
        pieces = self._pieces
        if not ln and hn == hd:
            return pieces[-1][6:]
        i = self._index(ln, ld)
        j = self._index(hn, hd, i)
        if i == j:  # one piece: v * (hi - lo)
            _, _, vn, vd, _, _, _, _ = pieces[i]
            return vn * (hn * ld - ln * hd), vd * hd * ld
        # prefix(hi) - prefix(lo), each on its piece's line
        _, _, vn, vd, on, od, _, _ = pieces[j]
        high_n, high_d = vn * hn * od + on * vd * hd, vd * hd * od
        _, _, vn, vd, on, od, _, _ = pieces[i]
        return pair_sum(high_n, high_d, -(vn * ln * od + on * vd * ld), vd * ld * od)

    def cut_position(self, lo: Rational, hi: Rational, anchor: str, target: Rational) -> Rational:
        """First position (scanning from the anchor end of [lo, hi]) where the
        segment from the anchor reaches exactly ``target``.

        On zero-density plateaus this is the extreme of the valid set nearest
        the anchor; target 0 returns the anchor itself.
        """
        if anchor not in ("lo", "hi"):
            raise ValueError("anchor must be 'lo' or 'hi'")
        ln, ld = self.prefix_at(*as_pair(lo))
        hn, hd = self.prefix_at(*as_pair(hi))
        tn, td = as_pair(target)
        if tn < 0 or tn * ld * hd > (hn * ld - ln * hd) * td:
            raise ValueError("cut target exceeds interval value")
        if not tn:
            return lo if anchor == "lo" else hi
        if anchor == "lo":
            return from_pair(*self.cut_pair(ln, ld, True, tn, td))
        return from_pair(*self.cut_pair(hn, hd, False, tn, td))

    def cut_pair(self, an: int, ad: int, from_lo: bool, tn: int, td: int) -> tuple[int, int]:
        """The Cut from an anchor whose prefix is ``an/ad``: the position
        nearest the anchor where the segment from it is worth exactly
        ``tn/td``, scanning toward 1 when ``from_lo`` and toward 0 otherwise,
        as a reduced pair with a positive denominator.

        Unchecked: the caller guarantees positive denominators, ``0 < tn``,
        and that the target fits between the anchor and the far end of its
        interval.
        """
        # The prefix to reach, w = anchor +- target.
        wn, wd = (an * td + tn * ad if from_lo else an * td - tn * ad), ad * td
        # From lo, the smallest x with prefix(x) == w lies on the first piece
        # whose right end reaches w; from hi, the largest on the first piece
        # whose right end passes w.
        pieces = self._pieces
        i, j = 0, len(pieces) - 1
        while i < j:
            mid = (i + j) // 2
            _, _, _, _, _, _, cn, cd = pieces[mid]
            if (cn * wd < wn * cd) if from_lo else (cn * wd <= wn * cd):
                i = mid + 1
            else:
                j = mid
        _, _, vn, vd, on, od, _, _ = pieces[i]
        # x = (w - o) / v; the piece reaches w with positive density, so
        # vn > 0.
        return reduced_pair((wn * od - on * wd) * vd, wd * od * vn)


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
                tn, td = 0, 1
                for density in val.values():
                    tn, td = pair_sum(tn, td, *density._pieces[-1][6:])
                if tn != td:
                    raise ValueError(f"agent {agent} valuation sums to {from_pair(tn, td)}, not 1")
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


def eval_share(instance: Instance, agent: int, share: Share, ledger=None) -> Rational:
    """Value of a share to an agent: the sum of its interval integrals,
    added as unreduced integer pairs and reduced once.

    The ledger records one Eval per interval, in one call per share.
    """
    intervals = share.intervals
    if ledger is not None:
        ledger.record_eval(len(intervals))
    valuation = instance.valuations.get(agent, {})
    tn, td = 0, 1
    for iv in intervals:
        density = valuation.get(iv.edge)
        if density is None:
            raise ValueError(f"unknown agent {agent} or edge {iv.edge!r}")
        tn, td = pair_sum(tn, td, *density.integral_pair(iv.lo, iv.hi))
    return from_pair(tn, td)


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


def solver_cut(
    instance: Instance,
    agent: int,
    interval: EdgeInterval,
    anchor: str,
    target: Rational,
    ledger=None,
) -> PointOnEdge:
    """``cut`` for a solver, whose own guarantee makes ``target`` fit the
    interval: a target that does not fit is a bug, so it raises
    ``ContractViolation`` where ``cut`` raises ``ValueError``."""
    try:
        return cut(instance, agent, interval, anchor, target, ledger)
    except ValueError as exc:
        raise ContractViolation(f"Cut for agent {agent} on {interval.edge}: {exc}") from exc


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


def _by_edge(graph: Graph, owners: Iterable, shares: Sequence[Share]) -> dict[str, list[tuple]]:
    """``(lo, hi, owner)`` of every interval of the shares, one list per edge
    in graph order; intervals on edges the graph lacks are left out."""
    buckets: dict[str, list[tuple]] = {e.id: [] for e in graph.edges}
    for owner, share in zip(owners, shares):
        for iv in share.intervals:
            bucket = buckets.get(iv.edge)
            if bucket is not None:
                bucket.append((iv.lo, iv.hi, owner))
    return buckets


def validate_partial(instance: Instance, shares: Sequence[Share]) -> ValidationReport:
    """Disjointness and connectivity checks; completeness is not required."""
    graph = instance.graph
    overlaps = []
    for edge_id, entries in _by_edge(graph, instance.agents, shares).items():
        entries.sort()
        for i in range(len(entries)):
            lo_i, hi_i, a_i = entries[i]
            for j in range(i + 1, len(entries)):
                lo_j, hi_j, a_j = entries[j]
                if lo_j >= hi_i:
                    break
                if a_j != a_i and min(hi_i, hi_j) > lo_j:
                    overlaps.append((edge_id, lo_j, min(hi_i, hi_j), a_i, a_j))
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
    for edge_id, entries in _by_edge(graph, range(len(shares)), shares).items():
        for lo, hi in complement_spans([(lo, hi) for lo, hi, _ in entries], ZERO, ONE):
            yield edge_id, lo, hi


def uncovered_share(graph: Graph, shares: Sequence[Share]) -> Share:
    """Everything not covered by the given shares, as a canonical share."""
    return canonical_share(graph, [EdgeInterval(*gap) for gap in _uncovered(graph, shares)])
