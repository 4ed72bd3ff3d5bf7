"""Exact fairness metrics and the tiny-instance egalitarian oracle."""

from __future__ import annotations

from dataclasses import dataclass

from .rational import Rational, as_pair, from_pair, rational
from collections.abc import Iterable
from itertools import product

from .model import (
    Allocation,
    EdgeInterval,
    Instance,
    ZERO,
    ONE,
    canonical_share,
    eval_share,
    eval_share_each,
    is_connected,
)


@dataclass(frozen=True)
class FairnessReport:
    """Exact envy, proportionality, and pseudo metrics of an allocation.

    ``envy_factor`` and ``proportionality_factor`` are None when unbounded
    (an agent with a worthless share envying a valuable one); ``pseudo_ef``
    is None when undefined (non-identical valuations, a worthless minimum
    share, or a single agent).
    """

    matrix: tuple[tuple[Rational, ...], ...]
    envy_factor: Rational | None
    additive_envy: Rational
    proportionality_factor: Rational | None
    pseudo_ef: Rational | None

    def as_dict(self) -> dict:
        def enc(x, missing):
            return str(x) if x is not None else missing

        return {
            "matrix": [[str(v) for v in row] for row in self.matrix],
            "envy_factor": enc(self.envy_factor, "unbounded"),
            "additive_envy": str(self.additive_envy),
            "proportionality_factor": enc(self.proportionality_factor, "unbounded"),
            "pseudo_ef": enc(self.pseudo_ef, "undefined"),
        }


def fairness_report(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Exact metrics of an allocation; agents sharing a valuation are
    evaluated once.  The envy maxima are compared on integer pairs and each
    is reduced once.  ``pseudo_ef`` is the ``pseudo_ratio`` of the first
    agent's row, defined under identical valuations and n > 1."""
    columns = [eval_share_each(instance, instance.agents, share) for share in allocation.shares]
    matrix = tuple(tuple(column[i] for column in columns) for i in instance.agents)
    additive_n, additive_d = 0, 1  # the largest other - own
    envy_n, envy_d = 1, 1  # the largest other / own over valuable shares
    unbounded = False
    for i, row in enumerate(matrix):
        own_n, own_d = as_pair(row[i])
        for other_n, other_d in map(as_pair, row):
            diff_n, diff_d = other_n * own_d - own_n * other_d, other_d * own_d
            if diff_n * additive_d > additive_n * diff_d:
                additive_n, additive_d = diff_n, diff_d
            if not other_n:
                continue  # a worthless share never causes envy
            if not own_n:
                unbounded = True
            elif other_n * own_d * envy_d > envy_n * other_d * own_n:
                envy_n, envy_d = other_n * own_d, other_d * own_n
    envy_factor = None if unbounded else from_pair(envy_n, envy_d)
    lowest = min(row[i] for i, row in enumerate(matrix))
    prop = rational(1) / (instance.n * lowest) if lowest else None
    if instance.n == 1 or not instance.identical_valuations():
        pseudo_ef = None
    else:
        pseudo_ef = pseudo_ratio(matrix[0])
    return FairnessReport(matrix, envy_factor, from_pair(additive_n, additive_d), prop, pseudo_ef)


def pseudo_ratio(values: Iterable[Rational]) -> Rational | None:
    """Max/min ratio of share values after ignoring one minimum-value share:
    None when that minimum is worthless, 1 when no other share remains."""
    values = sorted(values)
    if values[0] <= 0:
        return None
    return values[-1] / values[1] if len(values) > 1 else rational(1)


@dataclass(frozen=True)
class Prop1Check:
    """The three metric implications every complete allocation satisfies."""

    prop_bound_from_ef: Rational | None
    additive_bound_from_ef: Rational | None
    additive_bound_from_prop: Rational | None
    ef_implies_prop: bool
    ef_implies_additive: bool
    prop_implies_additive: bool

    @property
    def ok(self) -> bool:
        return self.ef_implies_prop and self.ef_implies_additive and self.prop_implies_additive


def prop1_check(report: FairnessReport, n: int) -> Prop1Check:
    """Check the measured metrics against each other; failure means a bug.

    The implications hold for factors at least 1, so metrics measured below
    1 (better than envy-free or proportional) are clamped up to 1.
    """
    alpha = report.envy_factor
    prop = report.proportionality_factor
    additive = report.additive_envy
    if n < 2 or alpha is None:
        bound_prop = bound_add = None
        ok_prop = ok_add = True
    else:
        alpha = max(alpha, rational(1))
        bound_prop = alpha - (alpha - 1) / n
        bound_add = (alpha - 1) / (alpha + 1)
        ok_prop = prop is not None and prop <= bound_prop
        ok_add = additive <= bound_add
    if n < 2 or prop is None:
        bound_add2 = None
        ok_add2 = True
    else:
        prop = max(prop, rational(1))
        bound_add2 = 1 - rational(2, 1) / (prop * n)
        ok_add2 = additive <= bound_add2
    return Prop1Check(bound_prop, bound_add, bound_add2, ok_prop, ok_add, ok_add2)


# ---------------------------------------------------------------------------
# Brute-force egalitarian oracle (two agents, tiny cakes)

ORACLE_EDGE_CAP = 4


def _breakpoint_grid(instance: Instance, edge_id: str) -> list[Rational]:
    points = set()
    for agent in instance.agents:
        points.update(instance.density(agent, edge_id).breakpoints)
    return sorted(points)


def brute_force_egalitarian(instance: Instance) -> Rational:
    """Best achievable min(agent-1 value of piece 1, agent-2 value of piece 2)
    over all connected two-way partitions of the cake.

    Enumerates every partition shape: a list of cut edges and a map from
    cut positions to the two shares, None where the positions are
    infeasible.  A split shape gives each edge whole to one share or cuts it
    once, either side to share 1; an inner shape gives one share the
    interval [a, b] inside one edge (a > b is infeasible) and the rest of
    the cake to the other.  All but one cut can sit on a density breakpoint
    at some optimum, so each cut in turn is free while the others run over
    their breakpoint grids.  The free cut is tried at every breakpoint and,
    on each piece with both ends feasible, at the exact crossing of the two
    agents' values, which are linear there.
    """
    if instance.n != 2:
        raise ValueError("oracle supports exactly two agents")
    if len(instance.graph.edges) > ORACLE_EDGE_CAP:
        raise ValueError(f"oracle capped at {ORACLE_EDGE_CAP} edges")
    graph = instance.graph
    edge_ids = sorted(e.id for e in graph.edges)
    a1, a2 = instance.agents
    grid = {e: _breakpoint_grid(instance, e) for e in edge_ids}

    def split_shape(owners, lower):
        """Whole edges to their owner's share; cut edge k's [0, pos] to
        share ``lower[k]`` and [pos, 1] to the other."""
        cut_edges = [e for e, o in zip(edge_ids, owners) if o is None]
        whole = [[EdgeInterval(e, ZERO, ONE) for e, o in zip(edge_ids, owners) if o == k] for k in (0, 1)]

        def build(positions):
            shares = (list(whole[0]), list(whole[1]))
            for e, pos, low in zip(cut_edges, positions, lower):
                shares[low].append(EdgeInterval(e, ZERO, pos))
                shares[1 - low].append(EdgeInterval(e, pos, ONE))
            return shares

        return cut_edges, build

    def inner_shape(edge_id, holder):
        """Share ``holder`` is [a, b] on one edge; the other share is the rest."""
        rest = [EdgeInterval(e, ZERO, ONE) for e in edge_ids if e != edge_id]

        def build(positions):
            a, b = positions
            if a > b:
                return None
            piece = [EdgeInterval(edge_id, a, b)]
            others = rest + [EdgeInterval(edge_id, ZERO, a), EdgeInterval(edge_id, b, ONE)]
            return (piece, others) if holder == 0 else (others, piece)

        return [edge_id, edge_id], build

    shapes = [
        split_shape(owners, lower)
        for owners in product((0, 1, None), repeat=len(edge_ids))
        for lower in product((0, 1), repeat=owners.count(None))
    ] + [inner_shape(e, holder) for e in edge_ids for holder in (0, 1)]

    best = ZERO

    def score(shares) -> tuple[Rational, Rational]:
        """Keep the candidate's min value if both shares are connected, and
        return agent 1's value of share 1 and agent 2's of share 2."""
        nonlocal best
        s1, s2 = (canonical_share(graph, s) for s in shares)
        values = eval_share(instance, a1, s1), eval_share(instance, a2, s2)
        if is_connected(graph, s1) and is_connected(graph, s2):
            best = max(best, min(values))
        return values

    for cut_edges, build in shapes:
        if not cut_edges:
            score(build(()))
        for free, edge_id in enumerate(cut_edges):
            points = grid[edge_id]
            for fixed in product(*(grid[e] for k, e in enumerate(cut_edges) if k != free)):

                def at(t):
                    return build(fixed[:free] + (t,) + fixed[free:])

                ends = []
                for t in points:
                    shares = at(t)
                    ends.append(None if shares is None else score(shares))
                for lo, hi, end_lo, end_hi in zip(points, points[1:], ends, ends[1:]):
                    if end_lo is None or end_hi is None:
                        continue
                    (f_lo, g_lo), (f_hi, g_hi) = end_lo, end_hi
                    df, dg = f_hi - f_lo, g_hi - g_lo
                    if df != dg:
                        t = lo + (g_lo - f_lo) * (hi - lo) / (df - dg)
                        if lo <= t <= hi:
                            score(at(t))
    return best
