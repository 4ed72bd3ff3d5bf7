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
    Share,
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

    Enumerates every partition structure (whole-edge assignments plus one
    boundary cut per split edge, and the one-interval-inside-one-edge
    family), then optimizes cut positions exactly: all but one cut can sit on
    a density breakpoint at some optimum, and the last coordinate is solved
    in closed form on each density piece.
    """
    if instance.n != 2:
        raise ValueError("oracle supports exactly two agents")
    if len(instance.graph.edges) > ORACLE_EDGE_CAP:
        raise ValueError(f"oracle capped at {ORACLE_EDGE_CAP} edges")
    graph = instance.graph
    edge_ids = sorted(e.id for e in graph.edges)
    a1, a2 = instance.agents

    base_grid = {e: _breakpoint_grid(instance, e) for e in edge_ids}

    best = ZERO

    def value(agent: int, intervals: list[EdgeInterval]) -> Rational:
        return eval_share(instance, agent, Share(tuple(intervals)))

    def consider(share1: list[EdgeInterval], share2: list[EdgeInterval]) -> None:
        nonlocal best
        s1 = canonical_share(graph, share1)
        s2 = canonical_share(graph, share2)
        if not is_connected(graph, s1) or not is_connected(graph, s2):
            return
        score = min(eval_share(instance, a1, s1), eval_share(instance, a2, s2))
        if score > best:
            best = score

    def shares_for(assignment: dict[str, str], cuts: dict[str, tuple[Rational, bool]]):
        share1: list[EdgeInterval] = []
        share2: list[EdgeInterval] = []
        for e in edge_ids:
            kind = assignment[e]
            if kind == "one":
                share1.append(EdgeInterval(e, ZERO, ONE))
            elif kind == "two":
                share2.append(EdgeInterval(e, ZERO, ONE))
            else:
                pos, lo_side_to_one = cuts[e]
                lo_part = EdgeInterval(e, ZERO, pos)
                hi_part = EdgeInterval(e, pos, ONE)
                if lo_side_to_one:
                    share1.append(lo_part)
                    share2.append(hi_part)
                else:
                    share2.append(lo_part)
                    share1.append(hi_part)
        return share1, share2

    def optimize_last_cut(assignment, cuts, free_edge: str, lo_side_to_one: bool) -> None:
        """Solve the balance equation for one cut exactly on each piece."""
        d1 = instance.density(a1, free_edge)
        d2 = instance.density(a2, free_edge)
        pieces = sorted(set(d1.breakpoints) | set(d2.breakpoints))
        for lo, hi in zip(pieces, pieces[1:]):
            # f(t) = value1(share1), g(t) = value2(share2), both linear on the piece.
            for t in (lo, hi):
                cuts[free_edge] = (t, lo_side_to_one)
                consider(*shares_for(assignment, cuts))
            s1_lo, s2_lo = shares_for(assignment, {**cuts, free_edge: (lo, lo_side_to_one)})
            s1_hi, s2_hi = shares_for(assignment, {**cuts, free_edge: (hi, lo_side_to_one)})
            f_lo, f_hi = value(a1, s1_lo), value(a1, s1_hi)
            g_lo, g_hi = value(a2, s2_lo), value(a2, s2_hi)
            df, dg = f_hi - f_lo, g_hi - g_lo
            if df == dg:
                continue
            t = lo + (g_lo - f_lo) * (hi - lo) / (df - dg)
            if lo <= t <= hi:
                cuts[free_edge] = (t, lo_side_to_one)
                consider(*shares_for(assignment, cuts))

    for kinds in product(("one", "two", "split"), repeat=len(edge_ids)):
        assignment = dict(zip(edge_ids, kinds))
        split_edges = [e for e in edge_ids if assignment[e] == "split"]
        if not split_edges:
            consider(*shares_for(assignment, {}))
            continue
        for orientation in product((True, False), repeat=len(split_edges)):
            orient = dict(zip(split_edges, orientation))
            for free_edge in split_edges:
                others = [e for e in split_edges if e != free_edge]
                for combo in product(*[base_grid[e] for e in others]):
                    cuts = {e: (pos, orient[e]) for e, pos in zip(others, combo)}
                    optimize_last_cut(assignment, cuts, free_edge, orient[free_edge])

    # One share strictly inside a single edge, the rest to the other agent.
    # Both interval ends are cut variables; fix one on the grid and solve the
    # other exactly, mirroring the split-edge treatment.
    for e in edge_ids:
        grid_e = base_grid[e]
        others = [EdgeInterval(x, ZERO, ONE) for x in edge_ids if x != e]
        pieces = _breakpoint_grid(instance, e)

        def consider_inner(a_pos: Rational, b_pos: Rational, inner_first: bool) -> None:
            if not (ZERO <= a_pos <= b_pos <= ONE):
                return
            piece = [EdgeInterval(e, a_pos, b_pos)]
            rest = others + [EdgeInterval(e, ZERO, a_pos), EdgeInterval(e, b_pos, ONE)]
            if inner_first:
                consider(piece, rest)
            else:
                consider(rest, piece)

        for inner_first in (True, False):
            inner, outer = (a1, a2) if inner_first else (a2, a1)
            d_in = instance.density(inner, e)
            d_out = instance.density(outer, e)
            out_rest = sum(
                (instance.density(outer, x).total for x in edge_ids if x != e), ZERO
            )
            for fixed, free_is_hi in [(g, True) for g in grid_e] + [(g, False) for g in grid_e]:
                for lo, hi in zip(pieces, pieces[1:]):
                    for t in (lo, hi):
                        if free_is_hi:
                            consider_inner(fixed, t, inner_first)
                        else:
                            consider_inner(t, fixed, inner_first)

                    def f(t: Rational) -> Rational:
                        a_pos, b_pos = (fixed, t) if free_is_hi else (t, fixed)
                        if a_pos > b_pos:
                            return None
                        return d_in.integral(a_pos, b_pos)

                    def g(t: Rational) -> Rational:
                        a_pos, b_pos = (fixed, t) if free_is_hi else (t, fixed)
                        if a_pos > b_pos:
                            return None
                        return out_rest + d_out.total - d_out.integral(a_pos, b_pos)

                    f_lo, f_hi, g_lo, g_hi = f(lo), f(hi), g(lo), g(hi)
                    if None in (f_lo, f_hi, g_lo, g_hi):
                        continue
                    df, dg = f_hi - f_lo, g_hi - g_lo
                    if df == dg:
                        continue
                    t = lo + (g_lo - f_lo) * (hi - lo) / (df - dg)
                    if lo <= t <= hi:
                        if free_is_hi:
                            consider_inner(fixed, t, inner_first)
                        else:
                            consider_inner(t, fixed, inner_first)
    return best
