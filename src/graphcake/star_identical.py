"""Bag filling on star cakes with identical valuations: exact ratio-2 shares.

Peel leaf-anchored segments worth exactly 1/n while any edge still carries
that much, then merge the remaining center-anchored stubs, always the two
cheapest first, until one group per unserved agent remains.  Both run on
``leaf_first(instance)``, and ``mirror_back`` maps the shares back.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rational import Rational, rational

from .model import (
    Allocation,
    EdgeInterval,
    Instance,
    Share,
    ZERO,
    ONE,
    canonical_share,
    check,
    solver_cut as cut,
    eval_share,
    full_cake,
    uncovered_share,
    validate_allocation,
)
from .star_eps import leaf_first, mirror_back


@dataclass(frozen=True)
class StubGroup:
    """Stubs merged into one share; all contain the center vertex."""

    stubs: tuple[EdgeInterval, ...]
    value: Rational

    @property
    def min_edge(self) -> str:
        return min(iv.edge for iv in self.stubs)


def _peel(star: Instance, frontier: dict, worth: dict, quota: Rational, ledger=None) -> Share | None:
    """Cut a leaf-anchored segment worth exactly ``quota`` off the smallest
    edge whose residual ``[frontier[e], 1]``, worth ``worth[e]``, carries that
    much, or return None.  The Cut is exact, so the residual's worth drops by
    exactly ``quota`` and is not valued again."""
    candidates = [edge_id for edge_id, value in worth.items() if value >= quota]
    if not candidates:
        return None
    edge_id = min(candidates)
    lo = frontier[edge_id]
    pos = cut(star, star.agents[0], EdgeInterval(edge_id, lo, ONE), "lo", quota, ledger).position
    frontier[edge_id] = pos
    worth[edge_id] -= quota
    return canonical_share(star.graph, [EdgeInterval(edge_id, lo, pos)])


def star_identical_2ef(instance: Instance, ledger=None) -> Allocation:
    """Allocation of an identical-valuations star with value ratio <= 2.

    Spokes may run either way: the bag filling runs on ``leaf_first(instance)``.
    Each edge is valued once; the stubs are valued again only to check them."""
    if not instance.identical_valuations():
        raise ValueError("bag filling requires identical valuations")
    star, flipped = leaf_first(instance)
    if instance.n == 1:
        return Allocation((full_cake(instance.graph),))

    graph = star.graph
    mu = instance.agents[0]
    n = instance.n
    quota = rational(1, n)

    # Peel leaf-anchored segments of value exactly 1/n.  `frontier` tracks the
    # leaf-side end of the unpeeled remainder [frontier, 1] of each edge, and
    # `worth` that remainder's value.
    frontier = {e.id: ZERO for e in graph.edges}

    def residual(edge_id: str) -> EdgeInterval:
        return EdgeInterval(edge_id, frontier[edge_id], ONE)

    worth = {e.id: eval_share(star, mu, Share((residual(e.id),)), ledger) for e in graph.edges}
    peels: list[tuple[int, Share]] = []
    unserved = list(instance.agents)
    while unserved and (share := _peel(star, frontier, worth, quota, ledger)) is not None:
        peels.append((unserved.pop(0), share))

    shares: dict[int, Share] = dict(peels)
    k = len(unserved)
    stub_star = uncovered_share(graph, list(shares.values()))

    if k == 0:
        # Whatever is left carries no value; keep it attached to the last peel.
        check(eval_share(star, mu, stub_star) == 0, "leftover after full peel must be worthless")
        if not stub_star.is_empty and peels:
            last = peels[-1][0]
            shares[last] = canonical_share(graph, shares[last].intervals + stub_star.intervals)
    else:
        groups = []
        for e in graph.edges:
            iv = residual(e.id)
            v = eval_share(star, mu, Share((iv,)))
            check(v == worth[e.id] < quota, f"stub on {iv.edge} worth {v}, carried {worth[e.id]}, not below 1/n")
            groups.append(StubGroup((iv,), v))
        total = sum((g.value for g in groups), rational(0))
        check(total == rational(k, n), f"stub total {total} != k/n")
        check(len(groups) > k, "stub total k/n forces more stubs than agents")
        merge_log: list[Rational] = []
        while len(groups) > k:
            groups.sort(key=lambda g: (g.value, g.min_edge))
            a, b = groups[0], groups[1]
            merged = StubGroup(a.stubs + b.stubs, a.value + b.value)
            check(
                not merge_log or merged.value >= merge_log[-1],
                "merged group values must be non-decreasing",
            )
            merge_log.append(merged.value)
            groups = [merged] + groups[2:]
        g_star = merge_log[-1]
        check(g_star == max(g.value for g in groups), "last merge must hold the maximum")
        check(quota <= g_star <= 2 * quota, f"final merged group value {g_star} outside [1/n, 2/n]")
        groups.sort(key=lambda g: g.min_edge)
        for agent, group in zip(unserved, groups):
            check(group.value >= g_star / 2, f"group for agent {agent} below half the maximum")
            shares[agent] = canonical_share(graph, group.stubs)

    allocation = mirror_back(instance, flipped, Allocation(tuple(shares[a] for a in instance.agents)))
    report = validate_allocation(instance, allocation)
    check(report.ok, f"bag filling produced an invalid allocation: {report}")
    values = [eval_share(instance, mu, s) for s in allocation.shares]
    check(min(values) > 0, "bag filling must give everyone positive value")
    check(max(values) <= 2 * min(values), "value ratio above 2")
    return allocation
