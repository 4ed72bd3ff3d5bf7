"""Share balancing for identical valuations on arbitrary graphs.

Starting from the adaptive-threshold allocation (value ratio at most 4),
the balancer repeatedly walks a chain of touching shares from a minimum-value
share to a maximum-value one and re-cuts along the chain until the overall
max/min value ratio drops to 2 + epsilon.  The number of re-cut rounds is
bounded by floor(5 n^2 / epsilon); exceeding that is a hard error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rational import Rational, rational

from .divide import _divide
from .fairness import pseudo_ratio
from .iterative import identical_four_ef
from .model import (
    Allocation,
    ContractViolation,
    Instance,
    PointOnEdge,
    Share,
    bfs,
    canonical_share,
    check,
    checked_epsilon,
    eval_share,
    full_cake,
    node_sort_key,
    share_boundary_nodes,
    validate_allocation,
)


def min_max_path(instance: Instance, allocation: Allocation, values: list[Rational]) -> list[int]:
    """Share indices of a shortest contact-graph path from a minimum share to
    a maximum share, e.g. ``[1, 0]``; ``[start]`` when they coincide.

    A shortest path never repeats a share, so the four chain conditions hold
    by construction.  Ties on the endpoints go to the smallest index, and
    the breadth-first search expands neighbors in index order.  ``values``
    are the shares' values, which the caller holds; nothing is evaluated.

    The shares must be pairwise disjoint up to points, with no single-point
    interval, as in a valid allocation of shares worth more than 0.  Then a
    point lies in two shares exactly when it is an interval end of each, so
    two shares touch when their ``share_boundary_nodes`` meet.
    """
    start = values.index(min(values))
    goal = values.index(max(values))
    if start == goal:
        return [start]

    points = [share_boundary_nodes(instance.graph, share) for share in allocation.shares]
    n = len(points)
    # touch[i] holds (j, i) for each share j touching share i, ascending by
    # construction, so the search's edge map is each share's predecessor.
    touch: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if not points[i].isdisjoint(points[j]):
                touch[i].append((j, i))
                touch[j].append((i, j))
    _, prev = bfs(touch, [start])
    check(goal in prev, "share contact graph is disconnected")

    chain = [goal]
    while chain[-1] != start:
        chain.append(prev[chain[-1]])
    chain.reverse()
    return chain


def _as_root(node: tuple) -> str | PointOnEdge:
    """The ``divide`` root naming a point key: a vertex id, else a PointOnEdge."""
    return node[1] if node[0] == "v" else PointOnEdge(node[1], node[2])


def _root_point(graph, share: Share) -> str | PointOnEdge:
    """Deterministic anchor inside a share: smallest covered vertex, else the
    smallest interval endpoint."""
    return _as_root(min(share_boundary_nodes(graph, share), key=node_sort_key))


def _contact_point(graph, a: Share, b: Share) -> str | PointOnEdge:
    """First common point, vertices first, of two touching chain shares."""
    nodes = share_boundary_nodes(graph, a) & share_boundary_nodes(graph, b)
    check(bool(nodes), "consecutive chain shares must touch")
    return _as_root(min(nodes, key=node_sort_key))


@dataclass(frozen=True)
class BalanceOutcome:
    """Which re-cut pattern a chain pass produced, for exact conformance checks."""

    kind: str                      # "case1" | "case2" | "case3" | "noop"
    index: int | None
    gamma: Rational
    old_values: tuple[Rational, ...]
    new_values: tuple[Rational, ...]


def balance_path(
    instance: Instance,
    shares: tuple[Share, ...],
    values: list[Rational],
    epsilon: Rational,
    ledger=None,
) -> tuple[tuple[Share, ...], BalanceOutcome]:
    """One balancing pass along a min-to-max chain of shares.

    Walks the chain absorbing under-filled shares into their successors and
    re-cutting.  The walk exits once, with the outcome's kind and 1-based
    index: "noop" when the first share already meets gamma/(2+epsilon),
    "case1" (index i) when share i is the first later one to meet it,
    "case2" (index i) when shares i and i + 1 together stay small enough to
    be refilled from the maximum share instead, and "case3" when the walk
    reaches the maximum share.

    The valuations must be identical.  ``values`` are the chain shares'
    values, which the caller holds.  A union's value is the sum of its two
    shares' values, exact because chain shares are disjoint up to points,
    and each re-cut's two shares are valued by the ``divide`` core's own
    check, which is handed that value.  The walk itself values nothing.
    """
    graph = instance.graph
    mu = instance.agents[0]
    d = len(shares)
    work = list(shares)
    values = list(values)
    old_values = tuple(values)
    gamma = old_values[-1]
    agents = tuple(instance.agents)

    def recut(i: int, j: int, subcake: Share, value: Rational, beta: Rational, root) -> None:
        totals = dict.fromkeys(agents, value)
        work[i], work[j], got, _pairs = _divide(instance, subcake, agents, totals, beta, root, ledger)
        values[i], values[j] = got[mu]

    low = gamma / (2 + epsilon)
    kind, index = "case3", None
    for i in range(d - 1):
        if values[i] >= low:
            kind, index = ("case1", i + 1) if i > 0 else ("noop", None)
            break
        union = canonical_share(graph, work[i].intervals + work[i + 1].intervals)
        union_value = values[i] + values[i + 1]
        if union_value < 2 * low:
            # Impossible at the last step: that union contains the maximum share.
            check(i + 1 < d - 1, "under-filled union cannot include the maximum share")
            work[i], values[i] = union, union_value
            recut(i + 1, d - 1, work[d - 1], gamma, gamma / 3, _root_point(graph, work[d - 1]))
            kind, index = "case2", i + 1
            break
        if i == d - 2:
            root = _root_point(graph, work[d - 1])
        else:
            root = _contact_point(graph, work[i + 1], work[i + 2])
        recut(i, i + 1, union, union_value, low, root)
    return tuple(work), BalanceOutcome(kind, index, gamma, old_values, tuple(values))


def verify_balance_outcome(outcome: BalanceOutcome, epsilon: Rational) -> None:
    """Exact value-pattern check of a balancing pass (raises on mismatch).

    Applies when the input chain came from an allocation that ignores one
    minimum share at ratio 4 (pseudo condition) and is not yet balanced.
    """
    gamma = outcome.gamma
    low = gamma / (2 + epsilon)
    old, new = outcome.old_values, outcome.new_values
    d = len(old)
    check(sum(old) == sum(new), "balancing must conserve total value")
    if outcome.kind == "case1":
        i = outcome.index
        check(i is not None and 2 <= i <= d - 1, "case1 index out of range")
        for j in range(i - 1):
            check(low <= new[j] < 2 * low, f"case1 share {j + 1} outside window")
        check(low <= new[i - 1] < old[i - 1], "case1 stopping share outside window")
        for j in range(i, d):
            check(new[j] == old[j], "case1 must not touch later shares")
    elif outcome.kind == "case2":
        i = outcome.index
        check(i is not None and 1 <= i <= d - 2, "case2 index out of range")
        for j in list(range(i + 1)) + [d - 1]:
            check(gamma / 4 <= new[j] < 2 * low, f"case2 share {j + 1} outside window")
        for j in range(i + 1, d - 1):
            check(new[j] == old[j], "case2 must not touch middle shares")
    elif outcome.kind == "case3":
        for j in range(d - 1):
            check(low <= new[j] < 2 * low, f"case3 share {j + 1} outside window")
        check(0 < new[d - 1] < old[d - 1] == gamma, "case3 last share outside window")
    else:
        raise ContractViolation(f"unclassifiable balancing pass: {outcome.kind}")


def is_pseudo_four_ef(values: list[Rational]) -> bool:
    """Max/min ratio at most 4 after ignoring one minimum-value share."""
    ratio = pseudo_ratio(values)
    return ratio is not None and ratio <= 4


def recursive_balance(
    instance: Instance,
    allocation: Allocation,
    epsilon: Rational,
    ledger=None,
    log: list | None = None,
) -> Allocation:
    """Balance until the value ratio is at most 2 + epsilon.

    Asserts after every pass: its shares fall in the windows of its case,
    the allocation stays valid, total value is conserved, the pseudo ratio-4
    condition holds, and the maximum share value never increases.  The
    shares are valued once up front; after that each pass's outcome carries
    the values of the shares it re-cut, into these checks and into the next
    pass's ``min_max_path`` and ``balance_path``.
    """
    if not instance.identical_valuations():
        raise ValueError("balancing requires identical valuations")
    if not validate_allocation(instance, allocation).ok:
        raise ValueError("balancing requires a valid allocation")
    epsilon = checked_epsilon(epsilon)
    n = instance.n
    max_calls = int(rational(5 * n * n) / epsilon)
    mu = instance.agents[0]
    values = [eval_share(instance, mu, s, ledger) for s in allocation.shares]
    check(is_pseudo_four_ef(values), "balancing needs a pseudo ratio-4 input")
    calls = 0
    while max(values) > (2 + epsilon) * min(values):
        check(calls < max_calls, f"balancing exceeded {max_calls} passes")
        previous_max = max(values)
        chain = min_max_path(instance, allocation, values)
        check(len(chain) >= 2, "balancing requires distinct min and max shares")
        new_shares, outcome = balance_path(
            instance, tuple(allocation.shares[i] for i in chain), [values[i] for i in chain], epsilon, ledger
        )
        verify_balance_outcome(outcome, epsilon)
        shares = list(allocation.shares)
        for i, share, value in zip(chain, new_shares, outcome.new_values):
            shares[i] = share
            values[i] = value
        allocation = Allocation(tuple(shares))
        calls += 1
        if log is not None:
            log.append(outcome)
        report = validate_allocation(instance, allocation)
        check(report.ok, f"balancing broke the allocation: {report}")
        check(sum(values) == 1, "balancing must conserve total value")
        check(is_pseudo_four_ef(values), "balancing must preserve the pseudo ratio")
        check(max(values) <= previous_max, "maximum share value increased")
    return allocation


def identical_two_eps(instance: Instance, epsilon: Rational, ledger=None) -> Allocation:
    """Pipeline: adaptive carving, then balancing down to ratio 2 + epsilon."""
    checked_epsilon(epsilon)  # a single agent skips the balancing, not the rule
    if instance.n == 1:
        return Allocation((full_cake(instance.graph),))
    seeded = identical_four_ef(instance, ledger)
    return recursive_balance(instance, seeded, epsilon, ledger=ledger)
