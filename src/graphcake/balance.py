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

from .divide import divide
from .iterative import identical_four_ef
from .model import (
    Allocation,
    ContractViolation,
    Instance,
    PointOnEdge,
    Share,
    canonical_share,
    check,
    contact_nodes,
    eval_share,
    full_cake,
    node_sort_key,
    share_boundary_nodes,
    validate_allocation,
)
from .star_eps import clamp_epsilon


@dataclass(frozen=True)
class MinMaxPath:
    """Repeat-free chain of touching shares from a minimum to a maximum."""

    agents: tuple[int, ...]
    shares: tuple[Share, ...]

    @property
    def length(self) -> int:
        return len(self.shares)


def _share_values(instance: Instance, allocation: Allocation, ledger=None) -> list[Rational]:
    mu = instance.agents[0]
    return [eval_share(instance, mu, s, ledger) for s in allocation.shares]


def min_max_path(instance: Instance, allocation: Allocation, ledger=None) -> MinMaxPath:
    """Shortest contact-graph path from a minimum share to a maximum share.

    A shortest path never repeats a share, so the four chain conditions hold
    by construction.  Ties on the endpoints go to the smallest agent id, and
    the breadth-first search expands neighbors in agent order.
    """
    values = _share_values(instance, allocation, ledger)
    lo = min(values)
    hi = max(values)
    start = values.index(lo)
    goal = values.index(hi)
    if start == goal:
        return MinMaxPath((instance.agents[start],), (allocation.shares[start],))

    graph = instance.graph
    n = instance.n
    touch: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(n):
        if allocation.shares[i].is_empty:
            continue
        for j in range(i + 1, n):
            if allocation.shares[j].is_empty:
                continue
            if contact_nodes(graph, allocation.shares[i], allocation.shares[j]):
                touch[i].append(j)
                touch[j].append(i)

    prev: dict[int, int] = {start: start}
    frontier = [start]
    while frontier and goal not in prev:
        nxt = []
        for i in frontier:
            for j in sorted(touch[i]):
                if j not in prev:
                    prev[j] = i
                    nxt.append(j)
        frontier = nxt
    check(goal in prev, "share contact graph is disconnected")

    chain = [goal]
    while chain[-1] != start:
        chain.append(prev[chain[-1]])
    chain.reverse()
    return MinMaxPath(
        tuple(instance.agents[i] for i in chain),
        tuple(allocation.shares[i] for i in chain),
    )


def _as_root(node: tuple) -> str | PointOnEdge:
    """The ``divide`` root naming a point key: a vertex id, else a PointOnEdge."""
    return node[1] if node[0] == "v" else PointOnEdge(node[1], node[2])


def _root_point(graph, share: Share) -> str | PointOnEdge:
    """Deterministic anchor inside a share: smallest covered vertex, else the
    smallest interval endpoint."""
    return _as_root(min(share_boundary_nodes(graph, share), key=node_sort_key))


def _contact_point(graph, a: Share, b: Share) -> str | PointOnEdge:
    nodes = contact_nodes(graph, a, b)
    check(bool(nodes), "consecutive chain shares must touch")
    return _as_root(nodes[0])


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
    epsilon: Rational,
    ledger=None,
) -> tuple[tuple[Share, ...], BalanceOutcome]:
    """One balancing pass along a min-to-max chain of shares.

    Walks the chain absorbing under-filled shares into their successors and
    re-cutting, stopping early when a share already meets gamma/(2+epsilon)
    or when an absorbed pair stays small enough to be refilled from the
    maximum share instead.
    """
    graph = instance.graph
    mu = instance.agents[0]
    d = len(shares)
    work = list(shares)
    old_values = tuple(eval_share(instance, mu, s, ledger) for s in shares)
    gamma = old_values[-1]
    agents = tuple(instance.agents)

    def value(i: int) -> Rational:
        return eval_share(instance, mu, work[i], ledger)

    low = gamma / (2 + epsilon)
    for i in range(d - 1):
        if value(i) >= low:
            kind = "case1" if i > 0 else "noop"
            outcome = BalanceOutcome(
                kind, i + 1 if i > 0 else None, gamma, old_values,
                tuple(eval_share(instance, mu, s) for s in work),
            )
            return tuple(work), outcome
        union = canonical_share(graph, work[i].intervals + work[i + 1].intervals)
        if eval_share(instance, mu, union, ledger) < 2 * low:
            # Impossible at the last step: that union contains the maximum share.
            check(i + 1 < d - 1, "under-filled union cannot include the maximum share")
            work[i] = union
            root = _root_point(graph, work[d - 1])
            work[i + 1], work[d - 1] = divide(
                instance, work[d - 1], agents, gamma / 3, root, ledger
            )
            outcome = BalanceOutcome(
                "case2", i + 1, gamma, old_values,
                tuple(eval_share(instance, mu, s) for s in work),
            )
            return tuple(work), outcome
        if i == d - 2:
            root = _root_point(graph, work[d - 1])
        else:
            root = _contact_point(graph, work[i + 1], work[i + 2])
        work[i], work[i + 1] = divide(instance, union, agents, low, root, ledger)
    outcome = BalanceOutcome(
        "case3", None, gamma, old_values,
        tuple(eval_share(instance, mu, s) for s in work),
    )
    return tuple(work), outcome


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


def balance(
    instance: Instance, allocation: Allocation, epsilon: Rational, ledger=None
) -> tuple[Allocation, BalanceOutcome]:
    """Replace the shares along one min-to-max chain by their balanced version."""
    path = min_max_path(instance, allocation, ledger)
    check(path.length >= 2, "balancing requires distinct min and max shares")
    new_shares, outcome = balance_path(instance, path.shares, epsilon, ledger)
    shares = list(allocation.shares)
    for agent, share in zip(path.agents, new_shares):
        shares[agent - 1] = share
    return Allocation(tuple(shares)), outcome


def is_pseudo_four_ef(values: list[Rational]) -> bool:
    """Max/min ratio at most 4 after ignoring one minimum-value share."""
    if min(values) <= 0:
        return False
    rest = sorted(values)[1:]
    if not rest:
        return True
    return max(rest) <= 4 * min(rest)


def recursive_balance(
    instance: Instance,
    allocation: Allocation,
    epsilon: Rational,
    max_calls: int | None = None,
    ledger=None,
    log: list | None = None,
) -> Allocation:
    """Balance until the value ratio is at most 2 + epsilon.

    Asserts after every pass: the allocation stays valid, total value is
    conserved, the pseudo ratio-4 condition holds, and the maximum share
    value never increases.
    """
    if not instance.identical_valuations():
        raise ValueError("balancing requires identical valuations")
    epsilon = clamp_epsilon(epsilon)
    n = instance.n
    if max_calls is None:
        max_calls = int(rational(5 * n * n) / epsilon)
    values = _share_values(instance, allocation, ledger)
    check(is_pseudo_four_ef(values), "balancing needs a pseudo ratio-4 input")
    calls = 0
    while max(values) > (2 + epsilon) * min(values):
        check(calls < max_calls, f"balancing exceeded {max_calls} passes")
        previous_max = max(values)
        allocation, outcome = balance(instance, allocation, epsilon, ledger)
        calls += 1
        if log is not None:
            log.append(outcome)
        values = _share_values(instance, allocation, ledger)
        report = validate_allocation(instance, allocation)
        check(report.ok, f"balancing broke the allocation: {report}")
        check(sum(values) == 1, "balancing must conserve total value")
        check(is_pseudo_four_ef(values), "balancing must preserve the pseudo ratio")
        check(max(values) <= previous_max, "maximum share value increased")
    return allocation


def identical_two_eps(instance: Instance, epsilon: Rational, ledger=None) -> Allocation:
    """Pipeline: adaptive carving, then balancing down to ratio 2 + epsilon."""
    if instance.n == 1:
        return Allocation((full_cake(instance.graph),))
    seeded = identical_four_ef(instance, ledger)
    return recursive_balance(instance, seeded, clamp_epsilon(epsilon), ledger=ledger)
