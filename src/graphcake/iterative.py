"""Iterative carving of the cake into one share per agent.

Two threshold schedules drive the same loop: a fixed quarter threshold,
which yields an allocation with additive envy at most 1/2 for arbitrary
valuations, and an adaptive schedule for identical valuations, which keeps
every share within [1/(2n-1), (4 - 2^-(n-3))/(2n-1)] and therefore bounds
the value ratio by 4 - 2^-(n-3).
"""

from __future__ import annotations

from .rational import ONE, Rational, rational

from .divide import _divide
from .model import (
    Allocation,
    Instance,
    Share,
    check,
    full_cake,
)


FIXED_QUARTER = "fixed-quarter"
ADAPTIVE_IDENTICAL = "adaptive-identical"


def _is_adaptive(schedule: str) -> bool:
    """True for the adaptive schedule, False for the fixed one; any other
    value raises ``ValueError``."""
    if schedule not in (FIXED_QUARTER, ADAPTIVE_IDENTICAL):
        raise ValueError(f"unknown threshold schedule {schedule!r}")
    return schedule == ADAPTIVE_IDENTICAL


def threshold(schedule: str, i: int, n: int, allocated: Rational) -> Rational:
    """Carving threshold for round ``i`` of ``n - 1``, after the previous
    rounds handed out a total value of ``allocated``.

    Fixed: always 1/4.  Adaptive: half of (2i/(2n-1) minus ``allocated``),
    which stays strictly above 1/(2n-1) while the loop keeps its
    running-sum invariant.
    """
    if not (1 <= i <= n - 1):
        raise ValueError(f"round {i} outside 1..{n - 1}")
    if _is_adaptive(schedule):
        xi = rational(1, 2 * n - 1)
        return (2 * i * xi - allocated) / 2
    return rational(1, 4)


def _pow2(exponent: int) -> Rational:
    """2**exponent, built from ints: ``Rational`` inherits ``**`` from
    ``Fraction``, which would return a plain ``Fraction``."""
    return rational(1 << exponent, 1) if exponent >= 0 else rational(1, 1 << -exponent)


def iterative_divide(
    instance: Instance,
    schedule: str = FIXED_QUARTER,
    ledger=None,
) -> Allocation:
    """Allocate by repeatedly splitting the unallocated remainder.

    Each round carves a share worth at least the round threshold to its
    recipient and strictly less than twice that to everyone remaining; when
    nobody values the remainder at the threshold (fixed schedule only) the
    recipient takes an empty share.  The adaptive schedule requires identical
    valuations and asserts its per-round value-window invariants exactly.

    Each piece is valued once: the whole cake is worth exactly 1 to every
    agent, and each round's divide returns every agent's values of the share
    it carves and of the new remainder, from its own partition check.  Those
    values pick the recipient, feed the adaptive windows and are the next
    round's remainder worth.  The check's integral of each remainder
    interval comes back too and is handed to the next round's divide, whose
    tree over that remainder (rooted at a vertex) has exactly those
    intervals.  The queries are recorded where divide computes them.
    """
    n = instance.n
    adaptive = _is_adaptive(schedule)
    if adaptive and n > 1 and not instance.identical_valuations():
        raise ValueError("adaptive schedule requires identical valuations")
    if n == 1:
        return Allocation((full_cake(instance.graph),))

    root = min(instance.graph.vertices)
    remainder = full_cake(instance.graph)
    remaining = list(instance.agents)
    shares: dict[int, Share] = {}
    running = rational(0)  # the value handed out so far (adaptive schedule)
    xi = rational(1, 2 * n - 1)
    # The remainder's value to each agent: 1 for the whole cake, since every
    # valuation sums to 1, and then what the previous round's divide returns.
    worth = dict.fromkeys(remaining, ONE)
    pairs = None

    for i in range(1, n):
        beta = threshold(schedule, i, n, running)
        qualified = [a for a in remaining if worth[a] >= beta]
        if adaptive:
            # Round 1 starts exactly at 1/(2n-1); later rounds stay above it.
            check(beta == xi if i == 1 else beta > xi, f"adaptive threshold {beta} too small")
            check(qualified, "adaptive schedule must always find a qualified agent")
        if qualified:
            first, remainder, values, pairs = _divide(
                instance, remainder, tuple(remaining), worth, beta, root, ledger, pairs=pairs
            )
            recipient = min(a for a in remaining if values[a][0] >= beta)
            worth = {a: rv for a, (_fv, rv) in values.items()}
        else:
            first = Share.empty()
            recipient = min(remaining)
        shares[recipient] = first
        remaining.remove(recipient)
        if adaptive:
            value = values[recipient][0]
            running += value
            check(
                xi <= value < (4 - _pow2(-(i - 2))) * xi,
                f"round {i} share value {value} breaks its window",
            )
            check(
                (2 * i - 2 + _pow2(-(i - 1))) * xi <= running < 2 * i * xi,
                f"round {i} running total {running} breaks its window",
            )

    last = remaining[0]
    shares[last] = remainder
    if adaptive:
        final = worth[last]
        check(
            xi < final <= (3 - _pow2(-(n - 2))) * xi,
            f"final share value {final} breaks its window",
        )
    return Allocation(tuple(shares[a] for a in instance.agents))


def identical_four_ef(instance: Instance, ledger=None) -> Allocation:
    """Adaptive-threshold allocation for identical valuations."""
    return iterative_divide(instance, ADAPTIVE_IDENTICAL, ledger=ledger)
