"""Machine-speed probes, to take the shared machine's drift out of timings.

On a machine shared with other tenants the same Python work can take 30%
longer for minutes at a time, and process CPU time drifts with it, so
neither wall nor CPU time of one run is comparable with another run's.  A
probe times five small fixed pure-Python workloads: Fraction arithmetic, an
integer loop, tuple and dict allocation with a sort, a Fraction series, and
bisect with a memo dict.  They call no graphcake code, so no change to the
program moves them.  Different kinds of work slow down by different amounts
when the machine is busy; the geometric mean of the five tracked the time
of graphcake certificates of all three workloads (a log-log slope of 1.0
within 0.1), where any single one over- or under-corrected.

Each measured interval is rescaled by ``NOMINAL_PROBE_S / (median of the
probes around it)``: the time it would have taken on a machine where a
probe takes ``NOMINAL_PROBE_S``.
"""

from __future__ import annotations

import bisect
import math
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_PROBE_S = 0.0015  # about a probe's time on an idle 2-CPU x86-64 machine
PROBE_INTERVAL_S = 0.3    # measured work between two probes
WINDOW = 2                # probes on each side that a rescale factor uses


def _fraction_mix() -> list:
    acc = Fraction(0)
    best = {}
    for i in range(1, 400):
        x = Fraction(i % 97, 12) + Fraction(5, 8) * (i % 13)
        best[i % 50] = x
        if x > acc:
            acc = x - Fraction(1, 3)
    return sorted(best.values())


def _integer_loop() -> int:
    x = 0
    for i in range(12000):
        x = (x * 31 + i) % 1000003
    return x


def _tuples_and_sort() -> list:
    rows = [(i, str(i), {"a": i}) for i in range(2000)]
    return sorted(rows, key=lambda row: -row[0])


def _fraction_series() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(1, i * (i + 1)) * Fraction(i % 7 + 1, 3)
    return acc


def _interval_memo() -> Fraction:
    breakpoints = tuple(Fraction(i, 24) for i in range(25))
    values = tuple(Fraction(i % 5 + 1, 7) for i in range(24))
    memo = {}
    best = Fraction(0)
    for j in range(300):
        lo = Fraction(j % 23, 24) + Fraction(1, 48)
        hi = lo + Fraction(1, 96)
        key = (lo.numerator, lo.denominator, hi.numerator)
        value = memo.get(key)
        if value is None:
            value = (hi - lo) * values[bisect.bisect_right(breakpoints, lo) - 1]
            memo[key] = value
        best = max(best, value)
    return best


WORKLOADS = (_fraction_mix, _integer_loop, _tuples_and_sort, _fraction_series, _interval_memo)


class SpeedProbes:
    """Probe times in order; each interval points at the probe taken just before it."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._since = 0.0

    def take(self) -> int:
        logs = 0.0
        for work in WORKLOADS:
            start = perf_counter()
            work()
            logs += math.log(perf_counter() - start)
        self.times.append(math.exp(logs / len(WORKLOADS)))
        self._since = 0.0
        return len(self.times) - 1

    def index(self) -> int:
        """Probe index for the interval about to start; probes first when one is due."""
        if not self.times or self._since >= PROBE_INTERVAL_S:
            return self.take()
        return len(self.times) - 1

    def spent(self, seconds: float) -> None:
        self._since += seconds

    def factor(self, index: int) -> float:
        """Rescale factor for an interval that followed probe ``index``."""
        window = self.times[max(0, index - WINDOW): index + WINDOW + 1]
        return NOMINAL_PROBE_S / statistics.median(window)
