"""One certificate: load, solve, save, reload, verify and bound-check.

Every call into a graphcake layer goes through ``spans.call`` so that a
traced pass can time it from outside; the untraced pass calls straight
through.  Each solver gets a fresh ``QueryLedger``, as ``graphcake solve``
does.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from graphcake import balance, fairness, io, iterative, model, psn, star_eps, star_identical
from graphcake.queries import QueryLedger

from workloads import Task


class CheckFailed(Exception):
    """An output broke validity, its contracted bound, or a cross-check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class NoSpans:
    """Untraced pass: layer calls go straight through."""

    def begin(self, instance: int, probe: int) -> None:
        pass

    def end(self) -> None:
        pass

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Spans(NoSpans):
    """Traced pass: one root span per certificate, one child per layer call.

    A record is ``[name, start, end, parent index, instance id, probe
    index]``, where the probe is the speed probe taken before the
    certificate; records stay in memory until the run ends.
    """

    def __init__(self) -> None:
        self.records: list[list] = []
        self._root = -1
        self._instance = -1
        self._probe = -1

    def begin(self, instance: int, probe: int) -> None:
        self._root = len(self.records)
        self._instance = instance
        self._probe = probe
        self.records.append(["bench.certificate", perf_counter(), None, -1, instance, probe])

    def end(self) -> None:
        self.records[self._root][2] = perf_counter()

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.records.append([name, start, perf_counter(), self._root, self._instance, self._probe])


@dataclass(frozen=True)
class Certificate:
    """Exact counts of one certified allocation."""

    digest: str          # sha256 of the allocation bytes
    alloc_bytes: int
    cuts: int
    evals: int
    trades: int = 0
    passes: int = 0
    pieces: int = 0      # psn: lifted pieces over all agents
    bound: int = 0       # psn: certified piece bound times agent count
    exact: bool = False  # psn: certificate not flagged heuristic


def contract(algorithm: str, epsilon: Fraction | None, n: int, report) -> tuple[str, Fraction, bool]:
    """The algorithm's exact contracted bound: (kind, bound, satisfied)."""
    if algorithm == "iterative-divide":
        bound = Fraction(1, 2)
        return "additive-envy", bound, report.additive_envy <= bound
    if algorithm in ("identical-2eps", "star-identical-2ef"):
        bound = 2 + epsilon if algorithm == "identical-2eps" else Fraction(2)
        values = report.matrix[0]  # identical valuations: agent 1 sees every agent's value
        return "value-ratio", bound, max(values) <= bound * min(values)
    bound = 3 + epsilon if algorithm == "star-3eps" else 4 - Fraction(2) ** (3 - n)
    return "envy-factor", bound, report.envy_factor is not None and report.envy_factor <= bound


def _solve(task: Task, instance, ledger: QueryLedger, call) -> tuple:
    """Run the task's solver; returns the allocation and (trades, passes)."""
    algorithm, eps = task.algorithm, task.epsilon
    n, m = instance.n, len(instance.graph.edges)
    if algorithm == "star-3eps":
        trace: list = []
        allocation = call("star_eps.star_three_eps", star_eps.star_three_eps, instance, eps, ledger=ledger, trace=trace)
        require(len(trace) <= Fraction(16 * n * n * m) / eps, f"{len(trace)} trades above 16 n^2 m / eps")
        return allocation, len(trace), 0
    if algorithm == "iterative-divide":
        return call("iterative.iterative_divide", iterative.iterative_divide, instance, ledger=ledger), 0, 0
    if algorithm == "star-identical-2ef":
        return call("star_identical.star_identical_2ef", star_identical.star_identical_2ef, instance, ledger=ledger), 0, 0
    seeded = call("iterative.identical_four_ef", iterative.identical_four_ef, instance, ledger=ledger)
    if algorithm == "identical-4ef":
        return seeded, 0, 0
    log: list = []
    allocation = call(
        "balance.recursive_balance", balance.recursive_balance, instance, seeded, eps, ledger=ledger, log=log
    )
    require(len(log) <= int(Fraction(5 * n * n) / eps), f"{len(log)} balancing passes above 5 n^2 / eps")
    return allocation, 0, len(log)


def certify(task: Task, spans: NoSpans) -> Certificate:
    call = spans.call
    instance = call("io.load_instance", io.load_instance, task.instance)
    ledger = QueryLedger()
    trades = passes = 0
    extra: dict = {}
    psn_counts: dict = {}
    if task.algorithm == "psn":
        bijection, cert = call("psn.psn_certificate", psn.psn_certificate, instance.graph)
        if bijection.m <= psn.EXACT_CHECK_EDGE_CAP:
            exact = call("psn.psn_exact_check", psn.psn_exact_check, instance.graph, bijection)
            require(exact <= cert.bound, f"exact piece count {exact} above certified bound {cert.bound}")
        allocation, lifted_cert, pieces = call("psn.psn_allocate", psn.psn_allocate, instance, ledger=ledger)
        require(lifted_cert == cert, "psn_allocate lifted through a different certificate")
        require(max(pieces) <= cert.bound, f"lifted pieces {pieces} above certified bound {cert.bound}")
        algorithm = "identical-4ef" if instance.identical_valuations() else "iterative-divide"
        extra = {"certificate": cert.as_dict(), "pieces": {str(a): p for a, p in zip(instance.agents, pieces)}}
        psn_counts = {"pieces": sum(pieces), "bound": cert.bound * instance.n, "exact": not cert.heuristic}
    else:
        allocation, trades, passes = _solve(task, instance, ledger, call)
        algorithm = task.algorithm

    report = call("fairness.fairness_report", fairness.fairness_report, instance, allocation)
    kind, bound, satisfied = contract(algorithm, task.epsilon, instance.n, report)
    require(satisfied, f"{kind} above its contracted bound {bound}")
    metrics = {
        "algorithm": task.algorithm,
        "epsilon": None if task.epsilon is None else str(task.epsilon),
        "fairness": report.as_dict(),
        "queries": ledger.as_dict(),
        "contract": {"kind": kind, "bound": str(bound), "satisfied": satisfied},
        **extra,
    }
    raw = call("io.save_allocation", io.save_allocation, instance, allocation, metrics)

    reloaded, stored = call("io.load_allocation", io.load_allocation, instance, raw)
    require(reloaded == allocation, "allocation changed through its bytes")
    validity = call("model.validate_allocation", model.validate_allocation, instance, reloaded)
    require(validity.disjoint_ok and validity.complete_ok, f"not a partition: {validity}")
    if task.algorithm == "psn":
        split = tuple(a for a, p in zip(instance.agents, pieces) if p > 1)
        require(validity.disconnected == split, "disconnected shares differ from the lifted piece counts")
    else:
        require(validity.connectivity_ok, f"disconnected shares for agents {validity.disconnected}")
    recomputed = call("fairness.fairness_report", fairness.fairness_report, instance, reloaded)
    require(recomputed == report, "fairness report from the bytes differs from the in-memory one")
    require(stored["fairness"] == recomputed.as_dict(), "stored fairness metrics differ from recomputation")
    implications = call("fairness.prop1_check", fairness.prop1_check, recomputed, instance.n)
    require(implications.ok, "metric implications failed")

    return Certificate(
        digest=hashlib.sha256(raw).hexdigest(),
        alloc_bytes=len(raw),
        cuts=ledger.cuts,
        evals=ledger.evals,
        trades=trades,
        passes=passes,
        **psn_counts,
    )
