"""The paper's five algorithms in one table: how to run each, whether it
takes ε, its exact bound as a function of n and ε, and whether psn-lift may
run it on a path cake."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .balance import identical_two_eps
from .fairness import FairnessReport
from .io import format_rational
from .iterative import identical_four_ef, iterative_divide
from .model import Allocation, Instance
from .rational import Rational, rational
from .star_eps import star_three_eps
from .star_identical import star_identical_2ef

DEFAULT_EPSILON = rational(1, 10)


@dataclass(frozen=True)
class Solver:
    """``run(instance, epsilon, ledger, trace)`` allocates; ``bound(n,
    epsilon)`` is the guarantee on the ``kind`` metric, ``additive-envy`` or
    ``envy-factor``.  Solvers that take no ε ignore it."""

    run: Callable[[Instance, Rational | None, object, list | None], Allocation]
    needs_epsilon: bool
    kind: str
    bound: Callable[[int, Rational | None], Rational]
    on_path: bool


SOLVERS: dict[str, Solver] = {
    "iterative-divide": Solver(
        lambda instance, epsilon, ledger, trace: iterative_divide(instance, ledger=ledger),
        needs_epsilon=False, kind="additive-envy", bound=lambda n, epsilon: rational(1, 2), on_path=True,
    ),
    "identical-4ef": Solver(
        lambda instance, epsilon, ledger, trace: identical_four_ef(instance, ledger=ledger),
        needs_epsilon=False, kind="envy-factor", on_path=True,
        bound=lambda n, epsilon: rational(4) - rational(2) ** (-(n - 3)) if n >= 2 else rational(1),
    ),
    "star-3eps": Solver(
        lambda instance, epsilon, ledger, trace: star_three_eps(instance, epsilon, ledger=ledger, trace=trace),
        needs_epsilon=True, kind="envy-factor", bound=lambda n, epsilon: rational(3) + epsilon, on_path=False,
    ),
    "identical-2eps": Solver(
        lambda instance, epsilon, ledger, trace: identical_two_eps(instance, epsilon, ledger=ledger),
        needs_epsilon=True, kind="envy-factor", bound=lambda n, epsilon: rational(2) + epsilon, on_path=True,
    ),
    "star-identical-2ef": Solver(
        lambda instance, epsilon, ledger, trace: star_identical_2ef(instance, ledger=ledger),
        needs_epsilon=False, kind="envy-factor", bound=lambda n, epsilon: rational(2), on_path=False,
    ),
}


def contract(solver: Solver, n: int, epsilon: Rational | None, report: FairnessReport) -> dict:
    """The ``{"kind", "bound", "satisfied"}`` block of an allocation's metrics."""
    bound = solver.bound(n, epsilon)
    value = report.additive_envy if solver.kind == "additive-envy" else report.envy_factor
    satisfied = value is not None and bool(value <= bound)
    return {"kind": solver.kind, "bound": format_rational(bound), "satisfied": satisfied}
