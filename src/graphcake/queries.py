"""Query accounting for solver runs."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class QueryLedger:
    """Counts of Eval and Cut queries issued during one solve.

    A query is recorded where its answer is computed for the algorithm's
    use: an Eval per agent and interval valued, a Cut per agent asked to
    cut.  Agents that share one valuation are answered from one evaluation
    but still count once each.  A value the solver already holds, carried
    from an earlier step or known exactly by arithmetic, is not recorded
    again, nor is a re-valuation made only to check a guarantee.  Counts
    only ever increase.
    """

    evals: int = 0
    cuts: int = 0

    def record_eval(self, k: int = 1) -> None:
        self.evals += k

    def record_cut(self, k: int = 1) -> None:
        self.cuts += k

    def as_dict(self) -> dict:
        return {"evals": self.evals, "cuts": self.cuts}
