"""Query accounting for solver runs."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class QueryLedger:
    """Counts of Eval and Cut queries issued during one solve.

    Queries are counted as issued per agent: an Eval per agent and interval
    evaluated, a Cut per agent asked to cut.  Agents that share one
    valuation are answered from one evaluation but still count once each.
    Counts only ever increase.
    """

    evals: int = 0
    cuts: int = 0

    def record_eval(self, k: int = 1) -> None:
        self.evals += k

    def record_cut(self, k: int = 1) -> None:
        self.cuts += k

    def as_dict(self) -> dict:
        return {"evals": self.evals, "cuts": self.cuts}
