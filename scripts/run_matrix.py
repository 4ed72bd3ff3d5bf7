#!/usr/bin/env python3
"""Run every solver across a seeded instance family and tabulate the metrics.

Usage: python scripts/run_matrix.py [--count 20] [--seed 0]
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from graphcake.fairness import fairness_report
from graphcake.generate import GeneratorSpec, generate
from graphcake.queries import QueryLedger
from graphcake.solvers import DEFAULT_EPSILON, SOLVERS


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rows = [
        ("iterative-divide", "random-connected", False),
        ("identical-4ef", "random-connected", True),
        ("identical-2eps", "random-connected", True),
        ("star-3eps", "star", False),
        ("star-identical-2ef", "star", True),
    ]
    print(f"{'algorithm':<20} {'worst envy':<12} {'worst additive':<15} "
          f"{'avg evals':<10} {'avg cuts':<9} {'time':<6}")
    for name, family, identical in rows:
        worst_factor = Fraction(0)
        unbounded = False
        worst_additive = Fraction(-1)
        evals = cuts = 0
        start = time.monotonic()
        for k in range(args.count):
            spec = GeneratorSpec(
                family, m=3 + k % 7, n=2 + k % 4, pieces=1 + k % 3,
                identical=identical, seed=args.seed + k,
            )
            instance = generate(spec)
            ledger = QueryLedger()
            allocation = SOLVERS[name].run(instance, DEFAULT_EPSILON, ledger, None)
            report = fairness_report(instance, allocation)
            if report.envy_factor is None:
                unbounded = True
            else:
                worst_factor = max(worst_factor, report.envy_factor)
            worst_additive = max(worst_additive, report.additive_envy)
            evals += ledger.evals
            cuts += ledger.cuts
        elapsed = time.monotonic() - start
        factor = "unbounded" if unbounded else str(worst_factor)
        print(f"{name:<20} {factor:<12} {str(worst_additive):<15} "
              f"{evals // args.count:<10} {cuts // args.count:<9} {elapsed:5.2f}s")


if __name__ == "__main__":
    main()
