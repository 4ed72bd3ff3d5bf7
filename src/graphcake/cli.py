"""Command-line front end: solve, verify, gen, psn, psn-lift, oracle."""

from __future__ import annotations

import argparse

from .rational import Rational, rational
import json
import sys
from pathlib import Path

from .balance import identical_two_eps
from .fairness import brute_force_egalitarian, fairness_report, prop1_check
from .generate import FAMILIES, GeneratorSpec, generate
from .io import (
    format_rational,
    load_allocation,
    load_instance,
    parse_rational,
    save_allocation,
    save_instance,
)
from .iterative import identical_four_ef, iterative_divide
from .model import ContractViolation, validate_allocation
from .psn import psn_allocate, psn_certificate
from .queries import QueryLedger
from .star_eps import star_three_eps
from .star_identical import star_identical_2ef

ALGORITHMS = (
    "iterative-divide",
    "identical-4ef",
    "star-3eps",
    "identical-2eps",
    "star-identical-2ef",
)

PATH_SOLVERS = ("iterative-divide", "identical-4ef", "identical-2eps")


class _Parser(argparse.ArgumentParser):
    """Malformed arguments are malformed input: one line on stderr, exit 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


def _write(path: str | None, payload: bytes) -> None:
    if path:
        Path(path).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))


def _epsilon(text: str) -> Rational:
    eps = parse_rational(text)
    if eps <= 0:
        raise argparse.ArgumentTypeError("epsilon must be a positive rational")
    return eps


def _contract(algorithm: str, instance, report, epsilon: Rational | None) -> dict:
    n = instance.n
    if algorithm == "iterative-divide":
        bound = rational(1, 2)
        ok = report.additive_envy <= bound
        kind = "additive-envy"
    elif algorithm == "identical-4ef":
        bound = rational(4) - rational(2) ** (-(n - 3)) if n >= 2 else rational(1)
        ok = report.envy_factor is not None and report.envy_factor <= bound
        kind = "envy-factor"
    elif algorithm == "star-3eps":
        bound = rational(3) + epsilon
        ok = report.envy_factor is not None and report.envy_factor <= bound
        kind = "envy-factor"
    elif algorithm == "identical-2eps":
        bound = rational(2) + epsilon
        ok = report.envy_factor is not None and report.envy_factor <= bound
        kind = "envy-factor"
    else:
        bound = rational(2)
        ok = report.envy_factor is not None and report.envy_factor <= bound
        kind = "envy-factor"
    return {"kind": kind, "bound": format_rational(bound), "satisfied": bool(ok)}


def _solve(args) -> int:
    instance = load_instance(_read(args.instance))
    ledger = QueryLedger()
    trace = [] if args.trace else None
    epsilon = args.epsilon
    if args.algorithm == "iterative-divide":
        allocation = iterative_divide(instance, ledger=ledger)
    elif args.algorithm == "identical-4ef":
        allocation = identical_four_ef(instance, ledger=ledger)
    elif args.algorithm == "star-3eps":
        allocation = star_three_eps(instance, epsilon, ledger=ledger, trace=trace)
    elif args.algorithm == "identical-2eps":
        allocation = identical_two_eps(instance, epsilon, max_calls=args.max_calls, ledger=ledger)
    elif args.algorithm == "star-identical-2ef":
        allocation = star_identical_2ef(instance, ledger=ledger)
    else:
        raise ValueError(f"unknown algorithm {args.algorithm!r}")
    if trace:
        for line in trace:
            sys.stderr.write(json.dumps(line, sort_keys=True) + "\n")
    report = fairness_report(instance, allocation)
    validity = validate_allocation(instance, allocation)
    contract = _contract(args.algorithm, instance, report, epsilon)
    metrics = {
        "algorithm": args.algorithm,
        "epsilon": format_rational(epsilon) if args.algorithm in ("star-3eps", "identical-2eps") else None,
        "fairness": report.as_dict(),
        "queries": ledger.as_dict(),
        "contract": contract,
        "valid": validity.ok,
    }
    _write(args.output, save_allocation(instance, allocation, metrics))
    if not (validity.ok and contract["satisfied"]):
        sys.stderr.write("contracted bound violated; this is a bug\n")
        return 1
    return 0


def _verify(args) -> int:
    instance = load_instance(_read(args.instance))
    allocation, metrics = load_allocation(instance, _read(args.allocation))
    validity = validate_allocation(instance, allocation)
    report = fairness_report(instance, allocation)
    implications = prop1_check(report, instance.n)
    failures = []
    if not validity.disjoint_ok:
        failures.append(f"overlapping shares: {validity.overlaps[:3]}")
    if not validity.complete_ok:
        failures.append(f"uncovered segments: {validity.gaps[:3]}")
    if not validity.connectivity_ok:
        failures.append(f"disconnected shares for agents {validity.disconnected}")
    if not implications.ok:
        failures.append("metric implications failed (metric bug)")
    claimed = (metrics or {}).get("fairness")
    if claimed is not None and claimed != report.as_dict():
        failures.append("stored fairness metrics do not match recomputation")
    payload = {
        "valid": validity.ok,
        "fairness": report.as_dict(),
        "failures": failures,
    }
    _write(args.output, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())
    return 1 if failures else 0


def _gen(args) -> int:
    spec = GeneratorSpec(
        family=args.family,
        m=args.edges,
        n=args.agents,
        pieces=args.pieces,
        identical=args.identical,
        seed=args.seed,
    )
    _write(args.output, save_instance(generate(spec)))
    return 0


def _psn(args) -> int:
    instance = load_instance(_read(args.instance))
    bijection, cert = psn_certificate(instance.graph)
    payload = cert.as_dict()
    payload["edges"] = [
        {"edge": entry.edge, "reversed": entry.reversed} for entry in bijection.entries
    ]
    _write(args.output, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())
    return 0


def _psn_lift(args) -> int:
    instance = load_instance(_read(args.instance))
    ledger = QueryLedger()
    allocation, cert, pieces = psn_allocate(
        instance, epsilon=args.epsilon, algorithm=args.algorithm, ledger=ledger
    )
    report = fairness_report(instance, allocation)
    metrics = {
        "algorithm": f"psn-lift/{args.algorithm}",
        "certificate": cert.as_dict(),
        "pieces": {str(a): p for a, p in zip(instance.agents, pieces)},
        "fairness": report.as_dict(),
        "queries": ledger.as_dict(),
    }
    _write(args.output, save_allocation(instance, allocation, metrics))
    if any(p > cert.bound for p in pieces):
        sys.stderr.write("piece count exceeded the certificate bound; this is a bug\n")
        return 1
    return 0


def _oracle(args) -> int:
    instance = load_instance(_read(args.instance))
    best = brute_force_egalitarian(instance)
    _write(args.output, (json.dumps({"egalitarian": format_rational(best)}) + "\n").encode())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="graphcake")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one algorithm on an instance file")
    p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p.add_argument("--instance", required=True)
    p.add_argument("--output")
    p.add_argument("--epsilon", type=_epsilon, default=rational(1, 10))
    p.add_argument("--max-calls", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_solve)

    p = sub.add_parser("verify", help="recompute validity and fairness of an allocation")
    p.add_argument("--instance", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_verify)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--edges", type=int, default=3)
    p.add_argument("--agents", type=int, default=2)
    p.add_argument("--pieces", type=int, default=2)
    p.add_argument("--identical", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_gen)

    p = sub.add_parser("psn", help="emit a path-layout certificate for the graph")
    p.add_argument("--instance", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_psn)

    p = sub.add_parser("psn-lift", help="solve on the path layout and lift back")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithm", default="auto", choices=("auto",) + PATH_SOLVERS)
    p.add_argument("--epsilon", type=_epsilon, default=rational(1, 10))
    p.add_argument("--output")
    p.set_defaults(func=_psn_lift)

    p = sub.add_parser("oracle", help="exact egalitarian optimum for tiny two-agent cakes")
    p.add_argument("--instance", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ContractViolation as exc:
        sys.stderr.write(f"internal contract violated (bug): {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
