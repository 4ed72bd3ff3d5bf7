"""Command-line front end: solve, verify, gen, psn, psn-lift, oracle."""

from __future__ import annotations

import argparse

from .rational import Rational
import json
import sys
from pathlib import Path

from .fairness import brute_force_egalitarian, fairness_report, prop1_check
from .generate import FAMILIES, GeneratorSpec, generate
from .io import (
    dumps_canonical,
    format_rational,
    load_allocation,
    load_instance,
    parse_rational,
    save_allocation,
    save_instance,
)
from .model import ContractViolation, checked_epsilon, piece_count, validate_allocation
from .psn import path_solver, psn_allocate, psn_certificate
from .queries import QueryLedger
from .solvers import DEFAULT_EPSILON, SOLVERS, Solver, contract


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
    # The solvers' own rule, applied while parsing: a bad ε is malformed input,
    # with one message whether the text is no rational or one outside (0, 1).
    try:
        return checked_epsilon(parse_rational(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"epsilon must be a rational in (0, 1), got {text!r}") from None


def _lift_choices() -> list[str]:
    return ["auto"] + [name for name, solver in SOLVERS.items() if solver.on_path]


def _lift_names() -> list[str]:
    return [f"psn-lift/{choice}" for choice in _lift_choices()]


def _claims(solver: Solver, instance, epsilon: Rational | None, report) -> dict:
    """The metrics fields that ``solve`` and ``psn-lift`` write and
    ``verify`` recomputes; ``solve`` adds ``valid``.  A psn-lift file
    claims its path solver's contract, on the graph's fairness report."""
    return {
        "epsilon": format_rational(epsilon) if solver.needs_epsilon else None,
        "contract": contract(solver, instance.n, epsilon, report),
    }


def _lift_claims(instance, allocation) -> dict:
    """The metrics fields of a ``psn-lift`` output that ``verify``
    recomputes: the layout certificate, and each share's connected pieces
    counted on the graph, independently of the lift."""
    _, cert = psn_certificate(instance.graph)
    return {
        "certificate": cert.as_dict(),
        "pieces": {
            str(agent): piece_count(instance.graph, share)
            for agent, share in zip(instance.agents, allocation.shares)
        },
    }


def _mismatches(metrics: dict, claims: dict) -> list[str]:
    # Compared as JSON, so that a stored 1 does not pass for true.
    return [
        f"stored {key} does not match recomputation: {value!r}"
        for key, value in claims.items()
        if json.dumps(metrics.get(key), sort_keys=True) != json.dumps(value, sort_keys=True)
    ]


def _solve(args) -> int:
    instance = load_instance(_read(args.instance))
    ledger = QueryLedger()
    trace = [] if args.trace else None
    solver = SOLVERS[args.algorithm]
    allocation = solver.run(instance, args.epsilon, ledger, trace)
    if trace:
        for line in trace:
            sys.stderr.write(json.dumps(line, sort_keys=True) + "\n")
    report = fairness_report(instance, allocation)
    validity = validate_allocation(instance, allocation)
    claims = {**_claims(solver, instance, args.epsilon, report), "valid": validity.ok}
    metrics = {"algorithm": args.algorithm, "fairness": report.as_dict(), "queries": ledger.as_dict(), **claims}
    _write(args.output, save_allocation(instance, allocation, metrics))
    if not (validity.ok and claims["contract"]["satisfied"]):
        sys.stderr.write("contracted bound violated; this is a bug\n")
        return 1
    return 0


def _stored_solver(instance, metrics: dict) -> tuple[Solver | None, Rational | None]:
    """The table entry and ε a stored metrics block names; a psn-lift output
    names its path solver.  Files without an algorithm give ``(None,
    None)``; any other name, or a solver's ε that is not a rational in
    (0, 1), is malformed input."""
    name = metrics.get("algorithm")
    if "algorithm" not in metrics:
        return None, None
    # A list comparison, not a set lookup: the stored name may be any JSON value.
    if name in _lift_names():
        name = path_solver(instance, name.removeprefix("psn-lift/"))
    elif not isinstance(name, str) or name not in SOLVERS:
        raise ValueError(f"metrics name an unknown algorithm {name!r}")
    solver = SOLVERS[name]
    if not solver.needs_epsilon:
        return solver, None
    try:
        return solver, _epsilon(metrics.get("epsilon"))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"metrics {exc}") from None


def _segment(edge: str, lo: Rational, hi: Rational) -> str:
    return f"{edge} [{format_rational(lo)}, {format_rational(hi)}]"


def _verify(args) -> int:
    instance = load_instance(_read(args.instance))
    allocation, metrics = load_allocation(instance, _read(args.allocation))
    solver, epsilon = _stored_solver(instance, metrics)
    lifted = metrics.get("algorithm") in _lift_names()
    validity = validate_allocation(instance, allocation)
    report = fairness_report(instance, allocation)
    failures = []
    if not validity.disjoint_ok:
        overlaps = "; ".join(
            f"{_segment(edge, lo, hi)} held by agents {a} and {b}"
            for edge, lo, hi, a, b in validity.overlaps[:3]
        )
        failures.append(f"overlapping shares: {overlaps}")
    if not validity.complete_ok:
        gaps = "; ".join(_segment(*gap) for gap in validity.gaps[:3])
        failures.append(f"uncovered segments: {gaps}")
    # A lifted share may fall into several pieces; their count is checked
    # against the certificate instead.
    connected = validity.connectivity_ok or lifted
    if not connected:
        agents = ", ".join(map(str, validity.disconnected))
        failures.append(f"disconnected shares for agents {agents}")
    partition = validity.disjoint_ok and validity.complete_ok
    # The implications hold for every partition, so only there does a
    # failure point at the metrics rather than at the allocation.
    if partition and not prop1_check(report, instance.n).ok:
        failures.append("metric implications failed (metric bug)")
    claimed = metrics.get("fairness")
    if claimed is not None and claimed != report.as_dict():
        failures.append("stored fairness metrics do not match recomputation")
    if solver is not None:
        claims = _claims(solver, instance, epsilon, report)
        if not lifted:
            claims["valid"] = validity.ok
        failures += _mismatches(metrics, claims)
        if not claims["contract"]["satisfied"]:
            failures.append(f"contracted bound violated: {claims['contract']}")
    if lifted:
        claims = _lift_claims(instance, allocation)
        failures += _mismatches(metrics, claims)
        bound = claims["certificate"]["bound"]
        over = {agent: count for agent, count in claims["pieces"].items() if count > bound}
        if over:
            failures.append(f"pieces {over} above the certified bound {bound}")
    valid = partition and connected
    payload = {"valid": valid, "fairness": report.as_dict(), "failures": failures}
    _write(args.output, dumps_canonical(payload))
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
    _write(args.output, dumps_canonical(payload))
    return 0


def _psn_lift(args) -> int:
    instance = load_instance(_read(args.instance))
    ledger = QueryLedger()
    allocation, cert, pieces = psn_allocate(
        instance, epsilon=args.epsilon, algorithm=args.algorithm, ledger=ledger
    )
    report = fairness_report(instance, allocation)
    claims = _claims(SOLVERS[path_solver(instance, args.algorithm)], instance, args.epsilon, report)
    metrics = {
        "algorithm": f"psn-lift/{args.algorithm}",
        "certificate": cert.as_dict(),
        "pieces": {str(a): p for a, p in zip(instance.agents, pieces)},
        "fairness": report.as_dict(),
        "queries": ledger.as_dict(),
        **claims,
    }
    _write(args.output, save_allocation(instance, allocation, metrics))
    if not claims["contract"]["satisfied"]:
        sys.stderr.write("contracted bound violated; this is a bug\n")
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
    p.add_argument("--algorithm", required=True, choices=tuple(SOLVERS))
    p.add_argument("--instance", required=True)
    p.add_argument("--output")
    p.add_argument("--epsilon", type=_epsilon, default=DEFAULT_EPSILON)
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
    p.add_argument("--algorithm", default="auto", choices=_lift_choices())
    p.add_argument("--epsilon", type=_epsilon, default=DEFAULT_EPSILON)
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
