#!/usr/bin/env python3
"""Exact work counts of one perfbench pass, from a profile hook.

Builds a workload's tasks with perfbench's ``build_tasks`` and certifies
them with perfbench's ``certify`` (both imported, never changed), once
unrecorded and then once under ``sys.setprofile``.  Prints one JSON object:
the number of calls of each function in ``COUNTED``, named
``module.qualname`` under ``src/graphcake``.  A count does not depend on
the machine, so two runs of the same code print the same bytes, and a
before/after pair of counts has no noise.

``--repeats`` prints an audit instead: after the unrecorded pass, each
task's solver runs alone (``psn_allocate`` for psn tasks, labelled
``psn-lift``), and every ``StepDensity.integral_pair`` call on part of an
edge is keyed by its density object and its ``lo`` and ``hi`` pairs.  A
key already seen in the same solve is a repeat, tagged with the function
that made the call and the line it made it from.  Whole-edge integrals are left out: they are a table
lookup.

Needs CPython 3.11 or later (``co_qualname``); stdlib only.

Usage: python scripts/workcount.py --workload psn-layout --seed 1 [--smoke] [--repeats]
"""

import argparse
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphcake"

COUNTED = (
    # StepDensity kernels
    "model.StepDensity._index",
    "model.StepDensity.prefix_at",
    "model.StepDensity.integral_pair",
    "model.StepDensity.cut_position",
    "model.StepDensity.cut_pair",
    # rational pair helpers (from_reduced_pair is _build) and Rational operators
    "rational._build",
    "rational.as_pair",
    "rational.from_pair",
    "rational.reduced_pair",
    "rational.pair_sum",
    "rational._add",
    "rational._mul",
    "rational._div",
    "rational.Rational.__add__",
    "rational.Rational.__radd__",
    "rational.Rational.__sub__",
    "rational.Rational.__rsub__",
    "rational.Rational.__mul__",
    "rational.Rational.__rmul__",
    "rational.Rational.__truediv__",
    "rational.Rational.__rtruediv__",
    "rational.Rational.__neg__",
    "rational.Rational.__eq__",
    "rational.Rational.__lt__",
    "rational.Rational.__le__",
    "rational.Rational.__gt__",
    "rational.Rational.__ge__",
    # share geometry and the divide kernel
    "model.EdgeInterval.__post_init__",
    "model.canonical_share",
    "model._is_canonical",
    "divide.decycle",
    "divide._divide",
    "psn.lift_segment",
    "model.piece_count",
    "model._component_labels",
    # graph walks and union-find
    "model.bfs",
    "model.find",
    # psn layouts and the exact check
    "psn.min_diameter_spanning_tree",
    "psn.min_diameter_spanning_tree.<locals>.<genexpr>",  # one midpoint-radius step
    "psn._layout",
    "psn.psn_certificate",
    "psn.psn_exact_check",
    # valuation, loading and star-3eps trading
    "model.eval_share",
    "io._document_parser.<locals>.parse",
    "star_eps.Trading.step",
    "star_eps.Trading._trade",
)


def defined_names() -> set[str]:
    """``module.qualname`` of every function defined under the package."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            names.add(f"{path.stem}.{code.co_qualname}")
            stack.extend(c for c in code.co_consts if hasattr(c, "co_qualname"))
    return names


def name_of(code) -> str:
    return f"{Path(code.co_filename).stem}.{code.co_qualname}"


def in_package(code) -> bool:
    return Path(code.co_filename).parent == PACKAGE


def call_counts(tasks, certify, no_spans) -> dict[str, int]:
    calls: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(hook)
    try:
        for task in tasks:
            certify(task, no_spans)
    finally:
        sys.setprofile(None)
    by_name = Counter({name: 0 for name in COUNTED})
    for code, count in calls.items():
        if in_package(code):
            by_name[name_of(code)] += count
    return {name: by_name[name] for name in COUNTED}


def integral_repeats(tasks) -> dict[str, dict]:
    from graphcake.io import load_instance
    from graphcake.psn import psn_allocate
    from graphcake.queries import QueryLedger
    from graphcake.solvers import SOLVERS
    from graphcake.model import StepDensity

    kernel = StepDensity.integral_pair.__code__
    audit = defaultdict(lambda: {"calls": 0, "repeats": 0, "repeat_callers": Counter()})
    seen: set = set()

    def hook(frame, event, arg):
        if event != "call" or frame.f_code is not kernel:
            return
        args = frame.f_locals
        lo, hi = args["lo"], args["hi"]
        if lo == 0 and hi == 1:
            return
        key = (id(args["self"]), lo.numerator, lo.denominator, hi.numerator, hi.denominator)
        row["calls"] += 1
        if key in seen:
            row["repeats"] += 1
            caller = frame.f_back
            row["repeat_callers"][f"{name_of(caller.f_code)}:{caller.f_lineno}"] += 1
        else:
            seen.add(key)

    for task in tasks:
        instance = load_instance(task.instance)
        if task.algorithm == "psn":
            label, solve = "psn-lift", lambda: psn_allocate(instance, ledger=QueryLedger())
        else:
            run = SOLVERS[task.algorithm].run
            label, solve = task.algorithm, lambda: run(instance, task.epsilon, QueryLedger(), None)
        seen.clear()
        row = audit[label]
        sys.setprofile(hook)
        try:
            solve()
        finally:
            sys.setprofile(None)
    return {
        label: {**counts, "repeat_callers": dict(counts["repeat_callers"].most_common())}
        for label, counts in sorted(audit.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true", help="one instance per stratum")
    parser.add_argument("--repeats", action="store_true", help="audit repeated integral_pair calls per solver")
    args = parser.parse_args(argv)
    if sys.version_info < (3, 11):
        sys.stderr.write("error: workcount.py needs CPython 3.11 or later (co_qualname)\n")
        return 2
    missing = sorted(set(COUNTED) - defined_names())
    if missing:
        sys.stderr.write(f"error: counted names not defined under src/graphcake: {', '.join(missing)}\n")
        return 2

    sys.path.insert(0, str(ROOT / "perfbench"))
    from prepare import import_graphcake

    import_graphcake()
    from certify import NoSpans, certify
    from workloads import WORKLOADS, build_tasks

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    tasks, _ = build_tasks(args.workload, args.seed, smoke=args.smoke)
    for task in tasks:
        certify(task, NoSpans())
    head = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke, "tasks": len(tasks)}
    if args.repeats:
        result = {**head, "integral_pair_repeats": integral_repeats(tasks)}
    else:
        result = {**head, "calls": call_counts(tasks, certify, NoSpans())}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
