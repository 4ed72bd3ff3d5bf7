"""Certified-allocation benchmark for graphcake.

    python3 perfbench/run.py --workload star-trade --seed 1 --seconds 30 --trace 0

Single process, single thread, closed loop: the next certificate starts
only after the previous allocation has been solved, serialized with
``io.save_allocation``, re-loaded from its bytes, validated, recomputed and
checked against its exact contracted bound.  The workloads are defined in
``workloads.py`` and the per-certificate pipeline in ``certify.py``.

Set-up generates the workload's instances from ``--seed`` and serializes
them; ``setup_s`` is the median time of several fresh interpreters doing
exactly that (``prepare.py``).  The timed loop then runs whole passes over
the instances: at least MIN_PASSES, and more while they fit in
``--seconds``.  Each certificate's time is the median over the passes, so
one slow spell of a shared machine does not move it.  All times are
rescaled for machine speed (``speed.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
TRACED_PAIRS untraced passes with as many passes that record a span around
every layer call, prints the per-layer metrics of the traced passes with
the tracing overhead, and writes the spans to ``perfbench/traces/``.

Every run prints a human-readable report first (metric, value, unit,
sample count, run metadata, failures with their instance seeds) and one
JSON object as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from prepare import HERE, import_graphcake, instances_digest
from speed import SpeedProbes

ROOT = HERE.parent
MIN_PASSES = 3
TRACED_PAIRS = 2
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

# Per-layer time metric -> the span names it sums.
LAYER_TIMES = {
    "star_eps.solve_s": ("star_eps.star_three_eps",),
    "iterative.iterative_divide_s": ("iterative.iterative_divide",),
    "iterative.identical_four_ef_s": ("iterative.identical_four_ef",),
    "balance.recursive_balance_s": ("balance.recursive_balance",),
    "star_identical.solve_s": ("star_identical.star_identical_2ef",),
    "model.validate_allocation_s": ("model.validate_allocation",),
    "fairness.fairness_report_s": ("fairness.fairness_report",),
    "fairness.prop1_check_s": ("fairness.prop1_check",),
    "io.load_s": ("io.load_instance", "io.load_allocation"),
    "io.save_allocation_s": ("io.save_allocation",),
    "psn.certificate_s": ("psn.psn_certificate",),
    "psn.exact_check_s": ("psn.psn_exact_check",),
    "psn.allocate_s": ("psn.psn_allocate",),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one instance per stratum (self-test)")
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(args, probes: SpeedProbes) -> tuple[list[float], list[dict]]:
    """Rescaled wall times and reports of SETUP_REPEATS fresh set-up interpreters."""
    command = [sys.executable, "-I", str(HERE / "prepare.py"), args.workload, str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    runs = []
    for _ in range(SETUP_REPEATS):
        probes.take()
        index = probes.take()
        start = perf_counter()
        done = subprocess.run(command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        wall = perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{done.stderr}")
        runs.append((wall, index, json.loads(done.stdout.splitlines()[-1])))
    probes.take()
    probes.take()
    times, reports = [], []
    for wall, index, report in runs:
        factor = probes.factor(index)
        times.append(wall * factor)
        reports.append({name: value if name == "sha256" else value * factor for name, value in report.items()})
    return times, reports


def run_pass(tasks, spans, certify, probes: SpeedProbes) -> list[tuple[float, object, int]]:
    """Certify every task once.

    Each result is (wall seconds, Certificate or failure text, index of the
    speed probe taken before it).
    """
    results = []
    for task in tasks:
        index = probes.index()
        start = perf_counter()
        spans.begin(task.id, index)
        try:
            outcome = certify(task, spans)
        except Exception as exc:  # one bad certificate must not stop the run; it is reported
            traceback.print_exc(file=sys.stderr)
            outcome = f"{type(exc).__name__}: {exc}"
        spans.end()
        seconds = perf_counter() - start
        probes.spent(seconds)
        results.append((seconds, outcome, index))
    return results


def run_passes(tasks, spans, certify, probes: SpeedProbes, seconds: float) -> list:
    """At least MIN_PASSES passes, and more while they fit in ``seconds``."""
    passes = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(run_pass(tasks, spans, certify, probes))
    return passes


def failures_of(tasks, passes) -> list[str]:
    """Failed certificates, and certificates that differ from the first pass."""
    found = []
    reference = [outcome for _, outcome, _ in passes[0]]
    for number, results in enumerate(passes, start=1):
        for task, (_, outcome, _), expected in zip(tasks, results, reference):
            if isinstance(outcome, str):
                problem = outcome
            elif not isinstance(expected, str) and outcome != expected:
                problem = "certificate differs from the first pass (counts or bytes not deterministic)"
            else:
                continue
            found.append(f"pass {number} task {task.id} stratum {task.stratum} seed {task.seed}: {problem}")
    return found


def task_medians(passes, probes: SpeedProbes) -> list[float | None]:
    """Per task, the median rescaled time over the passes; None if any pass failed."""
    medians = []
    for results in zip(*passes):
        if any(isinstance(outcome, str) for _, outcome, _ in results):
            medians.append(None)
        else:
            medians.append(statistics.median(seconds * probes.factor(index) for seconds, _, index in results))
    return medians


def layer_metrics(records, probes: SpeedProbes, passes: int, certificates, setup_reports) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: rescaled span times per traced pass, and exact counts of one pass."""
    busy: dict[str, float] = defaultdict(float)
    covered: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _, probe in records:
        busy[name] += (end - start) * probes.factor(probe)
        if parent >= 0:
            covered[parent] += (end - start) * probes.factor(probe)
    bench_self = sum(
        (end - start) * probes.factor(probe) - covered[index]
        for index, (_, start, end, parent, _, probe) in enumerate(records)
        if parent < 0
    )
    ok = [c for c in certificates if not isinstance(c, str)]
    psn = [c for c in ok if c.bound]
    total = {
        field: sum(getattr(c, field) for c in ok)
        for field in ("cuts", "evals", "trades", "passes", "alloc_bytes", "pieces", "bound")
    }
    metrics = {name: (sum(busy[s] for s in spans) / passes, "s") for name, spans in LAYER_TIMES.items()}
    solve_s = metrics["star_eps.solve_s"][0]
    metrics.update(
        {
            "star_eps.trades": (total["trades"], "count"),
            "star_eps.us_per_trade": (solve_s * 1e6 / total["trades"] if total["trades"] else 0.0, "us"),
            "queries.cuts": (total["cuts"], "count"),
            "queries.evals": (total["evals"], "count"),
            "balance.passes": (total["passes"], "count"),
            "io.alloc_bytes": (total["alloc_bytes"], "bytes"),
            "psn.exact_frac": (sum(c.exact for c in psn) / len(psn) if psn else 0.0, "ratio"),
            "psn.pieces_over_bound": (total["pieces"] / total["bound"] if total["bound"] else 0.0, "ratio"),
            "bench.self_s": (bench_self / passes, "s"),
        }
    )
    for name in ("setup.import", "generate.generate", "io.save_instance"):
        metrics[name + "_s"] = (statistics.median(r[name] for r in setup_reports), "s")
    return metrics


def write_spans(records, probes: SpeedProbes, args) -> Path:
    out = HERE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with out.open("w") as handle:
        for index, (name, start, end, parent, instance, probe) in enumerate(records):
            span = {"id": index, "name": name, "start": start, "end": end, "parent": parent if parent >= 0 else None,
                    "instance": instance, "speed_factor": probes.factor(probe)}
            handle.write(json.dumps(span) + "\n")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_graphcake()
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import graphcake from the checkout: {exc}\n")
        return 2
    from graphcake.rational import Rational

    from certify import NoSpans, Spans, certify
    from workloads import WORKLOADS, build_tasks

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2

    probes = SpeedProbes()
    setup_times, setup_reports = measure_setup(args, probes)
    tasks, _ = build_tasks(args.workload, args.seed, smoke=args.smoke)
    instances_sha = instances_digest(tasks)
    failures = [
        f"set-up interpreter {i + 1} generated different instance bytes"
        for i, report in enumerate(setup_reports)
        if report["sha256"] != instances_sha
    ]

    spans = Spans()
    if args.trace:
        # Traced and untraced passes alternate, so that neither gets the
        # warmer or the quieter half of the run.
        pairs = [(run_pass(tasks, NoSpans(), certify, probes), run_pass(tasks, spans, certify, probes))
                 for _ in range(TRACED_PAIRS)]
        untraced, traced = [u for u, _ in pairs], [t for _, t in pairs]
    else:
        untraced, traced = run_passes(tasks, NoSpans(), certify, probes, args.seconds), []
    passes = untraced + traced
    certificate_failures = failures_of(tasks, passes)
    failures += certificate_failures
    attempted = sum(len(p) for p in passes)
    reference = [outcome for _, outcome, _ in passes[0]]
    digests = "".join(c.digest for c in reference if not isinstance(c, str))
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backend": f"{Rational.__module__}.{Rational.__qualname__}",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "GRAPHCAKE_THREADS": os.environ.get("GRAPHCAKE_THREADS", "unset"),
        "commit": git_commit(),
        "instances_sha256": instances_sha,
        "allocations_sha256": hashlib.sha256(digests.encode()).hexdigest(),
        "passes": len(passes),
        "certificates_per_pass": len(tasks),
        "speed_probes": len(probes.times),
        "probe_median_ms": statistics.median(probes.times) * 1e3,
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    for line in failures:
        print("# FAIL " + line)

    medians = task_medians(untraced, probes)
    samples = [m for m in medians if m is not None]
    by_stratum = defaultdict(list)
    for task, median in zip(tasks, medians):
        if median is not None:
            by_stratum[task.stratum].append(median)
    for name, times in by_stratum.items():
        print(f"# stratum {name}: {len(times)} certificates, median {statistics.median(times) * 1e3:.1f} ms, "
              f"max {max(times) * 1e3:.1f} ms, total {sum(times):.2f} s per pass")
    if not samples:
        print("# every certificate failed; no metrics")
        return 1

    if args.trace:
        traced_samples = [m for m in task_medians(traced, probes) if m is not None]
        metrics = layer_metrics(spans.records, probes, len(traced), [o for _, o, _ in traced[0]], setup_reports)
        metrics["bench.trace_overhead_frac"] = (sum(traced_samples) / sum(samples) - 1, "ratio")
        print(f"# spans written to {write_spans(spans.records, probes, args).relative_to(ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"# {name} {value!r} {unit}")
    else:
        p95 = statistics.quantiles(samples, n=20)[18]
        wall = sum(seconds for results in untraced for seconds, _, _ in results)
        counted = f"n={len(samples)} certificates, each the median of {len(untraced)} passes"
        notes = {
            "certs_per_s": f"{counted}; wall clock {len(samples) * len(untraced) / wall:.3f} 1/s",
            "cert_p50_ms": counted,
            "cert_p95_ms": f"{counted}; {sum(s > p95 for s in samples)} beyond",
            "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
            "peak_rss_mb": "maximum resident set of this process",
        }
        metrics = {
            "certs_per_s": (len(samples) / sum(samples), "1/s"),
            "cert_p50_ms": (statistics.median(samples) * 1e3, "ms"),
            "cert_p95_ms": (p95 * 1e3, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        for name, (value, unit) in metrics.items():
            print(f"# {name} {value!r} {unit} ({notes[name]})")
        failed = len(certificate_failures)
        print(f"# fail_frac {failed / attempted!r} ratio ({failed}/{attempted})")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(certificate_failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
