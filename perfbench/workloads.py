"""Workload definitions: which instances a benchmark pass certifies.

A workload is a fixed list of strata.  A stratum draws ``count`` instances
from one ``graphcake.generate`` family and names the algorithm that
certifies them.  The shape of every instance (edge count, agent count,
density pieces, epsilon, and for path layouts the vertex count) is fixed by
its position in the stratum; only the random valuations and random edges
depend on the run seed.  That keeps the cost of a pass nearly the same from
seed to seed, so runs on different seeds can be compared.

Strata are sized so that one pass is at least 200 certificates (the 95th
percentile then has ten samples beyond it) and takes about 7 s of rescaled
time on a 2-CPU x86-64 machine with the ``fractions.Fraction`` backend, so
that three passes fit in a 30-s run.  In each workload one stratum of a
single shape holds the median, and another, about a tenth of the
certificates and above the rest, holds the 95th percentile: both
percentiles fall inside a group of near-equal cost instead of between two.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction

HALF = Fraction(1, 2)
TENTH = Fraction(1, 10)


@dataclass(frozen=True)
class Stratum:
    name: str
    algorithm: str               # star-3eps | iterative-divide | identical-4ef | identical-2eps | star-identical-2ef | psn
    family: str                  # graphcake.generate family
    count: int
    ms: tuple[int, ...]          # edge counts, cycled over the stratum
    ns: tuple[int, ...]          # agent counts, cycled
    pieces: tuple[int, ...] = (1, 2, 3, 4)
    epsilons: tuple[Fraction | None, ...] = (None,)
    identical: bool = False
    vertices: tuple[int, int] | None = None   # accepted vertex-count range


@dataclass(frozen=True)
class Task:
    """One certificate to produce: an instance (as bytes) and how to solve it."""

    id: int
    stratum: str
    algorithm: str
    epsilon: Fraction | None
    seed: int                    # generator seed of the instance
    instance: bytes


WORKLOADS: dict[str, tuple[Stratum, ...]] = {
    # The trading loop of star-3eps: _refresh_cache and bidder cuts on
    # Fractions.  No divide, balance or psn code runs.  The n = 2, m = 4 stars
    # hold the median and the n = 4, m = 3 stars the 95th percentile.
    "star-trade": (
        Stratum("n2-small", "star-3eps", "star", 68, (2, 3), (2,), epsilons=(HALF,)),
        Stratum("n2-m4", "star-3eps", "star", 100, (4,), (2,), pieces=(2,), epsilons=(HALF,)),
        Stratum("n3", "star-3eps", "star", 10, (2, 4), (3,), epsilons=(HALF,)),
        Stratum("n2-tenth", "star-3eps", "star", 4, (2, 3), (2,), epsilons=(TENTH,)),
        Stratum("n4-m3", "star-3eps", "star", 22, (3,), (4,), pieces=(3,), epsilons=(HALF,)),
    ),
    # divide/balance geometry plus the verify and io path; star_eps never
    # runs.  The 10-edge graphs hold the median and the 30-edge
    # identical-valuation graphs the 95th percentile.
    "graph-carve": (
        Stratum("iterative-small", "iterative-divide", "random-connected", 50, tuple(range(3, 16)), (2, 3, 4, 5, 6)),
        Stratum("identical4-small", "identical-4ef", "random-connected", 30, tuple(range(3, 13)), (2, 3, 4, 5, 6, 7, 8), identical=True),
        Stratum("identical2-small", "identical-2eps", "random-connected", 30, tuple(range(3, 13)), (2, 3, 4, 5, 6, 7, 8),
                epsilons=(HALF, TENTH), identical=True),
        Stratum("star-identical", "star-identical-2ef", "star", 30, tuple(range(1, 11)), (2, 3, 4, 5, 6, 7, 8), identical=True),
        Stratum("iterative-m10", "iterative-divide", "random-connected", 70, (10,), (4,), vertices=(6, 8)),
        Stratum("iterative-m30", "iterative-divide", "random-connected", 8, (30,), (8, 10), pieces=(3,), vertices=(12, 18)),
        Stratum("identical2-m30", "identical-2eps", "random-connected", 8, (30,), (8,), pieces=(3,),
                epsilons=(HALF, TENTH), identical=True, vertices=(12, 18)),
        Stratum("identical4-m30", "identical-4ef", "random-connected", 22, (30,), (10,), pieces=(3,), identical=True,
                vertices=(12, 18)),
    ),
    # Spanning-tree enumeration, lift_segment and share_components; the
    # solvers only see path cakes.  The 10-edge graphs hold the median and
    # 14-edge trees (whose exact check has a fixed size) the 95th
    # percentile; the densest 8-vertex graphs lie beyond it.
    "psn-layout": (
        Stratum("trees", "psn", "tree", 73, (4, 5, 6, 7, 8), (2, 3, 4)),
        Stratum("sparse", "psn", "random-connected", 12, (10, 11, 12), (2, 3), vertices=(5, 8)),
        Stratum("m10-v6", "psn", "random-connected", 80, (10,), (2,), vertices=(5, 6)),
        Stratum("past-vertex-cap", "psn", "random-connected", 6, (14,), (2,), vertices=(9, 12)),
        Stratum("past-tree-cap", "psn", "random-connected", 10, (24,), (2, 3), vertices=(8, 9)),
        Stratum("dense14", "psn", "random-connected", 4, (14,), (2, 3), vertices=(8, 8)),
        Stratum("trees-m14", "psn", "tree", 22, (14,), (2,)),
    ),
}

MAX_DRAWS = 1000   # generator seeds tried per instance before giving up


def _vertices_within(instance, bounds: tuple[int, int]) -> bool:
    return bounds[0] <= len(instance.graph.vertices) <= bounds[1]


def _draw(stratum: Stratum, i: int, rng: random.Random, spent: dict):
    """Generator seed and instance for position ``i`` of a stratum."""
    from graphcake.generate import GeneratorSpec, generate

    for _ in range(MAX_DRAWS):
        spec = GeneratorSpec(
            stratum.family,
            m=stratum.ms[i % len(stratum.ms)],
            n=stratum.ns[i % len(stratum.ns)],
            pieces=stratum.pieces[i % len(stratum.pieces)],
            identical=stratum.identical,
            seed=rng.randrange(2**31),
        )
        start = time.perf_counter()
        try:
            if stratum.vertices is None:
                return spec.seed, generate(spec)
            # The graph is drawn before the valuations, so a one-agent draw
            # with the same seed screens the vertex count cheaply.
            if _vertices_within(generate(replace(spec, n=1, pieces=1)), stratum.vertices):
                instance = generate(spec)
                if _vertices_within(instance, stratum.vertices):
                    return spec.seed, instance
        finally:
            spent["generate.generate"] += time.perf_counter() - start
    raise RuntimeError(f"stratum {stratum.name}: no instance with {stratum.vertices} vertices in {MAX_DRAWS} draws")


def build_tasks(workload: str, seed: int, smoke: bool = False) -> tuple[list[Task], dict[str, float]]:
    """Generate and serialize every instance of one pass of a workload.

    Returns the tasks and the seconds spent in ``generate.generate`` and in
    ``io.save_instance``.  The same workload and seed always give the same
    bytes.  With ``smoke`` each stratum contributes a single instance.
    """
    from graphcake.io import save_instance

    rng = random.Random(f"{workload}/{seed}")
    # Strata are interleaved, so that a slow spell of a shared machine is
    # spread over all of them instead of falling on one.
    positions = [(stratum, i) for stratum in WORKLOADS[workload] for i in range(1 if smoke else stratum.count)]
    rng.shuffle(positions)
    tasks: list[Task] = []
    spent = {"generate.generate": 0.0, "io.save_instance": 0.0}
    for stratum, i in positions:
        seed_i, instance = _draw(stratum, i, rng, spent)
        start = time.perf_counter()
        raw = save_instance(instance)
        spent["io.save_instance"] += time.perf_counter() - start
        epsilon = stratum.epsilons[i % len(stratum.epsilons)]
        tasks.append(Task(len(tasks), stratum.name, stratum.algorithm, epsilon, seed_i, raw))
    return tasks, spent
