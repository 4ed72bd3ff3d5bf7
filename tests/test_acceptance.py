"""Acceptance matrix: every contracted bound checked exactly at desk scale.

Each criterion prints one PASS line (visible with ``pytest -s`` or in the
captured output); any assertion failure fails its criterion.  All value
comparisons are exact rationals with zero tolerance.
"""

import hashlib
import time
from fractions import Fraction

import networkx as nx
import pytest

from graphcake.balance import recursive_balance, verify_balance_outcome
from graphcake.fairness import brute_force_egalitarian, fairness_report, prop1_check
from graphcake.generate import GeneratorSpec, generate
from graphcake.io import save_allocation, save_instance
from graphcake.iterative import identical_four_ef, iterative_divide
from graphcake.model import Edge, Graph, eval_share, validate_allocation
from graphcake.psn import (
    min_diameter_spanning_tree,
    psn_certificate,
    psn_exact_check,
    tree_dfs_bijection,
)
from graphcake.star_eps import star_three_eps
from graphcake.star_identical import star_identical_2ef

from conftest import F
from test_divide import divide_contract_trial
import random

EPSILONS = (F(1, 2), F(1, 10))


def _bytes(instance, allocation):
    report = fairness_report(instance, allocation)
    return save_allocation(instance, allocation, {"fairness": report.as_dict()})


# ---------------------------------------------------------------------------
# shared batch runners (used again verbatim by the determinism criterion)


def run_iterative_batch():
    out = []
    for seed in range(200):
        spec = GeneratorSpec(
            "random-connected", m=3 + seed % 13, n=2 + seed % 5,
            pieces=1 + seed % 4, seed=seed,
        )
        instance = generate(spec)
        allocation = iterative_divide(instance)
        out.append((instance, allocation))
    return out


def run_star_batch():
    out = []
    for seed in range(100):
        spec = GeneratorSpec(
            "star", m=2 + seed % 9, n=2 + seed % 4, pieces=1 + seed % 4,
            seed=1000 + seed,
        )
        instance = generate(spec)
        for eps in EPSILONS:
            trace = []
            allocation = star_three_eps(instance, eps, trace=trace)
            out.append((instance, eps, allocation, len(trace)))
    return out


def identical_specs():
    return [
        GeneratorSpec(
            "random-connected", m=3 + seed % 10, n=2 + seed % 7,
            pieces=1 + seed % 4, identical=True, seed=2000 + seed,
        )
        for seed in range(100)
    ]


def run_identical4_batch():
    return [
        (instance, identical_four_ef(instance))
        for instance in map(generate, identical_specs())
    ]


def run_balance_batch():
    out = []
    for instance in map(generate, identical_specs()):
        seeded = identical_four_ef(instance)
        for eps in EPSILONS:
            log = []
            allocation = recursive_balance(instance, seeded, eps, log=log)
            out.append((instance, eps, allocation, log))
    return out


def star_identical_specs():
    """Criterion 5's hundred identical-valuation stars."""
    return [
        GeneratorSpec(
            "star", m=1 + seed % 10, n=1 + seed % 8, pieces=1 + seed % 4,
            identical=True, seed=3000 + seed,
        )
        for seed in range(100)
    ]


def run_star_identical_batch():
    return [(instance, star_identical_2ef(instance)) for instance in map(generate, star_identical_specs())]


PROP1_POOL = []


@pytest.fixture(scope="module")
def iterative_batch():
    start = time.monotonic()
    batch = run_iterative_batch()
    elapsed = time.monotonic() - start
    PROP1_POOL.extend(batch)
    return batch, elapsed


@pytest.fixture(scope="module")
def star_batch():
    start = time.monotonic()
    batch = run_star_batch()
    elapsed = time.monotonic() - start
    PROP1_POOL.extend((inst, alloc) for inst, _, alloc, _ in batch)
    return batch, elapsed


@pytest.fixture(scope="module")
def identical4_batch():
    batch = run_identical4_batch()
    PROP1_POOL.extend(batch)
    return batch


@pytest.fixture(scope="module")
def balance_batch():
    batch = run_balance_batch()
    PROP1_POOL.extend((inst, alloc) for inst, _, alloc, _ in batch)
    return batch


@pytest.fixture(scope="module")
def star_identical_batch():
    batch = run_star_identical_batch()
    PROP1_POOL.extend(batch)
    return batch


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_half_additive_envy(iterative_batch):
    batch, elapsed = iterative_batch
    assert len(batch) == 200
    for instance, allocation in batch:
        assert validate_allocation(instance, allocation).ok
        report = fairness_report(instance, allocation)
        assert report.additive_envy <= F(1, 2)
    assert elapsed < 30, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (1/2-additive envy, 200 instances, {elapsed:.1f}s): PASS")


# sha256 over criterion 1's allocation files, run by run.
ITERATIVE_BATCH_SHA256 = "8a12eb69b404c31f135d09d714f702f303f7dd48612e54ea185aada5f9cca0d5"


def test_criterion_1_iterative_batch_bytes_pinned(iterative_batch):
    digest = hashlib.sha256()
    for instance, allocation in iterative_batch[0]:
        digest.update(_bytes(instance, allocation))
    assert digest.hexdigest() == ITERATIVE_BATCH_SHA256


def test_criterion_2_star_three_eps(star_batch):
    batch, elapsed = star_batch
    assert len(batch) == 200
    for instance, eps, allocation, iterations in batch:
        assert validate_allocation(instance, allocation).ok
        report = fairness_report(instance, allocation)
        assert report.envy_factor is not None
        assert report.envy_factor <= 3 + eps
        n, m = instance.n, len(instance.graph.edges)
        assert iterations <= F(16 * n * n * m) / eps
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 (star 3+eps, 100 stars x 2 eps, {elapsed:.1f}s): PASS")


# sha256 over criterion 2's allocation files and trade counts, run by run.
STAR_BATCH_SHA256 = "2d28eb4df0a448a4b6a1f8ae0779a816e1077d3a29d14e372a39a01808748675"


def test_criterion_2_star_batch_bytes_pinned(star_batch):
    digest = hashlib.sha256()
    for instance, _, allocation, iterations in star_batch[0]:
        digest.update(_bytes(instance, allocation))
        digest.update(str(iterations).encode())
    assert digest.hexdigest() == STAR_BATCH_SHA256


def test_criterion_3_identical_four_ef(identical4_batch):
    assert len(identical4_batch) == 100
    for instance, allocation in identical4_batch:
        assert validate_allocation(instance, allocation).ok
        n = instance.n
        values = [eval_share(instance, 1, s) for s in allocation.shares]
        assert min(values) >= F(1, 2 * n - 1)
        report = fairness_report(instance, allocation)
        assert report.envy_factor <= 4 - Fraction(2) ** (-(n - 3))
        assert report.proportionality_factor <= 2 - F(1, n)
    print("\nACCEPTANCE 3 (identical ratio 4, 100 instances): PASS")


# sha256 over criterion 3's allocation files, run by run.
IDENTICAL4_BATCH_SHA256 = "17e3a620dd59197a4a028f0bf874f43ab50acdd359720ce53a61ac2d68a28582"


def test_criterion_3_identical4_batch_bytes_pinned(identical4_batch):
    digest = hashlib.sha256()
    for instance, allocation in identical4_batch:
        digest.update(_bytes(instance, allocation))
    assert digest.hexdigest() == IDENTICAL4_BATCH_SHA256


def test_criterion_4_identical_two_eps(balance_batch):
    assert len(balance_batch) == 200
    for instance, eps, allocation, log in balance_batch:
        assert validate_allocation(instance, allocation).ok
        values = [eval_share(instance, 1, s) for s in allocation.shares]
        assert max(values) <= (2 + eps) * min(values)
        assert len(log) <= int(F(5 * instance.n ** 2) / eps)
        for outcome in log:
            verify_balance_outcome(outcome, eps)
    print("\nACCEPTANCE 4 (identical 2+eps, 100 instances x 2 eps): PASS")


# sha256 over criterion 4's allocation files and balance-log lengths, run by run.
BALANCE_BATCH_SHA256 = "ce69b5a95b69568d6a086d888b7048403eb73b44712635b9ee765fd84aba78e3"


def test_criterion_4_balance_batch_bytes_pinned(balance_batch):
    digest = hashlib.sha256()
    for instance, _, allocation, log in balance_batch:
        digest.update(_bytes(instance, allocation))
        digest.update(str(len(log)).encode())
    assert digest.hexdigest() == BALANCE_BATCH_SHA256


def test_criterion_5_star_identical(star_identical_batch, fig1):
    assert len(star_identical_batch) == 100
    for instance, allocation in star_identical_batch:
        assert validate_allocation(instance, allocation).ok
        values = [eval_share(instance, 1, s) for s in allocation.shares]
        assert max(values) <= 2 * min(values)
    tight = star_identical_2ef(fig1)
    assert sorted(eval_share(fig1, 1, s) for s in tight.shares) == [F(1, 3), F(2, 3)]
    assert brute_force_egalitarian(fig1) == F(1, 3)
    print("\nACCEPTANCE 5 (star identical ratio 2 + tight instance): PASS")


def _tree_graph_from_nx(t, nv):
    edges = tuple(
        Edge(f"e{i:02d}", (f"v{u:02d}", f"v{w:02d}"))
        for i, (u, w) in enumerate(sorted(t.edges()), start=1)
    )
    return Graph(tuple(f"v{k:02d}" for k in range(nv)), edges)


def test_criterion_6_psn_certificates(fig1):
    # All trees on up to 9 vertices, every root: exact count <= height + 1.
    rooted = 0
    for nv in range(2, 10):
        for t in nx.nonisomorphic_trees(nv):
            graph = _tree_graph_from_nx(t, nv)
            for root in graph.vertices:
                bijection = tree_dfs_bijection(graph, root)
                height = max(nx.shortest_path_length(t, int(root[1:])).values())
                assert psn_exact_check(graph, bijection) <= height + 1
                rooted += 1
    assert rooted == 748

    # 50 random connected graphs on <= 8 vertices: bound ceil(d/2) + 2 with d
    # certified minimal by independent spanning-tree enumeration.
    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        instance = generate(
            GeneratorSpec("random-connected", m=3 + seed % 5, n=1, seed=4000 + seed)
        )
        graph = instance.graph
        bijection, cert = psn_certificate(graph)
        assert not cert.heuristic
        exact = psn_exact_check(graph, bijection)
        tree_edges, _, d, h = min_diameter_spanning_tree(graph)
        assert 2 * h <= d + 1
        assert exact <= (d + 1) // 2 + 2
        assert exact <= cert.bound
        g = nx.Graph()
        g.add_nodes_from(graph.vertices)
        g.add_edges_from(e.endpoints for e in graph.edges)
        best = min(nx.diameter(tree) for tree in nx.SpanningTreeIterator(g))
        assert d == best
        checked += 1

    # Star layouts: exactly two pieces for three or more spokes.
    for m in (3, 5, 8):
        spec = GeneratorSpec("star", m=m, n=1, seed=1)
        graph = generate(spec).graph
        assert psn_exact_check(graph, tree_dfs_bijection(graph, "c")) == 2

    # The height-3 reference tree lifts to at most four pieces.
    from test_psn import fig5_tree

    tree = fig5_tree()
    assert psn_exact_check(tree, tree_dfs_bijection(tree, "v00")) == 4
    print("\nACCEPTANCE 6 (psn certificates, exhaustive small scale): PASS")


def test_criterion_7_divide_contract():
    rng = random.Random(20240)
    done = 0
    attempts = 0
    while done < 500 and attempts < 3000:
        attempts += 1
        spec = GeneratorSpec(
            "random-connected", m=2 + attempts % 9, n=1 + attempts % 4,
            pieces=1 + attempts % 3, seed=attempts,
        )
        if divide_contract_trial(rng, generate(spec)):
            done += 1
    assert done == 500
    print("\nACCEPTANCE 7 (divide contract, 500 trials): PASS")


def test_criterion_8_prop1_implications():
    assert len(PROP1_POOL) >= 700  # criteria 1-5 all feed the pool
    for instance, allocation in PROP1_POOL:
        report = fairness_report(instance, allocation)
        assert prop1_check(report, instance.n).ok
    print(f"\nACCEPTANCE 8 (metric implications on {len(PROP1_POOL)} allocations): PASS")


def test_criterion_9_determinism(
    iterative_batch, star_batch, identical4_batch, balance_batch, star_identical_batch
):
    first = {}
    for instance, allocation in iterative_batch[0]:
        first.setdefault("iterative", []).append(_bytes(instance, allocation))
    for instance, eps, allocation, _ in star_batch[0]:
        first.setdefault("star", []).append(_bytes(instance, allocation))
    for instance, allocation in identical4_batch:
        first.setdefault("identical4", []).append(_bytes(instance, allocation))
    for instance, eps, allocation, _ in balance_batch:
        first.setdefault("balance", []).append(_bytes(instance, allocation))
    for instance, allocation in star_identical_batch:
        first.setdefault("star_identical", []).append(_bytes(instance, allocation))

    second = {
        "iterative": [_bytes(i, a) for i, a in run_iterative_batch()],
        "star": [_bytes(i, a) for i, _, a, _ in run_star_batch()],
        "identical4": [_bytes(i, a) for i, a in run_identical4_batch()],
        "balance": [_bytes(i, a) for i, _, a, _ in run_balance_batch()],
        "star_identical": [_bytes(i, a) for i, a in run_star_identical_batch()],
    }
    assert first == second

    spec = GeneratorSpec("star", m=9, n=4, pieces=4, seed=77)
    assert save_instance(generate(spec)) == save_instance(generate(spec))
    print("\nACCEPTANCE 9 (byte-identical outputs on re-run): PASS")
