import hashlib
import random

import pytest

from graphcake.fairness import (
    brute_force_egalitarian,
    fairness_report,
    prop1_check,
)
from graphcake.generate import GeneratorSpec, generate
from graphcake.model import (
    Allocation,
    Edge,
    EdgeInterval,
    Graph,
    Instance,
    Share,
    StepDensity,
    eval_share,
)

from conftest import F, multigraph, single_edge_instance, star_instance, uniform_density


def seg(edge, lo, hi):
    return EdgeInterval(edge, F(lo), F(hi))


def test_report_identical_third_vs_two_thirds(fig1):
    alloc = Allocation((
        Share((seg("e1", 0, 1),)),
        Share((seg("e2", 0, 1), seg("e3", 0, 1))),
    ))
    report = fairness_report(fig1, alloc)
    assert report.envy_factor == 2
    assert report.additive_envy == F(1, 3)
    assert report.proportionality_factor == F(3, 2)
    assert [sum(row) for row in report.matrix] == [1, 1]


def test_report_equal_halves():
    inst = single_edge_instance(n=2)
    alloc = Allocation((
        Share((seg("e1", 0, F(1, 2)),)),
        Share((seg("e1", F(1, 2), 1),)),
    ))
    report = fairness_report(inst, alloc)
    assert report.envy_factor == 1
    assert report.additive_envy == 0


def test_report_empty_share_unbounded():
    inst = single_edge_instance(n=2)
    alloc = Allocation((Share(()), Share((seg("e1", 0, 1),))))
    report = fairness_report(inst, alloc)
    assert report.envy_factor is None
    assert report.proportionality_factor is None
    assert report.as_dict()["envy_factor"] == "unbounded"


def test_pseudo_ef_examples():
    inst = single_edge_instance(n=4)
    alloc = Allocation((
        Share((seg("e1", 0, F(1, 100)),)),
        Share((seg("e1", F(1, 100), F(31, 100)),)),
        Share((seg("e1", F(31, 100), F(61, 100)),)),
        Share((seg("e1", F(61, 100), 1),)),
    ))
    assert fairness_report(inst, alloc).pseudo_ef == F(13, 10)

    with_zero = Allocation((
        Share(()),
        Share((seg("e1", 0, F(1, 3)),)),
        Share((seg("e1", F(1, 3), F(2, 3)),)),
        Share((seg("e1", F(2, 3), 1),)),
    ))
    assert fairness_report(inst, with_zero).pseudo_ef is None

    two = single_edge_instance(n=2)
    uneven = Allocation((Share((seg("e1", 0, F(1, 5)),)), Share((seg("e1", F(1, 5), 1),))))
    assert fairness_report(two, uneven).pseudo_ef == 1


def test_pseudo_ef_undefined_for_non_identical():
    inst = generate(GeneratorSpec("star", m=3, n=2, seed=1))
    alloc = Allocation((Share((seg("e01", 0, 1),)), Share((seg("e02", 0, 1), seg("e03", 0, 1)))))
    assert fairness_report(inst, alloc).pseudo_ef is None


class _Stub:
    def __init__(self, alpha, additive, prop):
        self.envy_factor = alpha
        self.additive_envy = additive
        self.proportionality_factor = prop


def test_prop1_bounds():
    chk = prop1_check(_Stub(F(3), F(1, 2), F(2)), 2)
    assert chk.additive_bound_from_ef == F(1, 2)
    assert chk.prop_bound_from_ef == F(2)
    assert chk.additive_bound_from_prop == F(1, 2)
    assert chk.ok

    envy_free = prop1_check(_Stub(F(1), F(0), F(1)), 3)
    assert envy_free.prop_bound_from_ef == 1
    assert envy_free.ok

    # Envy-free, so the additive envy must be 0; proportional for n = 4,
    # which allows additive envy up to 1/2.
    only_additive = prop1_check(_Stub(F(1), F(1, 10), F(1)), 4)
    assert only_additive.additive_bound_from_ef == 0
    assert only_additive.ef_implies_additive is False
    assert only_additive.ef_implies_prop and only_additive.prop_implies_additive
    assert not only_additive.ok


def test_prop1_holds_on_solver_outputs():
    from graphcake.iterative import identical_four_ef, iterative_divide

    for seed in range(15):
        inst = generate(
            GeneratorSpec("random-connected", m=3 + seed % 7, n=2 + seed % 4,
                          pieces=1 + seed % 3, seed=700 + seed)
        )
        report = fairness_report(inst, iterative_divide(inst))
        assert prop1_check(report, inst.n).ok
    for seed in range(15):
        inst = generate(
            GeneratorSpec("random-connected", m=3 + seed % 7, n=2 + seed % 4,
                          pieces=1 + seed % 3, identical=True, seed=800 + seed)
        )
        report = fairness_report(inst, identical_four_ef(inst))
        assert prop1_check(report, inst.n).ok


# ---------------------------------------------------------------------------
# the brute-force egalitarian oracle


def test_oracle_fig1_is_one_third(fig1):
    assert brute_force_egalitarian(fig1) == F(1, 3)


def test_oracle_unit_interval_is_half():
    assert brute_force_egalitarian(single_edge_instance(n=2)) == F(1, 2)


def test_oracle_two_edge_star_is_half():
    assert brute_force_egalitarian(star_instance(2, n=2)) == F(1, 2)


def test_oracle_non_identical_balanced_cut():
    # Agent 1 only values the left half, agent 2 only the right: both can get
    # everything they care about.
    graph = Graph(("a", "b"), (Edge("e1", ("a", "b")),))
    v1 = {"e1": StepDensity((F(0), F(1, 2), F(1)), (F(2), F(0)))}
    v2 = {"e1": StepDensity((F(0), F(1, 2), F(1)), (F(0), F(2)))}
    inst = Instance(graph, (1, 2), {1: v1, 2: v2})
    assert brute_force_egalitarian(inst) == 1


def test_oracle_interior_cut_solved_exactly():
    # Identical valuations with an off-grid balance point: density 3 then 1,
    # switching at 1/3; the egalitarian cut solves 3t = 1 - ... exactly.
    graph = Graph(("a", "b"), (Edge("e1", ("a", "b")),))
    val = {"e1": StepDensity((F(0), F(1, 3), F(1)), (F(2), F(1, 2)))}
    inst = Instance(graph, (1, 2), {1: val, 2: val})
    assert brute_force_egalitarian(inst) == F(1, 2)


def test_oracle_triangle_uses_inner_interval():
    # On a cycle one share may sit strictly inside a single edge.
    graph = Graph(
        ("a", "b", "c"),
        (Edge("e1", ("a", "b")), Edge("e2", ("b", "c")), Edge("e3", ("c", "a"))),
    )
    heavy = {
        "e1": StepDensity((F(0), F(1, 4), F(3, 4), F(1)), (F(0), F(2), F(0))),
        "e2": uniform_density(0),
        "e3": uniform_density(0),
    }
    inst = Instance(graph, (1, 2), {1: heavy, 2: heavy})
    assert brute_force_egalitarian(inst) == F(1, 2)


def _two_piece_valuation(rng, graph):
    """Each edge gets one breakpoint and two random weights, scaled so the
    whole cake is worth 1."""
    raw = {}
    for e in graph.edges:
        b = rng.choice((F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)))
        raw[e.id] = (b, rng.randint(0, 4), rng.randint(1, 4))
    total = sum(w1 * b + w2 * (1 - b) for b, w1, w2 in raw.values())
    return {e: StepDensity((F(0), b, F(1)), (w1 / total, w2 / total)) for e, (b, w1, w2) in raw.items()}


def _oracle_batch():
    """Two-agent generator instances with m = 1-3, identical and not, then
    the multigraphs of at most 3 edges among seeds 0-59 (self-loops and
    parallel edges) with non-identical two-piece densities."""
    for family in ("star", "tree", "random-connected"):
        for m in (1, 2, 3):
            for identical in (False, True):
                for seed in range(4):
                    yield generate(GeneratorSpec(family, m=m, n=2, identical=identical, seed=seed))
    for seed in range(60):
        graph = multigraph(seed)
        if len(graph.edges) <= 3:
            rng = random.Random(seed)
            yield Instance(graph, (1, 2), {a: _two_piece_valuation(rng, graph) for a in (1, 2)})


# sha256 over the oracle's answers on ``_oracle_batch``, one per line.
ORACLE_BATCH_SHA256 = "17ee1e312b5eb29a616ad912d6ff53d6a9d0180b725913bd2a2e7e2ed8a863d8"


def test_oracle_answers_pinned_and_met_by_the_solvers():
    from graphcake.iterative import identical_four_ef, iterative_divide

    answers = []
    for inst in _oracle_batch():
        best = brute_force_egalitarian(inst)
        answers.append(str(best))
        solvers = [iterative_divide] + ([identical_four_ef] if inst.identical_valuations() else [])
        for solve in solvers:
            s1, s2 = solve(inst).shares
            assert best >= min(eval_share(inst, 1, s1), eval_share(inst, 2, s2))
    assert len(answers) == 81
    assert hashlib.sha256("\n".join(answers).encode()).hexdigest() == ORACLE_BATCH_SHA256


def test_oracle_rejects_big_instances():
    inst = generate(GeneratorSpec("random-connected", m=5, n=2, seed=9))
    with pytest.raises(ValueError):
        brute_force_egalitarian(inst)
    three = generate(GeneratorSpec("star", m=3, n=3, seed=9))
    with pytest.raises(ValueError):
        brute_force_egalitarian(three)


def test_solver_minimum_meets_oracle_on_fig1(fig1):
    from graphcake.iterative import identical_four_ef

    alloc = identical_four_ef(fig1)
    best = brute_force_egalitarian(fig1)
    assert best == F(1, 3)
    assert min(eval_share(fig1, 1, s) for s in alloc.shares) >= best


def test_metrics_agree_with_definition_level_recomputation():
    # Recompute every metric from scratch out of raw evaluations.
    for seed in (1, 5, 9):
        inst = generate(GeneratorSpec("star", m=4, n=3, pieces=3, seed=seed))
        from graphcake.iterative import iterative_divide

        alloc = iterative_divide(inst)
        report = fairness_report(inst, alloc)
        n = inst.n
        matrix = [
            [eval_share(inst, i, alloc.shares[j]) for j in range(n)]
            for i in inst.agents
        ]
        assert [list(r) for r in report.matrix] == matrix
        additive = max(matrix[i][j] - matrix[i][i] for i in range(n) for j in range(n))
        assert report.additive_envy == additive
        ratios = [
            matrix[i][j] / matrix[i][i]
            for i in range(n)
            for j in range(n)
            if matrix[i][i] > 0 and matrix[i][j] > 0
        ]
        if all(matrix[i][i] > 0 or all(v == 0 for v in matrix[i]) for i in range(n)):
            assert report.envy_factor == max(ratios + [F(1)])
        if all(matrix[i][i] > 0 for i in range(n)):
            assert report.proportionality_factor == max(
                F(1, n) / matrix[i][i] for i in range(n)
            )
