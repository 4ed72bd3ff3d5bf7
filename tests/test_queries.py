"""Query accounting: monotone counters and per-solver regression envelopes.

The envelopes are empirical regression bounds over the seeded family below
(with generous margin), not theory constants; a failure means a solver got
asymptotically chattier.
"""

import pytest

from graphcake.balance import identical_two_eps
from graphcake.generate import GeneratorSpec, generate
from graphcake.io import load_instance, save_instance
from graphcake.iterative import identical_four_ef, iterative_divide
from graphcake.queries import QueryLedger
from graphcake.star_eps import prepare_layout, star_three_eps
from graphcake.star_identical import star_identical_2ef

from conftest import F, _mirrored


def test_ledger_counts_monotone(fig1):
    ledger = QueryLedger()
    iterative_divide(fig1, ledger=ledger)
    assert ledger.evals > 0 and ledger.cuts > 0
    before = (ledger.evals, ledger.cuts)
    identical_four_ef(fig1, ledger=ledger)
    assert (ledger.evals, ledger.cuts) > before
    assert ledger.as_dict() == {"evals": ledger.evals, "cuts": ledger.cuts}


def test_divide_based_solvers_query_envelope():
    for seed in range(10):
        inst = generate(
            GeneratorSpec("random-connected", m=3 + seed % 8, n=2 + seed % 4,
                          pieces=1 + seed % 3, seed=seed)
        )
        n, m = inst.n, len(inst.graph.edges)
        ledger = QueryLedger()
        iterative_divide(inst, ledger=ledger)
        assert ledger.evals <= 8 * n * n * m
        assert ledger.cuts <= 2 * n

        ident = generate(
            GeneratorSpec("random-connected", m=3 + seed % 8, n=2 + seed % 4,
                          pieces=1 + seed % 3, identical=True, seed=seed)
        )
        n, m = ident.n, len(ident.graph.edges)
        ledger = QueryLedger()
        identical_four_ef(ident, ledger=ledger)
        assert ledger.evals <= 8 * n * n * m

        ledger = QueryLedger()
        identical_two_eps(ident, F(1, 10), ledger=ledger)
        assert ledger.evals <= 4 * n * n * m * 10


def test_star_solvers_query_envelope():
    for seed in range(8):
        inst = generate(
            GeneratorSpec("star", m=2 + seed % 8, n=2 + seed % 4,
                          pieces=1 + seed % 3, seed=seed)
        )
        n, m = inst.n, len(inst.graph.edges)
        ledger = QueryLedger()
        star_three_eps(inst, F(1, 10), ledger=ledger)
        assert ledger.evals <= 32 * n * n * m * m * 10
        assert ledger.cuts <= 48 * n * n * m * 10

        ident = generate(
            GeneratorSpec("star", m=2 + seed % 8, n=2 + seed % 4,
                          pieces=1 + seed % 3, identical=True, seed=seed)
        )
        n, m = ident.n, len(ident.graph.edges)
        ledger = QueryLedger()
        star_identical_2ef(ident, ledger=ledger)
        assert ledger.evals <= 8 * n * m + 8 * m * m
        assert ledger.cuts <= n


def test_prepare_layout_records_layout_queries(fig1):
    # One Eval (the agent's edge total) and one Cut (the sliver) per agent and edge.
    ledger = QueryLedger()
    prepare_layout(fig1, F(1, 2), ledger)
    n, m = fig1.n, len(fig1.graph.edges)
    assert (ledger.evals, ledger.cuts) == (n * m, n * m)


def _loaded(family, m, n, seed):
    """A seeded identical-valuation instance read back from its bytes, so its
    agents start from separately parsed valuations."""
    spec = GeneratorSpec(family, m=m, n=n, pieces=3, identical=True, seed=seed)
    return load_instance(save_instance(generate(spec)))


def _counts(solver, instance, *args):
    ledger = QueryLedger()
    solver(instance, *args, ledger=ledger)
    return ledger.evals, ledger.cuts


# Exact (evals, cuts) per solve: the ledger counts every agent's queries even
# where agents sharing a valuation are answered from one evaluation, and
# records no value the solver already holds.
DIVIDE_COUNTS = [
    # instance, iterative_divide, identical_four_ef, identical_two_eps(1/10)
    (None, (14, 2), (12, 2), (15, 2)),
    (1, (441, 0), (506, 0), (536, 0)),
    (2, (456, 5), (539, 9), (701, 9)),
    (3, (485, 12), (498, 0), (528, 0)),
]


@pytest.mark.parametrize("seed, iterative, identical4, identical2", DIVIDE_COUNTS)
def test_divide_based_solvers_query_counts_are_pinned(fig1, seed, iterative, identical4, identical2):
    inst = fig1 if seed is None else _loaded("random-connected", 30, 5, seed)
    assert _counts(iterative_divide, inst) == iterative
    assert _counts(identical_four_ef, inst) == identical4
    assert _counts(identical_two_eps, inst, F(1, 10)) == identical2


def test_divide_based_solvers_count_each_answer_once_on_fig1(fig1):
    """fig1 is a three-edge star with two agents sharing one valuation, so
    each carving is one divide round on the whole cake, whose tree has the
    three edges as its sub-edges.  Nothing is carried into that round and
    the whole cake is worth 1 without asking, so the round integrates
    2 agents x 3 sub-edges = 6 Evals, asks both agents of the one cutting
    group to cut (2 Cuts), and its check values the first share and the
    remainder for both agents, 2 x (|first| + |remainder|) Evals."""
    # iterative-divide at 1/4: first = e1 [0, 3/4], remainder = e1 [3/4, 1],
    # e2 and e3, so 6 + 2 x (1 + 3) = 14.
    alloc = iterative_divide(fig1)
    assert [len(s.intervals) for s in alloc.shares] == [1, 3]
    assert _counts(iterative_divide, fig1) == (6 + 2 * (1 + 3), 2)
    # identical-4ef at 1/3: first = e1, remainder = e2 and e3, so
    # 6 + 2 x (1 + 2) = 12.
    alloc = identical_four_ef(fig1)
    assert [len(s.intervals) for s in alloc.shares] == [1, 2]
    assert _counts(identical_four_ef, fig1) == (6 + 2 * (1 + 2), 2)
    # identical-2eps: that carving, then the balancer values both shares
    # once for one agent of the shared valuation (1 + 2 intervals); their
    # ratio 2 is within 2 + 1/10, so no pass runs: 12 + 3 = 15.
    assert identical_two_eps(fig1, F(1, 10)) == alloc
    assert _counts(identical_two_eps, fig1, F(1, 10)) == (6 + 2 * (1 + 2) + (1 + 2), 2)


# One Eval per edge of the three-edge star, the only time an edge is valued,
# and one Cut per peel.
@pytest.mark.parametrize("seed, counts", [(None, (3, 0)), (1, (3, 4)), (2, (3, 3)), (3, (3, 3))])
def test_star_identical_query_counts_are_pinned(fig1, seed, counts):
    inst = fig1 if seed is None else _loaded("star", 3, 5, seed)
    assert _counts(star_identical_2ef, inst) == counts


# Exact (evals, cuts, trades) per star_three_eps solve at ε = 1/10; the
# third generated star is mirrored on every other edge, so its centre sits
# at position 0 there, and it counts what the unmirrored star counts.  The
# last star has perfbench star-trade's 95th-percentile shape (m = 3, n = 4),
# so trades among four bidders are pinned too.
STAR_EPS_COUNTS = [
    (None, 0, 0, False, (617, 1280, 638)),
    (1, 5, 3, False, (3308, 3691, 1667)),
    (2, 6, 4, False, (10793, 9465, 3623)),
    (3, 5, 3, True, (3452, 3705, 1730)),
    (4, 3, 4, False, (4926, 5757, 1684)),
]


@pytest.mark.parametrize("seed, m, n, mirrored, counts", STAR_EPS_COUNTS)
def test_star_three_eps_query_counts_are_pinned(fig1, seed, m, n, mirrored, counts):
    inst = fig1 if seed is None else generate(GeneratorSpec("star", m=m, n=n, pieces=3, seed=seed))
    if mirrored:
        inst = _mirrored(inst, set(inst.graph.edge_ids()[::2]))
    ledger, trace = QueryLedger(), []
    star_three_eps(inst, F(1, 10), ledger=ledger, trace=trace)
    assert (ledger.evals, ledger.cuts, len(trace)) == counts
