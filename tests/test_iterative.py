import pytest
from fractions import Fraction

from graphcake.fairness import fairness_report
from graphcake.generate import GeneratorSpec, generate
from graphcake.iterative import (
    ADAPTIVE_IDENTICAL,
    FIXED_QUARTER,
    _pow2,
    identical_four_ef,
    iterative_divide,
    threshold,
)
from graphcake.divide import divide
from graphcake.model import Allocation, Share, eval_share, eval_share_each, full_cake, validate_allocation
from graphcake.queries import QueryLedger
from graphcake.rational import Rational

from conftest import F, single_edge_instance


def test_threshold_fixed_quarter():
    assert threshold(FIXED_QUARTER, 1, 5, F(0)) == F(1, 4)
    assert threshold(FIXED_QUARTER, 4, 5, F(0)) == F(1, 4)


def test_threshold_adaptive_examples():
    assert threshold(ADAPTIVE_IDENTICAL, 1, 2, F(0)) == F(1, 3)
    assert threshold(ADAPTIVE_IDENTICAL, 2, 3, F(1, 5)) == F(3, 10)


@pytest.mark.parametrize("exponent", [-5, -1, 0, 1, 3])
def test_pow2_is_a_rational(exponent):
    value = _pow2(exponent)
    assert type(value) is Rational and value == Fraction(2) ** exponent


def test_threshold_argument_validation():
    with pytest.raises(ValueError):
        threshold(FIXED_QUARTER, 0, 3, F(0))
    with pytest.raises(ValueError):
        threshold(FIXED_QUARTER, 3, 3, F(0))


@pytest.mark.parametrize("schedule", ["bogus", "adaptive", "", None])
def test_unknown_schedule_rejected(fig1, schedule):
    # Both entry points reach the same check, a one-agent instance included.
    with pytest.raises(ValueError, match="unknown threshold schedule"):
        threshold(schedule, 1, 3, F(0))
    with pytest.raises(ValueError, match="unknown threshold schedule"):
        iterative_divide(fig1, schedule)
    single = generate(GeneratorSpec("star", m=3, n=1, seed=1))
    with pytest.raises(ValueError, match="unknown threshold schedule"):
        iterative_divide(single, schedule)


def test_single_agent_gets_everything(fig1):
    single = generate(GeneratorSpec("star", m=3, n=1, seed=1))
    alloc = iterative_divide(single, FIXED_QUARTER)
    assert eval_share(single, 1, alloc.shares[0]) == 1


def test_fixed_schedule_unit_interval_trace():
    inst = single_edge_instance(n=2)
    alloc = iterative_divide(inst, FIXED_QUARTER)
    vals = sorted(eval_share(inst, 1, s) for s in alloc.shares)
    assert vals == [F(1, 4), F(3, 4)]
    report = fairness_report(inst, alloc)
    assert report.additive_envy == F(1, 2)  # tight at the boundary


def test_adaptive_star_trace(fig1):
    alloc = identical_four_ef(fig1)
    vals = sorted(eval_share(fig1, 1, s) for s in alloc.shares)
    assert vals == [F(1, 3), F(2, 3)]
    report = fairness_report(fig1, alloc)
    assert report.envy_factor == 2  # equals 4 - 2^-(n-3) at n = 2


def test_adaptive_rejects_non_identical():
    inst = generate(GeneratorSpec("star", m=4, n=3, seed=9))
    assert not inst.identical_valuations()
    with pytest.raises(ValueError):
        iterative_divide(inst, ADAPTIVE_IDENTICAL)


def test_fixed_schedule_batch_additive_envy():
    for seed in range(40):
        inst = generate(
            GeneratorSpec("random-connected", m=3 + seed % 8, n=2 + seed % 4,
                          pieces=1 + seed % 3, seed=seed)
        )
        alloc = iterative_divide(inst, FIXED_QUARTER)
        assert validate_allocation(inst, alloc).ok
        report = fairness_report(inst, alloc)
        assert report.additive_envy <= F(1, 2)


def test_adaptive_batch_window_and_proportionality():
    for seed in range(40):
        inst = generate(
            GeneratorSpec("random-connected", m=3 + seed % 8, n=2 + seed % 6,
                          pieces=1 + seed % 3, identical=True, seed=seed)
        )
        alloc = identical_four_ef(inst)
        assert validate_allocation(inst, alloc).ok
        n = inst.n
        vals = [eval_share(inst, 1, s) for s in alloc.shares]
        xi = F(1, 2 * n - 1)
        assert min(vals) >= xi
        assert max(vals) <= (4 - Fraction(2) ** (-(n - 3))) * xi
        report = fairness_report(inst, alloc)
        assert report.envy_factor <= 4 - Fraction(2) ** (-(n - 3))
        assert report.proportionality_factor <= 2 - F(1, n)


def test_deterministic_output():
    inst = generate(GeneratorSpec("random-connected", m=7, n=4, pieces=3, seed=42))
    a1 = iterative_divide(inst, FIXED_QUARTER)
    a2 = iterative_divide(inst, FIXED_QUARTER)
    assert a1 == a2


def recomputing_fixed_quarter(instance, ledger):
    """The fixed-quarter loop valuing every piece afresh each round through
    the public ``divide``: the remainder before dividing, the first share
    after it."""
    root = min(instance.graph.vertices)
    remainder = full_cake(instance.graph)
    remaining = list(instance.agents)
    shares = {}
    for _ in range(1, instance.n):
        worth = eval_share_each(instance, remaining, remainder, ledger)
        if any(worth[a] >= F(1, 4) for a in remaining):
            first, remainder = divide(instance, remainder, remaining, F(1, 4), root, ledger)
            worth = eval_share_each(instance, remaining, first, ledger)
            recipient = min(a for a in remaining if worth[a] >= F(1, 4))
        else:
            first, recipient = Share.empty(), min(remaining)
        shares[recipient] = first
        remaining.remove(recipient)
    shares[remaining[0]] = remainder
    return Allocation(tuple(shares[a] for a in instance.agents))


@pytest.mark.parametrize("family, seed", [("random-connected", 23), ("tree", 15), ("star", 35)])
def test_fixed_rounds_without_a_qualifier_carry_the_worth_on(family, seed):
    """In these instances some round finds nobody valuing the remainder at
    1/4; the carried values go on unchanged to the next round, so the
    allocation equals a loop that values every piece afresh.  That loop
    asks the same Cuts and more Evals: the carried values are not asked
    again."""
    inst = generate(GeneratorSpec(family, m=3 + seed % 8, n=3 + seed % 4, pieces=1 + seed % 3, seed=seed))
    carried, fresh = QueryLedger(), QueryLedger()
    alloc = iterative_divide(inst, FIXED_QUARTER, carried)
    assert any(share.is_empty for share in alloc.shares)
    assert alloc == recomputing_fixed_quarter(inst, fresh)
    assert carried.cuts == fresh.cuts
    assert carried.evals < fresh.evals
