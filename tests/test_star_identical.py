import pytest

from graphcake.generate import GeneratorSpec, generate
from graphcake.model import (
    Edge,
    EdgeInterval,
    Graph,
    Instance,
    Share,
    eval_share,
    validate_allocation,
)
from graphcake.star_eps import leaf_first
from graphcake.star_identical import _peel, star_identical_2ef

from conftest import F, star_instance, uniform_density
from test_acceptance import star_identical_specs


def values(instance, allocation):
    return sorted(eval_share(instance, 1, s) for s in allocation.shares)


def test_fig1_merges_to_two_thirds_one_third(fig1):
    alloc = star_identical_2ef(fig1)
    assert values(fig1, alloc) == [F(1, 3), F(2, 3)]
    assert validate_allocation(fig1, alloc).ok


def test_single_heavy_edge_peels_twice():
    graph = Graph(("c", "v1"), (Edge("e1", ("v1", "c")),))
    inst = Instance(graph, (1, 2), {1: {"e1": uniform_density(1)}, 2: {"e1": uniform_density(1)}})
    alloc = star_identical_2ef(inst)
    assert values(inst, alloc) == [F(1, 2), F(1, 2)]
    # The worthless leftover stays with the second peel for connectivity.
    assert validate_allocation(inst, alloc).ok


def test_zero_leftover_appended_to_last_peel():
    # One valuable edge plus a worthless one; both peels come off e1 and the
    # worthless star is appended to the second recipient.
    graph = Graph(("c", "v1", "v2"), (Edge("e1", ("v1", "c")), Edge("e2", ("v2", "c"))))
    val = {"e1": uniform_density(1), "e2": uniform_density(0)}
    inst = Instance(graph, (1, 2), {1: val, 2: val})
    alloc = star_identical_2ef(inst)
    assert values(inst, alloc) == [F(1, 2), F(1, 2)]
    report = validate_allocation(inst, alloc)
    assert report.ok
    assert any(iv.edge == "e2" for iv in alloc.share_of(2).intervals)


def test_single_agent_takes_all(fig1):
    inst = generate(GeneratorSpec("star", m=3, n=1, identical=True, seed=2))
    alloc = star_identical_2ef(inst)
    assert eval_share(inst, 1, alloc.shares[0]) == 1


def test_rejects_non_identical():
    inst = generate(GeneratorSpec("star", m=3, n=2, seed=4))
    with pytest.raises(ValueError):
        star_identical_2ef(inst)


def test_rejects_non_star():
    inst = generate(GeneratorSpec("tree", m=5, n=2, identical=True, seed=6))
    from graphcake.star_eps import find_star_center

    assert find_star_center(inst.graph) is None
    with pytest.raises(ValueError):
        star_identical_2ef(inst)


def test_random_stars_ratio_at_most_two():
    for seed in range(40):
        inst = generate(
            GeneratorSpec("star", m=1 + seed % 10, n=1 + seed % 8,
                          pieces=1 + seed % 4, identical=True, seed=500 + seed)
        )
        alloc = star_identical_2ef(inst)
        assert validate_allocation(inst, alloc).ok
        vals = values(inst, alloc)
        assert vals[-1] <= 2 * vals[0]


def test_peel_values_are_exact_quotas():
    inst = star_instance(2, n=4, leaf_weights=[F(3, 4), F(1, 4)])
    inst = Instance(inst.graph, (1, 2, 3, 4), {i: inst.valuations[1] for i in (1, 2, 3, 4)})
    alloc = star_identical_2ef(inst)
    vals = values(inst, alloc)
    assert vals[0] >= F(1, 8)  # half of the maximum share at worst
    assert vals[-1] <= 2 * vals[0]
    # Three of the four shares are exact 1/n peels.
    assert sum(1 for v in vals if v == F(1, 4)) >= 3


def test_peels_carry_each_residuals_value():
    """Over criterion 5's stars, the value the peel loop carries for each
    residual [frontier, 1] equals a fresh Eval of it after every peel."""
    peels = 0
    for spec in star_identical_specs():
        star, _ = leaf_first(generate(spec))
        mu, quota = star.agents[0], F(1, star.n)
        frontier = {e.id: F(0) for e in star.graph.edges}

        def fresh(edge_id):
            return eval_share(star, mu, Share((EdgeInterval(edge_id, frontier[edge_id], F(1)),)))

        worth = {e.id: fresh(e.id) for e in star.graph.edges}
        for _ in range(star.n):
            if _peel(star, frontier, worth, quota) is None:
                break
            peels += 1
            assert worth == {edge_id: fresh(edge_id) for edge_id in worth}
    assert peels > 100
