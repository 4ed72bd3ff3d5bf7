import pytest
from fractions import Fraction

from graphcake.fairness import fairness_report
from graphcake.generate import GeneratorSpec, generate
from graphcake.model import (
    Edge,
    EdgeInterval,
    Graph,
    Instance,
    Share,
    StepDensity,
    eval_share,
    validate_allocation,
)
from graphcake.star_eps import (
    PhaseState,
    TradeCache,
    _rebuild_cache,
    finalize,
    find_star_center,
    initial_state,
    phase2_step,
    prepare_layout,
    star_three_eps,
)

from conftest import F, star_instance, uniform_density


def test_find_star_center(fig1):
    assert find_star_center(fig1.graph) == "c"
    path3 = Graph(
        ("a", "b", "c", "d"),
        (Edge("e1", ("a", "b")), Edge("e2", ("b", "c")), Edge("e3", ("c", "d"))),
    )
    assert find_star_center(path3) is None


def test_layout_star3_boundaries(fig1):
    layout = prepare_layout(fig1, F(1, 2))
    assert layout.eps_prime == F(1, 192)
    for edge_id in layout.order:
        assert layout.boundary[edge_id] == F(191, 192)
        inner = layout.inner(edge_id)
        assert eval_share(fig1, 1, Share((inner,))) == F(1, 576)


def test_layout_zero_value_edge_goes_fully_outer():
    graph = Graph(
        ("c", "v1", "v2"), (Edge("e1", ("v1", "c")), Edge("e2", ("v2", "c")))
    )
    val = {"e1": uniform_density(1), "e2": uniform_density(0)}
    inst = Instance(graph, (1, 2), {1: val, 2: val})
    layout = prepare_layout(inst, F(1, 2))
    assert layout.outer("e2") == EdgeInterval("e2", F(0), F(1))
    assert layout.inner("e2").degenerate


def test_layout_binding_agent_nearest_center():
    # Agent 1 values e1 at 1/2, agent 2 at 1/4; the threshold closer to the
    # center (agent 1's) wins.
    graph = Graph(
        ("c", "v1", "v2"), (Edge("e1", ("v1", "c")), Edge("e2", ("v2", "c")))
    )
    v1 = {"e1": uniform_density(F(1, 2)), "e2": uniform_density(F(1, 2))}
    v2 = {"e1": uniform_density(F(1, 4)), "e2": uniform_density(F(3, 4))}
    inst = Instance(graph, (1, 2), {1: v1, 2: v2})
    layout = prepare_layout(inst, F(1, 2))
    # eps' = 1/128, cap = 1/256: agent 1's threshold sits at 1 - 1/128, agent
    # 2's farther out at 1 - 1/64; the one nearest the center governs.
    assert layout.boundary["e1"] == F(127, 128)
    assert eval_share(inst, 1, Share((layout.inner("e1"),))) == F(1, 256)
    assert eval_share(inst, 2, Share((layout.inner("e1"),))) < F(1, 256)


def test_first_trade_takes_leaf_prefix_worth_increment(fig1):
    layout = prepare_layout(fig1, F(1, 2))
    state = phase2_step(fig1, layout, initial_state(fig1))
    trader = state.last_trader
    assert trader == 1
    share = state.shares[0]
    assert share.intervals == (EdgeInterval("e1", F(0), F(1, 64)),)
    assert eval_share(fig1, 1, share) == layout.eps_prime
    assert state.tags[0] == "N1"


def test_bundle_trade_takes_whole_edges():
    inst = star_instance(6, n=2)
    layout = prepare_layout(inst, F(1, 2))
    # Both agents already hold one full outer segment; no single free segment
    # beats value + eps', but two whole edges together do.
    s1 = Share((layout.outer("e01"),))
    s2 = Share((layout.outer("e02"),))
    state = PhaseState((s1, s2), ("N1", "N1"), 2, 2, 10)
    nxt = phase2_step(inst, layout, state)
    assert nxt.tags[0] == "N2"
    assert nxt.shares[0].intervals == (
        EdgeInterval("e03", F(0), F(1)),
        EdgeInterval("e04", F(0), F(1)),
    )


def test_phase2_reaches_fixpoint(fig1):
    layout = prepare_layout(fig1, F(1, 2))
    state = initial_state(fig1)
    while True:
        nxt = phase2_step(fig1, layout, state)
        if nxt is None:
            break
        state = nxt
    assert phase2_step(fig1, layout, state) is None
    assert all(tag != "unserved" for tag in state.tags)


def _two_edge_star_halves():
    graph = Graph(
        ("c", "v1", "v2"), (Edge("e1", ("v1", "c")), Edge("e2", ("v2", "c")))
    )
    val = {"e1": uniform_density(F(1, 2)), "e2": uniform_density(F(1, 2))}
    return Instance(graph, (1, 2), {1: val, 2: val})


def test_finalize_appends_gap_toward_leaf_holder():
    inst = _two_edge_star_halves()
    layout = prepare_layout(inst, F(1, 2))
    x = layout.boundary["e1"]
    assert x == F(127, 128)
    # Each agent holds a leaf-anchored prefix; the gap [1/2, x] must go to the
    # holder of its leaf-side endpoint.
    state = PhaseState(
        (Share((EdgeInterval("e1", F(0), F(1, 2)),)), Share((EdgeInterval("e2", F(0), F(1, 2)),))),
        ("N1", "N1"),
        2,
        2,
        6,
    )
    allocation = finalize(inst, layout, state)
    assert validate_allocation(inst, allocation).ok
    share1 = allocation.share_of(1)
    assert EdgeInterval("e1", F(0), x) in share1.intervals
    # Leftover center star went to the last trader (agent 2).
    assert any(iv.edge == "e1" and iv.lo == x for iv in allocation.share_of(2).intervals)


def test_finalize_leaf_gap_falls_back_to_far_holder():
    inst = _two_edge_star_halves()
    layout = prepare_layout(inst, F(1, 2))
    x = layout.boundary["e1"]
    # Shares anchored at the boundary leave a gap starting at the leaf, which
    # goes to the holder of its far end instead.
    state = PhaseState(
        (Share((EdgeInterval("e1", F(1, 4), x),)), Share((EdgeInterval("e2", F(1, 4), x),))),
        ("N1", "N1"),
        1,
        1,
        6,
    )
    allocation = finalize(inst, layout, state)
    assert validate_allocation(inst, allocation).ok
    # The leaf gap [0, 1/4] went to agent 1 (holder of its far end), and H to
    # the last trader, agent 1, merging into full coverage of e1.
    assert allocation.share_of(1).intervals == (
        EdgeInterval("e1", F(0), F(1)),
        EdgeInterval("e2", x, F(1)),
    )
    assert allocation.share_of(2).intervals == (EdgeInterval("e2", F(0), x),)


# The three owners of the leftover center star.  Each state makes the other
# candidates (the last trader, the last segment trader, the first holder of
# an edge) a different agent.


def test_finalize_center_star_goes_to_first_bundle_holder():
    inst = star_instance(5, n=3)
    layout = prepare_layout(inst, F(1, 2))
    x = layout.boundary["e01"]
    assert x == F(479, 480)
    whole = [EdgeInterval(e, F(0), F(1)) for e in ("e02", "e03", "e04", "e05")]
    state = PhaseState(
        (Share((layout.outer("e01"),)), Share(tuple(whole[:2])), Share(tuple(whole[2:]))),
        ("N1", "N2", "N2"),
        1,
        3,
        3,
    )
    allocation = finalize(inst, layout, state)
    assert validate_allocation(inst, allocation).ok
    assert allocation.share_of(1).intervals == (EdgeInterval("e01", F(0), x),)
    assert allocation.share_of(2).intervals == (EdgeInterval("e01", x, F(1)), *whole[:2])
    assert allocation.share_of(3).intervals == tuple(whole[2:])


def test_finalize_center_star_goes_to_contested_boundary_holder():
    inst = _two_edge_star_halves()
    layout = prepare_layout(inst, F(1, 2))
    x = layout.boundary["e1"]
    # Both agents hold part of e1.  The gap [1/2, x] first goes to agent 2,
    # the holder of 1/2, so only after that append does agent 2 hold the
    # boundary point x and take the center star.
    state = PhaseState(
        (Share((EdgeInterval("e1", F(0), F(1, 4)),)), Share((EdgeInterval("e1", F(1, 4), F(1, 2)),))),
        ("N1", "N1"),
        1,
        1,
        2,
    )
    allocation = finalize(inst, layout, state)
    assert validate_allocation(inst, allocation).ok
    assert allocation.share_of(1).intervals == (EdgeInterval("e1", F(0), F(1, 4)),)
    assert allocation.share_of(2).intervals == (
        EdgeInterval("e1", F(1, 4), F(1)),
        EdgeInterval("e2", F(0), F(1)),
    )


def test_finalize_center_star_goes_to_last_segment_trader():
    inst = star_instance(3, n=2)
    layout = prepare_layout(inst, F(1, 2))
    x = layout.boundary["e01"]
    assert x == F(191, 192)
    # No edge has two holders; agent 1 holds the first held edge's boundary.
    state = PhaseState(
        (Share((layout.outer("e01"),)), Share((layout.outer("e02"),))),
        ("N1", "N1"),
        2,
        1,
        2,
    )
    allocation = finalize(inst, layout, state)
    assert validate_allocation(inst, allocation).ok
    assert allocation.share_of(1).intervals == (EdgeInterval("e01", F(0), x),)
    assert allocation.share_of(2).intervals == (
        EdgeInterval("e01", x, F(1)),
        EdgeInterval("e02", F(0), F(1)),
        EdgeInterval("e03", F(0), F(1)),
    )


def test_star_three_eps_single_agent():
    inst = generate(GeneratorSpec("star", m=4, n=1, seed=3))
    alloc = star_three_eps(inst, F(1, 2))
    assert eval_share(inst, 1, alloc.shares[0]) == 1


def test_star_three_eps_fig1_bound(fig1):
    alloc = star_three_eps(fig1, F(1, 2))
    report = fairness_report(fig1, alloc)
    assert validate_allocation(fig1, alloc).ok
    assert report.envy_factor is not None and report.envy_factor <= F(7, 2)


def test_star_three_eps_two_edge_star():
    inst = _two_edge_star_halves()
    alloc = star_three_eps(inst, F(1, 10))
    report = fairness_report(inst, alloc)
    assert report.envy_factor is not None and report.envy_factor <= F(31, 10)


def test_epsilon_clamped_with_warning(fig1):
    with pytest.warns(UserWarning):
        alloc = star_three_eps(fig1, F(3, 2))
    assert validate_allocation(fig1, alloc).ok


def test_non_star_rejected():
    inst = generate(GeneratorSpec("tree", m=4, n=2, seed=8))
    if find_star_center(inst.graph) is None:
        with pytest.raises(ValueError):
            star_three_eps(inst, F(1, 2))


def test_random_stars_meet_bound_and_stay_valid():
    for seed in range(12):
        inst = generate(
            GeneratorSpec("star", m=2 + seed % 7, n=2 + seed % 3,
                          pieces=1 + seed % 3, seed=100 + seed)
        )
        for eps in (F(1, 2), F(1, 10)):
            alloc = star_three_eps(inst, eps)
            assert validate_allocation(inst, alloc).ok
            report = fairness_report(inst, alloc)
            assert report.envy_factor is not None and report.envy_factor <= 3 + eps


def test_trace_records_each_trade(fig1):
    trace = []
    star_three_eps(fig1, F(1, 2), trace=trace)
    assert trace
    assert all({"iteration", "phase", "trader", "value"} <= set(t) for t in trace)
    assert [t["iteration"] for t in trace] == list(range(1, len(trace) + 1))
    # Each value is the trader's own share value, as a replay without the
    # incremental cache evaluates it afresh.
    layout = prepare_layout(fig1, F(1, 2))
    state = initial_state(fig1)
    for t in trace:
        state = phase2_step(fig1, layout, state)
        trader = state.last_trader
        assert (t["iteration"], t["trader"]) == (state.iteration, trader)
        assert t["value"] == str(eval_share(fig1, trader, state.shares[trader - 1]))
    assert phase2_step(fig1, layout, state) is None


def _mirrored(instance, edge_ids):
    """The same cake with the given edges' endpoints and densities reversed."""

    def flip(d):
        return StepDensity(
            tuple(1 - b for b in reversed(d.breakpoints)), tuple(reversed(d.values))
        )

    graph = instance.graph
    edges = tuple(
        Edge(e.id, e.endpoints[::-1]) if e.id in edge_ids else e for e in graph.edges
    )
    valuations = {
        a: {e: flip(d) if e in edge_ids else d for e, d in val.items()}
        for a, val in instance.valuations.items()
    }
    return Instance(Graph(graph.vertices, edges), instance.agents, valuations)


def _replay_star(seed):
    if seed == "fig1":
        return generate(GeneratorSpec("fig1"))
    inst = generate(GeneratorSpec("star", m=3 + seed % 4, n=2 + seed % 3, pieces=3, seed=seed))
    if seed == 7:
        # Centre at position 0 on every other edge: free intervals scan hi to lo.
        return _mirrored(inst, set(inst.graph.edge_ids()[::2]))
    return inst


@pytest.mark.parametrize("seed", ["fig1", 3, 10, 7])
def test_trade_cache_matches_rebuild_after_every_trade(seed):
    inst = _replay_star(seed)
    layout = prepare_layout(inst, F(1, 2))
    state = initial_state(inst)
    cache = TradeCache()
    phases = set()
    while True:
        state = phase2_step(inst, layout, state, cache=cache)
        if state is None:
            break
        phases.add(state.tags[state.last_trader - 1])
        fresh = TradeCache()
        _rebuild_cache(inst, layout, state, fresh)
        assert cache.iteration == fresh.iteration == state.iteration
        assert cache.free == fresh.free
        assert cache.own == fresh.own
        assert cache.targets == fresh.targets
    assert "N1" in phases
    if seed != "fig1":
        assert "N2" in phases
