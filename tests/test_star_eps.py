import pytest
from hypothesis import given, settings, strategies as st

from graphcake.fairness import fairness_report
from graphcake.generate import GeneratorSpec, generate
from graphcake.model import (
    ContractViolation,
    Edge,
    EdgeInterval,
    Graph,
    Instance,
    Share,
    StepDensity,
    canonical_share,
    eval_share,
    validate_allocation,
)
from graphcake.queries import QueryLedger
from graphcake.rational import Rational
from graphcake.solvers import SOLVERS
from graphcake.star_eps import (
    Trading,
    finalize,
    find_star_center,
    leaf_first,
    prepare_layout,
    star_three_eps,
)

from conftest import F, _mirrored, integral, path_instance, star_instance, uniform_density


def test_find_star_center(fig1):
    assert find_star_center(fig1.graph) == "c"
    path3 = Graph(
        ("a", "b", "c", "d"),
        (Edge("e1", ("a", "b")), Edge("e2", ("b", "c")), Edge("e3", ("c", "d"))),
    )
    assert find_star_center(path3) is None


def test_leaf_first_flips_the_centre_first_spokes(fig1):
    star, flipped = leaf_first(fig1)
    assert star is fig1 and not flipped
    star, flipped = leaf_first(_mirrored(fig1, {"e1", "e3"}))
    assert flipped == {"e1", "e3"}
    assert star == fig1
    with pytest.raises(ValueError, match="not a star"):
        leaf_first(path_instance(3))


def test_prepare_layout_rejects_a_centre_first_star(fig1):
    with pytest.raises(ValueError, match="leaf to center"):
        prepare_layout(_mirrored(fig1, {"e2"}), F(1, 2))


def test_prepare_layout_rejects_a_non_star():
    with pytest.raises(ValueError, match="instance graph is not a star"):
        prepare_layout(path_instance(3), F(1, 2))


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
    state = Trading(fig1, layout)
    assert state.step()
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
    state = Trading(inst, layout, (s1, s2), ("N1", "N1"), 2)
    assert state.step()
    assert state.tags[0] == "N2"
    assert state.shares[0].intervals == (
        EdgeInterval("e03", F(0), F(1)),
        EdgeInterval("e04", F(0), F(1)),
    )


def test_phase2_reaches_fixpoint(fig1):
    state = Trading(fig1, prepare_layout(fig1, F(1, 2)))
    while state.step():
        pass
    assert not state.step()
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
    state = Trading(
        inst,
        layout,
        (Share((EdgeInterval("e1", F(0), F(1, 2)),)), Share((EdgeInterval("e2", F(0), F(1, 2)),))),
        ("N1", "N1"),
        2,
    )
    state.last_trader = 2
    allocation = finalize(state)
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
    state = Trading(
        inst,
        layout,
        (Share((EdgeInterval("e1", F(1, 4), x),)), Share((EdgeInterval("e2", F(1, 4), x),))),
        ("N1", "N1"),
        1,
    )
    state.last_trader = 1
    allocation = finalize(state)
    assert validate_allocation(inst, allocation).ok
    # The leaf gap [0, 1/4] went to agent 1 (holder of its far end), and H to
    # the last trader, agent 1, merging into full coverage of e1.
    assert allocation.share_of(1).intervals == (
        EdgeInterval("e1", F(0), F(1)),
        EdgeInterval("e2", x, F(1)),
    )
    assert allocation.share_of(2).intervals == (EdgeInterval("e2", F(0), x),)


def test_finalize_refuses_a_gap_that_borders_no_share():
    inst = _two_edge_star_halves()
    layout = prepare_layout(inst, F(1, 2))
    state = Trading(
        inst,
        layout,
        (Share((EdgeInterval("e1", F(0), F(1, 2)),)), Share((EdgeInterval("e2", F(0), F(1, 2)),))),
        ("N1", "N1"),
        2,
    )
    # Move the free gap [1/2, x] of e1 to start at 3/4, where nobody holds;
    # positions are reduced (numerator, denominator) pairs.
    gap = state.free["e1"][0]
    assert gap[0] == (1, 2)
    state.free["e1"][0] = ((3, 4),) + gap[1:]
    with pytest.raises(ContractViolation, match="gap must border an allocated interval"):
        finalize(state)


def test_finalize_refuses_a_segment_share_worth_over_own_plus_eps_prime():
    """Agent 2's segment share is worth 17/64 to agent 1, whose own share
    is worth 1/4: exactly 1/4 + 2 eps', so more than 1/4 + eps'."""
    inst = _two_edge_star_halves()
    layout = prepare_layout(inst, F(1, 2))
    assert layout.eps_prime == F(1, 128)
    state = Trading(
        inst,
        layout,
        (Share((EdgeInterval("e1", F(0), F(1, 2)),)), Share((EdgeInterval("e2", F(0), F(17, 32)),))),
        ("N1", "N1"),
        2,
    )
    with pytest.raises(ContractViolation, match="segment share of agent 2 too valuable to agent 1"):
        finalize(state)


def test_finalize_with_no_center_star_left():
    # Agent 3 values e01 at 0 and agent 4 values e02 at 0, so their zero cut
    # targets put both boundaries at the center: no inner sliver is left.
    inst = generate(GeneratorSpec("star", m=2, n=4, pieces=3, seed=5))
    assert set(prepare_layout(inst, F(1, 2)).boundary.values()) == {1}
    alloc = star_three_eps(inst, F(1, 2))
    assert validate_allocation(inst, alloc).ok
    report = fairness_report(inst, alloc)
    assert report.envy_factor is not None and report.envy_factor <= F(7, 2)


# The three owners of the leftover center star.  Each state makes the other
# candidates (the last trader, the last segment trader, the first holder of
# an edge) a different agent.


def test_finalize_center_star_goes_to_first_bundle_holder():
    inst = star_instance(5, n=3)
    layout = prepare_layout(inst, F(1, 2))
    x = layout.boundary["e01"]
    assert x == F(479, 480)
    whole = [EdgeInterval(e, F(0), F(1)) for e in ("e02", "e03", "e04", "e05")]
    state = Trading(
        inst,
        layout,
        (Share((layout.outer("e01"),)), Share(tuple(whole[:2])), Share(tuple(whole[2:]))),
        ("N1", "N2", "N2"),
        1,
    )
    state.last_trader = 3
    allocation = finalize(state)
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
    state = Trading(
        inst,
        layout,
        (Share((EdgeInterval("e1", F(0), F(1, 4)),)), Share((EdgeInterval("e1", F(1, 4), F(1, 2)),))),
        ("N1", "N1"),
        1,
    )
    state.last_trader = 1
    allocation = finalize(state)
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
    state = Trading(
        inst,
        layout,
        (Share((layout.outer("e01"),)), Share((layout.outer("e02"),))),
        ("N1", "N1"),
        2,
    )
    state.last_trader = 1
    allocation = finalize(state)
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


def test_epsilon_outside_unit_interval_rejected(fig1):
    one_agent = generate(GeneratorSpec("star", m=4, n=1, seed=3))
    for epsilon in (F(0), F(-1, 2), F(1), F(3, 2)):
        for instance in (fig1, one_agent):
            with pytest.raises(ValueError, match=r"epsilon must be a rational in \(0, 1\)"):
                star_three_eps(instance, epsilon)


def test_non_star_rejected():
    inst = generate(GeneratorSpec("tree", m=4, n=2, seed=0))
    assert find_star_center(inst.graph) is None
    with pytest.raises(ValueError, match="not a star"):
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
    # Each value is the trader's own share value, evaluated afresh in a replay.
    state = Trading(fig1, prepare_layout(fig1, F(1, 2)))
    for t in trace:
        assert state.step()
        trader = state.last_trader
        assert (t["iteration"], t["trader"]) == (state.iteration, trader)
        assert t["value"] == str(eval_share(fig1, trader, state.shares[trader - 1]))
    assert not state.step()


def _replay_star(seed):
    if seed == "fig1":
        return generate(GeneratorSpec("fig1"))
    inst = generate(GeneratorSpec("star", m=3 + seed % 4, n=2 + seed % 3, pieces=3, seed=seed))
    if seed == 7:
        # Centre at position 0 on every other edge, until leaf_first flips it.
        return _mirrored(inst, set(inst.graph.edge_ids()[::2]))
    return inst


def _fresh(state):
    """A Trading built from scratch on the state's shares, tags and last
    segment trader, checked to hold the same free intervals and held parts,
    with the rows at their ends, and the same own values and targets as the
    stepped state."""
    fresh = Trading(state.instance, state.layout, state.shares, state.tags, state.last_segment_trader)
    assert state.free == fresh.free
    assert state.held == fresh.held
    assert state.own == fresh.own
    assert state.targets == fresh.targets
    return fresh


@pytest.mark.parametrize("seed", ["fig1", 3, 10, 7])
def test_trade_cache_matches_rebuild_after_every_trade(seed):
    inst = leaf_first(_replay_star(seed))[0]
    state = Trading(inst, prepare_layout(inst, F(1, 2)))
    phases = set()
    steps = 0
    while state.step():
        steps += 1
        assert state.iteration == steps
        phases.add(state.tags[state.last_trader - 1])
        _fresh(state)
    assert "N1" in phases
    if seed != "fig1":
        assert "N2" in phases


@pytest.mark.parametrize("seed", range(10))
def test_trading_evaluates_only_the_prefixes_it_records(seed, monkeypatch):
    inst = leaf_first(_replay_star(seed))[0]
    ledger = QueryLedger()
    state = Trading(inst, prepare_layout(inst, F(1, 10)), ledger=ledger)
    calls = []
    prefix_at = StepDensity.prefix_at
    monkeypatch.setattr(StepDensity, "prefix_at", lambda self, xn, xd: calls.append((xn, xd)) or prefix_at(self, xn, xd))
    evals = ledger.evals
    while state.step():
        pass
    assert state.iteration > 0
    assert len(calls) == ledger.evals - evals


@pytest.mark.parametrize("seed", ["fig1", 3, 7])
def test_trading_rows_are_reduced_pairs_and_the_leaf_row_is_free(seed):
    inst = leaf_first(_replay_star(seed))[0]
    layout = prepare_layout(inst, F(1, 2))
    ledger = QueryLedger()
    state = Trading(inst, layout, ledger=ledger)
    # A fresh state has rows at 0 and at every boundary; the row at 0 costs
    # no Eval.
    assert ledger.evals == inst.n * layout.m
    while state.step():
        pass
    for edge_id in layout.order:
        memo = state.prefix[edge_id]
        assert memo[(0, 1)] == ((0, 1),) * inst.n
        for (xn, xd), row in memo.items():
            for agent, (n, d) in zip(inst.agents, row):
                want = integral(inst.density(agent, edge_id), F(0), F(xn, xd))
                assert (n, d) == (want.numerator, want.denominator)
        for lo, hi, values, _, _ in state.free[edge_id]:
            for agent, (n, d) in zip(inst.agents, values):
                assert d > 0 and F(n, d) == integral(inst.density(agent, edge_id), F(*lo), F(*hi))


@pytest.mark.parametrize("seed", ["fig1", 3, 7, 10])
def test_trading_public_state_keeps_its_types(seed):
    """After every step ``shares`` are ``Share``s with ``Rational`` ends and
    ``own`` are ``Rational``s, each agent's own value of its share; reading
    ``shares`` mid-run changes no later trade and no ledger count."""
    inst = leaf_first(_replay_star(seed))[0]
    layout = prepare_layout(inst, F(1, 2))
    runs = []
    for read_every in (None, 1, 5):
        ledger = QueryLedger()
        state = Trading(inst, layout, ledger=ledger)
        trades = []
        while state.step():
            trader = state.last_trader
            trades.append((trader, state.tags[trader - 1], state.own[trader - 1]))
            if read_every and state.iteration % read_every == 0:
                for agent, share, own in zip(inst.agents, state.shares, state.own):
                    assert type(share) is Share and type(own) is Rational
                    assert all(type(iv.lo) is Rational and type(iv.hi) is Rational for iv in share.intervals)
                    assert own == eval_share(inst, agent, share)
        runs.append((trades, list(state.shares), state.tags, ledger.evals, ledger.cuts))
    assert runs[0][0]
    assert runs[0] == runs[1] == runs[2]


def _trades(state):
    """Step to the fixpoint, checking each step against a fresh build; the
    trader and its new share of every trade, and the fresh builds."""
    trades, fresh = [], [_fresh(state)]
    while state.step():
        trades.append((state.last_trader, state.shares[state.last_trader - 1]))
        fresh.append(_fresh(state))
    return trades, fresh


@given(st.integers(2, 6), st.integers(2, 4), st.integers(1, 3), st.integers(0, 10**6), st.data())
@settings(max_examples=60, deadline=None)
def test_trading_steps_like_a_fresh_build(m, n, pieces, seed, data):
    inst = generate(GeneratorSpec("star", m=m, n=n, pieces=pieces, seed=seed))
    # Centre at position 0 on the mirrored edges, until leaf_first flips them.
    inst = leaf_first(_mirrored(inst, data.draw(st.sets(st.sampled_from(inst.graph.edge_ids())))))[0]
    state = Trading(inst, prepare_layout(inst, F(1, 2)))
    trades, fresh = _trades(state)
    # Resumed from a fresh build at a drawn step, the run makes the same
    # remaining trades and ends with the same shares.
    k = data.draw(st.integers(0, len(trades)))
    resumed = fresh[k]
    assert _trades(resumed)[0] == trades[k:]
    assert resumed.shares == state.shares
    assert resumed.tags == state.tags


def _mirror_shares(graph, allocation, edge_ids):
    """Each share read from the other end on the given edges."""
    return tuple(
        canonical_share(graph, [
            EdgeInterval(iv.edge, 1 - iv.hi, 1 - iv.lo) if iv.edge in edge_ids else iv
            for iv in share.intervals
        ])
        for share in allocation.shares
    )


@pytest.mark.parametrize("algorithm", ["star-3eps", "star-identical-2ef"])
@given(st.integers(2, 6), st.integers(2, 4), st.integers(1, 3), st.integers(0, 10**6), st.data())
@settings(max_examples=40, deadline=None)
def test_star_solvers_are_mirror_equivariant(algorithm, m, n, pieces, seed, data):
    identical = algorithm == "star-identical-2ef"
    inst = generate(GeneratorSpec("star", m=m, n=n, pieces=pieces, identical=identical, seed=seed))
    assert leaf_first(inst)[0] is inst
    flipped = data.draw(st.sets(st.sampled_from(inst.graph.edge_ids())))
    runs = []
    for cake in (inst, _mirrored(inst, flipped)):
        ledger, trace = QueryLedger(), []
        allocation = SOLVERS[algorithm].run(cake, F(1, 2), ledger, trace)
        runs.append((cake, allocation, trace, (ledger.evals, ledger.cuts)))
    (_, plain, plain_trace, plain_counts), (mirror, flip, flip_trace, flip_counts) = runs
    # Mirroring the cake mirrors the shares and changes no query count.
    assert flip.shares == _mirror_shares(mirror.graph, plain, flipped)
    assert flip_trace == plain_trace
    assert flip_counts == plain_counts
