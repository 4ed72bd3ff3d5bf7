import pytest

from graphcake import balance
from graphcake.balance import (
    BalanceOutcome,
    balance_path,
    identical_two_eps,
    is_pseudo_four_ef,
    min_max_path,
    recursive_balance,
    verify_balance_outcome,
)
from graphcake.fairness import fairness_report
from graphcake.generate import GeneratorSpec, generate
from graphcake.iterative import identical_four_ef
from graphcake.model import (
    Allocation,
    ContractViolation,
    EdgeInterval,
    Instance,
    Share,
    eval_share,
    full_cake,
    node_sort_key,
    share_boundary_nodes,
    share_covers_node,
    validate_allocation,
)

from conftest import F, multigraph, path_instance, single_edge_instance, uniform_density


def seg(lo, hi):
    return Share((EdgeInterval("e1", F(lo), F(hi)),))


def share_values(instance, shares):
    return [eval_share(instance, 1, s) for s in shares]


# ---------------------------------------------------------------------------
# min-max path


def test_min_max_path_on_chain():
    inst = path_instance(3, n=3)
    # Chain order A1 - A2 - A3 with values 1/2, 1/5, 3/10 along the path cake.
    alloc = Allocation((
        Share((EdgeInterval("e1", F(0), F(1)), EdgeInterval("e2", F(0), F(1, 2)))),
        Share((EdgeInterval("e2", F(1, 2), F(1)), EdgeInterval("e3", F(0), F(1, 10)))),
        Share((EdgeInterval("e3", F(1, 10), F(1)),)),
    ))
    assert share_values(inst, alloc.shares) == [F(1, 2), F(1, 5), F(3, 10)]
    chain = min_max_path(inst, alloc, share_values(inst, alloc.shares))
    assert chain == [1, 0]
    assert len(chain) == 2


def test_min_max_path_all_equal_is_single():
    inst = path_instance(2, n=2)
    alloc = Allocation((
        Share((EdgeInterval("e1", F(0), F(1)),)),
        Share((EdgeInterval("e2", F(0), F(1)),)),
    ))
    chain = min_max_path(inst, alloc, share_values(inst, alloc.shares))
    assert len(chain) == 1
    assert chain == [0]


def test_min_max_path_through_cut_point(fig1):
    alloc = identical_four_ef(fig1)
    chain = min_max_path(fig1, alloc, share_values(fig1, alloc.shares))
    assert len(chain) == 2
    assert share_values(fig1, [alloc.shares[i] for i in chain]) == [F(1, 3), F(2, 3)]


def contact_nodes(graph, a, b):
    """Reference contact rule: the interval ends of either share that both
    shares cover, sorted vertices first."""
    candidates = share_boundary_nodes(graph, a) | share_boundary_nodes(graph, b)
    hits = [node for node in candidates if share_covers_node(graph, a, node) and share_covers_node(graph, b, node)]
    return sorted(hits, key=node_sort_key)


def _seeded_allocations():
    """``identical_four_ef`` allocations on uniform multigraphs (self-loops
    and parallel edges) and on identical generator graphs."""
    for seed in range(60):
        graph = multigraph(seed)
        val = {e.id: uniform_density(F(1, len(graph.edges))) for e in graph.edges}
        agents = tuple(range(1, 2 + seed % 4))
        instance = Instance(graph, agents, dict.fromkeys(agents, val))
        yield instance, identical_four_ef(instance)
    for seed in range(40):
        family = ("random-connected", "tree")[seed % 2]
        instance = generate(GeneratorSpec(family, m=2 + seed % 12, n=2 + seed % 6, pieces=1 + seed % 3,
                                          identical=True, seed=seed))
        yield instance, identical_four_ef(instance)


def test_contacts_match_the_coverage_reference():
    """Two shares touch, in ``min_max_path`` and ``_contact_point``, exactly
    when the coverage rule finds a common point, and ``_contact_point``
    names its first one.  Every pair of start and goal shares gives the
    breadth-first chain over the reference's contact graph."""
    seen = set()
    for instance, alloc in _seeded_allocations():
        graph, shares, n = instance.graph, alloc.shares, instance.n
        touch = [[j for j in range(n) if j != i and contact_nodes(graph, shares[i], shares[j])] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                reference = contact_nodes(graph, shares[i], shares[j])
                if reference:
                    assert balance._contact_point(graph, shares[i], shares[j]) == balance._as_root(reference[0])
                    seen.add(reference[0][0])
                else:
                    with pytest.raises(ContractViolation, match="consecutive chain shares must touch"):
                        balance._contact_point(graph, shares[i], shares[j])
                    seen.add("apart")
        for start in range(n):
            for goal in range(n):
                if start == goal:
                    continue
                values = [F(1)] * n
                values[start], values[goal] = F(0), F(2)
                prev, frontier = {start: start}, [start]
                while frontier:
                    nxt = []
                    for i in frontier:
                        for j in touch[i]:
                            if j not in prev:
                                prev[j] = i
                                nxt.append(j)
                    frontier = nxt
                chain = [goal]
                while chain[-1] != start:
                    chain.append(prev[chain[-1]])
                assert min_max_path(instance, alloc, values) == chain[::-1]
    assert seen == {"v", "p", "apart"}


# ---------------------------------------------------------------------------
# balance_path: the three hand-traced outcomes


def test_balance_path_refill_from_maximum():
    inst = single_edge_instance(n=2)
    chain = (seg(0, F(1, 10)), seg(F(1, 10), F(3, 5)))
    new, outcome = balance_path(inst, chain, share_values(inst, chain), F(1, 2))
    assert outcome.kind == "case3"
    assert share_values(inst, new) == [F(1, 5), F(2, 5)]
    verify_balance_outcome(outcome, F(1, 2))


def test_balance_path_absorb_then_recut_maximum():
    inst = single_edge_instance(n=3)
    chain = (seg(0, F(1, 20)), seg(F(1, 20), F(3, 20)), seg(F(3, 20), F(13, 20)))
    new, outcome = balance_path(inst, chain, share_values(inst, chain), F(1, 2))
    assert outcome.kind == "case2"
    assert outcome.index == 1
    assert share_values(inst, new) == [F(3, 20), F(1, 6), F(1, 3)]
    # The maximum share was re-cut from the contact point of the absorbed pair.
    assert all(eval_share(inst, 1, s) >= F(1, 8) for s in new)


def test_balance_path_returns_unchanged_when_first_share_fine():
    # First share already at gamma/(2+eps): the walk stops before touching
    # anything (values 1/8, 1/4, 1/4 with eps = 1/2 put the bar at 1/10).
    inst = single_edge_instance(n=3)
    chain = (seg(0, F(1, 8)), seg(F(1, 8), F(3, 8)), seg(F(3, 8), F(5, 8)))
    new, outcome = balance_path(inst, chain, share_values(inst, chain), F(1, 2))
    assert outcome.kind == "noop"
    assert new == chain


def test_balance_path_case1_stops_midway():
    # First share too small, second already comfortable: one re-cut then stop.
    inst = single_edge_instance(n=3)
    chain = (seg(0, F(1, 20)), seg(F(1, 20), F(1, 2)), seg(F(1, 2), F(1)))
    new, outcome = balance_path(inst, chain, share_values(inst, chain), F(1, 2))
    verify_balance_outcome(outcome, F(1, 2))
    assert outcome.kind in ("case1", "case3")
    total_before = sum(share_values(inst, chain))
    assert sum(share_values(inst, new)) == total_before


@pytest.mark.parametrize(
    "hand_traced",
    [
        test_balance_path_refill_from_maximum,
        test_balance_path_absorb_then_recut_maximum,
        test_balance_path_returns_unchanged_when_first_share_fine,
        test_balance_path_case1_stops_midway,
    ],
)
def test_balance_path_values_no_share_itself(monkeypatch, hand_traced):
    """Each hand-traced pass runs on the values it is handed: the chain's
    come from the caller and a union's is the sum of its two."""

    def refuse(*args, **kwargs):
        raise AssertionError("balance_path valued a share")

    monkeypatch.setattr(balance, "eval_share", refuse)
    hand_traced()


def test_verify_balance_outcome_rejects_an_unknown_kind():
    values = (F(1, 4), F(3, 4))
    outcome = BalanceOutcome("case4", None, F(3, 4), values, values)
    with pytest.raises(ContractViolation, match="unclassifiable balancing pass: case4"):
        verify_balance_outcome(outcome, F(1, 2))


# ---------------------------------------------------------------------------
# recursive balance


def test_recursive_balance_keeps_balanced_input():
    inst = path_instance(2, n=2)
    alloc = Allocation((
        Share((EdgeInterval("e1", F(0), F(1)),)),
        Share((EdgeInterval("e2", F(0), F(1)),)),
    ))
    log = []
    out = recursive_balance(inst, alloc, F(1, 10), log=log)
    assert out == alloc
    assert log == []


def test_recursive_balance_fig1_untouched(fig1):
    seeded = identical_four_ef(fig1)
    log = []
    out = recursive_balance(fig1, seeded, F(1, 10), log=log)
    assert out == seeded
    assert log == []  # ratio 2 <= 21/10 without any balancing pass


def test_recursive_balance_tightens_engineered_chain():
    inst = path_instance(8, n=4)
    # A valid, pseudo ratio-4 allocation with overall ratio close to 4 - 1/2.
    alloc = Allocation((
        Share((EdgeInterval("e1", F(0), F(1)),)),                       # 1/8
        Share((EdgeInterval("e2", F(0), F(1)), EdgeInterval("e3", F(0), F(1)),
               EdgeInterval("e4", F(0), F(1)), EdgeInterval("e5", F(0), F(1, 2)))),  # 7/16
        Share((EdgeInterval("e5", F(1, 2), F(1)), EdgeInterval("e6", F(0), F(1)))),  # 3/16
        Share((EdgeInterval("e7", F(0), F(1)), EdgeInterval("e8", F(0), F(1)))),     # 1/4
    ))
    assert validate_allocation(inst, alloc).ok
    vals = share_values(inst, alloc.shares)
    assert max(vals) / min(vals) == F(7, 2)
    eps = F(1, 10)
    log = []
    out = recursive_balance(inst, alloc, eps, log=log)
    vals = share_values(inst, out.shares)
    assert max(vals) <= (2 + eps) * min(vals)
    assert 0 < len(log) <= int(F(5 * 16) / eps)
    for outcome in log:
        verify_balance_outcome(outcome, eps)
    assert validate_allocation(inst, out).ok


def test_recursive_balance_checks_every_pass_window(monkeypatch):
    """A ``divide`` core that cuts at half the threshold leaves the pass's
    first share outside its case window, and the pass check stops it there."""
    inst = generate(GeneratorSpec("random-connected", m=8, n=4, identical=True, seed=2))
    log = []
    recursive_balance(inst, identical_four_ef(inst), F(1, 10), log=log)
    assert log  # the seeded allocation needs at least one pass
    core = balance._divide
    monkeypatch.setattr(balance, "_divide", lambda instance, share, agents, totals, beta, root, ledger=None:
                        core(instance, share, agents, totals, beta / 2, root, ledger))
    with pytest.raises(ContractViolation, match="outside window"):
        identical_two_eps(inst, F(1, 10))


def test_recursive_balance_respects_call_cap(monkeypatch):
    # A pass that changes nothing runs the loop into its bound 5n²/ε = 800;
    # its "noop" outcome hands back the chain's own values, and the pass
    # check, which rejects a "noop", is switched off.
    def unchanged(instance, shares, values, epsilon, ledger):
        values = tuple(values)
        return shares, BalanceOutcome("noop", None, values[-1], values, values)

    monkeypatch.setattr(balance, "balance_path", unchanged)
    monkeypatch.setattr(balance, "verify_balance_outcome", lambda outcome, epsilon: None)
    inst = path_instance(8, n=4)
    alloc = Allocation((
        Share((EdgeInterval("e1", F(0), F(1)),)),
        Share((EdgeInterval("e2", F(0), F(1)), EdgeInterval("e3", F(0), F(1)),
               EdgeInterval("e4", F(0), F(1)), EdgeInterval("e5", F(0), F(1, 2)))),
        Share((EdgeInterval("e5", F(1, 2), F(1)), EdgeInterval("e6", F(0), F(1)))),
        Share((EdgeInterval("e7", F(0), F(1)), EdgeInterval("e8", F(0), F(1)))),
    ))
    with pytest.raises(ContractViolation, match="balancing exceeded 800 passes"):
        recursive_balance(inst, alloc, F(1, 10))


def test_recursive_balance_refuses_an_invalid_allocation_before_any_pass(monkeypatch):
    def no_pass(*args):
        raise AssertionError("a balancing pass ran")

    monkeypatch.setattr(balance, "min_max_path", no_pass)
    inst = path_instance(4, n=2)
    # Values 7/8 and 3/16, far apart, but the shares overlap on e4.
    alloc = Allocation((
        Share((EdgeInterval("e1", F(0), F(1)), EdgeInterval("e2", F(0), F(1)),
               EdgeInterval("e3", F(0), F(1)), EdgeInterval("e4", F(0), F(1, 2)))),
        Share((EdgeInterval("e4", F(1, 4), F(1)),)),
    ))
    assert validate_allocation(inst, alloc).overlaps
    with pytest.raises(ValueError, match="balancing requires a valid allocation"):
        recursive_balance(inst, alloc, F(1, 10))


def test_recursive_balance_rejects_non_identical():
    inst = generate(GeneratorSpec("star", m=3, n=2, seed=11))
    assert not inst.identical_valuations()
    alloc = identical_four_ef(generate(GeneratorSpec("star", m=3, n=2, identical=True, seed=11)))
    with pytest.raises(ValueError):
        recursive_balance(inst, alloc, F(1, 2))


def test_balancing_rejects_epsilon_outside_unit_interval(fig1):
    seeded = identical_four_ef(fig1)
    for epsilon in (F(0), F(1), F(5, 2)):
        with pytest.raises(ValueError, match=r"epsilon must be a rational in \(0, 1\)"):
            recursive_balance(fig1, seeded, epsilon)
        for instance in (fig1, path_instance(3, n=1)):
            with pytest.raises(ValueError, match=r"epsilon must be a rational in \(0, 1\)"):
                identical_two_eps(instance, epsilon)


def test_identical_two_eps_gives_one_agent_the_whole_cake():
    inst = path_instance(3, n=1)
    assert identical_two_eps(inst, F(1, 2)) == Allocation((full_cake(inst.graph),))


def test_pipeline_on_random_instances():
    for seed in range(20):
        inst = generate(
            GeneratorSpec("random-connected", m=3 + seed % 9, n=2 + seed % 6,
                          pieces=1 + seed % 3, identical=True, seed=300 + seed)
        )
        for eps in (F(1, 2), F(1, 10)):
            out = identical_two_eps(inst, eps)
            assert validate_allocation(inst, out).ok
            vals = share_values(inst, out.shares)
            assert max(vals) <= (2 + eps) * min(vals)
            assert sum(vals) == 1


def test_pseudo_four_ef_matches_report(fig1):
    alloc = identical_four_ef(fig1)
    vals = share_values(fig1, alloc.shares)
    assert is_pseudo_four_ef(vals)
    assert fairness_report(fig1, alloc).pseudo_ef == F(1)
