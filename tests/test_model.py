import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from graphcake.model import (
    Edge,
    EdgeInterval,
    Graph,
    Instance,
    PointOnEdge,
    Share,
    StepDensity,
    canonical_share,
    complement_spans,
    cut,
    eval_share,
    is_connected,
    piece_count,
    point_node,
    share_covers_node,
    uncovered_share,
    validate_allocation,
    validate_partial,
    ValidationReport,
)
from graphcake.generate import GeneratorSpec, generate
from graphcake.model import Allocation
from graphcake.rational import ONE, ZERO, Rational, as_pair, rational

from conftest import F, density_value_oracle, integral, multigraph, share_components, star_instance


def iv(edge, lo, hi):
    return EdgeInterval(edge, F(lo), F(hi))


# ---------------------------------------------------------------------------
# eval / cut


def test_eval_full_edge_is_one_third(fig1):
    assert eval_share(fig1, 1, Share((iv("e1", 0, 1),))) == F(1, 3)


def test_eval_whole_cake_is_normalized(fig1):
    whole = Share((iv("e1", 0, 1), iv("e2", 0, 1), iv("e3", 0, 1)))
    assert eval_share(fig1, 1, whole) == 1


def test_eval_subinterval(fig1):
    segment = iv("e1", F(1, 4), F(3, 4))
    expected = density_value_oracle(fig1.density(1, "e1"), F(1, 4), F(3, 4))
    assert expected == F(1, 6)
    assert eval_share(fig1, 1, Share((segment,))) == expected


def test_eval_rejects_unknown_edge(fig1):
    with pytest.raises(ValueError):
        eval_share(fig1, 1, Share((iv("nope", 0, 1),)))


def test_cut_uniform_midpoint(fig1):
    point = cut(fig1, 1, iv("e1", 0, 1), "lo", F(1, 6))
    assert point.position == F(1, 2)


def test_cut_zero_target_returns_anchor(fig1):
    assert cut(fig1, 1, iv("e1", F(1, 8), 1), "lo", F(0)).position == F(1, 8)
    assert cut(fig1, 1, iv("e1", 0, 1), "hi", F(0)).position == 1


def test_cut_full_value_reaches_far_end(fig1):
    assert cut(fig1, 1, iv("e1", 0, 1), "lo", F(1, 3)).position == 1


def test_cut_target_too_large(fig1):
    with pytest.raises(ValueError):
        cut(fig1, 1, iv("e1", 0, 1), "lo", F(1, 2))


def test_cut_zero_density_plateau_nearest_anchor():
    density = StepDensity((F(0), F(1, 4), F(3, 4), F(1)), (F(2), F(0), F(2)))
    # Value 1/2 is first reached at 1/4 and stays there across the plateau.
    assert density.cut_position(F(0), F(1), "lo", F(1, 2)) == F(1, 4)
    assert density.cut_position(F(0), F(1), "hi", F(1, 2)) == F(3, 4)


@st.composite
def densities(draw):
    denom = draw(st.sampled_from([4, 6, 8, 12]))
    count = draw(st.integers(1, 4))
    interior = sorted(draw(st.sets(st.integers(1, denom - 1), max_size=count - 1)))
    bp = (F(0), *(F(i, denom) for i in interior), F(1))
    vals = tuple(F(draw(st.integers(0, 6))) for _ in range(len(bp) - 1))
    return StepDensity(bp, vals)


PLATEAU = StepDensity((F(0), F(1, 4), F(3, 4), F(1)), (F(2), F(0), F(2)))

# Breakpoints over the primes 2^31 - 1 and 2^32 - 5 and densities over 97,
# with a plateau: large coprime denominators for every cross-multiplication
# of the kernels.  As ``typed_densities`` draws it, with ``Fraction`` lists.
BIG_BP = [Fraction(0), Fraction(715827882, 2**31 - 1), Fraction(1431655764, 2**31 - 1),
          Fraction(3 * 10**9, 2**32 - 5), Fraction(1)]
BIG_VALS = [Fraction(131, 97), Fraction(0), Fraction(300, 97), Fraction(1, 97)]
BIG = (StepDensity(tuple(map(rational, BIG_BP)), tuple(map(rational, BIG_VALS))), BIG_BP, BIG_VALS)
COPRIME = 10**9 + 7  # a prime denominator for positions between breakpoints


@given(densities(), st.integers(0, 16), st.integers(0, 16), st.integers(0, 12))
@example(PLATEAU, 0, 16, 6)     # both anchors land on the ends of the plateau
@example(PLATEAU, 2, 14, 6)
@example(PLATEAU, 4, 12, 12)    # the whole interval is the plateau
@settings(max_examples=120, deadline=None)
def test_cut_eval_round_trip(density, a, b, num):
    lo, hi = F(min(a, b), 16), F(max(a, b), 16)
    total = integral(density, lo, hi)
    target = total * F(num, 12)
    for anchor in ("lo", "hi"):
        pos = density.cut_position(lo, hi, anchor, target)
        if anchor == "lo":
            assert integral(density, lo, pos) == target
        else:
            assert integral(density, pos, hi) == target
        if target > 0:
            an, ad = density.prefix_at(*as_pair(lo if anchor == "lo" else hi))
            assert density.cut_pair(an, ad, anchor == "lo", *as_pair(target)) == as_pair(pos)


@given(densities(), st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_cut_monotone_in_target(density, p, q):
    total = density.total
    t1, t2 = sorted([total * F(p, 12), total * F(q, 12)])
    for anchor in ("lo", "hi"):
        x1 = density.cut_position(F(0), F(1), anchor, t1)
        x2 = density.cut_position(F(0), F(1), anchor, t2)
        if anchor == "lo":
            assert x1 <= x2
        else:
            assert x1 >= x2


@given(densities(), st.integers(0, 16), st.integers(0, 16), st.integers(0, 16))
@settings(max_examples=100, deadline=None)
def test_eval_additive_over_disjoint_pieces(density, a, b, c):
    x, y, z = sorted([F(a, 16), F(b, 16), F(c, 16)])
    assert integral(density, x, y) + integral(density, y, z) == integral(density, x, z)


@given(densities(), st.integers(0, 16), st.integers(0, 16))
@example(PLATEAU, 0, 16)     # the whole edge: the stored total
@example(PLATEAU, 0, 5)      # anchored at 0: one prefix
@example(PLATEAU, 5, 16)
@settings(max_examples=80, deadline=None)
def test_eval_matches_independent_quadrature(density, a, b):
    lo, hi = F(min(a, b), 16), F(max(a, b), 16)
    assert integral(density, lo, hi) == density_value_oracle(density, lo, hi)


@given(densities(), st.integers(0, 16), st.integers(0, 16))
@example(PLATEAU, 0, 16)
@example(PLATEAU, 0, 5)
@settings(max_examples=80, deadline=None)
def test_mirrored_density_reads_the_edge_backwards(density, a, b):
    lo, hi = F(min(a, b), 16), F(max(a, b), 16)
    mirrored = density.mirrored()
    assert integral(mirrored, 1 - hi, 1 - lo) == integral(density, lo, hi)
    assert mirrored.mirrored() == density


def _typed(draw, value: Fraction):
    """``value`` as an int (when whole), a ``Fraction`` or a ``Rational``:
    every type the kernels accept."""
    kinds = [Fraction, rational] + ([int] if value.denominator == 1 else [])
    kind = draw(st.sampled_from(kinds))
    return int(value) if kind is int else kind(value.numerator, value.denominator)


@st.composite
def typed_densities(draw):
    """Breakpoints and values over mixed denominators and types, and the
    same density as plain ``Fraction`` lists."""
    denom = draw(st.sampled_from([6, 12, 35, 64]))
    interior = sorted(draw(st.sets(st.integers(1, denom - 1), max_size=4)))
    bp = [Fraction(0), *(Fraction(i, denom) for i in interior), Fraction(1)]
    vals = [Fraction(draw(st.integers(0, 9)), draw(st.sampled_from([1, 4, 7, 15]))) for _ in bp[1:]]
    density = StepDensity(tuple(_typed(draw, b) for b in bp), tuple(_typed(draw, v) for v in vals))
    return density, bp, vals


@st.composite
def typed_spans(draw):
    denom = draw(st.sampled_from([1, 5, 12, 48]))
    a, b = sorted(draw(st.integers(0, denom)) for _ in range(2))
    return _typed(draw, Fraction(a, denom)), _typed(draw, Fraction(b, denom))


def _fraction_integral(bp, vals, lo, hi):
    """The integral as a plain ``Fraction`` sum of piece overlaps."""
    lo, hi = Fraction(lo), Fraction(hi)
    return sum(
        (v * max(Fraction(0), min(hi, b) - max(lo, a)) for a, b, v in zip(bp, bp[1:], vals)),
        Fraction(0),
    )


@given(typed_densities(), st.lists(typed_spans(), min_size=1, max_size=5))
@example((PLATEAU, [Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)], [Fraction(2), Fraction(0), Fraction(2)]),
         [(0, 1), (Fraction(1, 4), rational(3, 4)), (rational(1, 8), Fraction(7, 8)), (1, 1)])
@example(BIG, [(BIG_BP[1], BIG_BP[2]), (rational(BIG_BP[2]), BIG_BP[3]), (0, BIG_BP[3]), (BIG_BP[1], 1)])
@example(BIG, [(Fraction(1, COPRIME), Fraction(COPRIME - 1, COPRIME)), (0, Fraction(5 * 10**8, COPRIME)),
               (rational(6 * 10**8, COPRIME), BIG_BP[3]), (BIG_BP[1], rational(9 * 10**8, COPRIME))])
@settings(max_examples=150, deadline=None)
def test_integral_pairs_and_eval_share_match_a_fraction_sum(drawn, spans):
    """The unreduced pair, its reduction and a share's one-reduction sum all
    equal a plain ``Fraction`` sum, with int, ``Fraction`` and ``Rational``
    endpoints; every edge of the share values the same density."""
    density, bp, vals = drawn
    for lo, hi in spans:
        want = _fraction_integral(bp, vals, lo, hi)
        n, d = density.integral_pair(lo, hi)
        assert d > 0 and Fraction(n, d) == want
        got = integral(density, lo, hi)
        assert type(got) is Rational and got == want
    total = density.total
    if not total:
        return
    edges = tuple(Edge(f"e{k}", (f"v{k}", f"v{k + 1}")) for k in range(len(spans)))
    graph = Graph(tuple(f"v{k}" for k in range(len(spans) + 1)), edges)
    scaled = StepDensity(density.breakpoints, tuple(v / (total * len(edges)) for v in density.values))
    instance = Instance(graph, (1,), {1: {e.id: scaled for e in edges}})
    share = Share(tuple(EdgeInterval(e.id, lo, hi) for e, (lo, hi) in zip(edges, spans)))
    want = sum((_fraction_integral(bp, vals, lo, hi) for lo, hi in spans), Fraction(0)) / (total * len(edges))
    got = eval_share(instance, 1, share)
    assert type(got) is Rational and got == want


def _fraction_cut(bp, vals, lo, hi, from_lo, target):
    """The Cut as a plain ``Fraction`` walk over the pieces of [lo, hi] from
    the anchor end: the first piece of positive density that covers what is
    left of the target holds the position nearest the anchor."""
    lo, hi = Fraction(lo), Fraction(hi)
    pieces = [(max(a, lo), min(b, hi), v) for a, b, v in zip(bp, bp[1:], vals) if max(a, lo) < min(b, hi)]
    for a, b, v in pieces if from_lo else reversed(pieces):
        worth = v * (b - a)
        if v and worth >= target:
            return a + target / v if from_lo else b - target / v
        target -= worth
    raise AssertionError("target does not fit")


@given(typed_densities(), typed_spans(), st.integers(1, 12))
@example((PLATEAU, [Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)], [Fraction(2), Fraction(0), Fraction(2)]),
         (Fraction(1, 8), rational(7, 8)), 6)  # both cuts land on the ends of the plateau
@example(BIG, (BIG_BP[1], Fraction(9 * 10**8, COPRIME)), 5)
@example(BIG, (rational(1, COPRIME), rational(BIG_BP[3])), 11)
@example(BIG, (BIG_BP[2], BIG_BP[3]), 12)  # the whole piece between two breakpoints
@settings(max_examples=150, deadline=None)
def test_prefix_and_cut_pairs_match_a_fraction_oracle(drawn, span, num):
    """``prefix_at`` is the reduced pair of a plain piece sum, and
    ``cut_pair`` from either anchor's prefix pair is the oracle's Cut as a
    reduced pair."""
    density, bp, vals = drawn
    lo, hi = span
    for x in (lo, hi):
        want = _fraction_integral(bp, vals, 0, x)
        assert density.prefix_at(*as_pair(x)) == (want.numerator, want.denominator)
    target = _fraction_integral(bp, vals, lo, hi) * Fraction(num, 12)
    if not target:
        return
    for from_lo, anchor in ((True, lo), (False, hi)):
        an, ad = density.prefix_at(*as_pair(anchor))
        got = density.cut_pair(an, ad, from_lo, target.numerator, target.denominator)
        want = _fraction_cut(bp, vals, lo, hi, from_lo, target)
        assert got == (want.numerator, want.denominator)


@st.composite
def plateau_densities(draw):
    """Densities whose pieces are often worthless, and the same density as
    plain ``Fraction`` lists."""
    denom = draw(st.sampled_from([6, 12, 35, 64]))
    interior = sorted(draw(st.sets(st.integers(1, denom - 1), max_size=5)))
    bp = [Fraction(0), *(Fraction(i, denom) for i in interior), Fraction(1)]
    vals = [draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(3, 4), Fraction(5, 7)])) for _ in bp[1:]]
    return StepDensity(tuple(map(rational, bp)), tuple(map(rational, vals))), bp, vals


def _is_reduced(pair):
    n, d = pair
    return type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1


@given(plateau_densities(), st.integers(0, 97), st.integers(0, 40), st.integers(0, 40), st.integers(1, 12))
@example((PLATEAU, [Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)], [Fraction(2), Fraction(0), Fraction(2)]),
         0, 0, 3, 6)  # [0, 1]: half the value ends on either end of the plateau
@example((PLATEAU, [Fraction(0), Fraction(1, 4), Fraction(3, 4), Fraction(1)], [Fraction(2), Fraction(0), Fraction(2)]),
         48, 5, 6, 12)  # [1/2, 7/8]: from inside the plateau across it, and from 7/8 to its end
@example(BIG, 50, 5, 9, 7)  # from inside the first piece to inside the plateau
@example(BIG, 50, 2, 8, 12)  # from the plateau's far end to inside the last piece
@example(BIG, 50, 9, 3, 5)  # from inside the plateau across a breakpoint over 2^32 - 5
@settings(max_examples=200, deadline=None)
def test_pair_position_kernels_match_fraction_arithmetic(drawn, point, i, j, num):
    """``prefix_at`` at positions on and between breakpoints, and
    ``cut_pair`` from either end of a span, equal plain ``Fraction``
    arithmetic as reduced pairs with positive denominators; the ``Rational``
    entry points return the same values."""
    density, bp, vals = drawn
    xs = [*bp, *((a + b) / 2 for a, b in zip(bp, bp[1:])), Fraction(point, 97)]
    for x in xs:
        want = _fraction_integral(bp, vals, 0, x)
        got = density.prefix_at(x.numerator, x.denominator)
        assert _is_reduced(got) and got == (want.numerator, want.denominator)
        prefix = integral(density, 0, x)
        assert type(prefix) is Rational and prefix == want
    lo, hi = sorted((xs[i % len(xs)], xs[j % len(xs)]))
    target = _fraction_integral(bp, vals, lo, hi) * Fraction(num, 12)
    if not target:
        return
    for from_lo, anchor, end in ((True, lo, "lo"), (False, hi, "hi")):
        want = _fraction_cut(bp, vals, lo, hi, from_lo, target)
        got = density.cut_pair(*density.prefix_at(anchor.numerator, anchor.denominator), from_lo,
                               target.numerator, target.denominator)
        assert _is_reduced(got) and got == (want.numerator, want.denominator)
        wrapped = density.cut_position(lo, hi, end, target)
        assert type(wrapped) is Rational and wrapped == want


def test_prefix_and_cut_pair_fixed_branches():
    # PLATEAU: density 2 on [0, 1/4], 0 on [1/4, 3/4], 2 on [3/4, 1].
    assert PLATEAU.prefix_at(0, 1) == (0, 1)
    assert PLATEAU.prefix_at(1, 2) == (1, 2)
    assert PLATEAU.prefix_at(7, 8) == (3, 4)
    assert PLATEAU.prefix_at(1, 1) == (1, 1)  # the last breakpoint: the total
    assert integral(PLATEAU, ZERO, F(7, 8)) == F(3, 4)
    # On a breakpoint, the piece that starts there answers.
    assert PLATEAU.prefix_at(1, 4) == PLATEAU.prefix_at(3, 4) == (1, 2)
    assert PLATEAU.prefix_at(2, 8) == (1, 2)  # an unreduced position pair
    # From lo the plateau's near end, from hi its far end.
    assert PLATEAU.cut_pair(0, 1, True, 1, 2) == (1, 4)
    assert PLATEAU.cut_pair(1, 1, False, 1, 2) == (3, 4)
    # The whole edge from either end, and a cut inside the last piece.
    assert PLATEAU.cut_pair(0, 1, True, 1, 1) == (1, 1)
    assert PLATEAU.cut_pair(1, 1, False, 1, 1) == (0, 1)
    assert PLATEAU.cut_pair(1, 2, True, 1, 4) == (7, 8)
    assert PLATEAU.cut_position(F(1, 2), ONE, "lo", F(1, 4)) == F(7, 8)


# ---------------------------------------------------------------------------
# connectivity


def test_single_interval_connected(fig1):
    assert is_connected(fig1.graph, Share((iv("e1", 0, 1),)))


def test_two_edges_share_center(fig1):
    assert is_connected(fig1.graph, Share((iv("e1", 0, 1), iv("e2", 0, 1))))


def test_leaf_stubs_not_connected(fig1):
    # Position 0 is the leaf on fig1 edges, so neither piece reaches the center.
    share = Share((iv("e1", 0, F(1, 3)), iv("e2", 0, F(1, 3))))
    assert not is_connected(fig1.graph, share)


def test_touching_intervals_same_edge(fig1):
    share = Share((iv("e1", 0, F(1, 2)), iv("e1", F(1, 2), 1)))
    assert is_connected(fig1.graph, share)
    gap = Share((iv("e1", 0, F(1, 4)), iv("e1", F(1, 2), 1)))
    assert not is_connected(fig1.graph, gap)


def test_degenerate_interval_as_connectivity_witness(fig1):
    assert is_connected(fig1.graph, Share((iv("e1", 1, 1),)))
    assert is_connected(fig1.graph, Share(()))


def _touch(graph, x, y):
    """Two intervals touch when they share a point of one edge or an end
    vertex; a self-loop's positions 0 and 1 are the same vertex."""
    if x.edge == y.edge and max(x.lo, y.lo) <= min(x.hi, y.hi):
        return True
    ex, ey = graph.edge(x.edge).endpoints, graph.edge(y.edge).endpoints
    xv = {ex[0]} if x.lo == 0 else set()
    xv |= {ex[1]} if x.hi == 1 else set()
    yv = {ey[0]} if y.lo == 0 else set()
    yv |= {ey[1]} if y.hi == 1 else set()
    return bool(xv & yv)


def _brute_force_components(graph, ivs):
    """Index sets of the connected components of ``_touch``."""
    unreached = set(range(len(ivs)))
    components = []
    while unreached:
        start = min(unreached)
        reached = {start}
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for j in range(len(ivs)):
                if j not in reached and _touch(graph, ivs[i], ivs[j]):
                    reached.add(j)
                    frontier.append(j)
        unreached -= reached
        components.append(reached)
    return components


def _brute_force_connected(graph, share):
    return len(_brute_force_components(graph, share.intervals)) <= 1


def test_is_connected_matches_brute_force_on_random_shares():
    rng = random.Random(5)
    inst = star_instance(4)
    graph = inst.graph
    edge_ids = [e.id for e in graph.edges]
    for _ in range(300):
        count = rng.randint(1, 8)
        ivs = []
        for _ in range(count):
            e = rng.choice(edge_ids)
            a, b = sorted((F(rng.randint(0, 8), 8), F(rng.randint(0, 8), 8)))
            ivs.append(EdgeInterval(e, a, b))
        share = Share(tuple(ivs))
        assert is_connected(graph, share) == _brute_force_connected(graph, share)


def test_share_components_match_brute_force_on_multigraphs():
    """The pieces are the components of ``_touch``, on shares of 1-8
    intervals that put one interval on some edges and several (overlapping,
    touching or single points) on others."""
    rng = random.Random(11)
    seen = Counter()
    for seed in range(400):
        graph = multigraph(seed)
        edge_ids = rng.sample([e.id for e in graph.edges], rng.randint(1, min(3, len(graph.edges))))
        ivs = []
        for _ in range(rng.randint(1, 8)):
            a, b = sorted((F(rng.randint(0, 4), 4), F(rng.randint(0, 4), 4)))
            ivs.append(EdgeInterval(rng.choice(edge_ids), a, b))
        expected = sorted(
            (canonical_share(graph, [ivs[i] for i in sorted(c)]) for c in _brute_force_components(graph, ivs)),
            key=lambda s: s.intervals,
        )
        share = Share(tuple(ivs))
        pieces = share_components(graph, share)
        assert pieces == expected
        assert piece_count(graph, share) == len(pieces)
        assert is_connected(graph, share) == (len(pieces) <= 1)
        assert all(canonical_share(graph, p.intervals) == p for p in pieces)
        per_edge = Counter(iv.edge for iv in ivs)
        seen["one interval on an edge"] += 1 in per_edge.values()
        seen["single point"] += any(iv.lo == iv.hi for iv in ivs)
        for x, y in itertools.combinations(ivs, 2):
            if x.edge == y.edge:
                seen["overlapping"] += max(x.lo, y.lo) < min(x.hi, y.hi)
                seen["touching"] += max(x.lo, y.lo) == min(x.hi, y.hi)
    assert min(seen.values()) >= 50 and len(seen) == 4


LOOPED = Graph(("a", "b", "c"), (Edge("e", ("a", "b")), Edge("f", ("b", "c")), Edge("loop", ("b", "b"))))


@pytest.mark.parametrize(
    "ivs, pieces",
    [
        # Overlapping same-edge intervals: only the merge joins them.
        (
            [iv("e", F(1, 4), F(1, 2)), iv("e", F(1, 3), F(3, 4)), iv("f", F(1, 2), 1)],
            [[iv("e", F(1, 4), F(3, 4))], [iv("f", F(1, 2), 1)]],
        ),
        # A self-loop touches itself: positions 0 and 1 are both vertex b.
        (
            [iv("loop", 0, F(1, 4)), iv("loop", F(3, 4), 1)],
            [[iv("loop", 0, F(1, 4)), iv("loop", F(3, 4), 1)]],
        ),
        # A single point at vertex b, which f's interval covers.
        ([iv("e", 1, 1), iv("f", 0, F(1, 2))], [[iv("f", 0, F(1, 2))]]),
        # A single point at vertex a, which no other interval reaches.
        ([iv("f", 0, F(1, 2)), iv("e", 0, 0)], [[iv("e", 0, 0)], [iv("f", 0, F(1, 2))]]),
    ],
)
def test_share_components_on_hand_built_cases(ivs, pieces):
    share = Share(tuple(ivs))
    assert share_components(LOOPED, share) == [Share(tuple(p)) for p in pieces]
    assert piece_count(LOOPED, share) == len(pieces)
    assert is_connected(LOOPED, share) == (len(pieces) == 1)


def _retyped(x, kind):
    """``x`` as a ``Fraction``, a ``Rational``, or an ``int`` when it is whole."""
    if kind == "int" and x.denominator == 1:
        return int(x)
    return rational(x) if kind == "Rational" else Fraction(x)


def test_share_components_read_int_fraction_and_rational_ends():
    """The vertex rule reads each end as an integer pair, whatever the end's
    type: every share gives the same pieces, and the brute-force ones, with
    its ends all ``Fraction``, all ``Rational``, whole ends as ``int``, or a
    mix of the three."""
    rng = random.Random(29)
    kinds = ("int", "Fraction", "Rational")
    seen = Counter()
    for seed in range(300):
        graph = multigraph(seed)
        edge_ids = [e.id for e in graph.edges]
        ivs = []
        for _ in range(rng.randint(1, 6)):
            a, b = sorted((F(rng.randint(0, 4), 4), F(rng.randint(0, 4), 4)))
            ivs.append(EdgeInterval(rng.choice(edge_ids), a, b))
        expected = sorted(
            (canonical_share(graph, [ivs[i] for i in sorted(c)]) for c in _brute_force_components(graph, ivs)),
            key=lambda s: s.intervals,
        )
        for mix in [[kind] * len(ivs) for kind in kinds] + [[rng.choice(kinds) for _ in ivs]]:
            retyped = Share(tuple(
                EdgeInterval(x.edge, _retyped(x.lo, kind), _retyped(x.hi, kind)) for x, kind in zip(ivs, mix)
            ))
            seen.update(type(end).__name__ for x in retyped.intervals for end in (x.lo, x.hi))
            assert share_components(graph, retyped) == expected
            assert piece_count(graph, retyped) == len(expected)
            assert is_connected(graph, retyped) == (len(expected) <= 1)
    assert min(seen[name] for name in ("int", "Fraction", "Rational")) >= 100


# ---------------------------------------------------------------------------
# validation and canonical form


def test_validate_valid_allocation(fig1):
    alloc = Allocation((Share((iv("e1", 0, 1),)), Share((iv("e2", 0, 1), iv("e3", 0, 1)))))
    report = validate_allocation(fig1, alloc)
    assert report.ok


def test_validate_detects_overlap(fig1):
    alloc = Allocation(
        (Share((iv("e1", 0, F(3, 5)),)), Share((iv("e1", F(1, 2), 1), iv("e2", 0, 1), iv("e3", 0, 1))))
    )
    report = validate_allocation(fig1, alloc)
    assert not report.disjoint_ok
    assert ("e1", F(1, 2), F(3, 5), 1, 2) in report.overlaps


def test_validate_detects_gap(fig1):
    alloc = Allocation((Share((iv("e1", 0, F(1, 2)),)), Share((iv("e2", 0, 1), iv("e3", 0, 1)))))
    report = validate_allocation(fig1, alloc)
    assert not report.complete_ok
    assert ("e1", F(1, 2), F(1)) in report.gaps


def test_validate_detects_disconnected_share(fig1):
    alloc = Allocation(
        (Share((iv("e1", 0, F(1, 2)), iv("e2", 0, F(1, 2)))),
         Share((iv("e1", F(1, 2), 1), iv("e2", F(1, 2), 1), iv("e3", 0, 1))))
    )
    report = validate_allocation(fig1, alloc)
    assert report.disconnected == (1,)


def test_every_agent_sees_total_one_on_any_complete_allocation(fig1):
    alloc = Allocation(
        (Share((iv("e1", 0, F(1, 3)), iv("e2", F(1, 4), 1))),
         Share((iv("e1", F(1, 3), 1), iv("e2", 0, F(1, 4)), iv("e3", 0, 1))))
    )
    assert validate_allocation(fig1, alloc).complete_ok
    for agent in fig1.agents:
        assert sum(eval_share(fig1, agent, s) for s in alloc.shares) == 1


# The per-edge scans that validate_partial and _uncovered used before they
# bucketed the intervals by edge in one pass: an oracle for the report.


def _oracle_on_edge(share, edge_id):
    return [x for x in share.intervals if x.edge == edge_id]


def _oracle_validate_partial(instance, shares):
    graph = instance.graph
    overlaps = []
    for edge in graph.edges:
        entries = []
        for agent, share in zip(instance.agents, shares):
            entries.extend((x.lo, x.hi, agent) for x in _oracle_on_edge(share, edge.id))
        entries.sort()
        for i in range(len(entries)):
            lo_i, hi_i, a_i = entries[i]
            for j in range(i + 1, len(entries)):
                lo_j, hi_j, a_j = entries[j]
                if lo_j >= hi_i:
                    break
                if a_j != a_i and min(hi_i, hi_j) > lo_j:
                    overlaps.append((edge.id, lo_j, min(hi_i, hi_j), a_i, a_j))
    disconnected = [
        agent for agent, share in zip(instance.agents, shares) if not is_connected(graph, share)
    ]
    return ValidationReport(tuple(overlaps), (), tuple(disconnected))


def _oracle_uncovered(graph, shares):
    for edge in graph.edges:
        covered = [(x.lo, x.hi) for share in shares for x in _oracle_on_edge(share, edge.id)]
        for lo, hi in complement_spans(covered, ZERO, ONE):
            yield edge.id, lo, hi


def _oracle_validate_allocation(instance, allocation):
    partial = _oracle_validate_partial(instance, allocation.shares)
    gaps = tuple(_oracle_uncovered(instance.graph, allocation.shares))
    return ValidationReport(partial.overlaps, gaps, partial.disconnected)


def _assert_reports_match(instance, shares):
    allocation = Allocation(tuple(shares))
    for got, want in [
        (validate_partial(instance, allocation.shares), _oracle_validate_partial(instance, allocation.shares)),
        (validate_allocation(instance, allocation), _oracle_validate_allocation(instance, allocation)),
    ]:
        assert got.overlaps == want.overlaps
        assert got.gaps == want.gaps
        assert got.disconnected == want.disconnected
        for mine, theirs in zip(got.overlaps + got.gaps, want.overlaps + want.gaps):
            assert [type(x) for x in mine] == [type(x) for x in theirs]
    assert uncovered_share(instance.graph, allocation.shares) == canonical_share(
        instance.graph, [EdgeInterval(*gap) for gap in _oracle_uncovered(instance.graph, allocation.shares)]
    )


def _random_shares(rng, instance):
    """Unsorted, unmerged shares with overlaps, gaps and single points."""
    edge_ids = instance.graph.edge_ids()
    shares = [[] for _ in instance.agents]
    for _ in range(rng.randrange(3 * len(edge_ids))):
        a, b = sorted((F(rng.randrange(9), 8), F(rng.randrange(9), 8)))
        if rng.random() < 0.15:
            b = a
        shares[rng.randrange(len(shares))].append(EdgeInterval(rng.choice(edge_ids), a, b))
    return [Share(tuple(share)) for share in shares]


def test_validation_matches_the_per_edge_scan_on_random_allocations():
    rng = random.Random(20)
    parallel = 0
    for seed in range(40):
        inst = generate(GeneratorSpec("random-connected", m=2 + seed % 7, n=1 + seed % 4, seed=seed))
        ends = [frozenset(e.endpoints) for e in inst.graph.edges]
        parallel += len(ends) != len(set(ends))
        for _ in range(5):
            _assert_reports_match(inst, _random_shares(rng, inst))
    assert parallel >= 5  # the family really draws parallel edges


def _listed_out_of_order_with_a_loop():
    """Edges listed e3, e1, e2 (graph order is not id order); e2 is a self-loop."""
    graph = Graph(("a", "b"), (Edge("e3", ("a", "b")), Edge("e1", ("b", "a")), Edge("e2", ("a", "a"))))
    val = {"e1": StepDensity((F(0), F(1)), (F(1, 3),)), "e2": StepDensity((F(0), F(1)), (F(1, 3),)),
           "e3": StepDensity((F(0), F(1)), (F(1, 3),))}
    return Instance(graph, (1, 2, 3), {1: val, 2: val, 3: val})


@pytest.mark.parametrize("shares", [
    # overlaps on two edges, reported in graph order, and a three-way overlap
    [[iv("e1", 0, F(1, 2)), iv("e3", 0, F(3, 4))],
     [iv("e1", F(1, 4), 1), iv("e3", F(1, 2), 1)],
     [iv("e1", F(1, 8), F(3, 8)), iv("e2", 0, 1)]],
    # gaps on every edge, and one edge nobody holds
    [[iv("e3", F(1, 4), F(1, 2))], [iv("e3", F(3, 4), 1)], [iv("e1", 0, F(1, 2))]],
    # single points: on the self-loop's vertex, inside a gap and on a border
    [[iv("e2", 0, 0), iv("e3", 0, F(1, 2))],
     [iv("e3", F(1, 2), F(1, 2)), iv("e1", F(1, 3), F(1, 3))],
     [iv("e2", 1, 1), iv("e3", F(1, 2), 1), iv("e1", 0, F(1, 4))]],
    # the self-loop shared and overlapped, one share disconnected
    [[iv("e2", 0, F(1, 2)), iv("e1", F(1, 2), F(3, 4))],
     [iv("e2", F(1, 4), 1), iv("e3", 0, 1)],
     [iv("e1", 0, F(1, 2)), iv("e1", F(3, 4), 1)]],
    # an interval on an edge the graph lacks is no part of any report
    [[iv("e9", 0, 1)], [iv("e2", 0, 1)], [iv("e3", 0, 1), iv("e1", 0, F(1, 2))]],
    # empty shares
    [[], [], []],
])
def test_validation_matches_the_per_edge_scan_on_hand_built_cases(shares):
    inst = _listed_out_of_order_with_a_loop()
    _assert_reports_match(inst, [Share(tuple(share)) for share in shares])


def test_canonical_share_merges_and_sorts(fig1):
    share = canonical_share(
        fig1.graph,
        [iv("e2", F(1, 2), 1), iv("e1", 0, F(1, 2)), iv("e1", F(1, 2), F(3, 4))],
    )
    assert share.intervals == (iv("e1", 0, F(3, 4)), iv("e2", F(1, 2), 1))


def test_canonical_share_drops_redundant_point(fig1):
    # The degenerate point at the center is already covered through e1.
    share = canonical_share(fig1.graph, [iv("e1", 0, 1), iv("e2", 1, 1)])
    assert share.intervals == (iv("e1", 0, 1),)
    lonely = canonical_share(fig1.graph, [iv("e2", 1, 1)])
    assert lonely.intervals == (iv("e2", 1, 1),)


def test_canonical_share_keeps_a_vertex_listed_through_two_edges():
    # Both single points are vertex b of the path a-b-c; one of them must survive.
    graph = Graph(("a", "b", "c"), (Edge("e1", ("a", "b")), Edge("e2", ("b", "c"))))
    share = canonical_share(graph, [iv("e1", 1, 1), iv("e2", 0, 0)])
    assert share.intervals == (iv("e1", 1, 1),)


# Path a-b-c-d with a parallel edge and a loop at b, so single points meet
# through several edges.
CANON_GRAPH = Graph(
    ("a", "b", "c", "d"),
    (Edge("e1", ("a", "b")), Edge("e2", ("b", "c")), Edge("e3", ("b", "c")),
     Edge("e4", ("b", "b")), Edge("e5", ("c", "d"))),
)
canon_intervals = st.lists(
    st.tuples(st.sampled_from(["e1", "e2", "e3", "e4", "e5"]), st.integers(0, 4), st.integers(0, 4))
    .map(lambda t: iv(t[0], F(min(t[1:]), 4), F(max(t[1:]), 4))),
    max_size=6,
)


@given(canon_intervals)
@example([iv("e1", 1, 1), iv("e2", 0, 0)])
@example([iv("e4", 0, 0), iv("e4", 1, 1), iv("e2", 0, 0), iv("e3", 0, F(1, 2))])
@settings(max_examples=300, deadline=None)
def test_canonical_share_covers_every_input_endpoint(intervals):
    share = canonical_share(CANON_GRAPH, intervals)
    for x in intervals:
        for pos in (x.lo, x.hi):
            assert share_covers_node(CANON_GRAPH, share, point_node(CANON_GRAPH, x.edge, pos))
    for x in share.intervals:
        if x.degenerate:  # a kept single point is covered by nothing else
            others = Share(tuple(y for y in share.intervals if y is not x))
            assert not share_covers_node(CANON_GRAPH, others, point_node(CANON_GRAPH, x.edge, x.lo))


def sort_and_merge(graph, intervals):
    """``canonical_share`` by sorting and merging every input: the oracle for
    the linear check that returns canonical input as is."""
    by_edge = {}
    for x in intervals:
        by_edge.setdefault(x.edge, []).append(x)
    merged = []
    for edge_id in sorted(by_edge):
        run = None
        for x in sorted(by_edge[edge_id], key=lambda y: (y.lo, y.hi)):
            if run is None:
                run = x
            elif x.lo <= run.hi:
                if x.hi > run.hi:
                    run = EdgeInterval(edge_id, run.lo, x.hi)
            else:
                merged.append(run)
                run = x
        if run is not None:
            merged.append(run)
    result = [x for x in merged if not x.degenerate]
    for x in merged:
        if x.degenerate and not share_covers_node(graph, Share(tuple(result)), point_node(graph, x.edge, x.lo)):
            result.append(x)
    return Share(tuple(sorted(result, key=lambda y: (y.edge, y.lo, y.hi))))


@given(canon_intervals)
@example([iv("e2", 0, 1), iv("e1", 0, 1)])  # edges out of order
@example([iv("e1", 0, F(1, 2)), iv("e1", F(1, 2), 1)])  # touching on one edge: merged
@example([iv("e3", F(1, 4), F(1, 4))])  # a lone point
@example([iv("e1", 0, 1), iv("e2", 0, 0)])  # a point e1 covers through vertex b
@example([iv("e1", 0, F(1, 4)), iv("e1", F(1, 2), 1), iv("e5", F(1, 4), F(3, 4))])  # canonical
@settings(max_examples=300, deadline=None)
def test_canonical_share_matches_sort_and_merge(intervals):
    share = canonical_share(CANON_GRAPH, intervals)
    assert share == sort_and_merge(CANON_GRAPH, intervals)
    again = canonical_share(CANON_GRAPH, share.intervals)
    assert again == share
    if not any(x.degenerate for x in share.intervals):
        assert again.intervals is share.intervals


def test_uncovered_share(fig1):
    taken = Share((iv("e1", 0, F(1, 2)),))
    rest = uncovered_share(fig1.graph, [taken])
    assert eval_share(fig1, 1, rest) == F(1) - F(1, 6)


def test_complement_spans_examples():
    assert complement_spans([], F(0), F(1)) == [(0, 1)]
    assert complement_spans([(F(3, 4), F(1)), (F(0), F(1, 2))], F(0), F(1)) == [(F(1, 2), F(3, 4))]
    spans = [(F(1, 4), F(1, 2)), (F(1, 4), F(1, 4)), (F(3, 8), F(3, 4))]
    assert complement_spans(spans, F(1, 8), F(7, 8)) == [(F(1, 8), F(1, 4)), (F(3, 4), F(7, 8))]
    # a single point still splits the gap around it
    assert complement_spans([(F(1, 2), F(1, 2))], F(0), F(1)) == [(0, F(1, 2)), (F(1, 2), 1)]


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)).map(sorted), max_size=6))
@settings(max_examples=200, deadline=None)
def test_complement_spans_is_the_ordered_rest(ends):
    spans = [(F(a, 8), F(b, 8)) for a, b in ends]
    gaps = complement_spans(spans, F(0), F(1))
    for k in range(8):
        mid = F(2 * k + 1, 16)
        covered = any(lo < mid < hi for lo, hi in spans)
        assert covered != any(lo < mid < hi for lo, hi in gaps)
    assert all(lo < hi for lo, hi in gaps)
    assert all(a[1] <= b[0] for a, b in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# constructor validation


def test_instance_requires_normalization():
    graph = Graph(("a", "b"), (Edge("e1", ("a", "b")),))
    with pytest.raises(ValueError, match="agent 1"):
        Instance(graph, (1,), {1: {"e1": StepDensity((F(0), F(1)), (F(99, 100),))}})


def test_graph_requires_connectivity():
    with pytest.raises(ValueError, match="connected"):
        Graph(("a", "b", "c"), (Edge("e1", ("a", "b")),))


def test_graph_requires_an_edge():
    with pytest.raises(ValueError, match="a cake needs at least one edge"):
        Graph(("a",), ())


def test_step_density_validation():
    with pytest.raises(ValueError):
        StepDensity((F(0), F(1, 2)), (F(1),))
    with pytest.raises(ValueError):
        StepDensity((F(0), F(1)), (F(-1),))
    with pytest.raises(ValueError):
        StepDensity((F(0), F(1, 2), F(1, 2), F(1)), (F(1), F(1), F(1)))


RUN = "breakpoints must run from 0 to 1"
INCREASE = "breakpoints must strictly increase"
COUNT = "need one density value per piece"
NEGATIVE = "densities must be nonnegative"


@pytest.mark.parametrize("breakpoints, values, message", [
    ((0,), (), RUN),
    ((0, F(1, 2)), (1, -1), RUN),
    ((0, F(1, 2), F(1, 2), 1), (1,), INCREASE),
    ((0, F(1, 2), F(1, 2), 1), (-1, 1, 1, 1), INCREASE),
    ((0, F(1, 4), F(3, 4), F(3, 4), 1), (-1, 1, 1, 1), INCREASE),
    ((0, F(1, 2), 1), (-1,), COUNT),
    ((0, F(1, 2), 1), (1, 1, -1), COUNT),
    ((0, F(1, 2), 1), (1, -1), NEGATIVE),
])
def test_step_density_checks_its_rules_in_order(breakpoints, values, message):
    """Input that breaks several rules gets the message of the first: the
    ends, the order of every breakpoint, the count of values, their signs."""
    with pytest.raises(ValueError) as caught:
        StepDensity(breakpoints, values)
    assert str(caught.value) == message


def test_interval_bounds_validation():
    with pytest.raises(ValueError):
        EdgeInterval("e1", F(-1, 2), F(1, 2))
    with pytest.raises(ValueError):
        EdgeInterval("e1", F(3, 4), F(1, 4))


def test_point_position_validation():
    with pytest.raises(ValueError, match=r"position 3/2 outside \[0, 1\]"):
        PointOnEdge("e1", F(3, 2))


def test_unknown_edge_id_rejected(fig1):
    with pytest.raises(ValueError, match="unknown edge id 'e9'"):
        fig1.graph.edge("e9")


def test_unknown_agent_rejected(fig1):
    with pytest.raises(ValueError, match="unknown agent 3 or edge 'e1'"):
        eval_share(fig1, 3, Share((iv("e1", 0, 1),)))
    with pytest.raises(ValueError, match="unknown agent 3 or edge 'e1'"):
        cut(fig1, 3, iv("e1", 0, 1), "lo", F(1, 6))


def test_cut_anchor_validation(fig1):
    with pytest.raises(ValueError, match="anchor must be 'lo' or 'hi'"):
        cut(fig1, 1, iv("e1", 0, 1), "mid", F(1, 6))


def test_instance_requires_every_valuation():
    graph = Graph(("a", "b"), (Edge("e1", ("a", "b")),))
    with pytest.raises(ValueError, match="agent 2 has no valuation"):
        Instance(graph, (1, 2), {1: {"e1": StepDensity.uniform(F(1))}})


def test_empty_share_has_no_components(fig1):
    assert share_components(fig1.graph, Share.empty()) == []
    assert piece_count(fig1.graph, Share.empty()) == 0
    assert is_connected(fig1.graph, Share.empty())
