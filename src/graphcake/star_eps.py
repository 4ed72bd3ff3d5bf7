"""Trading protocol for star cakes with arbitrary valuations.

The protocol reserves a sliver of every edge next to the center, lets agents
repeatedly relinquish their share for an unallocated piece worth at least
their current value plus a fixed increment, then hands out the leftovers so
that every share stays connected.  The final multiplicative envy factor is
at most 3 + epsilon, verified exactly before returning.

``leaf_first`` orients a star so every edge runs from its leaf (0) to the
center (1); ``Trading`` holds the loop's state and makes one trade in place
per ``step()``; ``finalize`` hands out the leftovers at the fixpoint,
``mirror_back`` maps the shares back, and ``star_three_eps`` runs it all.

Every interval ``Trading`` keeps, free or held, carries the prefix rows
(every agent's value of [0, x]) at its ends, so a trade values what it
splits or merges by subtracting rows it already has, and computes a row only
for a point it has not met: each point costs one Eval per agent, once.  The
loop runs on integer ``(numerator, denominator)`` pairs end to end: cut
positions, interval ends, values and targets are pairs, compared by
cross-multiplying, and only what a trade stores is reduced.  A segment
trade's new share stays three fields until something reads
``Trading.shares``, which builds it as a checked ``Share``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rational import Rational, as_pair, from_pair, pair_sum, rational, reduced_pair

from .model import (
    Allocation,
    Edge,
    EdgeInterval,
    Graph,
    Instance,
    Share,
    ZERO,
    ONE,
    canonical_share,
    check,
    checked_epsilon,
    complement_spans,
    solver_cut as cut,
    eval_share,
    full_cake,
    uncovered_share,
    validate_allocation,
    validate_partial,
)


def find_star_center(graph) -> str | None:
    """Vertex covering every edge exactly once, or None; smallest id wins."""
    candidates = []
    for v in graph.vertices:
        if all(
            (e.endpoints[0] == v) != (e.endpoints[1] == v)
            for e in graph.edges
        ):
            candidates.append(v)
    return min(candidates) if candidates else None


def leaf_first(instance: Instance) -> tuple[Instance, frozenset[str]]:
    """The same star with every edge running from its leaf to the center.

    Edges whose center sits at position 0 get their endpoints swapped and
    their densities mirrored; ``flipped`` names them.  A star that is already
    leaf-first comes back as the same object.
    """
    graph = instance.graph
    center = find_star_center(graph)
    if center is None:
        raise ValueError("instance graph is not a star")
    flipped = frozenset(e.id for e in graph.edges if e.endpoints[0] == center)
    if not flipped:
        return instance, flipped
    edges = tuple(Edge(e.id, e.endpoints[::-1]) if e.id in flipped else e for e in graph.edges)
    valuations = {
        a: {e: d.mirrored() if e in flipped else d for e, d in val.items()}
        for a, val in instance.valuations.items()
    }
    return Instance(Graph(graph.vertices, edges), instance.agents, valuations), flipped


def mirror_back(instance: Instance, flipped: frozenset[str], allocation: Allocation) -> Allocation:
    """An allocation of ``leaf_first(instance)`` as shares of ``instance``."""
    def back(iv: EdgeInterval) -> EdgeInterval:
        return EdgeInterval(iv.edge, ONE - iv.hi, ONE - iv.lo) if iv.edge in flipped else iv
    return Allocation(tuple(canonical_share(instance.graph, map(back, s.intervals)) for s in allocation.shares))


@dataclass(frozen=True)
class StarLayout:
    """Per-edge geometry of the protocol on a leaf-first star.

    For edge k the outer segment is [0, ``boundary[k]``], from the leaf, and
    the inner sliver is [``boundary[k]``, 1], up to the center; every inner
    sliver is worth at most eps_prime/m to every agent.
    """

    order: tuple[str, ...]
    boundary: dict
    epsilon: Rational
    eps_prime: Rational

    @property
    def m(self) -> int:
        return len(self.order)

    def outer(self, edge_id: str) -> EdgeInterval:
        return EdgeInterval(edge_id, ZERO, self.boundary[edge_id])

    def inner(self, edge_id: str) -> EdgeInterval:
        return EdgeInterval(edge_id, self.boundary[edge_id], ONE)


def prepare_layout(instance: Instance, epsilon: Rational, ledger=None) -> StarLayout:
    """Cut every leaf-first edge so its center-side sliver is tiny for everyone.

    Each agent's candidate boundary is the largest position whose
    center-side segment is worth exactly min(eps'/m, her edge value); the
    boundary actually used is the largest candidate, which keeps the sliver
    small for everyone while making the outer segment maximal.
    """
    epsilon = checked_epsilon(epsilon)
    center = find_star_center(instance.graph)
    if center is None:
        raise ValueError("instance graph is not a star")
    if any(e.endpoints[0] == center for e in instance.graph.edges):
        raise ValueError("star edges must run from leaf to center; see leaf_first")
    order = tuple(sorted(e.id for e in instance.graph.edges))
    m = len(order)
    if m < 2:
        raise ValueError("star protocol needs at least two edges")
    n = instance.n
    eps_prime = epsilon / (16 * n * m)
    cap = eps_prime / m

    boundary = {}
    for edge_id in order:
        whole = EdgeInterval(edge_id, ZERO, ONE)
        candidates = []
        for agent in instance.agents:
            target = min(cap, eval_share(instance, agent, Share((whole,)), ledger))
            candidates.append(cut(instance, agent, whole, "hi", target, ledger).position)
        boundary[edge_id] = max(candidates)

    layout = StarLayout(order, boundary, epsilon, eps_prime)
    for agent in instance.agents:
        total = ZERO
        for edge_id in order:
            sliver = eval_share(instance, agent, Share((layout.inner(edge_id),)))
            check(sliver <= cap, f"inner sliver of {edge_id} too valuable for agent {agent}")
            total += sliver
        check(total <= eps_prime, f"inner slivers exceed the budget for agent {agent}")
    return layout


def _outer_part(layout: StarLayout, iv: EdgeInterval) -> tuple[Rational, Rational] | None:
    """The part of an interval inside its edge's outer segment, if it has length."""
    hi = min(iv.hi, layout.boundary[iv.edge])
    return (iv.lo, hi) if iv.lo < hi else None


def _span(lo: tuple, hi: tuple, lo_row: tuple, hi_row: tuple) -> tuple:
    """A free entry: the interval's end pairs, every agent's value of it as
    an unreduced pair, its end rows."""
    return (lo, hi, tuple([(hn * ld - ln * hd, hd * ld) for (ln, ld), (hn, hd) in zip(lo_row, hi_row)]),
            lo_row, hi_row)


class Trading:
    """The trading loop's state, stepped in place by ``step``.

    Besides the shares, their tags ("unserved" | "N1" | "N2" per agent) and
    the last (segment) trader, it keeps what a trade needs.  Every position
    it keeps is a reduced ``(numerator, denominator)`` pair, so two
    positions are equal exactly when their pairs are.  A row is every
    agent's prefix integral at one position of an edge, a tuple of reduced
    pairs, and every interval kept carries the rows at its ends:

    - ``free``: per edge, the maximal free intervals inside the outer
      segment, in ascending position, each ``(lo, hi, values, lo_row,
      hi_row)`` with every agent's value of it as an unreduced pair, the
      difference of the end rows;
    - ``held``: per agent, the outer parts of its share, each ``(edge id,
      lo, hi, lo_row, hi_row)``;
    - ``targets``: every agent's own value + eps', a reduced pair; bids
      compare a value pair with a target by cross-multiplying;
    - ``own_pairs``: every agent's own value, a reduced pair.

    ``shares`` reads every agent's share as a ``Share``, and ``own`` every
    agent's own value as a ``Rational``.  A segment trade stores the
    trader's new share as ``(edge id, lo, hi)``; ``shares`` builds it,
    checked by ``EdgeInterval``, when something first reads it.

    A segment trade replaces the free entry it cuts with the remainder, or
    deletes it; every trade returns the trader's held parts to the free
    lists, each merged with the free intervals it touches, and values every
    new entry from the rows its ends carry.  ``prefix`` (per edge, a
    position pair -> row) keeps every row computed and is asked only for a
    point no entry carries: the constructor's ends, a cut position and a
    bundle's whole edges.  So each point's row is computed (one Eval per
    agent) once.
    """

    def __init__(
        self,
        instance: Instance,
        layout: StarLayout,
        shares=None,
        tags=None,
        last_segment_trader: int | None = None,
        ledger=None,
    ):
        n = instance.n
        self.instance = instance
        self.layout = layout
        self.ledger = ledger
        self._shares = list(shares) if shares is not None else [Share.empty()] * n
        self.tags = list(tags) if tags is not None else ["unserved"] * n
        self.last_segment_trader = last_segment_trader
        self.last_trader: int | None = None
        self.iteration = 0
        self._eps_prime = as_pair(layout.eps_prime)
        self._densities = {e: [instance.valuations[a][e] for a in instance.agents] for e in layout.order}
        self.prefix: dict = {edge_id: {} for edge_id in layout.order}
        self.free: dict = {}
        self.held: list = [[] for _ in range(n)]
        for edge_id in layout.order:
            parts = []
            for idx, share in enumerate(self._shares):
                for iv in share.on_edge(edge_id):
                    part = _outer_part(layout, iv)
                    if part is not None:
                        lo, hi = as_pair(part[0]), as_pair(part[1])
                        parts.append(part)
                        self.held[idx].append((edge_id, lo, hi, self._row(edge_id, lo), self._row(edge_id, hi)))
            outer = layout.outer(edge_id)
            self.free[edge_id] = []
            for lo, hi in complement_spans(parts, outer.lo, outer.hi):
                lo, hi = as_pair(lo), as_pair(hi)
                self.free[edge_id].append(_span(lo, hi, self._row(edge_id, lo), self._row(edge_id, hi)))
        self.own_pairs = [as_pair(eval_share(instance, a, s, ledger)) for a, s in zip(instance.agents, self._shares)]
        self.targets = [self._plus_eps_prime(*v) for v in self.own_pairs]

    @property
    def shares(self) -> list[Share]:
        """Every agent's share; a pending segment share is built here."""
        shares = self._shares
        for idx, share in enumerate(shares):
            if type(share) is tuple:
                edge_id, lo, hi = share
                shares[idx] = Share((EdgeInterval(edge_id, from_pair(*lo), from_pair(*hi)),))
        return shares

    @property
    def own(self) -> list[Rational]:
        """Every agent's own value, built from its reduced pair."""
        return [from_pair(*v) for v in self.own_pairs]

    def _plus_eps_prime(self, vn: int, vd: int) -> tuple[int, int]:
        en, ed = self._eps_prime
        return reduced_pair(vn * ed + en * vd, vd * ed)

    def _row(self, edge_id: str, x: tuple[int, int], known: tuple[int, tuple[int, int]] | None = None) -> tuple:
        """Every agent's value of [0, x] on one edge, as reduced pairs, for a
        position pair ``x``.  ``known`` is an (agent index, prefix pair) that
        the agent's Cut already answered."""
        memo = self.prefix[edge_id]
        row = memo.get(x)
        if row is None:
            densities = self._densities[edge_id]
            xn, xd = x
            if not xn:
                row = ((0, 1),) * len(densities)
            else:
                skip, answer = known if known is not None else (-1, None)
                row = tuple([answer if k == skip else density.prefix_at(xn, xd)
                             for k, density in enumerate(densities)])
                if self.ledger is not None:
                    self.ledger.record_eval(len(densities) - (known is not None))
            memo[x] = row
        return row

    def _trade(self, trader: int, share, held: list, tag: str, new_value: tuple[int, int]) -> None:
        """Give the trader ``share`` (a ``Share``, or ``(edge id, lo, hi)``
        for one segment), worth the reduced pair ``new_value`` to it.  The
        caller has taken ``held``, the share's outer parts, out of the free
        lists; the trader's old outer parts rejoin them here."""
        idx = trader - 1
        vn, vd = new_value
        tn, td = self.targets[idx]
        check(vn * td >= tn * vd, "trade must gain at least eps'")
        self._shares[idx] = share
        self.tags[idx] = tag
        if tag == "N1":
            self.last_segment_trader = trader
        self.last_trader = trader
        self.iteration += 1
        for edge_id, lo, hi, lo_row, hi_row in self.held[idx]:
            spans = self.free[edge_id]
            hn, hd = hi
            for i, entry in enumerate(spans):
                en, ed = entry[0]
                if hn * ed <= en * hd:
                    break
            else:
                i = len(spans)
            if i < len(spans) and spans[i][0] == hi:
                _, hi, _, _, hi_row = spans.pop(i)
            if i > 0 and spans[i - 1][1] == lo:
                i -= 1
                lo, _, _, lo_row, _ = spans.pop(i)
            spans.insert(i, _span(lo, hi, lo_row, hi_row))
        self.held[idx] = held
        self.own_pairs[idx] = new_value
        self.targets[idx] = self._plus_eps_prime(vn, vd)

    def step(self) -> bool:
        """Make one trade; False when no agent can improve by eps' any more."""
        instance, layout, targets = self.instance, self.layout, self.targets

        # Segment trade: a maximal free interval inside one outer segment,
        # scanned nearest-the-leaf first.  A span at the leaf is cut from
        # the leaf, any other span from its center-side end.
        for edge_id in layout.order:
            spans = self.free[edge_id]
            densities = self._densities[edge_id]
            for i, (lo, hi, values, lo_row, hi_row) in enumerate(spans):
                bidders = [
                    a for a, (vn, vd), (tn, td) in zip(instance.agents, values, targets)
                    if vn * td >= tn * vd
                ]
                if not bidders:
                    continue
                from_lo = not lo[0]
                # Every bidder's target is positive and fits, so the cuts can
                # start from the row at the anchor end.
                anchor_row = lo_row if from_lo else hi_row
                best = None
                for a in bidders:
                    if self.ledger is not None:
                        self.ledger.record_cut()
                    pn, pd = pos = densities[a - 1].cut_pair(*anchor_row[a - 1], from_lo, *targets[a - 1])
                    # Shortest travel from the anchor wins; ties go to the first bidder.
                    if best is None or (pn * bd < bn * pd if from_lo else pn * bd > bn * pd):
                        best, bn, bd = (pos, a), pn, pd
                pos, trader = best
                # The trader's Cut already answered its own prefix at pos.
                (sn, sd), target = anchor_row[trader - 1], targets[trader - 1]
                tn, td = target
                at_pos = reduced_pair(sn * td + tn * sd if from_lo else sn * td - tn * sd, sd * td)
                pos_row = self._row(edge_id, pos, known=(trader - 1, at_pos))
                if from_lo:
                    piece, rest = (lo, pos, lo_row, pos_row), (pos, hi, pos_row, hi_row)
                else:
                    piece, rest = (pos, hi, pos_row, hi_row), (lo, pos, lo_row, pos_row)
                # Reduced pairs: the rest has length unless its ends are equal.
                if rest[0] != rest[1]:
                    spans[i] = _span(*rest)
                else:
                    del spans[i]
                self._trade(trader, (edge_id, piece[0], piece[1]), [(edge_id, *piece)], "N1", target)
                return True

        # Whole-edge trade: bundle fully-unallocated outer segments.  An
        # untouched edge's free list is its whole outer segment, if that has
        # length.
        shares = self.shares
        untouched = [e for e in layout.order if all(not share.on_edge(e) for share in shares)]
        nothing = ((0, 1),) * instance.n
        bundle_value = [(0, 1)] * instance.n
        chosen: list[str] = []
        for edge_id in untouched:
            chosen.append(edge_id)
            free = self.free[edge_id]
            outer_vals = free[0][2] if free else nothing
            qualifiers = []
            for k, ((vn, vd), (tn, td)) in enumerate(zip(outer_vals, targets)):
                bn, bd = bundle_value[k] = pair_sum(*bundle_value[k], vn, vd)
                if bn * td >= tn * bd:
                    qualifiers.append(k + 1)
            if qualifiers:
                trader = min(qualifiers)
                check(len(chosen) >= 2, "single-edge bundle is a segment trade in disguise")
                wn, wd = 0, 1
                for e in chosen:
                    wn, wd = pair_sum(wn, wd, *self._row(e, (1, 1))[trader - 1])
                held = [
                    (e, lo, hi, lo_row, hi_row)
                    for e in chosen for lo, hi, _, lo_row, hi_row in self.free[e]
                ]
                for e in chosen:
                    self.free[e] = []
                share = canonical_share(self.instance.graph, [EdgeInterval(e, ZERO, ONE) for e in chosen])
                self._trade(trader, share, held, "N2", reduced_pair(wn, wd))
                return True
        return False


def _restricted_to_outer(layout: StarLayout, share: Share) -> Share:
    parts = []
    for edge_id in layout.order:
        for iv in share.on_edge(edge_id):
            part = _outer_part(layout, iv)
            if part is not None:
                parts.append(EdgeInterval(edge_id, *part))
    return Share(tuple(parts))


def _assert_trading_invariants(trading: Trading) -> None:
    instance, layout = trading.instance, trading.layout
    n, m = instance.n, layout.m
    for i, agent in enumerate(instance.agents):
        own = eval_share(instance, agent, trading.shares[i])
        check(
            own >= rational(1, 4 * n * m),
            f"agent {agent} finished trading below 1/(4nm)",
        )
        for j, other in enumerate(instance.agents):
            if trading.tags[j] == "N1":
                check(
                    eval_share(instance, agent, trading.shares[j])
                    <= own + layout.eps_prime,
                    f"segment share of agent {other} too valuable to agent {agent}",
                )
            elif trading.tags[j] == "N2":
                check(
                    eval_share(instance, agent, _restricted_to_outer(layout, trading.shares[j]))
                    <= 2 * (own + layout.eps_prime),
                    f"bundle share of agent {other} too valuable to agent {agent}",
                )
    check(all(tag != "unserved" for tag in trading.tags), "every agent must hold a share")


def _holder(shares: tuple[Share, ...] | list[Share], edge_id: str, pos: Rational) -> int | None:
    """Index of the first share with an interval on ``edge_id`` holding ``pos``."""
    for idx, share in enumerate(shares):
        for iv in share.on_edge(edge_id):
            if iv.lo <= pos <= iv.hi:
                return idx
    return None


def finalize(trading: Trading) -> Allocation:
    """Hand out the leftovers once no trade can improve anyone.

    Gaps inside outer segments go to the holder of their leaf-side end (or
    of their center-side end when the gap starts at the leaf); the
    remaining center star goes to a bundle holder if any, else to the holder
    of a contested boundary point, else to the last segment trader.
    """
    _assert_trading_invariants(trading)
    instance, layout = trading.instance, trading.layout
    graph = instance.graph
    shares = [list(s.intervals) for s in trading.shares]
    appended = [0] * instance.n

    for edge_id in layout.order:
        if not any(
            tag == "N1" and share.on_edge(edge_id)
            for share, tag in zip(trading.shares, trading.tags)
        ):
            continue
        for lo, hi, *_ in trading.free[edge_id]:
            lo, hi = from_pair(*lo), from_pair(*hi)
            recipient = _holder(trading.shares, edge_id, hi if lo == ZERO else lo)
            check(recipient is not None, "gap must border an allocated interval")
            shares[recipient].append(EdgeInterval(edge_id, lo, hi))
            appended[recipient] += 1

    mid_shares = [canonical_share(graph, ivs) for ivs in shares]
    leftover = uncovered_share(graph, mid_shares)

    if leftover.is_empty:
        recipient = None
    elif any(tag == "N2" for tag in trading.tags):
        recipient = min(i for i, tag in enumerate(trading.tags) if tag == "N2")
    else:
        contested = next(
            (e for e in layout.order if sum(1 for s in trading.shares if s.on_edge(e)) >= 2),
            None,
        )
        if contested is not None:
            # After the gap appends the boundary point is always covered.
            recipient = _holder(mid_shares, contested, layout.boundary[contested])
            check(recipient is not None, "contested boundary point must be held")
        else:
            check(trading.last_segment_trader is not None, "no trades ever happened")
            recipient = trading.last_segment_trader - 1
    if recipient is not None:
        if trading.tags[recipient] == "N1":
            check(
                appended[recipient] <= 1,
                "center-star recipient got more than one leftover gap",
            )
        mid_shares[recipient] = canonical_share(
            graph, mid_shares[recipient].intervals + leftover.intervals
        )
    for idx in range(instance.n):
        if trading.tags[idx] == "N1":
            check(appended[idx] <= 2, "segment holder got more than two leftover gaps")

    return Allocation(tuple(mid_shares))


def star_three_eps(
    instance: Instance,
    epsilon: Rational,
    ledger=None,
    trace: list | None = None,
) -> Allocation:
    """Allocation of a star cake with envy factor at most 3 + epsilon.

    Spokes may run either way: the protocol runs on ``leaf_first(instance)``."""
    star, flipped = leaf_first(instance)
    checked_epsilon(epsilon)  # a single agent skips the layout, not the rule
    if instance.n == 1:
        return Allocation((full_cake(instance.graph),))
    layout = prepare_layout(star, epsilon, ledger)
    epsilon = layout.epsilon
    n, m = instance.n, layout.m
    iteration_cap = 16 * n * n * m * epsilon.denominator // epsilon.numerator  # floor(16 n^2 m / eps)
    trading = Trading(star, layout, ledger=ledger)
    while trading.step():
        check(trading.iteration <= iteration_cap, "trading loop exceeded its bound")
        if trace is not None:
            trader = trading.last_trader
            # A reduced pair with a positive denominator, written as str(Fraction) writes it.
            vn, vd = trading.own_pairs[trader - 1]
            trace.append(
                {
                    "iteration": trading.iteration,
                    "phase": "2a" if trading.tags[trader - 1] == "N1" else "2b",
                    "trader": trader,
                    "value": str(vn) if vd == 1 else f"{vn}/{vd}",
                }
            )
        if trading.iteration % 64 == 0:
            report = validate_partial(star, trading.shares)
            check(report.disjoint_ok and report.connectivity_ok, "invalid partial allocation")
    report = validate_partial(star, trading.shares)
    check(report.disjoint_ok and report.connectivity_ok, "invalid partial allocation at Done")

    pre_values = [eval_share(star, a, s) for a, s in zip(star.agents, trading.shares)]
    allocation = mirror_back(instance, flipped, finalize(trading))

    report = validate_allocation(instance, allocation)
    check(report.ok, f"final allocation invalid: {report}")
    bound = rational(3) + epsilon
    for i, agent in enumerate(instance.agents):
        own = eval_share(instance, agent, allocation.shares[i])
        for j in range(instance.n):
            others = eval_share(instance, agent, allocation.shares[j])
            check(
                others <= 3 * pre_values[i] + 4 * layout.eps_prime,
                f"share {j + 1} exceeds the trade-phase bound for agent {agent}",
            )
            check(others <= bound * own, f"envy factor above {bound} for agent {agent}")
    return allocation
