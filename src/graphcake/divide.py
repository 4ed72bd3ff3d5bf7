"""Splitting a connected subcake into a bounded-value share plus remainder.

``divide(instance, subcake, agents, beta, root)`` partitions a connected
subcake into two connected shares: the first is worth at least ``beta`` to
some agent of the given set and less than ``2*beta`` to every agent of the
set; the second contains the root point, possibly as a single point.

The subcake is first viewed as a multigraph whose nodes are interval
endpoints (graph vertices unify incident endpoints).  Cycles are broken by
detaching one endpoint of a cycle edge onto a fresh leaf node; because only
node identities change, the produced shares need no translation back.
``decycle`` interns every node key to an int once, picks the edges to break
in one union-find pass (they are the edges outside a maximum spanning tree,
so no cycle search is needed), builds the int adjacency once and returns
that int tree; ``divide`` indexes plain lists by node and sub-edge number,
and reads a node's key only for its trace.  The values below each node are
sums of Eval answers kept as unreduced integer pairs (``rational.pair_sum``),
summed in one pass over the tree per valuation group, on flat lists indexed
by node and sub-edge, and compared with ``beta`` by cross-multiplication;
only a cut target is reduced to a rational.

The core, ``_divide``, takes the subcake's values from its caller and
returns, next to the two shares, each agent's values of them and its
integral of each remainder interval, which its final check computes anyway.
Both shares come out in the tree's (edge, lo) order, so a share that needs
no merge passes ``canonical_share`` unchanged, and the next round's tree
over that remainder has the same intervals in the same order; its edge
values are then the carried integrals.  ``iterative_divide`` and the
balancing passes carry these values forward; the public ``divide`` values
the subcake itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .rational import Rational, as_pair, from_pair, pair_sum
from .model import (
    EdgeInterval,
    Instance,
    PointOnEdge,
    Share,
    canonical_share,
    check,
    solver_cut as cut,
    eval_share,
    eval_share_each,
    node_sort_key,
    point_node,
)


@dataclass
class SubcakeTree:
    """Rooted, acyclic view of a subcake after cycle removal.

    Nodes and sub-edges are ints: node ``v`` is the point ``keys[v]``, and
    sub-edge ``s`` is ``intervals[s]``, joining ``lo[s]`` (its lo end) to
    ``hi[s]``.  ``order`` starts at ``root`` and lists each node after its
    parent; ``children[v]`` holds the (child, sub-edge) pairs below ``v``,
    sorted by the child's ``node_sort_key``.  A sub-edge broken off a cycle
    has one end keyed ``("d", edge, lo, hi)``, a leaf of its own; the key is
    unique because intervals are distinct and each breaks at most once.
    """

    keys: list[tuple]
    intervals: list[EdgeInterval]
    lo: list[int]
    hi: list[int]
    root: int
    order: list[int]
    children: list[list[tuple[int, int]]] = field(repr=False)


def _build_intervals(instance: Instance, subcake: Share, root_point: PointOnEdge | None) -> list[EdgeInterval]:
    """Intervals of the subcake, sorted by (edge, lo, hi).

    ``canonical_share`` returns that order (a canonical subcake's own
    intervals, unchanged), and splitting the root's interval in place keeps
    it.
    """
    intervals = list(canonical_share(instance.graph, subcake.intervals).intervals)
    if root_point is not None:
        # Promote an interior root to a node by splitting its interval.
        for i, iv in enumerate(intervals):
            if iv.edge == root_point.edge and iv.lo < root_point.position < iv.hi:
                intervals[i : i + 1] = [
                    EdgeInterval(iv.edge, iv.lo, root_point.position),
                    EdgeInterval(iv.edge, root_point.position, iv.hi),
                ]
                break
    return intervals


def decycle(instance: Instance, subcake: Share, root) -> SubcakeTree:
    """Rooted tree view of a connected subcake.

    A sub-edge is broken by detaching one of its ends onto a fresh leaf,
    keyed ``("d", edge, lo, hi)``: the hi end for a self-loop, otherwise the
    end with the larger ``node_sort_key``.  Agents' values of every interval
    are untouched, and each sub-edge's end keys say which end was detached.

    The broken sub-edges are those outside the maximum spanning tree under
    sub-edge index (intervals in (edge, lo, hi) order): one union-find pass
    over the sub-edges in descending index order breaks each one whose ends
    are already joined.  This is exactly the set that repeatedly breaking
    the smallest sub-edge of some cycle would break, since the smallest
    sub-edge of a cycle is never in that tree.  Each sub-edge breaks at most
    once and only on its own ends, so the tree does not depend on the order
    of the breaks.
    """
    root_key, root_point = _resolve_root(instance, subcake, root)
    graph = instance.graph
    intervals = _build_intervals(instance, subcake, root_point)
    keys: list[tuple] = []
    index: dict[tuple, int] = {}
    lo: list[int] = []
    hi: list[int] = []
    for iv in intervals:
        for pos, ends in ((iv.lo, lo), (iv.hi, hi)):
            key = point_node(graph, iv.edge, pos)
            node = index.get(key)
            if node is None:
                node = index[key] = len(keys)
                keys.append(key)
            ends.append(node)
    root_node = index.get(root_key)
    if root_node is None:
        raise ValueError(f"root {root!r} is not a point of the subcake")
    node_sort_keys = [node_sort_key(key) for key in keys]

    joined = list(range(len(keys)))

    def find(node: int) -> int:
        while joined[node] != node:
            joined[node] = node = joined[joined[node]]
        return node

    for s in reversed(range(len(intervals))):
        a, b = find(lo[s]), find(hi[s])
        if a != b:
            joined[a] = b
            continue
        iv = intervals[s]
        duplicate_key = ("d", iv.edge, iv.lo, iv.hi)
        duplicate = len(keys)
        keys.append(duplicate_key)
        node_sort_keys.append(node_sort_key(duplicate_key))
        if lo[s] == hi[s] or node_sort_keys[hi[s]] > node_sort_keys[lo[s]]:
            hi[s] = duplicate
        else:
            lo[s] = duplicate

    adj: list[list[int]] = [[] for _ in keys]
    for s in range(len(intervals)):
        adj[lo[s]].append(s)
        adj[hi[s]].append(s)

    children: list[list[tuple[int, int]]] = [[] for _ in keys]
    order = [root_node]
    seen = [False] * len(keys)
    seen[root_node] = True
    stack = [root_node]
    while stack:
        node = stack.pop()
        kids = children[node]
        for s in adj[node]:
            other = hi[s] if node == lo[s] else lo[s]
            if not seen[other]:
                seen[other] = True
                kids.append((other, s))
                order.append(other)
                stack.append(other)
        kids.sort(key=lambda k: (node_sort_keys[k[0]], k[1]))
    check(len(order) == len(keys), "decycle produced a disconnected view")
    return SubcakeTree(keys, intervals, lo, hi, root_node, order, children)


def _resolve_root(instance: Instance, subcake: Share, root) -> tuple[tuple, PointOnEdge | None]:
    graph = instance.graph
    if isinstance(root, str):
        return ("v", root), None
    if isinstance(root, PointOnEdge):
        node = point_node(graph, root.edge, root.position)
        return node, (root if node[0] == "p" else None)
    raise ValueError(f"root must be a vertex id or PointOnEdge, got {root!r}")


def _subtree_edges(tree: SubcakeTree, node: int) -> list[int]:
    """Sub-edges below ``node``."""
    out = []
    stack = [node]
    while stack:
        for child, s in tree.children[stack.pop()]:
            out.append(s)
            stack.append(child)
    return out


def divide(
    instance: Instance,
    subcake: Share,
    agents: tuple[int, ...] | list[int],
    beta: Rational,
    root,
    ledger=None,
    trace: list | None = None,
) -> tuple[Share, Share]:
    """Split ``subcake`` into (first, remainder) around threshold ``beta``.

    The first share is worth >= beta to some agent of ``agents`` and < 2*beta
    to all of them; the remainder is connected and contains ``root`` (a
    vertex id or PointOnEdge), possibly as a degenerate single point.
    """
    agents = tuple(sorted(agents))
    if not agents:
        raise ValueError("agent set must be nonempty")
    totals = eval_share_each(instance, agents, subcake)
    first, remainder, _values, _pairs = _divide(instance, subcake, agents, totals, beta, root, ledger, trace)
    return first, remainder


def _divide(
    instance: Instance,
    subcake: Share,
    agents: tuple[int, ...],
    totals: Mapping[int, Rational],
    beta: Rational,
    root,
    ledger=None,
    trace: list | None = None,
    pairs: Mapping[int, list[tuple[int, int]]] | None = None,
) -> tuple[Share, Share, dict[int, tuple[Rational, Rational]], dict[int, list[tuple[int, int]]]]:
    """The core of ``divide``, for a caller that already holds the subcake's
    values.

    ``agents`` is sorted and nonempty, and ``totals[a]`` is agent ``a``'s
    value of ``subcake``, computed from its intervals.  ``pairs``, when
    given, holds each agent's ``integral_pair`` of every interval of
    ``subcake``, in order; they serve as the tree's edge values when the
    tree's sub-edges are exactly those intervals (a vertex root, or a root
    at an interval end), and otherwise every sub-edge is integrated afresh.

    Returns (first, remainder, values, remainder_pairs): ``values[a]`` is
    agent ``a``'s (value of first, value of remainder), and
    ``remainder_pairs[a]`` its integral pair of each interval of remainder,
    both computed by the final check.  The ledger records, per agent, the
    sub-edge integrals unless carried, the Cuts, and the check's values of
    both shares, which callers use; the totals only feed checks.
    """
    if not (0 < beta <= max(totals[a] for a in agents)):
        raise ValueError(f"beta {beta} outside (0, max subcake value]")

    # Agents sharing a valuation value everything alike, so the geometry below
    # runs on the first agent of each group (the smallest id, since ``agents``
    # is sorted); the ledger still counts every agent's queries.
    groups = instance.valuation_groups(agents)
    leads = tuple(groups)

    tree = decycle(instance, subcake, root)
    intervals = tree.intervals
    order = tree.order
    children = tree.children
    beta_n, beta_d = as_pair(beta)

    # Per lead, flat lists of unreduced integer pairs: ``through[k][s]`` is
    # sub-edge ``s`` and everything below it, ``below[k][v]`` everything below
    # node ``v``; only a cut target is reduced to a rational.
    through: list[list] = []
    below: list[list] = []
    carried = pairs is not None and intervals == list(subcake.intervals)
    if ledger is not None and not carried:
        ledger.record_eval(len(agents) * len(intervals))
    for a in leads:
        valuation = instance.valuations[a]
        if carried:
            edge_value = pairs[a]
        else:
            edge_value = [valuation[iv.edge].integral_pair(iv.lo, iv.hi) for iv in intervals]
        through_a: list = [None] * len(intervals)
        below_a: list = [None] * len(tree.keys)
        for node in reversed(order):
            acc_n, acc_d = 0, 1
            for child, s in children[node]:
                pair = through_a[s] = pair_sum(*below_a[child], *edge_value[s])
                acc_n, acc_d = pair_sum(acc_n, acc_d, *pair)
            below_a[node] = (acc_n, acc_d)
        through.append(through_a)
        below.append(below_a)

    def reaches(value: tuple[int, int]) -> bool:
        return value[0] * beta_d >= beta_n * value[1]

    # Walk from the root towards any child subtree still worth >= beta.
    v = tree.root
    while True:
        descend = None
        for child, _s in children[v]:
            if any(reaches(below_a[child]) for below_a in below):
                descend = child
                break
        if descend is None:
            break
        v = descend

    branches = children[v]
    case1 = next((b for b in branches if any(reaches(through_a[b[1]]) for through_a in through)), None)

    if case1 is not None:
        w, s = case1
        iv = intervals[s]
        anchor = "lo" if tree.lo[s] == w else "hi"
        best_pos = best_dist = witness = None
        for k, a in enumerate(leads):
            if not reaches(through[k][s]):
                continue
            if ledger is not None:
                ledger.record_cut(len(groups[a]))
            target = beta - from_pair(*below[k][w])
            pos = cut(instance, a, iv, anchor, target).position
            distance = pos - iv.lo if anchor == "lo" else iv.hi - pos
            if best_pos is None or distance < best_dist:
                best_pos, best_dist, witness = pos, distance, a
        if anchor == "lo":
            taken = EdgeInterval(iv.edge, iv.lo, best_pos)
            rest = EdgeInterval(iv.edge, best_pos, iv.hi)
        else:
            taken = EdgeInterval(iv.edge, best_pos, iv.hi)
            rest = EdgeInterval(iv.edge, iv.lo, best_pos)
        # Both shares keep the tree's (edge, lo) order, the cut interval's
        # parts in its own slot, so a canonical subcake yields canonical
        # shares unless a part is a single point or touches a neighbour.
        first_edges = set(_subtree_edges(tree, w))
        first_intervals = [taken if i == s else x for i, x in enumerate(intervals) if i == s or i in first_edges]
        remainder_intervals = [rest if i == s else x for i, x in enumerate(intervals) if i not in first_edges]
        if trace is not None:
            trace.append({"at": tree.keys[v], "case": 1, "cut": (iv.edge, best_pos), "witness": witness})
    else:
        acc = [(0, 1)] * len(leads)
        witness = None
        first_edges = set()
        for taken_children, (child, s) in enumerate(branches, start=1):
            first_edges.add(s)
            first_edges.update(_subtree_edges(tree, child))
            acc = [pair_sum(*acc[k], *through[k][s]) for k in range(len(leads))]
            # ``leads`` ascend, so the first to reach is the smallest.
            witness = next((a for a, value in zip(leads, acc) if reaches(value)), None)
            if witness is not None:
                break
        check(witness is not None, "subtree walk must reach the threshold")
        first_intervals = [x for i, x in enumerate(intervals) if i in first_edges]
        remainder_intervals = [x for i, x in enumerate(intervals) if i not in first_edges]
        if not remainder_intervals:
            # Remainder degenerates to the split node itself.
            s = children[v][0][1]
            pos = intervals[s].lo if tree.lo[s] == v else intervals[s].hi
            remainder_intervals = [EdgeInterval(intervals[s].edge, pos, pos)]
        if trace is not None:
            trace.append({"at": tree.keys[v], "case": 2, "children": taken_children, "witness": witness})

    graph = instance.graph
    first = canonical_share(graph, first_intervals)
    remainder = canonical_share(graph, remainder_intervals)

    values: dict[int, tuple[Rational, Rational]] = {}
    remainder_pairs: dict[int, list[tuple[int, int]]] = {}
    reached = False
    for a, group in groups.items():
        fv = eval_share(instance, a, first)
        valuation = instance.valuations[a]
        rest_pairs = [valuation[iv.edge].integral_pair(iv.lo, iv.hi) for iv in remainder.intervals]
        rn, rd = 0, 1
        for pair in rest_pairs:
            rn, rd = pair_sum(rn, rd, *pair)
        rv = from_pair(rn, rd)
        reached = reached or fv >= beta
        check(fv < 2 * beta, f"first share worth {fv} >= 2*beta to agent {a}")
        check(fv + rv == totals[a], "divide must partition values")
        for member in group:
            values[member] = (fv, rv)
            remainder_pairs[member] = rest_pairs
    check(reached, "no agent values the first share at beta")
    if ledger is not None:
        ledger.record_eval(len(agents) * (len(first.intervals) + len(remainder.intervals)))
    return first, remainder, values, remainder_pairs
