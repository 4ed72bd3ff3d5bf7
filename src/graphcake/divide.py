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
compared with ``beta`` by cross-multiplication; only a cut target is
reduced to a rational.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rational import Rational, as_pair, from_pair, pair_sum
from .model import (
    EdgeInterval,
    Instance,
    PointOnEdge,
    Share,
    canonical_share,
    check,
    cut,
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

    ``canonical_share`` returns that order and splitting the root's interval
    in place keeps it.
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
    totals = eval_share_each(instance, agents, subcake, ledger)
    if not (0 < beta <= max(totals.values())):
        raise ValueError(f"beta {beta} outside (0, max subcake value]")

    # Agents sharing a valuation value everything alike, so the geometry below
    # runs on the first agent of each group (the smallest id, since ``agents``
    # is sorted); the ledger still counts every agent's queries.
    groups = instance.valuation_groups(agents)
    leads = tuple(groups)

    tree = decycle(instance, subcake, root)
    intervals = tree.intervals
    # Eval answers and their sums below stay unreduced integer pairs; only a
    # cut target is reduced to a rational.
    edge_value = [
        {a: instance.density(a, iv.edge).integral_pair(iv.lo, iv.hi) for a in leads} for iv in intervals
    ]
    if ledger is not None:
        ledger.record_eval(len(agents) * len(intervals))
    beta_n, beta_d = as_pair(beta)

    def reaches(value: tuple[int, int]) -> bool:
        return value[0] * beta_d >= beta_n * value[1]

    below: list = [None] * len(tree.keys)  # everything below a node
    through: list = [None] * len(intervals)  # a sub-edge and everything below it
    for node in reversed(tree.order):
        acc = dict.fromkeys(leads, (0, 1))
        for child, s in tree.children[node]:
            through[s] = {a: pair_sum(*below[child][a], *edge_value[s][a]) for a in leads}
            acc = {a: pair_sum(*acc[a], *through[s][a]) for a in leads}
        below[node] = acc

    # Walk from the root towards any child subtree still worth >= beta.
    v = tree.root
    while True:
        descend = None
        for child, _s in tree.children[v]:
            if any(reaches(below[child][a]) for a in leads):
                descend = child
                break
        if descend is None:
            break
        v = descend

    branches = [(child, s, through[s]) for child, s in tree.children[v]]

    case1 = next((b for b in branches if any(reaches(b[2][a]) for a in leads)), None)

    if case1 is not None:
        w, s, branch = case1
        iv = intervals[s]
        anchor = "lo" if tree.lo[s] == w else "hi"
        best_pos = best_dist = witness = None
        for a in leads:
            if not reaches(branch[a]):
                continue
            if ledger is not None:
                ledger.record_cut(len(groups[a]))
            target = beta - from_pair(*below[w][a])
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
        first_edges = set(_subtree_edges(tree, w))
        first_intervals = [x for i, x in enumerate(intervals) if i in first_edges] + [taken]
        remainder_intervals = [
            x for i, x in enumerate(intervals) if i != s and i not in first_edges
        ] + [rest]
        if trace is not None:
            trace.append({"at": tree.keys[v], "case": 1, "cut": (iv.edge, best_pos), "witness": witness})
    else:
        acc = dict.fromkeys(leads, (0, 1))
        witness = None
        first_edges = set()
        for taken_children, (child, s, branch) in enumerate(branches, start=1):
            first_edges.add(s)
            first_edges.update(_subtree_edges(tree, child))
            acc = {a: pair_sum(*acc[a], *branch[a]) for a in leads}
            qualifiers = [a for a in leads if reaches(acc[a])]
            if qualifiers:
                witness = min(qualifiers)
                break
        check(witness is not None, "subtree walk must reach the threshold")
        first_intervals = [x for i, x in enumerate(intervals) if i in first_edges]
        remainder_intervals = [x for i, x in enumerate(intervals) if i not in first_edges]
        if not remainder_intervals:
            # Remainder degenerates to the split node itself.
            s = tree.children[v][0][1]
            pos = intervals[s].lo if tree.lo[s] == v else intervals[s].hi
            remainder_intervals = [EdgeInterval(intervals[s].edge, pos, pos)]
        if trace is not None:
            trace.append({"at": tree.keys[v], "case": 2, "children": taken_children, "witness": witness})

    graph = instance.graph
    first = canonical_share(graph, first_intervals)
    remainder = canonical_share(graph, remainder_intervals)

    reached = False
    for a in leads:
        fv = eval_share(instance, a, first)
        reached = reached or fv >= beta
        check(fv < 2 * beta, f"first share worth {fv} >= 2*beta to agent {a}")
        check(fv + eval_share(instance, a, remainder) == totals[a], "divide must partition values")
    check(reached, "no agent values the first share at beta")
    return first, remainder
