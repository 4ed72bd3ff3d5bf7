"""Splitting a connected subcake into a bounded-value share plus remainder.

``divide(instance, subcake, agents, beta, root)`` partitions a connected
subcake into two connected shares: the first is worth at least ``beta`` to
some agent of the given set and less than ``2*beta`` to every agent of the
set; the second contains the root point, possibly as a single point.

The subcake is first viewed as a multigraph whose nodes are interval
endpoints (graph vertices unify incident endpoints).  Cycles are broken by
detaching one endpoint of a cycle edge onto a fresh leaf node; because only
node identities change, the produced shares need no translation back.
``decycle`` interns every node key to an int once, keeps one adjacency of
int lists that each break updates in place, and returns that int tree;
``divide`` indexes plain lists by node and sub-edge number, and reads a
node's key only for its trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rational import Rational
from .model import (
    EdgeInterval,
    Instance,
    PointOnEdge,
    Share,
    ZERO,
    canonical_share,
    check,
    cut,
    eval_interval,
    eval_share,
    eval_share_each,
    node_sort_key,
    point_node,
)


@dataclass(frozen=True)
class DecycleEntry:
    split_node: tuple
    duplicate_node: tuple
    interval: EdgeInterval


@dataclass
class SubcakeTree:
    """Rooted, acyclic view of a subcake after cycle removal.

    Nodes and sub-edges are ints: node ``v`` is the point ``keys[v]``, and
    sub-edge ``s`` is ``intervals[s]``, joining ``lo[s]`` (its lo end) to
    ``hi[s]``.  ``order`` starts at ``root`` and lists each node after its
    parent; ``children[v]`` holds the (child, sub-edge) pairs below ``v``,
    sorted by the child's ``node_sort_key``.
    """

    keys: list[tuple]
    intervals: list[EdgeInterval]
    lo: list[int]
    hi: list[int]
    root: int
    order: list[int]
    children: list[list[tuple[int, int]]] = field(repr=False)
    record: tuple[DecycleEntry, ...] = ()


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


def _find_cycle(adj: list[list[int]], lo: list[int], hi: list[int], start: int) -> list[int] | None:
    """Sub-edges of the first cycle met by a depth-first search, or None.

    Nodes and sub-edges are ints: ``adj[node]`` lists the sub-edges at a
    node in index order, and sub-edge ``s`` joins ``lo[s]`` to ``hi[s]``.
    """
    visited = [False] * len(adj)
    parent_edge = [-1] * len(adj)
    parent_node = [-1] * len(adj)
    visited[start] = True
    stack = [(start, iter(adj[start]))]
    while stack:
        node, it = stack[-1]
        for s in it:
            a, b = lo[s], hi[s]
            if a == b:
                return [s]
            if s == parent_edge[node]:
                continue
            other = b if node == a else a
            if visited[other]:
                # Back edge to an ancestor: walk up from `node` to `other`.
                cycle = [s]
                cur = node
                while cur != other:
                    cycle.append(parent_edge[cur])
                    cur = parent_node[cur]
                return cycle
            visited[other] = True
            parent_edge[other] = s
            parent_node[other] = node
            stack.append((other, iter(adj[other])))
            break
        else:
            stack.pop()
    return None


def decycle(instance: Instance, subcake: Share, root) -> SubcakeTree:
    """Rooted tree view of a connected subcake.

    Every cycle is broken by detaching one endpoint of its lexicographically
    smallest interval onto a fresh leaf; agents' values of every interval are
    untouched, and the returned record suffices to restore the original
    adjacency by replaying it backwards.

    Cycles are found one at a time by a depth-first search from the root,
    restarted after every break.  The search runs on ints: each node key is
    interned once, each sub-edge is named by its index in (edge, lo, hi)
    order, and one adjacency, built in index order, is updated in place by
    each break.  The returned tree keeps those ints.
    """
    root_key, root_point = _resolve_root(instance, subcake, root)
    graph = instance.graph
    intervals = _build_intervals(instance, subcake, root_point)
    keys: list[tuple] = []
    index: dict[tuple, int] = {}
    adj: list[list[int]] = []
    lo: list[int] = []
    hi: list[int] = []
    for s, iv in enumerate(intervals):
        for pos, ends in ((iv.lo, lo), (iv.hi, hi)):
            key = point_node(graph, iv.edge, pos)
            node = index.get(key)
            if node is None:
                node = index[key] = len(keys)
                keys.append(key)
                adj.append([])
            ends.append(node)
        adj[lo[s]].append(s)
        if hi[s] != lo[s]:
            adj[hi[s]].append(s)
    root_node = index.get(root_key)
    if root_node is None:
        raise ValueError(f"root {root!r} is not a point of the subcake")
    node_sort_keys = [node_sort_key(key) for key in keys]

    record: list[DecycleEntry] = []
    while True:
        cycle = _find_cycle(adj, lo, hi, root_node)
        if cycle is None:
            break
        t = min(cycle)
        self_loop = lo[t] == hi[t]
        side_hi = self_loop or node_sort_keys[hi[t]] > node_sort_keys[lo[t]]
        split = hi[t] if side_hi else lo[t]
        iv = intervals[t]
        duplicate_key = ("d", iv.edge, iv.lo, iv.hi, len(record))
        duplicate = len(keys)
        keys.append(duplicate_key)
        node_sort_keys.append(node_sort_key(duplicate_key))
        adj.append([t])
        if not self_loop:
            # A self-loop stays listed under its split node through its other end.
            adj[split].remove(t)
        if side_hi:
            hi[t] = duplicate
        else:
            lo[t] = duplicate
        record.append(DecycleEntry(keys[split], duplicate_key, iv))

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
    return SubcakeTree(keys, intervals, lo, hi, root_node, order, children, tuple(record))


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
    edge_value = [{a: eval_interval(instance, a, iv) for a in leads} for iv in intervals]
    if ledger is not None:
        ledger.record_eval(len(agents) * len(intervals))

    subtree: list = [None] * len(tree.keys)
    for node in reversed(tree.order):
        acc = {a: ZERO for a in leads}
        for child, s in tree.children[node]:
            below, along = subtree[child], edge_value[s]
            for a in leads:
                acc[a] += below[a] + along[a]
        subtree[node] = acc

    # Walk from the root towards any child subtree still worth >= beta.
    v = tree.root
    while True:
        descend = None
        for child, _s in tree.children[v]:
            if any(subtree[child][a] >= beta for a in leads):
                descend = child
                break
        if descend is None:
            break
        v = descend

    branches = [
        (child, s, {a: subtree[child][a] + edge_value[s][a] for a in leads})
        for child, s in tree.children[v]
    ]

    case1 = next((b for b in branches if any(b[2][a] >= beta for a in leads)), None)

    if case1 is not None:
        w, s, branch = case1
        iv = intervals[s]
        anchor = "lo" if tree.lo[s] == w else "hi"
        best_pos = best_dist = witness = None
        for a in leads:
            if branch[a] < beta:
                continue
            if ledger is not None:
                ledger.record_cut(len(groups[a]))
            target = beta - subtree[w][a]
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
        acc = {a: ZERO for a in leads}
        witness = None
        first_edges = set()
        for taken_children, (child, s, branch) in enumerate(branches, start=1):
            first_edges.add(s)
            first_edges.update(_subtree_edges(tree, child))
            for a in leads:
                acc[a] += branch[a]
            qualifiers = [a for a in leads if acc[a] >= beta]
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
