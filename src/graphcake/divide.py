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
int lists that each break updates in place, and maps back to node keys only
for the returned ``SubcakeTree``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rational import Rational, rational
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


class _SubEdge:
    """One interval of the subcake with (mutable) endpoint node keys."""

    __slots__ = ("interval", "lo_node", "hi_node")

    def __init__(self, interval: EdgeInterval, lo_node: tuple, hi_node: tuple):
        self.interval = interval
        self.lo_node = lo_node
        self.hi_node = hi_node

    def other(self, node: tuple) -> tuple:
        return self.hi_node if node == self.lo_node else self.lo_node

    def node_position(self, node: tuple) -> Rational:
        return self.interval.lo if node == self.lo_node else self.interval.hi


@dataclass(frozen=True)
class DecycleEntry:
    split_node: tuple
    duplicate_node: tuple
    interval: EdgeInterval


@dataclass
class SubcakeTree:
    """Rooted, acyclic view of a subcake after cycle removal."""

    root: tuple
    nodes: list[tuple]
    parent: dict = field(repr=False)          # node -> (parent node, _SubEdge) | None
    children: dict = field(repr=False)        # node -> [(child node, _SubEdge), ...]
    record: tuple[DecycleEntry, ...] = ()

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.children.values())

    def subtree_intervals(self, node: tuple) -> list[EdgeInterval]:
        out = []
        stack = [node]
        while stack:
            cur = stack.pop()
            for child, se in self.children[cur]:
                out.append(se.interval)
                stack.append(child)
        return out


def _build_subedges(instance: Instance, subcake: Share, root_point: PointOnEdge | None) -> list[_SubEdge]:
    """Sub-edges of the subcake, sorted by (edge, lo, hi).

    ``canonical_share`` returns that order and splitting the root's interval
    in place keeps it.
    """
    graph = instance.graph
    intervals = list(canonical_share(graph, subcake.intervals).intervals)
    if root_point is not None:
        # Promote an interior root to a node by splitting its interval.
        for i, iv in enumerate(intervals):
            if iv.edge == root_point.edge and iv.lo < root_point.position < iv.hi:
                intervals[i : i + 1] = [
                    EdgeInterval(iv.edge, iv.lo, root_point.position),
                    EdgeInterval(iv.edge, root_point.position, iv.hi),
                ]
                break
    return [
        _SubEdge(iv, point_node(graph, iv.edge, iv.lo), point_node(graph, iv.edge, iv.hi))
        for iv in intervals
    ]


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


def _node_point(se: _SubEdge, node: tuple) -> PointOnEdge:
    return PointOnEdge(se.interval.edge, se.node_position(node))


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
    each break.
    """
    root_key, root_point = _resolve_root(instance, subcake, root)
    subedges = _build_subedges(instance, subcake, root_point)
    keys: list[tuple] = []
    index: dict[tuple, int] = {}
    adj: list[list[int]] = []
    lo: list[int] = []
    hi: list[int] = []
    for s, se in enumerate(subedges):
        for key, ends in ((se.lo_node, lo), (se.hi_node, hi)):
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
        target = subedges[t]
        self_loop = lo[t] == hi[t]
        side_hi = self_loop or node_sort_keys[hi[t]] > node_sort_keys[lo[t]]
        split = hi[t] if side_hi else lo[t]
        iv = target.interval
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
            target.hi_node = duplicate_key
        else:
            lo[t] = duplicate
            target.lo_node = duplicate_key
        record.append(DecycleEntry(keys[split], duplicate_key, iv))

    parent: dict = {root_key: None}
    children: dict = {}
    order = [root_node]
    stack = [root_node]
    seen = [False] * len(keys)
    seen[root_node] = True
    while stack:
        node = stack.pop()
        node_key = keys[node]
        kids = []
        for s in adj[node]:
            other = hi[s] if node == lo[s] else lo[s]
            if seen[other]:
                continue
            seen[other] = True
            kids.append((other, s))
            parent[keys[other]] = (node_key, subedges[s])
            order.append(other)
            stack.append(other)
        kids.sort(key=lambda k: (node_sort_keys[k[0]], k[1]))
        children[node_key] = [(keys[other], subedges[s]) for other, s in kids]
    check(len(order) == len(index) + len(record), "decycle produced a disconnected view")
    return SubcakeTree(root_key, [keys[node] for node in order], parent, children, tuple(record))


def _resolve_root(instance: Instance, subcake: Share, root) -> tuple[tuple, PointOnEdge | None]:
    graph = instance.graph
    if isinstance(root, str):
        return ("v", root), None
    if isinstance(root, PointOnEdge):
        node = point_node(graph, root.edge, root.position)
        return node, (root if node[0] == "p" else None)
    raise ValueError(f"root must be a vertex id or PointOnEdge, got {root!r}")


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

    edge_values: dict[int, dict[int, Rational]] = {}
    subtree: dict[tuple, dict[int, Rational]] = {}

    def edge_value(se: _SubEdge) -> dict[int, Rational]:
        vals = edge_values.get(id(se))
        if vals is None:
            vals = edge_values[id(se)] = {a: eval_interval(instance, a, se.interval) for a in leads}
            if ledger is not None:
                ledger.record_eval(len(agents))
        return vals

    for node in reversed(tree.nodes):
        acc = {a: ZERO for a in leads}
        for child, se in tree.children[node]:
            below, along = subtree[child], edge_value(se)
            for a in leads:
                acc[a] += below[a] + along[a]
        subtree[node] = acc

    # Walk from the root towards any child subtree still worth >= beta.
    v = tree.root
    while True:
        descend = None
        for child, _se in tree.children[v]:
            if any(subtree[child][a] >= beta for a in leads):
                descend = child
                break
        if descend is None:
            break
        v = descend

    branch_value = {
        child: {a: subtree[child][a] + edge_value(se)[a] for a in leads}
        for child, se in tree.children[v]
    }

    case1 = None
    for child, se in tree.children[v]:
        if any(branch_value[child][a] >= beta for a in leads):
            case1 = (child, se)
            break

    all_intervals = [se.interval for _, kids in tree.children.items() for _, se in kids]

    if case1 is not None:
        w, se = case1
        anchor = "lo" if se.lo_node == w else "hi"
        best_pos = best_dist = witness = None
        for a in leads:
            if branch_value[w][a] < beta:
                continue
            if ledger is not None:
                ledger.record_cut(len(groups[a]))
            target = beta - subtree[w][a]
            pos = cut(instance, a, se.interval, anchor, target).position
            distance = pos - se.interval.lo if anchor == "lo" else se.interval.hi - pos
            if best_pos is None or distance < best_dist:
                best_pos, best_dist, witness = pos, distance, a
        iv = se.interval
        if anchor == "lo":
            taken = EdgeInterval(iv.edge, iv.lo, best_pos)
            rest = EdgeInterval(iv.edge, best_pos, iv.hi)
        else:
            taken = EdgeInterval(iv.edge, best_pos, iv.hi)
            rest = EdgeInterval(iv.edge, iv.lo, best_pos)
        first_intervals = tree.subtree_intervals(w) + [taken]
        remainder_intervals = [x for x in all_intervals if x is not iv and x not in first_intervals]
        remainder_intervals.append(rest)
        if trace is not None:
            trace.append({"at": v, "case": 1, "cut": (iv.edge, best_pos), "witness": witness})
    else:
        taken_children: list[tuple] = []
        acc = {a: ZERO for a in leads}
        witness = None
        for child, se in tree.children[v]:
            taken_children.append(child)
            for a in leads:
                acc[a] += branch_value[child][a]
            qualifiers = [a for a in leads if acc[a] >= beta]
            if qualifiers:
                witness = min(qualifiers)
                break
        check(witness is not None, "subtree walk must reach the threshold")
        first_intervals = []
        for child, se in tree.children[v]:
            if child in taken_children:
                first_intervals.append(se.interval)
                first_intervals.extend(tree.subtree_intervals(child))
        first_set = {id(x) for x in first_intervals}
        remainder_intervals = [x for x in all_intervals if id(x) not in first_set]
        if not remainder_intervals:
            # Remainder degenerates to the split node itself.
            anchor_se = tree.children[v][0][1]
            p = _node_point(anchor_se, v)
            remainder_intervals = [EdgeInterval(p.edge, p.position, p.position)]
        if trace is not None:
            trace.append({"at": v, "case": 2, "children": len(taken_children), "witness": witness})

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
