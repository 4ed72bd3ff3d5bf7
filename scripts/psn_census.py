#!/usr/bin/env python3
"""Census of path-layout certificates: how tight is the bound in practice?

Enumerates all small trees (every root) and a batch of connected graphs with
3-14 edges, comparing the exact path similarity number of the constructed layout
against its certificate bound.

Usage: python scripts/psn_census.py [--max-tree-vertices 9] [--graphs 30]
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import networkx as nx

from graphcake.generate import GeneratorSpec, generate
from graphcake.model import Edge, Graph
from graphcake.psn import psn_certificate, psn_exact_check, tree_dfs_bijection


def tree_census(max_vertices):
    gaps = Counter()
    for nv in range(2, max_vertices + 1):
        for t in nx.nonisomorphic_trees(nv):
            edges = tuple(
                Edge(f"e{i:02d}", (f"v{u:02d}", f"v{w:02d}"))
                for i, (u, w) in enumerate(sorted(t.edges()), start=1)
            )
            graph = Graph(tuple(f"v{k:02d}" for k in range(nv)), edges)
            for root in graph.vertices:
                height = max(nx.shortest_path_length(t, int(root[1:])).values())
                exact = psn_exact_check(graph, tree_dfs_bijection(graph, root))
                gaps[(height + 1) - exact] += 1
    return gaps


def graph_census(count):
    gaps = Counter()
    for seed in range(1, count + 1):
        instance = generate(
            GeneratorSpec("random-connected", m=3 + seed % 12, n=1, seed=seed)
        )
        bijection, cert = psn_certificate(instance.graph)
        exact = psn_exact_check(instance.graph, bijection)
        gaps[cert.bound - exact] += 1
    return gaps


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-tree-vertices", type=int, default=9)
    parser.add_argument("--graphs", type=int, default=30)
    args = parser.parse_args()

    print("rooted trees: certificate bound minus exact value")
    for gap, n in sorted(tree_census(args.max_tree_vertices).items()):
        print(f"  slack {gap}: {n} layouts")
    print("random connected graphs: certificate bound minus exact value")
    for gap, n in sorted(graph_census(args.graphs).items()):
        print(f"  slack {gap}: {n} layouts")


if __name__ == "__main__":
    main()
