import tracemalloc
from collections import defaultdict
from itertools import combinations

import networkx as nx
import pytest

from ramseylab.enumeration import (
    are_isomorphic,
    graphs_by_edge_count,
    graphs_up_to_vertices,
    trees_up_to_vertices,
)
from ramseylab.families import cycle, path, star
from ramseylab.graphs import Graph

# Published counts: graphs up to isomorphism by vertex count (A000088),
# by edge count without isolated vertices (A000664), and trees (A000055).
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
EDGE_COUNTS = {1: 1, 2: 2, 3: 5, 4: 11, 5: 26, 6: 68, 7: 177, 8: 497, 9: 1476, 10: 4613}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}


@pytest.mark.parametrize("n,count", sorted(GRAPH_COUNTS.items()))
def test_graph_counts_by_vertices(n, count):
    graphs = [g for g in graphs_up_to_vertices(n) if g.n == n]
    assert len(graphs) == count


def _nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def _bucket(graphs: list[nx.Graph]) -> dict[tuple, list[nx.Graph]]:
    """Graphs by edge count and degree sequence, both read through networkx."""
    buckets = defaultdict(list)
    for g in graphs:
        buckets[g.number_of_edges(), tuple(sorted(d for _, d in g.degree()))].append(g)
    return buckets


def test_graphs_on_vertices_match_networkx_atlas():
    # The atlas lists every graph on at most 7 nodes once up to isomorphism.
    atlas = nx.graph_atlas_g()
    graphs = graphs_up_to_vertices(7)
    for n in range(1, 8):
        ours = _bucket([_nx(g) for g in graphs if g.n == n])
        theirs = _bucket([a for a in atlas if a.number_of_nodes() == n])
        assert ours.keys() == theirs.keys()
        for key, bucket in ours.items():
            assert len(bucket) == len(theirs[key]), (n, key)
            matched = set()
            for g in bucket:
                hits = [i for i, a in enumerate(theirs[key]) if nx.is_isomorphic(g, a)]
                assert len(hits) == 1, (n, key, sorted(g.edges()))
                matched.add(hits[0])
            assert len(matched) == len(bucket)


def test_edge_levels_are_pairwise_non_isomorphic():
    for m, graphs in graphs_by_edge_count(7).items():
        for key, bucket in _bucket([_nx(g) for g in graphs]).items():
            for a, b in combinations(bucket, 2):
                assert not nx.is_isomorphic(a, b), (m, key, sorted(a.edges()), sorted(b.edges()))


def test_graphs_up_to_vertices():
    assert len(graphs_up_to_vertices(5)) == 1 + 2 + 4 + 11 + 34


def test_vertex_levels_peak_memory():
    # The store keeps one int key per bucket; with the nested invariant tuple
    # as the key this peaked at 2.4-2.9 MB.
    tracemalloc.start()
    try:
        graphs_up_to_vertices(7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2e6, peak


def test_each_graph_minus_its_last_vertex_is_listed():
    graphs = graphs_up_to_vertices(7)
    listed = set(graphs)
    for g in graphs:
        if g.n > 1:
            assert g.without_vertex(g.n - 1) in listed, g.edges


def test_graph_counts_by_edges():
    levels = graphs_by_edge_count(max(EDGE_COUNTS))
    assert {m: len(gs) for m, gs in levels.items()} == EDGE_COUNTS
    for m, graphs in levels.items():
        for g in graphs:
            assert g.m == m
            assert all(g.degree(v) >= 1 for v in range(g.n))


@pytest.mark.parametrize("n,count", sorted(TREE_COUNTS.items()))
def test_tree_counts(n, count):
    trees = [t for t in trees_up_to_vertices(n) if t.n == n]
    assert len(trees) == count
    assert all(t.is_tree() for t in trees)


def test_trees_up_to():
    assert len(trees_up_to_vertices(5)) == 8


def test_are_isomorphic():
    assert are_isomorphic(path(4), Graph(4, [(3, 1), (1, 0), (0, 2)]))
    assert not are_isomorphic(path(4), star(3))
    assert not are_isomorphic(cycle(6), Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
    assert are_isomorphic(Graph(0), Graph(0))
