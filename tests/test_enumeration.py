import hashlib
import random
import tracemalloc
from collections import Counter, defaultdict
from itertools import combinations

import networkx as nx
import pytest

from ramseylab import subgraph
from ramseylab.enumeration import (
    IsoClassStore,
    _edge_children,
    _leaf_children,
    _maps_onto,
    _new_vertex_children,
    _rows,
    are_isomorphic,
    graphs_by_edge_count,
    invariant_key,
    graphs_up_to_vertices,
    trees_up_to_vertices,
)
from ramseylab.graphs import Graph, cycle, path, star

# Published counts: graphs up to isomorphism by vertex count (A000088),
# by edge count without isolated vertices (A000664), and trees (A000055).
GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
EDGE_COUNTS = {1: 1, 2: 2, 3: 5, 4: 11, 5: 26, 6: 68, 7: 177, 8: 497, 9: 1476, 10: 4613}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
# Triangle-free graphs by vertex count (A006785).
TRIANGLE_FREE_COUNTS = {1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38, 7: 107}


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
    # The masks with the last vertex v cleared, one per vertex below v, are
    # the adjacency masks of a listed graph on one vertex fewer.
    graphs = graphs_up_to_vertices(7)
    listed = {g.adj for g in graphs}
    for g in graphs:
        if g.n > 1:
            v = g.n - 1
            assert tuple(a & ~(1 << v) for a in g.adj[:v]) in listed, g.edges


def test_graph_counts_by_edges():
    levels = graphs_by_edge_count(max(EDGE_COUNTS))
    assert {m: len(gs) for m, gs in levels.items()} == EDGE_COUNTS
    for m, graphs in levels.items():
        for g in graphs:
            assert g.m == m
            assert all(g.degree(v) >= 1 for v in range(g.n))
    with pytest.raises(ValueError):
        graphs_by_edge_count(0)


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


def test_invariant_key_ignores_labels():
    rng = random.Random(17)
    for g in graphs_up_to_vertices(6):
        for _ in range(3):
            mapping = list(range(g.n))
            rng.shuffle(mapping)
            assert invariant_key(g.relabeled(mapping)) == invariant_key(g), (g.edges, mapping)


def test_graphs_up_to_seven_vertices_are_pinned():
    # The store keeps the first graph of each class, whatever its bucket key,
    # so a new key must leave the list and its order as they were.
    graphs = graphs_up_to_vertices(7)
    digest = hashlib.sha256(repr([(g.n, g.edges) for g in graphs]).encode()).hexdigest()
    assert digest == "9e3522e47da7742a39fc2931b64911bb1d4f90d6f7e291c8434f948572d56bf5"


def test_grow_keeps_the_labels_of_the_classes_it_grows():
    # Having a triangle is closed under supergraphs, so growing only the
    # triangle-free graphs lists every one of them, each with the label and
    # in the place it has in the full listing.  Every other graph listed has
    # a triangle and a triangle-free parent.
    def has_triangle(g: Graph) -> bool:
        return subgraph.clique_number(g.adj) >= 3

    full = graphs_up_to_vertices(7)
    assert graphs_up_to_vertices(7, grow=lambda g: True) == full
    listed = graphs_up_to_vertices(7, grow=lambda g: not has_triangle(g))
    free = [g for g in listed if not has_triangle(g)]
    assert Counter(g.n for g in free) == TRIANGLE_FREE_COUNTS
    assert free == [g for g in full if not has_triangle(g)]
    grown = {g.adj for g in free}
    for g in listed:
        if g.n > 1:
            v = g.n - 1
            assert tuple(a & ~(1 << v) for a in g.adj[:v]) in grown, g.edges


def test_grow_returning_none_ends_the_listing_with_its_level():
    # The graphs after the first None are not handed to grow.
    seen = []

    def grow(g: Graph) -> bool | None:
        seen.append(g)
        return None if g.n == 4 else True

    listed = graphs_up_to_vertices(9, grow=grow)
    assert listed == graphs_up_to_vertices(4)
    assert seen == listed[: 1 + 2 + 4 + 1]


def test_enumeration_compiles_no_search_plan(monkeypatch):
    # The store's exact test searches on adjacency masks, so no representative
    # becomes a pattern with a plan of its own.
    compiled = []

    def counting_compile(*args):
        compiled.append(args)
        return compile_plan(*args)

    compile_plan = subgraph._compile
    monkeypatch.setattr(subgraph, "_compile", counting_compile)
    monkeypatch.setattr(subgraph, "_plan", counting_compile)
    assert len(graphs_up_to_vertices(7)) == sum(GRAPH_COUNTS[n] for n in range(1, 8))
    assert compiled == []


def test_children_rows_match_rows_recomputed():
    # Rows derived from the parent's, for new vertices, leaves and new edges.
    for children, graphs in (
        (_new_vertex_children, graphs_up_to_vertices(6)),
        (_leaf_children, trees_up_to_vertices(8)),
        (_edge_children, [g for level in graphs_by_edge_count(6).values() for g in level]),
    ):
        for g in graphs:
            for adj, rows in children(g):
                assert rows == _rows(adj), (g.edges, adj)


def _same_key_pairs(graphs: list[Graph]):
    buckets = defaultdict(list)
    for g in graphs:
        buckets[invariant_key(g)].append(g)
    return [pair for bucket in buckets.values() for pair in combinations(bucket, 2)]


def test_are_isomorphic_agrees_with_networkx():
    # No two graphs on up to 7 vertices share a key; on 8 vertices 95 pairs do.
    pairs = _same_key_pairs(graphs_up_to_vertices(8))
    assert len(pairs) == 95
    for a, b in pairs:
        assert not are_isomorphic(a, b) and not nx.is_isomorphic(_nx(a), _nx(b)), (a.edges, b.edges)
    rng = random.Random(5)
    for g in graphs_up_to_vertices(7):
        mapping = list(range(g.n))
        rng.shuffle(mapping)
        assert are_isomorphic(g, g.relabeled(mapping)), (g.edges, mapping)


def test_mask_search_alone_agrees_with_networkx():
    # With every vertex under one label, the search alone tells the classes
    # apart: every same-degree-sequence pair up to 6 vertices.
    for g_nx in _bucket([_nx(g) for g in graphs_up_to_vertices(6)]).values():
        graphs = [Graph(g.number_of_nodes(), g.edges()) for g in g_nx]
        for a, b in combinations(graphs, 2):
            assert not _maps_onto(a.adj, [0] * a.n, b.adj, [0] * b.n), (a.edges, b.edges)
        for a in graphs:
            mapping = list(range(a.n))[::-1]
            assert _maps_onto(a.adj, [0] * a.n, a.relabeled(mapping).adj, [0] * a.n), a.edges


def test_cube_and_wagner_graph_share_rows_but_are_not_isomorphic():
    cube = Graph(8, [(u, u ^ 1 << i) for u in range(8) for i in range(3)])
    wagner = Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])
    assert sorted(_rows(cube.adj)) == sorted(_rows(wagner.adj)) == [(3, 0, 3 << 12)] * 8
    assert not are_isomorphic(cube, wagner) and not nx.is_isomorphic(_nx(cube), _nx(wagner))
    assert are_isomorphic(cube, cube.relabeled([3, 6, 0, 5, 7, 2, 4, 1]))
    assert are_isomorphic(wagner, wagner.relabeled([3, 6, 0, 5, 7, 2, 4, 1]))


def _min_degree_neighbourhoods(g: Graph) -> list[int]:
    """Every neighbourhood the minimum-degree rule allows, in offering order,
    before the twin rule: by size k, forced vertices (degree k - 1) plus
    each combination of the vertices of degree k or more."""
    deg = [g.degree(v) for v in range(g.n)]
    out = []
    for k in range(min(min(deg, default=0) + 1, g.n) + 1):
        forced = sum(1 << w for w in range(g.n) if deg[w] == k - 1)
        free = [1 << w for w in range(g.n) if deg[w] >= k]
        if forced.bit_count() <= k:
            out += [forced + sum(c) for c in combinations(free, k - forced.bit_count())]
    return out


def _child(g: Graph, new: int) -> nx.Graph:
    out = _nx(g)
    out.add_edges_from((g.n, w) for w in range(g.n) if new >> w & 1)
    return out


@pytest.mark.parametrize(
    "children, parents, candidates",
    [
        (_new_vertex_children, lambda: graphs_up_to_vertices(6), _min_degree_neighbourhoods),
        (_leaf_children, lambda: trees_up_to_vertices(10), lambda t: [1 << v for v in range(t.n)]),
    ],
    ids=["graphs", "trees"],
)
def test_twin_rule_skips_only_copies_of_earlier_children(children, parents, candidates):
    # Swapping twins u < w is an automorphism of the parent, so a
    # neighbourhood holding w but not its nearest earlier twin gives an
    # earlier candidate's child, relabeled.
    skipped = 0
    for g in parents():
        offered = [adj[-1] for adj, _ in children(g)]
        everything = candidates(g)
        assert offered == [new for new in everything if new in offered], g.edges
        for i, new in enumerate(everything):
            if new not in offered:
                skipped += 1
                earlier = [_child(g, e) for e in everything[:i] if e in offered]
                assert any(nx.is_isomorphic(_child(g, new), c) for c in earlier), (g.edges, new)
    assert skipped > 0


def test_store_offers_are_pinned(monkeypatch):
    # The twin rule keeps 2,088 of the 3,131 offers that the minimum-degree
    # rule alone makes up to 7 vertices, and 8,846 of 11,006 leaf offers up
    # to 13 vertices, with the same lists.
    offers = []
    add = IsoClassStore.add

    def counting_add(self, *args):
        offers.append(args)
        return add(self, *args)

    monkeypatch.setattr(IsoClassStore, "add", counting_add)
    assert len(graphs_up_to_vertices(7)) == sum(GRAPH_COUNTS[n] for n in range(1, 8))
    assert len(offers) == 2088
    offers.clear()
    assert len(trees_up_to_vertices(13)) == 2288
    assert len(offers) == 8846


def test_graph_from_masks_equals_graph_from_edges():
    for g in [Graph(0)] + graphs_up_to_vertices(7):
        built = Graph._from_masks(g.adj)
        assert built == Graph(g.n, g.edges) and hash(built) == hash(Graph(g.n, g.edges))
        assert (built.n, built.edges, built.adj) == (g.n, g.edges, g.adj)
