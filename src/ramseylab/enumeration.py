"""Isomorph-free enumeration of small graphs and trees.

Graphs are generated by augmentation (a new vertex with every possible
neighborhood, or a new edge) and deduplicated behind cheap invariant buckets
with exact isomorphism tests inside each bucket.  Counts are pinned against
published sequences in the tests.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator

from .graphs import Graph
from .subgraph import contains_copy


def _triangle_counts(g: Graph) -> tuple[int, ...]:
    per_vertex = []
    for v in range(g.n):
        nbrs = g.adj[v]
        count = 0
        for w in g.neighbors(v):
            count += (nbrs & g.adj[w]).bit_count()
        per_vertex.append(count // 2)
    return tuple(sorted(per_vertex))


def invariant_key(g: Graph):
    """A cheap isomorphism-invariant bucket key."""
    profile = tuple(
        sorted(
            (g.degree(v), tuple(sorted(g.degree(w) for w in g.neighbors(v))))
            for v in range(g.n)
        )
    )
    return (g.n, g.m, g.degree_sequence(), _triangle_counts(g), profile)


def are_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test for same-size graphs."""
    if a.n != b.n or a.m != b.m:
        return False
    if invariant_key(a) != invariant_key(b):
        return False
    # Equal vertex and edge counts turn any embedding into an isomorphism.
    return contains_copy(b, a) is not None


class IsoClassStore:
    """A set of graphs up to isomorphism."""

    def __init__(self):
        self._buckets: dict[tuple, list[Graph]] = {}

    def add(self, g: Graph) -> bool:
        """Insert g; returns True when its class was not present yet."""
        key = invariant_key(g)
        bucket = self._buckets.setdefault(key, [])
        # The representative is the pattern, so its cached search plan is reused.
        for rep in bucket:
            if contains_copy(g, rep) is not None:
                return False
        bucket.append(g)
        return True


def _levels(
    n: int, children: Callable[[Graph], Iterable[Graph]], first: Graph = Graph(1)
) -> Iterator[list[Graph]]:
    """Yield the isomorph-free levels 1..n, unsorted; level 1 is `first` alone.

    Level k+1 keeps the first of each class among the children of level k, so
    one augmentation pass serves every size and a level never depends on n.
    """
    level = [first]
    for size in range(1, n + 1):
        if size > 1:
            store = IsoClassStore()
            level = [c for g in level for c in children(g) if store.add(c)]
        yield level


def _new_vertex_children(g: Graph) -> Iterator[Graph]:
    for nbrs in range(1 << g.n):
        yield Graph(g.n + 1, list(g.edges) + [(w, g.n) for w in range(g.n) if nbrs >> w & 1])


_K2 = Graph(2, [(0, 1)])


def _edge_children(g: Graph) -> Iterator[Graph]:
    """A new edge: between two non-adjacent vertices, to a new pendant vertex, or isolated."""
    for u, v in itertools.combinations(range(g.n), 2):
        if not g.has_edge(u, v):
            yield g.with_edges([(u, v)])
    for u in range(g.n):
        yield Graph(g.n + 1, list(g.edges) + [(u, g.n)])
    yield g.disjoint_union(_K2)


def _graph_order(g: Graph):
    return (g.m, g.edges)


def graphs_on_vertices(n: int) -> list[Graph]:
    """All graphs on exactly n vertices up to isomorphism (isolates included)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    *_, level = _levels(n, _new_vertex_children)
    return sorted(level, key=_graph_order)


def graphs_up_to_vertices(n: int) -> list[Graph]:
    return [g for level in _levels(n, _new_vertex_children) for g in sorted(level, key=_graph_order)]


def graphs_by_edge_count(max_edges: int) -> dict[int, list[Graph]]:
    """Graphs with 1..max_edges edges and no isolated vertices, up to iso."""
    if max_edges < 1:
        raise ValueError("max_edges must be at least 1")
    levels = _levels(max_edges, _edge_children, _K2)
    return {m: sorted(level, key=lambda g: (g.n, g.edges)) for m, level in enumerate(levels, 1)}


def _leaf_children(t: Graph) -> Iterator[Graph]:
    for v in range(t.n):
        yield Graph(t.n + 1, list(t.edges) + [(v, t.n)])


def _tree_order(t: Graph):
    return t.edges


def trees_on_vertices(n: int) -> list[Graph]:
    """All trees on exactly n vertices up to isomorphism, by leaf augmentation."""
    if n < 1:
        raise ValueError("n must be at least 1")
    *_, level = _levels(n, _leaf_children)
    return sorted(level, key=_tree_order)


def trees_up_to_vertices(n: int) -> list[Graph]:
    return [t for level in _levels(n, _leaf_children) for t in sorted(level, key=_tree_order)]


def regular_graphs(n: int, r: int) -> list[Graph]:
    """All r-regular graphs on n vertices up to isomorphism.

    Augments vertex by vertex under a degree cap, pruning partial graphs whose
    remaining degree demand cannot be met by the vertices still to come, then
    keeps the exactly-regular results.  Practical for n*r/2 up to ~14 edges.
    """
    if r < 0 or n < 1:
        raise ValueError("need n >= 1 and r >= 0")
    if r >= n or (n * r) % 2 == 1:
        return []
    if r == 0:
        return [Graph(n)]

    def feasible(g: Graph, size: int) -> bool:
        remaining = n - size
        for v in range(size):
            need = r - g.degree(v)
            if need < 0 or need > remaining:
                return False
        # Handshake on the missing degree: each future vertex supplies <= r.
        deficit = sum(r - g.degree(v) for v in range(size))
        return deficit <= remaining * r

    def children(g: Graph) -> Iterator[Graph]:
        open_slots = [v for v in range(g.n) if g.degree(v) < r]
        for count in range(min(r, len(open_slots)) + 1):
            for combo in itertools.combinations(open_slots, count):
                candidate = Graph(g.n + 1, list(g.edges) + [(v, g.n) for v in combo])
                if feasible(candidate, g.n + 1):
                    yield candidate

    *_, level = _levels(n, children)
    return sorted(
        (g for g in level if all(g.degree(v) == r for v in range(n))),
        key=lambda g: g.edges,
    )

