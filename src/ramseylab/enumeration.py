"""Isomorph-free enumeration of small graphs and trees.

Graphs are generated level by level by augmentation (a new vertex, or a new
edge) and deduplicated behind cheap invariant buckets with exact isomorphism
tests inside each bucket.  Counts are pinned against published sequences in
the tests.

Augmentation offers only children whose new piece is least under a cheap
invariant, after McKay's canonical deletion (1998): a new vertex only when it
has minimum degree in the child, and a new edge only when its key, the
(min, max) of its end degrees in the child, is no larger than any other
edge's.  The rule loses no class.  Every graph H of the next level has such
a least piece; deleting it (for an edge, together with any end it leaves
isolated) gives a graph isomorphic to some representative R of the current
level, and the matching augmentation of R is a copy of H whose new piece is
still least, so it is offered.  The store removes the duplicates that remain.

Each graph that `graphs_up_to_vertices` lists on n > 1 vertices is a child
of a representative one level down, and the new vertex is always the last,
so deleting its last vertex gives a graph equal (==) to a listed
representative on n - 1 vertices: its parent.
`arrowing.equivalence_scan` decides a host from its parent for speed; a
missing parent would only cost it a search.
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
    """g plus a new vertex of minimum degree in the child, with each such neighborhood.

    A neighborhood of size k qualifies when every old vertex keeps degree k
    or more: those of degree k-1 must join it, those of degree k or more may.
    """
    deg = [a.bit_count() for a in g.adj]
    low = min(deg, default=0)
    for k in range(min(low + 1, g.n) + 1):
        forced = [w for w in range(g.n) if deg[w] == k - 1]
        free = [w for w in range(g.n) if deg[w] >= k]
        if len(forced) > k:
            continue
        for extra in itertools.combinations(free, k - len(forced)):
            yield Graph(g.n + 1, list(g.edges) + [(w, g.n) for w in forced + list(extra)])


_K2 = Graph(2, [(0, 1)])


def _edge_children(g: Graph) -> Iterator[Graph]:
    """A new edge whose key is least in the child: between two non-adjacent
    vertices, to a new pendant vertex, or isolated (key (1, 1), always least).

    An edge's key is the (min, max) of its end degrees.  The new edge only
    raises the keys of the edges it touches, so only old edges whose key was
    below the new one need a second look.
    """
    # A pendant edge's new end, vertex g.n, has degree 0 before the edge.
    deg = [a.bit_count() for a in g.adj] + [0]
    ranked = sorted((min(deg[a], deg[b]), max(deg[a], deg[b]), a, b) for a, b in g.edges)

    def least(u: int, v: int) -> bool:
        key = (min(deg[u], deg[v]) + 1, max(deg[u], deg[v]) + 1)
        for lo, hi, a, b in ranked:
            if (lo, hi) >= key:
                return True
            da = deg[a] + (a == u or a == v)
            db = deg[b] + (b == u or b == v)
            if (min(da, db), max(da, db)) < key:
                return False
        return True

    for u, v in itertools.combinations(range(g.n), 2):
        if not g.has_edge(u, v) and least(u, v):
            yield g.with_edges([(u, v)])
    for u in range(g.n):
        if least(u, g.n):
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

