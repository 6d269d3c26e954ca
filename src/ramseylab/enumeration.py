"""Isomorph-free enumeration of small graphs and trees.

Graphs are generated level by level by augmentation (a new vertex, or a new
edge) and deduplicated behind cheap invariant buckets with exact isomorphism
tests inside each bucket.  A store keeps the first graph of each class, so
the bucket key decides only how many exact tests run, never which graphs are
listed or in what order.  Counts are pinned against published sequences.

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


def invariant_key(g: Graph) -> int:
    """A cheap isomorphism-invariant bucket key: the hash of a tuple of ints.

    One pass over the adjacency masks, with the degrees computed first, gives
    each vertex a row (degree, twice its triangle count, its neighbours'
    degrees sorted); the key hashes the sorted rows, which imply n and m.
    Ints and their tuples hash the same under every PYTHONHASHSEED, so
    buckets, and runs, are reproducible.  Two classes whose keys collide
    only share a bucket, where the exact test decides.
    """
    adj = g.adj
    deg = [a.bit_count() for a in adj]
    rows = []
    for a in adj:
        near = []
        triangles = 0
        rest = a
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            near.append(deg[w])
            triangles += (a & adj[w]).bit_count()
        near.sort()
        rows.append((len(near), triangles, tuple(near)))
    rows.sort()
    return hash(tuple(rows))


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
        self._buckets: dict[int, list[Graph]] = {}

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


def trees_up_to_vertices(n: int) -> list[Graph]:
    return [t for level in _levels(n, _leaf_children) for t in sorted(level, key=_tree_order)]
