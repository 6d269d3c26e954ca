"""Isomorph-free enumeration of small graphs and trees.

Graphs are generated level by level by augmentation (a new vertex, or a new
edge), as adjacency masks with vertex rows derived from the parent's, and
deduplicated behind cheap invariant buckets with exact tests on the masks
inside each bucket.  A store keeps, and builds a `Graph` for, the first graph
of each class, so the bucket key decides only how many exact tests run, never
which graphs are listed or in what order.  Counts are pinned against
published sequences.

Augmentation offers only children whose new piece is least under a cheap
invariant, after McKay's canonical deletion (1998): a new vertex only when it
has minimum degree in the child, and a new edge only when its key, the
(min, max) of its end degrees in the child, is no larger than any other
edge's.  The rule loses no class.  Every graph H of the next level has such
a least piece; deleting it (for an edge, together with any end it leaves
isolated) gives a graph isomorphic to some representative R of the current
level, and the matching augmentation of R is a copy of H whose new piece is
still least, so it is offered.

A new vertex is also offered only under the twin rule.  Twins are vertices
u < w whose neighbourhoods agree apart from each other; swapping them is an
automorphism of the parent.  A neighbourhood that holds w but not its
nearest earlier twin u is mapped by that swap onto the one with u in place
of w, of the same size and earlier in the offering order (twins share a
degree, so both are forced or both free), whose child is isomorphic.  So
the first child of each class is never skipped, and the store keeps the
graphs, in the order, that it keeps without the rule.  A tree's new leaf
obeys the same rule.  The store removes the duplicates that remain.

Each graph that `graphs_up_to_vertices` lists on n > 1 vertices is a child
of a representative one level down, and the new vertex is always the last,
so its adjacency masks with the last vertex cleared, one per vertex below
it, are the masks of a listed representative on n - 1 vertices: its parent.
`arrowing.equivalence_scan` decides a host from its parent for speed; a
missing parent would only cost it a search.

`graphs_up_to_vertices(n, grow)` hands each graph to `grow` in listing
order, a whole level before the next is built.  It augments only the graphs
that `grow` returns true for, in the store's order, and None from `grow`
ends the listing with that level.  Take a property closed under supergraphs,
such as arrowing both pairs of a scan, and a `grow` that is true on every
graph without it.  Then every class without it keeps its label (its
adjacency masks) and its place in the listing.  Its first parent in the full
enumeration is a subgraph of it, so that parent lacks the property too; by
induction it is still listed, and grown.  The parents before it offer the
same children as before, or none, so the store still keeps that parent's
child first.  So a class that is not listed always has the property.  A
listed class that has it may come from another parent, with other masks.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Sequence

from .graphs import Graph, bits
from .subgraph import contains_copy  # noqa: F401  hooked by name in bench/tracer.py


def _rows(adj: Sequence[int]) -> list[tuple[int, int, int]]:
    """Each vertex's row: its degree, twice its triangle count, and the sum of
    16^deg over its neighbours, which spells out their degrees in base 16
    (exactly while no vertex has 16 neighbours of one degree)."""
    deg = [a.bit_count() for a in adj]
    return [
        (deg[v], sum((a & adj[w]).bit_count() for w in bits(a)), sum(16 ** deg[w] for w in bits(a)))
        for v, a in enumerate(adj)
    ]


def _grow(adj: Sequence[int], rows: Sequence[tuple], new: int) -> tuple[list[int], list[tuple]]:
    """adj plus a last vertex joined to the mask `new`, each row derived from
    the parent's: a neighbour's degree rises by one, its 16^deg 16-fold."""
    v, k = len(adj), new.bit_count()
    child, child_rows = [], []
    triangles = near = 0
    for w, (a, (d, t, s)) in enumerate(zip(adj, rows)):
        hits = rest = a & new
        while rest:
            u = rest.bit_length() - 1
            rest ^= 1 << u
            s += 15 << 4 * rows[u][0]
        if new >> w & 1:
            c = hits.bit_count()
            triangles, near = triangles + c, near + (16 << 4 * d)
            a, d, t, s = a | 1 << v, d + 1, t + 2 * c, s + (1 << 4 * k)
        child.append(a)
        child_rows.append((d, t, s))
    return child + [new], child_rows + [(k, triangles, near)]


def invariant_key(g: Graph) -> int:
    """A cheap isomorphism-invariant bucket key: the hash of the sorted rows.

    Ints and their tuples hash the same under every PYTHONHASHSEED, so buckets,
    and runs, are reproducible.  Colliding classes only share a bucket."""
    return hash(tuple(sorted(_rows(g.adj))))


def _maps_onto(a: Sequence[int], a_labels: Sequence, b: Sequence[int], b_labels: Sequence) -> bool:
    """Whether a bijection sends each vertex of a to one of b with its label,
    and edges and non-edges onto their like.  Vertices of a are placed rarest
    label first, each onto an unused vertex of b with its label, adjacent to
    the images of its placed neighbours and with as many placed neighbours."""
    pool: dict = {}
    for y, label in enumerate(b_labels):
        pool[label] = pool.get(label, 0) | 1 << y
    order = sorted(range(len(a)), key=lambda x: pool.get(a_labels[x], 0).bit_count())
    image, cands, needs = [0] * len(a), [0] * len(a), [0] * len(a)
    i, placed, used, fresh = 0, 0, 0, True
    while 0 <= i < len(a):
        x = order[i]
        if fresh:  # entering step i: its candidates
            back = a[x] & placed
            cand, need = pool.get(a_labels[x], 0) & ~used, back.bit_count()
            for w in bits(back):
                cand &= b[image[w]]
        else:  # back from step i + 1: undo step i, try its next candidate
            placed, used = placed ^ 1 << x, used ^ 1 << image[x]
            cand, need = cands[i], needs[i]
        fresh = False
        while cand and not fresh:
            low = cand & -cand
            cand ^= low
            fresh = (b[low.bit_length() - 1] & used).bit_count() == need
        if fresh:
            image[x], cands[i], needs[i] = low.bit_length() - 1, cand, need
            placed, used, i = placed | 1 << x, used | low, i + 1
        else:
            i -= 1
    return i == len(a)


def are_isomorphic(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test for same-size graphs."""
    if a.n != b.n or a.m != b.m:
        return False
    rows_a, rows_b = _rows(a.adj), _rows(b.adj)
    return sorted(rows_a) == sorted(rows_b) and _maps_onto(a.adj, rows_a, b.adj, rows_b)


class IsoClassStore:
    """A set of graphs up to isomorphism; `graphs` lists the kept ones in order.

    A bucket, keyed by the hash of the sorted rows, alternates each kept graph
    with its row classes: one byte a vertex, where its row first appears in the
    sorted rows, which `_maps_onto` matches as labels."""

    def __init__(self):
        self.graphs: list[Graph] = []
        self._buckets: dict[int, list] = {}

    def add(self, adj: Sequence[int], rows: Sequence[tuple]) -> bool:
        """Offer the graph on masks adj with its rows; True when its class is new."""
        ordered = sorted(rows)
        classes = bytes([ordered.index(row) for row in rows])
        bucket = self._buckets.setdefault(hash(tuple(ordered)), [])
        for i in range(0, len(bucket), 2):
            if _maps_onto(adj, classes, bucket[i].adj, bucket[i + 1]):
                return False
        g = Graph._from_masks(adj)
        bucket += (g, classes)
        self.graphs.append(g)
        return True


def _levels(
    n: int,
    children: Callable[[Graph], Iterator[tuple]],
    key: Callable[[Graph], tuple],
    first: Graph = Graph(1),
    grow: Callable[[Graph], bool | None] | None = None,
) -> Iterator[list[Graph]]:
    """Yield the isomorph-free levels 1..n, each sorted by key; level 1 is `first` alone.

    Level k+1 keeps the first of each class among the children of level k,
    taken in the store's order, so one augmentation pass serves every size
    and a level never depends on n.  Given `grow`, each graph of a level is
    handed to it in the yielded order before the next level is built.  Only
    the graphs it returns true for are augmented, and once it returns None
    no further level is built.
    """
    level = [first]
    for size in range(1, n + 1):
        if size > 1:
            store = IsoClassStore()
            for child in itertools.chain.from_iterable(map(children, level)):
                store.add(*child)
            level = store.graphs
            del store  # free its buckets before the level is sorted
        order = sorted(range(len(level)), key=lambda i: key(level[i]))
        yield [level[i] for i in order]
        if grow is not None:
            chosen = []
            for i in order:
                verdict = grow(level[i])
                if verdict is None:
                    return
                if verdict:
                    chosen.append(i)
            level = [level[i] for i in sorted(chosen)]


def _twin_pairs(adj: Sequence[int]) -> list[tuple[int, int]]:
    """(1 << w, 1 << u) for each vertex w that has a twin below it, u the
    nearest: u < w with the same neighbours apart from each other."""
    pairs = []
    for w in range(len(adj)):
        for u in range(w - 1, -1, -1):
            if adj[u] & ~(1 << w) == adj[w] & ~(1 << u):
                pairs.append((1 << w, 1 << u))
                break
    return pairs


def _new_vertex_children(g: Graph) -> Iterator[tuple]:
    """g plus a new vertex of minimum degree in the child, with each such neighborhood.

    A neighborhood of size k qualifies when every old vertex keeps degree k
    or more: those of degree k-1 must join it, those of degree k or more may.
    One that holds a vertex but not its nearest earlier twin is skipped (the
    twin rule, see the module docstring).
    """
    twins = _twin_pairs(g.adj)
    rows = _rows(g.adj)
    deg = [row[0] for row in rows]
    low = min(deg, default=0)
    for k in range(min(low + 1, g.n) + 1):
        forced = sum(1 << w for w in range(g.n) if deg[w] == k - 1)
        free = [1 << w for w in range(g.n) if deg[w] >= k]
        if forced.bit_count() > k:
            continue
        for extra in itertools.combinations(free, k - forced.bit_count()):
            new = forced + sum(extra)
            if not any(new & w and not new & u for w, u in twins):
                yield _grow(g.adj, rows, new)


_K2 = Graph(2, [(0, 1)])


def _edge_children(g: Graph) -> Iterator[tuple]:
    """A new edge whose key is least in the child: between two non-adjacent
    vertices, to a new pendant vertex, or isolated (key (1, 1), always least).

    An edge's key is the (min, max) of its end degrees.  The new edge only
    raises the keys of the edges it touches, so only old edges whose key was
    below the new one need a second look.
    """
    rows = _rows(g.adj)
    # A pendant edge's new end, vertex g.n, has degree 0 before the edge.
    deg = [row[0] for row in rows] + [0]
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
            adj = [a | (w == u) << v | (w == v) << u for w, a in enumerate(g.adj)]
            yield adj, _rows(adj)
    for u in range(g.n):
        if least(u, g.n):
            yield _grow(g.adj, rows, 1 << u)
    yield _grow(*_grow(g.adj, rows, 0), 1 << g.n)


def graphs_up_to_vertices(n: int, grow: Callable[[Graph], bool | None] | None = None) -> list[Graph]:
    """Every graph on 1..n vertices up to isomorphism, by vertex count, then
    edge count, then edge list.  Given `grow`, only the children of the
    graphs it returns true for, and no graph past the level where it returns
    None (see `_levels` and the module docstring)."""
    levels = _levels(n, _new_vertex_children, lambda g: (g.m, g.edges), grow=grow)
    return [g for level in levels for g in level]


def graphs_by_edge_count(max_edges: int) -> dict[int, list[Graph]]:
    """Graphs with 1..max_edges edges and no isolated vertices, up to iso."""
    if max_edges < 1:
        raise ValueError("max_edges must be at least 1")
    levels = _levels(max_edges, _edge_children, lambda g: (g.n, g.edges), _K2)
    return dict(enumerate(levels, 1))


def _leaf_children(t: Graph) -> Iterator[tuple]:
    """t plus a leaf at each vertex that has no earlier twin (the twin rule)."""
    rows = _rows(t.adj)
    later = sum(w for w, _ in _twin_pairs(t.adj))
    for v in range(t.n):
        if not later >> v & 1:
            yield _grow(t.adj, rows, 1 << v)


def trees_up_to_vertices(n: int) -> list[Graph]:
    return [t for level in _levels(n, _leaf_children, lambda t: t.edges) for t in level]
