"""Simple undirected graphs on dense integer labels, plus edge 2-colorings,
and the basic named graphs: stars, paths, cliques, cycles and K_t . aK_b.

Graphs are immutable values: all "mutators" return new graphs.  Adjacency is
kept as one bitmask per vertex, so adjacency tests, common-neighbor
intersections and degree counts are constant-time on word-sized instances.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Sequence

RED = "R"
BLUE = "B"

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to the canonical (min, max) tuple."""
    if u == v:
        raise ValueError(f"loops are not allowed: ({u}, {v})")
    return (u, v) if u < v else (v, u)


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """An immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj", "_hash")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = sorted({edge(u, v) for u, v in edges})
        adj = [0] * n
        for u, v in canon:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(canon)
        self.adj: tuple[int, ...] = tuple(adj)
        self._hash = hash((n, self.edges))

    @classmethod
    def _from_masks(cls, adj: Sequence[int]) -> Graph:
        """The graph with adjacency masks `adj`, trusted to be symmetric and
        loop-free: its edges are read off the masks in order, unchecked."""
        edges = []
        for u, a in enumerate(adj):
            a >>= u + 1
            while a:
                low = a & -a
                edges.append((u, u + low.bit_length()))
                a ^= low
        g = object.__new__(cls)
        g.n, g.edges, g.adj = len(adj), tuple(edges), tuple(adj)
        g._hash = hash((g.n, g.edges))
        return g

    # -- basic queries ----------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.adj[v])

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived graphs ----------------------------------------------------

    def without_edge(self, e: Edge) -> Graph:
        e = edge(*e)
        if e not in self.edge_set():
            raise ValueError(f"edge {e} not in graph")
        return self.without_edges((e,))

    def without_edges(self, drop: Iterable[Edge]) -> Graph:
        gone = {edge(u, v) for u, v in drop}
        return Graph(self.n, (f for f in self.edges if f not in gone))

    def without_vertex(self, v: int) -> Graph:
        """Delete vertex v; remaining vertices are relabeled to 0..n-2 in order."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return self.induced(u for u in range(self.n) if u != v)

    def induced(self, keep: Iterable[int]) -> Graph:
        """Induced subgraph on `keep`, relabeled by increasing original label."""
        kept = sorted(set(keep))
        relabel = {u: i for i, u in enumerate(kept)}
        return Graph(
            len(kept),
            (
                (relabel[a], relabel[b])
                for a, b in self.edges
                if a in relabel and b in relabel
            ),
        )

    def relabeled(self, mapping: list[int]) -> Graph:
        """Apply a vertex bijection 0..n-1 -> 0..n-1: vertex v becomes mapping[v]."""
        if sorted(mapping) != list(range(self.n)):
            raise ValueError("mapping is not a bijection on 0..n-1")
        return Graph(self.n, ((mapping[a], mapping[b]) for a, b in self.edges))

    # -- connectivity ------------------------------------------------------

    def components(self, excluded: Iterable[int] = ()) -> list[list[int]]:
        """Connected components of the graph minus `excluded`, sorted lists."""
        cut = set(excluded)
        seen = set(cut)
        out = []
        for s in range(self.n):
            if s in seen:
                continue
            comp, stack = [], [s]
            seen.add(s)
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in bits(self.adj[v]):
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            out.append(sorted(comp))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_tree(self) -> bool:
        return self.n >= 1 and self.m == self.n - 1 and self.is_connected()


class EdgeColoring:
    """A total red/blue assignment on the edge set of a host graph."""

    __slots__ = ("host", "red", "blue")

    def __init__(self, host: Graph, red: Iterable[Edge] = (), blue: Iterable[Edge] = ()):
        red_set = frozenset(edge(u, v) for u, v in red)
        blue_set = frozenset(edge(u, v) for u, v in blue)
        if red_set & blue_set:
            raise ValueError(f"edges colored twice: {sorted(red_set & blue_set)}")
        if red_set | blue_set != host.edge_set():
            missing = host.edge_set() - (red_set | blue_set)
            extra = (red_set | blue_set) - host.edge_set()
            raise ValueError(
                f"coloring domain mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        self.host = host
        self.red = red_set
        self.blue = blue_set

    def color(self, e: Edge) -> str:
        e = edge(*e)
        if e in self.red:
            return RED
        if e in self.blue:
            return BLUE
        raise KeyError(f"edge {e} not in coloring domain")

    def flipped(self, edges_to_flip: Iterable[Edge]) -> EdgeColoring:
        """Swap the color of each listed edge; all must be in the domain."""
        flip = {edge(u, v) for u, v in edges_to_flip}
        unknown = flip - self.host.edge_set()
        if unknown:
            raise ValueError(f"cannot flip edges outside the host: {sorted(unknown)}")
        return EdgeColoring(
            self.host,
            red=(self.red - flip) | (self.blue & flip),
            blue=(self.blue - flip) | (self.red & flip),
        )

    def adjacency(self, color: str) -> tuple[int, ...]:
        """One color's adjacency masks, one per host vertex, built on each call."""
        if color not in (RED, BLUE):
            raise ValueError(f"unknown color {color!r}")
        adj = [0] * self.host.n
        for u, v in self.red if color == RED else self.blue:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeColoring)
            and self.host == other.host
            and self.red == other.red
        )

    def __hash__(self) -> int:
        return hash((self.host, self.red))

    def __repr__(self) -> str:
        return f"EdgeColoring(red={len(self.red)}, blue={len(self.blue)})"


# -- basic named graphs ------------------------------------------------------


@functools.lru_cache(maxsize=64)  # graphs are immutable, so callers may share them
def star(s: int) -> Graph:
    """K_{1,s}: the center is vertex 0."""
    if s < 1:
        raise ValueError("a star needs at least one edge")
    return Graph(s + 1, [(0, i) for i in range(1, s + 1)])


def path(n: int) -> Graph:
    """P_n on n vertices (n-1 edges), labeled along the path."""
    if n < 1:
        raise ValueError("a path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


@functools.lru_cache(maxsize=64)
def clique(t: int) -> Graph:
    if t < 1:
        raise ValueError("a clique needs at least one vertex")
    return Graph(t, itertools.combinations(range(t), 2))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


@functools.lru_cache(maxsize=64)
def clique_with_pendants(t: int, a: int, b: int) -> Graph:
    """K_t . aK_b: K_t plus a disjoint K_b blocks, block i glued at clique vertex i."""
    if t < 3:
        raise ValueError("t must be at least 3")
    if not 1 <= a <= t:
        raise ValueError("need 1 <= a <= t")
    if b < 2:
        raise ValueError("b must be at least 2")
    edges = list(itertools.combinations(range(t), 2))
    n = t
    for i in range(a):
        block = [i] + list(range(n, n + b - 1))
        n += b - 1
        edges.extend(itertools.combinations(block, 2))
    return Graph(n, edges)
