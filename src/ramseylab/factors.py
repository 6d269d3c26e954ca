"""k-factor existence, Belck-style non-existence certificates, and star pairs.

A k-factor query on G reduces to perfect matching on a substitute graph: each
vertex v becomes deg(v) "external" nodes (one per incident edge) plus
deg(v) - k "internal" nodes joined to all of v's externals; each original edge
joins the two externals reserved for it.  Perfect matchings of the substitute
correspond exactly to k-factors of G.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Edge, Graph
from .matching import maximum_matching

@dataclass(frozen=True)
class FactorWitness:
    host: Graph
    k: int
    edges: frozenset[Edge]

    def __post_init__(self):
        degree = [0] * self.host.n
        host_edges = self.host.edge_set()
        for u, v in self.edges:
            if (u, v) not in host_edges:
                raise ValueError(f"factor edge ({u},{v}) not in host")
            degree[u] += 1
            degree[v] += 1
        bad = [v for v in range(self.host.n) if degree[v] != self.k]
        if bad:
            raise ValueError(f"not a {self.k}-factor: wrong degree at {bad[:5]}")


@dataclass(frozen=True)
class BelckCertificate:
    host: Graph
    p: int
    D: frozenset[int]
    odd_component_count: int

    def __post_init__(self):
        count = odd_components(self.host, self.D)
        if count != self.odd_component_count:
            raise ValueError(
                f"stated odd-component count {self.odd_component_count} != actual {count}"
            )
        if self.p * len(self.D) >= count:
            raise ValueError(
                f"inequality fails: {self.p}*{len(self.D)} >= {count}; no certificate"
            )


def odd_components(g: Graph, D: frozenset[int] | set[int]) -> int:
    """Number of odd-order components of g - D."""
    return sum(1 for comp in g.components(excluded=D) if len(comp) % 2 == 1)


def has_k_factor(g: Graph, k: int) -> FactorWitness | None:
    """Return a spanning k-regular subgraph of g, or None if none exists."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return FactorWitness(g, 0, frozenset())
    degrees = [g.degree(v) for v in range(g.n)]
    if any(d < k for d in degrees):
        return None
    if (g.n * k) % 2 == 1:
        return None

    # Substitute graph: externals first (one per edge endpoint), then internals.
    ext_id: dict[tuple[int, Edge], int] = {}
    nodes = 0
    for v in range(g.n):
        for e in g.edges:
            if v in e:
                ext_id[(v, e)] = nodes
                nodes += 1
    sub_edges: list[Edge] = []
    for v in range(g.n):
        externals = [ext_id[(v, e)] for e in g.edges if v in e]
        for _ in range(degrees[v] - k):
            internal = nodes
            nodes += 1
            sub_edges.extend((internal, x) for x in externals)
    for e in g.edges:
        u, v = e
        sub_edges.append((ext_id[(u, e)], ext_id[(v, e)]))

    substitute = Graph(nodes, sub_edges)
    match = maximum_matching(substitute)
    if len(match) != nodes:
        return None
    factor = frozenset(
        e for e in g.edges if match.get(ext_id[(e[0], e)]) == ext_id[(e[1], e)]
    )
    return FactorWitness(g, k, factor)


def belck_check(g: Graph, D, p: int) -> BelckCertificate | None:
    """Certify that g has no p-factor via the odd-component count of g - D.

    Returns a certificate exactly when p*|D| < (number of odd components of
    g - D); this condition is sufficient for non-existence, not necessary.
    """
    if p < 1 or p % 2 == 0:
        raise ValueError("p must be a positive odd integer")
    D = frozenset(D)
    if any(not 0 <= v < g.n for v in D):
        raise ValueError(f"D contains vertices outside 0..{g.n - 1}")
    count = odd_components(g, D)
    if p * len(D) < count:
        return BelckCertificate(g, p, D, count)
    return None


def star_pair_regular_arrows(f: Graph, a: int, b: int) -> bool:
    """Decide arrowing of a star pair on a regular host of matching degree.

    An (a+b-2)-regular graph arrows the star pair with a and b edges exactly
    when its edge set does not split into an (a-1)-regular and a (b-1)-regular
    spanning subgraph; on a regular host the complement of an (a-1)-factor is
    automatically (b-1)-regular.
    """
    if a < 1 or b < 1:
        raise ValueError("star sizes must be positive")
    r = a + b - 2
    degrees = {f.degree(v) for v in range(f.n)}
    if degrees not in ({r}, set()):
        raise ValueError(f"host must be {r}-regular, degrees seen: {sorted(degrees)}")
    return has_k_factor(f, a - 1) is None
