"""Subgraph containment and clique search.

Containment is non-induced throughout: a copy of the pattern may sit inside a
denser host region.  Red- or blue-restricted copies are found by searching the
color's spanning subgraph (`EdgeColoring.monochromatic_subgraph`).

`cliques_of_size` is the package's one clique search: the clique number, the
"contains K_k" checks and the copies of a complete pattern all go through it.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import RamseyLabError
from .graphs import Edge, Embedding, Graph, bits


class GraphTooLargeError(RamseyLabError):
    """Raised when an exact solver is asked for an instance beyond its cap."""


def _search_order(pattern: Graph, pinned: tuple[int, ...]) -> list[int]:
    """Connected ordering, highest degree first, pinned vertices up front."""
    order = list(pinned)
    placed = set(order)
    while len(order) < pattern.n:
        best = None
        best_key = None
        for v in range(pattern.n):
            if v in placed:
                continue
            anchored = sum(1 for w in pattern.neighbors(v) if w in placed)
            key = (anchored, pattern.degree(v), -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        placed.add(best)
    return order


def embeddings(
    host: Graph, pattern: Graph, pins: dict[int, int] | None = None
) -> Iterator[Embedding]:
    """Yield every embedding of `pattern` into `host` (as vertex maps).

    `pins` forces specific pattern vertices onto specific host vertices.
    Distinct automorphic images are yielded separately.
    """
    if pattern.n > host.n:
        return
    adj = host.adj
    host_deg = [a.bit_count() for a in adj]
    pins = pins or {}
    for p, h in pins.items():
        if not (0 <= p < pattern.n and 0 <= h < host.n):
            raise ValueError(f"pin {p}->{h} out of range")
    if len(set(pins.values())) != len(pins):
        return
    order = _search_order(pattern, tuple(pins))
    position = {v: i for i, v in enumerate(order)}
    # Pattern neighbors already placed when each vertex comes up in the order.
    back_edges = [
        [w for w in pattern.neighbors(v) if position[w] < position[v]] for v in order
    ]
    image = [-1] * pattern.n
    used = 0
    full_mask = (1 << host.n) - 1

    def candidates(idx: int) -> int:
        v = order[idx]
        cand = full_mask
        for w in back_edges[idx]:
            cand &= adj[image[w]]
        cand &= ~used
        if idx < len(pins):
            cand &= 1 << pins[v]
        return cand

    def extend(idx: int) -> Iterator[Embedding]:
        nonlocal used
        if idx == pattern.n:
            yield Embedding(pattern, host, tuple(image))
            return
        v = order[idx]
        need = pattern.degree(v)
        for h in bits(candidates(idx)):
            if host_deg[h] < need:
                continue
            image[v] = h
            used |= 1 << h
            yield from extend(idx + 1)
            used &= ~(1 << h)
            image[v] = -1

    yield from extend(0)


def contains_copy(
    host: Graph, pattern: Graph, pins: dict[int, int] | None = None
) -> Embedding | None:
    """Return one embedding of `pattern` into `host`, or None.

    The empty pattern embeds trivially.
    """
    return next(embeddings(host, pattern, pins), None)


def copies_as_edge_sets(host: Graph, pattern: Graph) -> list[frozenset[Edge]]:
    """All distinct edge sets realized by copies of `pattern` in `host`, sorted."""
    n = pattern.n
    if 2 * pattern.m == n * (n - 1):
        # A complete pattern has n! embeddings per copy, so list each clique
        # once instead.  The set keeps one empty edge set for K1.
        seen = {frozenset(itertools.combinations(c, 2)) for c in cliques_of_size(host, n)}
        return sorted(seen, key=sorted)
    seen = {emb.edge_image() for emb in embeddings(host, pattern)}
    return sorted(seen, key=sorted)


def cliques_of_size(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All k-cliques of g as sorted vertex tuples, in lexicographic order."""
    if k < 0:
        raise ValueError("clique size must be nonnegative")
    if k == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    clique: list[int] = []

    def grow(cand: int):
        if len(clique) == k:
            out.append(tuple(clique))
            return
        # Not enough candidates left to finish the clique.
        if len(clique) + cand.bit_count() < k:
            return
        for v in bits(cand):
            clique.append(v)
            grow(cand & g.adj[v] & ~((1 << (v + 1)) - 1))
            clique.pop()

    grow((1 << g.n) - 1)
    return out


def clique_number(g: Graph) -> int:
    """Exact maximum clique size; 0 for the empty graph.

    The largest k for which `cliques_of_size(g, k)` is non-empty.
    """
    k = 0
    while cliques_of_size(g, k + 1):
        k += 1
    return k
