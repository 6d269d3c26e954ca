"""Subgraph containment and clique search.

Containment is non-induced throughout: a copy of the pattern may sit inside a
denser host region.  Red- or blue-restricted copies are found by searching the
color's spanning subgraph (`EdgeColoring.monochromatic_subgraph`).

Every embedding search walks a plan compiled once per pattern value: the
order in which pattern vertices are placed, with each vertex's degree and its
already-placed neighbours.  `contains_copy`, `copies_as_edge_sets`, the
freeness checks and the isomorphism store all share these cached plans.  The
cache is bounded because the isomorph-free enumeration searches with every
representative it keeps as the pattern, so it compiles a plan for each of them.

`cliques_of_size` is the package's one clique search: the clique number, the
"contains K_k" checks and the copies of a complete pattern all go through it.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

from .errors import RamseyLabError
from .graphs import Edge, Embedding, Graph, bits


class GraphTooLargeError(RamseyLabError):
    """Raised when an exact solver is asked for an instance beyond its cap."""


# One step of an embedding search: (vertex, degree, earlier neighbours).
_Step = tuple[int, int, tuple[int, ...]]


@functools.lru_cache(maxsize=256)
def _plan(pattern: Graph, pinned: tuple[int, ...]) -> tuple[_Step, ...]:
    """The embedding search steps for `pattern`, one per vertex.

    Pinned vertices come first, in the given order.  Each later step places the
    unplaced vertex with the most placed neighbours, then the highest degree,
    then the lowest label, so the order stays connected where it can.
    """
    steps: list[_Step] = []
    placed = 0
    while len(steps) < pattern.n:
        if len(steps) < len(pinned):
            v = pinned[len(steps)]
        else:
            v = max(
                (v for v in range(pattern.n) if not placed >> v & 1),
                key=lambda v: ((pattern.adj[v] & placed).bit_count(), pattern.degree(v), -v),
            )
        steps.append((v, pattern.degree(v), tuple(bits(pattern.adj[v] & placed))))
        placed |= 1 << v
    return tuple(steps)


def embeddings(
    host: Graph, pattern: Graph, pins: dict[int, int] | None = None
) -> Iterator[Embedding]:
    """Yield every embedding of `pattern` into `host` (as vertex maps).

    `pins` forces specific pattern vertices onto specific host vertices.
    Distinct automorphic images are yielded separately.
    """
    if pattern.n > host.n:
        return
    pins = pins or {}
    for p, h in pins.items():
        if not (0 <= p < pattern.n and 0 <= h < host.n):
            raise ValueError(f"pin {p}->{h} out of range")
    if len(set(pins.values())) != len(pins):
        return
    plan = _plan(pattern, tuple(pins))
    # The first len(pins) steps place the pinned vertices, each on its one target.
    allowed = [1 << h for h in pins.values()] + [(1 << host.n) - 1] * (pattern.n - len(pins))
    adj = host.adj
    host_deg = [a.bit_count() for a in adj]
    image = [-1] * pattern.n

    def extend(idx: int, used: int) -> Iterator[Embedding]:
        if idx == pattern.n:
            yield Embedding(pattern, host, tuple(image))
            return
        v, need, back = plan[idx]
        cand = allowed[idx] & ~used
        for w in back:
            cand &= adj[image[w]]
        for h in bits(cand):
            if host_deg[h] < need:
                continue
            image[v] = h
            yield from extend(idx + 1, used | 1 << h)

    yield from extend(0, 0)


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


def cliques_of_size(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """The k-cliques of g as sorted vertex tuples, in lexicographic order.

    The search is lazy, so an existence question stops at the first clique.
    """
    if k < 0:
        raise ValueError("clique size must be nonnegative")
    clique: list[int] = []

    def grow(cand: int) -> Iterator[tuple[int, ...]]:
        if len(clique) == k:
            yield tuple(clique)
            return
        # Not enough candidates left to finish the clique.
        if len(clique) + cand.bit_count() < k:
            return
        for v in bits(cand):
            clique.append(v)
            yield from grow(cand & g.adj[v] & ~((1 << (v + 1)) - 1))
            clique.pop()

    return grow((1 << g.n) - 1)


def clique_number(g: Graph) -> int:
    """Exact maximum clique size; 0 for the empty graph.

    The largest k for which `cliques_of_size(g, k)` yields a clique.
    """
    k = 0
    while next(cliques_of_size(g, k + 1), None) is not None:
        k += 1
    return k
