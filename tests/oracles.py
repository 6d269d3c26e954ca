"""Independent brute-force oracles the library implementations are checked against.

Everything here favors obviousness over speed: straight enumeration of
injections, edge subsets, vertex subsets, and colorings.  None of it shares
code with the library search paths.
"""

from __future__ import annotations

import itertools

import numpy as np

from ramseylab.graphs import RED, Graph
from ramseylab.trees import TreeProfile


def injection_embeds(host: Graph, pattern: Graph) -> bool:
    """Does pattern embed into host?  Checked over all injective vertex maps."""
    if pattern.n > host.n:
        return False
    for perm in itertools.permutations(range(host.n), pattern.n):
        if all(host.has_edge(perm[u], perm[v]) for u, v in pattern.edges):
            return True
    return False


def brute_copy_edge_sets(host: Graph, pattern: Graph) -> list[frozenset]:
    """Distinct edge images of pattern over all injective vertex maps, sorted."""
    found = set()
    for perm in itertools.permutations(range(host.n), pattern.n):
        if all(host.has_edge(perm[u], perm[v]) for u, v in pattern.edges):
            found.add(frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in pattern.edges))
    return sorted(found, key=sorted)


def injection_embeds_colored(host: Graph, pattern: Graph, allowed: set) -> bool:
    allowed = {tuple(sorted(e)) for e in allowed}
    if pattern.n > host.n:
        return False
    for perm in itertools.permutations(range(host.n), pattern.n):
        if all(tuple(sorted((perm[u], perm[v]))) in allowed for u, v in pattern.edges):
            return True
    return False


def brute_clique_number(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                best = size
                break
    return best


def brute_max_matching_size(g: Graph) -> int:
    best = 0
    for r in range(len(g.edges), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(g.edges, r):
            touched = set()
            ok = True
            for u, v in combo:
                if u in touched or v in touched:
                    ok = False
                    break
                touched.update((u, v))
            if ok:
                best = r
                break
    return best


def brute_has_k_factor(g: Graph, k: int) -> bool:
    """Vectorized scan of all edge subsets for an exactly-k-regular one."""
    m = g.m
    if m > 22:
        raise ValueError("oracle capped at 22 edges")
    if k == 0:
        return True
    subsets = np.arange(1 << m, dtype=np.uint32)
    ok = np.ones(1 << m, dtype=bool)
    for v in range(g.n):
        vmask = np.uint32(sum(1 << i for i, e in enumerate(g.edges) if v in e))
        ok &= np.bitwise_count(subsets & vmask) == k
    return bool(ok.any())


def brute_pinned_arrows(host: Graph, g: Graph, h: Graph, pinned: dict) -> bool:
    """Does every coloring that extends `pinned` show a red g or a blue h?

    Copies come from all injective vertex maps, as edge-index masks; only the
    2^(m - |pinned|) completions of the pin set are enumerated.
    """
    index = {e: i for i, e in enumerate(host.edges)}

    def copies(pattern: Graph) -> set[int]:
        found = set()
        for perm in itertools.permutations(range(host.n), pattern.n):
            image = [tuple(sorted((perm[u], perm[v]))) for u, v in pattern.edges]
            if all(e in index for e in image):
                found.add(sum(1 << index[e] for e in set(image)))
        return found

    g_copies, h_copies = copies(g), copies(h)
    pins = {index[tuple(sorted(e))]: color for e, color in pinned.items()}
    pinned_red = sum(1 << i for i, color in pins.items() if color == RED)
    free = [i for i in range(host.m) if i not in pins]
    for bits in range(1 << len(free)):
        red = pinned_red | sum(1 << i for k, i in enumerate(free) if bits >> k & 1)
        if not any(c & red == c for c in g_copies) and not any(c & red == 0 for c in h_copies):
            return False
    return True


def brute_tree_profile(t: Graph) -> TreeProfile:
    """A tree's profile from the definitions, one vertex at a time.

    The diameter and center come from the eccentricity of every vertex, the
    longest-path neighbors from the depth of each branch at the center, and
    the woven shape from the internal vertices: one of them and at least two
    edges is a star; three, a-b-c, with deg a = deg c = s+1 and
    deg b - 2 <= s-1 is an s-suitable caterpillar.
    """

    def distances(src: int, removed: int | None = None) -> dict[int, int]:
        dist = {src: 0}
        frontier = [src]
        while frontier:
            reached = []
            for v in frontier:
                for w in t.neighbors(v):
                    if w != removed and w not in dist:
                        dist[w] = dist[v] + 1
                        reached.append(w)
            frontier = reached
        return dist

    ecc = [max(distances(v).values()) for v in range(t.n)]
    diam = max(ecc)
    centers = [v for v in range(t.n) if ecc[v] == min(ecc)]
    center = None
    on_path: tuple[int, ...] = ()
    if diam % 2 == 0:
        (center,) = centers
        on_path = tuple(
            y for y in t.neighbors(center)
            if 1 + max(distances(y, removed=center).values()) == diam // 2
        )
    degree = [t.degree(v) for v in range(t.n)]

    in_t = in_tprime = diam >= 3 and diam % 2 == 1
    if diam >= 4 and diam % 2 == 0 and (diam != 4 or degree[center] >= 3):
        in_t = all(degree[y] <= 2 for y in t.neighbors(center))
        in_tprime = sum(1 for y in on_path if degree[y] >= 3) <= 1

    internal = [v for v in range(t.n) if degree[v] >= 2]
    woven = None
    if len(internal) == 1 and t.m >= 2:
        woven = ("star", t.m, 1)
    elif len(internal) == 3:
        for b in internal:
            a, c = (v for v in internal if v != b)
            s = degree[a] - 1
            if t.has_edge(a, b) and t.has_edge(b, c) and degree[c] == s + 1 and degree[b] - 2 <= s - 1:
                woven = ("caterpillar", s, 2 * (s + 1) ** 2)
    return TreeProfile(diam, center, in_t, in_tprime, max(degree), on_path, woven)
