"""One linear profile of a tree: diameter, center, gadget classes, woven shape.

The paper's trees fall into two camps.  The classes T and T' gate the
non-equivalence gadgets; membership is decided from the diameter, the central
vertex, and the degrees of its neighbors on longest paths.  Trees of diameter
below three are in neither class.  The woven trees (stars with at least two
edges and the suitable caterpillars) are the ones the recolorings prove
equivalent.  Both verdicts are read off one pass of three breadth-first
searches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class TreeProfile:
    diameter: int
    central_vertex: int | None  # present iff diameter is even
    in_T: bool
    in_Tprime: bool
    max_degree: int
    on_path: tuple[int, ...]  # the center's neighbors whose branch reaches the radius
    woven: tuple[str, int, int] | None  # (kind, s, k) for a star or suitable caterpillar


def _bfs(t: Graph, src: int) -> tuple[list[int], list[int], list[int]]:
    """Vertices in BFS order from src, their distances, and their BFS parents."""
    order = [src]
    dist = [-1] * t.n
    parent = [src] * t.n
    dist[src] = 0
    for v in order:  # the list grows behind the loop: it is the queue
        for w in t.neighbors(v):
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                parent[w] = v
                order.append(w)
    return order, dist, parent


def tree_classify(t: Graph) -> TreeProfile:
    """Profile a tree against the gadget classes and the woven family.

    A double-sweep BFS finds a longest path, whose middle is the center; one
    BFS from an even-diameter tree's center finds the neighbors on longest
    paths.  Odd diameter at least three puts a tree in both classes.  For even
    diameter the first class demands every neighbor of the central vertex have
    degree at most two, the second only that at most one longest-path
    neighbor have degree three or more; both demand central degree at least
    three when the diameter is exactly four.  A tree is woven as a star
    ("star", m, 1) at diameter two, or as an s-suitable caterpillar
    ("caterpillar", s, 2(s+1)^2) at diameter four when exactly two neighbors
    of the center lie on longest paths, both of degree s+1, and the center
    has at most s-1 leaves.
    """
    if not t.is_tree():
        raise ValueError(f"expected a tree, got n={t.n}, m={t.m}, connected={t.is_connected()}")
    degree = [t.degree(v) for v in range(t.n)]
    max_deg = max(degree)
    order, _, _ = _bfs(t, 0)
    order, dist, parent = _bfs(t, order[-1])
    diam = dist[order[-1]]
    if diam % 2 == 1:
        in_classes = diam >= 3
        return TreeProfile(diam, None, in_classes, in_classes, max_deg, (), None)
    center = order[-1]
    for _ in range(diam // 2):
        center = parent[center]

    order, dist, parent = _bfs(t, center)
    branch = list(range(t.n))  # the center's neighbor each vertex hangs from
    reaches = set()
    for v in order[1:]:
        if parent[v] != center:
            branch[v] = branch[parent[v]]
        if dist[v] == diam // 2:
            reaches.add(branch[v])
    on_path = tuple(y for y in t.neighbors(center) if y in reaches)
    if diam < 3:
        woven = ("star", t.m, 1) if diam == 2 else None
        return TreeProfile(diam, center, False, False, max_deg, on_path, woven)

    woven = None
    if diam == 4 and len(on_path) == 2:
        s = degree[on_path[0]] - 1
        if degree[on_path[1]] == s + 1 and degree[center] - 2 <= s - 1:
            woven = ("caterpillar", s, 2 * (s + 1) ** 2)
    diam4_ok = diam != 4 or degree[center] >= 3
    in_t = diam4_ok and all(degree[y] <= 2 for y in t.neighbors(center))
    in_tprime = diam4_ok and sum(1 for y in on_path if degree[y] >= 3) <= 1
    return TreeProfile(diam, center, in_t, in_tprime, max_deg, on_path, woven)
