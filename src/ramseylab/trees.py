"""Tree diameter/center analysis, the two tree classes, and greedy embedding.

The two classes of trees gate the non-equivalence gadgets: membership is
decided purely from the diameter, the central vertex, and the degrees of its
neighbors on longest paths.  Trees of diameter below three are in neither
class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Embedding, Graph


@dataclass(frozen=True)
class TreeProfile:
    diameter: int
    central_vertex: int | None  # present iff diameter is even
    in_T: bool
    in_Tprime: bool
    max_degree: int


def _require_tree(t: Graph) -> None:
    if not t.is_tree():
        raise ValueError(f"expected a tree, got n={t.n}, m={t.m}, connected={t.is_connected()}")


def _bfs_dist(g: Graph, src: int) -> list[int]:
    dist = [-1] * g.n
    dist[src] = 0
    q = deque([src])
    while q:
        v = q.popleft()
        for w in g.neighbors(v):
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def tree_diameter_and_center(t: Graph) -> tuple[int, int | None]:
    """Diameter of a tree and, for even diameter, its unique central vertex."""
    _require_tree(t)
    if t.n == 1:
        return 0, 0
    ecc = [max(_bfs_dist(t, v)) for v in range(t.n)]
    diam = max(ecc)
    if diam % 2 == 1:
        return diam, None
    centers = [v for v in range(t.n) if ecc[v] == diam // 2]
    # Even-diameter trees have exactly one vertex of minimum eccentricity.
    assert len(centers) == 1, centers
    return diam, centers[0]


def branch_depth(t: Graph, center: int, y: int) -> int:
    """Depth of the branch hanging from `center` through its neighbor `y`.

    Measured as the maximum distance from `center` to a vertex whose path to
    `center` starts with the edge center-y.
    """
    dist = _bfs_dist(t, center)
    comp = next(c for c in t.components(excluded=[center]) if y in c)
    return max(dist[v] for v in comp)


def longest_path_neighbors(t: Graph) -> tuple[int, list[int]]:
    """For an even-diameter tree: the center and its neighbors on longest paths.

    A neighbor lies on a longest path exactly when its branch reaches the full
    radius.
    """
    diam, center = tree_diameter_and_center(t)
    if center is None:
        raise ValueError("tree has odd diameter; no unique central vertex")
    r = diam // 2
    on_path = [y for y in t.neighbors(center) if branch_depth(t, center, y) == r]
    return center, on_path


def tree_classify(t: Graph) -> TreeProfile:
    """Classify a tree against both gadget-gating classes.

    Odd diameter at least three puts a tree in both classes.  For even
    diameter the first class demands every neighbor of the central vertex have
    degree at most two, the second only that at most one longest-path neighbor
    have degree three or more; both demand central degree at least three when
    the diameter is exactly four.
    """
    _require_tree(t)
    diam, center = tree_diameter_and_center(t)
    max_deg = max((t.degree(v) for v in range(t.n)), default=0)
    if diam < 3:
        return TreeProfile(diam, center, False, False, max_deg)
    if diam % 2 == 1:
        return TreeProfile(diam, None, True, True, max_deg)
    neighbors = list(t.neighbors(center))
    diam4_ok = diam != 4 or t.degree(center) >= 3
    in_t = diam4_ok and all(t.degree(y) <= 2 for y in neighbors)
    _, on_path = longest_path_neighbors(t)
    in_tprime = diam4_ok and sum(1 for y in on_path if t.degree(y) >= 3) <= 1
    return TreeProfile(diam, center, in_t, in_tprime, max_deg)


def greedy_min_degree_embed(host: Graph, t: Graph) -> Embedding | None:
    """Peel `host` to min degree >= |E(t)| and greedily embed the tree there.

    Returns None exactly when the peeling empties the host.  A tree with k
    edges always embeds greedily once minimum degree k is available.
    """
    _require_tree(t)
    k = t.m
    alive = set(range(host.n))
    # Iteratively delete vertices of degree < k.
    changed = True
    while changed and alive:
        changed = False
        for v in sorted(alive):
            deg = sum(1 for w in host.neighbors(v) if w in alive)
            if deg < k:
                alive.discard(v)
                changed = True
    if not alive:
        return None

    # BFS order of the tree from vertex 0: parents precede children.
    order = [0]
    parent = {0: None}
    q = deque([0])
    while q:
        v = q.popleft()
        for w in t.neighbors(v):
            if w not in parent:
                parent[w] = v
                order.append(w)
                q.append(w)

    image: dict[int, int] = {order[0]: min(alive)}
    used = {image[order[0]]}
    for v in order[1:]:
        anchor = image[parent[v]]
        pick = next(
            (w for w in sorted(host.neighbors(anchor)) if w in alive and w not in used),
            None,
        )
        # Min degree >= k guarantees a free neighbor while < k+1 vertices are placed.
        assert pick is not None
        image[v] = pick
        used.add(pick)
    return Embedding(t, host, tuple(image[v] for v in range(t.n)))
