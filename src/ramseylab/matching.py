"""Maximum cardinality matching in general graphs (blossom contraction).

Classic O(V^3) augmenting-path search: grow an alternating BFS forest from
each exposed vertex, contract odd cycles onto their base, and invert the
matching along any augmenting path found.
"""

from __future__ import annotations

from collections import deque

from .graphs import Graph


def maximum_matching(g: Graph) -> dict[int, int]:
    """Return a maximum matching as a symmetric vertex->partner dict."""
    n = g.n
    match = [-1] * n

    # Greedy warm start cuts the number of augmentation phases.
    for u, v in g.edges:
        if match[u] == -1 and match[v] == -1:
            match[u] = v
            match[v] = u

    # Per-search state, allocated once.  Each search first restores what the
    # one before it changed, so it costs the part of the graph it reaches,
    # not n.  `touched` lists the forest's vertices: the only ones whose
    # used, parent, base or in_blossom entries a search sets.
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))
    seen = [False] * n
    in_blossom = [False] * n
    touched: list[int] = []

    def find_and_augment(root: int) -> bool:
        for i in touched:
            used[i] = False
            parent[i] = -1
            base[i] = i
        touched[:] = [root]
        used[root] = True
        q = deque([root])

        def lca(a: int, b: int) -> int:
            path = []
            while True:
                a = base[a]
                seen[a] = True
                path.append(a)
                if match[a] == -1:
                    break
                a = parent[match[a]]
            while True:
                b = base[b]
                if seen[b]:
                    break
                b = parent[match[b]]
            for a in path:
                seen[a] = False
            return b

        def mark_path(v: int, b: int, child: int) -> None:
            while base[v] != b:
                in_blossom[base[v]] = True
                in_blossom[base[match[v]]] = True
                parent[v] = child
                child = match[v]
                v = parent[match[v]]

        while q:
            v = q.popleft()
            for to in g.neighbors(v):
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # Edge closes an odd cycle: contract the blossom.  Its
                    # vertices are in the forest; relabelling them in
                    # ascending order keeps the BFS order of a full scan.
                    cur_base = lca(v, to)
                    mark_path(v, cur_base, to)
                    mark_path(to, cur_base, v)
                    touched.sort()
                    for i in touched:
                        if in_blossom[base[i]]:
                            base[i] = cur_base
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                    for i in touched:
                        in_blossom[i] = False
                elif parent[to] == -1:
                    parent[to] = v
                    touched.append(to)
                    if match[to] == -1:
                        # Augment: flip matched/unmatched along the path to the root.
                        while to != -1:
                            prev = parent[to]
                            nxt = match[prev]
                            match[prev] = to
                            match[to] = prev
                            to = nxt
                        return True
                    used[match[to]] = True
                    touched.append(match[to])
                    q.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_and_augment(v)
    return {v: match[v] for v in range(n) if match[v] != -1}
