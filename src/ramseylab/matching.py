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

    def find_and_augment(root: int) -> bool:
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        q = deque([root])

        def lca(a: int, b: int) -> int:
            seen = [False] * n
            while True:
                a = base[a]
                seen[a] = True
                if match[a] == -1:
                    break
                a = parent[match[a]]
            while True:
                b = base[b]
                if seen[b]:
                    return b
                b = parent[match[b]]

        def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
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
                    # Edge closes an odd cycle: contract the blossom.
                    cur_base = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, cur_base, to, in_blossom)
                    mark_path(to, cur_base, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = cur_base
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif parent[to] == -1:
                    parent[to] = v
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
                    q.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            find_and_augment(v)
    return {v: match[v] for v in range(n) if match[v] != -1}
