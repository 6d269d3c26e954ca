"""Watch the alternating-walk recoloring kill blue triangles one at a time.

The input coloring must avoid red stars and blue triangles-with-a-pendant;
each flip of the greedy walk then keeps those guarantees while strictly
shrinking the number of blue triangles.
"""

from ramseylab import (
    BLUE,
    EdgeColoring,
    Graph,
    alternating_walk_step,
    clique,
    cliques_of_size,
    coloring_is_free,
    star,
)


def blue_cliques(c, t):
    return list(cliques_of_size(c.adjacency(BLUE), t))


# Two blue triangles bridged by a red path through a fresh vertex.
f = Graph(7, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6), (1, 3), (3, 4)])
c = EdgeColoring(
    f,
    red=[(1, 3), (3, 4)],
    blue=[(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6)],
)

s, t = 3, 3
step = 0
while blue_cliques(c, t):
    step += 1
    c, trace = alternating_walk_step(f, c, s, t)
    walk = ", ".join(f"{e}:{col}" for e, col in zip(trace.edges, trace.colors_before))
    print(f"step {step}: seed {trace.start_edge}, walk [{walk}]")
    print(f"  blue triangles left: {len(blue_cliques(c, t))}")

assert coloring_is_free(f, c, star(s), clique(t))
print("final coloring is free of red K_1,3 and blue K_3")
print("red edges:", sorted(c.red))
