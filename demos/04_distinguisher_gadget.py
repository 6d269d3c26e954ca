"""The 27-vertex gadget that tells (P_4, K_3) apart from (P_4, K_3 + pendant).

A K_3 hub carries a depth-1 tree-of-cliques gadget at each vertex.  The
construction ships with a coloring that is free for the pendant pair, and the
pruned decider proves that no coloring is free for the plain pair.
"""

from ramseylab import (
    arrows,
    clique,
    clique_with_pendants,
    coloring_is_free,
    diameter_distinguisher,
    graph_to_graph6,
    path,
)

F, witness = diameter_distinguisher(path(4), t=3)
print(f"F: {F.n} vertices, {F.m} edges")
print("graph6:", graph_to_graph6(F))

pendant_pair = clique_with_pendants(3, 1, 2)
print(
    "shipped coloring free for (P_4, K_3 + pendant):",
    coloring_is_free(F, witness, path(4), pendant_pair),
)
print(f"red edges: {len(witness.red)}, blue edges: {len(witness.blue)}")

# The positive direction F -> (P_4, K_3): 2^45 colorings are out of
# exhaustive reach, but the pruned search settles it exactly.
verdict = arrows(F, path(4), clique(3))
print(f"F -> (P_4, K_3): {verdict.arrows} ({verdict.nodes_explored} nodes)")
