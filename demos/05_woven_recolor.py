"""The woven-certificate pipeline on a blue K_6 with red pendant noise.

Stars are 1-woven: pinning an edge that lies in every copy leaves a 2-edge
hitting set.  The pipeline flips a matching inside each scattered blue clique
and then repairs the red stars this creates by flipping certificate sets back.
"""

import itertools

from ramseylab import (
    EdgeColoring,
    Graph,
    clique,
    coloring_is_free,
    path,
    star,
    woven_recolor,
    yuv_certificate,
)

print("== a woven certificate on a path ==")
cert = yuv_certificate(path(4), (1, 2), star(2))
print(f"host P_4, pinned edge (1,2), T = K_1,2: Y = {sorted(cert.Y)}, bound k = {cert.k}")

print()
print("== the pipeline ==")
base = list(itertools.combinations(range(6), 2))
pendants = [(0, 6), (2, 7), (4, 8)]
f = Graph(9, base + pendants)
phi1 = EdgeColoring(f, red=pendants, blue=base)

phi3, trace = woven_recolor(f, phi1, star(2), a=1, b=2, t=6)
print("blue cliques kept pairwise-scattered:", [tuple(k) for k in trace.family_B])
print("matching flipped blue->red:", list(trace.matching_M))
print("hitting sets flipped red->blue:", [sorted(y) for y in trace.Y_sets])
print("final red edges:", sorted(phi3.red))
assert coloring_is_free(f, phi3, star(2), clique(6))
print("final coloring is free of red K_1,2 and blue K_6")
