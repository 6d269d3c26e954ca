"""Hunting for pairs with different Ramsey graphs among all small hosts.

A max-clique-number mismatch refutes equivalence outright when both
patterns of the pair with the larger clique number have an edge (a Ramsey
graph of that pair then contains both patterns, while Nešetřil–Rödl give the
other pair a Ramsey graph of its own smaller clique number).  Otherwise every
host up to a vertex bound is decided for both pairs.  Finding nothing proves
nothing, but finding one graph settles it.
"""

from ramseylab import clique, clique_with_pendants, equivalence_scan, graph_to_graph6, star

print("== (K_1,2, K_1,2) vs (K_1,1, K_1,3) ==")
res = equivalence_scan(star(2), star(2), star(1), star(3), max_vertices=5)
print("kind:", res.kind)
print("distinguisher:", graph_to_graph6(res.distinguisher), res.distinguisher)
print(
    "first pair arrows:", res.verdict_first.arrows,
    "/ second pair arrows:", res.verdict_second.arrows,
)

print()
print("== symbolic filters ==")
res = equivalence_scan(star(2), clique(3), star(2), clique(4), max_vertices=4)
print(res.kind, "--", res.reason)

print()
print("== (K_1,2, K_3) vs (K_1,2, K_3 + pendant): no separation up to 6 vertices ==")
res = equivalence_scan(
    star(2), clique(3), star(2), clique_with_pendants(3, 1, 2), max_vertices=6
)
print("kind:", res.kind, "(scanned all 208 graphs; not a proof of equivalence)")
