"""Tree-versus-clique Ramsey numbers follow Chvátal's R(T, K_t) = (t-1)(|T|-1)+1.

ramsey_number starts each sweep at the block coloring of Chvátal & Harary:
t-1 blocks of |T|-1 vertices, red inside and blue between, a re-checked free
coloring of K_{(t-1)(|T|-1)}.  So only K_R is searched, and the pruned
decider proves that it arrows.  Searched on K_{R-1} for (T, K_3), the
decider also hands back a free coloring of its own.  One step up, K_13
arrows (P_5, K_4): ramsey_number splits it on the red degree of vertex 0 and
skips the degrees that R(P_5, K_3) = 9 already settles."""

from ramseylab import arrows, clique, coloring_is_free, path, ramsey_number
from ramseylab.enumeration import trees_up_to_vertices

K3 = clique(3)

for t in trees_up_to_vertices(5):
    r = ramsey_number(t, K3, cap=12)
    print(f"tree on {t.n} vertices {t.edges}: R = {r} (formula {2 * (t.n - 1) + 1})")
    assert r == 2 * (t.n - 1) + 1
    if r > 1:
        verdict = arrows(clique(r - 1), t, K3)
        assert not verdict.arrows
        reds = len(verdict.witness.red)
        print(f"  K_{r - 1} witness: {reds} red / {verdict.witness.host.m - reds} blue edges, "
              f"free: {coloring_is_free(clique(r - 1), verdict.witness, t, K3)}")

r = ramsey_number(path(5), clique(4), cap=13)
print(f"R(P5, K4) = {r} (formula {3 * (5 - 1) + 1})")
assert r == 3 * (5 - 1) + 1
