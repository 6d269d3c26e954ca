import itertools
import random

import pytest

from ramseylab.arrowing import (
    ArrowingVerdict,
    arrows,
    coloring_is_free,
    equivalence_scan,
    exhaustive_arrows,
    minimal_ramsey_check,
    ramsey_number,
)
from ramseylab.enumeration import graphs_up_to_vertices, trees_up_to_vertices
from ramseylab.errors import BudgetExhaustedError, CapExceededError
from ramseylab.families import (
    clique,
    clique_with_pendants,
    cycle,
    diameter_distinguisher,
    path,
    star,
)
from ramseylab.graphs import BLUE, RED, EdgeColoring, Graph

from conftest import random_graph

K3 = clique(3)


def test_coloring_is_free_spec_examples():
    f = K3
    all_blue = EdgeColoring.monochromatic(f, BLUE)
    assert not coloring_is_free(f, all_blue, star(2), K3)
    one_red = all_blue.flipped([(0, 1)])
    assert coloring_is_free(f, one_red, star(2), K3)
    with pytest.raises(ValueError):
        coloring_is_free(clique(4), all_blue, star(2), K3)


def test_arrows_spec_examples():
    assert arrows(clique(5), path(3), K3).arrows
    verdict = arrows(clique(4), path(3), K3)
    assert not verdict.arrows
    assert coloring_is_free(clique(4), verdict.witness, path(3), K3)
    assert arrows(Graph(1), Graph(1), clique(4)).arrows
    assert arrows(cycle(5), star(2), star(2)).arrows
    assert not arrows(cycle(5), star(1), star(3)).arrows


def test_verdict_invariants():
    with pytest.raises(ValueError):
        ArrowingVerdict(True, EdgeColoring.monochromatic(K3, RED), 0, "pruned")
    with pytest.raises(ValueError):
        ArrowingVerdict(False, None, 0, "pruned")
    with pytest.raises(ValueError):
        ArrowingVerdict(True, None, 0, "sampled")
    with pytest.raises(ValueError):
        ArrowingVerdict(True, None, 0, "guessing")


def test_pruned_matches_exhaustive_small_hosts():
    pairs = [(star(2), K3), (path(4), K3), (K3, K3)]
    for host in graphs_up_to_vertices(5):
        for g, h in pairs:
            assert arrows(host, g, h).arrows == exhaustive_arrows(host, g, h).arrows


def test_pruned_matches_exhaustive_random_corpus():
    rng = random.Random(2718)
    pairs = [(star(2), K3), (path(4), K3), (K3, K3)]
    for _ in range(120):
        host = random_graph(rng, n_range=(3, 10), max_edges=16)
        g, h = pairs[rng.randrange(3)]
        v1 = arrows(host, g, h)
        v2 = exhaustive_arrows(host, g, h)
        assert v1.arrows == v2.arrows, (host.edges, g.edges, h.edges)
        if not v1.arrows:
            assert coloring_is_free(host, v1.witness, g, h)
            assert coloring_is_free(host, v2.witness, g, h)


def test_color_swap_symmetry():
    rng = random.Random(345)
    for _ in range(60):
        host = random_graph(rng, n_range=(3, 8), max_edges=12)
        g = [star(2), path(4), K3][rng.randrange(3)]
        h = [star(3), K3, path(3)][rng.randrange(3)]
        assert arrows(host, g, h).arrows == arrows(host, h, g).arrows


def test_subgraph_monotonicity():
    rng = random.Random(456)
    for _ in range(60):
        host = random_graph(rng, n_range=(3, 8), max_edges=10)
        g, h = star(2), K3
        if not arrows(host, g, h).arrows:
            continue
        missing = [e for e in itertools.combinations(range(host.n), 2) if e not in host.edge_set()]
        bigger = host.with_edges(rng.sample(missing, min(3, len(missing))))
        assert arrows(bigger, g, h).arrows


def test_ramsey_number_spec_examples():
    assert ramsey_number(path(3), K3, cap=10) == 5
    assert ramsey_number(path(4), K3, cap=10) == 7
    assert ramsey_number(star(1), star(3), cap=10) == 4
    assert ramsey_number(Graph(1), clique(5), cap=3) == 1
    with pytest.raises(CapExceededError):
        ramsey_number(K3, K3, cap=5)
    with pytest.raises(ValueError):
        ramsey_number(K3, K3, cap=0)


def test_chvatal_small_trees():
    for t in trees_up_to_vertices(4):
        assert ramsey_number(t, K3, cap=9) == 2 * (t.n - 1) + 1


def test_budget_exhaustion_is_loud():
    with pytest.raises(BudgetExhaustedError):
        arrows(clique(6), K3, K3, budget=3)


def test_pinned_search():
    # K_4 with one edge pinned red: still has free colorings for (P_3, K_3).
    assert not arrows(clique(4), path(3), K3, pinned={(0, 1): RED}).arrows
    # C_5 for (K_{1,1}, K_{1,3}): free colorings are all-blue only.
    assert arrows(cycle(5), star(1), star(3), pinned={(0, 1): RED}).arrows
    assert not arrows(cycle(5), star(1), star(3), pinned={(0, 1): BLUE}).arrows
    # A color other than RED or BLUE, a pinned non-edge, or an edge pinned to
    # both colors is rejected.
    with pytest.raises(ValueError, match="color"):
        arrows(clique(4), path(3), K3, pinned={(0, 1): "x"})
    with pytest.raises(ValueError, match="not an edge"):
        arrows(path(3), path(3), K3, pinned={(0, 2): RED})
    with pytest.raises(ValueError, match="both colors"):
        arrows(clique(4), path(3), K3, pinned={(0, 1): RED, (1, 0): BLUE})


def test_pinned_search_agrees_with_completion_oracle():
    from oracles import brute_pinned_arrows

    rng = random.Random(1207)
    pairs = [(star(2), K3), (path(4), K3), (K3, K3), (clique(2), star(2))]
    for _ in range(150):
        host = random_graph(rng, n_range=(3, 8), max_edges=12)
        g, h = pairs[rng.randrange(len(pairs))]
        chosen = rng.sample(host.edges, min(rng.randint(0, 3), host.m))
        pinned = {e: rng.choice((RED, BLUE)) for e in chosen}
        verdict = arrows(host, g, h, pinned=pinned)
        assert verdict.arrows == brute_pinned_arrows(host, g, h, pinned), (host.edges, pinned)
        if not verdict.arrows:
            assert all(verdict.witness.color(e) == c for e, c in pinned.items())
    # The unit clause of a red K2 forces (0, 1) blue, so pinning it red
    # leaves no completion before any branching.
    verdict = arrows(path(3), clique(2), K3, pinned={(0, 1): RED})
    assert verdict.arrows and verdict.nodes_explored == 0
    assert brute_pinned_arrows(path(3), clique(2), K3, {(0, 1): RED})


# Node counts and witnesses of canonically labelled instances.  Unit
# propagation to a fixpoint has a single outcome, so any change to the
# engine that keeps the branching order must reproduce them exactly.
ENGINE_PINS = [
    (
        lambda: (clique(10), path(5), clique(4), None),
        711,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (4, 7), (5, 6),
         (5, 7), (6, 7), (8, 9)],
    ),
    (
        lambda: (
            diameter_distinguisher(path(4), 3)[0], path(4), clique_with_pendants(3, 1, 2), None
        ),
        721,
        [(0, j) for j in range(3, 11)] + [(1, j) for j in range(11, 19)]
        + [(2, j) for j in range(19, 27)],
    ),
    (
        lambda: (clique(5), K3, K3, None),
        5,
        [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)],
    ),
    (
        lambda: (clique(8), K3, clique(4), {(0, 1): RED, (0, 2): BLUE, (1, 2): BLUE}),
        15,
        [(0, 1), (0, 3), (0, 4), (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (3, 6), (4, 7),
         (5, 7), (6, 7)],
    ),
    (lambda: (clique(6), K3, K3, {(0, 1): RED}), 9, None),
]


@pytest.mark.parametrize(
    "make, nodes, red",
    ENGINE_PINS,
    ids=["K10-P5-K4", "D27-P4-K3K2", "K5-K3-K3", "K8-K3-K4-pinned", "K6-K3-K3-pinned"],
)
def test_engine_node_counts_and_witnesses_are_pinned(make, nodes, red):
    f, g, h, pinned = make()
    verdict = arrows(f, g, h, pinned=pinned)
    assert verdict.nodes_explored == nodes
    if red is None:
        assert verdict.arrows
    else:
        assert not verdict.arrows and verdict.witness.red == frozenset(red)


def test_minimal_ramsey_spec_examples():
    assert minimal_ramsey_check(star(3), star(1), star(3))
    assert not minimal_ramsey_check(star(4), star(1), star(3))
    assert not minimal_ramsey_check(clique(4), path(3), K3)  # does not arrow at all
    # K_5 cross-checked against brute force over all single deletions.
    verdict = minimal_ramsey_check(clique(5), path(3), K3)
    edge_deletions = [
        exhaustive_arrows(clique(5).without_edge(e), path(3), K3).arrows
        for e in clique(5).edges
    ]
    vertex_deletions = [
        exhaustive_arrows(clique(5).without_vertex(v), path(3), K3).arrows
        for v in range(5)
    ]
    assert verdict == (not any(edge_deletions) and not any(vertex_deletions))
    assert verdict is False  # K_5 minus an edge still forces a blue triangle


def test_equivalence_scan_symbolic_filters():
    # Clique numbers differ: max(2,3)=3 vs max(2,4)=4, and both patterns of
    # the larger pair have an edge.
    res = equivalence_scan(star(2), K3, star(2), clique(4), max_vertices=4)
    assert res.kind == "symbolic-distinguisher" and "clique" in res.reason
    assert "Nešetřil–Rödl" in res.reason
    # Every graph with a vertex arrows all three pairs (a red K1 is always
    # there), so a clique mismatch alone proves nothing when the larger
    # pair has an edgeless pattern.
    for g1, h1 in ((clique(1), clique(5)), (clique(1), cycle(5))):
        res1 = equivalence_scan(g1, h1, clique(1), clique(2), max_vertices=4)
        assert res1.kind == "no-distinguisher-found" and res1.reason is None
    # Same max clique number: no symbolic filter applies, the search decides.
    res2 = equivalence_scan(K3, K3, path(3), K3, max_vertices=5)
    assert res2.kind == "distinguisher" and res2.distinguisher.n == 5
    assert not res2.verdict_first.arrows and res2.verdict_second.arrows


def test_equivalence_scan_finds_odd_regular_distinguisher():
    # The smallest 2-regular odd-order host is C_3 = K_3; C_5 is the same
    # family one size up.  Both arrow (K_{1,2}, K_{1,2}) and miss
    # (K_{1,1}, K_{1,3}).
    res = equivalence_scan(star(2), star(2), star(1), star(3), max_vertices=5)
    assert res.kind == "distinguisher"
    assert res.distinguisher == clique(3)
    assert res.verdict_first.arrows and not res.verdict_second.arrows
    assert arrows(cycle(5), star(2), star(2)).arrows
    assert not arrows(cycle(5), star(1), star(3)).arrows


def test_equivalence_scan_no_distinguisher():
    res = equivalence_scan(star(1), star(3), star(3), star(1), max_vertices=6)
    assert res.kind == "no-distinguisher-found"
    assert not res.skipped


def test_equivalence_scan_bound():
    for max_vertices in (0, 9):
        with pytest.raises(ValueError):
            equivalence_scan(K3, K3, K3, K3, max_vertices=max_vertices)


def test_star_pair_ramsey_numbers_match_closed_form():
    # R(K_{1,m}, K_{1,n}) = m + n - 1 when m and n are both even, else m + n.
    for m, n in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (2, 4), (3, 3)]:
        want = m + n - 1 if m % 2 == 0 and n % 2 == 0 else m + n
        assert ramsey_number(star(m), star(n), cap=10) == want, (m, n)


def test_exhaustive_oracle_triangulated_on_tiny_hosts():
    # Third route: per-coloring freeness via raw injection enumeration.
    from ramseylab.enumeration import graphs_up_to_vertices
    from oracles import injection_embeds_colored

    g, h = path(3), K3
    for host in graphs_up_to_vertices(4):
        free_found = False
        for bits in range(1 << host.m):
            red = {e for i, e in enumerate(host.edges) if bits >> i & 1}
            blue = set(host.edges) - red
            if not injection_embeds_colored(host, g, red) and not injection_embeds_colored(
                host, h, blue
            ):
                free_found = True
                break
        assert exhaustive_arrows(host, g, h).arrows == (not free_found)
        assert arrows(host, g, h).arrows == (not free_found)


def test_witness_determinism():
    a = arrows(clique(4), path(3), K3)
    b = arrows(clique(4), path(3), K3)
    assert a.witness == b.witness and a.nodes_explored == b.nodes_explored


def test_cycle_patterns_against_oracle():
    rng = random.Random(515)
    pairs = [(cycle(4), K3), (cycle(5), star(2)), (cycle(4), cycle(4))]
    for _ in range(60):
        host = random_graph(rng, n_range=(4, 9), max_edges=14)
        g, h = pairs[rng.randrange(3)]
        assert arrows(host, g, h).arrows == exhaustive_arrows(host, g, h).arrows


def test_classic_symmetric_ramsey_numbers():
    # Literature anchors exercising the color-swap shortcut.
    assert ramsey_number(K3, K3, cap=7) == 6
    assert ramsey_number(path(3), path(3), cap=5) == 3
    assert ramsey_number(path(4), path(4), cap=6) == 5
    assert ramsey_number(cycle(4), cycle(4), cap=7) == 6


def test_equivalence_scan_reports_skipped_on_budget():
    res = equivalence_scan(path(4), K3, path(4), K3, max_vertices=4, budget=1)
    assert res.kind == "no-distinguisher-found"
    assert len(res.skipped) > 0


def test_degenerate_pattern_corners():
    # Pattern larger than the host: no copies, so the all-red coloring is free.
    v = arrows(path(3), clique(4), clique(4))
    assert not v.arrows and v.witness.red == path(3).edge_set()
    # Edgeless patterns embed wherever there is room, whatever the colors.
    assert arrows(Graph(3), Graph(2), K3).arrows
    assert not arrows(Graph(1), Graph(2), Graph(2)).arrows
