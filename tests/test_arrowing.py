import hashlib
import itertools
import random
import time
from collections import Counter

import pytest

import ramseylab.arrowing
from ramseylab.arrowing import (
    DEFAULT_BUDGET,
    ArrowingVerdict,
    _ArrowEngine,
    _block_coloring,
    _clique_arrows,
    _monotone_arrows,
    _ramsey_number,
    _verify_determiner,
    arrows,
    coloring_is_free,
    equivalence_scan,
    exhaustive_arrows,
    minimal_ramsey_check,
    ramsey_number,
    verify_determiner,
)
from ramseylab.enumeration import graphs_up_to_vertices, trees_up_to_vertices
from ramseylab.errors import BudgetExhaustedError, CapExceededError, GraphTooLargeError
from ramseylab.families import diameter_distinguisher
from ramseylab.graphs import (
    BLUE,
    RED,
    EdgeColoring,
    Graph,
    bits,
    clique,
    clique_with_pendants,
    cycle,
    path,
    star,
)
from ramseylab.subgraph import copy_through

from conftest import case_nodes, random_graph
from oracles import injection_embeds, injection_embeds_colored

K3 = clique(3)
K3_K2 = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])  # a triangle with one pendant edge


def test_coloring_is_free_spec_examples():
    f = K3
    all_blue = EdgeColoring(f, blue=f.edges)
    assert not coloring_is_free(f, all_blue, star(2), K3)
    one_red = all_blue.flipped([(0, 1)])
    assert coloring_is_free(f, one_red, star(2), K3)
    with pytest.raises(ValueError):
        coloring_is_free(clique(4), all_blue, star(2), K3)


def test_coloring_is_free_matches_injection_oracle():
    # Every 2-coloring of every graph on <= 5 vertices; the oracle tries all
    # injective vertex maps and shares no code with the mask search.
    patterns = [star(2), path(3), K3, K3_K2, Graph(3, [(0, 1)]), Graph(0)]
    for f in [Graph(0), *graphs_up_to_vertices(5)]:
        too_big = Graph(f.n + 1)  # more vertices than the host, so never a copy
        for bits in range(1 << f.m):
            red = [e for i, e in enumerate(f.edges) if bits >> i & 1]
            blue = [e for i, e in enumerate(f.edges) if not bits >> i & 1]
            c = EdgeColoring(f, red, blue)
            red_graph, blue_graph = Graph(f.n, red), Graph(f.n, blue)
            for p in patterns:
                in_red, in_blue = injection_embeds(red_graph, p), injection_embeds(blue_graph, p)
                assert coloring_is_free(f, c, p, too_big) == (not in_red), (f.edges, red, p)
                assert coloring_is_free(f, c, too_big, p) == (not in_blue), (f.edges, red, p)
                assert coloring_is_free(f, c, p, p) == (not in_red and not in_blue)


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
        ArrowingVerdict(True, EdgeColoring(K3, red=K3.edges), 0, "pruned")
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
        bigger = Graph(host.n, [*host.edges, *rng.sample(missing, min(3, len(missing)))])
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


def test_chvatal_p5_k4():
    # R(T, K_t) = (t-1)(|T|-1)+1 past the 24-edge oracle: K_13 has 78 edges.
    # Each level of the rho recursion searches only K_{(t-1)4+1}.
    assert _ramsey_number(path(5), clique(4), 13, DEFAULT_BUDGET) == (13, 121)


def _count_engine_hosts(monkeypatch) -> list[int]:
    """Patch `_ArrowEngine.__init__` to record the order of every host it builds on."""
    engine = ramseylab.arrowing._ArrowEngine
    built = []
    init = engine.__init__

    def counting_init(self, f, g, h):
        built.append(f.n)
        init(self, f, g, h)

    monkeypatch.setattr(engine, "__init__", counting_init)
    return built


def test_ramsey_number_searches_from_the_block_coloring_up(monkeypatch):
    # The block colorings refute K_3, K_6 and K_9 for (P4, K_t), t = 2, 3, 4,
    # so each level of the rho recursion builds one engine, on K_1 for
    # (P4, K1) and then on K_4, K_7 and K_10.
    built = _count_engine_hosts(monkeypatch)
    assert ramsey_number(path(4), clique(4), cap=10) == 10
    assert built == [1, 4, 7, 10]


def test_ramsey_number_cap_bounds_the_block_coloring(monkeypatch):
    # (P30, K30) has a block coloring of K_841; only K_5 of it is built, and
    # it refutes every K_n up to the cap without a search.
    built = _count_engine_hosts(monkeypatch)
    assert _block_coloring(path(30), clique(30), 5).host == clique(5)
    with pytest.raises(CapExceededError):
        ramsey_number(path(30), clique(30), cap=5)
    assert built == []


def test_ramsey_number_decides_only_the_cap_after_the_rho_sweep_fails(monkeypatch):
    # R(K3, K5) = 14, so the (K3, K5) sweep up to K_13 finds nothing: a free
    # coloring of K_13 for (K3, K5) has no blue K5, so none for (K3, K6)
    # either, and only K_14 is left to decide for (K3, K6).
    searched = []
    clique_arrows = ramseylab.arrowing._clique_arrows

    def recording(n, g, h, budget, rho):
        searched.append((n, h.n))
        return clique_arrows(n, g, h, budget, rho)

    monkeypatch.setattr(ramseylab.arrowing, "_clique_arrows", recording)
    with pytest.raises(CapExceededError):
        ramsey_number(K3, clique(6), cap=14)
    assert [n for n, t in searched if t == 6] == [14]
    assert [n for n, t in searched if t == 5] == [9, 10, 11, 12, 13]


def test_block_coloring_is_free_and_refutes_its_clique():
    # Every pair of patterns on <= 4 vertices, connected or not, edgeless
    # ones and the empty graph among them.
    patterns = [Graph(0), *graphs_up_to_vertices(4)]
    for g in patterns:
        for h in patterns:
            coloring = _block_coloring(g, h, 10)
            n = coloring.host.n
            assert coloring.host == Graph(n, itertools.combinations(range(n), 2))
            if n == 0:
                continue
            assert not injection_embeds_colored(coloring.host, g, coloring.red), (g, h)
            assert not injection_embeds_colored(coloring.host, h, coloring.blue), (g, h)
            # Only (4-vertex connected, K4) pairs reach K_9, past the oracle's
            # 24 edges; the injection check above covers them.
            if coloring.host.m <= 24:
                assert not exhaustive_arrows(coloring.host, g, h).arrows, (g, h)
    # For a tree against a clique the coloring is Chvátal's lower bound.
    for tree in trees_up_to_vertices(5):
        for t in range(1, 5):
            assert _block_coloring(tree, clique(t), 100).host.n == (t - 1) * (tree.n - 1)


def test_ramsey_number_budget_caps_the_cases_of_one_clique():
    # Budget 0 allows propagation only, which settles every K_n for (P3, K3).
    assert ramsey_number(path(3), K3, cap=6, budget=0) == 5
    # R(K3, K3): the block coloring (two blocks of two) refutes K_4, so K_5
    # is searched first.  The swap keeps d >= (n-1)/2 and rho = R(K3, K2) = 3
    # keeps d >= n-3.  K_5 searches d = 2 first, which needs one node.
    with pytest.raises(BudgetExhaustedError) as exc:
        ramsey_number(K3, K3, cap=6, budget=0)
    assert exc.value.nodes_explored == sum(case_nodes(5, K3, K3, [2, 3, 4])) == 1
    # R(C4, K3) = 7 with rho = R(C4, K2) = 4: K_7 searches d = 3..6, every
    # case arrows, and the budget caps their sum.  The block colorings refute
    # K_6 for (C4, K3) and K_3 for (C4, K2), so below K_7 only K_1 for
    # (C4, K1) and K_4 for (C4, K2), with rho = 1 keeping d = 3, are searched.
    spent = sum(case_nodes(7, cycle(4), K3, [3, 4, 5, 6]))
    below = [
        sum(case_nodes(1, cycle(4), clique(1), [0])),
        sum(case_nodes(4, cycle(4), clique(2), [3])),
    ]
    assert spent > max(below)
    assert ramsey_number(cycle(4), K3, cap=7, budget=spent) == 7
    with pytest.raises(BudgetExhaustedError) as exc:
        ramsey_number(cycle(4), K3, cap=7, budget=spent - 1)
    assert exc.value.nodes_explored == spent


def test_clique_split_matches_exhaustive_oracle():
    # Every pair of connected patterns on <= 4 vertices: K3 and K4 as h fire
    # the Greenwood-Gleason skip, and the pairs with g = h fire the swap.
    patterns = [p for p in graphs_up_to_vertices(4) if p.is_connected()]
    assert {clique(3), clique(4)} <= set(patterns)
    # truth[g, h][n - 1] is exhaustive_arrows on K_n; above the least arrowing
    # n it holds by monotonicity (K_n is a subgraph of K_{n+1}).
    truth = {}
    for g in patterns:
        for h in patterns:
            row = []
            for n in range(1, 8):
                row.append(bool(row and row[-1]) or exhaustive_arrows(clique(n), g, h).arrows)
            truth[g, h] = row
    least = {pair: row.index(True) + 1 if True in row else None for pair, row in truth.items()}
    for (g, h), row in truth.items():
        t = h.n
        rho = least[g, clique(t - 1)] if t >= 2 and h.m == t * (t - 1) // 2 else None
        for n in range(1, 8):
            assert _clique_arrows(n, g, h, DEFAULT_BUDGET, rho)[0] == row[n - 1], (n, g, h)
        if least[g, h] is None:
            with pytest.raises(CapExceededError):
                ramsey_number(g, h, cap=7)
        else:
            assert ramsey_number(g, h, cap=7) == least[g, h], (g, h)


def test_chvatal_small_trees():
    for t in trees_up_to_vertices(4):
        assert ramsey_number(t, K3, cap=9) == 2 * (t.n - 1) + 1


def test_budget_exhaustion_is_loud():
    with pytest.raises(BudgetExhaustedError):
        arrows(clique(6), K3, K3, budget=3)


def test_budget_is_nonnegative():
    with pytest.raises(ValueError):
        arrows(clique(3), path(2), path(2), budget=-1)
    with pytest.raises(ValueError):
        ramsey_number(path(3), K3, cap=5, budget=-3)
    # The block coloring of (P3, K3) reaches K_3, so cap 3 runs no search.
    with pytest.raises(ValueError):
        ramsey_number(path(3), K3, cap=3, budget=-1)
    # Budget 0 allows propagation only: single-edge copies decide K3 at once.
    verdict = arrows(clique(3), path(2), path(2), budget=0)
    assert verdict.arrows and verdict.nodes_explored == 0
    with pytest.raises(BudgetExhaustedError):
        arrows(clique(6), K3, K3, budget=0)


def test_exhaustive_oracle_refuses_oversized_instances():
    # K_8 has 28 edges, past the 2^24 coloring scan.
    with pytest.raises(GraphTooLargeError):
        exhaustive_arrows(clique(8), path(3), K3)
    # One edge, but 40*39*38*37*36 = 78,960,960 injections of a 5-vertex pattern.
    with pytest.raises(GraphTooLargeError):
        exhaustive_arrows(Graph(40, [(0, 1)]), Graph(5), Graph(5))


def test_exhaustive_oracle_verdicts_nodes_and_witnesses_are_pinned():
    # Every host to 6 vertices, the empty host and K7 under five pairs, then
    # the first 24 edges of K9 (the scan's largest size) under (P4, K3).
    pairs = [(star(2), K3), (path(4), K3), (K3, K3), (Graph(3, [(0, 1)]), path(3)), (clique(1), clique(2))]
    runs = [(host, g, h) for host in [*graphs_up_to_vertices(6), Graph(0), clique(7)] for g, h in pairs]
    runs.append((Graph(9, list(itertools.combinations(range(9), 2))[:24]), path(4), K3))
    rows = []
    for host, g, h in runs:
        verdict = exhaustive_arrows(host, g, h)
        red = sorted(verdict.witness.red) if verdict.witness else None
        rows.append((verdict.arrows, verdict.nodes_explored, red))
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "24cf3e7b1531534e43b5e7ad7d41a77e28e4ab51f88aacd612dc1f97e47db447"


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


def test_clause_order_does_not_change_the_search(monkeypatch):
    # The engine numbers copies in the order copies_as_edge_sets lists them.
    # Propagation reaches one fixpoint whatever that order, so reversing or
    # shuffling the list must leave every verdict, node count and witness.
    def run():
        outcomes = []
        for make, _, _ in ENGINE_PINS:
            f, g, h, pinned = make()
            verdict = arrows(f, g, h, pinned=pinned)
            outcomes.append((verdict.arrows, verdict.nodes_explored, verdict.witness))
        return outcomes, _ramsey_number(K3, clique(4), 9, DEFAULT_BUDGET)

    expected = run()
    assert expected[1][0] == 9
    listed = ramseylab.arrowing.copies_as_edge_sets
    rng = random.Random(1409)
    for reorder in (list.reverse, rng.shuffle):

        def reordered(host, pattern):
            copies = listed(host, pattern)
            reorder(copies)
            return copies

        monkeypatch.setattr(ramseylab.arrowing, "copies_as_edge_sets", reordered)
        assert run() == expected, reorder


def _p4_gadget():
    gadget = diameter_distinguisher(path(4), 3)[0]
    return gadget, gadget.edges[0], 3


DETERMINERS = [
    (_p4_gadget, 1398, (False, True, False, False)),
    (lambda: (clique(8), (0, 1), 4), 21, (True, False, True, False)),
    (lambda: (clique(10), (0, 1), 4), 1000, (False, True, False, False)),
]


@pytest.mark.parametrize("make, nodes, axioms", DETERMINERS, ids=["D27-P4-K3", "K8-P4-K4", "K10-P4-K4"])
def test_determiner_axioms_and_nodes_are_pinned(make, nodes, axioms):
    # (d, beta) against (P4, K_t); nodes are summed over the three searches.
    d, beta, t = make()
    results, explored = _verify_determiner(d, beta, path(4), t, DEFAULT_BUDGET)
    keys = ("free_coloring_exists", "beta_forced_red", "well_behaved", "beta_closure_is_clique")
    assert (tuple(results[k] for k in keys), explored) == (axioms, nodes)


def test_verify_determiner_builds_one_engine(monkeypatch):
    # The three pinned searches share the clause engine of d.
    built = _count_engine_hosts(monkeypatch)
    for make, _, _ in DETERMINERS:
        d, beta, t = make()
        built.clear()
        verify_determiner(d, beta, path(4), t)
        assert len(built) == 1


def test_counter_widths_match_exhaustive_oracle():
    # Clause sizes k = 1..6 give counter planes 1, 2 and 3 bits wide; the
    # isolated vertex of K3 + K1 is stripped before its copies are counted.
    from oracles import brute_pinned_arrows

    patterns = [
        clique(2),
        path(3),
        K3,
        path(4),
        star(3),
        cycle(4),
        Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
        clique(4),
        Graph(4, K3.edges),
    ]
    assert sorted({p.m for p in patterns}) == [1, 2, 3, 4, 5, 6]
    rng = random.Random(1414)
    for trial in range(400):
        # Every other host is dense, so that positive verdicts are common.
        n = rng.randint(2, 7)
        pool = list(itertools.combinations(range(n), 2))
        low = min(len(pool), 10) if trial % 2 else 0
        host = Graph(n, rng.sample(pool, rng.randint(low, min(16, len(pool)))))
        g, h = rng.choice(patterns), rng.choice(patterns)
        pinned = None
        if trial % 3 == 0 and 0 < host.m <= 11:
            pinned = {rng.choice(host.edges): rng.choice((RED, BLUE))}
            expected = brute_pinned_arrows(host, g, h, pinned)
        else:
            expected = exhaustive_arrows(host, g, h).arrows
        verdict = arrows(host, g, h, pinned=pinned)
        assert verdict.arrows == expected, (host.n, host.edges, g.edges, h.edges, pinned)
        if not verdict.arrows:
            assert coloring_is_free(host, verdict.witness, g, h)
            for e, c in (pinned or {}).items():
                assert verdict.witness.color(e) == c


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
    # Isolated vertices are the only vertex deletions not covered by an edge
    # deletion: K2+K1 needs its third vertex.
    k2_k1 = Graph(3, [(0, 1)])
    assert minimal_ramsey_check(k2_k1, k2_k1, k2_k1)
    assert not minimal_ramsey_check(Graph(4, [(0, 1)]), k2_k1, k2_k1)


def test_minimal_ramsey_deletes_only_isolated_vertices(monkeypatch):
    calls = []

    def counting(host, g, h, budget=DEFAULT_BUDGET):
        calls.append(host)
        return arrows(host, g, h, budget)

    monkeypatch.setattr(ramseylab.arrowing, "arrows", counting)
    assert minimal_ramsey_check(star(3), star(1), star(3))
    # f itself and its three edge deletions; f-v for a non-isolated v sits
    # inside f-e for an edge e at v.
    assert len(calls) == 4 and all(host.n == 4 for host in calls)


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


def test_equivalence_scan_returns_first_differing_host(monkeypatch):
    # The scan visits graphs_up_to_vertices in order and stops at the first
    # host whose verdicts differ.
    _, host, v1, v2 = _plain_scan(K3, K3, path(3), K3, 5)
    # The scan searches only the hosts and pairs it cannot infer, so its node
    # count is the sum over the `arrows` calls it actually makes.
    searched = 0

    def counting_arrows(*args, **kwargs):
        nonlocal searched
        verdict = arrows(*args, **kwargs)
        searched += verdict.nodes_explored
        return verdict

    monkeypatch.setattr(ramseylab.arrowing, "arrows", counting_arrows)
    res = equivalence_scan(K3, K3, path(3), K3, max_vertices=5)
    assert res.kind == "distinguisher" and res.distinguisher == host
    assert (res.verdict_first, res.verdict_second) == (v1, v2)
    assert res.nodes_explored == searched > 0


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
    for max_vertices in (0, 10):
        with pytest.raises(ValueError):
            equivalence_scan(K3, K3, K3, K3, max_vertices=max_vertices)
    # 9 is accepted; the clique-number filter settles this pair before any
    # host is enumerated.
    res = equivalence_scan(star(2), K3, star(2), clique(4), max_vertices=9)
    assert res.kind == "symbolic-distinguisher"


def test_deep_search_needs_no_recursion():
    # On a path host the DFS nests about one branch per two edges.
    for n, nodes in ((1000, 499), (2000, 999)):
        verdict = arrows(path(n), path(3), K3)
        assert not verdict.arrows and verdict.nodes_explored == nodes
        assert coloring_is_free(path(n), verdict.witness, path(3), K3)


def test_sparse_host_walks_its_few_unit_copies():
    # Each assignment on a long path leaves at most a few unit copies.  They are
    # walked one by one; scanning every uncolored edge for them instead costs a
    # pass over the host's edges per assignment: 14 s of CPU time against 0.25 s
    # on a 2-core machine.
    f = path(8000)
    start = time.process_time()
    verdict = arrows(f, path(3), K3)
    assert time.process_time() - start < 3.0
    assert not verdict.arrows and verdict.nodes_explored == 3999
    assert coloring_is_free(f, verdict.witness, path(3), K3)


def test_star_pair_ramsey_numbers_match_closed_form():
    # R(K_{1,m}, K_{1,n}) = m + n - 1 when m and n are both even, else m + n.
    for m, n in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (2, 4), (3, 3)]:
        want = m + n - 1 if m % 2 == 0 and n % 2 == 0 else m + n
        assert ramsey_number(star(m), star(n), cap=10) == want, (m, n)


def test_exhaustive_oracle_triangulated_on_tiny_hosts():
    # Third route: per-coloring freeness via raw injection enumeration.  Bit i
    # of the loop index set means host.edges[i] is red, the oracle's own
    # numbering, so its witness is the first free coloring the loop finds.
    pairs = [(path(3), K3), (K3, K3), (Graph(3, [(0, 1)]), path(3)), (clique(1), clique(2))]
    for host in graphs_up_to_vertices(4):
        for g, h in pairs:
            first_free = None
            for c in range(1 << host.m):
                red = {e for i, e in enumerate(host.edges) if c >> i & 1}
                blue = set(host.edges) - red
                if not injection_embeds_colored(host, g, red) and not injection_embeds_colored(
                    host, h, blue
                ):
                    first_free = EdgeColoring(host, red=red, blue=blue)
                    break
            verdict = exhaustive_arrows(host, g, h)
            assert (verdict.arrows, verdict.witness) == (first_free is None, first_free)
            assert arrows(host, g, h).arrows == (first_free is None)


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


def test_equivalence_scan_distinguisher_keeps_skipped_hosts():
    g1, h1, g2, h2 = path(3), K3, cycle(4), K3
    res = equivalence_scan(g1, h1, g2, h2, max_vertices=5, budget=5)
    assert res.kind == "distinguisher"
    hosts = graphs_up_to_vertices(5)
    [skipped] = res.skipped
    assert hosts.index(skipped) < hosts.index(res.distinguisher)
    exhausted = 0
    for g, h in ((g1, h1), (g2, h2)):
        try:
            arrows(skipped, g, h, budget=5)
        except BudgetExhaustedError:
            exhausted += 1
    assert exhausted
    # Inheriting from parents decides K4, the host this pair skips on a
    # budget of 4 when every host is searched; the distinguisher stays.
    assert equivalence_scan(K3, K3, path(3), K3, max_vertices=4, budget=4).skipped == []
    res = equivalence_scan(K3, K3, path(3), K3, max_vertices=5, budget=4)
    assert res.kind == "distinguisher" and res.distinguisher.n == 5


def _red_edges(red_adj: tuple[int, ...]) -> frozenset:
    """The edges of a witness held as red adjacency masks, which must be symmetric."""
    red = Graph(len(red_adj), ((u, w) for u, a in enumerate(red_adj) for w in bits(a)))
    assert red.adj == tuple(red_adj), red_adj
    return red.edge_set()


@pytest.mark.parametrize(
    "g, h",
    [
        (star(2), K3),
        (path(4), clique_with_pendants(3, 1, 2)),
        (K3, K3),
        (star(1), star(3)),
        (path(3), K3),
        (cycle(4), K3),
    ],
)
def test_monotone_verdicts_match_search(g, h, monkeypatch):
    searches = []
    monkeypatch.setattr(
        ramseylab.arrowing, "arrows", lambda *args: searches.append(args) or arrows(*args)
    )
    known = {}
    hosts = graphs_up_to_vertices(6)
    for host in hosts:
        red_adj, _ = _monotone_arrows(host, g, h, DEFAULT_BUDGET, known)
        known[host.adj] = red_adj
        assert (red_adj is None) == arrows(host, g, h).arrows, host.edges
        if red_adj is not None:
            red = _red_edges(red_adj)
            assert coloring_is_free(host, EdgeColoring(host, red, host.edge_set() - red), g, h)
    assert len(searches) < len(hosts)


@pytest.mark.parametrize(
    "g, h",
    [
        (star(2), K3),
        (path(4), clique_with_pendants(3, 1, 2)),
        (K3, K3),
        (star(1), star(3)),
        (path(3), K3),
        (cycle(4), K3),
        (Graph(3, [(0, 1)]), K3),  # an isolated pattern vertex may land on v
        (path(3), path(6)),  # as many vertices as the largest hosts
    ],
)
def test_copies_through_new_vertex_decide_extensions(g, h):
    # The parent's witness is free, so an extension to the new vertex v is
    # free iff no red g and no blue h has v among its vertices.  Every
    # extension is checked, a superset of those the scan tries.
    known = {}
    for host in graphs_up_to_vertices(6):
        v = host.n - 1
        parent_red = known.get(tuple(a & ~(1 << v) for a in host.adj[:v]))
        if parent_red is not None:
            red = _red_edges(parent_red)
            new = [(w, v) for w in host.neighbors(v)]
            for k in range(len(new) + 1):
                for extra in itertools.combinations(new, k):
                    ext = red.union(extra)
                    coloring = EdgeColoring(host, ext, host.edge_set() - ext)
                    red_adj = coloring.adjacency(RED)
                    blue_adj = coloring.adjacency(BLUE)
                    through = copy_through(red_adj, g, v) or copy_through(blue_adj, h, v)
                    assert through != coloring_is_free(host, coloring, g, h), (host.edges, extra)
        known[host.adj], _ = _monotone_arrows(host, g, h, DEFAULT_BUDGET, known)


def test_scan_builds_colorings_only_in_searches(monkeypatch):
    # Extensions are checked on adjacency masks; only `arrows` builds a
    # coloring, for its witness.
    counts = Counter()
    init = EdgeColoring.__init__

    def counting_init(self, *args, **kwargs):
        counts["colorings"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(EdgeColoring, "__init__", counting_init)
    monkeypatch.setattr(
        ramseylab.arrowing, "arrows", lambda *args: counts.update(["arrows"]) or arrows(*args)
    )
    res = equivalence_scan(star(2), K3, star(2), K3_K2, max_vertices=6)
    assert res.kind == "no-distinguisher-found"
    assert 0 < counts["colorings"] <= counts["arrows"], counts


def test_scan_finds_parents_without_building_graphs(monkeypatch):
    # A host's parent is looked up by its masks with the last vertex cleared,
    # so the scan builds no graph per host for it.
    calls = []
    without_vertex = Graph.without_vertex
    monkeypatch.setattr(
        Graph, "without_vertex", lambda self, v: calls.append(v) or without_vertex(self, v)
    )
    res = equivalence_scan(star(2), K3, star(2), K3_K2, max_vertices=6)
    assert res.kind == "no-distinguisher-found"
    assert calls == []


def _searched_nodes(monkeypatch) -> list[int]:
    """Patch `arrows` as the scan calls it; the list gets each call's nodes."""
    nodes = []

    def counting_arrows(*args):
        verdict = arrows(*args)
        nodes.append(verdict.nodes_explored)
        return verdict

    monkeypatch.setattr(ramseylab.arrowing, "arrows", counting_arrows)
    return nodes


@pytest.mark.parametrize("g, nodes", [(star(2), 199), (path(4), 676)])
def test_benchmark_scans_keep_their_results(g, nodes, monkeypatch):
    # K3 embeds in K3·K2, so the scan searches (g, K3·K2) only on hosts where
    # (g, K3) arrows.  The count is the sum over the `arrows` calls made.
    searched = _searched_nodes(monkeypatch)
    res = equivalence_scan(g, K3, g, K3_K2, max_vertices=7)
    assert (res.kind, res.nodes_explored, res.skipped) == ("no-distinguisher-found", nodes, [])
    assert sum(searched) == nodes


def test_non_nested_scan_keeps_its_node_count(monkeypatch):
    # K1,2 embeds in K1,3 but not the other way, so neither pair is the
    # smaller one and both are decided on every host.
    searched = _searched_nodes(monkeypatch)
    res = equivalence_scan(star(2), star(3), star(3), star(2), max_vertices=6)
    assert (res.kind, res.nodes_explored, res.skipped) == ("no-distinguisher-found", 133, [])
    assert sum(searched) == 133


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("g", [star(2), path(4)])
def test_nested_scan_takes_over_free_witnesses(g, swap, monkeypatch):
    # Every result the larger pair (g, K3·K2) holds for a host it was not
    # decided on itself is a free coloring taken from (g, K3), and must be
    # free for the larger pair too.
    held, decided, hosts = {}, set(), {}

    def spy(host, g, h, budget, known):
        hosts[host.adj] = host
        if h == K3_K2:
            held[id(known)] = known
            decided.add(host.adj)
        return _monotone_arrows(host, g, h, budget, known)

    monkeypatch.setattr(ramseylab.arrowing, "_monotone_arrows", spy)
    pairs = [(g, K3), (g, K3_K2)]
    # A level's results are seen once a host one level up needs a search.
    res = equivalence_scan(*pairs[swap], *pairs[not swap], max_vertices=7)
    assert res.kind == "no-distinguisher-found"
    taken = [
        (hosts[adj], red) for known in held.values() for adj, red in known.items() if adj not in decided
    ]
    assert taken
    for host, red_adj in taken:
        red = _red_edges(red_adj)
        witness = EdgeColoring(host, red, host.edge_set() - red)
        assert coloring_is_free(host, witness, g, K3_K2), host.edges


def _plain_scan(g1, h1, g2, h2, max_vertices):
    for host in graphs_up_to_vertices(max_vertices):
        v1, v2 = arrows(host, g1, h1), arrows(host, g2, h2)
        if v1.arrows != v2.arrows:
            return "distinguisher", host, v1, v2
    return "no-distinguisher-found", None, None, None


@pytest.mark.parametrize(
    "pairs, max_vertices",
    [
        ((K3, K3, path(3), K3), 5),
        ((star(2), star(2), star(1), star(3)), 5),
        ((star(1), star(3), star(3), star(1)), 6),
        ((path(4), K3, path(4), K3), 4),
        ((clique(1), clique(5), clique(1), clique(2)), 4),
        ((clique(1), cycle(5), clique(1), clique(2)), 4),
        # Nested pairs, the smaller one given first or second.
        ((path(4), K3, path(4), K3_K2), 6),
        ((path(4), K3_K2, path(4), K3), 6),
        ((star(2), K3, star(2), K3_K2), 6),
        ((star(2), K3_K2, star(2), K3), 6),
    ],
)
def test_equivalence_scan_matches_plain_search(pairs, max_vertices):
    res = equivalence_scan(*pairs, max_vertices=max_vertices)
    plain = _plain_scan(*pairs, max_vertices)
    assert (res.kind, res.distinguisher, res.verdict_first, res.verdict_second) == plain


def test_degenerate_pattern_corners():
    # Pattern larger than the host: no copies, so the all-red coloring is free.
    v = arrows(path(3), clique(4), clique(4))
    assert not v.arrows and v.witness.red == path(3).edge_set()
    # Edgeless patterns embed wherever there is room, whatever the colors.
    assert arrows(Graph(3), Graph(2), K3).arrows
    assert not arrows(Graph(1), Graph(2), Graph(2)).arrows


def test_engine_incidence_rows_transpose_the_copies():
    # inc[side][e] has bit i set iff copy i of that side uses edge e: across
    # chunk boundaries (K9 holds 504 copies of K1,3), on a sparse host where
    # most edges miss most chunks, and with no copies at all.
    for f, g, h, count in [
        (clique(9), star(3), clique(3), 504),
        (path(700), path(3), clique(3), 698),
        (cycle(5), clique(3), path(4), 0),
    ]:
        engine = _ArrowEngine(f, g, h)
        assert len(engine.copy_edges[0]) == count
        for inc, copies in zip(engine.inc, engine.copy_edges):
            assert len(inc) == f.m
            for e, row in enumerate(inc):
                assert row == sum(1 << i for i, mask in enumerate(copies) if mask >> e & 1), (f, e)
