import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylab import subgraph
from ramseylab.arrowing import _ArrowEngine
from ramseylab.graphs import (
    BLUE,
    RED,
    EdgeColoring,
    Graph,
    bits,
    clique,
    clique_with_pendants,
    cycle,
    edge,
    path,
    star,
)
from ramseylab.subgraph import (
    _orbit_breaks,
    _plan,
    _walk,
    clique_number,
    cliques_of_size,
    contains_copy,
    copies_as_edge_sets,
    copy_through,
)

from conftest import random_graph
from oracles import (
    brute_clique_number,
    brute_copy_edge_sets,
    injection_embeds,
    injection_embeds_colored,
)


def _maps(host, pattern, pins=None):
    """Every map of `pattern` into `host`, in the order the walker yields them."""
    pins = pins or {}
    plan = _plan(pattern, tuple(pins), ())
    return [tuple(image) for image in _walk(host.adj, plan, tuple(pins.values()))]


def _brute_cliques(adj, k):
    """The k-subsets of vertices that are pairwise adjacent, in lexicographic order."""
    return [
        s
        for s in itertools.combinations(range(len(adj)), k)
        if all(adj[u] >> v & 1 for u, v in itertools.combinations(s, 2))
    ]


def test_contains_copy_spec_examples():
    assert contains_copy(clique(4).adj, clique(3))
    assert not contains_copy(cycle(5).adj, star(3))
    assert contains_copy(clique_with_pendants(6, 2, 3).adj, clique(6))


def test_empty_and_degenerate_patterns():
    assert contains_copy(clique(3).adj, Graph(0))
    assert contains_copy(clique(3).adj, Graph(1))
    assert not contains_copy(Graph(0).adj, Graph(1))  # no room for a vertex
    assert not contains_copy(path(2).adj, path(3))


def test_isolated_pattern_vertices_need_capacity():
    pattern = Graph(3, [(0, 1)])  # one isolated vertex
    assert not contains_copy(path(2).adj, pattern)
    assert contains_copy(path(3).adj, pattern)


def test_color_restricted_search():
    # A red copy is a copy in the red spanning subgraph.
    c = EdgeColoring(clique(3), red=[(0, 1)], blue=[(0, 2), (1, 2)])
    red = c.adjacency(RED)
    assert contains_copy(red, path(2))
    assert copies_as_edge_sets(red, path(2)) == [0b1]  # the one red edge, (0, 1)
    assert not contains_copy(red, path(3))
    assert contains_copy(c.adjacency(BLUE), path(3))


def test_pins():
    g = path(4)
    assert not contains_copy(g.adj, path(3), pins={1: 0})  # 0 is an endpoint
    assert contains_copy(g.adj, path(3), pins={1: 1})
    assert contains_copy(g.adj, path(3), pins={0: 0, 2: 2})
    assert not contains_copy(g.adj, path(3), pins={0: 1, 2: 1})  # one target twice
    with pytest.raises(ValueError, match="out of range"):
        contains_copy(g.adj, path(3), pins={0: 4})


def test_oracle_equivalence_random_corpus():
    rng = random.Random(99)
    paint = random.Random(98)  # its own stream, so the host corpus stays as it was
    patterns = [path(2), path(3), path(4), path(6), star(3), clique(3), clique(4), cycle(4), cycle(5), cycle(6)]
    for _ in range(300):
        host = random_graph(rng, n_range=(2, 9), max_edges=14)
        pattern = patterns[rng.randrange(len(patterns))]
        # The walker checks nothing it yields, so every map is checked here.
        maps = _maps(host, pattern)
        for image in maps:
            assert len(image) == pattern.n and len(set(image)) == pattern.n
            assert all(host.has_edge(image[u], image[v]) for u, v in pattern.edges)
        assert len(set(maps)) == len(maps)
        assert bool(maps) == injection_embeds(host, pattern)
        assert contains_copy(host.adj, pattern) == bool(maps)
        # A color's copies are the copies in its adjacency masks.
        red = [e for e in host.edges if paint.random() < 0.5]
        c = EdgeColoring(host, red, host.edge_set().difference(red))
        for color, edges in ((RED, c.red), (BLUE, c.blue)):
            want = injection_embeds_colored(host, pattern, edges)
            assert contains_copy(c.adjacency(color), pattern) == want
        blue = c.adjacency(BLUE)
        for k in range(5):
            assert list(cliques_of_size(blue, k)) == _brute_cliques(blue, k), (host.edges, k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oracle_equivalence_hypothesis(data):
    n = data.draw(st.integers(2, 7))
    pool = list(itertools.combinations(range(n), 2))
    host = Graph(n, data.draw(st.sets(st.sampled_from(pool), max_size=12)))
    pn = data.draw(st.integers(1, min(5, n)))
    ppool = list(itertools.combinations(range(pn), 2))
    pattern = Graph(pn, data.draw(st.sets(st.sampled_from(ppool), max_size=6)) if ppool else set())
    assert contains_copy(host.adj, pattern) == injection_embeds(host, pattern)


def test_monotonicity_under_host_growth():
    rng = random.Random(41)
    for _ in range(100):
        host = random_graph(rng, n_range=(3, 8), max_edges=10)
        pattern = random_graph(rng, n_range=(2, 4), max_edges=4)
        if not contains_copy(host.adj, pattern):
            continue
        missing = [e for e in itertools.combinations(range(host.n), 2) if e not in host.edge_set()]
        bigger = Graph(host.n, [*host.edges, *rng.sample(missing, min(2, len(missing)))])
        assert contains_copy(bigger.adj, pattern)


HOST6 = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)])
CATERPILLAR = Graph(6, [(0, 1), (1, 2), (0, 3), (1, 4), (2, 5)])  # spine 0-1-2, one leaf each

# (host, pattern, pins) -> every embedding's map, in the order the search
# yields them.  Copy lists, witnesses and node counts all follow this order.
PINNED_ORDERS = [
    (cycle(6), path(4), None, [
        (5, 0, 1, 2), (1, 0, 5, 4), (2, 1, 0, 5), (0, 1, 2, 3), (3, 2, 1, 0), (1, 2, 3, 4),
        (4, 3, 2, 1), (2, 3, 4, 5), (5, 4, 3, 2), (3, 4, 5, 0), (4, 5, 0, 1), (0, 5, 4, 3),
    ]),
    (HOST6, star(3), None, [
        (0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1),
        (1, 0, 2, 4), (1, 0, 4, 2), (1, 2, 0, 4), (1, 2, 4, 0), (1, 4, 0, 2), (1, 4, 2, 0),
        (2, 0, 1, 5), (2, 0, 5, 1), (2, 1, 0, 5), (2, 1, 5, 0), (2, 5, 0, 1), (2, 5, 1, 0),
        (4, 1, 3, 5), (4, 1, 5, 3), (4, 3, 1, 5), (4, 3, 5, 1), (4, 5, 1, 3), (4, 5, 3, 1),
    ]),
    (HOST6, clique_with_pendants(3, 1, 2), None, [
        (0, 1, 2, 3), (0, 2, 1, 3), (1, 0, 2, 4), (1, 2, 0, 4), (2, 0, 1, 5), (2, 1, 0, 5),
    ]),
    (cycle(5), Graph(4, [(1, 2), (2, 3)]), None, [  # vertex 0 is isolated
        (2, 1, 0, 4), (3, 1, 0, 4), (2, 4, 0, 1), (3, 4, 0, 1), (3, 0, 1, 2), (4, 0, 1, 2),
        (3, 2, 1, 0), (4, 2, 1, 0), (0, 1, 2, 3), (4, 1, 2, 3), (0, 3, 2, 1), (4, 3, 2, 1),
        (0, 2, 3, 4), (1, 2, 3, 4), (0, 4, 3, 2), (1, 4, 3, 2), (1, 0, 4, 3), (2, 0, 4, 3),
        (1, 3, 4, 0), (2, 3, 4, 0),
    ]),

]
# The caterpillar in the Petersen graph with leaf 3 pinned to vertex 0.
CATERPILLAR_ORDER = [
    (1, 2, 3, 0, 7, 4), (1, 2, 3, 0, 7, 8), (1, 2, 7, 0, 3, 5), (1, 2, 7, 0, 3, 9),
    (1, 6, 8, 0, 9, 3), (1, 6, 8, 0, 9, 5), (1, 6, 9, 0, 8, 4), (1, 6, 9, 0, 8, 7),
    (4, 3, 2, 0, 8, 1), (4, 3, 2, 0, 8, 7), (4, 3, 8, 0, 2, 5), (4, 3, 8, 0, 2, 6),
    (4, 9, 6, 0, 7, 1), (4, 9, 6, 0, 7, 8), (4, 9, 7, 0, 6, 2), (4, 9, 7, 0, 6, 5),
    (5, 7, 2, 0, 9, 1), (5, 7, 2, 0, 9, 3), (5, 7, 9, 0, 2, 4), (5, 7, 9, 0, 2, 6),
    (5, 8, 3, 0, 6, 2), (5, 8, 3, 0, 6, 4), (5, 8, 6, 0, 3, 1), (5, 8, 6, 0, 3, 9),
]


def test_embedding_order_is_pinned(petersen):
    cases = PINNED_ORDERS + [(petersen, CATERPILLAR, {3: 0}, CATERPILLAR_ORDER)]
    for host, pattern, pins, maps in cases:
        assert _maps(host, pattern, pins) == maps
        # A distinct but equal pattern value walks the same search.
        rebuilt = Graph(pattern.n, list(pattern.edges))
        assert rebuilt is not pattern
        assert _maps(host, rebuilt, pins) == maps


def test_embeddings_enumeration_counts():
    # labeled triangles in K_4: 4 triangles, 6 automorphic images each
    assert len(_maps(clique(4), clique(3))) == 24
    assert len(copies_as_edge_sets(clique(4).adj, clique(3))) == 4
    assert len(copies_as_edge_sets(clique(5).adj, path(3))) == 30


def assert_copies_are(host, pattern, edge_sets):
    """copies_as_edge_sets lists exactly `edge_sets`, once each, as masks over
    host.edges, ordered by lowest set bit."""
    copies = copies_as_edge_sets(host.adj, pattern)
    index = {e: i for i, e in enumerate(host.edges)}
    expected = {sum(1 << index[e] for e in s) for s in edge_sets}
    assert len(expected) == len(set(edge_sets))
    assert len(copies) == len(set(copies))
    assert set(copies) == expected
    lows = [(c & -c).bit_length() for c in copies]
    assert lows == sorted(lows)


def test_clique_copies_match_embedding_images():
    # A complete pattern has the most symmetry to break: its copies must be
    # the distinct edge images of its embeddings.
    rng = random.Random(61)
    for _ in range(60):
        host = random_graph(rng, n_range=(1, 12), max_edges=40)
        for k in range(7):
            pattern = clique(k) if k else Graph(0)
            maps = _maps(host, pattern)
            images = {frozenset(edge(m[u], m[v]) for u, v in pattern.edges) for m in maps}
            assert_copies_are(host, pattern, images)
    # In K_n every k-subset is a copy; checking that is cheaper than listing
    # the n!/(n-k)! embeddings (665,280 for K6 in K12).
    for n in range(1, 13):
        for k in range(7):
            pattern = clique(k) if k else Graph(0)
            subsets = {frozenset(itertools.combinations(c, 2)) for c in itertools.combinations(range(n), k)}
            assert_copies_are(clique(n), pattern, subsets)


def test_p5_copies_in_k11_at_scale():
    # The engine's largest decide-refute host: every P5 of K11 once, each mask
    # decoding through host.edges to the edges of one path a-b-c-d-e.
    host = clique(11)
    copies = copies_as_edge_sets(host.adj, path(5))
    assert len(copies) == len(set(copies)) == 27_720
    assert all(c.bit_count() == 4 for c in copies)
    decoded = {frozenset(host.edges[i] for i in bits(c)) for c in copies}
    paths = {
        frozenset(edge(*pair) for pair in zip(walk, walk[1:]))
        for walk in itertools.permutations(range(11), 5)
        if walk[0] < walk[-1]
    }
    assert decoded == paths
    lows = [(c & -c).bit_length() for c in copies]
    assert lows == sorted(lows)
    assert _ArrowEngine(host, path(5), clique(4)).copy_edges[0] == copies


def test_copies_match_brute_oracle():
    # Every graph on at most 5 vertices (K0, K1 and patterns with isolated
    # vertices among them), on seeded hosts and on hosts too small for it.
    patterns = [Graph(a.number_of_nodes(), a.edges()) for a in nx.graph_atlas_g()[:53]]
    assert [p.n for p in patterns].count(5) == 34
    rng = random.Random(83)
    hosts = [Graph(0), Graph(1), path(2), clique(3), cycle(4)]
    hosts += [random_graph(rng, n_range=(1, 8), max_edges=20) for _ in range(40)]
    for host in hosts:
        for pattern in patterns:
            assert_copies_are(host, pattern, brute_copy_edge_sets(host, pattern))


def test_copy_through_reaches_every_vertex_of_every_copy():
    # One walk per vertex orbit of the pattern: P3's middle and K3+K1's
    # isolated vertex are orbits of their own.  A plan is skipped when its
    # pinned vertex has more neighbours than v, so hosts with degree-0
    # vertices and patterns with isolated ones matter here.
    rng = random.Random(31)
    patterns = [
        Graph(0),
        Graph(2),
        Graph(3, [(0, 1)]),
        Graph(4, [(0, 1)]),
        Graph(4, [(0, 1), (0, 2)]),
        path(3),
        star(3),
        cycle(4),
        clique(3),
        clique_with_pendants(3, 1, 2),
        Graph(4, [(0, 1), (1, 2), (0, 2)]),
    ]
    hosts = [Graph(2), Graph(3, [(0, 1)]), path(3), clique(4), Graph(5, [(0, 1), (0, 2), (1, 2)])]
    hosts += [random_graph(rng, n_range=(2, 7), max_edges=14) for _ in range(30)]
    for host in hosts:
        for pattern in patterns:
            covered = set()
            for perm in itertools.permutations(range(host.n), pattern.n):
                if all(host.has_edge(perm[a], perm[b]) for a, b in pattern.edges):
                    covered.update(perm)
            found = {v for v in range(host.n) if copy_through(host.adj, pattern, v)}
            assert found == covered, (host.edges, pattern.edges)


def _walk_count(host, pattern, breaks):
    return sum(1 for _ in _walk(host.adj, _plan(pattern, (), breaks), ()))


def test_walk_visits_one_image_per_copy():
    for host, pattern, copies, maps in [
        (clique(12), star(4), 3960, 95040),
        (clique(11), path(5), 27720, 55440),
        (clique(17), clique(5), 6188, None),
    ]:
        assert _walk_count(host, pattern, _orbit_breaks(pattern)) == copies
        if maps is not None:
            assert _walk_count(host, pattern, ()) == maps
    # Each surviving image stands for |Aut(p)| embeddings.
    rng = random.Random(29)
    patterns = [path(4), star(3), cycle(4), cycle(5), clique(3), clique_with_pendants(3, 1, 2), CATERPILLAR]
    for _ in range(30):
        host = random_graph(rng, n_range=(4, 9), max_edges=20)
        for pattern in patterns:
            automorphisms = len(_maps(pattern, pattern))
            survivors = _walk_count(host, pattern, _orbit_breaks(pattern))
            assert survivors * automorphisms == _walk_count(host, pattern, ())


def test_orbit_breaks_leave_plan_cache_alone():
    # The pinned self-searches behind the conditions are compiled uncached, so
    # they cannot push the plans of hot patterns out of the bounded cache.
    before = _plan.cache_info()
    breaks = _orbit_breaks.__wrapped__(star(9))
    assert len(breaks) == 36  # one per pair of leaves
    after = _plan.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses, before.currsize)


def test_clique_number_examples_and_oracle():
    assert clique_number(clique(5).adj) == 5
    assert clique_number(cycle(5).adj) == 2
    assert clique_number(clique_with_pendants(6, 2, 3).adj) == 6
    assert clique_number(Graph(0).adj) == 0
    assert clique_number(Graph(3).adj) == 1
    # Existence stops at the first clique, so a large clique is quick.
    start = time.perf_counter()
    assert clique_number(clique(24).adj) == 24
    assert time.perf_counter() - start < 2.0
    rng = random.Random(7)
    for _ in range(150):
        g = random_graph(rng, n_range=(1, 12), max_edges=30)
        assert clique_number(g.adj) == brute_clique_number(g)


def test_clique_number_cuts_branches_too_narrow_to_finish():
    # K_28 less a perfect matching: omega = 14.  Without the pigeonhole cut the
    # search for a 15-clique extends every partial clique as far as it goes (~5 s).
    g = Graph(28, [(u, v) for u, v in itertools.combinations(range(28), 2) if v != u + 14])
    start = time.perf_counter()
    assert clique_number(g.adj) == 14
    assert time.perf_counter() - start < 1.0


def test_cliques_of_size():
    assert len(list(cliques_of_size(clique(5).adj, 3))) == 10
    assert list(cliques_of_size(cycle(5).adj, 3)) == []
    assert list(cliques_of_size(clique(3).adj, 0)) == [()]
    assert list(cliques_of_size(Graph(4).adj, 1)) == [(0,), (1,), (2,), (3,)]


def test_cliques_of_size_matches_subset_oracle():
    rng = random.Random(23)
    hosts = [random_graph(rng, n_range=(1, 12), max_edges=40) for _ in range(60)]
    hosts += [clique(n) for n in range(1, 11)]
    for g in hosts:
        for k in range(7):
            assert list(cliques_of_size(g.adj, k)) == _brute_cliques(g.adj, k), (g, k)
    assert list(cliques_of_size(clique(3).adj, 5)) == []
    with pytest.raises(ValueError):
        cliques_of_size(clique(3).adj, -1)


def _edge_index(host: Graph) -> list[dict[int, int]]:
    index: list[dict[int, int]] = [{} for _ in range(host.n)]
    for i, (a, b) in enumerate(host.edges):
        index[a][b] = index[b][a] = i
    return index


def test_walk_masks_match_images_assembled_edge_by_edge():
    # Masks built step by step, against each yielded image's edges OR-ed in
    # one by one, in the same order, with and without symmetry breaking.
    rng = random.Random(47)
    patterns = [
        Graph(0),
        Graph(2),
        Graph(3, [(0, 1)]),
        path(4),
        star(3),
        cycle(4),
        clique(3),
        Graph(5, [(0, 1), (1, 2), (0, 2)]),
        CATERPILLAR,
    ]
    for _ in range(40):
        host = random_graph(rng, n_range=(1, 9), max_edges=24)
        index = _edge_index(host)
        for pattern in patterns:
            for breaks in ((), _orbit_breaks(pattern)):
                plan = _plan(pattern, (), breaks)
                assembled = [
                    sum(1 << index[image[u]][image[v]] for u, v in pattern.edges)
                    for image in _walk(host.adj, plan, ())
                ]
                assert list(_walk(host.adj, plan, (), index)) == assembled, (host.edges, pattern.edges)


def test_copy_through_skips_plans_by_degree(monkeypatch):
    # K1,3 has two orbits; a leaf of the host cannot take the centre, so only
    # the leaf orbit's plan is walked.
    walks = []
    monkeypatch.setattr(subgraph, "_walk", lambda *args: walks.append(args) or iter([[0]]))
    assert copy_through(star(3).adj, star(3), 1)
    assert len(walks) == 1 and walks[0][1].needs[0] == 1
