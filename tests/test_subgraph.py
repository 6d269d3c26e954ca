import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylab.families import clique, clique_with_pendants, cycle, path, star
from ramseylab.graphs import BLUE, RED, EdgeColoring, Graph
from ramseylab.subgraph import (
    clique_number,
    cliques_of_size,
    contains_copy,
    copies_as_edge_sets,
    embeddings,
)

from conftest import random_graph
from oracles import brute_clique_number, injection_embeds


def test_contains_copy_spec_examples():
    assert contains_copy(clique(4), clique(3)) is not None
    assert contains_copy(cycle(5), star(3)) is None
    assert contains_copy(clique_with_pendants(6, 2, 3), clique(6)) is not None


def test_empty_and_degenerate_patterns():
    assert contains_copy(clique(3), Graph(0)) is not None
    assert contains_copy(clique(3), Graph(1)) is not None
    assert contains_copy(Graph(0), Graph(1)) is None  # no room for a vertex
    assert contains_copy(path(2), path(3)) is None


def test_isolated_pattern_vertices_need_capacity():
    pattern = Graph(3, [(0, 1)])  # one isolated vertex
    assert contains_copy(path(2), pattern) is None
    assert contains_copy(path(3), pattern) is not None


def test_color_restricted_search():
    # A red copy is a copy in the red spanning subgraph.
    c = EdgeColoring(clique(3), red=[(0, 1)], blue=[(0, 2), (1, 2)])
    red = c.monochromatic_subgraph(RED)
    emb = contains_copy(red, path(2))
    assert emb is not None and emb.edge_image() == frozenset({(0, 1)})
    assert contains_copy(red, path(3)) is None
    assert contains_copy(c.monochromatic_subgraph(BLUE), path(3)) is not None


def test_pins():
    g = path(4)
    assert contains_copy(g, path(3), pins={1: 0}) is None  # 0 is an endpoint
    assert contains_copy(g, path(3), pins={1: 1}) is not None
    assert contains_copy(g, path(3), pins={0: 0, 2: 2}) is not None


def test_oracle_equivalence_random_corpus():
    rng = random.Random(99)
    patterns = [path(2), path(3), path(4), path(6), star(3), clique(3), clique(4), cycle(4), cycle(5), cycle(6)]
    for _ in range(300):
        host = random_graph(rng, n_range=(2, 9), max_edges=14)
        pattern = patterns[rng.randrange(len(patterns))]
        assert (contains_copy(host, pattern) is not None) == injection_embeds(host, pattern)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oracle_equivalence_hypothesis(data):
    n = data.draw(st.integers(2, 7))
    pool = list(itertools.combinations(range(n), 2))
    host = Graph(n, data.draw(st.sets(st.sampled_from(pool), max_size=12)))
    pn = data.draw(st.integers(1, min(5, n)))
    ppool = list(itertools.combinations(range(pn), 2))
    pattern = Graph(pn, data.draw(st.sets(st.sampled_from(ppool), max_size=6)) if ppool else set())
    assert (contains_copy(host, pattern) is not None) == injection_embeds(host, pattern)


def test_monotonicity_under_host_growth():
    rng = random.Random(41)
    for _ in range(100):
        host = random_graph(rng, n_range=(3, 8), max_edges=10)
        pattern = random_graph(rng, n_range=(2, 4), max_edges=4)
        if contains_copy(host, pattern) is None:
            continue
        missing = [e for e in itertools.combinations(range(host.n), 2) if e not in host.edge_set()]
        bigger = host.with_edges(rng.sample(missing, min(2, len(missing))))
        assert contains_copy(bigger, pattern) is not None


def test_embeddings_enumeration_counts():
    # labeled triangles in K_4: 4 triangles, 6 automorphic images each
    assert sum(1 for _ in embeddings(clique(4), clique(3))) == 24
    assert len(copies_as_edge_sets(clique(4), clique(3))) == 4
    assert len(copies_as_edge_sets(clique(5), path(3))) == 30


def test_clique_copies_match_embedding_images():
    # A complete pattern's copies come from the clique search; they must be
    # the distinct edge images of its embeddings, in the same order.
    rng = random.Random(61)
    for _ in range(60):
        host = random_graph(rng, n_range=(1, 12), max_edges=40)
        for k in range(7):
            pattern = clique(k) if k else Graph(0)
            images = {emb.edge_image() for emb in embeddings(host, pattern)}
            assert copies_as_edge_sets(host, pattern) == sorted(images, key=sorted)
    # In K_n every k-subset is a copy; checking that is cheaper than listing
    # the n!/(n-k)! embeddings (665,280 for K6 in K12).
    for n in range(1, 13):
        for k in range(7):
            pattern = clique(k) if k else Graph(0)
            subsets = {frozenset(itertools.combinations(c, 2)) for c in itertools.combinations(range(n), k)}
            assert copies_as_edge_sets(clique(n), pattern) == sorted(subsets, key=sorted)


def test_clique_number_examples_and_oracle():
    assert clique_number(clique(5)) == 5
    assert clique_number(cycle(5)) == 2
    assert clique_number(clique_with_pendants(6, 2, 3)) == 6
    assert clique_number(Graph(0)) == 0
    assert clique_number(Graph(3)) == 1
    rng = random.Random(7)
    for _ in range(150):
        g = random_graph(rng, n_range=(1, 12), max_edges=30)
        assert clique_number(g) == brute_clique_number(g)


def test_cliques_of_size():
    assert len(cliques_of_size(clique(5), 3)) == 10
    assert cliques_of_size(cycle(5), 3) == []
    assert cliques_of_size(clique(3), 0) == [()]
    assert cliques_of_size(Graph(4), 1) == [(0,), (1,), (2,), (3,)]
