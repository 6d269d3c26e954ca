import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylab.graphs import Graph, clique, cycle
from ramseylab.matching import maximum_matching

from conftest import random_graph
from oracles import brute_max_matching_size


def matching_is_valid(g: Graph, match: dict[int, int]) -> bool:
    for v, w in match.items():
        if match.get(w) != v or not g.has_edge(v, w):
            return False
    return True


def test_basic_instances(petersen):
    assert len(maximum_matching(cycle(6))) // 2 == 3
    assert len(maximum_matching(cycle(5))) // 2 == 2
    assert len(maximum_matching(petersen)) // 2 == 5
    assert len(maximum_matching(petersen)) == petersen.n  # perfect
    assert len(maximum_matching(cycle(7))) < 7
    assert maximum_matching(Graph(3)) == {}


def test_blossom_heavy_instances():
    # Odd cliques and flowers force contractions.
    for n in (3, 5, 7, 9):
        g = clique(n)
        assert len(maximum_matching(g)) // 2 == n // 2
    # Two triangles joined by a path: maximum matching is 3.
    g = Graph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6), (6, 7)])
    assert len(maximum_matching(g)) // 2 == 4


def test_against_bruteforce_random():
    rng = random.Random(123)
    for _ in range(250):
        g = random_graph(rng, n_range=(2, 9), max_edges=12)
        match = maximum_matching(g)
        assert matching_is_valid(g, match)
        assert len(match) // 2 == brute_max_matching_size(g)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_against_bruteforce_hypothesis(data):
    n = data.draw(st.integers(2, 8))
    pool = list(itertools.combinations(range(n), 2))
    g = Graph(n, data.draw(st.sets(st.sampled_from(pool), max_size=11)))
    match = maximum_matching(g)
    assert matching_is_valid(g, match)
    assert len(match) // 2 == brute_max_matching_size(g) if g.m else match == {}
