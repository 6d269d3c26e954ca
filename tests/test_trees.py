import random

import pytest

from ramseylab.enumeration import trees_up_to_vertices
from ramseylab.families import clique, cycle, path, star, suitable_caterpillar
from ramseylab.graphs import Graph
from ramseylab.trees import (
    greedy_min_degree_embed,
    longest_path_neighbors,
    tree_classify,
    tree_diameter_and_center,
)

from conftest import random_graph

SPIDER_3x2 = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def test_spec_examples():
    p4 = tree_classify(path(4))
    assert p4.diameter == 3 and p4.central_vertex is None
    assert p4.in_T and p4.in_Tprime

    p5 = tree_classify(path(5))
    assert p5.diameter == 4 and p5.central_vertex == 2
    assert not p5.in_T and not p5.in_Tprime  # diameter-4 rule: central degree 2

    sp = tree_classify(SPIDER_3x2)
    assert sp.diameter == 4 and sp.central_vertex == 0 and sp.max_degree == 3
    assert sp.in_T and sp.in_Tprime


def test_small_diameter_in_neither_class():
    for t in (Graph(1), path(2), path(3), star(5)):
        profile = tree_classify(t)
        assert profile.diameter < 3
        assert not profile.in_T and not profile.in_Tprime


def test_tprime_strictly_larger():
    # Center 0 with: a degree-3 neighbor 1 on a longest path, a degree-2
    # neighbor 4 on a longest path, and a pendant leaf 6.  In T' but not in T.
    t = Graph(7, [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (0, 6)])
    profile = tree_classify(t)
    assert profile.diameter == 4 and profile.central_vertex == 0
    assert not profile.in_T and profile.in_Tprime


def test_class_invariants_all_trees_up_to_9():
    for t in trees_up_to_vertices(9):
        profile = tree_classify(t)
        if profile.in_T:
            assert profile.in_Tprime
        if profile.diameter >= 3 and profile.diameter % 2 == 1:
            assert profile.in_T
        assert (profile.central_vertex is not None) == (profile.diameter % 2 == 0)


def test_suitable_caterpillars_are_classified():
    # 1-suitable caterpillar is P5: even diameter 4 but central degree 2.
    assert not tree_classify(suitable_caterpillar(1, 1, 0, 1)).in_Tprime
    # s >= 2 with middle leaves: central vertex is the spine middle.
    cat = suitable_caterpillar(2, 2, 1, 2)
    profile = tree_classify(cat)
    assert profile.diameter == 4 and profile.central_vertex == 1
    assert not profile.in_Tprime  # two longest-path neighbors of degree 3


def test_non_tree_rejected():
    with pytest.raises(ValueError):
        tree_classify(cycle(4))
    with pytest.raises(ValueError):
        tree_classify(Graph(2))
    with pytest.raises(ValueError):
        greedy_min_degree_embed(clique(4), cycle(3))


def test_diameter_and_center_ground_truth():
    assert tree_diameter_and_center(Graph(1)) == (0, 0)
    assert tree_diameter_and_center(path(2)) == (1, None)
    assert tree_diameter_and_center(star(4)) == (2, 0)
    assert tree_diameter_and_center(path(7)) == (6, 3)


def test_longest_path_neighbors():
    center, on_path = longest_path_neighbors(SPIDER_3x2)
    assert center == 0 and sorted(on_path) == [1, 3, 5]
    center, on_path = longest_path_neighbors(path(5))
    assert center == 2 and sorted(on_path) == [1, 3]


def test_greedy_embed_spec_examples(petersen):
    assert greedy_min_degree_embed(clique(5), path(4)) is not None
    assert greedy_min_degree_embed(cycle(8), star(3)) is None
    emb = greedy_min_degree_embed(petersen, star(3))
    assert emb is not None
    assert emb.pattern == star(3)


def test_greedy_embed_succeeds_iff_core_nonempty():
    rng = random.Random(17)
    trees = [t for t in trees_up_to_vertices(5) if t.m >= 1]
    for _ in range(120):
        host = random_graph(rng, n_range=(2, 10), max_edges=20)
        t = trees[rng.randrange(len(trees))]
        k = t.m
        alive = set(range(host.n))
        changed = True
        while changed:
            changed = False
            for v in list(alive):
                if sum(1 for w in host.neighbors(v) if w in alive) < k:
                    alive.discard(v)
                    changed = True
        emb = greedy_min_degree_embed(host, t)
        assert (emb is not None) == bool(alive)
        if emb is not None:
            assert set(emb.map) <= alive
