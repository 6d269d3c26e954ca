from collections import Counter

import pytest

from ramseylab.enumeration import trees_up_to_vertices
from ramseylab.families import cycle, path, star, suitable_caterpillar
from ramseylab.graphs import Graph
from ramseylab.trees import tree_classify

from oracles import brute_tree_profile

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
    assert not tree_classify(suitable_caterpillar(1, 0)).in_Tprime
    # s >= 2 with middle leaves: central vertex is the spine middle.
    cat = suitable_caterpillar(2, 1)
    profile = tree_classify(cat)
    assert profile.diameter == 4 and profile.central_vertex == 1
    assert not profile.in_Tprime  # two longest-path neighbors of degree 3
    assert profile.woven == ("caterpillar", 2, 18)
    # Beyond the exhaustive check's 10 vertices.
    assert tree_classify(suitable_caterpillar(3, 2)).woven == ("caterpillar", 3, 32)
    assert tree_classify(star(12)).woven == ("star", 12, 1)


def test_non_tree_rejected():
    with pytest.raises(ValueError):
        tree_classify(cycle(4))
    with pytest.raises(ValueError):
        tree_classify(Graph(2))


def test_diameter_and_center_ground_truth():
    def diameter_and_center(t):
        profile = tree_classify(t)
        return profile.diameter, profile.central_vertex

    assert diameter_and_center(Graph(1)) == (0, 0)
    assert diameter_and_center(path(2)) == (1, None)
    assert diameter_and_center(star(4)) == (2, 0)
    assert diameter_and_center(path(7)) == (6, 3)


def test_longest_path_neighbors():
    profile = tree_classify(SPIDER_3x2)
    assert profile.central_vertex == 0 and sorted(profile.on_path) == [1, 3, 5]
    profile = tree_classify(path(5))
    assert profile.central_vertex == 2 and sorted(profile.on_path) == [1, 3]


def test_profile_matches_the_definitions_up_to_10():
    camps = Counter()
    for t in trees_up_to_vertices(10):
        profile = tree_classify(t)
        assert profile == brute_tree_profile(t), t.edges
        # The two camps are disjoint: no woven tree is in T'.
        assert not (profile.woven and profile.in_Tprime), t.edges
        camps[profile.in_T, profile.in_Tprime, profile.woven and profile.woven[0]] += 1
    assert camps == {
        (True, True, None): 123,
        (False, True, None): 40,
        (False, False, None): 25,
        (False, False, "star"): 8,
        (False, False, "caterpillar"): 5,
    }


def test_profile_visits_each_vertex_a_bounded_number_of_times(monkeypatch):
    # Three breadth-first searches list each vertex's neighbors once apiece;
    # a search from every vertex would list them n times.
    listed = Counter()
    neighbors = Graph.neighbors

    def counting(self, v):
        listed[v] += 1
        return neighbors(self, v)

    monkeypatch.setattr(Graph, "neighbors", counting)
    profile = tree_classify(path(401))
    assert profile.diameter == 400 and profile.central_vertex == 200
    assert profile.on_path == (199, 201)
    assert max(listed.values()) <= 5
