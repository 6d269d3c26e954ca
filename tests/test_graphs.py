import pytest

from ramseylab.families import clique, cycle, path, star
from ramseylab.graphs import BLUE, RED, EdgeColoring, Graph, edge


def test_edge_normalization_and_loops():
    assert edge(3, 1) == (1, 3)
    with pytest.raises(ValueError):
        edge(2, 2)


def test_graph_dedupes_and_validates():
    g = Graph(3, [(0, 1), (1, 0), (1, 2)])
    assert g.m == 2
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_adjacency_and_degrees():
    g = cycle(5)
    assert all(g.degree(v) == 2 for v in range(5))
    assert g.has_edge(0, 4) and not g.has_edge(0, 2)
    assert sorted(g.neighbors(0)) == [1, 4]
    assert sorted(g.degree(v) for v in range(5)) == [2, 2, 2, 2, 2]


def test_without_vertex_relabels():
    g = path(4)  # 0-1-2-3
    h = g.without_vertex(1)
    assert h.n == 3 and h.edges == ((1, 2),)  # old 2-3 becomes 1-2


def test_induced_and_union():
    g = clique(4)
    assert g.induced([1, 2, 3]) == clique(3)
    u = Graph(4, [(3, 2), (1, 0)])  # two disjoint K2s, edges given unordered
    assert u.n == 4 and u.edges == ((0, 1), (2, 3))


def test_relabeled_requires_bijection():
    g = path(3)
    assert g.relabeled([2, 1, 0]).edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        g.relabeled([0, 0, 1])


def test_components_and_trees():
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5)])  # P3 beside K3
    assert len(g.components()) == 2
    assert g.components(excluded=[1]) == [[0], [2], [3, 4, 5]]
    assert path(5).is_tree()
    assert not cycle(4).is_tree()
    assert Graph(1).is_tree()


def test_coloring_partition_enforced():
    g = path(3)
    with pytest.raises(ValueError):
        EdgeColoring(g, red=[(0, 1)])  # (1, 2) uncolored
    with pytest.raises(ValueError):
        EdgeColoring(g, red=[(0, 1), (1, 2)], blue=[(0, 1)])
    c = EdgeColoring(g, red=[(0, 1)], blue=[(1, 2)])
    assert c.color((1, 0)) == RED and c.color((1, 2)) == BLUE


def test_coloring_flip_and_subgraphs():
    g = clique(3)
    c = EdgeColoring(g, blue=g.edges)
    flipped = c.flipped([(0, 1)])
    assert flipped.color((0, 1)) == RED
    assert flipped.red == {(0, 1)}
    assert len(flipped.blue) == 2
    assert flipped.adjacency(RED)[0].bit_count() == 1
    back = flipped.flipped([(0, 1)])
    assert back == c
    with pytest.raises(ValueError):
        c.flipped([(0, 3)])


def test_coloring_adjacency_and_unknown_colors():
    c = EdgeColoring(path(4), red=[(0, 1), (2, 3)], blue=[(1, 2)])
    assert c.adjacency(RED) == Graph(4, c.red).adj == (0b10, 0b1, 0b1000, 0b100)
    assert c.adjacency(BLUE) == Graph(4, c.blue).adj == (0, 0b100, 0b10, 0)
    for color in ("X", "r", "b", None):
        with pytest.raises(ValueError, match="unknown color"):
            c.adjacency(color)


def test_basic_constructors():
    s = star(3)
    assert s.n == 4 and s.m == 3 and s.degree(0) == 3
    assert clique(6).m == 15
    c5 = cycle(5)
    assert all(c5.degree(v) == 2 for v in range(5))
    assert path(4).m == 3
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        star(0)


def test_star_labels_center_first():
    s = star(4)
    assert s.degree(0) == 4 and all(s.degree(v) == 1 for v in range(1, 5))
