import random
import tracemalloc

import networkx as nx
import pytest

from ramseylab.enumeration import graphs_up_to_vertices
from ramseylab.formats import (
    FormatError,
    MismatchError,
    coloring_from_text,
    coloring_to_text,
    graph_from_graph6,
    graph_to_graph6,
)
from ramseylab.graphs import EdgeColoring, Graph, clique, cycle, path

from conftest import random_graph


def nx_graph6(g: Graph) -> str:
    gg = nx.Graph()
    gg.add_nodes_from(range(g.n))
    gg.add_edges_from(g.edges)
    return nx.to_graph6_bytes(gg, header=False).decode().strip()


def test_bit_exact_against_networkx_small():
    for g in graphs_up_to_vertices(6):
        encoded = graph_to_graph6(g)
        assert encoded == nx_graph6(g)
        assert graph_from_graph6(encoded) == g


def test_bit_exact_against_networkx_random():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, n_range=(1, 30), max_edges=60)
        encoded = graph_to_graph6(g)
        assert encoded == nx_graph6(g)
        assert graph_from_graph6(encoded) == g


def test_long_form_sizes():
    rng = random.Random(5)
    for n in (63, 64, 100):
        g = random_graph(rng, n_range=(n, n), max_edges=80)
        encoded = graph_to_graph6(g)
        assert encoded == nx_graph6(g)
        assert graph_from_graph6(encoded) == g


def test_header_prefix_stripped():
    g = cycle(5)
    assert graph_from_graph6(">>graph6<<" + graph_to_graph6(g)) == g


@pytest.mark.parametrize(
    "bad",
    ["", "D\x19", "D?", "Dqqq", chr(126), "D?@"],  # "D?@" sets a padding bit
)
def test_malformed_graph6_rejected(bad):
    with pytest.raises(FormatError):
        graph_from_graph6(bad)


def test_graph6_cost_follows_the_edges():
    # path(10000)'s upper triangle has 5e7 bits, one per 5,000 of them set;
    # a codec that lays every bit out as an int or a string peaks near 100 MB.
    g = path(10000)
    text = graph_to_graph6(g)
    for call, arg in ((graph_to_graph6, g), (graph_from_graph6, text)):
        tracemalloc.start()
        try:
            call(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20, (call.__name__, peak)
    assert graph_from_graph6(text) == g


def test_graph6_size_limit_is_a_value_error():
    # Too many vertices to encode is a bad argument, not a malformed input.
    with pytest.raises(ValueError, match="at most 258047 vertices"):
        graph_to_graph6(Graph(258048))


def test_coloring_roundtrip():
    g = path(4)
    c = EdgeColoring(g, red=[(0, 1)], blue=[(1, 2), (2, 3)])
    text = coloring_to_text(c)
    assert text.splitlines()[0] == "4 3"
    back = coloring_from_text(text, host=g)
    assert back == c
    # also parses standalone, rebuilding the host from the listed edges
    assert coloring_from_text(text).red == c.red


def test_coloring_mismatch_and_malformed():
    g = path(4)
    other = clique(3)
    text = coloring_to_text(EdgeColoring(other, red=other.edges))
    with pytest.raises(FormatError, match="does not match"):
        coloring_from_text(text, host=g)
    with pytest.raises(FormatError):
        coloring_from_text("3 1\n0 1 X\n")
    with pytest.raises(FormatError):
        coloring_from_text("3 2\n0 1 R\n")
    with pytest.raises(FormatError):
        coloring_from_text("3 2\n0 1 R\n0 1 B\n")
    with pytest.raises(FormatError):
        coloring_from_text("not a header\n")
    with pytest.raises(FormatError):
        coloring_from_text("-1 0\n")
    with pytest.raises(FormatError, match="bad coloring header"):
        coloring_from_text("3 x\n")
    with pytest.raises(FormatError, match="out of range"):
        coloring_from_text("3 1\n0 3 R\n")


def test_coloring_mismatch_is_typed_and_checked_before_allocation():
    edges_differ = coloring_to_text(EdgeColoring(path(3), red=path(3).edges))
    with pytest.raises(MismatchError):
        coloring_from_text(edges_differ, host=Graph(3, [(0, 1), (0, 2)]))
    tracemalloc.start()
    try:
        with pytest.raises(MismatchError):
            coloring_from_text("5000000 0\n", host=clique(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
