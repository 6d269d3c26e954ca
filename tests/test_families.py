import hashlib
import itertools
import math

import pytest

from ramseylab.arrowing import coloring_is_free
from ramseylab.enumeration import graphs_up_to_vertices
from ramseylab.factors import belck_check, has_k_factor, odd_components
from ramseylab.families import (
    DeterminerGadget,
    RootedGadget,
    c_gadget,
    determiner_chain,
    diameter_distinguisher,
    factor_extremal_graph,
    lambda_gadget,
    suitable_caterpillar,
    uniform_tree,
)
from ramseylab.graphs import (
    BLUE,
    RED,
    EdgeColoring,
    Graph,
    clique,
    clique_with_pendants,
    cycle,
    path,
    star,
)
from ramseylab.subgraph import clique_number, contains_copy

SPIDER_3x2 = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def test_clique_with_pendants_counts():
    assert clique_with_pendants(6, 2, 3).n == 10
    assert clique_with_pendants(3, 3, 2).n == 6
    ktk2 = clique_with_pendants(5, 1, 2)
    assert ktk2.n == 6 and ktk2.m == 11
    g = clique_with_pendants(4, 3, 3)
    assert g.n == 4 + 3 * 2 and g.m == 6 + 3 * 3
    with pytest.raises(ValueError):
        clique_with_pendants(3, 4, 2)
    with pytest.raises(ValueError):
        clique_with_pendants(3, 1, 1)
    with pytest.raises(ValueError):
        clique_with_pendants(2, 1, 2)


def test_suitable_caterpillar_shapes():
    big = suitable_caterpillar(3, 2)
    assert big.n == 11 and big.degree(0) == 4 and big.degree(2) == 4 and big.degree(1) == 4
    from ramseylab.enumeration import are_isomorphic

    assert are_isomorphic(suitable_caterpillar(1, 0), path(5))
    mid = suitable_caterpillar(2, 1)
    assert mid.n == 8 and [mid.degree(v) for v in range(3)] == [3, 3, 3]
    with pytest.raises(ValueError):
        suitable_caterpillar(2, 2)
    with pytest.raises(ValueError, match="s must be at least 1"):
        suitable_caterpillar(0, 0)


def test_uniform_tree():
    assert uniform_tree(2, 2).graph.n == 7
    assert uniform_tree(5, 0).graph.n == 1
    u31 = uniform_tree(3, 1)
    assert u31.graph.n == 4 and u31.graph.degree(u31.root) == 3
    u23 = uniform_tree(2, 3).graph
    assert u23.n == 15 and u23.is_tree()
    with pytest.raises(ValueError, match="need k >= 1"):
        uniform_tree(0, 1)


def test_lambda_gadget_p4():
    lam = lambda_gadget(path(4), path(4), 1)
    assert lam.graph.n == 9 and lam.graph.m == 14
    w = lam.witness_coloring
    # red part is exactly the depth-1 skeleton: a star on the root
    assert sorted(w.red) == [(0, i) for i in range(1, 9)]
    # blue part is two disjoint P4 copies
    blue_graph = Graph(lam.graph.n, w.blue)
    comps = [c for c in blue_graph.components() if len(c) > 1]
    assert len(comps) == 2 and all(len(c) == 4 for c in comps)
    # no red copy of T: the red star has diameter 2 < 3
    assert not contains_copy(w.adjacency(RED), path(4))


def test_lambda_gadget_structure_invariants():
    for T, gamma, i in [(path(4), path(4), 2), (SPIDER_3x2, SPIDER_3x2, 1), (star(2), cycle(5), 1)]:
        lam = lambda_gadget(T, gamma, i)
        w = lam.witness_coloring
        d = max(T.degree(v) for v in range(T.n))
        k = d * gamma.n
        skeleton = uniform_tree(k, i).graph
        assert sorted(w.red) == sorted(skeleton.edges)
        blue_comps = [
            c for c in Graph(lam.graph.n, w.blue).components() if len(c) > 1
        ]
        assert all(len(c) == gamma.n for c in blue_comps)


def test_lambda_gadget_depth_zero():
    lam = lambda_gadget(path(4), path(4), 0)
    assert lam.graph.n == 1 and lam.graph.m == 0


def test_gadget_input_checks():
    with pytest.raises(ValueError, match="outside the gadget"):
        RootedGadget(path(2), root=2)
    with pytest.raises(ValueError, match="outside the gadget"):
        RootedGadget(path(2), root=0, co_root=-1)
    with pytest.raises(ValueError, match="does not color the gadget"):
        RootedGadget(path(2), root=0, witness_coloring=EdgeColoring(Graph(2)))
    with pytest.raises(ValueError, match="must be a tree"):
        lambda_gadget(cycle(3), path(2), 1)
    with pytest.raises(ValueError, match="depth"):
        lambda_gadget(path(2), path(2), -1)
    with pytest.raises(ValueError, match="must have an edge"):
        lambda_gadget(Graph(1), path(2), 1)
    with pytest.raises(ValueError, match="must have an edge"):
        lambda_gadget(path(2), Graph(0), 1)
    with pytest.raises(ValueError, match="nonempty"):
        c_gadget(Graph(0))


def test_c_gadget():
    cg = c_gadget(clique(2))
    assert cg.graph.n == 4 and cg.graph.m == 5
    assert not cg.graph.has_edge(cg.root, cg.co_root)
    cg5 = c_gadget(cycle(5))
    assert cg5.graph.n == 7 and cg5.graph.m == 15
    w = cg5.witness_coloring
    assert not contains_copy(w.adjacency(BLUE), clique(3))
    red = w.adjacency(RED)
    assert sorted(a.bit_count() for a in red) == [2, 2, 2, 2, 2, 5, 5]
    assert clique_number(red) == 2  # complete bipartite, triangle-free


def test_diameter_distinguisher_odd():
    F, col = diameter_distinguisher(path(4), 3)
    assert F.n == 27 and F.m == 45
    assert coloring_is_free(F, col, path(4), clique_with_pendants(3, 1, 2))


def test_diameter_distinguisher_even():
    F, col = diameter_distinguisher(SPIDER_3x2, 3, GammaPrime=cycle(5))
    assert coloring_is_free(F, col, SPIDER_3x2, clique_with_pendants(3, 1, 2))
    # a = 2 longest-path neighbors beyond the strongest one; per hub vertex:
    # two C gadgets (6 fresh vertices each) and one depth-1 gadget (21 fresh).
    assert F.n == 3 + 3 * (2 * 6 + 21)


def test_diameter_distinguisher_validation():
    with pytest.raises(ValueError):
        diameter_distinguisher(path(5), 3)  # not in the class
    with pytest.raises(ValueError):
        diameter_distinguisher(path(4), 3, Gamma=clique(3))  # Gamma contains K_t
    with pytest.raises(ValueError):
        diameter_distinguisher(SPIDER_3x2, 3)  # even case needs GammaPrime
    with pytest.raises(ValueError):
        diameter_distinguisher(SPIDER_3x2, 3, GammaPrime=cycle(5), J=path(4))
    with pytest.raises(ValueError):
        diameter_distinguisher(path(4), 4)  # no default Gamma beyond t=3
    with pytest.raises(ValueError, match="at least 3"):
        diameter_distinguisher(path(4), 2)
    with pytest.raises(ValueError, match="no default J"):
        diameter_distinguisher(SPIDER_3x2, 4, Gamma=SPIDER_3x2, GammaPrime=cycle(5))
    with pytest.raises(ValueError, match="J must not contain"):
        diameter_distinguisher(SPIDER_3x2, 3, GammaPrime=cycle(5), J=clique(3))
    with pytest.raises(ValueError, match="GammaPrime must not contain"):
        diameter_distinguisher(SPIDER_3x2, 3, GammaPrime=clique(3))
    with pytest.raises(ValueError, match="capped at 20 vertices"):
        diameter_distinguisher(SPIDER_3x2, 3, GammaPrime=cycle(5), J=cycle(21))


VALID_TRIPLES = [
    (1, 3, 3),
    (1, 3, 5),
    (1, 5, 5),
    (3, 5, 5),
    (1, 3, 6),
    (1, 3, 7),
    (1, 5, 7),
    (1, 7, 7),
    (3, 5, 7),
    (3, 7, 7),
    (5, 7, 7),
]


@pytest.mark.parametrize("p,q,r", VALID_TRIPLES)
def test_factor_extremal_invariants(p, q, r):
    f, trace, cert = factor_extremal_graph(p, q, r)
    assert all(f.degree(v) == r for v in range(f.n)), "not r-regular"
    degree = [0] * f.n
    for u, v in trace.q_factor:
        assert f.has_edge(u, v)
        degree[u] += 1
        degree[v] += 1
    assert all(d == q for d in degree), "trace q-factor is not a q-factor"
    assert odd_components(f, cert.D) == cert.odd_component_count
    assert p * len(cert.D) < cert.odd_component_count
    # matchings in the trace really are matchings of their stage graphs
    for matching, stage in ((trace.m_g, trace.g_stage), (trace.m_q, trace.g_stage)):
        touched = set()
        for u, v in matching:
            assert stage.has_edge(u, v)
            assert u not in touched and v not in touched
            touched.update((u, v))
    assert len(trace.m_g) == (r - 1) // 2
    assert len(trace.m_q) == (q - 1) // 2
    assert trace.h_stage.degree(trace.u_vertex) == 2 * ((r - 1) // 2)


def test_factor_extremal_133_full():
    f, trace, cert = factor_extremal_graph(1, 3, 3)
    assert f.n == 76 and trace.h_stage.n == 25
    assert len(trace.hub) == 1 and cert.odd_component_count == 3
    assert has_k_factor(f, 3) is not None
    assert has_k_factor(f, 1) is None
    assert belck_check(f, trace.hub, 1) is not None


def test_factor_extremal_preconditions():
    with pytest.raises(ValueError):
        factor_extremal_graph(3, 3, 3)
    with pytest.raises(ValueError):
        factor_extremal_graph(1, 2, 3)
    with pytest.raises(ValueError):
        factor_extremal_graph(1, 5, 6)  # even r needs q <= r/2
    with pytest.raises(ValueError):
        factor_extremal_graph(1, 5, 3)
    with pytest.raises(ValueError, match="p must be positive"):
        factor_extremal_graph(-1, 3, 3)


def test_determiner_chain_counts_and_coverage():
    d4 = DeterminerGadget(clique(4), (0, 1))
    assert determiner_chain(clique(2), d4).n == 2 + 1 * 2
    d5 = DeterminerGadget(Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4)]), (0, 1))
    f = determiner_chain(path(3), d5)
    assert f.n == 3 + 2 * 3
    # every edge of the base tree lies in exactly one determiner copy:
    # gluing adds (|E(D)| - 1) fresh edges per tree edge around it
    assert f.m == path(3).m + path(3).m * (d5.graph.m - 1)
    with pytest.raises(ValueError):
        determiner_chain(cycle(3), d4)
    with pytest.raises(ValueError):
        DeterminerGadget(clique(4), (0, 5))
    # beta must be an edge of the graph, not an index into its adjacency
    for beta in ((-1, 0), (5, 6), (2, 2)):
        with pytest.raises(ValueError):
            DeterminerGadget(clique(4), beta)
    assert DeterminerGadget(clique(4), (1, 0)).beta == (1, 0)


def test_counts_match_closed_forms():
    for t, a, b in [(3, 1, 2), (4, 2, 3), (6, 2, 3), (5, 5, 4)]:
        g = clique_with_pendants(t, a, b)
        assert g.n == t + a * (b - 1)
        assert g.m == math.comb(t, 2) + a * math.comb(b, 2)
    for k, i in [(2, 2), (3, 2), (8, 1), (2, 3)]:
        u = uniform_tree(k, i).graph
        assert u.n == sum(k**j for j in range(i + 1))
        assert u.m == u.n - 1


def test_constructions_are_pinned():
    # Exact labels, witness colorings and the factors found, so a rewrite of
    # any constructor or of the substitute graph must keep every one of them.
    digest = hashlib.sha256()

    def put(*items):
        digest.update(repr(items).encode())

    for k in range(1, 5):
        for i in range(4):
            put(uniform_tree(k, i).graph.edges)
    for T, gamma, i in [
        (path(4), path(4), 1),
        (path(4), path(4), 2),
        (SPIDER_3x2, SPIDER_3x2, 1),
        (star(2), cycle(5), 1),
        (star(3), clique(2), 2),
        (path(3), path(2), 3),
    ]:
        lam = lambda_gadget(T, gamma, i)
        put(lam.graph.edges, sorted(lam.witness_coloring.red))
    for args in [(path(4), 3), (path(6), 3), (SPIDER_3x2, 3, None, cycle(5))]:
        g, coloring = diameter_distinguisher(*args)
        put(g.edges, sorted(coloring.red))
    for g in graphs_up_to_vertices(6):
        for k in range(1, 4):
            w = has_k_factor(g, k)
            put(g.edges, k, None if w is None else sorted(w.edges))
    for p, q, r in [(1, 3, 3), (1, 5, 5)]:
        f, trace, cert = factor_extremal_graph(p, q, r)
        put(f.edges, sorted(cert.D), cert.odd_component_count)
        put(trace.params, trace.g_stage.edges, trace.m_g, trace.m_q, trace.h_stage.edges)
        put(trace.u_vertex, trace.hub, trace.q_factor)
        for k in range(1, 4):
            w = has_k_factor(f, k)
            put(k, None if w is None else sorted(w.edges))
    assert digest.hexdigest() == "27dda9b9e521d69203b611b0daf1c95c233f04f523345bc017fa6e897d29e2fc"
