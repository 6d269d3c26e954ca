import hashlib
import itertools
import random

import pytest

from ramseylab.arrowing import coloring_is_free
from ramseylab.enumeration import graphs_by_edge_count
from ramseylab.families import clique, clique_with_pendants, cycle, path, star, suitable_caterpillar
from ramseylab.graphs import BLUE, RED, EdgeColoring, Graph, edge
from ramseylab.recolor import (
    WovenCertificate,
    alternating_walk_step,
    star_clique_recolor,
    woven_recolor,
    yuv_certificate,
)
from ramseylab.subgraph import cliques_of_size, contains_copy, copies_as_edge_sets

from conftest import random_graph


def blue_triangles(f, c):
    return list(cliques_of_size(c.monochromatic_subgraph(BLUE), 3))


def test_walk_spec_example_triangle_pendant():
    f = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    c = EdgeColoring(f, red=[(2, 3)], blue=[(0, 1), (1, 2), (0, 2)])
    out, trace = alternating_walk_step(f, c, 2, 3)
    assert trace.edges == ((0, 1),)
    assert trace.start_edge == (0, 1)
    assert trace.colors_before == (BLUE,)
    assert out.color((0, 1)) == RED and out.color((2, 3)) == RED
    assert out.color((1, 2)) == BLUE and out.color((0, 2)) == BLUE
    assert not blue_triangles(f, out)


def test_walk_preconditions():
    f = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    no_blue_k3 = EdgeColoring(f, red=[(0, 1), (2, 3)], blue=[(1, 2), (0, 2)])
    with pytest.raises(ValueError, match="no blue clique"):
        alternating_walk_step(f, no_blue_k3, 2, 3)
    pendant_blue = EdgeColoring(f, blue=f.edges)
    with pytest.raises(ValueError, match="not free"):
        alternating_walk_step(f, pendant_blue, 2, 3)
    with pytest.raises(ValueError):
        alternating_walk_step(f, no_blue_k3, 1, 3)


def test_walk_two_triangles_bridged():
    f = Graph(7, [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6), (1, 3), (3, 4)])
    c = EdgeColoring(
        f, red=[(1, 3), (3, 4)], blue=[(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6)]
    )
    out, trace = alternating_walk_step(f, c, 3, 3)
    assert len(blue_triangles(f, out)) == 1
    final = star_clique_recolor(f, c, 3, 3)
    assert coloring_is_free(f, final, star(3), clique(3))
    assert not blue_triangles(f, final)


def test_walk_trace_invariants_on_corpus():
    rng = random.Random(77)
    tried = 0
    pendant = clique_with_pendants(3, 1, 2)
    while tried < 40:
        f = random_graph(rng, n_range=(4, 8), max_edges=12)
        colors = rng.getrandbits(f.m)
        c = EdgeColoring(
            f,
            red=[e for i, e in enumerate(f.edges) if colors >> i & 1],
            blue=[e for i, e in enumerate(f.edges) if not colors >> i & 1],
        )
        if not coloring_is_free(f, c, star(2), pendant):
            continue
        if not blue_triangles(f, c):
            continue
        tried += 1
        out, trace = alternating_walk_step(f, c, 2, 3)
        # walk edges distinct and alternating except possibly at the two ends
        assert len(set(trace.edges)) == len(trace.edges)
        inner = trace.colors_before[1:-1]
        for a, b in zip(inner, inner[1:]):
            assert a != b
        # at most one blue edge per blue clique
        for kq in blue_triangles(f, c):
            kq_edges = {edge(a, b) for a, b in itertools.combinations(kq, 2)}
            walk_blue = [
                e
                for e, col in zip(trace.edges, trace.colors_before)
                if col == BLUE and e in kq_edges
            ]
            assert len(walk_blue) <= 1
        # step postconditions
        assert len(blue_triangles(f, out)) < len(blue_triangles(f, c))
        assert coloring_is_free(f, out, star(2), pendant)


def test_star_clique_recolor_terminates_within_count():
    f = Graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 6), (6, 3), (0, 7)])
    c = EdgeColoring(
        f,
        red=[(2, 6), (6, 3), (0, 7)],
        blue=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
    )
    assert len(blue_triangles(f, c)) == 2
    out = star_clique_recolor(f, c, 3, 3)
    assert coloring_is_free(f, out, star(3), clique(3))


def test_star_clique_recolor_noop():
    f = cycle(5)
    c = EdgeColoring(f, red=[(0, 1)], blue=[e for e in f.edges if e != (0, 1)])
    assert star_clique_recolor(f, c, 2, 3) == c


def test_star_clique_recolor_outputs_are_pinned():
    # The sorted red edges of every output over the free colorings that the
    # criterion 5 sweep enumerates, for hosts with at most 6 edges.
    pendant = clique_with_pendants(3, 1, 2)
    digest = hashlib.sha256()
    count = 0
    for m, graphs in graphs_by_edge_count(6).items():
        for g in graphs:
            vmasks = [sum(1 << i for i, e in enumerate(g.edges) if v in e) for v in range(g.n)]
            pend_masks = copies_as_edge_sets(g, pendant)
            for bits in range(1 << m):
                if any((bits & vm).bit_count() >= 2 for vm in vmasks):
                    continue  # red star
                if any(bits & pm == 0 for pm in pend_masks):
                    continue  # blue pendant clique
                red = [e for i, e in enumerate(g.edges) if bits >> i & 1]
                blue = [e for i, e in enumerate(g.edges) if not bits >> i & 1]
                out = star_clique_recolor(g, EdgeColoring(g, red, blue), 2, 3)
                digest.update(repr((g.n, g.edges, sorted(out.red))).encode())
                count += 1
    assert count == 1729
    assert digest.hexdigest() == "5873b01c47dfe9354d81b8bbcbd2cad10d5a866493c37495d8167ec36b252e58"


@pytest.mark.parametrize(
    "red, blue",
    [
        ([(0, 1), (2, 3)], [(1, 2), (0, 2)]),  # no blue triangle: only the checks run
        ([(2, 3)], [(0, 1), (1, 2), (0, 2)]),  # one walk step
    ],
)
def test_star_clique_recolor_builds_no_graph(monkeypatch, red, blue):
    # Colorings are checked on their color classes' adjacency masks, and the
    # pattern constructors return cached graphs once warmed.
    f = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    c = EdgeColoring(f, red, blue)
    star_clique_recolor(f, c, 2, 3)
    built = []
    init = Graph.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    star_clique_recolor(f, c, 2, 3)
    assert built == []


def test_yuv_star_path_example():
    cert = yuv_certificate(path(4), (1, 2), star(2))
    assert cert.Y == frozenset({(0, 1), (2, 3)})
    assert cert.k == 1


def test_yuv_star_center_leaf():
    cert = yuv_certificate(star(3), (0, 1), star(3))
    assert cert.k == 1
    assert len(cert.Y) == 1 and all(0 in e for e in cert.Y)


def test_yuv_precondition():
    f = Graph(7, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (5, 6)])
    with pytest.raises(ValueError, match="avoids uv"):
        yuv_certificate(f, (0, 1), star(2))
    with pytest.raises(ValueError):
        yuv_certificate(path(4), (0, 2), star(2))
    with pytest.raises(ValueError, match="neither"):
        yuv_certificate(path(4), (1, 2), path(4))  # P4 is not suitable


def test_yuv_no_copies_at_all():
    cert = yuv_certificate(path(3), (0, 1), star(3))
    assert cert.Y == frozenset()


def test_yuv_caterpillar_leaf_case():
    # P5 host equal to the caterpillar, uv at the spine end: u=0 is a leaf of
    # the only copy, so all edges at v=1 must be cut.
    cert = yuv_certificate(path(5), (0, 1), path(5))
    assert cert.uv == (0, 1)
    assert (1, 2) in cert.Y


def test_yuv_certificate_bounds_dataclass():
    with pytest.raises(ValueError):
        WovenCertificate((0, 1), frozenset({(0, 1)}), 1)
    with pytest.raises(ValueError):
        WovenCertificate((0, 1), frozenset({(0, 2), (0, 3)}), 1)


def _random_pinned_host(rng, T, n_range=(5, 10), max_edges=18):
    """Random host trimmed so that every copy of T goes through a chosen edge."""
    for _ in range(300):
        host = random_graph(rng, n_range=n_range, max_edges=max_edges)
        if not host.edges:
            continue
        uv = host.edges[rng.randrange(host.m)]
        guard = 0
        while True:
            guard += 1
            if guard > 200:
                host = None
                break
            extra = contains_copy(host.without_edge(uv), T)
            if extra is None:
                break
            victims = sorted(extra.edge_image() - {uv})
            host = host.without_edge(victims[rng.randrange(len(victims))])
        if host is not None and uv in host.edge_set():
            return host, uv
    raise AssertionError("could not build a pinned host")


@pytest.mark.parametrize(
    "T,k",
    [
        (star(2), 1),
        (star(3), 1),
        (suitable_caterpillar(1, 0), 8),
        (suitable_caterpillar(2, 1), 18),
    ],
)
def test_yuv_random_hosts(T, k):
    rng = random.Random(hash((T.n, T.m)) & 0xFFFF)
    for _ in range(25):
        host, uv = _random_pinned_host(rng, T)
        cert = yuv_certificate(host, uv, T)
        assert cert.k == k
        u, v = uv
        assert sum(1 for e in cert.Y if u in e) <= k
        assert sum(1 for e in cert.Y if v in e) <= k
        assert contains_copy(host.without_edges(cert.Y), T) is None


def test_woven_recolor_k6_instance():
    base = list(itertools.combinations(range(6), 2))
    f = Graph(10, base + [(6, 7), (8, 9)])
    phi1 = EdgeColoring(f, red=[(6, 7), (8, 9)], blue=base)
    phi3, trace = woven_recolor(f, phi1, star(2), a=1, b=2, t=6)
    assert len(trace.family_B) == 1
    assert trace.U_K_sets == (frozenset(),)
    assert len(trace.matching_M) == 3
    assert coloring_is_free(f, phi3, star(2), clique(6))
    assert contains_copy(phi3.monochromatic_subgraph(BLUE), clique(6)) is None


def test_woven_recolor_noop_and_threshold():
    base = list(itertools.combinations(range(6), 2))
    f = Graph(10, base + [(6, 7), (8, 9)])
    phi_nb = EdgeColoring(f, red=[base[0], (6, 7), (8, 9)], blue=base[1:])
    phi3, trace = woven_recolor(f, phi_nb, star(2), a=1, b=2, t=6)
    assert phi3 == phi_nb and trace.family_B == ()
    with pytest.raises(ValueError, match="threshold"):
        woven_recolor(f, phi_nb, star(2), a=1, b=2, t=5)
    # G must be woven; P6 is neither a star nor a suitable caterpillar.
    with pytest.raises(ValueError, match="neither a star"):
        woven_recolor(f, phi_nb, path(6), a=1, b=2, t=6)
    pendant_host = Graph(7, list(itertools.combinations(range(6), 2)) + [(0, 6)])
    with pytest.raises(ValueError, match="not free"):
        woven_recolor(
            pendant_host,
            EdgeColoring(pendant_host, blue=pendant_host.edges),
            star(2),
            a=1,
            b=2,
            t=6,
        )


def test_woven_recolor_with_saturated_vertices():
    # Blue K_15, and vertex 0 blue-joined to an outside blue K_5.  With
    # G = K_{1,2}, a = 2, b = 3: r = r(K_{1,2}, K_2) = 3, rho = 5, so vertex 0
    # is saturated, and the threshold 4k + 2(r + 2) + 1 = 15 is met exactly.
    t = 15
    base = list(itertools.combinations(range(t), 2))
    outside = list(itertools.combinations(range(t, t + 5), 2))
    spokes = [(0, w) for w in range(t, t + 5)]
    f = Graph(t + 5, base + outside + spokes)
    phi1 = EdgeColoring(f, red=[], blue=base + outside + spokes)
    phi3, trace = woven_recolor(f, phi1, star(2), a=2, b=3, t=t)
    assert trace.U_K_sets == (frozenset({0}),)
    assert all(0 not in e for e in trace.matching_M)
    assert len(trace.matching_M) == 7
    assert coloring_is_free(f, phi3, star(2), clique(t))


def test_woven_recolor_y_flips_needed():
    # Pendant red edges at the matched clique vertices force nonempty hitting
    # sets: after the matching flip each flipped edge meets a red pendant,
    # creating red stars that the Y-step must kill.
    base = list(itertools.combinations(range(6), 2))
    pend = [(0, 6), (2, 7), (4, 8)]
    f = Graph(9, base + pend)
    phi1 = EdgeColoring(f, red=pend, blue=base)
    phi3, trace = woven_recolor(f, phi1, star(2), a=1, b=2, t=6)
    assert any(trace.Y_sets)
    assert coloring_is_free(f, phi3, star(2), clique(6))


def test_walk_crosses_into_second_clique():
    # Triangles A = {0,1,2} and B = {3,4,5}, a red bridge (1,3) into B, and a
    # red tail (4,6).  The walk seeded in A crosses into B and flips both.
    f = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (1, 3), (4, 6)])
    c = EdgeColoring(
        f,
        red=[(1, 3), (4, 6)],
        blue=[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
    )
    out, trace = alternating_walk_step(f, c, 2, 3)
    assert trace.edges == ((0, 1), (1, 3), (3, 4), (4, 6))
    assert trace.colors_before == (BLUE, RED, BLUE, RED)
    assert not blue_triangles(f, out)
    assert coloring_is_free(f, out, star(2), clique(3))


def test_woven_recolor_intersecting_family():
    # Two blue K_15 copies sharing exactly one vertex; with a = 2, b = 3 both
    # enter the scattered family and the shared vertex lands in both
    # saturated sets, keeping the matchings on disjoint ground.
    t = 15
    first = list(range(t))
    second = list(range(t - 1, 2 * t - 1))
    edges = sorted(
        set(
            list(itertools.combinations(first, 2))
            + list(itertools.combinations(second, 2))
        )
    )
    f = Graph(2 * t - 1, edges)
    phi1 = EdgeColoring(f, red=[], blue=edges)
    phi3, trace = woven_recolor(f, phi1, star(2), a=2, b=3, t=t)
    assert len(trace.family_B) == 2
    shared = t - 1
    assert all(shared in uk for uk in trace.U_K_sets)
    assert all(shared not in e for e in trace.matching_M)
    assert len(trace.matching_M) == 14
    assert coloring_is_free(f, phi3, star(2), clique(t))
