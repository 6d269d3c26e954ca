"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Every tolerance and time budget is pinned here.
"""

import contextlib
import itertools
import random
import time

import numpy as np

from ramseylab.arrowing import (
    arrows,
    coloring_is_free,
    equivalence_scan,
    exhaustive_arrows,
    minimal_ramsey_check,
    ramsey_number,
)
from ramseylab.enumeration import graphs_by_edge_count, graphs_up_to_vertices, trees_up_to_vertices
from ramseylab.factors import belck_check, has_k_factor
from ramseylab.families import (
    clique,
    clique_with_pendants,
    cycle,
    diameter_distinguisher,
    factor_extremal_graph,
    lambda_gadget,
    path,
    star,
    suitable_caterpillar,
)
from ramseylab.graphs import EdgeColoring
from ramseylab.recolor import star_clique_recolor, yuv_certificate
from ramseylab.subgraph import cliques_of_size, contains_copy, copies_as_edge_sets

from conftest import random_graph

K3 = clique(3)


@contextlib.contextmanager
def criterion(number: int, description: str, limit_seconds: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL ({time.monotonic() - t0:.1f}s): {description}")
        raise
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s): {description}")
    assert elapsed < limit_seconds, f"criterion {number} exceeded its {limit_seconds}s budget"


def test_criterion_1_chvatal_numbers():
    with criterion(1, "Chvatal numbers for every tree on <= 5 vertices", 300):
        trees = trees_up_to_vertices(5)
        assert len(trees) == 8
        for t in trees:
            assert ramsey_number(t, K3, cap=12) == 2 * (t.n - 1) + 1


def test_criterion_2_odd_star_minimality():
    with criterion(2, "K_{1,3} is the unique minimal Ramsey graph for (K_{1,1}, K_{1,3})", 300):
        assert arrows(star(3), star(1), star(3)).arrows
        assert minimal_ramsey_check(star(3), star(1), star(3))
        minimal = [
            g for g in graphs_up_to_vertices(5) if minimal_ramsey_check(g, star(1), star(3))
        ]
        assert len(minimal) == 1
        assert sorted(minimal[0].degree(v) for v in range(minimal[0].n)) == [1, 1, 1, 3]


def test_criterion_3_c5_distinguisher():
    with criterion(3, "C_5 separates (K_{1,2},K_{1,2}) from (K_{1,1},K_{1,3})", 60):
        assert arrows(cycle(5), star(2), star(2)).arrows
        verdict = arrows(cycle(5), star(1), star(3))
        assert not verdict.arrows
        assert coloring_is_free(cycle(5), verdict.witness, star(1), star(3))


def test_criterion_4_factor_extremal_133():
    with criterion(4, "F(3,3) is 3-regular on 76 vertices with a 3-factor and no 1-factor", 10):
        f, trace, cert = factor_extremal_graph(1, 3, 3)
        assert f.n == 76
        assert all(f.degree(v) == 3 for v in range(f.n))
        assert has_k_factor(f, 3) is not None
        assert has_k_factor(f, 1) is None
        hub_cert = belck_check(f, trace.hub, 1)
        assert hub_cert is not None
        assert hub_cert.odd_component_count == 3 > 1 * len(hub_cert.D)


def test_criterion_5_star_clique_equivalence():
    with criterion(
        5, "no distinguisher <= 6 vertices; walk recoloring over all hosts <= 9 edges", 1800
    ):
        scan = equivalence_scan(
            star(2), K3, star(2), clique_with_pendants(3, 1, 2), max_vertices=6
        )
        assert scan.kind == "no-distinguisher-found"
        assert not scan.skipped

        pendant = clique_with_pendants(3, 1, 2)
        checked = recolored = 0
        for m, graphs in graphs_by_edge_count(9).items():
            for g in graphs:
                edge_ix = {e: i for i, e in enumerate(g.edges)}
                vmasks = [
                    sum(1 << edge_ix[e] for e in g.edges if v in e) for v in range(g.n)
                ]
                pend_masks = copies_as_edge_sets(g, pendant)
                for bits in range(1 << m):
                    if any((bits & vm).bit_count() >= 2 for vm in vmasks):
                        continue  # red star
                    if any(bits & pm == 0 for pm in pend_masks):
                        continue  # blue pendant clique
                    c = EdgeColoring(
                        g,
                        red=[e for e, i in edge_ix.items() if bits >> i & 1],
                        blue=[e for e, i in edge_ix.items() if not bits >> i & 1],
                    )
                    out = star_clique_recolor(g, c, 2, 3)
                    checked += 1
                    if out != c:
                        recolored += 1
                    assert coloring_is_free(g, out, star(2), K3)
        assert checked > 50_000 and recolored > 1_000


def test_criterion_6_odd_distinguisher_witness():
    with criterion(
        6, "27-vertex gadget: free witness exact, positive direction exact + reduced claim", 600
    ):
        F, col = diameter_distinguisher(path(4), 3)
        assert F.n == 27 and F.m == 45
        assert coloring_is_free(F, col, path(4), clique_with_pendants(3, 1, 2))

        assert arrows(F, path(4), K3).arrows

        # Reduced claim on the standalone depth-1 gadget: every coloring has a
        # red P_4, a blue triangle, or two red edges at the root.
        lam = lambda_gadget(path(4), path(4), 1)
        g = lam.graph
        edge_ix = {e: i for i, e in enumerate(g.edges)}
        p4_masks = [np.uint32(c) for c in copies_as_edge_sets(g, path(4))]
        tri_masks = [
            np.uint32(sum(1 << edge_ix[tuple(sorted(p))] for p in itertools.combinations(t, 2)))
            for t in cliques_of_size(g, 3)
        ]
        root_mask = np.uint32(
            sum(1 << edge_ix[e] for e in g.edges if lam.root in e)
        )
        colorings = np.arange(1 << g.m, dtype=np.uint32)  # set bit = red
        covered = np.zeros(1 << g.m, dtype=bool)
        for mask in p4_masks:
            covered |= (colorings & mask) == mask
        for mask in tri_masks:
            covered |= (colorings & mask) == 0
        covered |= np.bitwise_count(colorings & root_mask) >= 2
        assert bool(covered.all())


def test_criterion_7_oracle_equivalence():
    with criterion(7, "pruned decider matches exhaustive scan on corpus + all small hosts", 1200):
        pairs = [(star(2), K3), (path(4), K3), (K3, K3)]
        rng = random.Random(20240809)
        for _ in range(500):
            host = random_graph(rng, n_range=(3, 10), max_edges=16)
            g, h = pairs[rng.randrange(3)]
            fast = arrows(host, g, h)
            slow = exhaustive_arrows(host, g, h)
            assert fast.arrows == slow.arrows, (host.edges, g.edges)
            if not fast.arrows:
                assert coloring_is_free(host, fast.witness, g, h)
        for host in graphs_up_to_vertices(5):
            for g, h in pairs:
                assert arrows(host, g, h).arrows == exhaustive_arrows(host, g, h).arrows


def test_criterion_8_woven_certificates():
    with criterion(8, "woven certificates on 200 random hosts, bounds 1 and 2(s+1)^2", 300):
        targets = [
            (star(2), 1),
            (star(3), 1),
            (suitable_caterpillar(1, 0), 8),
            (suitable_caterpillar(2, 0), 18),
            (suitable_caterpillar(2, 1), 18),
        ]
        rng = random.Random(88)
        built = 0
        while built < 200:
            T, bound = targets[built % len(targets)]
            host, uv = _pinned_host(rng, T)
            cert = yuv_certificate(host, uv, T)
            assert cert.k == bound
            u, v = uv
            assert sum(1 for e in cert.Y if u in e) <= bound
            assert sum(1 for e in cert.Y if v in e) <= bound
            assert contains_copy(host.without_edges(cert.Y), T) is None
            built += 1
        assert built == 200


def _pinned_host(rng, T):
    """Random host where one surviving edge lies in every copy of T."""
    while True:
        host = random_graph(rng, n_range=(5, 11), max_edges=20)
        if not host.edges:
            continue
        uv = host.edges[rng.randrange(host.m)]
        ok = True
        for _ in range(300):
            extra = contains_copy(host.without_edge(uv), T)
            if extra is None:
                break
            victims = sorted(extra.edge_image() - {uv})
            host = host.without_edge(victims[rng.randrange(len(victims))])
        else:
            ok = False
        if ok and uv in host.edge_set():
            return host, uv
