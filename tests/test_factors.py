import itertools
import random
from collections import Counter

import pytest

from ramseylab.arrowing import arrows
from ramseylab.enumeration import graphs_by_edge_count, graphs_up_to_vertices
from ramseylab.factors import (
    BelckCertificate,
    FactorWitness,
    belck_check,
    has_k_factor,
    odd_components,
    star_pair_regular_arrows,
)
from ramseylab.families import clique, cycle, factor_extremal_graph, path, star
from ramseylab.graphs import Graph
from conftest import random_graph
from oracles import brute_has_k_factor


def test_has_k_factor_examples(petersen):
    w = has_k_factor(cycle(6), 1)
    assert w is not None and w.edges in ({(0, 1), (2, 3), (4, 5)}, {(1, 2), (3, 4), (0, 5)})
    assert has_k_factor(cycle(5), 1) is None
    w2 = has_k_factor(petersen, 2)
    assert w2 is not None
    assert has_k_factor(clique(4), 0).edges == frozenset()
    with pytest.raises(ValueError):
        has_k_factor(clique(4), -1)


def test_factor_witness_invariant_enforced():
    with pytest.raises(ValueError):
        FactorWitness(cycle(4), 1, frozenset({(0, 1), (1, 2)}))
    with pytest.raises(ValueError):
        FactorWitness(cycle(4), 1, frozenset({(0, 2)}))


def test_against_subset_oracle_all_graphs_up_to_10_edges():
    levels = graphs_by_edge_count(10)
    for m, graphs in levels.items():
        for g in graphs:
            for k in range(4):
                got = has_k_factor(g, k)
                assert (got is not None) == brute_has_k_factor(g, k), (g.edges, k)


def test_belck_examples():
    assert belck_check(clique(4), [], 1) is None
    cert = belck_check(star(3), [0], 1)
    assert cert is not None and cert.odd_component_count == 3
    f, trace, _ = factor_extremal_graph(1, 3, 3)
    cert = belck_check(f, trace.hub, 1)
    assert cert is not None and cert.odd_component_count == 3
    with pytest.raises(ValueError):
        belck_check(clique(3), [5], 1)
    with pytest.raises(ValueError):
        belck_check(clique(3), [0], 2)


def test_belck_certificate_validation():
    with pytest.raises(ValueError):
        BelckCertificate(star(3), 1, frozenset({0}), 2)  # wrong count
    with pytest.raises(ValueError):
        BelckCertificate(clique(4), 1, frozenset({0}), odd_components(clique(4), {0}))


def test_soundness_link_certificate_implies_no_factor():
    rng = random.Random(31)
    tested = 0
    for _ in range(250):
        g = random_graph(rng, n_range=(2, 8), max_edges=10)
        D = set(rng.sample(range(g.n), rng.randint(0, min(3, g.n))))
        for p in (1, 3):
            cert = belck_check(g, D, p)
            if cert is not None:
                assert has_k_factor(g, p) is None
                tested += 1
    assert tested > 20


def test_star_pair_regular_arrows_examples():
    assert star_pair_regular_arrows(cycle(5), 2, 2) is True
    assert star_pair_regular_arrows(cycle(6), 2, 2) is False
    # a = 1: the empty 0-regular part always completes a decomposition
    assert star_pair_regular_arrows(cycle(6), 1, 3) is False
    with pytest.raises(ValueError):
        star_pair_regular_arrows(path(4), 2, 2)


def _cycle_partitions(n: int, least: int = 3):
    """Partitions of n into parts >= 3, each as a non-decreasing tuple."""
    if n == 0:
        yield ()
    for part in range(least, n + 1):
        for rest in _cycle_partitions(n - part, part):
            yield (part, *rest)


# The regular hosts on at most 12 vertices with 1 to 12 edges, one per class, by (n, r).
REGULAR_HOST_COUNTS = {
    (2, 1): 1, (4, 1): 1, (6, 1): 1, (8, 1): 1, (10, 1): 1, (12, 1): 1,
    (3, 2): 1, (4, 2): 1, (5, 2): 1, (6, 2): 2, (7, 2): 2, (8, 2): 3,
    (9, 2): 4, (10, 2): 5, (11, 2): 6, (12, 2): 9,
    (4, 3): 1, (6, 3): 2, (8, 3): 6, (5, 4): 1, (6, 4): 1,
}


def test_star_pair_agrees_with_arrowing_on_regular_graphs():
    # On 9 to 12 vertices, 12 edges leave room only for degree 1 (a perfect
    # matching) or 2 (a union of cycles, one per partition of n into parts >= 3).
    small = [g for g in graphs_up_to_vertices(8) if 1 <= g.m <= 12 and len(set(map(g.degree, range(g.n)))) == 1]
    matchings = [Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)]) for n in (10, 12)]
    # A union of cycles, each cycle's labels following the previous ones.
    cycles = [
        Graph(n, [(s + i, s + (i + 1) % k) for s, k in zip(starts, parts) for i in range(k)])
        for n in range(9, 13)
        for parts in _cycle_partitions(n)
        for starts in [itertools.accumulate(parts, initial=0)]
    ]
    hosts = small + matchings + cycles
    assert Counter((f.n, f.degree(0)) for f in hosts) == REGULAR_HOST_COUNTS
    for f in hosts:
        r = f.degree(0)
        for a in range(1, r + 2):
            b = r + 2 - a
            want = arrows(f, star(a), star(b)).arrows
            assert star_pair_regular_arrows(f, a, b) == want, (f.edges, a, b)


def test_extremal_graph_separates_star_pairs():
    # Same edge total 5, but {2,3} vs {1,4} is not an all-odd pair, so the
    # families differ; F(3,3) is the separating host: it keeps its own
    # 3-factor (so the {1,4} side decomposes) yet has no 1-factor.
    f, _, _ = factor_extremal_graph(1, 3, 3)
    assert star_pair_regular_arrows(f, 2, 3) is True
    assert star_pair_regular_arrows(f, 3, 2) is True
    assert star_pair_regular_arrows(f, 4, 1) is False
    assert star_pair_regular_arrows(f, 1, 4) is False
