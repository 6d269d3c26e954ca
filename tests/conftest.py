import itertools
import random

import pytest

from ramseylab.arrowing import arrows
from ramseylab.graphs import BLUE, RED, Edge, Graph, clique, edge
from ramseylab.subgraph import _plan, _walk


@pytest.fixture
def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def random_graph(rng: random.Random, n_range=(2, 9), max_edges=16) -> Graph:
    n = rng.randint(*n_range)
    pool = list(itertools.combinations(range(n), 2))
    m = rng.randint(0, min(max_edges, len(pool)))
    return Graph(n, rng.sample(pool, m))


def copy_avoiding(host: Graph, uv: Edge, pattern: Graph) -> list[Edge] | None:
    """The sorted edges of the first copy of `pattern` that the walker finds in
    `host` less the edge uv, or None when every copy uses uv."""
    image = next(_walk(host.without_edge(uv).adj, _plan(pattern, (), ()), ()), None)
    if image is None:
        return None
    return sorted(edge(image[a], image[b]) for a, b in pattern.edges)


def case_nodes(n, g, h, degrees):
    """Nodes of `arrows` on K_n for each vertex-0 red degree d in `degrees`,
    with (0, i) pinned red for i <= d and blue above, up to the first free case."""
    nodes = []
    for d in degrees:
        pins = {(0, i): RED if i <= d else BLUE for i in range(1, n)}
        verdict = arrows(clique(n), g, h, pinned=pins)
        nodes.append(verdict.nodes_explored)
        if not verdict.arrows:
            break
    return nodes
