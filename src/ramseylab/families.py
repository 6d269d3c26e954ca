"""Constructors for the gadgets and their witness colorings.

The basic named graphs (star, path, clique, cycle, K_t . aK_b) live only in
`graphs`, below every search; this module builds on them.  Every constructor
uses a fixed canonical labeling (hub/clique vertices first, then attached
blocks in index order) so outputs are byte-for-byte reproducible in graph6.
Witness colorings come paired with the gadgets that have one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .factors import BelckCertificate
from .graphs import Edge, EdgeColoring, Graph, clique, cycle, edge
from .subgraph import cliques_of_size
from .trees import tree_classify

# -- domain types -----------------------------------------------------------


@dataclass(frozen=True)
class RootedGadget:
    graph: Graph
    root: int
    co_root: int | None = None
    witness_coloring: EdgeColoring | None = None

    def __post_init__(self):
        for v in (self.root, self.co_root):
            if v is not None and not 0 <= v < self.graph.n:
                raise ValueError(f"root {v} outside the gadget's vertex range")
        if self.witness_coloring is not None and self.witness_coloring.host != self.graph:
            raise ValueError("witness coloring does not color the gadget")


@dataclass(frozen=True)
class DeterminerGadget:
    graph: Graph
    beta: Edge

    def __post_init__(self):
        if edge(*self.beta) not in self.graph.edge_set():
            raise ValueError(f"beta {self.beta} is not an edge of the determiner")


@dataclass(frozen=True)
class ConstructionTrace:
    """Intermediate stages of the regular factor-extremal construction."""

    params: tuple[int, int, int, int]  # (p, q, r, t)
    g_stage: Graph
    m_g: tuple[Edge, ...]
    m_q: tuple[Edge, ...]
    h_stage: Graph
    u_vertex: int
    hub: tuple[int, ...]
    q_factor: tuple[Edge, ...]


# -- trees --------------------------------------------------------------------


def suitable_caterpillar(s: int, mid: int) -> Graph:
    """The s-suitable caterpillar: spine a=0, b=1, c=2, then s leaves at a,
    `mid` at b and s at c.

    The endpoints have degree exactly s+1, and the middle at most s+1, which
    needs 0 <= mid <= s-1.
    """
    if s < 1:
        raise ValueError("s must be at least 1")
    if not 0 <= mid <= s - 1:
        raise ValueError(f"middle leaf count must lie in 0..{s - 1}")
    anchors = [0] * s + [1] * mid + [2] * s
    g = Graph(3 + len(anchors), [(0, 1), (1, 2), *((a, 3 + i) for i, a in enumerate(anchors))])
    assert g.degree(0) == g.degree(2) == s + 1 and g.degree(1) <= s + 1
    return g


def uniform_tree(k: int, i: int) -> RootedGadget:
    """U_{k,i}: rooted at 0, every non-leaf has k children, leaves at depth i.

    Labelled breadth-first: vertex v's children are v*k+1 .. v*k+k, so the
    non-leaves are 0 .. (n-1)/k - 1.
    """
    if k < 1 or i < 0:
        raise ValueError("need k >= 1 and i >= 0")
    n = sum(k**j for j in range(i + 1))
    edges = [(v, v * k + c) for v in range((n - 1) // k) for c in range(1, k + 1)]
    return RootedGadget(Graph(n, edges), root=0)


# -- recursive tree-of-cliques gadgets ---------------------------------------


def lambda_gadget(T: Graph, Gamma: Graph, i: int) -> RootedGadget:
    """The depth-i skeleton gadget for T with block graph Gamma, plus its coloring.

    Starts from U_{k,i} with k = maxdeg(T) * |V(Gamma)|; the children of each
    non-leaf are grouped into maxdeg(T) disjoint Gamma copies.  The witness
    coloring paints the skeleton red and every Gamma copy blue; for
    i < diam(T) its red part is too shallow to hold T.
    """
    if not T.is_tree():
        raise ValueError("T must be a tree")
    if i < 0:
        raise ValueError("depth must be nonnegative")
    d = max((T.degree(v) for v in range(T.n)), default=0)
    if d == 0 or Gamma.n == 0:
        raise ValueError("T must have an edge and Gamma must be nonempty")
    k = d * Gamma.n
    skeleton = uniform_tree(k, i).graph
    blue_edges = []
    for v in range((skeleton.n - 1) // k):  # the non-leaves
        for j in range(d):  # block j of v's children starts at v*k+1+j*|Gamma|
            base = v * k + 1 + j * Gamma.n
            blue_edges.extend((base + a, base + b) for a, b in Gamma.edges)
    graph = Graph(skeleton.n, skeleton.edges + tuple(blue_edges))
    witness = EdgeColoring(graph, red=skeleton.edges, blue=blue_edges)
    return RootedGadget(graph, root=0, witness_coloring=witness)


def c_gadget(gamma_prime: Graph) -> RootedGadget:
    """Two non-adjacent roots joined completely to a copy of gamma_prime.

    Witness coloring: the gamma_prime edges blue, all root edges red.
    """
    if gamma_prime.n == 0:
        raise ValueError("gamma_prime must be nonempty")
    shift = 2
    inner = [(a + shift, b + shift) for a, b in gamma_prime.edges]
    bipartite = [(r, v + shift) for r in (0, 1) for v in range(gamma_prime.n)]
    graph = Graph(gamma_prime.n + 2, inner + bipartite)
    witness = EdgeColoring(graph, red=bipartite, blue=inner)
    return RootedGadget(graph, root=0, co_root=1, witness_coloring=witness)


def _vertex_folkman_check(J: Graph, t: int) -> bool:
    """Every vertex 2-coloring of J contains a vertex-monochromatic K_{t-1}."""
    if J.n > 20:
        raise ValueError("exhaustive vertex-coloring check capped at 20 vertices")
    cliques = cliques_of_size(J.adj, t - 1)
    masks = [sum(1 << v for v in c) for c in cliques]
    for assignment in range(1 << J.n):
        if not any(mask & assignment == mask or mask & assignment == 0 for mask in masks):
            return False
    return True


def _glue(
    base_edges: list[Edge],
    n: int,
    gadget: Graph,
    attach: dict[int, int],
) -> tuple[int, dict[int, int]]:
    """Append a gadget's edges to `base_edges`, identifying the vertices in
    `attach` with base labels.

    Returns the new vertex count and the gadget->base label map.
    """
    mapping = dict(attach)
    for v in range(gadget.n):
        if v not in mapping:
            mapping[v] = n
            n += 1
    for a, b in gadget.edges:
        base_edges.append((mapping[a], mapping[b]))
    return n, mapping


def diameter_distinguisher(
    T: Graph,
    t: int,
    Gamma: Graph | None = None,
    GammaPrime: Graph | None = None,
    J: Graph | None = None,
) -> tuple[Graph, EdgeColoring]:
    """The gadget that arrows (T, K_t) but carries a (T, K_t.K_2)-free coloring.

    Odd diameter 2r+1: a K_t hub with a depth-r skeleton gadget rooted at each
    hub vertex.  Even diameter 2r: each hub vertex roots `a` double-rooted C
    gadgets (each continuing into a depth-(r-2) gadget) plus one depth-(r-1)
    gadget, where `a` counts the central vertex's longest-path neighbors
    beyond the strongest one.

    Only structural properties of the ingredients are validated here (clique
    freeness, and J's vertex-coloring property, exhaustively).  That Gamma
    arrows (T, K_{t-1}) and GammaPrime arrows (T, J) is the caller's burden;
    both conditions are needed for the positive arrowing direction, not for
    the returned coloring to be free.
    """
    if t < 3:
        raise ValueError("t must be at least 3")
    profile = tree_classify(T)
    if not profile.in_Tprime:
        raise ValueError("T is outside the even/odd gadget class; no construction applies")
    if Gamma is None:
        if t != 3:
            raise ValueError("no default Gamma available for t > 3; supply one")
        Gamma = T  # triangle-free, and arrows (T, K_2): color anything.
    if next(cliques_of_size(Gamma.adj, t), None) is not None:
        raise ValueError("Gamma must not contain K_t")

    hub = clique(t)
    edges = list(hub.edges)
    n = t
    red: list[Edge] = []
    blue: list[Edge] = list(hub.edges)

    def glue_with_witness(gadget: RootedGadget, attach: dict[int, int]) -> dict[int, int]:
        nonlocal n
        n, mapping = _glue(edges, n, gadget.graph, attach)
        w = gadget.witness_coloring
        if w is not None:
            red.extend((mapping[a], mapping[b]) for a, b in w.red)
            blue.extend((mapping[a], mapping[b]) for a, b in w.blue)
        return mapping

    if profile.diameter % 2 == 1:
        r = profile.diameter // 2  # diameter 2r+1
        lam = lambda_gadget(T, Gamma, r)
        for u in range(t):
            glue_with_witness(lam, {lam.root: u})
    else:
        r = profile.diameter // 2  # diameter 2r, at least 4 in T'
        if J is None:
            if t != 3:
                raise ValueError("no default J available for t > 3; supply one")
            J = cycle(5)
        if next(cliques_of_size(J.adj, t), None) is not None:
            raise ValueError("J must not contain K_t")
        if not _vertex_folkman_check(J, t):
            raise ValueError("J fails its vertex-coloring property")
        if GammaPrime is None:
            raise ValueError("the even-diameter construction needs GammaPrime")
        if next(cliques_of_size(GammaPrime.adj, t), None) is not None:
            raise ValueError("GammaPrime must not contain K_t")
        a = len(profile.on_path) - 1
        cg = c_gadget(GammaPrime)
        lam_outer = lambda_gadget(T, Gamma, r - 1)
        lam_inner = lambda_gadget(T, Gamma, r - 2)
        for u in range(t):
            for _ in range(a):
                mapping = glue_with_witness(cg, {cg.root: u})
                glue_with_witness(lam_inner, {lam_inner.root: mapping[cg.co_root]})
            glue_with_witness(lam_outer, {lam_outer.root: u})

    graph = Graph(n, edges)
    witness = EdgeColoring(graph, red=red, blue=blue)
    return graph, witness


# -- the regular graph with a q-factor and no p-factor ------------------------


def factor_extremal_graph(p: int, q: int, r: int):
    """Three-stage construction of an r-regular F(q, r) with a q-factor and no p-factor.

    Returns (F, trace, certificate).  Stage one tiles K_{q+1} blocks joined by
    column matchings; stage two folds a fixed matching into a new vertex u;
    stage three wires q*t copies of that graph to a K_t hub, with t and the
    hub wiring depending on the parity of r.  The hub is the Belck set.
    """
    if p % 2 == 0 or q % 2 == 0:
        raise ValueError("p and q must be odd")
    if p < 1:
        raise ValueError("p must be positive")
    if r % 2 == 1:
        if not p < q <= r:
            raise ValueError("odd r needs p < q <= r")
    else:
        if not p < q <= r // 2:
            raise ValueError("even r needs p < q <= r/2")

    s = r - q + 1  # blocks per column
    cols = 2 * r
    bsize = q + 1

    def block_base(i: int, j: int) -> int:
        # i in 1..s, j in 1..cols; columns are laid out consecutively.
        return ((j - 1) * s + (i - 1)) * bsize

    g_edges: list[Edge] = []
    gq_edges: list[Edge] = []
    for j in range(1, cols + 1):
        for i in range(1, s + 1):
            base = block_base(i, j)
            block_clique = list(itertools.combinations(range(base, base + bsize), 2))
            g_edges.extend(block_clique)
            gq_edges.extend(block_clique)
        for i1, i2 in itertools.combinations(range(1, s + 1), 2):
            b1, b2 = block_base(i1, j), block_base(i2, j)
            g_edges.extend((b1 + x, b2 + x) for x in range(bsize))
    g_n = cols * s * bsize
    g_stage = Graph(g_n, g_edges)

    # Matching M_G: M_q, (q-1)/2 independent edges inside Q_{1,1} (so also in
    # G_q), then one edge from the Q_{1,j}-Q_{2,j} matching for
    # j = 2..floor((r-q+2)/2).  Every edge here and in stage one is (low, high),
    # and M_G comes out in increasing order, as the trace lists it.
    m_q: list[Edge] = [(2 * x, 2 * x + 1) for x in range((q - 1) // 2)]
    m_g = m_q + [(block_base(1, j), block_base(2, j)) for j in range(2, (r - q + 2) // 2 + 1)]
    assert len(m_g) == (r - 1) // 2

    # Stage two: new vertex u replaces each matching edge vw by uv, uw.
    u = g_n
    h_n = g_n + 1
    h_edges = [e for e in g_edges if e not in m_g]
    h_edges.extend((u, x) for e in m_g for x in e)
    hq_edges = [e for e in gq_edges if e not in m_q]
    hq_edges.extend((u, x) for e in m_q for x in e)
    h_stage = Graph(h_n, h_edges)

    # Stage three: hub K_t plus q*t disjoint copies of H.
    t = r - q + 1 if r % 2 == 1 else r - 2 * q + 1
    # Boundary repair: at q = r/2 the even-parity wiring would collapse
    # (U_{j+1} = U_j), so use two non-adjacent hub vertices, each joined to
    # every u-vertex.  Regularity, the q-factor, and 2p < 2q all survive.
    hub_is_clique = True
    if r % 2 == 0 and t == 1:
        t = 2
        hub_is_clique = False
    copies = q * t
    hub = tuple(range(t))
    f_edges: list[Edge] = list(itertools.combinations(hub, 2)) if hub_is_clique else []
    qf_edges: list[Edge] = []
    u_images = []
    for c in range(copies):
        offset = t + c * h_n
        f_edges.extend((a + offset, b + offset) for a, b in h_edges)
        qf_edges.extend((a + offset, b + offset) for a, b in hq_edges)
        u_images.append(u + offset)
    u_sets = [u_images[j * q : (j + 1) * q] for j in range(t)]
    for j in range(t):
        f_edges.extend((j, x) for x in u_sets[j])
        qf_edges.extend((j, x) for x in u_sets[j])
        if r % 2 == 0:
            f_edges.extend((j, x) for x in u_sets[(j + 1) % t])
    f = Graph(t + copies * h_n, f_edges)

    certificate = BelckCertificate(
        host=f, p=p, D=frozenset(hub), odd_component_count=copies
    )
    trace = ConstructionTrace(
        params=(p, q, r, t),
        g_stage=g_stage,
        m_g=tuple(m_g),
        m_q=tuple(m_q),
        h_stage=h_stage,
        u_vertex=u,
        hub=hub,
        q_factor=tuple(sorted(tuple(sorted(e)) for e in qf_edges)),
    )
    return f, trace, certificate


# -- determiner chains --------------------------------------------------------


def determiner_chain(T: Graph, D: DeterminerGadget) -> Graph:
    """Glue a fresh copy of the determiner along beta onto every edge of T.

    The copy for edge (x, y) identifies beta's endpoints with (x, y) in
    sorted order; all other determiner vertices are fresh.
    """
    if not T.is_tree() or T.m < 1:
        raise ValueError("T must be a tree with at least one edge")
    b1, b2 = D.beta
    edges = list(T.edges)
    n = T.n
    for x, y in T.edges:
        n, _ = _glue(edges, n, D.graph, {b1: x, b2: y})
    return Graph(n, edges)
