"""The two coloring transformations behind the equivalence results.

Walk recoloring: given a coloring free of red stars and blue pendant-cliques,
an alternating walk seeded inside a blue clique is flipped, strictly reducing
the number of blue cliques while keeping the coloring star-free, until no
blue clique is left.  The input is checked once; the result needs no final
check, since every step asserts that it made no red star.

Woven recoloring: given a coloring free of (G, K_t with a pendant blocks),
blue t-cliques are broken by flipping a matching inside each member of a
maximal scattered family, and the red G-copies this creates are killed again
by flipping small hitting sets (the woven certificates) back to blue.  The
saturated sets U_K are computed for the family members only, the one place
they are read.
Every postcondition the underlying proofs promise is asserted at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolationError
from .graphs import BLUE, RED, Edge, EdgeColoring, Graph, bits, clique_with_pendants, edge, star
from .subgraph import cliques_of_size, coloring_is_free, contains_copy, copies_as_edge_sets
from .trees import tree_classify

_NOT_WOVEN = "T is neither a star with >= 2 edges nor a suitable caterpillar"

# -- domain types -------------------------------------------------------------


@dataclass(frozen=True)
class WalkTrace:
    edges: tuple[Edge, ...]
    colors_before: tuple[str, ...]
    start_edge: Edge

    def __post_init__(self):
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("walk repeats an edge")
        if self.start_edge not in self.edges:
            raise ValueError("seed edge missing from the walk")
        if len(self.colors_before) != len(self.edges):
            raise ValueError("one recorded color per walk edge required")
        # Strictly alternating except possibly at the very ends.
        inner = self.colors_before[1:-1]
        for a, b in zip(inner, inner[1:]):
            if a == b:
                raise ValueError("walk colors fail to alternate away from the ends")


@dataclass(frozen=True)
class WovenCertificate:
    uv: Edge
    Y: frozenset[Edge]
    k: int

    def __post_init__(self):
        if self.uv in self.Y:
            raise ValueError("the pinned edge may not be in the hitting set")
        u, v = self.uv
        at_u = sum(1 for e in self.Y if u in e)
        at_v = sum(1 for e in self.Y if v in e)
        if at_u > self.k or at_v > self.k:
            raise ValueError(
                f"hitting set exceeds the woven bound: {at_u} at u, {at_v} at v, k={self.k}"
            )


@dataclass(frozen=True)
class RecolorTrace:
    U_K_sets: tuple[frozenset[int], ...]
    family_B: tuple[tuple[int, ...], ...]
    matching_M: tuple[Edge, ...]
    Y_sets: tuple[frozenset[Edge], ...]


# -- alternating-walk recoloring ----------------------------------------------


def _check_walk_input(f: Graph, c: EdgeColoring, s: int, t: int) -> None:
    if s < 2 or t < 3:
        raise ValueError("the walk transformation needs s >= 2 and t >= 3")
    if not coloring_is_free(f, c, star(s), clique_with_pendants(t, 1, 2)):
        raise ValueError("input coloring is not free of red stars / blue pendant cliques")


def alternating_walk_step(
    f: Graph, c: EdgeColoring, s: int, t: int
) -> tuple[EdgeColoring, WalkTrace]:
    """One flip of the greedy alternating walk; kills at least one blue K_t.

    Requires c to be (K_{1,s}, K_t.K_2)-free with at least one blue K_t.  The
    walk starts on the lowest edge inside a blue K_t and grows from both ends:
    a red edge, then a blue edge inside a newly met blue K_t, and so on; a
    direction stops when no unvisited red edge is available, or the walk
    reaches a blue K_t it already visited, or a vertex in no blue K_t.
    Flipping the walk keeps red stars away, creates no blue pendant clique,
    and strictly lowers the blue K_t count; all three are asserted.
    """
    _check_walk_input(f, c, s, t)
    blue_cliques = list(cliques_of_size(c.adjacency(BLUE), t))
    if not blue_cliques:
        raise ValueError("no blue clique to remove")

    clique_of: dict[int, int] = {}
    for idx, kq in enumerate(blue_cliques):
        for v in kq:
            if v in clique_of:
                raise InvariantViolationError(
                    "blue cliques intersect; the input coloring cannot be free"
                )
            clique_of[v] = idx

    # The cliques are disjoint and in lexicographic order, so the lowest edge
    # inside one is the first clique's first two vertices.  Every candidate
    # edge at a step contains the current vertex, so the lowest edge goes to
    # the lowest neighbour; a red edge is dropped from `red` once walked.
    seed = blue_cliques[0][:2]
    red = list(c.adjacency(RED))
    clique_visited = {0}

    def extend(cur: int) -> list[Edge]:
        out: list[Edge] = []
        while red[cur]:
            w = next(bits(red[cur]))
            red[cur] ^= 1 << w
            red[w] ^= 1 << cur
            out.append(edge(cur, w))
            cur = w
            idx = clique_of.get(cur)
            if idx is None or idx in clique_visited:
                return out  # off the cliques, or meeting a visited one: stop
            clique_visited.add(idx)
            w = next(x for x in blue_cliques[idx] if x != cur)
            out.append(edge(cur, w))
            cur = w
        return out  # endpoint of the last blue edge has no red way out

    tail = extend(seed[1])
    head = extend(seed[0])
    walk = tuple(reversed(head)) + (seed,) + tuple(tail)
    trace = WalkTrace(
        edges=walk,
        colors_before=tuple(c.color(e) for e in walk),
        start_edge=seed,
    )
    flipped = c.flipped(walk)

    if any(a.bit_count() >= s for a in flipped.adjacency(RED)):
        raise InvariantViolationError("walk flip created a red star")
    blue = flipped.adjacency(BLUE)
    before, after = len(blue_cliques), sum(1 for _ in cliques_of_size(blue, t))
    if after >= before:
        raise InvariantViolationError(
            f"walk flip failed to reduce blue cliques: {before} -> {after}"
        )
    if contains_copy(blue, clique_with_pendants(t, 1, 2)):
        raise InvariantViolationError("walk flip created a blue pendant clique")
    return flipped, trace


def star_clique_recolor(f: Graph, c: EdgeColoring, s: int, t: int) -> EdgeColoring:
    """Iterate the walk step until no blue K_t remains.

    Turns any (K_{1,s}, K_t.K_2)-free coloring into a (K_{1,s}, K_t)-free one;
    termination is forced by the strict decrease each step asserts.  The
    result needs no final check: the loop ends on no blue K_t, and there is
    no red K_{1,s} by the input check (no step) or by the last step's
    asserted postcondition.
    """
    _check_walk_input(f, c, s, t)
    while next(cliques_of_size(c.adjacency(BLUE), t), None) is not None:
        c, _ = alternating_walk_step(f, c, s, t)
    return c


# -- woven certificates --------------------------------------------------------


def _leaf_embeds_at(f: Graph, T: Graph, target: int) -> bool:
    """Is there a copy of T in f mapping some leaf of T onto `target`?"""
    leaves = [v for v in range(T.n) if T.degree(v) == 1]
    return any(contains_copy(f.adj, T, pins={leaf: target}) for leaf in leaves)


def yuv_certificate(f: Graph, uv: Edge, T: Graph) -> WovenCertificate:
    """Build the woven hitting set for an edge that lies in every copy of T.

    Star case: one surviving edge at each endpoint hits everything (k = 1).
    Caterpillar case: if an endpoint can be a leaf of a copy, all edges at the
    other endpoint suffice (falling back to both endpoints); otherwise the
    edges toward high-degree neighbors of u and v do (k = 2(s+1)^2).  The
    hitting property and the per-endpoint bounds are verified before
    returning.
    """
    woven = tree_classify(T).woven
    if woven is None:
        raise ValueError(_NOT_WOVEN)
    kind, s, k = woven
    uv = edge(*uv)
    if uv not in f.edge_set():
        raise ValueError(f"{uv} is not an edge of the host")
    u, v = uv
    f_prime = f.without_edge(uv)
    if contains_copy(f_prime.adj, T):
        raise ValueError("some copy of T avoids uv; the certificate is undefined")

    def edges_at(w: int) -> list[Edge]:
        return [edge(w, x) for x in f_prime.neighbors(w)]  # ascending

    if not contains_copy(f.adj, T):
        y: frozenset[Edge] = frozenset()
    elif kind == "star":
        y = frozenset(edges_at(u)[:1] + edges_at(v)[:1])
    else:
        leaf_u = _leaf_embeds_at(f, T, u)
        leaf_v = _leaf_embeds_at(f, T, v)
        if leaf_u or leaf_v:
            one_side = edges_at(v) if leaf_u else edges_at(u)
            # uv stays: a copy dodging the one-sided set may still use it.
            if not contains_copy(f.without_edges(one_side).adj, T):
                y = frozenset(one_side)
            else:
                y = frozenset(edges_at(u) + edges_at(v))
        else:
            n_u = [w for w in f_prime.neighbors(u) if f_prime.degree(w) >= s + 1]
            n_v = [w for w in f_prime.neighbors(v) if f_prime.degree(w) >= s + 1]
            y = frozenset([edge(u, w) for w in n_u] + [edge(v, w) for w in n_v])

    cert = WovenCertificate(uv=uv, Y=y, k=k)  # raises if a bound is exceeded
    if contains_copy(f.without_edges(y).adj, T):
        raise InvariantViolationError(
            "hitting set misses a copy of T; non-woven instance or a bug"
        )
    return cert


# -- the woven recoloring pipeline ----------------------------------------------


def woven_recolor(
    f: Graph,
    phi1: EdgeColoring,
    G: Graph,
    a: int,
    b: int,
    t: int,
) -> tuple[EdgeColoring, RecolorTrace]:
    """Turn a (G, K_t.aK_b)-free coloring into a (G, K_t)-free one.

    G must be a star or a suitable caterpillar.  Its shape fixes the woven
    bound k, and Chvatal's theorem gives r = R(G, K_{b-1}) = (b-2)(|G|-1)+1.

    Follows the proof pipeline: pick a maximal family of blue K_t's pairwise
    sharing fewer than `a` vertices, collect the saturated vertices U_K of
    each member K (those whose blue neighbours outside K span a K_rho of f,
    rho = r + (a-1)(b-1)), flip a maximum matching inside each member away
    from U_K (phi2), then hit every red G-copy those flips created with
    woven certificates and flip the hitting sets back to blue (phi3).  The
    intersection and saturation claims and the final freeness are all
    asserted.
    """
    if a < 1 or b < 2:
        raise ValueError("need a >= 1 and b >= 2")
    woven = tree_classify(G).woven
    if woven is None:
        raise ValueError(_NOT_WOVEN)
    k = woven[2]
    rho = (b - 2) * (G.n - 1) + 1 + (a - 1) * (b - 1)  # r + (a-1)(b-1)
    threshold = 4 * k + 2 * rho + (a - 1)
    if t < threshold:
        raise ValueError(f"t={t} is below the pipeline threshold {threshold}")
    target = clique_with_pendants(t, a, b)
    if not coloring_is_free(f, phi1, G, target):
        raise ValueError("input coloring is not free for the pendant-clique pair")

    blue = phi1.adjacency(BLUE)
    family: list[tuple[int, ...]] = []
    for members in cliques_of_size(blue, t):  # in lexicographic order
        if all(len(set(members) & set(other)) < a for other in family):
            family.append(members)

    def saturated(members: tuple[int, ...]) -> frozenset[int]:
        inside = set(members)
        out = []
        for uu in members:
            candidates = [w for w in bits(blue[uu]) if w not in inside]
            if len(candidates) >= rho and (
                next(cliques_of_size(f.induced(candidates).adj, rho), None) is not None
            ):
                out.append(uu)
        return frozenset(out)

    u_k = [saturated(members) for members in family]
    for i, (ka, ua) in enumerate(zip(family, u_k)):
        if len(ua) > a - 1:
            raise InvariantViolationError(
                f"saturated set larger than a-1 in family member {ka}"
            )
        for kb, ub in zip(family[i + 1 :], u_k[i + 1 :]):
            if not set(ka) & set(kb) <= ua & ub:
                raise InvariantViolationError(
                    f"family members {ka} and {kb} overlap outside their saturated sets"
                )

    matching: list[Edge] = []
    for members, ua in zip(family, u_k):
        free = [v for v in members if v not in ua]
        matching.extend(zip(free[::2], free[1::2]))
    matching.sort()
    phi2 = phi1.flipped(matching)

    # Red copies, the matching and the Y sets as masks over the red edges.
    red_edges = sorted(phi2.red)
    bit = {e: 1 << i for i, e in enumerate(red_edges)}
    red_copies = copies_as_edge_sets(phi2.adjacency(RED), G)
    matching_set = set(matching)
    later = sum(bit[e] for e in matching_set)
    hit = 0  # the union of the Y sets so far
    y_sets: list[frozenset[Edge]] = []
    for ei in matching:
        later ^= bit[ei]
        chosen = 0
        for copy in red_copies:
            if copy & bit[ei] and not copy & (hit | later):
                chosen |= copy
        if not chosen:
            y_sets.append(frozenset())
            continue
        sub = Graph(f.n, (e for i, e in enumerate(red_edges) if chosen >> i & 1))
        cert = yuv_certificate(sub, ei, G)
        if cert.Y & matching_set:
            raise InvariantViolationError("hitting set touched a matching edge")
        y_sets.append(cert.Y)
        hit |= sum(bit[e] for e in cert.Y)

    all_y = frozenset().union(*y_sets)
    phi3 = phi2.flipped(all_y)

    red = phi3.adjacency(RED)
    if contains_copy(red, G):
        first = copies_as_edge_sets(red, G)[0]
        survivor = [e for i, e in enumerate(sorted(phi3.red)) if first >> i & 1]
        raise InvariantViolationError(f"red copy of G survived the pipeline: {survivor}")
    blue_after = next(cliques_of_size(phi3.adjacency(BLUE), t), None)
    if blue_after is not None:
        raise InvariantViolationError(f"blue clique survived the pipeline: {blue_after}")

    trace = RecolorTrace(
        U_K_sets=tuple(u_k),
        family_B=tuple(family),
        matching_M=tuple(matching),
        Y_sets=tuple(y_sets),
    )
    return phi3, trace
