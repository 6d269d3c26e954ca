"""The two coloring transformations behind the equivalence results.

Walk recoloring: given a coloring free of red stars and blue pendant-cliques,
an alternating walk seeded inside a blue clique is flipped, strictly reducing
the number of blue cliques while keeping the coloring star-free, until no
blue clique is left.

Woven recoloring: given a coloring free of (G, K_t with a pendant blocks),
blue t-cliques are broken by flipping a matching inside each member of a
maximal scattered family, and the red G-copies this creates are killed again
by flipping small hitting sets (the woven certificates) back to blue.
Every postcondition the underlying proofs promise is asserted at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrowing import coloring_is_free
from .errors import InvariantViolationError
from .families import clique, clique_with_pendants, star
from .graphs import BLUE, RED, Edge, EdgeColoring, Graph, bits, edge
from .subgraph import cliques_of_size, contains_copy, copies_as_edge_sets
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


def _blue_cliques(c: EdgeColoring, t: int) -> list[tuple[int, ...]]:
    return list(cliques_of_size(c.adjacency(BLUE), t))


def _has_red_star(c: EdgeColoring, s: int) -> bool:
    return any(a.bit_count() >= s for a in c.adjacency(RED))


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
    if s < 2 or t < 3:
        raise ValueError("the walk transformation needs s >= 2 and t >= 3")
    if c.host != f:
        raise ValueError("coloring does not belong to f")
    pendant = clique_with_pendants(t, 1, 2)
    if not coloring_is_free(f, c, star(s), pendant):
        raise ValueError("input coloring is not free of red stars / blue pendant cliques")
    blue_cliques = _blue_cliques(c, t)
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

    visited: set[Edge] = set()
    clique_visited: set[int] = set()

    def in_clique_edges(idx: int) -> list[Edge]:
        members = blue_cliques[idx]
        return [edge(a, b) for i, a in enumerate(members) for b in members[i + 1 :]]

    seed = min(e for idx in range(len(blue_cliques)) for e in in_clique_edges(idx))
    visited.add(seed)
    clique_visited.add(clique_of[seed[0]])

    def extend(start: int) -> list[Edge]:
        out: list[Edge] = []
        cur = start
        while True:
            red_next = [
                edge(cur, w)
                for w in f.neighbors(cur)
                if edge(cur, w) in c.red and edge(cur, w) not in visited
            ]
            if not red_next:
                return out  # endpoint of the last blue edge has no red way out
            e = min(red_next)
            visited.add(e)
            out.append(e)
            cur = e[0] if e[1] == cur else e[1]
            idx = clique_of.get(cur)
            if idx is None or idx in clique_visited:
                return out  # off the cliques, or meeting a visited one: stop
            blue_next = [
                edge(cur, w) for w in blue_cliques[idx] if w != cur
            ]
            e = min(e2 for e2 in blue_next if e2 not in visited)
            visited.add(e)
            out.append(e)
            clique_visited.add(idx)
            cur = e[0] if e[1] == cur else e[1]

    tail = extend(seed[1])
    head = extend(seed[0])
    walk = tuple(reversed(head)) + (seed,) + tuple(tail)
    trace = WalkTrace(
        edges=walk,
        colors_before=tuple(c.color(e) for e in walk),
        start_edge=seed,
    )
    flipped = c.flipped(walk)

    if _has_red_star(flipped, s):
        raise InvariantViolationError("walk flip created a red star")
    before, after = len(blue_cliques), len(_blue_cliques(flipped, t))
    if after >= before:
        raise InvariantViolationError(
            f"walk flip failed to reduce blue cliques: {before} -> {after}"
        )
    if contains_copy(flipped.adjacency(BLUE), pendant):
        raise InvariantViolationError("walk flip created a blue pendant clique")
    return flipped, trace


def star_clique_recolor(f: Graph, c: EdgeColoring, s: int, t: int) -> EdgeColoring:
    """Iterate the walk step until no blue K_t remains.

    Turns any (K_{1,s}, K_t.K_2)-free coloring into a (K_{1,s}, K_t)-free one;
    termination is forced by the strict decrease each step asserts.
    """
    if not coloring_is_free(f, c, star(s), clique_with_pendants(t, 1, 2)):
        raise ValueError("input coloring is not free of red stars / blue pendant cliques")
    remaining = len(_blue_cliques(c, t))
    while remaining > 0:
        c, _ = alternating_walk_step(f, c, s, t)
        remaining = len(_blue_cliques(c, t))
    if not coloring_is_free(f, c, star(s), clique(t)):
        raise InvariantViolationError("walk iteration ended on a non-free coloring")
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
        return sorted(edge(w, x) for x in f_prime.neighbors(w))

    if not contains_copy(f.adj, T):
        y: frozenset[Edge] = frozenset()
    elif kind == "star":
        pick = []
        if edges_at(u):
            pick.append(edges_at(u)[0])
        if edges_at(v):
            pick.append(edges_at(v)[0])
        y = frozenset(pick)
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

    Follows the proof pipeline: collect the saturated vertices U_K of every
    blue K_t (those with a large blue complete neighborhood outside K), pick a
    maximal family of blue cliques pairwise sharing fewer than `a` vertices,
    flip a maximum matching inside each member (phi2), then hit every red
    G-copy those flips created with woven certificates and flip the hitting
    sets back to blue (phi3).  The intersection and saturation claims and the
    final freeness are all asserted.
    """
    if a < 1 or b < 2:
        raise ValueError("need a >= 1 and b >= 2")
    if phi1.host != f:
        raise ValueError("coloring does not belong to f")
    woven = tree_classify(G).woven
    if woven is None:
        raise ValueError(_NOT_WOVEN)
    k = woven[2]
    r = (b - 2) * (G.n - 1) + 1
    threshold = 4 * k + 2 * (r + (a - 1) * (b - 1)) + (a - 1)
    if t < threshold:
        raise ValueError(f"t={t} is below the pipeline threshold {threshold}")
    target = clique_with_pendants(t, a, b)
    if not coloring_is_free(f, phi1, G, target):
        raise ValueError("input coloring is not free for the pendant-clique pair")

    rho = r + (a - 1) * (b - 1)
    blue = phi1.adjacency(BLUE)
    blue_cliques = list(cliques_of_size(blue, t))

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

    u_k = {members: saturated(members) for members in blue_cliques}

    family: list[tuple[int, ...]] = []
    for members in blue_cliques:  # lexicographic order from the clique enumeration
        if all(len(set(members) & set(other)) < a for other in family):
            family.append(members)

    for i, ka in enumerate(family):
        if len(u_k[ka]) > a - 1:
            raise InvariantViolationError(
                f"saturated set larger than a-1 in family member {ka}"
            )
        for kb in family[i + 1 :]:
            common = set(ka) & set(kb)
            if not common <= (u_k[ka] & u_k[kb]):
                raise InvariantViolationError(
                    f"family members {ka} and {kb} overlap outside their saturated sets"
                )

    matching: list[Edge] = []
    for members in family:
        free = sorted(set(members) - u_k[members])
        matching.extend(edge(free[2 * i], free[2 * i + 1]) for i in range(len(free) // 2))
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

    all_y = frozenset().union(*y_sets) if y_sets else frozenset()
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
        U_K_sets=tuple(u_k[members] for members in family),
        family_B=tuple(family),
        matching_M=tuple(matching),
        Y_sets=tuple(y_sets),
    )
    return phi3, trace
