"""Subgraph containment and clique search.

A host is its adjacency masks, one int per vertex (`Graph.adj`, or one
color's `EdgeColoring.adjacency` for a red- or blue-restricted search); a
pattern is a `Graph`, because patterns key the plan cache.  Containment is
non-induced throughout: a copy of the pattern may sit inside a denser host
region.

One walker, `_walk`, runs every search.  It follows a plan compiled once per
pattern value: the order in which pattern vertices are placed, with each
vertex's degree and its already-placed neighbours.  `contains_copy` walks
the plain plan, or one pinning the given vertices, and stops at the first
map; `coloring_is_free` asks it of each color's masks.  `copy_through`
walks one plan per vertex orbit, pinned.
`copies_as_edge_sets` walks a plan that also carries the pattern's
symmetry-breaking conditions, lower bounds on image labels that let through
exactly one embedding of each copy, so it needs no dedupe.  Given the
host's edge-index table, the walker builds each copy's mask over the host's
edges (lexicographic order) as it goes: a step ORs in the edges to earlier
steps, so copies that share a prefix share its edges, and no edge tuples
are built; `copies_in_clique` builds K_n's copies from K_p's and p-subsets.

`cliques_of_size` answers the clique questions: the clique number and the
"contains K_k" checks.  It is the walker on K_k's plan, compiled by the same
rule as every other pattern's and cached per k.  On K_k the symmetry-breaking
conditions come out as the chain image[0] < ... < image[k-1], so each clique
is visited once, in increasing order, and a branch stops once too few
candidates are left to finish the clique.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterator, NamedTuple

from .graphs import BLUE, RED, EdgeColoring, Graph, bits


class _Plan(NamedTuple):
    """A compiled search: one entry per step in each field, in step order."""

    verts: tuple[int, ...]  # the pattern vertex each step places
    needs: tuple[int, ...]  # its degree, the least a host vertex needs
    backs: tuple[tuple[int, ...], ...]  # its neighbours placed earlier
    lows: tuple[tuple[int, ...], ...]  # earlier vertices whose images it must exceed
    rooms: tuple[int, ...]  # the fewest candidates it needs left, see `_compile`


def _compile(
    pattern: Graph, pinned: tuple[int, ...], breaks: tuple[tuple[int, int], ...]
) -> _Plan:
    """The search plan for `pattern`.

    Pinned vertices come first, in the given order.  Each later step places the
    unplaced vertex with the most placed neighbours, then the highest degree,
    then the lowest label, so the order stays connected where it can.  A
    condition (a, b) of `breaks` asks for image[a] < image[b]; a must come
    before b in the order, and the bound is checked at b's step.  A bound
    that two others imply (a < c and c < b give a < b) is dropped.

    A step's room counts itself and the later steps it reaches through chains
    of such bounds whose placed neighbours include all of its own.  Each of
    those needs a distinct image above its image that is also one of its
    candidates, so a step with fewer candidates left than its room fails.
    A pinned step has one candidate, its target, and room 1.
    """
    verts: list[int] = []
    placed = 0
    while len(verts) < pattern.n:
        if len(verts) < len(pinned):
            v = pinned[len(verts)]
        else:
            v = max(
                (v for v in range(pattern.n) if not placed >> v & 1),
                key=lambda v: ((pattern.adj[v] & placed).bit_count(), pattern.degree(v), -v),
            )
        verts.append(v)
        placed |= 1 << v
    lows = []
    for v in verts:
        below = [a for a, b in breaks if b == v]
        lows.append(tuple(a for a in below if not any((a, c) in breaks for c in below)))
    backs = [tuple(u for u in verts[:i] if pattern.has_edge(u, v)) for i, v in enumerate(verts)]
    rooms = [1] * len(verts)
    if breaks:  # most plans have none: one per representative the store searches with
        under: list[set[int]] = []  # the steps that reach each step through chains of bounds
        for j in range(len(verts)):
            steps = [verts.index(a) for a in lows[j]]
            under.append(set(steps).union(*(under[i] for i in steps)))
            for i in under[j]:
                if i >= len(pinned) and set(backs[i]) <= set(backs[j]):
                    rooms[i] += 1
    return _Plan(
        tuple(verts),
        tuple(pattern.degree(v) for v in verts),
        tuple(backs),
        tuple(lows),
        tuple(rooms),
    )


_plan = functools.lru_cache(maxsize=256)(_compile)


@functools.lru_cache(maxsize=256)
def _orbit_breaks(pattern: Graph) -> tuple[tuple[int, int], ...]:
    """Symmetry-breaking conditions (a, b), meaning image[a] < image[b].

    Grochow & Kellis (RECOMB 2007): walk the vertices v in search order,
    fixing each in turn; for every w in v's orbit under the automorphisms
    that fix the earlier vertices, ask image[v] < image[w].  Exactly one
    embedding of each copy meets all of them.  w is in that orbit iff a
    self-embedding pins the earlier vertices and sends v to w, so the group
    itself is never listed.  These pinned plans are compiled without the
    cache: each is used once, and would push hot plans out.
    """
    order = _compile(pattern, (), ()).verts
    breaks = []
    for i, v in enumerate(order):
        plan = _compile(pattern, (*order[:i], v), ())
        for w in order[i + 1 :]:
            if next(_walk(pattern.adj, plan, (*order[:i], w)), None) is not None:
                breaks.append((v, w))
    return tuple(breaks)


def _walk(
    adj: tuple[int, ...],
    plan: _Plan,
    targets: tuple[int, ...],
    index: list[dict[int, int]] | None = None,
    degrees: list[int] | None = None,
) -> Iterator:
    """Yield the image of every map of the plan's pattern into the host `adj`.

    The first len(targets) steps place pinned vertices, each on its target.
    Maps come in search order: each step tries its candidates in increasing
    label order.  The yielded list is indexed by pattern vertex and is
    overwritten as the search goes on, so a caller copies what it keeps.

    Given the host's edge-index table (`index[a][b]` is edge ab's bit), each
    map is yielded as the int mask of its image's edges instead.  A step ORs
    the bits of its edges to earlier steps into the mask of the step before,
    so maps that share a prefix share its edges.  `degrees`, the host's
    vertex degrees, saves a caller that walks one host many times from
    counting them on each walk.
    """
    verts, needs, backs, lows, rooms = plan
    n = len(verts)
    image = [-1] * n
    if n == 0:
        yield image if index is None else 0
        return
    if degrees is None:
        degrees = [a.bit_count() for a in adj]
    allowed = [1 << h for h in targets] + [(1 << len(adj)) - 1] * (n - len(targets))
    saved = [0] * n
    masks = [0] * (n + 1)  # masks[i]: the edges that steps before i placed
    used = 0
    i = 0
    cand = allowed[0]
    while True:
        if cand.bit_count() >= rooms[i]:
            low = cand & -cand
            cand ^= low
            h = low.bit_length() - 1
            if degrees[h] < needs[i]:
                continue
            image[verts[i]] = h
            if index is not None:
                mask, row = masks[i], index[h]
                for w in backs[i]:
                    mask |= 1 << row[image[w]]
                masks[i + 1] = mask
            if i + 1 == n:
                yield image if index is None else masks[n]
                continue
            saved[i] = cand
            used |= low
            i += 1
            cand = allowed[i] & ~used
            for w in backs[i]:
                cand &= adj[image[w]]
            for a in lows[i]:
                cand &= -(2 << image[a])  # labels above image[a]
        else:
            i -= 1
            if i < 0:
                return
            used ^= 1 << image[verts[i]]
            cand = saved[i]


@functools.lru_cache(maxsize=256)
def _orbit_plans(pattern: Graph) -> tuple[_Plan, ...]:
    """Per vertex orbit of the pattern's automorphisms, a plan pinning its least u.

    w is in u's orbit iff a self-embedding sends u to w: the pinned self-walk
    of `_orbit_breaks`.  A map sending w to some host vertex, composed with
    such an automorphism, sends u there instead, so u stands for its orbit.
    """
    plans = []
    seen = 0
    for u in range(pattern.n):
        if not seen >> u & 1:
            plans.append(_compile(pattern, (u,), ()))
            for w in range(u, pattern.n):
                if next(_walk(pattern.adj, plans[-1], (w,)), None) is not None:
                    seen |= 1 << w
    return tuple(plans)


def contains_copy(
    adj: tuple[int, ...], pattern: Graph, pins: dict[int, int] | None = None
) -> bool:
    """True iff the host with adjacency masks `adj` has a copy of `pattern`.

    `pins` forces specific pattern vertices onto specific host vertices.  The
    empty pattern embeds trivially.
    """
    if len(adj) < pattern.n:
        return False
    targets: tuple[int, ...] = ()
    if pins:
        for p, h in pins.items():
            if not (0 <= p < pattern.n and 0 <= h < len(adj)):
                raise ValueError(f"pin {p}->{h} out of range")
        targets = tuple(pins.values())
        if len(set(targets)) != len(targets):
            return False
    return next(_walk(adj, _plan(pattern, tuple(pins or ()), ()), targets), None) is not None


def coloring_is_free(f: Graph, c: EdgeColoring, g: Graph, h: Graph) -> bool:
    """True iff c has no red-restricted copy of g and no blue-restricted copy of h."""
    if c.host != f:
        raise ValueError("coloring domain mismatch: coloring does not belong to f")
    return not contains_copy(c.adjacency(RED), g) and not contains_copy(c.adjacency(BLUE), h)


def copy_through(adj: tuple[int, ...], pattern: Graph, v: int) -> bool:
    """True iff some copy of `pattern` in the host with adjacency masks `adj`
    has v among its vertices (an isolated pattern vertex counts too)."""
    if len(adj) < pattern.n:
        return False
    degrees = [a.bit_count() for a in adj]
    # A plan whose pinned vertex has more neighbours than v fails at its first step.
    return any(
        next(_walk(adj, plan, (v,), None, degrees), None) is not None
        for plan in _orbit_plans(pattern)
        if plan.needs[0] <= degrees[v]
    )


def copies_as_edge_sets(adj: tuple[int, ...], pattern: Graph) -> list[int]:
    """All distinct edge sets realized by copies of `pattern` in the host with
    adjacency masks `adj`.

    Each copy is an int mask over the host's edges (u, v), u < v, in
    lexicographic order, which is `Graph.edges` order: bit i stands for the
    i-th of them.  The masks come ordered by their lowest set bit, and
    copies that share it in the order the walker reached them.  Isolated
    pattern vertices only need room in the host, so the rest of the pattern
    is searched under its symmetry-breaking conditions, which reach each copy
    exactly once.
    """
    if pattern.n > len(adj):
        return []
    if not all(pattern.adj):
        pattern = pattern.induced(v for v in range(pattern.n) if pattern.adj[v])
    index: list[dict[int, int]] = [{} for _ in adj]  # index[a][b]: edge ab's bit
    i = 0
    for a, row in enumerate(adj):
        for b in bits(row >> a + 1 << a + 1):
            index[a][b] = index[b][a] = i
            i += 1
    copies = list(_walk(adj, _plan(pattern, (), _orbit_breaks(pattern)), (), index))
    # The arrowing engine numbers an incomplete host's clauses in this order.
    # Its time depends on the order, through the lengths of its ints; its
    # verdicts do not.  The key is a small int, so a sparse host's long
    # masks are not copied to sort them.
    copies.sort(key=lambda mask: (mask & -mask).bit_length())
    return copies


@functools.lru_cache(maxsize=256)
def _templates(pattern: Graph) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """p, `pattern`'s non-isolated vertex count, and its copies in K_p as edge lists."""
    core = pattern.induced(v for v in range(pattern.n) if pattern.adj[v])
    K_p = Graph(core.n, itertools.combinations(range(core.n), 2))
    copies = copies_as_edge_sets(K_p.adj, core)
    return core.n, tuple(tuple(K_p.edges[i] for i in bits(mask)) for mask in copies)


def copies_in_clique(n: int, pattern: Graph) -> tuple[list[int], list[int]]:
    """`copies_as_edge_sets(clique(n).adj, pattern)` in another order, n <= 256,
    and `rows`: bit i of `rows[e]` is set iff copy i has edge e.

    A copy is one p-subset S of K_n with one template t of `_templates`; its
    edges are (S[i], S[j]) for the edges (i, j) of t, and no copy has two
    such forms.  Copies are listed by subset, lexicographically, then by t.
    """
    edges = list(itertools.combinations(range(n), 2))
    p, templates = _templates(pattern) if pattern.n <= n else (0, ())
    if not p:  # no copy, or one with no edge
        return [0] * (pattern.n <= n), [0] * len(edges)
    # at[i]: per subset, in order, its vertex at position i, one byte each.
    flat = bytes(itertools.chain.from_iterable(itertools.combinations(range(n), p)))
    at = [flat[i::p] for i in range(p)]
    subsets = len(at[0])
    bit = [[0] * n for _ in range(n)]
    for e, (a, b) in enumerate(edges):
        bit[a][b] = 1 << e
    pairs = list(itertools.combinations(range(p), 2))
    spans = {q: list(map(operator.getitem, map(bit.__getitem__, at[q[0]]), at[q[1]])) for q in pairs}
    per_template = (map(sum, zip(*map(spans.__getitem__, t))) for t in templates)
    masks = list(itertools.chain.from_iterable(zip(*per_template)))
    # has[v][i]: byte s is 1 iff subset s has v at position i.
    ones = [bytes(v) + b"\1" + bytes(255 - v) for v in range(n)]
    has = [[int.from_bytes(row.translate(one), "little") for row in at] for one in ones]
    if len(templates) == 1:  # K_p: a copy has edge ab iff its subset has a and b
        zeros = int.from_bytes(b"0" * subsets, "big")  # adding 0 or 1 makes an ASCII digit
        member = [int((sum(h) + zeros).to_bytes(subsets, "big"), 2) for h in has]
        return masks, [member[a] & member[b] for a, b in edges]
    # Byte s of `code` is 1 + the place in `group` of the pair (i, j) with a
    # at i and b at j in subset s, or 0.  Translated to template bits, last
    # copy first, it reads as row ab.  A byte holds 255 places, hence groups.
    rows = [0] * len(edges)
    for start in range(0, len(pairs), 255):
        group = pairs[start : start + 255]
        table = ["0" * len(templates)]
        table += ["".join("01"[q in t] for t in reversed(templates)) for q in group]
        for e, (a, b) in enumerate(edges):
            code = sum(place * (has[a][i] & has[b][j]) for place, (i, j) in enumerate(group, 1))
            rows[e] |= int(code.to_bytes(subsets, "big").decode("latin-1").translate(table), 2)
    return masks, rows


@functools.lru_cache(maxsize=256)
def _clique_plan(k: int) -> _Plan:
    """The plan of K_k under its symmetry-breaking conditions, keyed by k so
    that a clique query costs one cache lookup."""
    K_k = Graph(k, itertools.combinations(range(k), 2))
    return _plan(K_k, (), _orbit_breaks(K_k))


def cliques_of_size(adj: tuple[int, ...], k: int) -> Iterator[tuple[int, ...]]:
    """The k-cliques of the host with adjacency masks `adj` as sorted vertex
    tuples, in lexicographic order.  Lazy: an existence question stops at the first.
    """
    if k < 0:
        raise ValueError("clique size must be nonnegative")
    return (tuple(image) for image in _walk(adj, _clique_plan(k), ()))


def clique_number(adj: tuple[int, ...]) -> int:
    """Exact maximum clique size of the host with adjacency masks `adj`; 0
    for the empty host.

    The largest k for which `cliques_of_size(adj, k)` yields a clique.
    """
    k = 0
    while next(cliques_of_size(adj, k + 1), None) is not None:
        k += 1
    return k
