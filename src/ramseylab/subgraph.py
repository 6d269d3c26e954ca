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
are built.

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
) -> Iterator:
    """Yield the image of every map of the plan's pattern into the host `adj`.

    The first len(targets) steps place pinned vertices, each on its target.
    Maps come in search order: each step tries its candidates in increasing
    label order.  The yielded list is indexed by pattern vertex and is
    overwritten as the search goes on, so a caller copies what it keeps.

    Given the host's edge-index table (`index[a][b]` is edge ab's bit), each
    map is yielded as the int mask of its image's edges instead.  A step ORs
    the bits of its edges to earlier steps into the mask of the step before,
    so maps that share a prefix share its edges.
    """
    verts, needs, backs, lows, rooms = plan
    n = len(verts)
    image = [-1] * n
    if n == 0:
        yield image if index is None else 0
        return
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
    # A plan whose pinned vertex has more neighbours than v fails at its first step.
    return len(adj) >= pattern.n and any(
        next(_walk(adj, plan, (v,)), None) is not None
        for plan in _orbit_plans(pattern)
        if plan.needs[0] <= adj[v].bit_count()
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
    # The arrowing engine numbers its clauses in this order.  Its verdicts,
    # node counts and witnesses do not depend on the order, but its time
    # does, through the lengths of its ints.  On the decide benchmarks'
    # instances (seed 41; CPU time with enumeration, min of 3) this order
    # took 263 ms to refute and 97 ms to prove, against 363 and 147 ms
    # sorted as ints and 407 and 153 ms in walker order.  The key is a small
    # int, so a sparse host's long masks are not copied to sort them.
    copies.sort(key=lambda mask: (mask & -mask).bit_length())
    return copies


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
