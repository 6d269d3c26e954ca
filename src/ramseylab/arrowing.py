"""The arrowing decision engine and everything built on top of it.

A host F arrows a pair (G, H) when every red/blue edge coloring of F shows a
red G or a blue H.  The pruned decider enumerates the copies of G and H in F
once, each as a mask over F's edge list, then runs a DFS over partial
colorings: a copy is a clause, whose edges may not all take the copy's
forbidden color.  The clauses of one pattern are bit positions: each edge
keeps the set of copies through it as one int, and each copy a counter of its
forbidden-colored edges, stored bit-sliced across a few ints, so coloring an
edge updates all its copies at once (see `_ArrowEngine`).  Conflicts prune,
and a copy with one uncolored edge left and no edge of its allowed color
forces that edge (unit propagation).  The DFS loops over an explicit stack,
with no recursion limit.  A completed conflict-free coloring is a witness
that F does not arrow; an exhausted search proves that it does.

The exhaustive decider rebuilds the copies by brute-force injection
enumeration and scans all 2^m colorings as the bits of two 2^m-bit ints, one
marking a red g and one a blue h, each closed by a shift and a mask per edge;
it exists to cross-check the pruned search and never shares its search path.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

from .errors import DEFAULT_BUDGET, BudgetExhaustedError, CapExceededError, GraphTooLargeError
from .errors import InvariantViolationError
from .graphs import BLUE, RED, Edge, EdgeColoring, Graph, bits, clique, edge
from .subgraph import clique_number, coloring_is_free, contains_copy
from .subgraph import copies_as_edge_sets, copy_through
from .enumeration import are_isomorphic, graphs_up_to_vertices

_RED_BIT = 0  # internal encoding: 0 = red, 1 = blue
_BLUE_BIT = 1
_CHUNK = 256  # copies per chunk that `_ArrowEngine` transposes; a multiple of 8, so byte-aligned


@dataclass(frozen=True)
class ArrowingVerdict:
    arrows: bool
    witness: EdgeColoring | None
    nodes_explored: int
    method: str

    def __post_init__(self):
        if self.arrows and self.witness is not None:
            raise ValueError("a positive verdict cannot carry a witness")
        if not self.arrows and self.witness is None:
            raise ValueError("a negative verdict must carry a witness coloring")
        if self.method not in ("exhaustive", "pruned"):
            raise ValueError(f"unknown method {self.method!r}")


class _ArrowEngine:
    """Bit-sliced clause DFS with unit propagation over one (f, g, h) instance.

    Each copy of g or h is a clause: its k edges may not all take the copy's
    forbidden color (red for g, blue for h).  The copies of one pattern form a
    side, indexed by that forbidden color, numbered 0..N-1 in the order
    `copies_as_edge_sets` lists them, so a set of copies is an N-bit int.
    Per side, `copy_edges[i]` is copy i's edge mask as that listing gives it
    (bit j for f.edges[j]) and `inc[e]` the set of copies through edge e.
    All copies of a pattern have the same k edges.

    A state is an immutable tuple: the red and blue edge masks, the satisfied
    copies of each side (those with an edge of the allowed color), then each
    side's w = k.bit_length() counter planes.  Bit i of plane b is bit b of
    copy i's counter, which starts at 2^w - k and counts the copy's edges of
    the forbidden color.  Coloring e with c satisfies the other side's copies
    through e, and adds 1 at once to the counter of every unsatisfied copy of
    side c through e.  A carry out of the top plane is a copy all of its
    forbidden color, a conflict.  A counter of all ones is a copy with k - 1
    forbidden edges and no allowed one, so its last edge is forced to the
    allowed color (unit propagation).  The fixpoint, and whether a conflict
    is met, do not depend on the order copies or forced edges are visited in,
    so neither does the search.

    The DFS loops over an explicit stack of (position, state, edge, color)
    entries, whose assignment is propagated when the entry is popped: no
    recursion limit applies, backtracking undoes nothing, and a branch that is
    never reached costs nothing.  `solve` returns every pruned verdict, its
    witness re-checked, from the assignments `prefix` makes of pinned edges.
    """

    def __init__(self, f: Graph, g: Graph, h: Graph):
        self.f, self.g, self.h = f, g, h
        self.m = m = f.m
        self.edge_index = {e: i for i, e in enumerate(f.edges)}
        self.trivial_arrows = False
        # Swapping the two colors maps free colorings onto free colorings
        # exactly when the two patterns coincide.
        self.symmetric = are_isomorphic(g, h)

        inc: list[tuple[int, ...]] = []
        copy_edges: list[list[int]] = []
        planes: list[range] = []  # per side, where its counter planes sit in a state
        start = [0, 0, 0, 0]
        weight = [0] * m
        # Single-edge clauses force their edge to the other color up front.
        units: list[tuple[int, int]] = []
        for pattern, bad in ((g, _RED_BIT), (h, _BLUE_BIT)):
            copies = copies_as_edge_sets(f.adj, pattern)
            if copies and not copies[0]:
                # An edgeless copy is monochromatic under every coloring.
                self.trivial_arrows = True
                return
            # Bit i of rows[j] is copy i, little-endian, read as an int below.
            # A chunk of copies spans edges low..low+width-1.  Written last
            # first as width-digit binary strings of mask >> low, it holds
            # edge j of each copy at every width-th digit from digit
            # low+width-1-j.  Only the edges the chunk uses are read; a row
            # that missed the chunks before is padded first, and its missing
            # tail reads as 0.
            rows = [bytearray() for _ in range(m)]
            for at in range(0, len(copies), _CHUNK):
                chunk = copies[at : at + _CHUNK]
                union = functools.reduce(operator.or_, chunk)
                low = (union & -union).bit_length() - 1
                width = union.bit_length() - low
                spec = f"0{width}b"
                digits = "".join([format(mask >> low, spec) for mask in reversed(chunk)])
                size = (len(chunk) + 7) >> 3
                for j in bits(union):
                    row = rows[j]
                    row += bytes((at >> 3) - len(row))
                    row += int(digits[low + width - 1 - j :: width], 2).to_bytes(size, "little")
            k = copies[0].bit_count() if copies else 0
            if k == 1:
                units += [(mask.bit_length() - 1, 1 - bad) for mask in copies]
            inc.append(tuple(int.from_bytes(row, "little") for row in rows))
            copy_edges.append(copies)
            for j, row in enumerate(inc[-1]):
                weight[j] += row.bit_count()
            w = k.bit_length()
            full = (1 << len(copies)) - 1
            planes.append(range(len(start), len(start) + w))
            start += [full if (1 << w) - k >> b & 1 else 0 for b in range(w)]
        self.inc = tuple(inc)
        self.copy_edges = tuple(copy_edges)
        self.planes = tuple(planes)
        self.start = tuple(start)
        self.units = tuple(units)
        # Branch on the most constrained edges first.
        self.order = sorted(range(m), key=lambda e: (-weight[e], e))

    def prefix(self, pinned: dict[Edge, str] | None) -> tuple[tuple[int, int], ...]:
        """`pinned` as (edge index, color bit) pairs; raises ValueError as `arrows` says."""
        pins: dict[int, int] = {}
        for pair, col in sorted((pinned or {}).items()):
            e = edge(*pair)
            if e not in self.edge_index:
                raise ValueError(f"pinned pair {pair} is not an edge of the host")
            if col not in (RED, BLUE):
                raise ValueError(f"pinned color {col!r} for {pair} is neither {RED!r} nor {BLUE!r}")
            c = _RED_BIT if col == RED else _BLUE_BIT
            if pins.setdefault(self.edge_index[e], c) != c:
                raise ValueError(f"edge {e} is pinned to both colors")
        return tuple(pins.items())

    def solve(self, budget: int, prefix: tuple[tuple[int, int], ...] = ()) -> ArrowingVerdict:
        """Decide whether every completion of `prefix` has a red g or a blue h.

        A witness is re-checked by `coloring_is_free`.  The budget is checked
        and spent as `arrows` says.
        """
        if budget < 0:
            raise ValueError(f"budget must be nonnegative, got {budget}")
        if self.trivial_arrows:
            return ArrowingVerdict(True, None, 0, "pruned")
        m = self.m
        every_edge = (1 << m) - 1
        inc = self.inc
        copy_edges = self.copy_edges
        planes = self.planes
        order = self.order
        nodes = 0

        def assign(state: tuple, e: int, c: int) -> tuple | None:
            """Assign c to e and propagate; returns the new state or None on conflict."""
            cur = list(state)
            stack = [(e, c)]
            while stack:
                e, c = stack.pop()
                bit = 1 << e
                if cur[c] & bit:
                    continue
                o = 1 - c
                if cur[o] & bit:
                    return None
                cur[c] |= bit
                cur[2 + o] |= inc[o][e]
                unit = carry = inc[c][e] & ~cur[2 + c]
                if not carry:
                    continue
                # Ripple-add; planes above the last carry keep their ints.
                side = planes[c]
                for b in side:
                    plane = cur[b]
                    cur[b] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    return None  # a copy all of its forbidden color
                for b in side:
                    unit &= cur[b]
                if not unit:
                    continue
                # Each unit copy forces its one uncolored edge.  A few unit
                # copies are walked one by one; with many, each uncolored edge
                # is forced when a unit copy runs through it, one AND each,
                # because every step of the walk costs a pass over an N-bit int.
                if unit.bit_count() <= 8:
                    uncolored = ~cur[c]
                    masks = copy_edges[c]
                    while unit:
                        low = unit & -unit
                        unit ^= low
                        j = (masks[low.bit_length() - 1] & uncolored).bit_length() - 1
                        stack.append((j, o))
                else:
                    free = every_edge ^ (cur[0] | cur[1])
                    rows = inc[c]
                    while free:
                        low = free & -free
                        free ^= low
                        j = low.bit_length() - 1
                        if unit & rows[j]:
                            stack.append((j, o))
            return tuple(cur)

        state: tuple | None = self.start
        for e, c in prefix + self.units:
            state = assign(state, e, c)
            if state is None:
                break

        # With identical patterns and no pinned prefix, the color swap is a
        # free-coloring bijection, so the first branched edge may be fixed red.
        fix_first = self.symmetric and not prefix
        stack = [] if state is None else [(0, state, -1, 0)]
        red = None
        while stack:
            pos, state, e, c = stack.pop()
            if e >= 0:
                state = assign(state, e, c)
                if state is None:
                    continue
            assigned = state[0] | state[1]
            while pos < m and assigned >> order[pos] & 1:
                pos += 1
            if pos == m:
                red = state[0]
                break
            nodes += 1
            if nodes > budget:
                raise BudgetExhaustedError(
                    f"arrowing search exceeded {budget} nodes", nodes_explored=nodes
                )
            e = order[pos]
            # The red child goes on top, so it is searched first.
            if not (fix_first and nodes == 1):
                stack.append((pos + 1, state, e, _BLUE_BIT))
            stack.append((pos + 1, state, e, _RED_BIT))
        if red is None:
            return ArrowingVerdict(True, None, nodes, "pruned")
        witness = _coloring(self.f, red)
        if not coloring_is_free(self.f, witness, self.g, self.h):
            raise InvariantViolationError("search produced a non-free witness coloring")
        return ArrowingVerdict(False, witness, nodes, "pruned")


def arrows(
    f: Graph,
    g: Graph,
    h: Graph,
    budget: int = DEFAULT_BUDGET,
    pinned: dict[Edge, str] | None = None,
) -> ArrowingVerdict:
    """Decide f -> (g, h) by pruned DFS over edge 2-colorings.

    With `pinned`, only colorings extending the given edge->color assignment
    are considered: arrows=True then means every such extension is
    monochromatic.  Raises ValueError when the budget is negative, a pinned
    pair is not an edge of f, its color is neither RED nor BLUE, or an edge is
    pinned to both colors (as (u, v) and (v, u)).  A budget of 0 allows
    propagation only.  Raises BudgetExhaustedError (indeterminate) instead of
    ever returning a wrong verdict.
    """
    engine = _ArrowEngine(f, g, h)
    return engine.solve(budget, engine.prefix(pinned))


def _coloring(f: Graph, red: int) -> EdgeColoring:
    """The coloring of f with f.edges[i] red iff bit i of `red` is set."""
    red_edges = [e for i, e in enumerate(f.edges) if red >> i & 1]
    return EdgeColoring(f, red=red_edges, blue=f.edge_set().difference(red_edges))


def _copies_by_injection(host: Graph, pattern: Graph, edge_index: dict[Edge, int]) -> list[int]:
    """Copies of `pattern` as edge-index masks, via all injective vertex maps.

    Deliberately naive; serves as the independent oracle route.
    """
    total = math.perm(host.n, pattern.n)
    if total > 20_000_000:
        raise GraphTooLargeError(
            f"injection enumeration too large: {host.n} P {pattern.n} = {total}"
        )
    masks: set[int] = set()
    for perm in itertools.permutations(range(host.n), pattern.n):
        mask = 0
        for u, v in pattern.edges:
            a, b = perm[u], perm[v]
            if not host.has_edge(a, b):
                mask = -1
                break
            a, b = (a, b) if a < b else (b, a)
            mask |= 1 << edge_index[(a, b)]
        if mask >= 0:
            masks.add(mask)
    return sorted(masks)


def exhaustive_arrows(f: Graph, g: Graph, h: Graph) -> ArrowingVerdict:
    """Decide f -> (g, h) by scanning all 2^m colorings (m <= 24).

    Copy enumeration and the coloring scan share nothing with the pruned
    search; this is the oracle the pruned verdicts are checked against.
    """
    m = f.m
    if m > 24:
        raise GraphTooLargeError(f"exhaustive scan supports at most 24 edges, got {m}")
    edge_index = {e: i for i, e in enumerate(f.edges)}
    gmasks = _copies_by_injection(f, g, edge_index)
    hmasks = _copies_by_injection(f, h, edge_index)
    total = 1 << m
    # Coloring c (bit set = red) shows a red g iff c contains a g-copy mask,
    # and a blue h iff c lies inside the complement of an h-copy mask.  Mark
    # those masks as bits of two 2^m-bit ints, then close upward (red) or
    # downward (blue) one edge at a time, so the scan costs m passes whatever
    # the number of copies.  `clear` is the colorings with edge i blue.
    red, blue = _bitset(gmasks, total), _bitset([(total - 1) ^ mask for mask in hmasks], total)
    for i in range(m):
        step = 1 << i
        clear, period = (1 << step) - 1, step << 1
        while period < total:
            clear |= clear << period
            period <<= 1
        red |= (red & clear) << step
        blue |= (blue >> step) & clear
    # Adding 1 to the covered colorings turns their lowest 0 bit, the first
    # free coloring, into the lowest 1 bit; with none, it carries out to bit
    # total.  Names are dropped once used, so at most four full-width ints
    # are alive here, one fewer than in the loop.
    red |= blue
    del blue
    first = red + 1
    del red
    if first >> total:
        return ArrowingVerdict(True, None, total, "exhaustive")
    return ArrowingVerdict(False, _coloring(f, (first & -first).bit_length() - 1), total, "exhaustive")


def _bitset(positions: list[int], size: int) -> int:
    """The size-bit int with these bits set; OR-ing each into an int would copy it each time."""
    buf = bytearray((size + 7) >> 3)
    for p in positions:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def ramsey_number(g: Graph, h: Graph, cap: int, budget: int = DEFAULT_BUDGET) -> int:
    """Least n <= cap with K_n -> (g, h).

    The sweep starts above the order of a checked free block coloring (see
    `_block_coloring`), and decides each K_n by splitting on the red degree
    of vertex 0 (see `_clique_arrows`).  The budget caps the nodes summed
    over one K_n's cases.
    """
    return _ramsey_number(g, h, cap, budget)[0]


def _ramsey_number(g: Graph, h: Graph, cap: int, budget: int) -> tuple[int, int]:
    """ramsey_number and the nodes its searches explored, summed.

    The budget is checked first: a block coloring that reaches the cap runs no
    search, so no search would reject a negative one.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    value, nodes = _least_arrowing_clique(g, h, cap, budget)
    if value is None:
        raise CapExceededError(f"no complete graph up to K_{cap} arrows the pair")
    return value, nodes


def _block_coloring(g: Graph, h: Graph, cap: int) -> EdgeColoring:
    """A free coloring of K_min(n, cap) for (g, h), by Chvátal & Harary (1972).

    Let c be the order of the largest component of one pattern and ω the
    clique number of the other.  K_n, n = (ω-1)(c-1), splits into ω-1 blocks
    of c-1 vertices.  Edges inside a block take the first pattern's color:
    those components have c-1 vertices, too few for its largest one.  Edges
    between blocks take the other color: they form a complete (ω-1)-partite
    graph, with no K_ω.  Both role assignments are tried and the larger n is
    kept; it is 0 when either pattern has no edge.  A free coloring stays
    free on any subset of the vertices, so the one returned refutes every
    K_k with k up to its order.  It is re-checked by `coloring_is_free`.
    """
    n, size, inside = 0, 1, RED
    for a, b, color in ((g, h, RED), (h, g, BLUE)):
        c = max(map(len, a.components()), default=0)
        order = max(c - 1, 0) * max(clique_number(b.adj) - 1, 0)
        if order > n:
            n, size, inside = order, c - 1, color
    k = min(n, cap)
    host = Graph(k, itertools.combinations(range(k), 2))
    same = [(u, v) for u, v in host.edges if u // size == v // size]
    other = [(u, v) for u, v in host.edges if u // size != v // size]
    red, blue = (same, other) if inside == RED else (other, same)
    coloring = EdgeColoring(host, red=red, blue=blue)
    if k and not coloring_is_free(host, coloring, g, h):
        raise InvariantViolationError("the block coloring is not free")
    return coloring


def _least_arrowing_clique(g: Graph, h: Graph, cap: int, budget: int) -> tuple[int | None, int]:
    """The least n <= cap with K_n -> (g, h), or None, and the nodes searched.

    The block coloring of `_block_coloring` refutes every K_k up to its order,
    so the search starts one above it, and none is made when it reaches cap.
    When h = K_t with t >= 2, rho = R(g, K_{t-1}) is computed first by this
    same routine with cap - 1, under the same per-K_n budget; its nodes count
    toward the sum.  When it finds none, no K_n with n <= cap - 1 arrows
    (g, K_t) either: a free coloring for (g, K_{t-1}) has no blue K_{t-1}, so
    no blue K_t.  Then only K_cap is decided.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    lower = _block_coloring(g, h, cap).host.n
    if lower == cap:
        return None, 0
    nodes = 0
    rho = None
    t = h.n
    if t >= 2 and h.m == t * (t - 1) // 2 and cap >= 2:
        rho, nodes = _least_arrowing_clique(g, clique(t - 1), cap - 1, budget)
        if rho is None:
            lower = cap - 1
    for n in range(lower + 1, cap + 1):
        decided, spent = _clique_arrows(n, g, h, budget, rho)
        nodes += spent
        if decided:
            return n, nodes
    return None, nodes


def _clique_arrows(n: int, g: Graph, h: Graph, budget: int, rho: int | None) -> tuple[bool, int]:
    """Decide K_n -> (g, h) on one engine, case by case; returns (arrows, nodes).

    Case d pins the edges (0, i) red for i <= d and blue for i > d.  K_n is
    vertex-transitive, so relabelling 1..n-1 maps every coloring into the case
    of vertex 0's red degree.  `rho` is R(g, K_{t-1}) when h = K_t, else None.
    A case with n-1-d >= rho is skipped: its blue neighbourhood holds a red g
    or a blue K_{t-1}, which vertex 0 makes a blue K_t (Greenwood & Gleason
    1955).  When g and h are isomorphic the color swap maps case d onto case
    n-1-d, so only d >= (n-1)/2 is searched.  Cases run in ascending d; a free
    coloring from any of them is re-checked and refutes K_n.  The budget caps
    the nodes summed over the cases, and BudgetExhaustedError carries that sum.
    """
    engine = _ArrowEngine(clique(n), g, h)
    first = n // 2 if engine.symmetric else 0
    if rho is not None:
        first = max(first, n - rho)
    nodes = 0
    for d in range(first, n):
        prefix = tuple(
            (engine.edge_index[(0, i)], _RED_BIT if i <= d else _BLUE_BIT) for i in range(1, n)
        )
        try:
            verdict = engine.solve(budget - nodes, prefix)
        except BudgetExhaustedError as exc:
            raise BudgetExhaustedError(
                f"K_{n} search exceeded {budget} nodes", nodes_explored=nodes + exc.nodes_explored
            ) from None
        nodes += verdict.nodes_explored
        if not verdict.arrows:
            return False, nodes
    return True, nodes


def minimal_ramsey_check(f: Graph, g: Graph, h: Graph, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff f arrows (g, h) and no single-edge or single-vertex deletion does.

    Every proper subgraph sits inside some f-e or f-v, so by monotonicity the
    two deletion families are enough.  For an edge e at v, f-v sits inside
    f-e, so only isolated vertices are deleted.
    """
    return _minimal_ramsey_check(f, g, h, budget)[0]


def _minimal_ramsey_check(f: Graph, g: Graph, h: Graph, budget: int) -> tuple[bool, int]:
    """minimal_ramsey_check and the nodes its searches explored, summed."""
    nodes = 0
    isolated = (f.without_vertex(v) for v in range(f.n) if not f.adj[v])
    for host in itertools.chain([f], map(f.without_edge, f.edges), isolated):
        verdict = arrows(host, g, h, budget)
        nodes += verdict.nodes_explored
        if verdict.arrows != (host is f):  # f must arrow, and no deletion may
            return False, nodes
    return True, nodes


def verify_determiner(d: Graph, beta, T: Graph, t: int, budget: int = DEFAULT_BUDGET) -> dict:
    """Check the four determiner axioms for (d, beta) against the pair (T, K_t).

    Axioms: (i) d has a (T, K_t)-free coloring; (ii) beta is red in every free
    coloring; (iii) some free coloring turns every edge adjacent to beta blue;
    (iv) the closed neighborhood of beta induces exactly K_t.  Axioms (i)-(iii)
    are decided on one clause engine for d, by complete searches with edges
    pinned; the budget caps each search, and an exhausted one leaves its axiom
    as None.  Raises ValueError when beta is not an edge of d or the budget is
    negative.
    """
    return _verify_determiner(d, beta, T, t, budget)[0]


def _verify_determiner(d: Graph, beta, T: Graph, t: int, budget: int) -> tuple[dict, int]:
    """verify_determiner and the nodes its searches explored, summed."""
    beta = edge(*beta)
    if beta not in d.edge_set():
        raise ValueError(f"beta {beta} is not an edge of the determiner graph")
    engine = _ArrowEngine(d, T, clique(t))
    nodes = 0

    def holds(pinned, expect_arrows: bool) -> bool | None:
        """Whether d under `pinned` arrows (T, K_t) as expected; None on budget."""
        nonlocal nodes
        try:
            verdict = engine.solve(budget, engine.prefix(pinned))
        except BudgetExhaustedError as exc:
            nodes += exc.nodes_explored
            return None
        nodes += verdict.nodes_explored
        return verdict.arrows == expect_arrows

    u, v = beta
    adjacent = {e: BLUE for e in d.edges if e != beta and (u in e or v in e)}
    results: dict[str, bool | None] = {
        "free_coloring_exists": holds(None, expect_arrows=False),
        "beta_forced_red": holds({beta: BLUE}, expect_arrows=True),
        "well_behaved": holds(adjacent, expect_arrows=False),
    }
    # u and v are each other's neighbours, so this is beta's closed neighbourhood.
    induced = d.induced(bits(d.adj[u] | d.adj[v]))
    # A simple graph on t vertices with t(t-1)/2 edges is K_t.
    results["beta_closure_is_clique"] = induced.n == t and induced.m == t * (t - 1) // 2
    return results, nodes


@dataclass
class ScanResult:
    kind: str  # "no-distinguisher-found" | "distinguisher" | "symbolic-distinguisher"
    distinguisher: Graph | None = None
    verdict_first: ArrowingVerdict | None = None
    verdict_second: ArrowingVerdict | None = None
    reason: str | None = None
    skipped: list[Graph] = field(default_factory=list)
    nodes_explored: int = 0  # summed over every search, skipped hosts included


# A kept graph on as many vertices as the host can only be a spanning
# subgraph of it, and a failed test walks nearly every vertex map.  Most
# hosts tested do not arrow.  On the 9-vertex scan of (P4, K3) vs
# (P4, K3·K2) each pair keeps 88 such graphs; testing them all before each
# search took 1.65M walks and made the scan 45% slower than with no kept
# graphs.  So only the first few are tried before the search (all of them
# up to 7 vertices for both benchmark pairs), and the rest only after a
# search proves the host arrows, to tell whether it is minimal.
_SPANNING_TESTS = 3


def _monotone_arrows(
    host: Graph,
    g: Graph,
    h: Graph,
    budget: int,
    known: dict[tuple[int, ...], tuple[int, ...] | None],
    kept: list[Graph],
) -> tuple[tuple[int, ...] | None, int]:
    """Decide host -> (g, h) from its parent's result where that settles it.

    Returns the red adjacency masks of a free coloring, or None when host
    arrows, together with the nodes searched.  `known` maps the adjacency
    masks of graphs already decided for (g, h) to that same result.  host's
    parent, host less its last vertex v, is looked up by host's masks with
    v's bit cleared.  If the parent arrows, so does host (subgraph
    monotonicity).  Otherwise the parent's witness is extended by coloring
    v's edges all blue, all red, then each one alone red.  The parent's
    witness is free, so an extension is free iff no red g and no blue h has
    v among its vertices, which `copy_through` checks on the red and blue
    adjacency masks; the first extension that passes is host's witness.
    Failing that, host arrows if a graph in `kept`, each one known to arrow,
    has a copy in it (monotonicity again).  A copy that avoids v would lie
    in the parent, which does not arrow, so only copies through v are
    looked for, and of the kept graphs on host.n vertices only the first
    `_SPANNING_TESTS`.  Failing that too, `arrows` searches, and may raise
    BudgetExhaustedError.  A host it proves to arrow is appended to `kept`
    unless a kept graph on host.n vertices has a copy in it.  So, with the
    hosts in listing order and none skipped, `kept` holds the minimal
    Ramsey graphs met.
    """
    v = host.n - 1
    parent = tuple(a & ~(1 << v) for a in host.adj[:v])
    if parent in known:
        red = known[parent]
        if red is None:
            return None, 0
        new = host.adj[v]
        # All blue, all red, then each edge alone red; repeats dropped.
        for extra in dict.fromkeys([0, new, *(1 << w for w in bits(new))]):
            red_adj = (*(row | (extra >> w & 1) << v for w, row in enumerate(red)), extra)
            blue_adj = [a ^ r for a, r in zip(host.adj, red_adj)]
            if not (copy_through(red_adj, g, v) or copy_through(blue_adj, h, v)):
                return red_adj, 0
        spanning = _SPANNING_TESTS
        for ramsey in kept:  # in listing order, so those on host.n vertices come last
            if ramsey.n == host.n:
                if not spanning:
                    break
                spanning -= 1
            if ramsey.m <= host.m and copy_through(host.adj, ramsey, v):
                return None, 0
    verdict = arrows(host, g, h, budget)
    if not verdict.arrows:
        return verdict.witness.adjacency(RED), verdict.nodes_explored
    # Minimal unless a kept graph spans it: one on as many vertices, fewer edges.
    if not any(r.n == host.n and r.m < host.m and copy_through(host.adj, r, v) for r in kept):
        kept.append(host)
    return None, verdict.nodes_explored


def equivalence_scan(
    g1: Graph,
    h1: Graph,
    g2: Graph,
    h2: Graph,
    max_vertices: int,
    budget: int = DEFAULT_BUDGET,
) -> ScanResult:
    """Search small hosts for a graph arrowing one pair but not the other.

    A clique-number mismatch proves non-equivalence outright, and is reported
    symbolically, when both patterns of the pair with the larger maximum
    clique number have an edge.  Otherwise the graphs on up to max_vertices
    vertices (up to isomorphism) are tested, in the order of
    `graphs_up_to_vertices`, which the scan drives: each level is decided
    before the next is built, and only hosts that arrow neither pair, or were
    skipped on budget, are augmented.  A host that arrows both pairs cannot
    tell them apart, and neither can a graph that contains it (subgraph
    monotonicity), so no distinguisher is lost; every class that does not
    arrow both pairs is listed with the masks and in the place it has in the
    full listing (see `enumeration`).  No level is built past a
    distinguisher.  Finding nothing is NOT a proof of equivalence.

    Each host is first decided for each pair from its parent on the level
    before, found by the host's adjacency masks with the last vertex cleared
    (see `_monotone_arrows`); results are keyed by adjacency masks, and a
    witness is kept as its red ones.  A host inherits a positive verdict by
    subgraph monotonicity, F ⊆ F′ and F → (G, H) give F′ → (G, H), and a
    negative one as the parent's witness extended to the new vertex v's edges,
    when no monochromatic copy has v among its vertices.  That check is exact
    by induction, because the parent's witness was free.  Each pair keeps the
    minimal Ramsey graphs its searches meet, and a host whose parent does not
    arrow arrows when one of them has a copy through v.  Hosts come by vertex
    count, then edge count, so by induction a host that a search proves to
    arrow is minimal unless a kept graph on as many vertices spans it; only a
    few of those are tried before the search.  A search is left only where it
    finds a witness, a new minimal Ramsey graph, or a host spanned by one of
    the others.  When g1 ⊆ g2 and h1 ⊆ h2 (or the reverse), a coloring with no
    red g1 and no blue h1 has no red g2 and no blue h2, so F ↛ (g1, h1) gives
    F ↛ (g2, h2): the smaller pair is decided first, its free coloring is the
    larger pair's witness, and the larger pair is searched only where the
    smaller one arrows.  Hosts on which the two pairs agree need no further
    search.  A host whose verdicts differ is re-decided by `arrows` for both
    pairs, so a reported distinguisher, its verdicts and its budget behaviour
    are those of a plain search on that host.  Raises ValueError for a
    negative budget.
    """
    if not 1 <= max_vertices <= 9:
        raise ValueError("enumeration bound: max_vertices must be between 1 and 9")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    omega1 = max(clique_number(g1.adj), clique_number(h1.adj))
    omega2 = max(clique_number(g2.adj), clique_number(h2.adj))
    g_big, h_big = (g1, h1) if omega1 > omega2 else (g2, h2)
    # All-red and all-blue colorings force every Ramsey graph of a pair whose
    # patterns both have an edge to contain both patterns.
    if omega1 != omega2 and g_big.m and h_big.m:
        return ScanResult(
            "symbolic-distinguisher",
            reason=(
                f"max clique numbers differ ({omega1} vs {omega2}); both patterns of the "
                f"larger pair have an edge, so each of its Ramsey graphs contains both and "
                f"has clique number >= {max(omega1, omega2)}, while Nešetřil–Rödl (1976) "
                f"give the other pair a Ramsey graph of clique number {min(omega1, omega2)}"
            ),
        )
    result = ScanResult("no-distinguisher-found")
    pairs = ((g1, h1), (g2, h2))
    # The pair whose patterns embed in the other's is decided first; None if neither.
    small = next(
        (i for i in (0, 1) if all(contains_copy(b.adj, a) for a, b in zip(pairs[i], pairs[1 - i]))),
        None,
    )
    order = (1, 0) if small == 1 else (0, 1)
    # Per-pair results keyed by adjacency masks.  A key's length is its
    # host's order, so a parent lookup only meets the level just before it.
    known: tuple[dict, dict] = ({}, {})
    # Per pair, the minimal Ramsey graphs its searches met (see `_monotone_arrows`).
    kept: tuple[list, list] = ([], [])

    def decide(host: Graph) -> bool | None:
        """Decide host for both pairs: true when its children are to be
        listed, false when it arrows both pairs, None when it tells them apart."""
        # A verdict on the last level is never a parent's, so it is not stored.
        store = host.n < max_vertices
        red: list = [None, None]
        try:
            for i in order:
                if small not in (None, i) and red[small] is not None:
                    red[i] = red[small]  # free for both pairs
                else:
                    red[i], nodes = _monotone_arrows(host, *pairs[i], budget, known[i], kept[i])
                    result.nodes_explored += nodes
                if store:
                    known[i][host.adj] = red[i]
            if (red[0] is None) == (red[1] is None):
                return red[0] is not None
            v1 = arrows(host, g1, h1, budget)
            result.nodes_explored += v1.nodes_explored
            v2 = arrows(host, g2, h2, budget)
            result.nodes_explored += v2.nodes_explored
        except BudgetExhaustedError as exc:
            result.nodes_explored += exc.nodes_explored
            result.skipped.append(host)
            return True
        if [v1.arrows, v2.arrows] != [red[0] is None, red[1] is None]:
            raise InvariantViolationError("an inherited verdict disagrees with the search")
        result.kind = "distinguisher"
        result.distinguisher, result.verdict_first, result.verdict_second = host, v1, v2
        return None

    graphs_up_to_vertices(max_vertices, grow=decide)
    return result
