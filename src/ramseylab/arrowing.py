"""The arrowing decision engine and everything built on top of it.

A host F arrows a pair (G, H) when every red/blue edge coloring of F shows a
red G or a blue H.  The pruned decider enumerates the copies of G and H in F
once, then runs a DFS over partial colorings: a copy is a clause, the bitmask
of its edges, which may not all take the copy's forbidden color.  A partial
coloring is two edge bitmasks, red and blue.  Conflicts prune, and a copy
with one uncolored edge left and no edge of its allowed color forces that
edge (unit propagation).  A completed conflict-free coloring is a witness
that F does not arrow; an exhausted search proves that it does.

The exhaustive decider rebuilds the copies by brute-force injection
enumeration and scans all 2^m colorings vectorized; it exists to cross-check
the pruned search and never shares its search path.  numpy is imported only
inside the exhaustive decider, so the CLI starts without it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import BudgetExhaustedError, CapExceededError, InvariantViolationError
from .graphs import BLUE, RED, Edge, EdgeColoring, Graph, edge
from .subgraph import GraphTooLargeError, clique_number, contains_copy, copies_as_edge_sets
from .enumeration import are_isomorphic, graphs_up_to_vertices
from .families import clique
from .formats import graph_to_graph6

DEFAULT_BUDGET = 50_000_000

_RED_BIT = 0  # internal encoding: 0 = red, 1 = blue
_BLUE_BIT = 1


def coloring_is_free(f: Graph, c: EdgeColoring, g: Graph, h: Graph) -> bool:
    """True iff c has no red-restricted copy of g and no blue-restricted copy of h."""
    if c.host != f:
        raise ValueError("coloring domain mismatch: coloring does not belong to f")
    if contains_copy(c.monochromatic_subgraph(RED), g) is not None:
        return False
    return contains_copy(c.monochromatic_subgraph(BLUE), h) is None


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
    """Clause DFS with unit propagation over one (f, g, h) instance.

    Each copy of g or h is a clause: the bitmask of its edge indices, which
    may not all take the copy's forbidden color (red for g, blue for h).
    `forbid[c][e]` holds the clauses through edge e that forbid color c; they
    are the only clauses that assigning c to e can make unit or violate.  The
    search state is two edge bitmasks, `red` and `blue`, passed down the DFS,
    so backtracking returns to the parent's masks and nothing is undone.
    """

    def __init__(self, f: Graph, g: Graph, h: Graph):
        self.f = f
        self.m = f.m
        self.edge_index = {e: i for i, e in enumerate(f.edges)}
        self.trivial_arrows = False

        forbid: tuple[list[list[int]], list[list[int]]] = (
            [[] for _ in range(self.m)],
            [[] for _ in range(self.m)],
        )
        # Single-edge clauses force their edge to the other color up front.
        units: list[tuple[int, int]] = []
        for pattern, bad in ((g, _RED_BIT), (h, _BLUE_BIT)):
            for copy in copies_as_edge_sets(f, pattern):
                if not copy:
                    # An edgeless copy is monochromatic under every coloring.
                    self.trivial_arrows = True
                    return
                indices = [self.edge_index[e] for e in copy]
                mask = sum(1 << i for i in indices)
                for i in indices:
                    forbid[bad][i].append(mask)
                if len(indices) == 1:
                    units.append((indices[0], 1 - bad))
        self.forbid = tuple([tuple(x) for x in per_edge] for per_edge in forbid)
        self.units = tuple(units)
        # Branch on the most constrained edges first.
        self.order = sorted(
            range(self.m), key=lambda e: (-len(forbid[0][e]) - len(forbid[1][e]), e)
        )
        # Swapping the two colors maps free colorings onto free colorings
        # exactly when the two patterns coincide.
        self.symmetric = are_isomorphic(g, h)

    def solve(
        self, budget: int, prefix: tuple[tuple[int, int], ...] = ()
    ) -> tuple[int | None, int]:
        """Run the DFS; returns (witness red-edge mask | None, nodes).

        A None witness means every completion of `prefix` contains a red g or
        a blue h.  Raises BudgetExhaustedError when the node budget runs out.
        """
        if self.trivial_arrows:
            return None, 0
        m = self.m
        forbid = self.forbid
        order = self.order
        nodes = 0

        def assign(red: int, blue: int, e: int, c: int) -> tuple[int, int] | None:
            """Assign c to e and propagate; returns the new masks or None on conflict."""
            stack = [(e, c)]
            while stack:
                e, c = stack.pop()
                bit = 1 << e
                if c == _RED_BIT:
                    if red & bit:
                        continue
                    if blue & bit:
                        return None
                    red |= bit
                    own, other = red, blue
                else:
                    if blue & bit:
                        continue
                    if red & bit:
                        return None
                    blue |= bit
                    own, other = blue, red
                not_own = ~own
                for clause in forbid[c][e]:
                    if clause & other:
                        continue  # already has an edge of the allowed color
                    rest = clause & not_own
                    if not rest:
                        return None
                    if not rest & (rest - 1):
                        stack.append((rest.bit_length() - 1, 1 - c))
            return red, blue

        state: tuple[int, int] | None = (0, 0)
        for e, c in prefix + self.units:
            state = assign(*state, e, c)
            if state is None:
                return None, 0

        # With identical patterns and no pinned prefix, the color swap is a
        # free-coloring bijection, so the first branched edge may be fixed red.
        first_branch_colors = (
            (_RED_BIT,) if self.symmetric and not prefix else (_RED_BIT, _BLUE_BIT)
        )

        def search(pos: int, red: int, blue: int) -> int | None:
            nonlocal nodes
            assigned = red | blue
            while pos < m and assigned >> order[pos] & 1:
                pos += 1
            if pos == m:
                return red
            first = nodes == 0
            nodes += 1
            if nodes > budget:
                raise BudgetExhaustedError(
                    f"arrowing search exceeded {budget} nodes", nodes_explored=nodes
                )
            e = order[pos]
            for c in first_branch_colors if first else (_RED_BIT, _BLUE_BIT):
                child = assign(red, blue, e, c)
                if child is not None:
                    result = search(pos + 1, *child)
                    if result is not None:
                        return result
            return None

        return search(0, *state), nodes

    def coloring_from_red(self, red: int) -> EdgeColoring:
        edges = self.f.edges
        return EdgeColoring(
            self.f,
            red=[e for i, e in enumerate(edges) if red >> i & 1],
            blue=[e for i, e in enumerate(edges) if not red >> i & 1],
        )


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
    monochromatic.  Raises ValueError when a pinned pair is not an edge of f,
    its color is neither RED nor BLUE, or an edge is pinned to both colors
    (as (u, v) and (v, u)).  Raises BudgetExhaustedError (indeterminate)
    instead of ever returning a wrong verdict.
    """
    pins: dict[Edge, int] = {}
    if pinned:
        edges = f.edge_set()
        for pair, col in sorted(pinned.items()):
            e = edge(*pair)
            if e not in edges:
                raise ValueError(f"pinned pair {pair} is not an edge of the host")
            if col not in (RED, BLUE):
                raise ValueError(f"pinned color {col!r} for {pair} is neither {RED!r} nor {BLUE!r}")
            c = _RED_BIT if col == RED else _BLUE_BIT
            if pins.setdefault(e, c) != c:
                raise ValueError(f"edge {e} is pinned to both colors")
    engine = _ArrowEngine(f, g, h)
    prefix = tuple((engine.edge_index[e], c) for e, c in pins.items())
    red, nodes = engine.solve(budget, prefix)
    if red is None:
        return ArrowingVerdict(True, None, nodes, "pruned")
    witness = engine.coloring_from_red(red)
    if not coloring_is_free(f, witness, g, h):
        raise InvariantViolationError("search produced a non-free witness coloring")
    return ArrowingVerdict(False, witness, nodes, "pruned")


def _copies_by_injection(host: Graph, pattern: Graph, edge_index: dict[Edge, int]) -> list[int]:
    """Copies of `pattern` as edge-index masks, via all injective vertex maps.

    Deliberately naive; serves as the independent oracle route.
    """
    if pattern.n > host.n:
        return []
    total = 1
    for i in range(pattern.n):
        total *= host.n - i
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
    import numpy as np

    m = f.m
    if m > 24:
        raise GraphTooLargeError(f"exhaustive scan supports at most 24 edges, got {m}")
    edge_index = {e: i for i, e in enumerate(f.edges)}
    gmasks = _copies_by_injection(f, g, edge_index)
    hmasks = _copies_by_injection(f, h, edge_index)
    total = 1 << m
    colorings = np.arange(total, dtype=np.uint32)
    bad = np.zeros(total, dtype=bool)
    for mask in gmasks:  # bit set = red; a fully red g-copy is bad
        mask_u = np.uint32(mask)
        bad |= (colorings & mask_u) == mask_u
    for mask in hmasks:  # a fully blue h-copy has no red bit on its edges
        bad |= (colorings & np.uint32(mask)) == 0
    free = np.nonzero(~bad)[0]
    if free.size == 0:
        return ArrowingVerdict(True, None, total, "exhaustive")
    first = int(free[0])
    red = [e for e, i in edge_index.items() if first >> i & 1]
    blue = [e for e, i in edge_index.items() if not first >> i & 1]
    witness = EdgeColoring(f, red=red, blue=blue)
    return ArrowingVerdict(False, witness, total, "exhaustive")


def ramsey_number(g: Graph, h: Graph, cap: int, budget: int = DEFAULT_BUDGET) -> int:
    """Least n <= cap with K_n -> (g, h)."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    for n in range(1, cap + 1):
        if arrows(clique(n), g, h, budget).arrows:
            return n
    raise CapExceededError(f"no complete graph up to K_{cap} arrows the pair")


def minimal_ramsey_check(f: Graph, g: Graph, h: Graph, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff f arrows (g, h) and no single-edge or single-vertex deletion does.

    Every proper subgraph sits inside some f-e or f-v, so by monotonicity the
    two deletion families are enough.
    """
    if not arrows(f, g, h, budget).arrows:
        return False
    for e in f.edges:
        if arrows(f.without_edge(e), g, h, budget).arrows:
            return False
    for v in range(f.n):
        if arrows(f.without_vertex(v), g, h, budget).arrows:
            return False
    return True


def verify_determiner(d: Graph, beta, T: Graph, t: int, budget: int = DEFAULT_BUDGET) -> dict:
    """Check the four determiner axioms for (d, beta) against the pair (T, K_t).

    Axioms: (i) d has a (T, K_t)-free coloring; (ii) beta is red in every free
    coloring; (iii) some free coloring turns every edge adjacent to beta blue;
    (iv) the closed neighborhood of beta induces exactly K_t.  Each axiom is
    decided by exhaustive search (via the pruned decider with pinned edges);
    an exhausted budget leaves that axiom as None.  Raises ValueError when
    beta is not an edge of d.
    """
    beta = edge(*beta)
    if beta not in d.edge_set():
        raise ValueError(f"beta {beta} is not an edge of the determiner graph")
    target = clique(t)
    results: dict[str, bool | None] = {}

    def run(pinned):
        try:
            return arrows(d, T, target, budget=budget, pinned=pinned)
        except BudgetExhaustedError:
            return None

    base = run(None)
    results["free_coloring_exists"] = None if base is None else not base.arrows
    blue_beta = run({beta: BLUE})
    results["beta_forced_red"] = None if blue_beta is None else blue_beta.arrows
    u, v = beta
    adjacent = {
        e: BLUE
        for e in d.edges
        if e != beta and (u in e or v in e)
    }
    well = run(adjacent)
    results["well_behaved"] = None if well is None else not well.arrows
    closure = {u, v}
    closure.update(d.neighbors(u))
    closure.update(d.neighbors(v))
    induced = d.induced(closure)
    # A simple graph on t vertices with t(t-1)/2 edges is K_t.
    results["beta_closure_is_clique"] = induced.n == t and induced.m == t * (t - 1) // 2
    return results


@dataclass
class ScanResult:
    kind: str  # "no-distinguisher-found" | "distinguisher" | "symbolic-distinguisher"
    distinguisher: Graph | None = None
    verdict_first: ArrowingVerdict | None = None
    verdict_second: ArrowingVerdict | None = None
    reason: str | None = None
    skipped: list[Graph] = field(default_factory=list)


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
    clique number have an edge.  Otherwise every graph on up to max_vertices
    vertices (up to isomorphism) is tested.  Finding nothing is NOT a proof of
    equivalence.
    """
    if not 1 <= max_vertices <= 8:
        raise ValueError("enumeration bound: max_vertices must be between 1 and 8")
    omega1 = max(clique_number(g1), clique_number(h1))
    omega2 = max(clique_number(g2), clique_number(h2))
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
    for host in sorted(
        graphs_up_to_vertices(max_vertices), key=lambda x: (x.n, x.m, graph_to_graph6(x))
    ):
        try:
            v1 = arrows(host, g1, h1, budget)
            v2 = arrows(host, g2, h2, budget)
        except BudgetExhaustedError:
            result.skipped.append(host)
            continue
        if v1.arrows != v2.arrows:
            return ScanResult("distinguisher", host, v1, v2)
    return result
