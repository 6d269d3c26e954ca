"""Command-line surface: constructions, deciders, factors, and recolorings.

Every subcommand prints a single JSON report on stdout.  Each leaf parser
carries its handler and the report's `command` label.  A handler returns the
report's verdict, its node count and whether the verdict is settled, and
`main` writes every report:

    {"schema": 1, "command": ..., "inputs": {path: sha256, ...},
     "verdict": {...}, "nodes_explored": ..., "elapsed": ..., "seed": ...}

Reports are deterministic given identical inputs and seed, except for the
`elapsed` field.  Witness colorings are embedded inline for hosts of at most
62 vertices and written to a file otherwise.

Exit codes: 0 success; 2 usage error (bad arguments, unknown subcommand);
3 indeterminate: with the report when the verdict is partial (an undecided
determiner axiom, or a scan that skipped hosts and found no distinguisher),
and with none when a search or cap gave no verdict (budget exhausted or cap
reached); 4 internal invariant violation; 5 malformed input file;
6 graph/coloring mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .errors import (
    DEFAULT_BUDGET,
    BudgetExhaustedError,
    CapExceededError,
    InvariantViolationError,
)
from .formats import (
    FormatError,
    MismatchError,
    coloring_from_text,
    coloring_to_text,
    graph_from_graph6,
    graph_to_graph6,
)
from .graphs import EdgeColoring, Graph, clique, clique_with_pendants, cycle, path, star

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3
EXIT_INVARIANT = 4
EXIT_BAD_INPUT = 5
EXIT_MISMATCH = 6

SCHEMA_VERSION = 1


def _read(path: str, inputs: dict[str, str]) -> str:
    """Read `path` once: record the sha256 of its bytes in `inputs`, return them as ASCII text."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    inputs[path] = hashlib.sha256(data).hexdigest()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not an ASCII file: {exc}") from exc


def _load_graph(path: str, inputs: dict[str, str]) -> Graph:
    return graph_from_graph6(_read(path, inputs))


def _load_coloring(path: str, host: Graph, inputs: dict[str, str]) -> EdgeColoring:
    return coloring_from_text(_read(path, inputs), host=host)


def _coloring_payload(c: EdgeColoring, witness_out: str | None):
    if c.host.n <= 62 and witness_out is None:
        return {
            "format": "inline",
            "edges": [[u, v, c.color((u, v))] for u, v in c.host.edges],
        }
    path = witness_out or f"witness-{hashlib.sha256(coloring_to_text(c).encode()).hexdigest()[:12]}.txt"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(coloring_to_text(c))
    return {"format": "file", "path": path}


def _verdict_payload(v, witness_out: str | None):
    payload = {"arrows": v.arrows, "method": v.method}
    if v.witness is not None:
        payload["witness"] = _coloring_payload(v.witness, witness_out)
    return payload


def _emit(command: str, inputs: dict[str, str], verdict, nodes: int, t0: float, seed):
    report = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "verdict": verdict,
        "nodes_explored": nodes,
        "elapsed": round(time.monotonic() - t0, 6),
        "seed": seed,
    }
    print(json.dumps(report, sort_keys=True))


# -- subcommand handlers -------------------------------------------------------
# Each handler imports the module it calls, so a process loads only what its
# command uses.  It reads its input files through `inputs` and returns the
# report's verdict, its nodes_explored, and whether no part of the verdict was
# left undecided by a budget; `main` writes the report.


def _parse_edge(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected an edge as 'u,v', got {text!r}")
    return int(parts[0]), int(parts[1])


_BASIC = {"star": star, "path": path, "clique": clique, "cycle": cycle}  # construct KIND N


def _cmd_construct(args, inputs):
    kind = args.kind
    coloring = None
    extra = {}
    if kind not in (*_BASIC, "clique-pendants"):  # those kinds need only `graphs`
        from . import families
    if kind in _BASIC:
        graph = _BASIC[kind](args.param)
    elif kind == "clique-pendants":
        graph = clique_with_pendants(args.t, args.a, args.b)
    elif kind == "caterpillar":
        graph = families.suitable_caterpillar(args.s, args.mid)
    elif kind == "uniform-tree":
        gadget = families.uniform_tree(args.k, args.i)
        graph, extra = gadget.graph, {"root": gadget.root}
    elif kind == "lambda":
        T = _load_graph(args.T, inputs)
        gamma = _load_graph(args.gamma, inputs)
        gadget = families.lambda_gadget(T, gamma, args.i)
        graph, coloring, extra = gadget.graph, gadget.witness_coloring, {"root": gadget.root}
    elif kind == "c-gadget":
        gp = _load_graph(args.gamma_prime, inputs)
        gadget = families.c_gadget(gp)
        graph, coloring = gadget.graph, gadget.witness_coloring
        extra = {"root": gadget.root, "co_root": gadget.co_root}
    elif kind == "distinguisher":
        T = _load_graph(args.T, inputs)
        gamma = _load_graph(args.gamma, inputs) if args.gamma else None
        gp = _load_graph(args.gamma_prime, inputs) if args.gamma_prime else None
        J = _load_graph(args.J, inputs) if args.J else None
        graph, coloring = families.diameter_distinguisher(T, args.t, gamma, gp, J)
    elif kind == "factor-extremal":
        graph, trace, cert = families.factor_extremal_graph(args.p, args.q, args.r)
        extra = {
            "params": list(trace.params),
            "hub": list(trace.hub),
            "odd_components": cert.odd_component_count,
        }
    else:  # determiner-chain
        T = _load_graph(args.T, inputs)
        d_graph = _load_graph(args.determiner, inputs)
        gadget = families.DeterminerGadget(d_graph, _parse_edge(args.beta))
        graph = families.determiner_chain(T, gadget)

    verdict = {"graph6": graph_to_graph6(graph), "n": graph.n, "m": graph.m, **extra}
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(graph_to_graph6(graph) + "\n")
    if coloring is not None:
        verdict["coloring"] = _coloring_payload(coloring, args.coloring_out)
    return verdict, 0, True


def _cmd_arrows(args, inputs):
    from . import arrowing

    f = _load_graph(args.f, inputs)
    g = _load_graph(args.g, inputs)
    h = _load_graph(args.h, inputs)
    verdict = arrowing.arrows(f, g, h, budget=args.budget)
    return _verdict_payload(verdict, args.witness_out), verdict.nodes_explored, True


def _cmd_ramsey_number(args, inputs):
    from . import arrowing

    g = _load_graph(args.g, inputs)
    h = _load_graph(args.h, inputs)
    value, nodes = arrowing._ramsey_number(g, h, args.cap, args.budget)
    return {"ramsey_number": value}, nodes, True


def _cmd_minimal(args, inputs):
    from . import arrowing

    f = _load_graph(args.f, inputs)
    g = _load_graph(args.g, inputs)
    h = _load_graph(args.h, inputs)
    value, nodes = arrowing._minimal_ramsey_check(f, g, h, args.budget)
    return {"minimal": value}, nodes, True


def _cmd_equiv_scan(args, inputs):
    from . import arrowing

    graphs = [_load_graph(p, inputs) for p in (args.g1, args.h1, args.g2, args.h2)]
    result = arrowing.equivalence_scan(*graphs, max_vertices=args.max_vertices, budget=args.budget)
    verdict = {"kind": result.kind}
    if result.reason:
        verdict["reason"] = result.reason
    if result.distinguisher is not None:
        verdict["distinguisher"] = graph_to_graph6(result.distinguisher)
        verdict["first_pair_arrows"] = result.verdict_first.arrows
        verdict["second_pair_arrows"] = result.verdict_second.arrows
    if result.skipped:
        verdict["skipped"] = [graph_to_graph6(s) for s in result.skipped]
    # Hosts the budget skipped leave "no distinguisher" open; a found one settles the scan.
    return verdict, result.nodes_explored, result.distinguisher is not None or not result.skipped


def _cmd_factor(args, inputs):
    from . import factors

    g = _load_graph(args.graph, inputs)
    witness = factors.has_k_factor(g, args.k)
    if witness is None:
        return {"k": args.k, "factor": None}, 0, True
    return {"k": args.k, "factor": sorted([u, v] for u, v in witness.edges)}, 0, True


def _cmd_belck(args, inputs):
    from . import factors

    g = _load_graph(args.graph, inputs)
    D = [int(x) for x in args.d.split(",")] if args.d else []
    cert = factors.belck_check(g, D, args.p)
    verdict = {"p": args.p, "D": sorted(set(D)), "certificate": cert is not None}
    if cert is not None:
        verdict["odd_components"] = cert.odd_component_count
    return verdict, 0, True


def _cmd_recolor(args, inputs):
    from . import recolor

    f = _load_graph(args.f, inputs)
    coloring = _load_coloring(args.coloring, f, inputs)
    if args.mode == "walk":
        result = recolor.star_clique_recolor(f, coloring, args.s, args.t)
        summary = {"mode": "walk", "s": args.s, "t": args.t}
    else:
        g = _load_graph(args.g, inputs)
        result, trace = recolor.woven_recolor(f, coloring, g, a=args.a, b=args.b, t=args.t)
        summary = {
            "mode": "woven",
            "family_size": len(trace.family_B),
            "matching": [[u, v] for u, v in trace.matching_M],
            "hitting_sets": [sorted([list(e) for e in y]) for y in trace.Y_sets],
        }
    out_path = args.out or "recolored.txt"
    with open(out_path, "w", encoding="ascii") as fh:
        fh.write(coloring_to_text(result))
    summary["output"] = out_path
    return summary, 0, True


def _cmd_verify_determiner(args, inputs):
    from . import arrowing

    d = _load_graph(args.d, inputs)
    T = _load_graph(args.T, inputs)
    results, nodes = arrowing._verify_determiner(d, _parse_edge(args.beta), T, args.t, args.budget)
    return results, nodes, None not in results.values()  # None: an axiom the budget left undecided


# -- parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _searcher(sub, name: str, handler, *required: str, help=None):
    """A searching command, labelled with its name: its required string options
    (graph6 files, and verify-determiner's --beta) in the order given, then --budget."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(handler=handler, label=name)
    for option in required:
        p.add_argument(f"--{option}", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ramseylab", description=__doc__)
    parser.add_argument(
        "--seed", type=int, default=None, help="echoed as the report's seed field; no command is randomized"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build a named graph or gadget")
    csub = con.add_subparsers(dest="kind", required=True)
    for kind in _BASIC:
        csub.add_parser(kind).add_argument("param", type=int)
    p = csub.add_parser("clique-pendants")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p = csub.add_parser("caterpillar")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--mid", type=int, default=0)
    p = csub.add_parser("uniform-tree")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p = csub.add_parser("lambda")
    p.add_argument("--T", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--coloring-out", dest="coloring_out", default=None)
    p = csub.add_parser("c-gadget")
    p.add_argument("--gamma-prime", dest="gamma_prime", required=True)
    p.add_argument("--coloring-out", dest="coloring_out", default=None)
    p = csub.add_parser("distinguisher")
    p.add_argument("--T", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--gamma", default=None)
    p.add_argument("--gamma-prime", dest="gamma_prime", default=None)
    p.add_argument("--J", default=None)
    p.add_argument("--coloring-out", dest="coloring_out", default=None)
    p = csub.add_parser("factor-extremal")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p = csub.add_parser("determiner-chain")
    p.add_argument("--T", required=True)
    p.add_argument("--determiner", required=True)
    p.add_argument("--beta", required=True, help="edge of the determiner as 'u,v'")
    for kind, p in csub.choices.items():
        p.add_argument("--out", default=None, help="also write the graph6 line to this file")
        p.set_defaults(handler=_cmd_construct, label=f"construct {kind}")

    p = _searcher(sub, "arrows", _cmd_arrows, "g", "h", "f", help="decide F -> (G, H)")
    p.add_argument("--witness-out", dest="witness_out", default=None)
    _searcher(sub, "ramsey-number", _cmd_ramsey_number, "g", "h").add_argument("--cap", type=int, required=True)
    _searcher(sub, "minimal", _cmd_minimal, "f", "g", "h")
    p = _searcher(sub, "equiv-scan", _cmd_equiv_scan, "g1", "h1", "g2", "h2")
    p.add_argument("--max-vertices", dest="max_vertices", type=int, required=True, help="1 to 9")

    p = sub.add_parser("factor")
    p.set_defaults(handler=_cmd_factor, label="factor")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("belck")
    p.set_defaults(handler=_cmd_belck, label="belck")
    p.add_argument("graph")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", default="", help="comma-separated vertex set D")

    rsub = sub.add_parser("recolor").add_subparsers(dest="mode", required=True)
    walk, woven = rsub.add_parser("walk"), rsub.add_parser("woven")
    for mode, p in rsub.choices.items():
        p.set_defaults(handler=_cmd_recolor, label=f"recolor {mode}")
        p.add_argument("f")
        p.add_argument("coloring")
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--out", default=None)
    walk.add_argument("--s", type=int, required=True)
    woven.add_argument("--g", required=True, help="the graph G (graph6 file)")
    for name in ("--a", "--b"):
        woven.add_argument(name, type=int, required=True)

    determiner = _searcher(sub, "verify-determiner", _cmd_verify_determiner, "d", "beta", "T")
    determiner.add_argument("--t", type=int, required=True)

    return parser


def main(argv=None) -> int:
    t0 = time.monotonic()
    inputs: dict[str, str] = {}
    try:
        args = build_parser().parse_args(argv)
        verdict, nodes, settled = args.handler(args, inputs)
    except MismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExhaustedError, CapExceededError) as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    _emit(args.label, inputs, verdict, nodes, t0, args.seed)
    return EXIT_OK if settled else EXIT_INDETERMINATE


if __name__ == "__main__":
    sys.exit(main())
