"""Benchmark for ramseylab: closed-loop, one-client workloads with checked results.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each was chosen):

    decide-prove   11 ramsey_number sweeps with known values
    decide-refute  4 arrows calls that must return a free witness coloring
    scan           equivalence_scan(max_vertices=7) on two pairs with no distinguisher
    recolor        star_clique_recolor over every free coloring of a seeded host corpus
    cli            `python -m ramseylab.cli` subprocesses, one at a time

One client runs the workload's operations in order, pass after pass, and
starts no operation that would end after `--seconds`; at least one full pass
always runs.  Every result is checked outside the timed region by code in
this directory that shares nothing with ramseylab's search.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (bench/tracer.py) plus the
tracing overhead; it writes the spans of the first traced pass under
bench/out/.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 1 when any
operation failed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

sys.path.insert(0, SRC)
from ramseylab import arrowing, families, formats, recolor  # noqa: E402
from ramseylab.graphs import BLUE, RED, EdgeColoring, Graph  # noqa: E402

import tracer  # noqa: E402
from speed import Speed  # noqa: E402

SETUP_REPEATS = 9
SCAN_MAX_VERTICES = 7
RECOLOR_COLORINGS = 5000
RECOLOR_MAX_EDGES = 8
CLI_PROBES = 5

CLI_METRICS = ("cli.interpreter_ms", "cli.import_ms", "cli.main_ms", "cli.startup_ms")


# -- inputs --------------------------------------------------------------------


def chvatal(tree_vertices: int, t: int) -> int:
    """R(T, K_t) = (t - 1)(|T| - 1) + 1 for every tree T (Chvatal 1977)."""
    return (t - 1) * (tree_vertices - 1) + 1


def clique(t: int) -> tuple[int, list]:
    return t, list(combinations(range(t), 2))


def path(n: int) -> tuple[int, list]:
    return n, [(i, i + 1) for i in range(n - 1)]


def star(s: int) -> tuple[int, list]:
    return s + 1, [(0, i) for i in range(1, s + 1)]


K3_K2 = (4, [(0, 1), (0, 2), (1, 2), (0, 3)])  # a triangle with one pendant edge
TREES_UP_TO_5 = {
    "K1": (1, []),
    "P2": path(2),
    "P3": path(3),
    "P4": path(4),
    "K1,3": star(3),
    "P5": path(5),
    "K1,4": star(4),
    "fork": (5, [(0, 1), (1, 2), (2, 3), (1, 4)]),
}


def relabeled(rng: random.Random, graph: tuple[int, list]) -> Graph:
    """The graph under a seeded random vertex permutation; arrowing is label-free."""
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def has_copy(n: int, edges, pattern: Graph) -> bool:
    """Backtracking search for a (not necessarily induced) copy of `pattern` in
    the graph on n vertices with `edges`.  Independent of ramseylab.subgraph."""
    adj = _adjacency(n, edges)
    nbrs = [[] for _ in range(pattern.n)]
    for u, v in pattern.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    order: list[int] = []
    for root in range(pattern.n):  # breadth-first, component by component
        if root in order:
            continue
        i = len(order)
        order.append(root)
        while i < len(order):
            order.extend(w for w in nbrs[order[i]] if w not in order)
            i += 1
    image = [-1] * pattern.n
    everything = (1 << n) - 1

    def extend(i: int, used: int) -> bool:
        if i == pattern.n:
            return True
        v = order[i]
        cand = everything & ~used
        for w in nbrs[v]:
            if image[w] >= 0:
                cand &= adj[image[w]]
        while cand:
            low = cand & -cand
            cand ^= low
            image[v] = low.bit_length() - 1
            if extend(i + 1, used | low):
                return True
        image[v] = -1
        return False

    return extend(0, 0)


def witness_problem(host: Graph, red, blue, g: Graph, h: Graph) -> str | None:
    """Why (red, blue) is not a (g, h)-free coloring of host, or None if it is."""
    red, blue = set(red), set(blue)
    if red & blue or red | blue != set(host.edges):
        return "witness does not color the host's edges exactly once"
    if has_copy(host.n, red, g):
        return "witness has a red copy of g"
    if has_copy(host.n, blue, h):
        return "witness has a blue copy of h"
    return None


def star_triangle_free(n: int, red, blue) -> bool:
    """No vertex with two red edges and no blue triangle: (K_{1,2}, K_3)-free."""
    red_adj = _adjacency(n, red)
    blue_adj = _adjacency(n, blue)
    if any(a.bit_count() > 1 for a in red_adj):
        return False
    return not any(blue_adj[u] & blue_adj[v] for u, v in blue)


def blue_triangles(n: int, blue) -> tuple[bool, bool]:
    """(has a blue triangle, has a blue triangle with a blue pendant edge)."""
    adj = _adjacency(n, blue)
    found = pendant = False
    for u, v in blue:
        common = adj[u] & adj[v]
        found = found or bool(common)
        for w in range(n):
            if common >> w & 1 and any(adj[x].bit_count() > 2 for x in (u, v, w)):
                pendant = True
    return found, pendant


def free_colorings(rng: random.Random, size: int) -> list[tuple[Graph, list, list, bool]]:
    """Every (K_{1,2}, K3.K2)-free coloring of random hosts with at most
    RECOLOR_MAX_EDGES edges, drawing hosts until there are `size` colorings.

    Entries are (host, red, blue, has a blue triangle).  A free coloring's red
    edges form a matching, so only matchings are tried as red sets.
    """
    corpus = []
    while len(corpus) < size:
        n = rng.randint(4, 7)
        pairs = list(combinations(range(n), 2))
        host = Graph(n, rng.sample(pairs, rng.randint(3, min(RECOLOR_MAX_EDGES, len(pairs)))))
        matchings = [(0, [])]  # (covered vertices, red edges)
        for u, v in host.edges:
            ends = 1 << u | 1 << v
            matchings += [(cov | ends, red + [(u, v)]) for cov, red in matchings if not cov & ends]
        for _, red in matchings:
            chosen = set(red)
            blue = [e for e in host.edges if e not in chosen]
            triangle, pendant = blue_triangles(n, blue)
            if not pendant:
                corpus.append((host, red, blue, triangle))
    return corpus


# -- workloads -----------------------------------------------------------------


@dataclass
class Op:
    name: str
    run: Callable  # run(tracer or None) -> result; the timed part
    check: Callable  # check(result) -> failure reason or None; untimed


@dataclass
class Workload:
    ops: list[Op]
    child_rss_kb: list[int] | None = None  # filled by operations that spawn processes
    cli_samples: list[tuple[float, float]] = field(default_factory=list)  # (latency, elapsed)
    scratch: str | None = None


def build_decide_prove(rng: random.Random) -> Workload:
    """R(K3,K4)=9, the 8 trees on <= 5 vertices vs K3, P4 and K_{1,3} vs K4."""
    cases = [("R(K3,K4)", relabeled(rng, clique(3)), relabeled(rng, clique(4)), 9)]
    for name, tree in TREES_UP_TO_5.items():
        g = relabeled(rng, tree)
        cases.append((f"R({name},K3)", g, relabeled(rng, clique(3)), chvatal(g.n, 3)))
    for name, tree in (("P4", path(4)), ("K1,3", star(3))):
        cases.append((f"R({name},K4)", relabeled(rng, tree), relabeled(rng, clique(4)), chvatal(4, 4)))

    def op(name, g, h, expected):
        return Op(
            name,
            lambda _: arrowing.ramsey_number(g, h, cap=expected + 1),
            lambda got: None if got == expected else f"got {got}, expected {expected}",
        )

    return Workload([op(*case) for case in cases])


def build_decide_refute(rng: random.Random) -> Workload:
    """Hosts that do not arrow the pair, so a free witness must come back."""
    gadget, _ = families.diameter_distinguisher(relabeled(rng, path(4)), 3)
    cases = [
        ("K10->(P5,K4)", relabeled(rng, clique(10)), relabeled(rng, path(5)), relabeled(rng, clique(4))),
        ("K11->(P5,K4)", relabeled(rng, clique(11)), relabeled(rng, path(5)), relabeled(rng, clique(4))),
        ("K12->(K1,4,K4)", relabeled(rng, clique(12)), relabeled(rng, star(4)), relabeled(rng, clique(4))),
        (
            "D27->(P4,K3.K2)",
            relabeled(rng, (gadget.n, gadget.edges)),
            relabeled(rng, path(4)),
            relabeled(rng, K3_K2),
        ),
    ]

    def op(name, f, g, h):
        def check(verdict):
            if verdict.arrows or verdict.witness is None:
                return "expected a negative verdict with a witness"
            if verdict.witness.host != f:
                return "witness colors another host"
            return witness_problem(f, verdict.witness.red, verdict.witness.blue, g, h)

        return Op(name, lambda _: arrowing.arrows(f, g, h), check)

    return Workload([op(*case) for case in cases])


def build_scan(rng: random.Random) -> Workload:
    """(K_{1,2}, K3) vs (K_{1,2}, K3.K2) and (P4, K3) vs (P4, K3.K2)."""

    def op(name, first, second):
        g1, h1, g2, h2 = (relabeled(rng, x) for x in (first, clique(3), second, K3_K2))
        return Op(
            name,
            lambda _: arrowing.equivalence_scan(g1, h1, g2, h2, max_vertices=SCAN_MAX_VERTICES),
            lambda r: None
            if r.kind == "no-distinguisher-found" and not r.skipped
            else f"scan returned {r.kind} with {len(r.skipped)} skipped hosts",
        )

    return Workload([op("K1,2", star(2), star(2)), op("P4", path(4), path(4))])


def build_recolor(rng: random.Random) -> Workload:
    """star_clique_recolor(s=2, t=3) on every coloring of the seeded corpus."""

    def op(index, host, red, blue, triangle):
        coloring = EdgeColoring(host, red=red, blue=blue)

        def check(out):
            if out.host != host:
                return "output colors another host"
            if not star_triangle_free(host.n, out.red, out.blue):
                return "output has a red K_{1,2} or a blue triangle"
            if (out != coloring) != triangle:
                return "output must differ from the input exactly when it has a blue triangle"
            return None

        return Op(f"c{index}", lambda _: recolor.star_clique_recolor(host, coloring, 2, 3), check)

    corpus = free_colorings(rng, RECOLOR_COLORINGS)
    return Workload([op(i, *entry) for i, entry in enumerate(corpus)])


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path


def build_cli(rng: random.Random) -> Workload:
    """arrows, ramsey-number, equiv-scan --max-vertices 5 and recolor walk."""
    scratch = os.path.join(OUT, f"cli-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    wl = Workload([], child_rss_kb=[], scratch=scratch)
    seed = rng.randrange(1 << 30)

    def graph_file(name: str, graph: Graph) -> str:
        return _write(os.path.join(scratch, name + ".g6"), formats.graph_to_graph6(graph) + "\n")

    star2, k3 = relabeled(rng, star(2)), relabeled(rng, clique(3))
    c5, p4, k3_k2 = relabeled(rng, (5, path(5)[1] + [(0, 4)])), relabeled(rng, path(4)), relabeled(rng, K3_K2)
    files = {
        name: graph_file(name, graph)
        for name, graph in (("star2", star2), ("k3", k3), ("c5", c5), ("p4", p4), ("k3k2", k3_k2))
    }
    # About 3% of free colorings have a blue triangle; 1000 make one certain.
    host, red, blue, _ = rng.choice([entry for entry in free_colorings(rng, 1000) if entry[3]])
    files["f"] = graph_file("f", host)
    files["coloring"] = _write(
        os.path.join(scratch, "coloring.txt"),
        formats.coloring_to_text(EdgeColoring(host, red=red, blue=blue)),
    )
    recolored = os.path.join(scratch, "recolored.txt")

    def arrows_check(report):
        verdict = report["verdict"]
        if verdict.get("arrows") is not False or verdict["witness"]["format"] != "inline":
            return f"expected an inline witness, got {verdict}"
        edges = verdict["witness"]["edges"]
        return witness_problem(
            c5, [(u, v) for u, v, c in edges if c == RED], [(u, v) for u, v, c in edges if c == BLUE], star2, k3
        )

    def recolor_check(report):
        with open(recolored, encoding="ascii") as fh:
            rows = [line.split() for line in fh.read().splitlines()[1:]]
        out_red = [(int(u), int(v)) for u, v, c in rows if c == RED]
        out_blue = [(int(u), int(v)) for u, v, c in rows if c == BLUE]
        if sorted(out_red + out_blue) != list(host.edges):
            return "recolored file colors another host"
        if not star_triangle_free(host.n, out_red, out_blue):
            return "recolored output has a red K_{1,2} or a blue triangle"
        if sorted(out_red) == sorted(red):
            return "input has a blue triangle but the output is unchanged"
        return None

    commands = (
        ("arrows", ["arrows", "--g", files["star2"], "--h", files["k3"], "--f", files["c5"]], arrows_check),
        (
            "ramsey-number",
            ["ramsey-number", "--g", files["p4"], "--h", files["k3"], "--cap", "10"],
            lambda r: None
            if r["verdict"] == {"ramsey_number": chvatal(4, 3)}
            else f"got {r['verdict']}, expected {chvatal(4, 3)}",
        ),
        (
            "equiv-scan",
            ["equiv-scan", "--g1", files["star2"], "--h1", files["k3"], "--g2", files["star2"]]
            + ["--h2", files["k3k2"], "--max-vertices", "5"],
            lambda r: None if r["verdict"] == {"kind": "no-distinguisher-found"} else f"got {r['verdict']}",
        ),
        (
            "recolor-walk",
            ["recolor", "walk", files["f"], files["coloring"], "--s", "2", "--t", "3", "--out", recolored],
            recolor_check,
        ),
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("RAMSEYLAB_SEED", None)

    def op(index, name, argv, check_verdict):
        def run(trace):
            cmd = [sys.executable, "-m", "ramseylab.cli"]
            spans_path = None
            if trace is not None:
                spans_path = os.path.join(scratch, f"spans-{index}.json")
                cmd = [sys.executable, os.path.join(BENCH, "cli_traced.py"), spans_path]
            with open(os.path.join(scratch, "stderr.txt"), "w+b") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(
                    cmd + ["--seed", str(seed)] + argv, stdout=subprocess.PIPE, stderr=err, env=env
                )
                with proc.stdout:
                    out = proc.stdout.read()
                # wait4 rather than wait: it also reports the child's peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
                latency = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
                wl.child_rss_kb.append(usage.ru_maxrss)
                if proc.returncode != 0:
                    err.seek(0)
                    raise RuntimeError(f"exit {proc.returncode}: {err.read().decode(errors='replace')}")
            report = json.loads(out)
            if trace is None:
                wl.cli_samples.append((latency, report["elapsed"]))
            else:
                spans, absent = tracer.load(spans_path)
                for span in spans:
                    span[tracer.OP] = index
                trace.children.append(spans)
                trace.absent.update(absent)
            return report

        def check(report):
            if report.get("schema") != 1 or report.get("seed") != seed:
                return f"unexpected report header: schema={report.get('schema')} seed={report.get('seed')}"
            return check_verdict(report)

        return Op(name, run, check)

    wl.ops = [op(i, *command) for i, command in enumerate(commands)]
    return wl


WORKLOADS = {
    "decide-prove": build_decide_prove,
    "decide-refute": build_decide_refute,
    "scan": build_scan,
    "recolor": build_recolor,
    "cli": build_cli,
}


# -- measurement -----------------------------------------------------------------


class Runner:
    """Runs operations one at a time and checks each result outside its timing."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.ops = workload.ops
        self.timed: list[list[tuple[float, float]]] = [[] for _ in self.ops]  # (start, seconds)
        self.first_pass_rss_kb = 0
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def run_op(self, index: int, trace: tracer.Tracer | None = None) -> tuple[float, float]:
        """Run and check one operation; returns when it started and its seconds."""
        op = self.ops[index]
        self.attempted += 1
        if trace is not None:
            trace.op = index
        start = time.perf_counter()
        try:
            result = op.run(trace)
        except Exception:  # one failed operation must not end the run
            self.failures.append((op.name, traceback.format_exc()))
            return start, time.perf_counter() - start
        took = time.perf_counter() - start
        try:
            problem = op.check(result)
        except Exception:
            problem = traceback.format_exc()
        if problem:
            self.failures.append((op.name, problem))
        return start, took

    def closed_loop(self, seconds: float, between_ops: Callable[[], float]) -> int:
        """Untraced passes until the next operation would end after `seconds`.

        `between_ops` runs before each operation and returns the seconds it
        took, which extend the deadline.  Returns the number of full passes.
        """
        n = len(self.ops)
        deadline = time.perf_counter() + seconds
        i = 0
        while i < n or time.perf_counter() + self.timed[i % n][-1][1] <= deadline:
            deadline += between_ops()
            self.timed[i % n].append(self.run_op(i % n))
            i += 1
            if i == n:
                # Before the samples of later passes add to the process's size.
                self.first_pass_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return i // n

    def traced_loop(self, seconds: float):
        """Alternate untraced and traced passes.

        Returns the (start, seconds) of each traced pass's operations, the
        per-layer values of each traced pass and the tracer of the first one;
        untraced operations go to `timed` as in `closed_loop`.
        """
        deadline = time.perf_counter() + seconds
        passes: list[list[tuple[float, float]]] = []
        layers: list[dict] = []
        first = None
        last_took = {False: 0.0, True: 0.0}
        traced = False
        while not passes or time.perf_counter() + last_took[traced] <= deadline:
            begin = time.perf_counter()
            if not traced:
                for k in range(len(self.ops)):
                    self.timed[k].append(self.run_op(k))
            else:
                trace = tracer.Tracer()
                trace.install()
                try:
                    passes.append([self.run_op(k, trace) for k in range(len(self.ops))])
                finally:
                    trace.restore()
                layers.append(tracer.layer_values([trace.spans] + trace.children, trace.absent))
                first = first or trace
            last_took[traced] = time.perf_counter() - begin
            traced = not traced
        return passes, layers, first

    def scaled(self, speed: Speed) -> list[list[float]]:
        """Each operation's samples at reference speed."""
        return [[speed.scaled(start, took) for start, took in per_op] for per_op in self.timed]


class SetupTimer:
    """Times the set-up (interpreter start, imports, input generation) of the
    workload in fresh interpreters, SETUP_REPEATS times spread over the run,
    so that one burst of load on the machine cannot reach most of them."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload]
        self.cmd += ["--seed", str(seed), "--seconds", str(seconds), "--setup-only"]
        self.every = seconds / SETUP_REPEATS
        self.timed: list[tuple[float, float]] = []  # (start, seconds)

    def once(self) -> float:
        """Time one set-up; returns its seconds."""
        start = time.perf_counter()
        subprocess.run(self.cmd, check=True, stdout=subprocess.DEVNULL)
        self.timed.append((start, time.perf_counter() - start))
        return self.timed[-1][1]

    def when_due(self) -> float:
        """Time one set-up if the last began `every` seconds ago or more."""
        due = not self.timed or time.perf_counter() - self.timed[-1][0] >= self.every
        return self.once() if due and len(self.timed) < SETUP_REPEATS else 0.0

    def finish(self) -> None:
        while len(self.timed) < SETUP_REPEATS:
            self.once()


def _probe_ms(code: str) -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    return 1000 * (time.perf_counter() - start)


def cli_layer(wl: Workload) -> dict[str, float]:
    """Best interpreter start, `import ramseylab.cli`, time inside main() (the
    report's `elapsed`) and rest of a CLI call (latency - elapsed), in ms."""
    if not wl.cli_samples:
        return dict.fromkeys(CLI_METRICS, 0.0)  # no CLI process ran in this workload
    bare, imported = [], []
    for _ in range(CLI_PROBES):
        bare.append(_probe_ms("pass"))
        imported.append(_probe_ms("import ramseylab.cli"))
    return {
        "cli.interpreter_ms": min(bare),
        "cli.import_ms": min(imported) - min(bare),
        "cli.main_ms": 1000 * min(el for _, el in wl.cli_samples),
        "cli.startup_ms": 1000 * min(lat - el for lat, el in wl.cli_samples),
    }


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def end_to_end(runner: Runner, setup: SetupTimer, speed: Speed) -> dict[str, float]:
    """Time metrics at reference speed; each operation counts with its median."""
    wl = runner.workload
    per_op = [statistics.median(s) for s in runner.scaled(speed) if s]
    rss_kb = max(wl.child_rss_kb) if wl.child_rss_kb else runner.first_pass_rss_kb
    return {
        "setup_s": statistics.median(speed.scaled(start, took) for start, took in setup.timed),
        "wall_s": sum(per_op),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(runner: Runner, passes, layers, speed: Speed) -> dict[str, float | None]:
    """Layer values of the fastest traced pass (counts are the same in every
    pass), the CLI split, the tracing overhead and the p90 operation."""
    traced_s = [sum(speed.scaled(start, took) for start, took in ops) for ops in passes]
    untraced = [statistics.median(s) for s in runner.scaled(speed) if s]
    fastest = min(range(len(passes)), key=traced_s.__getitem__)
    values: dict[str, float | None] = dict(layers[fastest])
    values.update(cli_layer(runner.workload))
    values["trace.overhead_ratio"] = statistics.median(traced_s) / sum(untraced) - 1
    values["trace.pass_s"] = sum(took for _, took in passes[fastest])
    values["op.p90_ms"] = 1000 * p90(untraced)
    return values


UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    **{name: unit for name, unit, _, _ in tracer.LAYER_METRICS},
    **dict.fromkeys(CLI_METRICS, "ms"),
    "trace.overhead_ratio": "ratio",
    "trace.pass_s": "s",
    "op.p90_ms": "ms",
}


def dump_spans(path: str, trace: tracer.Tracer, **header) -> None:
    """Write one traced pass; child-process spans follow with shifted parents."""
    merged: list[list] = []
    for spans in [trace.spans] + trace.children:
        offset = len(merged)
        merged.extend(s[:3] + [s[3] + offset if s[3] >= 0 else -1] + s[4:] for s in spans)
    tracer.dump(path, merged, trace.absent, **header)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if os.path.dirname(os.path.abspath(arrowing.__file__)) != os.path.join(SRC, "ramseylab"):
        print(f"error: ramseylab was imported from outside {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if not args.setup_only:
        # One core for the benchmark and its children, so that the reference
        # computation measures the core the operations run on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = WORKLOADS[args.workload](random.Random(args.seed))
    runner = Runner(wl)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    speed = Speed()
    try:
        if args.setup_only:
            return 0
        speed.start()
        try:
            if args.trace:
                passes, layers, first = runner.traced_loop(args.seconds)
            else:
                setup = SetupTimer(args.workload, args.seed, args.seconds)
                try:
                    summary["passes"] = runner.closed_loop(args.seconds, setup.when_due)
                    setup.finish()
                except subprocess.CalledProcessError as exc:
                    print(f"error: set-up failed: {exc}", file=sys.stderr)
                    return 1
        finally:
            speed.stop()
        if args.trace:
            metrics = per_layer(runner, passes, layers, speed)
            spans_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
            dump_spans(spans_path, first, workload=args.workload, seed=args.seed)
            summary.update(passes=2 * len(passes), spans=spans_path, absent_hooks=sorted(first.absent))
        else:
            metrics = end_to_end(runner, setup, speed)
            raw = [statistics.median(took for _, took in per_op) for per_op in runner.timed if per_op]
            summary["wall_clock"] = {
                "setup_s": statistics.median(took for _, took in setup.timed),
                "wall_s": sum(raw),
                "op_p50_ms": 1000 * statistics.median(raw),
            }
    finally:
        if wl.scratch:
            shutil.rmtree(wl.scratch, ignore_errors=True)
    failed = len(runner.failures)
    for name, why in runner.failures[:5]:
        print(f"FAILED {name}: {why}", file=sys.stderr)
    if len(runner.ops) <= 16:
        summary["op_wall_clock_ms"] = {
            op.name: 1000 * statistics.median(took for _, took in per_op)
            for op, per_op in zip(runner.ops, runner.timed)
            if per_op
        }
    summary["fail_ratio"] = failed / runner.attempted
    print(json.dumps(summary))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
