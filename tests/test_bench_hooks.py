"""The benchmark's tracer patches ramseylab functions by module and attribute
name.  A renamed or moved function leaves its per-layer metrics empty without
failing the benchmark, so every hook target is checked here."""

import importlib
import types
from collections import Counter
from pathlib import Path

import pytest

from ramseylab import arrowing, recolor
from ramseylab.enumeration import graphs_up_to_vertices
from ramseylab.graphs import EdgeColoring, Graph, clique, star

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    # Executed from its source, so loading writes nothing under bench/.
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("module_path, attr_path", [hook[:2] for hook in _load_tracer().HOOKS])
def test_tracer_hook_target_exists(module_path, attr_path):
    owner = importlib.import_module(module_path)
    for part in attr_path.split("."):
        assert hasattr(owner, part), f"{module_path}.{attr_path} is gone"
        owner = getattr(owner, part)
    assert callable(owner)


def test_subgraph_hooks_record_calls():
    # The witness re-check, the recoloring and its walk steps, their freeness
    # checks, the walk's pendant check and its blue-clique listing go through
    # names the tracer hooks; a search routed round them would leave its
    # layer at 0 calls.
    tracer = _load_tracer()
    trace = tracer.Tracer()
    trace.install()
    try:
        assert not arrowing.arrows(clique(5), clique(3), clique(3)).arrows
        f = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        c = EdgeColoring(f, red=[(2, 3)], blue=[(0, 1), (1, 2), (0, 2)])  # a blue triangle
        assert recolor.star_clique_recolor(f, c, 2, 3) != c
    finally:
        trace.restore()
    calls = Counter(span[tracer.NAME] for span in trace.spans)
    assert calls["subgraph.contains_copy"] > 0
    assert calls["subgraph.cliques_of_size"] > 0
    assert calls["arrowing.witness_check"] > 0
    assert calls["recolor.freeness_check"] > 0
    assert calls["recolor.star_clique_recolor"] > 0
    assert calls["recolor.walk_step"] > 0


def test_scan_hook_counts_the_graphs_listed(monkeypatch):
    # The scan drives the enumeration; its listing must still reach the
    # tracer, or `enumeration.graphs.count` would read 0 on a working scan.
    listings = []

    def spying(*args, **kwargs):
        listings.append(graphs_up_to_vertices(*args, **kwargs))
        return listings[-1]

    monkeypatch.setattr(arrowing, "graphs_up_to_vertices", spying)
    tracer = _load_tracer()
    trace = tracer.Tracer()
    trace.install()
    try:
        K3_K2 = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        res = arrowing.equivalence_scan(star(2), clique(3), star(2), K3_K2, max_vertices=6)
    finally:
        trace.restore()
    assert res.kind == "no-distinguisher-found"
    [listed] = listings
    [span] = [s for s in trace.spans if s[tracer.NAME] == "enumeration.graphs"]
    assert span[tracer.COUNT] == len(listed) > 0
    assert tracer.layer_values([trace.spans], trace.absent)["enumeration.graphs.count"] == len(listed)
