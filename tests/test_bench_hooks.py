"""The benchmark's tracer patches ramseylab functions by module and attribute
name.  A renamed or moved function leaves its per-layer metrics empty without
failing the benchmark, so every hook target is checked here."""

import importlib
import types
from collections import Counter
from pathlib import Path

import pytest

from ramseylab import arrowing, recolor
from ramseylab.graphs import EdgeColoring, Graph, clique

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
