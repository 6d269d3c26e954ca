"""The benchmark's tracer patches ramseylab functions by module and attribute
name.  A renamed or moved function leaves its per-layer metrics empty without
failing the benchmark, so every hook target is checked here."""

import importlib
import types
from pathlib import Path

import pytest

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
