"""The package's exports load on first use; this checks that the lazy
surface is the one an eager package would give."""

import os
import subprocess
import sys
from pathlib import Path

import ramseylab

_PROBE = """
import importlib, inspect, sys
import ramseylab

assert set(ramseylab.__all__) <= set(dir(ramseylab))
try:
    ramseylab.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")

namespace = {}
exec("from ramseylab import *", namespace)
del namespace["__builtins__"]
assert sorted(namespace) == sorted(ramseylab.__all__), sorted(set(namespace) ^ set(ramseylab.__all__))

modules = [sys.modules[m] for m in sorted(sys.modules) if m.startswith("ramseylab.")]
for name, value in namespace.items():
    assert not inspect.ismodule(value), name
    assert getattr(ramseylab, name) is value, name
    owner = getattr(value, "__module__", None)
    if owner is not None and owner.startswith("ramseylab."):
        assert getattr(importlib.import_module(owner), name) is value, name
    # Every module that names the export, defining or re-exporting it, holds the same object.
    assert all(getattr(m, name) is value for m in modules if hasattr(m, name)), name

assert ramseylab.clique is ramseylab.families.clique is ramseylab.graphs.clique
free = ramseylab.coloring_is_free
assert free is ramseylab.arrowing.coloring_is_free is ramseylab.recolor.coloring_is_free
assert free is ramseylab.subgraph.coloring_is_free
print("ok")
"""


def test_lazy_exports_match_an_eager_package():
    # A fresh interpreter: this one has loaded every submodule already.
    src = str(Path(ramseylab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
    )
    assert (out.returncode, out.stdout) == (0, "ok\n"), out.stderr
