"""Every public name must be used by the library or a demo, not only by tests,
and every field of an exported dataclass must be read somewhere."""

import ast
import dataclasses
import inspect
import re
from collections import Counter
from pathlib import Path

import ramseylab

ROOT = Path(__file__).resolve().parent.parent

# The exhaustive oracle is public so that any verdict can be re-checked by brute
# force; by design no library path calls it, and the tests compare against it.
# The invariance tests relabel hosts and patterns through Graph.relabeled; a
# copy of it in each test file would only add code.
EXEMPT = {"exhaustive_arrows", "Graph.relabeled"}
METHOD_KINDS = (classmethod, staticmethod, property)


def _referencing_text() -> str:
    sources = [p for p in sorted((ROOT / "src" / "ramseylab").glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    return "\n".join(p.read_text(encoding="utf-8") for p in sources)


def _public_methods():
    """(class name, method name) for each public method or property of an exported class."""
    for name in ramseylab.__all__:
        cls = getattr(ramseylab, name)
        if inspect.isclass(cls):
            for attr, value in vars(cls).items():
                method = inspect.isfunction(value) or isinstance(value, METHOD_KINDS)
                if method and not attr.startswith("_"):
                    yield name, attr


def test_every_export_is_referenced():
    text = _referencing_text()
    unreferenced = []
    for name in ramseylab.__all__:
        if name in EXEMPT or inspect.ismodule(getattr(ramseylab, name)):
            continue
        # The name's own definition line is not a reference to it.
        definition = re.compile(rf"^\s*(?:def|class)\s+{name}\b.*$", re.MULTILINE)
        if not re.search(rf"\b{name}\b", definition.sub("", text)):
            unreferenced.append(name)
    assert unreferenced == []


def test_every_public_method_is_referenced():
    # A method or property of an exported class counts as used where `.name`
    # appears outside its own definition.
    text = _referencing_text()
    unreferenced = []
    for name, attr in _public_methods():
        if f"{name}.{attr}" not in EXEMPT:
            definition = re.compile(rf"^\s*def\s+{attr}\b.*$", re.MULTILINE)
            if not re.search(rf"\.{attr}\b", definition.sub("", text)):
                unreferenced.append(f"{name}.{attr}")
    assert unreferenced == []


def test_no_public_method_name_is_shared():
    # The `.name` search above cannot tell apart the callers of two classes'
    # methods of the same name, so one would hide the other's disuse.
    defined = Counter(attr for _, attr in _public_methods())
    assert [attr for attr, count in defined.items() if count > 1] == []


def test_every_dataclass_field_is_read():
    # A field of an exported dataclass is read where `.field` appears in the
    # library, a demo or a test; a field nothing reads is dead weight.
    sources = sorted((ROOT / "src" / "ramseylab").glob("*.py"))
    sources += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    text = "\n".join(p.read_text(encoding="utf-8") for p in sources)
    unread = []
    for name in ramseylab.__all__:
        cls = getattr(ramseylab, name)
        if inspect.isclass(cls) and dataclasses.is_dataclass(cls):
            for field in dataclasses.fields(cls):
                if not re.search(rf"\.{field.name}\b", text):
                    unread.append(f"{name}.{field.name}")
    assert unread == []


# `bench/tracer.py` hooks `enumeration.iso_test` by patching this name in
# `enumeration`, so the module keeps it though it never calls it.
UNUSED_IMPORT_ALLOWED = {"enumeration.contains_copy"}


def test_no_module_imports_a_name_it_never_uses():
    # A name imported and never read is dead weight or a re-export shim; the
    # package's exports load through `__init__`, so no other module needs one.
    unused = []
    for path in sorted((ROOT / "src" / "ramseylab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += sorted(f"{path.stem}.{name}" for name in imported - used)
    assert sorted(set(unused) - UNUSED_IMPORT_ALLOWED) == []
    assert set(unused) >= UNUSED_IMPORT_ALLOWED  # an allowance nothing needs goes too
