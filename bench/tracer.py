"""Span tracing of ramseylab from outside the package.

The tracer swaps module attributes (the names a caller looks up at call time)
for timing wrappers, so no file under src/ is edited.  A span is
(name, start, end, parent, op id, n): `parent` is the index of the enclosing
span or -1, and `n` is a count read from the return value where one exists
(clauses returned, nodes explored, graphs kept).

Patching a caller's binding attributes a shared function to the module that
calls it: `ramseylab.recolor.coloring_is_free` is the freeness check of the
recoloring, `ramseylab.arrowing.coloring_is_free` the witness re-check inside
`arrows`.  Engine build and DFS both run inside `_ArrowEngine`, which no
module attribute separates, so they are reported together as the self time
of `arrows`; splitting them needs counters inside the program.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# (module path, attribute path, span name, count read from the result)
HOOKS = (
    ("ramseylab.arrowing", "ramsey_number", "arrowing.ramsey_number", None),
    ("ramseylab.arrowing", "equivalence_scan", "arrowing.equivalence_scan", None),
    ("ramseylab.arrowing", "arrows", "arrowing.arrows", lambda r: r.nodes_explored),
    ("ramseylab.arrowing", "copies_as_edge_sets", "subgraph.copies_as_edge_sets", len),
    ("ramseylab.arrowing", "are_isomorphic", "enumeration.are_isomorphic", None),
    ("ramseylab.arrowing", "coloring_is_free", "arrowing.witness_check", None),
    ("ramseylab.arrowing", "contains_copy", "subgraph.contains_copy", None),
    ("ramseylab.arrowing", "graphs_up_to_vertices", "enumeration.graphs", len),
    ("ramseylab.enumeration", "contains_copy", "enumeration.iso_test", None),
    ("ramseylab.enumeration", "IsoClassStore.add", "enumeration.store.add", int),
    ("ramseylab.recolor", "star_clique_recolor", "recolor.star_clique_recolor", None),
    ("ramseylab.recolor", "alternating_walk_step", "recolor.walk_step", None),
    ("ramseylab.recolor", "coloring_is_free", "recolor.freeness_check", None),
    ("ramseylab.recolor", "contains_copy", "subgraph.contains_copy", None),
    ("ramseylab.recolor", "cliques_of_size", "subgraph.cliques_of_size", None),
    ("ramseylab.cli", "main", "cli.main", None),
)

NAME, START, END, PARENT, OP, COUNT = range(6)


def _resolve(module_path: str, attr_path: str):
    """Return (owner object, attribute name, current value) or None if absent."""
    try:
        owner = importlib.import_module(module_path)
    except ImportError:
        return None
    *outer, last = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, last):
        return None
    return owner, last, getattr(owner, last)


class Tracer:
    """Collects spans in memory while installed; `restore` undoes every patch."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.absent: set[str] = set()
        self.children: list[list[list]] = []  # span lists of traced child processes
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every hook target; targets that no longer exist are recorded as absent."""
        for module_path, attr_path, name, count in HOOKS:
            found = _resolve(module_path, attr_path)
            if found is None:
                self.absent.add(name)
                continue
            owner, attr, original = found
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name: str, count):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[COUNT] = count(result)
                return result
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced


def _ratio(num: float, den: float) -> float:
    # A layer that did no work on this workload has no rate: report 0.
    return num / den if den else 0.0


def _calls(metric: str, span: str):
    return (metric, "count", (span,), lambda a: a.calls[span])


def _secs(metric: str, span: str):
    return (metric, "s", (span,), lambda a: a.secs[span])


def _count(metric: str, span: str):
    return (metric, "count", (span,), lambda a: a.counts[span])


# Per-layer metric: (name, unit, hooks it needs, value from an Aggregate).
LAYER_METRICS = (
    _calls("arrowing.arrows.calls", "arrowing.arrows"),
    ("arrowing.arrows.self_s", "s", ("arrowing.arrows",), lambda a: a.own["arrowing.arrows"]),
    _count("arrowing.nodes", "arrowing.arrows"),
    (
        "arrowing.us_per_node",
        "us",
        ("arrowing.arrows",),
        lambda a: 1e6 * _ratio(a.own["arrowing.arrows"], a.counts["arrowing.arrows"]),
    ),
    _count("arrowing.clauses", "subgraph.copies_as_edge_sets"),
    _calls("arrowing.witness_check.calls", "arrowing.witness_check"),
    _secs("arrowing.witness_check.s", "arrowing.witness_check"),
    _calls("subgraph.copies_as_edge_sets.calls", "subgraph.copies_as_edge_sets"),
    _secs("subgraph.copies_as_edge_sets.s", "subgraph.copies_as_edge_sets"),
    _calls("subgraph.contains_copy.calls", "subgraph.contains_copy"),
    _secs("subgraph.contains_copy.s", "subgraph.contains_copy"),
    _secs("subgraph.cliques_of_size.s", "subgraph.cliques_of_size"),
    _secs("enumeration.graphs.s", "enumeration.graphs"),
    _count("enumeration.graphs.count", "enumeration.graphs"),
    _calls("enumeration.store.offered", "enumeration.store.add"),
    _count("enumeration.store.kept", "enumeration.store.add"),
    (
        "enumeration.store.keep_ratio",
        "ratio",
        ("enumeration.store.add",),
        lambda a: _ratio(a.counts["enumeration.store.add"], a.calls["enumeration.store.add"]),
    ),
    _calls("enumeration.iso_test.calls", "enumeration.iso_test"),
    _secs("enumeration.iso_test.s", "enumeration.iso_test"),
    _calls("enumeration.are_isomorphic.calls", "enumeration.are_isomorphic"),
    _calls("recolor.freeness_check.calls", "recolor.freeness_check"),
    _secs("recolor.freeness_check.s", "recolor.freeness_check"),
    _calls("recolor.walk_step.calls", "recolor.walk_step"),
    _secs("recolor.walk_step.s", "recolor.walk_step"),
    (
        "recolor.walk_ratio",
        "ratio",
        ("recolor.walk_step", "recolor.star_clique_recolor"),
        lambda a: _ratio(a.walked, a.calls["recolor.star_clique_recolor"]),
    ),
    (
        "recolor.star_clique_recolor.self_s",
        "s",
        ("recolor.star_clique_recolor",),
        lambda a: a.own["recolor.star_clique_recolor"],
    ),
)


class Aggregate:
    """Per span name: calls, total seconds, self seconds and summed result counts.

    `walked` is the number of star_clique_recolor spans with a walk_step child.
    """

    def __init__(self, span_lists):
        self.calls: Counter[str] = Counter()
        self.secs: Counter[str] = Counter()
        self.own: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.walked = 0
        for spans in span_lists:
            inner = [0.0] * len(spans)
            walked_parents = set()
            for span in spans:
                if span[PARENT] >= 0:
                    inner[span[PARENT]] += span[END] - span[START]
                    if span[NAME] == "recolor.walk_step":
                        walked_parents.add(span[PARENT])
            self.walked += sum(
                1 for i in walked_parents if spans[i][NAME] == "recolor.star_clique_recolor"
            )
            for i, span in enumerate(spans):
                name, took = span[NAME], span[END] - span[START]
                self.calls[name] += 1
                self.secs[name] += took
                self.own[name] += took - inner[i]
                if span[COUNT] is not None:
                    self.counts[name] += span[COUNT]


def layer_values(span_lists, absent) -> dict[str, float | None]:
    """Every LAYER_METRICS value for one pass; None where a needed hook is absent."""
    agg = Aggregate(span_lists)
    return {
        name: None if absent.intersection(needs) else value(agg)
        for name, _, needs, value in LAYER_METRICS
    }


def dump(path: str, spans: list[list], absent, **header) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                **header,
                "absent": sorted(absent),
                "fields": ["name", "start", "end", "parent", "op", "count"],
                "spans": spans,
            },
            fh,
        )


def load(path: str) -> tuple[list[list], list[str]]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["spans"], data["absent"]
