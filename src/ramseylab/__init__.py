"""Ramsey arrowing, graph factors, and gadget constructions for tree/clique pairs.

The exports below load on first use (PEP 562): `import ramseylab` loads no
submodule, and `ramseylab.arrows` imports `ramseylab.arrowing` and binds the
name, so a process pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

# The exported names, by the submodule that defines each.
_MODULES = {
    "arrowing": """ArrowingVerdict arrows equivalence_scan exhaustive_arrows minimal_ramsey_check
        ramsey_number verify_determiner""",
    "errors": "BudgetExhaustedError CapExceededError InvariantViolationError RamseyLabError",
    "factors": "BelckCertificate FactorWitness belck_check has_k_factor odd_components star_pair_regular_arrows",
    "families": """ConstructionTrace DeterminerGadget RootedGadget c_gadget determiner_chain
        diameter_distinguisher factor_extremal_graph lambda_gadget suitable_caterpillar uniform_tree""",
    "formats": "coloring_from_text coloring_to_text graph_from_graph6 graph_to_graph6",
    "graphs": "BLUE RED Edge EdgeColoring Graph clique clique_with_pendants cycle path star",
    "matching": "maximum_matching",
    "recolor": """RecolorTrace WalkTrace WovenCertificate alternating_walk_step star_clique_recolor
        woven_recolor yuv_certificate""",
    "subgraph": "clique_number cliques_of_size coloring_is_free contains_copy",
    "trees": "TreeProfile tree_classify",
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
