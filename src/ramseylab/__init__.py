"""Ramsey arrowing, graph factors, and gadget constructions for tree/clique pairs."""

from .arrowing import (
    ArrowingVerdict,
    arrows,
    coloring_is_free,
    equivalence_scan,
    exhaustive_arrows,
    minimal_ramsey_check,
    ramsey_number,
    verify_determiner,
)
from .errors import (
    BudgetExhaustedError,
    CapExceededError,
    InvariantViolationError,
    RamseyLabError,
)
from .factors import (
    BelckCertificate,
    FactorWitness,
    belck_check,
    has_k_factor,
    odd_components,
    star_pair_regular_arrows,
)
from .families import (
    ConstructionTrace,
    DeterminerGadget,
    RootedGadget,
    basic_family,
    c_gadget,
    clique,
    clique_with_pendants,
    cycle,
    determiner_chain,
    diameter_distinguisher,
    factor_extremal_graph,
    lambda_gadget,
    path,
    star,
    suitable_caterpillar,
    uniform_tree,
)
from .formats import coloring_from_text, coloring_to_text, graph_from_graph6, graph_to_graph6
from .graphs import BLUE, RED, Edge, EdgeColoring, Graph
from .matching import maximum_matching
from .recolor import (
    RecolorTrace,
    WalkTrace,
    WovenCertificate,
    alternating_walk_step,
    star_clique_recolor,
    woven_recolor,
    yuv_certificate,
)
from .subgraph import clique_number, cliques_of_size, contains_copy
from .trees import TreeProfile, tree_classify

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
