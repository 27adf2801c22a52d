"""Matousek-type unique sink orientations, end to end.

Construct orientations from dimension influence graphs, decide which of
them are realizable, synthesize realizing cyclic extensions and exact
rational P-LCP instances, and measure Random Facet sink-finding cost.
"""

from .cube import (
    MAX_DIMENSION,
    MAX_ROW_DIMENSION,
    USO_PAIR_CAP,
    Face,
    Orientation,
    check_orientation,
    dims_to_mask,
    global_sink,
    is_uso,
    mask_to_dims,
    uso_by_pairs,
)
from .matousek import (
    CyclicInfluence,
    InfluenceGraph,
    NotMatousekType,
    build_matousek,
    extract_influence_graph,
    flip_facet,
)
from .realizability import (
    Branching,
    ForbiddenWitness,
    find_forbidden,
    holt_klee_3face,
    is_branching_closure,
    synthesize_extension,
)
from .matroid import (
    Q,
    CyclicExtension,
    containment_graph,
    extension_to_uso,
    push_q_left,
    validate_conditions,
)
from .plcp import (
    CandidateSolution,
    DegenerateQ,
    PLCPInstance,
    RationalMatrix,
    is_p_matrix,
    plcp_to_uso,
    solve_candidate,
    translate_to_plcp,
)
from .random_facet import (
    FAMILIES,
    RfResult,
    TrialStats,
    family_graph,
    random_facet,
    run_trials,
    stats_to_csv,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_DIMENSION",
    "MAX_ROW_DIMENSION",
    "USO_PAIR_CAP",
    "Face",
    "Orientation",
    "check_orientation",
    "dims_to_mask",
    "global_sink",
    "is_uso",
    "mask_to_dims",
    "uso_by_pairs",
    "CyclicInfluence",
    "InfluenceGraph",
    "NotMatousekType",
    "build_matousek",
    "extract_influence_graph",
    "flip_facet",
    "Branching",
    "ForbiddenWitness",
    "find_forbidden",
    "holt_klee_3face",
    "is_branching_closure",
    "synthesize_extension",
    "Q",
    "CyclicExtension",
    "containment_graph",
    "extension_to_uso",
    "push_q_left",
    "validate_conditions",
    "CandidateSolution",
    "DegenerateQ",
    "PLCPInstance",
    "RationalMatrix",
    "is_p_matrix",
    "plcp_to_uso",
    "solve_candidate",
    "translate_to_plcp",
    "FAMILIES",
    "RfResult",
    "TrialStats",
    "family_graph",
    "random_facet",
    "run_trials",
    "stats_to_csv",
    "__version__",
]
