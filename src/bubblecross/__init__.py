"""Crossing-count toolkit for bubble-sort graphs.

Builds the permutation graphs and their sixth-part subgraphs, counts
mesh crossings with both closed formulas and a brute-force geometric
oracle, simulates the arc-count state machine of the recursive drawing,
and evaluates the exact upper-bound recurrences in arbitrary precision.
"""

from .bounds import (
    BoundRow,
    base_values,
    bound_table,
    bracket,
    bracket_bound,
    nu_dn,
    nu_dprime,
    recurrence_even,
    recurrence_odd,
    summed_bound,
)
from .config import DEFAULT_SEED
from .drawing import (
    GenerationState,
    ReplacementPlan,
    Side,
    StructureKind,
    VertexState,
    choose_structure,
    make_policy,
    replace_vertex,
    run_generations,
    seed_d6,
    step_generation,
)
from .errors import DimensionGuardError, StateInvariantError
from .graphs import (
    LabeledGraph,
    SymmetryResult,
    build_bn,
    build_bprime,
    edges_planar,
    is_connected,
    is_planar,
    label_str,
    symmetry_classes,
    to_dot,
    to_json,
)
from .mesh import (
    MeshSpec,
    SwapStep,
    exhaustive_max,
    mesh_from_json,
    mesh_max,
    mesh_svg,
    mesh_to_json,
    optimal_permutation,
    oracle_crossings,
    pair_crossings,
    sort_spec,
    total_crossings,
)
from .perms import (
    CANONICAL_PATTERNS,
    check_perm,
    expand_vertex,
    in_bprime,
    inversions,
    neighbors,
    pattern_classes,
    pattern_of,
    perm_rank,
    perm_unrank,
    triple_order,
)

__version__ = "0.1.0"
