"""Crossing-count toolkit for bubble-sort graphs.

Builds the permutation graphs and their sixth-part subgraphs, counts
mesh crossings with both closed formulas and a brute-force geometric
oracle, simulates the arc-count state machine of the recursive drawing,
and evaluates the exact upper-bound recurrences in arbitrary precision.

Importing the package loads no layer: each name in `_EXPORTS` is taken
from its module on first use (PEP 562) and then cached in this namespace.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "bounds": (
        "BoundRow", "base_values", "bound_table", "bracket", "bracket_bound", "nu_dn",
        "nu_dprime", "recurrence_even", "recurrence_odd", "summed_bound",
    ),
    "config": ("DEFAULT_SEED",),
    "drawing": (
        "GenerationState", "ReplacementPlan", "Side", "StructureKind", "VertexState",
        "choose_structure", "make_policy", "replace_vertex", "run_generations", "seed_d6",
        "step_generation",
    ),
    "errors": ("DimensionGuardError", "StateInvariantError"),
    "graphs": (
        "LabeledGraph", "SymmetryResult", "build_bn", "build_bprime", "edges_planar",
        "is_connected", "is_planar", "label_str", "symmetry_classes", "to_dot", "to_json",
    ),
    "mesh": (
        "MeshSpec", "SwapStep", "exhaustive_max", "mesh_from_json", "mesh_max", "mesh_svg",
        "mesh_to_json", "optimal_permutation", "oracle_crossings", "pair_crossings",
        "sort_spec", "total_crossings",
    ),
    "perms": (
        "CANONICAL_PATTERNS", "check_perm", "expand_vertex", "in_bprime", "inversions",
        "neighbors", "pattern_classes", "pattern_of", "perm_rank", "perm_unrank",
        "triple_order",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE.keys() | _EXPORTS.keys())
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
