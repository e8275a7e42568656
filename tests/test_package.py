import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import bubblecross

ROOT = Path(__file__).resolve().parents[1]

# The star-import surface before the namespace became lazy; it must not change.
PUBLIC = """
BoundRow CANONICAL_PATTERNS DEFAULT_SEED DimensionGuardError GenerationState LabeledGraph
MeshSpec ReplacementPlan Side StateInvariantError StructureKind SwapStep SymmetryResult
VertexState base_values bound_table bounds bracket bracket_bound build_bn build_bprime
check_perm choose_structure config drawing edges_planar errors exhaustive_max expand_vertex
graphs in_bprime inversions is_connected is_planar label_str make_policy mesh mesh_from_json
mesh_max mesh_svg mesh_to_json neighbors nu_dn nu_dprime optimal_permutation oracle_crossings
pair_crossings pattern_classes pattern_of perm_rank perm_unrank perms recurrence_even
recurrence_odd replace_vertex run_generations seed_d6 sort_spec step_generation summed_bound
symmetry_classes to_dot to_json total_crossings triple_order
""".split()


def test_every_name_is_its_layers_object():
    for layer, names in bubblecross._EXPORTS.items():
        module = import_module(f"bubblecross.{layer}")
        assert getattr(bubblecross, layer) is module
        for name in names:
            assert getattr(bubblecross, name) is getattr(module, name), name


def test_star_import_binds_every_name():
    ns = {}
    exec("from bubblecross import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(bubblecross.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(bubblecross))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(bubblecross, "no_such_name")
    assert not hasattr(bubblecross, "import_module")


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"## Library example.*?```python\n(.*?)```", readme, re.S).group(1)
    src = str(Path(bubblecross.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", example], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("{7: 237456, 8: 12402864, ")
