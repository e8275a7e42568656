"""Acceptance checks, one test per criterion, each printing a PASS/FAIL line.

Everything here is exact integer equality; there are no tolerances to
tune.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

from math import factorial

from bubblecross import bounds, graphs, mesh, verify
from bubblecross.config import DEFAULT_SEED


def _criterion(num, ok, detail):
    print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def test_acceptance_01_formula_matches_geometric_oracle():
    report = verify.suite_lemma1(DEFAULT_SEED)
    _criterion(1, report.passed and report.cases == 120 + 400,
               f"pairwise formula == oracle on {report.cases} specs, "
               f"exhaustive n=6 plus 100 random specs each for n=7..10")


def test_acceptance_02_sorted_sections_dominate():
    report = verify.suite_lemma2()
    _criterion(2, report.passed and report.cases == 120 + 720,
               f"monotone sorting with per-swap delta 2*(hi-lo)-1 on {report.cases} specs")


def test_acceptance_03_worst_case_maxima():
    report = verify.suite_lemma3()
    _criterion(3, report.passed,
               "exhaustive maxima equal closed forms: 70, 142, 166, 280 and n=10, 11 splits")


def test_acceptance_04_bound_pipeline_triple_equality():
    rows = bounds.bound_table(30)
    spot = rows[0].bound == 237456 and rows[1].bound == 12402864
    triple = all(r.nu_recurrence == r.nu_sum == r.nu_bracket for r in rows)
    sixes = all(r.bound % 6 == 0 for r in rows)
    _criterion(4, spot and triple and sixes and len(rows) == 24,
               "recurrence == generation sum == bracket form for n=7..30, "
               "with 237456 and 12402864 at n=7, 8")


def test_acceptance_05_per_step_mesh_cross_check():
    spot = (
        bounds.added_term_even(6) == 120 * mesh.mesh_max(7, 2) == 8400
        and bounds.added_term_odd(7)
        == factorial(7) // 6 * (4 * mesh.mesh_max(8, 3) + 3 * mesh.mesh_max(8, 4)) // 7
        == 127920
    )
    general = all(
        bounds.added_term_even(n) == bounds.mesh_increment_even(n) for n in (6, 8, 10, 12)
    ) and all(
        bounds.added_term_odd(n) == bounds.mesh_increment_odd(n) for n in (7, 9, 11)
    )
    _criterion(5, spot and general,
               "polynomial increments equal vertex-weighted mesh maxima for n=6..12")


def test_acceptance_06_structural_checks():
    planar = (
        graphs.is_planar(graphs.build_bn(2))
        and graphs.is_planar(graphs.build_bn(3))
        and graphs.is_planar(graphs.build_bn(4))
        and not graphs.is_planar(graphs.build_bn(5))
    )
    sizes = True
    for n in range(2, 9):
        g = graphs.build_bn(n)
        sizes = sizes and g.vertex_count == factorial(n) \
            and g.edge_count == factorial(n) * (n - 1) // 2
    base = bounds.base_values()
    constants = base["nu_D6"] == 5196 and base["cr_B5_bound"] == 120 \
        and base["nu_D6"] == 6 * base["nu_Dprime6"]
    _criterion(6, planar and sizes and constants,
               "dimensions 2..4 planar, 5 non-planar; sizes n!, n!(n-1)/2 up to n=8; "
               "hand-drawing constants wired through")


def test_acceptance_07_replacement_state_machine():
    report = verify.suite_lemma45(DEFAULT_SEED)
    _criterion(7, report.passed,
               f"every lost-side plan of every legal state through n=14: parity "
               f"classes, per-parent counts, arc conservation, one child multiset "
               f"per state; seed-split independent ({report.cases} plans)")


def test_acceptance_08_six_fold_symmetry():
    report = verify.suite_symmetry()
    counts_ok = True
    for n in (5, 6):
        res = graphs.symmetry_classes(n)
        counts_ok = counts_ok and res.class_size == factorial(n) // 6 \
            and res.all_isomorphic
    _criterion(8, report.passed and counts_ok,
               "six classes of n!/6 at n=5,6 with isomorphic sectors under relabeling")


def test_acceptance_examples_from_corrected_ledger():
    # the single-side sorted total at n=6 is 70 by both routes
    spec = mesh.MeshSpec(6, 0, (2, 3, 4, 5))
    assert mesh.total_crossings(spec) == mesh.oracle_crossings(spec) == 70
    # meshes with one family per side cannot exist at n >= 6, but a lone
    # section contributes nothing; a=1 leaves the left side pairless
    one_left = mesh.MeshSpec(6, 1, (2, 4, 5, 3))
    right_only = sum(
        mesh.pair_crossings(6, one_left.right[i], one_left.right[j])
        for i in range(3) for j in range(i + 1, 3)
    )
    assert mesh.total_crossings(one_left) == right_only
