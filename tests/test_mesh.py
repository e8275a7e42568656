import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from bubblecross import mesh
from bubblecross.errors import DimensionGuardError
from bubblecross.perms import inversions


def spec_strategy(min_n=6, max_n=9):
    def build(n):
        return st.tuples(
            st.integers(0, n - 2),
            st.permutations(tuple(range(2, n))),
        ).map(lambda t: mesh.MeshSpec(n, t[0], tuple(t[1])))
    return st.integers(min_n, max_n).flatmap(build)


def test_spec_validation():
    with pytest.raises(ValueError):
        mesh.MeshSpec(5, 1, (2, 3, 4))
    with pytest.raises(ValueError):
        mesh.MeshSpec(6, 5, (2, 3, 4, 5))
    with pytest.raises(ValueError):
        mesh.MeshSpec(6, 2, (2, 2, 5, 3))
    with pytest.raises(ValueError):
        mesh.MeshSpec(6, 2, (1, 2, 3, 4))
    s = mesh.MeshSpec(6, 2, (2, 4, 5, 3))
    assert s.left == (2, 4) and s.right == (5, 3)


def test_pair_crossings_examples():
    assert mesh.pair_crossings(6, 2, 4) == 12
    assert mesh.pair_crossings(6, 4, 2) == 9
    assert mesh.pair_crossings(6, 4, 5) == 11


def test_pair_crossings_errors():
    with pytest.raises(ValueError):
        mesh.pair_crossings(6, 4, 4)
    with pytest.raises(ValueError):
        mesh.pair_crossings(6, 1, 4)
    with pytest.raises(ValueError):
        mesh.pair_crossings(6, 2, 6)


def test_total_crossings_examples():
    assert mesh.total_crossings(mesh.MeshSpec(6, 1, (2, 4, 5, 3))) == 30  # 11+10+9
    assert mesh.total_crossings(mesh.MeshSpec(6, 2, (2, 4, 5, 3))) == 21  # 12+9
    assert mesh.total_crossings(mesh.MeshSpec(6, 0, (2, 3, 4, 5))) == 70


def test_oracle_matches_formula_exhaustive_n6():
    for a in range(0, 5):
        for P in itertools.permutations(range(2, 6)):
            spec = mesh.MeshSpec(6, a, P)
            assert mesh.oracle_crossings(spec) == mesh.total_crossings(spec)


@settings(max_examples=60, deadline=None)
@given(spec_strategy())
def test_oracle_matches_formula_random(spec):
    assert mesh.oracle_crossings(spec) == mesh.total_crossings(spec)


def test_oracle_invariant_under_other_slopes():
    spec = mesh.MeshSpec(7, 3, (4, 2, 6, 3, 5))
    default = mesh.oracle_crossings(spec)
    assert mesh.oracle_crossings(spec, slopes=(2, 5, 9, 1, 4)) == default
    assert mesh.oracle_crossings(spec, slopes=(10, 20, 30, 40, 50)) == default


def test_oracle_rejects_degenerate_slopes():
    spec = mesh.MeshSpec(6, 2, (2, 4, 5, 3))
    with pytest.raises(ValueError):
        mesh.oracle_crossings(spec, slopes=(3, 3, 1, 2))
    with pytest.raises(ValueError):
        mesh.oracle_crossings(spec, slopes=(1, 2, 3))


def _pairwise_oracle(spec, slopes=None):
    """Reference count: every pair of rays decided on its own."""
    items = [(r.family, r.dx, r.slope, r.anchor) for r in mesh.rays(spec, slopes)]
    total = 0
    for i in range(len(items)):
        fa, dxa, ma, ja = items[i]
        for j in range(i + 1, len(items)):
            fb, dxb, mb, jb = items[j]
            if fa == fb or ja == jb:
                continue
            det = dxb * ma - dxa * mb
            if det == 0:
                continue
            dj = jb - ja
            t_num = dxb * dj
            s_num = dxa * dj
            if det < 0:
                t_num, s_num = -t_num, -s_num
            if t_num > 0 and s_num > 0:
                total += 1
    return total


def _seeded_spec(seed, n):
    rng = random.Random(seed)
    ks = list(range(2, n))
    rng.shuffle(ks)
    return mesh.MeshSpec(n, rng.randint(0, n - 2), tuple(ks))


def test_oracle_matches_pairwise_reference_n6():
    for a in range(0, 5):
        for P in itertools.permutations(range(2, 6)):
            spec = mesh.MeshSpec(6, a, P)
            assert mesh.oracle_crossings(spec) == _pairwise_oracle(spec), spec


@pytest.mark.parametrize("n", range(7, 17))
def test_oracle_matches_pairwise_reference_seeded(n):
    for seed in range(3):
        spec = _seeded_spec(seed, n)
        assert mesh.oracle_crossings(spec) == _pairwise_oracle(spec), spec


@pytest.mark.parametrize("spec,slopes", [
    (mesh.MeshSpec(7, 3, (4, 2, 6, 3, 5)), (-9, -4, -1, -7, -2)),      # negative
    (mesh.MeshSpec(7, 2, (6, 3, 2, 5, 4)), (-3, 5, -8, 0, 11)),        # mixed signs
    (mesh.MeshSpec(8, 0, (7, 2, 5, 3, 6, 4)), (1, 2, 4, 8, 16, 32)),  # increasing
    (mesh.MeshSpec(8, 6, (3, 7, 2, 6, 4, 5)), (-5, -2, 0, 3, 7, 12)),
    (mesh.MeshSpec(7, 2, (5, 2, 4, 6, 3)), (-4, 3, -3, 4, 9)),         # ma == -mb
    (mesh.MeshSpec(8, 3, (2, 7, 4, 6, 3, 5)), (-6, -2, 5, -5, 2, 6)),  # three such pairs
])
def test_oracle_matches_pairwise_reference_custom_slopes(spec, slopes):
    assert mesh.oracle_crossings(spec, slopes) == _pairwise_oracle(spec, slopes)
    assert mesh.oracle_crossings(spec, slopes) == mesh.total_crossings(spec)


def test_ray_families_structure():
    spec = mesh.MeshSpec(7, 3, (4, 2, 6, 3, 5))
    rs = mesh.rays(spec)
    by_family = {}
    for r in rs:
        by_family.setdefault(r.family, []).append(r)
    assert set(by_family) == {1, 2, 3, 4, 5}
    for idx, members in by_family.items():
        assert len(members) == 6  # one anchor lost per family
        assert len({(r.dx, r.slope) for r in members}) == 1  # parallel
        lost = spec.P[idx - 1]
        assert sorted(r.anchor for r in members) == [j for j in range(1, 8) if j != lost]
    assert all(r.dx == -1 for r in by_family[1] + by_family[2] + by_family[3])
    assert all(r.dx == 1 for r in by_family[4] + by_family[5])


def test_no_crossings_within_family_or_across_sides():
    # count crossings per family pair by hand from the realized rays
    spec = mesh.MeshSpec(6, 2, (2, 4, 5, 3))
    rs = mesh.rays(spec)
    by_pair = {}
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            A, B = rs[i], rs[j]
            if mesh._intersection_point(A, B) is not None:
                key = tuple(sorted((A.family, B.family)))
                by_pair[key] = by_pair.get(key, 0) + 1
    assert all(fa != fb for fa, fb in by_pair)
    sides = {1: "L", 2: "L", 3: "R", 4: "R"}
    assert all(sides[fa] == sides[fb] for fa, fb in by_pair)
    assert sum(by_pair.values()) == 21
    assert by_pair[(1, 2)] == 12 and by_pair[(3, 4)] == 9


def test_sort_spec_example():
    spec = mesh.MeshSpec(6, 2, (4, 2, 5, 3))
    assert mesh.total_crossings(spec) == 18
    sorted_spec, steps = mesh.sort_spec(spec)
    assert sorted_spec.P == (2, 4, 3, 5)
    assert mesh.total_crossings(sorted_spec) == 24
    assert [s.delta for s in steps] == [3, 3]
    assert steps[0].hi == 4 and steps[0].lo == 2


def test_sort_spec_already_sorted():
    spec = mesh.MeshSpec(6, 2, (2, 4, 3, 5))
    sorted_spec, steps = mesh.sort_spec(spec)
    assert sorted_spec == spec
    assert steps == []


def test_single_swap_delta():
    # one inversion on the left section only
    before = mesh.MeshSpec(6, 2, (4, 2, 3, 5))
    after, steps = mesh.sort_spec(before)
    assert len(steps) == 1
    assert steps[0].delta == 2 * (4 - 2) - 1 == 3
    assert mesh.pair_crossings(6, 4, 2) == 9 and mesh.pair_crossings(6, 2, 4) == 12


@settings(max_examples=60, deadline=None)
@given(spec_strategy(max_n=8))
def test_sort_spec_properties(spec):
    sorted_spec, steps = mesh.sort_spec(spec)
    assert sorted_spec.left == tuple(sorted(spec.left))
    assert sorted_spec.right == tuple(sorted(spec.right))
    assert len(steps) == inversions(spec.left) + inversions(spec.right)
    assert all(s.delta > 0 and s.delta % 2 == 1 for s in steps)
    gain = mesh.total_crossings(sorted_spec) - mesh.total_crossings(spec)
    assert gain == sum(s.delta for s in steps)
    assert gain >= 0


def test_optimal_permutation_examples():
    s = mesh.optimal_permutation(8, 4)
    assert s.left == (2, 3, 5, 7) and s.right == (4, 6)
    s = mesh.optimal_permutation(8, 3)
    assert s.left == (2, 4, 6) and s.right == (3, 5, 7)
    s = mesh.optimal_permutation(7, 3)
    assert s.left == (2, 4, 6) and s.right == (3, 5)
    s = mesh.optimal_permutation(7, 2)
    assert s.left == (3, 5) and s.right == (2, 4, 6)
    s = mesh.optimal_permutation(8, 2)
    assert s.left == (4, 6) and s.right == (2, 3, 5, 7)


def test_optimal_permutation_unsupported():
    for n, a in [(6, 2), (8, 1), (8, 5), (7, 1), (7, 4), (9, 2)]:
        with pytest.raises(ValueError):
            mesh.optimal_permutation(n, a)
        with pytest.raises(ValueError):
            mesh.mesh_max(n, a)


@pytest.mark.parametrize("n,a,expected", [
    (7, 2, 70), (7, 3, 70),
    (8, 3, 142), (8, 2, 166), (8, 4, 166),
    (9, 3, 280), (9, 4, 280),
    (10, 4, 472), (10, 3, 512), (10, 5, 512),
])
def test_mesh_max_values(n, a, expected):
    assert mesh.mesh_max(n, a) == expected
    # the designated worst sequence attains it
    assert mesh.total_crossings(mesh.optimal_permutation(n, a)) == expected


def test_exhaustive_max_small():
    best, witness = mesh.exhaustive_max(6, 0)
    assert best == 70 and witness.P == (2, 3, 4, 5)
    best, witness = mesh.exhaustive_max(7, 3)
    assert best == 70
    assert set(witness.left) == {2, 4, 6} and set(witness.right) == {3, 5}
    assert witness.left == tuple(sorted(witness.left))
    assert witness.right == tuple(sorted(witness.right))


def test_exhaustive_max_matches_closed_form_n9():
    best, witness = mesh.exhaustive_max(9, 4)
    assert best == mesh.mesh_max(9, 4) == 280
    assert mesh.total_crossings(witness) == 280


def _first_maximizer(n, a):
    best, witness = -1, None
    for P in itertools.permutations(range(2, n)):
        t = mesh.total_crossings(mesh.MeshSpec(n, a, P))
        if t > best:
            best, witness = t, P
    return best, witness


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_exhaustive_max_first_maximizer(n):
    # every split, including the unbalanced ones the closed forms reject
    for a in range(0, n - 1):
        best, witness = mesh.exhaustive_max(n, a)
        assert (best, witness.P) == _first_maximizer(n, a), (n, a)


def test_exhaustive_max_guard():
    with pytest.raises(DimensionGuardError):
        mesh.exhaustive_max(12, 3)


def test_json_roundtrip():
    spec = mesh.MeshSpec(6, 2, (2, 4, 5, 3))
    text = mesh.mesh_to_json(spec)
    assert json.loads(text) == {"P": [2, 4, 5, 3], "a": 2, "n": 6}
    assert mesh.mesh_from_json(text) == spec


def test_svg_annotation_and_markers():
    spec = mesh.MeshSpec(6, 2, (2, 4, 5, 3))
    svg = mesh.mesh_svg(spec)
    assert svg.startswith("<?xml")
    assert "crossings=21" in svg
    assert svg.count('class="crossing"') == 21
    assert mesh.mesh_svg(spec) == svg  # deterministic


# sha256 of mesh_svg before the per-family-pair rewrite; the first equals
# the mesh6.svg benchmark golden, the last three come from _seeded_spec(seed, n)
@pytest.mark.parametrize("spec,sha256", [
    (mesh.MeshSpec(6, 2, (2, 4, 5, 3)),
     "51eb30e9c5933ce9d77881b6e9259842bc92652fddd33553eecdd1e12ca2496b"),
    (mesh.optimal_permutation(12, 5),
     "ff5c7e42f9aa5f7aa1faf40cbbb77c0da584b0da2c1e7eda333d6f7ee34e32fa"),
    (mesh.MeshSpec(12, 3, (8, 10, 11, 9, 7, 5, 2, 6, 3, 4)),
     "2061172bd0b1390a2c374ea23e2c1abe8dc159fa47e4be7b400fa66256947cf6"),
    (mesh.MeshSpec(16, 6, (11, 5, 8, 14, 12, 9, 10, 6, 4, 7, 13, 3, 2, 15)),
     "017af7351f1d73c1e1bd306c37fbf8f74bd80bc281517b137250408945e55e3d"),
    (mesh.MeshSpec(16, 3, (13, 14, 8, 12, 15, 2, 6, 3, 9, 7, 4, 10, 11, 5)),
     "36b0153f6dcdc63c3b520d2d1ec84fd0d1080c3cf8f928a6ec2ca02ec49a12c1"),
], ids=["mesh6", "optimal12_5", "seed1_n12", "seed2_n16", "seed3_n16"])
def test_svg_bytes_pinned(spec, sha256):
    assert hashlib.sha256(mesh.mesh_svg(spec).encode("utf-8")).hexdigest() == sha256
