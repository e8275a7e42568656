import itertools
from math import factorial

import pytest
from hypothesis import given, strategies as st

from bubblecross import perms


def perm_strategy(min_n=2, max_n=7):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1)))
    ).map(tuple)


def test_neighbors_examples():
    assert perms.neighbors((1, 2, 3, 4)) == [(2, 1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3)]
    assert perms.neighbors((2, 1)) == [(1, 2)]
    assert perms.neighbors((4, 1, 2, 3)) == [(1, 4, 2, 3), (4, 2, 1, 3), (4, 1, 3, 2)]


@given(perm_strategy())
def test_neighbors_symmetric_and_counted(p):
    nbrs = perms.neighbors(p)
    assert len(nbrs) == len(p) - 1
    assert len(set(nbrs)) == len(nbrs)
    for q in nbrs:
        assert p in perms.neighbors(q)


def test_check_perm_rejects():
    with pytest.raises(ValueError):
        perms.check_perm((1,))
    with pytest.raises(ValueError):
        perms.check_perm((1, 1, 2))
    with pytest.raises(ValueError):
        perms.check_perm((0, 1, 2))


def test_inversions_examples():
    assert perms.inversions((2, 4, 5, 3)) == 2
    assert perms.inversions((1, 2, 3, 4)) == 0
    assert perms.inversions((5, 4, 3, 2)) == 6
    with pytest.raises(ValueError):
        perms.inversions((1, 1))


@given(perm_strategy())
def test_inversions_complementary(p):
    n = len(p)
    assert perms.inversions(p) + perms.inversions(tuple(reversed(p))) == n * (n - 1) // 2


def test_pattern_of_examples():
    assert perms.pattern_of((1, 2, 5, 6, 3, 4)) == (1, 2, 3, 4)
    assert perms.pattern_of((5, 6, 3, 4, 1, 2)) == (3, 4, 1, 2)
    assert perms.pattern_of((2, 1, 4, 3, 6, 5)) == (2, 1, 4, 3)
    with pytest.raises(ValueError):
        perms.pattern_of((1, 2, 3))


def test_in_bprime_examples():
    assert perms.in_bprime((1, 2, 5, 6, 3, 4))
    assert not perms.in_bprime((5, 6, 3, 4, 1, 2))


def test_in_bprime_count_n6():
    members = sum(
        1 for p in itertools.permutations(range(1, 7)) if perms.in_bprime(p)
    )
    assert members == 120  # 4 * 6! / 24


def test_in_bprime_count_n7():
    members = sum(
        1 for p in itertools.permutations(range(1, 8)) if perms.in_bprime(p)
    )
    assert members == factorial(7) // 6


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_in_bprime_equals_increasing_triple(n):
    # membership by the four patterns is the same as 1, 2, 3 in increasing order
    for p in itertools.permutations(range(1, n + 1)):
        assert perms.in_bprime(p) == (perms.triple_order(p) == (1, 2, 3))


def test_pattern_classes_partition():
    classes = perms.pattern_classes()
    assert len(classes) == 6
    union = set().union(*classes.values())
    assert len(union) == 24
    assert sum(len(c) for c in classes.values()) == 24
    assert classes[(1, 2, 3)] == perms.CANONICAL_PATTERNS


def test_expand_vertex_examples():
    assert perms.expand_vertex((1, 2, 3)) == [
        (4, 1, 2, 3), (1, 4, 2, 3), (1, 2, 4, 3), (1, 2, 3, 4)
    ]
    assert perms.expand_vertex((2, 1)) == [(3, 2, 1), (2, 3, 1), (2, 1, 3)]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_expand_vertex_induced_path(n):
    for v in itertools.permutations(range(1, n + 1)):
        chain = perms.expand_vertex(v)
        assert len(chain) == n + 1
        for i, u in enumerate(chain):
            nbrs = set(perms.neighbors(u))
            for j, w in enumerate(chain):
                if abs(i - j) == 1:
                    assert w in nbrs
                elif i != j:
                    assert w not in nbrs


@given(perm_strategy())
def test_rank_roundtrip(p):
    assert perms.perm_unrank(perms.perm_rank(p), len(p)) == p


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rank_is_lexicographic(n):
    ordered = list(itertools.permutations(range(1, n + 1)))
    assert [perms.perm_rank(p) for p in ordered] == list(range(factorial(n)))


def _lehmer_rank(p):
    # The earlier definition: count smaller later entries, weigh by factorials.
    n = len(p)
    return sum(sum(1 for y in p[i + 1:] if y < x) * factorial(n - 1 - i)
               for i, x in enumerate(p))


def _lehmer_unrank(r, n):
    pool = list(range(1, n + 1))
    out = []
    for i in range(n, 0, -1):
        idx, r = divmod(r, factorial(i - 1))
        out.append(pool.pop(idx))
    return tuple(out)


@pytest.mark.parametrize("n", range(2, 8))
def test_rank_and_unrank_match_the_lehmer_definitions(n):
    for r, p in enumerate(itertools.permutations(range(1, n + 1))):
        assert perms.perm_rank(p) == _lehmer_rank(p) == r
        assert perms.perm_unrank(r, n) == _lehmer_unrank(r, n) == p


def test_rank_and_unrank_reject_bad_input():
    with pytest.raises(ValueError, match="n must be >= 2"):
        perms.perm_unrank(0, 1)
    for r in (-1, 6):
        with pytest.raises(ValueError, match=f"rank {r} out of range for n=3"):
            perms.perm_unrank(r, 3)
    for p in [(1,), (1, 1, 2), (0, 1, 2), (1, 2, 4)]:
        with pytest.raises(ValueError):
            perms.perm_rank(p)
