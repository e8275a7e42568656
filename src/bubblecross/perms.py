"""Permutation arithmetic for bubble-sort graph vertices.

A vertex label is a permutation of {1, ..., n} stored as a plain tuple.
Two labels are adjacent in the bubble-sort graph when they differ by
swapping one pair of neighbouring entries.
"""

from __future__ import annotations

import itertools
from math import factorial

Perm = tuple[int, ...]

# The four length-4 patterns obtained by inserting the symbol 4 somewhere
# into (1, 2, 3).  A label whose 4-symbol pattern is one of these keeps
# the symbols 1, 2, 3 in increasing relative order.
CANONICAL_PATTERNS: frozenset[Perm] = frozenset({
    (1, 2, 3, 4),
    (1, 2, 4, 3),
    (1, 4, 2, 3),
    (4, 1, 2, 3),
})


def check_perm(p) -> Perm:
    """Return p as a tuple after validating it permutes 1..n with n >= 2."""
    t = tuple(p)
    if len(t) < 2:
        raise ValueError(f"permutation must have length >= 2, got {t!r}")
    if sorted(t) != list(range(1, len(t) + 1)):
        raise ValueError(f"not a permutation of 1..{len(t)}: {t!r}")
    return t


def neighbors(p) -> list[Perm]:
    """All labels one adjacent swap away, ordered by swap position."""
    t = check_perm(p)
    out = []
    for i in range(len(t) - 1):
        q = list(t)
        q[i], q[i + 1] = q[i + 1], q[i]
        out.append(tuple(q))
    return out


def inversions(seq) -> int:
    """Number of pairs of a distinct-integer sequence appearing in decreasing order."""
    s = list(seq)
    if len(set(s)) != len(s):
        raise ValueError("inversions requires distinct entries")
    return sum(
        1
        for i in range(len(s))
        for j in range(i + 1, len(s))
        if s[i] > s[j]
    )


def pattern_of(p) -> Perm:
    """The order in which the symbols 1..4 occur in p.  Needs n >= 4."""
    t = check_perm(p)
    if len(t) < 4:
        raise ValueError(f"pattern needs length >= 4, got {len(t)}")
    return tuple(v for v in t if v <= 4)


def triple_order(p) -> Perm:
    """The order in which the symbols 1..3 occur in p."""
    t = check_perm(p)
    if len(t) < 3:
        raise ValueError(f"triple order needs length >= 3, got {len(t)}")
    return tuple(v for v in t if v <= 3)


def in_bprime(p) -> bool:
    """Whether p is a core vertex of the sixth-part subgraph."""
    return pattern_of(p) in CANONICAL_PATTERNS


def pattern_classes() -> dict[Perm, frozenset[Perm]]:
    """Partition of the 24 patterns of {1,2,3,4}, keyed by the order of 1, 2, 3.

    Each class holds the four patterns obtained by inserting 4 into its key,
    so the classes have size four and cover all 24 patterns.
    """
    classes: dict[Perm, frozenset[Perm]] = {}
    for order in itertools.permutations((1, 2, 3)):
        members = set()
        for slot in range(4):
            pat = list(order)
            pat.insert(slot, 4)
            members.add(tuple(pat))
        classes[order] = frozenset(members)
    return classes


def expand_vertex(v) -> list[Perm]:
    """Insert the symbol n+1 at each of the n+1 slots of v, by slot.

    Consecutive results differ by one adjacent swap, so the outputs trace
    a path in the next bubble-sort graph; non-consecutive outputs differ
    in at least two positions besides the inserted symbol and are not
    adjacent.
    """
    t = check_perm(v)
    n = len(t)
    return [t[:i] + (n + 1,) + t[i:] for i in range(n + 1)]


def perm_rank(p) -> int:
    """Lehmer-code rank: the position of p in lexicographic order.

    Each entry's digit is its index in the pool of symbols not yet placed;
    the digits are read in Horner form, one pool size per step.
    """
    t = check_perm(p)
    pool = list(range(1, len(t) + 1))
    r = 0
    for x in t:
        i = pool.index(x)
        r = r * len(pool) + i
        del pool[i]
    return r


def perm_unrank(r: int, n: int) -> Perm:
    """Inverse of perm_rank for permutations of 1..n."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    place = factorial(n)
    if not 0 <= r < place:
        raise ValueError(f"rank {r} out of range for n={n}")
    pool = list(range(1, n + 1))
    out = []
    for size in range(n, 0, -1):
        place //= size
        i, r = divmod(r, place)
        out.append(pool.pop(i))
    return tuple(out)
