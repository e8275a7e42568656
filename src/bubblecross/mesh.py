"""Crossing calculus for meshes of parallel semi-line families.

A mesh of size n places anchors (0, 1), ..., (0, n) on a vertical axis
and attaches n - 2 families of parallel rays: the first a families point
into the left half-plane, the rest into the right.  Family i omits
exactly one ray, the one at anchor k_i (its "lost" edge), and the
sequence P = (k_1, ..., k_{n-2}) is a permutation of {2, ..., n-1}.

The concrete realization gives family i the direction (-1, i) on the
left and (+1, i) on the right.  Any slope assignment that increases
strictly with the family index within a side yields the same counts;
the geometric oracle accepts custom slopes so that is testable.  It
decides crossings once per pair of families, not per pair of rays, and
counts the crossing anchor pairs of each family pair by bisection.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .config import ENUMERATION_GUARD
from .errors import DimensionGuardError


@dataclass(frozen=True)
class MeshSpec:
    """Mesh parameters: axis size n, left family count a, lost anchors P."""

    n: int
    a: int
    P: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "P", tuple(self.P))
        if self.n < 6:
            raise ValueError(f"mesh needs n >= 6, got {self.n}")
        if not 0 <= self.a <= self.n - 2:
            raise ValueError(f"a must lie in [0, {self.n - 2}], got {self.a}")
        if sorted(self.P) != list(range(2, self.n)):
            raise ValueError(f"P must be a permutation of 2..{self.n - 1}, got {self.P}")

    @property
    def left(self) -> tuple[int, ...]:
        return self.P[: self.a]

    @property
    def right(self) -> tuple[int, ...]:
        return self.P[self.a:]


def pair_crossings(n: int, k1: int, k2: int) -> int:
    """Crossings between two same-side families, earlier-indexed family first.

    Out of the C(n, 2) anchor pairs that would cross, the two lost rays
    cancel some; which correction applies depends on whether the earlier
    family's lost anchor sits below or above the later one's.
    """
    for k in (k1, k2):
        if not 2 <= k <= n - 1:
            raise ValueError(f"lost anchor {k} outside 2..{n - 1}")
    if k1 == k2:
        raise ValueError("lost anchors must be distinct")
    base = n * (n - 1) // 2 - (n - k2)
    if k1 < k2:
        return base - (k1 - 1)
    return base - (k1 - 2)


def _section_total(n: int, ks) -> int:
    c2 = n * (n - 1) // 2
    total = 0
    for i in range(len(ks)):
        ki = ks[i]
        for j in range(i + 1, len(ks)):
            kj = ks[j]
            total += c2 - (n - kj) - (ki - 1) + (1 if ki > kj else 0)
    return total


def total_crossings(spec: MeshSpec) -> int:
    """Formula count: sum of the pairwise family counts on each side.

    Left and right rays live in disjoint half-planes, so cross-side pairs
    contribute nothing.
    """
    return _section_total(spec.n, spec.left) + _section_total(spec.n, spec.right)


class Ray(NamedTuple):
    family: int   # 1-based family index across both sides
    dx: int       # -1 for left families, +1 for right
    slope: int    # vertical change per unit of horizontal travel
    anchor: int   # the ray starts at (0, anchor)


def rays(spec: MeshSpec, slopes=None) -> list[Ray]:
    """Concrete rays realizing the mesh.

    slopes, when given, supplies one integer per family; each side's
    subsequence must increase strictly, otherwise two families would be
    parallel to each other and the counting degenerates.
    """
    n, a = spec.n, spec.a
    if slopes is None:
        slopes = tuple(range(1, n - 1))
    slopes = tuple(slopes)
    if len(slopes) != n - 2:
        raise ValueError(f"need {n - 2} slopes, got {len(slopes)}")
    for lo, hi in ((0, a), (a, n - 2)):
        side = slopes[lo:hi]
        if any(x >= y for x, y in zip(side, side[1:])):
            raise ValueError("slopes must increase strictly within each side")
    out = []
    for idx, lost in enumerate(spec.P, start=1):
        dx = -1 if idx <= a else 1
        m = slopes[idx - 1]
        for j in range(1, n + 1):
            if j != lost:
                out.append(Ray(idx, dx, m, j))
    return out


def _crossing_families(spec: MeshSpec, slopes=None):
    """Family pairs whose rays can meet, with the side of dj = jb - ja that does.

    Every ray of a family has the same dx and slope, so the determinant
    of the 2x2 intersection system, and the signs of the parameters
    t = dxb*dj/det and s = dxa*dj/det, depend only on the two families
    and on the sign of dj.  Yields ((dxa, ma, anchors_a), (dxb, mb,
    anchors_b), det, side) for each pair, earlier family first, where
    side is the sign of dj that makes t and s both positive.
    """
    families: dict[tuple[int, int, int], list[int]] = {}
    for r in rays(spec, slopes):
        families.setdefault((r.family, r.dx, r.slope), []).append(r.anchor)
    fams = [(dx, m, anchors) for (_, dx, m), anchors in families.items()]
    for i, (dxa, ma, ja) in enumerate(fams):
        for dxb, mb, jb in fams[i + 1:]:
            det = dxb * ma - dxa * mb
            if det == 0 or (dxb * det > 0) != (dxa * det > 0):
                continue  # parallel, or t and s have opposite signs for every dj
            yield (dxa, ma, ja), (dxb, mb, jb), det, 1 if dxb * det > 0 else -1


def oracle_crossings(spec: MeshSpec, slopes=None) -> int:
    """Geometric count of ray pairs meeting at an interior point.

    Decides each pair of families by integer sign tests on the 2x2
    intersection system, then counts, for each anchor of the earlier
    family, the later family's anchors on the crossing side, so the
    answer is exact.  Rays of one family are parallel and never meet;
    rays sharing an anchor touch only at the axis and are not counted.
    """
    total = 0
    for (_, _, ja), (_, _, jb), _, side in _crossing_families(spec, slopes):
        for j in ja:
            total += len(jb) - bisect_right(jb, j) if side > 0 else bisect_left(jb, j)
    return total


def _intersection_point(A: Ray, B: Ray):
    """Exact interior intersection of two rays, or None when they miss."""
    det = B.dx * A.slope - A.dx * B.slope
    if det == 0:
        return None
    dj = B.anchor - A.anchor
    t = Fraction(B.dx * dj, det)
    s = Fraction(A.dx * dj, det)
    if t <= 0 or s <= 0:
        return None
    return (A.dx * t, A.anchor + A.slope * t)


class SwapStep(NamedTuple):
    position: int  # index in P of the out-of-order pair that was swapped
    hi: int
    lo: int
    delta: int


def sort_spec(spec: MeshSpec) -> tuple[MeshSpec, list[SwapStep]]:
    """Sort each side ascending by repeated first-adjacent-inversion swaps.

    Every swap raises the total by exactly 2*(hi - lo) - 1 > 0, which is
    the sorted-sections-dominate monotonicity in its sharpest per-swap
    form; each recorded delta is verified against recomputed totals.
    """
    n, a = spec.n, spec.a
    work = list(spec.P)
    positions = list(range(0, a - 1)) + list(range(a, n - 3))
    steps: list[SwapStep] = []
    prev = total_crossings(spec)
    while True:
        pos = next((i for i in positions if work[i] > work[i + 1]), None)
        if pos is None:
            break
        hi, lo = work[pos], work[pos + 1]
        work[pos], work[pos + 1] = lo, hi
        cur = total_crossings(MeshSpec(n, a, tuple(work)))
        delta = cur - prev
        if delta != 2 * (hi - lo) - 1:
            raise ArithmeticError(
                f"swap delta {delta} != 2*({hi}-{lo})-1 at position {pos}"
            )
        steps.append(SwapStep(pos, hi, lo, delta))
        prev = cur
    return MeshSpec(n, a, tuple(work)), steps


def _case(n: int, a: int) -> str:
    """Classify (n, a) into one of the five supported worst-case splits."""
    if n % 2 == 0:
        m = n // 2
        if m >= 4 and a in (m - 2, m - 1, m):
            return "even-mid" if a == m - 1 else "even-off"
    else:
        m = (n + 1) // 2
        if m >= 4 and a in (m - 2, m - 1):
            return "odd"
    raise ValueError(f"unsupported split (n={n}, a={a}) for the worst-case formulas")


def optimal_permutation(n: int, a: int) -> MeshSpec:
    """The lost-anchor sequence attaining the worst case for (n, a)."""
    _case(n, a)
    if n % 2 == 0:
        m = n // 2
        if a == m - 1:
            left = tuple(range(2, n - 1, 2))
            right = tuple(range(3, n, 2))
        elif a == m:
            left = (2,) + tuple(range(3, n, 2))
            right = tuple(range(4, n - 1, 2))
        else:
            left = tuple(range(4, n - 1, 2))
            right = (2,) + tuple(range(3, n, 2))
    else:
        m = (n + 1) // 2
        if a == m - 1:
            left = tuple(range(2, n, 2))
            right = tuple(range(3, n - 1, 2))
        else:
            left = tuple(range(3, n - 1, 2))
            right = tuple(range(2, n, 2))
    return MeshSpec(n, a, left + right)


def mesh_max(n: int, a: int) -> int:
    """Closed-form worst case over all lost-anchor sequences for (n, a)."""
    kind = _case(n, a)
    if kind == "even-mid":
        val = (Fraction(n**4, 8) - Fraction(25 * n**3, 24)
               + 3 * n * n - Fraction(23 * n, 6) + 2)
    elif kind == "even-off":
        val = (Fraction(n**4, 8) - Fraction(25 * n**3, 24)
               + Fraction(7 * n * n, 2) - Fraction(29 * n, 6) + 2)
    else:
        val = (Fraction(n**4, 8) - Fraction(25 * n**3, 24)
               + Fraction(25 * n * n, 8) - Fraction(95 * n, 24) + Fraction(7, 4))
    if val.denominator != 1 or val < 0:
        raise ArithmeticError(f"worst case for ({n}, {a}) is not a whole count: {val}")
    return int(val)


def _best_order(n: int, ks: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Largest section total over every ordering of ks, with the
    lexicographically first ordering that reaches it."""
    best, first = -1, ()
    for order in itertools.permutations(ks):
        t = _section_total(n, order)
        if t > best:
            best, first = t, order
    return best, first


def exhaustive_max(n: int, a: int) -> tuple[int, MeshSpec]:
    """Maximum of the formula count over every lost-anchor sequence.

    No pair crosses between sides, so the total is the left section's
    count plus the right one's.  For each left set S of a anchors, every
    ordering of S and every ordering of the remaining anchors is
    evaluated, which covers all (n-2)! sequences through C(n-2, a) *
    (a! + (n-2-a)!) side orderings.  Nothing relies on Lemma 2 or the
    closed forms.  Ties keep the lexicographically smallest sequence, so
    the witness is the first maximizer in lexicographic order.
    """
    if n > ENUMERATION_GUARD:
        raise DimensionGuardError(f"n={n} exceeds enumeration guard {ENUMERATION_GUARD}")
    MeshSpec(n, a, tuple(range(2, n)))  # validates n and a
    best = -1
    witness = None
    for left in itertools.combinations(range(2, n), a):
        right = tuple(k for k in range(2, n) if k not in left)
        left_max, left_order = _best_order(n, left)
        right_max, right_order = _best_order(n, right)
        t = left_max + right_max
        P = left_order + right_order
        if t > best or (t == best and P < witness):
            best, witness = t, P
    return best, MeshSpec(n, a, witness)


def mesh_to_json(spec: MeshSpec) -> str:
    return json.dumps({"P": list(spec.P), "a": spec.a, "n": spec.n}, sort_keys=True) + "\n"


def mesh_from_json(text: str) -> MeshSpec:
    d = json.loads(text)
    return MeshSpec(int(d["n"]), int(d["a"]), tuple(int(x) for x in d["P"]))


def mesh_svg(spec: MeshSpec) -> str:
    """Render the realized mesh: axis, anchors, rays, crossing markers.

    Rays are drawn out to |x| = n, which is past every crossing (the ray
    parameter at a crossing stays below n - 1), and the annotation text
    repeats the exact count.
    """
    rs = rays(spec)
    found = list(_crossing_families(spec))
    # t = dxb*dj/det, so L*t is an integer when L is a multiple of every det:
    # the points scaled by L sort exactly, and X / L rounds as float(Fraction) does
    L = math.lcm(*(det for *_, det, _ in found))
    points = []
    for (dxa, ma, ja), (dxb, _, jb), det, side in found:
        q = dxb * (L // det)
        for j in ja:
            for k in jb[bisect_right(jb, j):] if side > 0 else jb[:bisect_left(jb, j)]:
                lt = (k - j) * q
                points.append((dxa * lt, j * L + ma * lt))
    count = len(points)
    if count != oracle_crossings(spec):
        raise ArithmeticError("marker count disagrees with the oracle")

    reach = spec.n
    segments = [((0, r.anchor), (r.dx * reach, r.anchor + r.slope * reach)) for r in rs]
    ys = [float(y) for (_, y0), (_, y1) in segments for y in (y0, y1)]
    ys += [1.0, float(spec.n)]
    y_top, y_bot = max(ys), min(ys)
    scale, pad = 24.0, 30.0

    def tx(x) -> float:
        return pad + (float(x) + reach) * scale

    def ty(y) -> float:
        return pad + (y_top - float(y)) * scale

    width = 2 * reach * scale + 2 * pad
    height = (y_top - y_bot) * scale + 2 * pad
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'  <text x="{pad:.1f}" y="{pad * 0.6:.1f}" font-size="14">'
        f'mesh n={spec.n} a={spec.a} P=({",".join(str(k) for k in spec.P)}) '
        f'crossings={count}</text>',
        f'  <line x1="{tx(0):.2f}" y1="{ty(1):.2f}" x2="{tx(0):.2f}" y2="{ty(spec.n):.2f}" '
        f'stroke="black" stroke-width="2"/>',
    ]
    for (x0, y0), (x1, y1) in segments:
        out.append(
            f'  <line x1="{tx(x0):.2f}" y1="{ty(y0):.2f}" '
            f'x2="{tx(x1):.2f}" y2="{ty(y1):.2f}" stroke="#888" stroke-width="0.8"/>'
        )
    for j in range(1, spec.n + 1):
        out.append(f'  <circle cx="{tx(0):.2f}" cy="{ty(j):.2f}" r="3" fill="black"/>')
        out.append(
            f'  <text x="{tx(0) + 6:.2f}" y="{ty(j) - 5:.2f}" font-size="10">{j}</text>'
        )
    for x, y in sorted(points):
        out.append(
            f'  <circle cx="{tx(x / L):.2f}" cy="{ty(y / L):.2f}" r="2.2" '
            f'fill="red" class="crossing"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
