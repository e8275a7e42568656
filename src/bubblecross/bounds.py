"""Exact crossing-bound arithmetic.

Three independent evaluations of the same quantity: the parity
recurrences iterated from the n = 6 base drawing, the unrolled sum with
one polynomial term per generation, and the factored bracket form.  One
walk over the generations advances all three a step at a time, so a
table to n_max costs one pass, linear in n_max.  All arithmetic is
arbitrary-precision integers or exact rationals; every division is
checked to leave no remainder, and the table builder compares the three
evaluations row by row.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .config import TABLE_LIMIT
from .mesh import mesh_max

NU_D6 = 5196        # crossing total of the base drawing at n = 6
NU_DPRIME6 = 866    # one sixth of it, the per-sector total
CR_B5_BOUND = 120


def base_values() -> dict[str, int]:
    """Small-case constants anchoring the recurrences."""
    return {
        "cr_B2": 0,
        "cr_B3": 0,
        "cr_B4": 0,
        "cr_B5_bound": CR_B5_BOUND,
        "nu_D6": NU_D6,
        "nu_Dprime6": NU_DPRIME6,
    }


def _exact_div(num: int, den: int, what: str) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"{what}: {num} not divisible by {den}")
    return q


def added_term_even(n: int) -> int:
    """Polynomial increment of the construction step leaving even n."""
    if n % 2 or n < 6:
        raise ValueError(f"even-step increment needs even n >= 6, got {n}")
    poly = 3 * n**4 - 13 * n**3 + 18 * n**2 - 8 * n
    return _exact_div(factorial(n) * poly, 144, "even-step increment")


def added_term_odd(n: int) -> int:
    """Polynomial increment of the construction step leaving odd n."""
    if n % 2 == 0 or n < 7:
        raise ValueError(f"odd-step increment needs odd n >= 7, got {n}")
    poly = 3 * n**5 - 13 * n**4 + 21 * n**3 - 17 * n**2 + 6
    return _exact_div(factorial(n - 1) * poly, 144, "odd-step increment")


def mesh_increment_even(n: int) -> int:
    """Even-step increment recomputed from the mesh worst case.

    At even n every sector vertex splits its arcs (m-2, m-1) or (m-1, m-2)
    with m = (n+2)/2, and both splits share the same odd-size worst case,
    so the increment is simply vertex count times worst case.
    """
    if n % 2 or n < 6:
        raise ValueError(f"needs even n >= 6, got {n}")
    m = (n + 2) // 2
    worst = mesh_max(n + 1, m - 1)
    if worst != mesh_max(n + 1, m - 2):
        raise ArithmeticError(f"the two admissible splits disagree at size {n + 1}")
    return _exact_div(factorial(n), 6, "sector vertex count") * worst


def mesh_increment_odd(n: int) -> int:
    """Odd-step increment from the mesh worst cases, weighted by how many
    vertices carry a balanced arc split versus an offset one."""
    if n % 2 == 0 or n < 7:
        raise ValueError(f"needs odd n >= 7, got {n}")
    m = (n + 1) // 2
    balanced = mesh_max(n + 1, m - 1)
    offset = mesh_max(n + 1, m)
    weighted = (n + 1) // 2 * balanced + (n - 1) // 2 * offset
    return _exact_div(factorial(n - 1), 6, "per-parent weighting") * weighted


def recurrence_even(n: int, nu_prime: int) -> int:
    """One construction step from even n: scale by n^2, add the increment."""
    term = added_term_even(n)
    cross = mesh_increment_even(n)
    if term != cross:
        raise ArithmeticError(f"even-step increment mismatch at n={n}: {term} vs {cross}")
    return n * n * nu_prime + term


def recurrence_odd(n: int, nu_prime: int) -> int:
    """One construction step from odd n: scale by n^2, add the increment."""
    term = added_term_odd(n)
    cross = mesh_increment_odd(n)
    if term != cross:
        raise ArithmeticError(f"odd-step increment mismatch at n={n}: {term} vs {cross}")
    return n * n * nu_prime + term


def _walk(n_max: int):
    """Yield (n, nu(D'_n), unrolled sum, bracket) for n = 7..n_max; each route
    steps one generation from its own state and reads no other route's value.
    The bracket's running part gains 1/(3 (n-4)!) once n is yielded."""
    vprime, total, partial = NU_DPRIME6, NU_D6, Fraction(127, 300)
    for n in range(7, n_max + 1):
        vprime = recurrence_even(n - 1, vprime) if n % 2 else recurrence_odd(n - 1, vprime)
        if n % 2:
            poly = 3 * n**4 - 25 * n**3 + 75 * n**2 - 95 * n + 42
            term = _exact_div(factorial(n - 1) * poly, 24, "odd generation term")
        else:
            poly = 3 * n**5 - 28 * n**4 + 103 * n**3 - 188 * n**2 + 164 * n - 48
            term = _exact_div(factorial(n - 2) * poly, 24, "even generation term")
            partial += (Fraction(1, 8 * factorial(n - 3))
                        - Fraction(1, 4 * factorial(n - 2))
                        + Fraction(1, 4 * factorial(n - 1) * (n - 1)))
        total = (n - 1) ** 2 * total + term
        yield n, vprime, total, partial + Fraction(5, 24 * factorial(n - 4))
        partial += Fraction(1, 3 * factorial(n - 4))


def _last(n: int) -> tuple[int, int, int, Fraction]:
    return deque(_walk(n), maxlen=1).pop()


def nu_dprime(n: int) -> int:
    """Per-sector crossing bound, iterated from the n = 6 base."""
    if n < 6:
        raise ValueError(f"recurrence starts at n=6, got {n}")
    return NU_DPRIME6 if n == 6 else _last(n)[1]


def nu_dn(n: int) -> int:
    """Crossing bound of the full drawing: six sectors."""
    return 6 * nu_dprime(n)


def summed_bound(n: int) -> int:
    """Unrolled form: scaled base total plus one term per generation."""
    if n < 7:
        raise ValueError(f"unrolled form starts at n=7, got {n}")
    return _last(n)[2]


def bracket(n: int) -> Fraction:
    """The exact coefficient of ((n-1)!)^2 in the factored bound."""
    if n < 7:
        raise ValueError(f"bracket form starts at n=7, got {n}")
    return _last(n)[3]


def _scaled_bracket(n: int, b: Fraction) -> int:
    v = factorial(n - 1) ** 2 * b
    if v.denominator != 1:
        raise ArithmeticError(f"bracket bound at n={n} is not an integer: {v}")
    return int(v)


def bracket_bound(n: int) -> int:
    """((n-1)!)^2 times the bracket; must come out a whole number."""
    return _scaled_bracket(n, bracket(n))


@dataclass(frozen=True)
class BoundRow:
    n: int
    nu_recurrence: int
    nu_sum: int
    nu_bracket: int

    @property
    def bound(self) -> int:
        return self.nu_recurrence


def bound_table(n_max: int) -> list[BoundRow]:
    """Rows for n = 7..n_max; the three evaluations must agree exactly."""
    if not 7 <= n_max <= TABLE_LIMIT:
        raise ValueError(f"n_max must lie in [7, {TABLE_LIMIT}], got {n_max}")
    rows = []
    for n, vprime, total, b in _walk(n_max):
        row = BoundRow(n, 6 * vprime, total, _scaled_bracket(n, b))
        if not row.nu_recurrence == row.nu_sum == row.nu_bracket:
            raise ArithmeticError(
                f"bound evaluations diverge first at n={n}: "
                f"recurrence={row.nu_recurrence} sum={row.nu_sum} bracket={row.nu_bracket}"
            )
        rows.append(row)
    return rows


def ratio_string(row: BoundRow, digits: int = 12) -> str:
    """bound / ((n-1)!)^2 as a rounded decimal string (approximate)."""
    den = factorial(row.n - 1) ** 2
    scaled = (row.bound * 10**digits + den // 2) // den
    return f"{scaled // 10**digits}.{scaled % 10**digits:0{digits}d}"


def table_csv(rows) -> str:
    out = ["n,bound,ratio_approx"]
    for row in rows:
        out.append(f"{row.n},{row.bound},{ratio_string(row)}")
    return "\r\n".join(out) + "\r\n"


def table_json(rows) -> str:
    payload = {"rows": [{"bound": str(r.bound), "n": r.n} for r in rows]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
