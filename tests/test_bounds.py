import hashlib
import json
from fractions import Fraction
from math import factorial

import pytest

from bubblecross import bounds, cli


def test_base_values():
    base = bounds.base_values()
    assert base["cr_B2"] == base["cr_B3"] == base["cr_B4"] == 0
    assert base["cr_B5_bound"] == 120
    assert base["nu_D6"] == 5196
    assert base["nu_Dprime6"] == 866
    assert base["nu_D6"] == 6 * base["nu_Dprime6"]


def test_recurrence_even_spot():
    assert bounds.added_term_even(6) == 8400  # 720/144 * 1680
    assert bounds.recurrence_even(6, 866) == 39576 == 36 * 866 + 8400


def test_recurrence_odd_spot():
    assert bounds.added_term_odd(7) == 127920  # 6!/144 * 25584
    assert bounds.recurrence_odd(7, 39576) == 2067144 == 49 * 39576 + 127920


def test_recurrence_parity_errors():
    with pytest.raises(ValueError):
        bounds.recurrence_even(7, 1)
    with pytest.raises(ValueError):
        bounds.recurrence_odd(8, 1)
    with pytest.raises(ValueError):
        bounds.recurrence_even(4, 1)


def test_nu_dn_values():
    assert bounds.nu_dn(6) == 5196
    assert bounds.nu_dn(7) == 237456
    assert bounds.nu_dn(8) == 12402864
    with pytest.raises(ValueError):
        bounds.nu_dn(5)


def test_summed_bound_matches_recurrence():
    for n in range(7, 13):
        assert bounds.summed_bound(n) == bounds.nu_dn(n)


def test_summed_bound_first_term_split():
    # n=7: scaled base plus the single generation term
    assert (factorial(6) // factorial(5)) ** 2 * 5196 == 187056
    assert bounds.summed_bound(7) - 187056 == 50400


def test_bracket_values():
    assert bounds.bracket(7) == Fraction(127, 300) + Fraction(5, 144)
    assert bounds.bracket(7) == Fraction(3298, 7200)
    assert bounds.bracket(8) == Fraction(344524, 705600)


def test_bracket_bound_values():
    assert bounds.bracket_bound(7) == 237456
    assert bounds.bracket_bound(8) == 12402864
    with pytest.raises(ValueError):
        bounds.bracket_bound(6)


def test_triple_equality_to_30():
    rows = bounds.bound_table(30)
    assert [r.n for r in rows] == list(range(7, 31))
    for row in rows:
        assert row.nu_recurrence == row.nu_sum == row.nu_bracket
        assert row.bound % 6 == 0


def _reference_summed(n):
    """The unrolled sum term by term, each scaled by ((n-1)!/(i-1)!)^2."""
    fn1 = factorial(n - 1)
    total = (fn1 // factorial(5)) ** 2 * 5196
    for i in range(7, n + 1, 2):
        term = factorial(i - 1) * (3 * i**4 - 25 * i**3 + 75 * i**2 - 95 * i + 42)
        assert term % 24 == 0
        total += (fn1 // factorial(i - 1)) ** 2 * (term // 24)
    for i in range(8, n + 1, 2):
        term = factorial(i - 2) * (3 * i**5 - 28 * i**4 + 103 * i**3 - 188 * i**2 + 164 * i - 48)
        assert term % 24 == 0
        total += (fn1 // factorial(i - 1)) ** 2 * (term // 24)
    return total


def _reference_bracket(n):
    """The bracket summed from scratch over both of its ranges."""
    b = Fraction(127, 300) + Fraction(5, 24 * factorial(n - 4))
    for i in range(3, n - 4):
        b += Fraction(1, 3 * factorial(i))
    for i in range(8, n + 1, 2):
        b += (Fraction(1, 8 * factorial(i - 3))
              - Fraction(1, 4 * factorial(i - 2))
              + Fraction(1, 4 * factorial(i - 1) * (i - 1)))
    return b


def test_walk_matches_direct_forms():
    rows = bounds.bound_table(60)
    assert [r.n for r in rows] == list(range(7, 61))
    for row in rows:
        n = row.n
        assert row.nu_sum == bounds.summed_bound(n) == _reference_summed(n)
        assert bounds.bracket(n) == _reference_bracket(n)
        assert row.nu_bracket == factorial(n - 1) ** 2 * _reference_bracket(n)


@pytest.mark.parametrize("n_max,render,sha256", [
    (50, bounds.table_csv, "d390dae202738845008ad0ffa3dcb9fb2dcabdc33bd2668f93750a0d62dcafdf"),
    (50, bounds.table_json, "3c6af29bba65cc1882e197fe6a9831d9ca931af436b91807e630e250cf432129"),
    (200, bounds.table_csv, "07853ae6834acfec6f8f33ef9a4ecf63e17d5b7865a0371a920788ce84041c2a"),
    (200, bounds.table_json, "fc74a44d9ade5f6f76ca22fbf9ac2041dfafecae157eb9fd42c4c85323aa34f9"),
], ids=["bounds50.csv", "bounds50.json", "bounds200.csv", "bounds200.json"])
def test_table_bytes_pinned(n_max, render, sha256):
    text = render(bounds.bound_table(n_max))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha256


@pytest.mark.parametrize("name,value", [
    ("recurrence_even", lambda n, nu_prime, step=bounds.recurrence_even: step(n, nu_prime) + 1),
    ("NU_D6", bounds.NU_D6 + 1),
], ids=["recurrence", "sum-seed"])
def test_divergence_names_first_row(monkeypatch, capsys, name, value):
    monkeypatch.setattr(bounds, name, value)
    with pytest.raises(ArithmeticError, match="diverge first at n=7"):
        bounds.bound_table(8)
    assert cli.main(["bounds", "--n-max", "8"]) == 1
    err = capsys.readouterr().err
    assert "invariant failure" in err and "diverge first at n=7" in err


def test_fractional_bracket_is_an_invariant_failure(monkeypatch, capsys):
    walk = bounds._walk

    def half_off_at_8(n_max):
        for n, vprime, total, b in walk(n_max):
            yield n, vprime, total, (b + Fraction(1, 2 * factorial(n - 1) ** 2) if n == 8 else b)

    monkeypatch.setattr(bounds, "_walk", half_off_at_8)
    with pytest.raises(ArithmeticError, match="n=8 is not an integer"):
        bounds.bound_table(8)
    assert cli.main(["bounds", "--n-max", "8"]) == 1
    err = capsys.readouterr().err
    assert "invariant failure" in err and "n=8 is not an integer" in err


def test_square_multiplier_between_generations():
    # the inherited crossings scale by n^2 at each step
    for n in range(6, 12):
        added = bounds.added_term_even(n) if n % 2 == 0 else bounds.added_term_odd(n)
        assert bounds.nu_dn(n + 1) - 6 * added == n * n * bounds.nu_dn(n)


def test_increment_matches_mesh_worst_cases():
    assert bounds.mesh_increment_even(6) == 8400 == 120 * 70
    assert bounds.mesh_increment_odd(7) == 127920 == 120 * (4 * 142 + 3 * 166)
    for n in (6, 8, 10, 12):
        assert bounds.added_term_even(n) == bounds.mesh_increment_even(n)
    for n in (7, 9, 11):
        assert bounds.added_term_odd(n) == bounds.mesh_increment_odd(n)


def test_increment_mismatch_is_a_hard_error(monkeypatch):
    import bubblecross.bounds as b
    monkeypatch.setattr(b, "mesh_max", lambda n, a: 1)
    with pytest.raises(ArithmeticError):
        b.recurrence_even(6, 866)


def test_bound_table_limits():
    with pytest.raises(ValueError):
        bounds.bound_table(6)
    with pytest.raises(ValueError):
        bounds.bound_table(10_000)
    assert len(bounds.bound_table(7)) == 1


def test_table_csv_format():
    rows = bounds.bound_table(8)
    text = bounds.table_csv(rows)
    lines = text.split("\r\n")
    assert lines[0] == "n,bound,ratio_approx"
    assert lines[1].startswith("7,237456,0.")
    assert lines[2].startswith("8,12402864,0.")
    ratio = lines[1].split(",")[2]
    assert len(ratio.split(".")[1]) == 12
    # the decimal matches the exact ratio to the printed precision
    approx = Fraction(237456, factorial(6) ** 2)
    assert abs(Fraction(ratio) - approx) <= Fraction(1, 2 * 10**12)


def test_table_json_exact_strings():
    rows = bounds.bound_table(8)
    data = json.loads(bounds.table_json(rows))
    assert data["rows"] == [
        {"bound": "237456", "n": 7},
        {"bound": "12402864", "n": 8},
    ]
