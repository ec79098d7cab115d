"""Class numbers, Kronecker symbol, and L-values at s=1.

The reduced-forms oracles live in _oracles and recount everything by direct
form enumeration; _oracles.hurwitz_from_class_numbers sums the class numbers
of _oracles.class_number_grid over square divisors, independent of the
package's count of all reduced forms and of its Moebius inversion of it.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy

from _oracles import (
    L1_series,
    class_number_forms,
    class_number_grid,
    hurwitz_all_forms,
    hurwitz_from_class_numbers,
    hurwitz_sweep,
    is_fundamental,
)
from ltavg import (
    L1_formula,
    class_number_h,
    hurwitz_H,
    is_valid_discriminant,
    kronecker,
    unit_count_w,
)
from ltavg import classnumber
from ltavg.classnumber import class_numbers, hurwitz_values
from ltavg.numberfield import admissible_primes, parse_field


def test_hurwitz_spot_values():
    assert hurwitz_H(-3) == Fraction(1, 3)
    assert hurwitz_H(-4) == Fraction(1, 2)
    assert hurwitz_H(-12) == Fraction(4, 3)
    assert hurwitz_H(-16) == Fraction(3, 2)
    assert hurwitz_H(-20) == 2
    assert hurwitz_H(-27) == Fraction(4, 3)


def test_hurwitz_matches_forms_oracle():
    # the full sweep down to -2000 runs in the acceptance suite
    T = hurwitz_values(np.arange(500))
    for D in range(-3, -500, -1):
        if D % 4 in (0, 1):
            want = hurwitz_all_forms(D)
            assert hurwitz_H(D) == want, D
            assert T[-D] == 6 * want, D
        else:
            assert T[-D] == 0, D


def test_hurwitz_table_spot_values_near_table_end():
    X = 4 * 10**5
    T = hurwitz_values(np.arange(X + 1))
    assert T.dtype == np.int64 and len(T) == X + 1
    for n in (X, X - 1, X - 4, X - 13, 399_999, 399_871, 399_563):
        assert T[n] == 6 * hurwitz_from_class_numbers(-n), n


def test_hurwitz_values_match_sweep_at_every_n():
    X = 2 * 10**4
    assert np.array_equal(hurwitz_values(np.arange(X + 1)), hurwitz_sweep(X))


def _six_H(n):
    return 0 if n % 4 in (1, 2) else 6 * hurwitz_all_forms(-n)


def _band_edges():
    # n = 3a^2 and n = 4a^2 are where the forms with c = a sit, and where
    # the per-a count switches between the band and the plain residue count
    ns = set()
    for a in list(range(1, 41)) + [97, 105, 210, 330]:
        for n in (3 * a * a, 4 * a * a, 3 * a * a - 1, 3 * a * a + 1, 4 * a * a - 1, 4 * a * a - 4, 4 * a * a + 4):
            if n > 0:
                ns.add(n)
    return sorted(ns)


def test_hurwitz_values_at_band_edges():
    ns = _band_edges()
    want = [_six_H(n) for n in ns]
    assert hurwitz_values(np.array(ns)).tolist() == want
    # each alone, so the slices of one a hold a single query
    for n, w in zip(ns, want):
        assert hurwitz_values(np.array([n])).tolist() == [w], n


@pytest.fixture(scope="module")
def sweep_to_a_million():
    return hurwitz_sweep(10**6)


@pytest.mark.parametrize("cells", [1, 1 << 30])
def test_hurwitz_values_same_at_any_block_size(monkeypatch, sweep_to_a_million, cells):
    # a budget of one cell gives every a its own block, and 2^30 puts every a
    # in one block, where one n lies in the bands of several a
    monkeypatch.setattr(classnumber, "_BLOCK_CELLS", cells)
    X = 2 * 10**4
    assert np.array_equal(hurwitz_values(np.arange(X + 1)), hurwitz_sweep(X))
    ns = np.array(_band_edges())
    assert np.array_equal(hurwitz_values(ns), sweep_to_a_million[ns])
    rng = np.random.default_rng(cells)
    for size in (1, 2, 40, 3000, 30000):
        ns = np.unique(rng.integers(0, 10**6, size))
        assert np.array_equal(hurwitz_values(ns), sweep_to_a_million[ns]), size


def test_hurwitz_values_memory_stays_small():
    # the discriminants 4p - 1 of the Hurwitz sum over Q at x = 2*10^4 and at
    # x = 10^6: the blocks of a stay within their cell budget
    for x, limit in ((2 * 10**4, 1 << 20), (10**6, 4 << 20)):
        n = 4 * np.array(admissible_primes(parse_field("Q"), x, 1), dtype=np.int64) - 1
        tracemalloc.start()
        try:
            hurwitz_values(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (x, peak)


def test_hurwitz_values_zero_off_discriminants():
    ns = np.array([0] + [n for n in range(1, 3000) if n % 4 in (1, 2)])
    assert not hurwitz_values(ns).any()


def test_hurwitz_values_input_checks():
    got = hurwitz_values(np.array([], dtype=np.int64))
    assert got.dtype == np.int64 and got.shape == (0,)
    for bad in ([7, 3], [3, 3], [-4, 3], [[3, 4]]):
        with pytest.raises(ValueError):
            hurwitz_values(np.array(bad))
    # raised before any work, as the band keys would pass 2^63
    with pytest.raises(OverflowError):
        hurwitz_values(np.array([3, 1 << 40]))


def test_hurwitz_values_spot_values_near_4e6():
    ns = [4 * 10**6 - k for k in (1601, 1000, 401, 13, 4, 1, 0)]
    got = hurwitz_values(np.array(ns)).tolist()
    assert got == [6 * hurwitz_from_class_numbers(-n) for n in ns]


def test_L1_square_divisor_sum_telescopes_to_hurwitz():
    # sum over k^2 | m, -m/k^2 a discriminant, of L(1, chi_{-m/k^2}) / k
    # equals pi H(-m) / sqrt(m); the a1 average reads the right-hand side
    for m in range(3, 3001):
        if m % 4 not in (0, 3):
            continue
        lhs = math.fsum(
            L1_formula(-(m // (k * k))) / k
            for k in range(1, math.isqrt(m) + 1)
            if m % (k * k) == 0 and is_valid_discriminant(-(m // (k * k)))
        )
        rhs = math.pi * float(hurwitz_H(-m)) / math.sqrt(m)
        assert abs(lhs - rhs) <= 1e-12 * rhs, m


def test_memos_stay_within_their_limit(monkeypatch):
    Ds = [D for D in range(-3, -400, -1) if D % 4 in (0, 1)]
    want = [(hurwitz_H(D), class_number_h(D)) for D in Ds]
    monkeypatch.setattr(classnumber, "_MEMO_LIMIT", 8)
    monkeypatch.setattr(classnumber, "_h_memo", {})
    monkeypatch.setattr(classnumber, "_hurwitz_memo", {})
    for _ in range(2):
        for D, value in zip(Ds, want):
            assert (hurwitz_H(D), class_number_h(D)) == value
            assert len(classnumber._h_memo) <= 8
            assert len(classnumber._hurwitz_memo) <= 8


def test_hurwitz_rejects_non_discriminants():
    for D in (0, -1, -2, -5, 4, 5, -6):
        with pytest.raises(ValueError):
            hurwitz_H(D)


def test_class_number_matches_primitive_forms_oracle():
    for D in range(-3, -800, -1):
        if D % 4 in (0, 1):
            want = class_number_forms(D)
            assert class_number_h(D) == want, D
            assert class_number_grid(D) == want, D


def test_class_numbers_match_grid_and_forms():
    # the first discriminants hold -3, -4 and the non-fundamental -12, -16, -27
    n = np.array([m for m in range(3, 801) if m % 4 in (0, 3)], dtype=np.int64)
    h, H6 = class_numbers(n)
    assert h.tolist() == [class_number_forms(-m) for m in n.tolist()]
    assert h.tolist() == [class_number_grid(-m) for m in n.tolist()]
    assert H6.tolist() == hurwitz_values(n).tolist()


def test_class_numbers_near_four_million():
    # -4*10^6 = -2^8 * 5^6 has many square divisors; the sparse second array
    # puts its n far apart, so the union of the n/k^2 is far from dense
    n = np.array([m for m in range(3_999_940, 4_000_001) if m % 4 in (0, 3)], dtype=np.int64)
    assert class_numbers(n)[0].tolist() == [class_number_grid(-m) for m in n.tolist()]
    sparse = [3, 4, 27, 1_000_000, 3_999_999, 4_000_000]
    want = [class_number_grid(-m) for m in sparse]
    assert class_numbers(sparse)[0].tolist() == want
    assert [class_number_h(-m) for m in sparse] == want


@pytest.mark.parametrize("n", [[2], [5], [6], [4, 3], [3, 3], [[3, 4]]])
def test_class_numbers_rejects_non_discriminants_and_unsorted(n):
    with pytest.raises(ValueError):
        class_numbers(n)


def test_class_number_classical_values():
    assert class_number_h(-4) == 1
    assert class_number_h(-23) == 3
    assert class_number_h(-47) == 5
    assert class_number_h(-163) == 1


def test_unit_count():
    assert unit_count_w(-3) == 6
    assert unit_count_w(-4) == 4
    assert unit_count_w(-7) == 2
    assert unit_count_w(-12) == 2


def test_discriminant_validity():
    for d in range(-1, -60, -1):
        assert is_valid_discriminant(d) == (d % 4 in (0, 1))


def test_fundamental_iff_no_square_split():
    # d is fundamental exactly when no k > 1 has k^2 | d with d / k^2 still
    # a discriminant
    for d in range(-3, -300, -1):
        if not is_valid_discriminant(d):
            continue
        reducible = any(
            d % (k * k) == 0 and is_valid_discriminant(d // (k * k))
            for k in range(2, int(math.isqrt(-d)) + 1)
        )
        assert is_fundamental(d) == (not reducible), d


def test_kronecker_matches_jacobi_on_odd_moduli():
    rng = random.Random(23)
    for _ in range(400):
        a = rng.randrange(-500, 500)
        n = rng.randrange(1, 500) * 2 + 1
        assert kronecker(a, n) == sympy.jacobi_symbol(a, n), (a, n)


def test_kronecker_at_two_and_units():
    # (a/2) depends on a mod 8; (a/1) is always 1
    for a in range(-40, 41):
        if a % 2 == 0:
            assert kronecker(a, 2) == 0
        elif a % 8 in (1, 7):
            assert kronecker(a, 2) == 1
        else:
            assert kronecker(a, 2) == -1
        assert kronecker(a, 1) == 1


def test_kronecker_rejects_negative_modulus():
    # the character attached to a discriminant only evaluates at n >= 0
    with pytest.raises(ValueError):
        kronecker(5, -3)


def test_kronecker_multiplicative_in_modulus():
    rng = random.Random(29)
    for _ in range(300):
        a = rng.randrange(-300, 300)
        m = rng.randrange(1, 60)
        n = rng.randrange(1, 60)
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_kronecker_is_legendre_at_odd_primes():
    for d in (-3, -4, -7, -8, -11, -15, -20):
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            if d % p == 0:
                continue
            ls = pow(d, (p - 1) // 2, p)
            assert kronecker(d, p) == (1 if ls == 1 else -1), (d, p)


def test_L1_classical_anchors():
    # L(1, chi_{-4}) = pi/4 and L(1, chi_{-3}) = pi/(3 sqrt 3)
    assert abs(L1_formula(-4) - math.pi / 4) < 1e-12
    assert abs(L1_formula(-3) - math.pi / (3 * math.sqrt(3))) < 1e-12


def test_L1_series_agrees_with_formula():
    # mixed fundamental and non-fundamental discriminants
    for d in (-3, -4, -8, -12, -16, -20, -27, -36, -43, -48, -100, -163):
        assert abs(L1_series(d, 1e-5) - L1_formula(d)) < 1e-4, d


def test_L1_positive():
    for d in range(-3, -200, -1):
        if is_valid_discriminant(d):
            assert L1_formula(d) > 0
