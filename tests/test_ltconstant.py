"""Average-constant machinery: comparison integral, local factors, series."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from _oracles import c_by_period, c_coefficient, c_prime_power, generic_table_by_primes, pi_half_mpmath, pi_half_quad
from ltavg import (
    constant_product,
    constant_sum,
    finite_product_factor,
    local_factor_2,
    parse_field,
    pi_half,
)
from ltavg import ltconstant
from ltavg.ltconstant import _class_values, _generic_ratio, _ord_ell, _row_sums, _stepped
from ltavg.primes import factorize_slow, phi_from_factors


def test_pi_half_matches_quadrature():
    # the closed form is correctly rounded: within one ulp of the 30-digit quadrature
    for x in (3, 10, 100, 1_000, 10_000, 100_000):
        want = pi_half_quad(x)
        assert abs(pi_half(x) - want) <= math.ulp(want), x


def test_pi_half_matches_mpmath_bit_for_bit():
    # the fixed-point series and mpmath's li at 30 digits round to the same float
    rng = random.Random(21)
    xs = [2, 2.0, 2.5, 10**12, 1e12] + list(range(3, 1200))
    xs += [math.exp(rng.uniform(math.log(2), math.log(1e12))) for _ in range(600)]
    xs += [rng.randrange(1200, 10**12) for _ in range(400)]
    for x in xs:
        assert pi_half(x) == pi_half_mpmath(x), x
    assert pi_half(np.int64(10**4)) == pi_half(10_000.0) == pi_half(10**4)


def test_pi_half_frozen_values():
    # quadrature values, frozen as a drift guard
    for x, want in (
        (100, 3.13448516530858),
        (1_000, 6.79971653647666),
        (10_000, 15.1147562049548),
        (100_000, 35.6344508114074),
    ):
        assert abs(pi_half(x) - want) < 1e-10 * want


def test_pi_half_monotone_and_scaled():
    assert pi_half(2) == 0.0
    # pi_half(x) ~ sqrt(x)/log x
    for x in (10**4, 10**6):
        ref = math.sqrt(x) / math.log(x)
        assert 0.9 < pi_half(x) / ref < 1.4


def test_local_factor_2_known_rows():
    # odd trace
    for r in (-3, -1, 1, 5):
        assert local_factor_2(r, 1, 1) == Fraction(2, 3)
        assert local_factor_2(r, 2, 3) == Fraction(2, 3)
    # even trace, odd conductor
    assert local_factor_2(2, 1, 1) == Fraction(4, 3)
    assert local_factor_2(0, 1, 3) == Fraction(4, 3)
    # even trace, conductor divisible by 4
    assert local_factor_2(0, 3, 4) == Fraction(5, 3)


def test_local_factor_2_requires_unit():
    with pytest.raises(ValueError):
        local_factor_2(1, 2, 4)


def test_local_factor_2_totality_small():
    # full sweep runs in the acceptance suite; the function itself raises
    # if zero or several guards fire
    for r in range(-6, 7):
        for m in range(1, 17):
            for b in range(1, m + 1):
                if math.gcd(b, m) != 1:
                    continue
                v = local_factor_2(r, b, m)
                assert 0 < v <= 2, (r, b, m)


def test_finite_product_factor_known():
    assert finite_product_factor(1, 1, 3) == Fraction(3, 4)


def test_finite_product_factor_residue_invariance():
    for r in (0, 1, 2):
        for m in (3, 4, 5, 12):
            for b in range(1, m):
                if math.gcd(b, m) != 1:
                    continue
                assert finite_product_factor(r, b, m) == finite_product_factor(r, b + m, m)
                assert finite_product_factor(r, b, m) > 0


def test_c_coefficient_small_values():
    assert c_coefficient(1, 1, 1, 1, 1) == 1
    assert c_coefficient(1, 2, 1, 1, 1) == -1
    # even k contributes nothing for odd trace
    for n in range(1, 8):
        assert c_coefficient(2, n, 1, 1, 1) == 0
        assert c_coefficient(4, n, 3, 1, 1) == 0


def _phi(n):
    return phi_from_factors(factorize_slow(n))


def _units(m):
    return [b for b in range(1, m + 1) if math.gcd(b, m) == 1]


def _brute_row(k, r, b, m, n_max):
    """Sum over n <= n_max of c(k, n) / D(n) from the enumerated coefficients."""
    terms = []
    for n in range(1, n_max + 1):
        nk2 = n * k * k
        denom = n * k * _phi(m) * _phi(nk2) // _phi(math.gcd(nk2, m))
        terms.append(c_coefficient(k, n, r, b, m) / denom)
    return math.fsum(terms)


def test_row_sums_match_enumeration():
    # m = 8, 9, 16 put the step threshold at e0 = 3, 2, 4
    for r in (0, 1, 2, 3, -3):
        for m in (1, 3, 4, 5, 8, 9, 12, 16):
            rows = _row_sums(r, m, _units(m), 6, 80)
            assert sorted(rows) == sorted((b, k) for b in _units(m) for k in range(1, 7))
            for (b, k), value in rows.items():
                assert value == _brute_row(k, r, b, m, 80), (r, m, b, k)


def test_c_prime_power_matches_enumeration():
    # p = 2 reads the (a|2) table, odd p the shared int8 Legendre table;
    # either histogram must stay exact ints
    for p, e_max in ((2, 7), (3, 3), (5, 3), (7, 3), (11, 3)):
        for e in range(1, e_max + 1):
            if p**e > 400:
                break
            for k, r, b, m in ((1, 1, 1, 1), (2, 0, 1, 3), (3, 3, 1, 4), (1, 2, 2, 5), (5, 1, 5, 12)):
                got = _class_values(r, m, p, e, np.array([k]), np.array([b]))
                assert got.dtype == np.int64
                assert got[0, 0] == c_prime_power(k, p, e, r, b, m) == c_coefficient(k, p**e, r, b, m), (k, p, e, r, b, m)
    # one call for a block of k and every unit b: each class value is the enumeration's
    for m in (1, 4, 5, 9, 12, 13, 16):
        units = _units(m)
        for p in sorted({2, *factorize_slow(m)}):
            for e in range(max(1, _ord_ell(m, p)) + 2):
                if 4 * p**e > 512:
                    break
                for r in (0, 1, -3):
                    got = _class_values(r, m, p, e, np.arange(1, 13), np.array(units))
                    for k in range(1, 13):
                        for j, b in enumerate(units):
                            assert got[k - 1, j] == c_coefficient(k, p**e, r, b, m), (m, p, e, r, k, b)


def test_c_by_period_matches_enumeration():
    # the step c(k, p^(e+2)) = p^2 c(k, p^e) above e0 + 1, e0 = max(1, v_p(m)),
    # at p dividing m, k, r or none of them, at every e with 4 p^e <= 2^11
    for m in (1, 3, 4, 5, 8, 9, 12, 16, 27):
        units = _units(m)
        for p in (2, 3, 5, 7):
            e_top = max(e for e in range(1, 10) if 4 * p**e <= 2**11)
            ks = sorted(set(range(1, 25)) | {p * p * j for j in (1, 2, 5, 7)})
            head_e = range(max(1, int(_ord_ell(m, p))) + 2)
            for r in (0, 1, -3, p, p * p):
                heads = np.stack([_class_values(r, m, p, e, np.array(ks), np.array(units)) for e in head_e], axis=-1)
                for k, k_heads in zip(ks, heads.tolist()):
                    for b, head in zip(units, k_heads):
                        local = c_by_period(k, p, r, b, m)
                        stepped = _stepped(head, p, e_top)
                        for e in range(1, e_top + 1):
                            assert stepped[e] == local(e) == c_prime_power(k, p, e, r, b, m), (m, p, k, r, b, e)


def test_enumeration_does_not_grow_with_n_max(monkeypatch):
    # every enumerated p-part stays at e <= max(1, v_p(m)) + 1 at N_max = 20000
    seen = {}
    enumerate_ = ltconstant._class_values

    def recording(r, m, p, e, ks, units):
        seen[m, p] = max(seen.get((m, p), 0), e)
        return enumerate_(r, m, p, e, ks, units)

    monkeypatch.setattr(ltconstant, "_class_values", recording)
    for m in (1, 4, 16):
        _row_sums(1, m, _units(m), 60, 20000)
    for (m, p), e in seen.items():
        assert e <= max(1, _ord_ell(m, p)) + 1, (m, p, e)
    assert seen[16, 2] == 5


def test_generic_ratio_matches_enumeration():
    # odd p dividing neither k nor m, r prime to p and r divisible by p
    for k, r, b, m in ((1, 1, 1, 1), (2, 2, 1, 3), (3, 1, 1, 4), (1, 0, 1, 5), (5, 2, 7, 12)):
        c1 = c_coefficient(k, 1, r, b, m)
        assert c1 != 0
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            if (k * m) % p == 0:
                continue
            e = 1
            while p**e <= 500:
                want = Fraction(c_coefficient(k, p**e, r, b, m), c1)
                assert _generic_ratio(p, e, r) == want, (k, r, b, m, p, e)
                e += 1


def test_closed_form_at_odd_primes_of_k():
    # odd p | k, p not dividing m: c(k, p^e) = c(k, 1) * _generic_ratio(p, e, r, k),
    # with p | r (a zero row), p not dividing r, and p^2 | k
    for p in (3, 5, 7):
        for k in (p, 2 * p, 3 * p, p * p):
            for r in (1, -1, 2, 4, p, 2 * p):
                for m, b in ((1, 1), (4, 3), (8, 5), (3, 2), (5, 2)):
                    if m % p == 0:
                        continue
                    c1 = _class_values(r, m, 2, 0, np.array([k]), np.array([b]))[0, 0]
                    for e in range(1, 5):
                        got = c1 * _generic_ratio(p, e, r, k)
                        assert got == _class_values(r, m, p, e, np.array([k]), np.array([b]))[0, 0], (p, k, r, m, b, e)
                        if p**e <= 125:
                            assert got == c_coefficient(k, p**e, r, b, m), (p, k, r, m, b, e)


def test_generic_table_matches_the_put_prime_build():
    for n_max in (1, 2, 16, 300, 2000):
        for r in (0, 1, -1, 2, 6):
            want = generic_table_by_primes(r, n_max)
            assert np.array_equal(ltconstant._generic_table(r, n_max), want), (n_max, r)


def test_enumeration_only_at_two_and_the_odd_primes_of_m(monkeypatch):
    # the odd primes of k that do not divide m take the closed form
    seen = set()
    enumerate_ = ltconstant._class_values

    def recording(r, m, p, e, ks, units):
        seen.add((m, p))
        return enumerate_(r, m, p, e, ks, units)

    monkeypatch.setattr(ltconstant, "_class_values", recording)
    for r, m in ((1, 1), (2, 1), (2, 5), (1, 15), (0, 12)):
        _row_sums(r, m, _units(m), 200, 300)
    assert seen == {(1, 2), (5, 2), (5, 5), (15, 2), (15, 3), (15, 5), (12, 2), (12, 3)}


def test_row_with_zero_first_coefficient_is_zero():
    # odd trace with even k; 3 dividing k and r; r^2 not 4b mod 3 with 3 | k
    for k, r, b, m in ((2, 1, 1, 1), (3, 3, 1, 1), (3, 2, 2, 3), (4, 3, 1, 4)):
        assert c_coefficient(k, 1, r, b, m) == 0
        assert all(c_coefficient(k, n, r, b, m) == 0 for n in range(1, 81))
        assert _row_sums(r, m, [b], k, 80)[b, k] == 0.0


def test_sum_tables_hold_the_current_n_max_only():
    Q = parse_field("Q")
    constant_sum(Q, 1, K_max=20, N_max=300)
    constant_sum(Q, 1, K_max=20, N_max=400)
    assert list(ltconstant._engines) == [400]


def test_sum_rejects_int64_overflow():
    with pytest.raises(OverflowError):
        _row_sums(1, 1, [1], 2**16, 2**30)


def test_sum_rejects_denominator_overflow_before_any_table():
    # r^2 + 4 N K^2 fits in int64, but D(n) at k = 199 and n near N does not
    with pytest.raises(OverflowError):
        _row_sums(1, 1, [1], 200, 1_100_000)
    assert 1_100_000 not in ltconstant._engines


def test_constant_sum_frozen_values():
    # frozen from the engine that enumerated c(k, p^e) at every p^e <= N_max
    Q = parse_field("Q")
    assert constant_sum(Q, 1, 200, 2000).value == 0.3901305908813148
    assert constant_sum(Q, 1, 200, 5000).value == 0.39049301006730786


def test_constant_sum_symmetric_in_trace_sign():
    Q = parse_field("Q")
    plus = constant_sum(Q, 3, K_max=40, N_max=400)
    minus = constant_sum(Q, -3, K_max=40, N_max=400)
    assert plus.value == minus.value


def test_constant_sum_metadata():
    Q = parse_field("Q")
    est = constant_sum(Q, 1, K_max=30, N_max=300)
    assert est.method == "sum"
    assert est.truncations == {"K_max": 30, "N_max": 300}
    assert est.field_name == "Q" and est.r == 1
    assert est.tail_estimate > 0
    assert 0 < est.value < 2


def test_constant_sum_doubling_within_tail():
    Q = parse_field("Q")
    base = constant_sum(Q, 1, K_max=50, N_max=800)
    k_double = constant_sum(Q, 1, K_max=100, N_max=800)
    n_double = constant_sum(Q, 1, K_max=50, N_max=1600)
    assert abs(k_double.value - base.value) < base.tail_estimate
    assert abs(n_double.value - base.value) < base.tail_estimate


def test_constant_product_frozen_value():
    Q = parse_field("Q")
    est = constant_product(Q, 1, L_max=3000)
    assert est.method == "product"
    assert abs(est.value - 0.3916056148126491) < 1e-14


def test_constant_product_doubling_within_tail():
    Q = parse_field("Q")
    base = constant_product(Q, 1, L_max=2000)
    double = constant_product(Q, 1, L_max=4000)
    assert abs(double.value - base.value) < base.tail_estimate
    assert double.tail_estimate < base.tail_estimate


def test_methods_agree_at_modest_truncations():
    Q = parse_field("Q")
    s = constant_sum(Q, 1, K_max=100, N_max=1600)
    p = constant_product(Q, 1, L_max=3000)
    assert abs(s.value - p.value) / p.value < 0.01


def test_row_keys_merge_only_equal_rows():
    # at a prime m below N_max, b enters c(k, n) only at the multiples of m, so
    # the units of one k share a few keys; each unit's row is still its own sum
    for m in (13, 37):
        for r in (1, 2):
            counters = {}
            rows = _row_sums(r, m, _units(m), 6, 80, counters)
            assert counters["distinct_rows"] <= 3 * 6 < counters["rows"] == len(rows) == 6 * (m - 1)
            for (b, k), value in rows.items():
                assert value == _brute_row(k, r, b, m, 80), (r, m, b, k)
    counters = {}
    rows = _row_sums(1, 2017, _units(2017), 20, 5000, counters)
    assert sorted(rows) == sorted((b, k) for b in _units(2017) for k in range(1, 21))
    # ten live k (the odd ones), each with c(k, 2017) / c(k, 1) in {1, -1, 0}
    assert counters["rows"] == 2016 * 20 and counters["distinct_rows"] <= 3 * 10


def test_row_sums_memory_is_bounded_at_large_prime_powers():
    # at m = 101 and N_max = 20000 the p = 101 enumeration reaches e = 2, 2 * 101^2
    # residues a per k; one array over all 60 k would take 30 MiB at the peak
    import tracemalloc

    tracemalloc.start()
    try:
        _row_sums(0, 101, _units(101), 60, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak / 2**20
