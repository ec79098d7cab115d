"""Traces of Frobenius over F_p and F_{p^f}, isomorphism orbits, masses."""

import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy

from _oracles import (
    _euler_table,
    curve_trace_enumerated,
    extension_trace_euler,
    extension_trace_table,
    frobenius_trace_power,
    models_isomorphic,
    trace_counts_gather,
    trace_table_gather,
)
from ltavg import (
    CurveModel,
    aut_size,
    hurwitz_H,
    isogeny_mass_oracle,
    isomorphism_orbit,
    trace_mod_p,
    trace_mod_q,
)
from ltavg import curves, gfpoly
from ltavg.classnumber import hurwitz_values
from ltavg.curves import ReducedCurve, field_trace_matrix, is_singular, trace_counts, trace_grid, trace_matrix
from ltavg.primes import sieve_primes


def test_trace_spot_values():
    assert trace_mod_p(1, 1, 5) == -3
    assert trace_mod_p(-1, 0, 5) == -2


def test_trace_matches_enumeration_oracle():
    for p in (5, 7, 11, 13):
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                assert trace_mod_p(a, b, p) == curve_trace_enumerated(a, b, p)


def test_trace_matrix_matches_enumeration_oracle():
    for p in (5, 7, 11, 13):
        traces, nonsingular = trace_matrix(p, range(p), range(p))
        for a in range(p):
            for b in range(p):
                assert nonsingular[a, b] == (not is_singular(a, b, p))
                if nonsingular[a, b]:
                    assert traces[a, b] == curve_trace_enumerated(a, b, p), (p, a, b)


def test_trace_matrix_matches_trace_mod_p():
    # unsorted values with duplicates and negatives; (-3, 2) and (0, 0) are
    # singular at every p
    rng = random.Random(31)
    for p in (17, 101, 1009, 2003, 2999):
        rows = max(1, 8192 // ((p + 1) // 2))
        A = [-3, 0, 5 - p, 10**6 + 3, 5] + [rng.randrange(-2 * p, 2 * p) for _ in range(2 * rows - 4)]
        B = [2, 0, -1, 2 + p, 7, 7] + [rng.randrange(-2 * p, 2 * p) for _ in range(3)]
        for a_values, b_values in ((A, B), (A[:1], B), (A, B[-1:])):
            traces, nonsingular = trace_matrix(p, a_values, b_values)
            assert traces.dtype == np.int64 and traces.shape == (len(a_values), len(b_values))
            for i, a in enumerate(a_values):
                for j, b in enumerate(b_values):
                    assert nonsingular[i, j] == (not is_singular(a, b, p))
                    if nonsingular[i, j]:
                        assert traces[i, j] == trace_mod_p(a, b, p), (p, a, b)


def test_trace_matrix_matches_direct_character_sum():
    # every cell at every prime below 400: p mod 4, p mod 3 and the primitive
    # root, which set the families and the window W0, all vary
    for p in sieve_primes(399).tolist()[2:]:
        traces, nonsingular = trace_matrix(p, range(p), range(p))
        want = trace_table_gather(p)
        assert np.array_equal(traces[nonsingular], want[nonsingular]), p


def test_trace_matrix_window_edges_above_a_million():
    # b = 0, 1, p - h, p - h + 1 and p - 1 are the ends of the two halves of
    # the folded window, h = (p + 1)/2; at a = -x0^2 the cubic has the three
    # roots 0 and +-x0, so the folded count at 0 is 2
    p = 1000003
    h = (p + 1) // 2
    A = [0, -(12345**2), 7, p - 1]
    B = [0, 1, p - h, p - h + 1, p - 1]
    traces, nonsingular = trace_matrix(p, A, B)
    assert nonsingular.sum() == len(A) * len(B) - 1
    for i, a in enumerate(A):
        for j, b in enumerate(B):
            if nonsingular[i, j]:
                assert traces[i, j] == trace_mod_p(a, b, p), (a, b)


def test_discrete_log_of_the_least_primitive_root():
    for p in sieve_primes(3000).tolist()[2:]:
        power, log = curves._discrete_log(p)
        assert power[1] == sympy.primitive_root(p), p
        assert sorted(power.tolist()) == list(range(1, p)), p
        assert np.array_equal(power[1:], power[:-1].astype(np.int64) * power[1] % p), p
        assert log[0] == p - 1 and np.array_equal(log[power], np.arange(p - 1)), p


@pytest.mark.parametrize("p", [10007, 10009, 10037, 10039])
def test_trace_matrix_boxes_through_zero(p):
    # p = 3, 1, 1, 3 mod 4, and 3 divides p - 1 at 10009 and 10039 only; each
    # side holds a = 0 or b = 0 from a representative far from 0
    for A, B in ((range(-5, 6), range(-5, 6)), (range(3 * p - 4, 3 * p + 5), range(-2 * p - 6, -2 * p + 3))):
        traces, nonsingular = trace_matrix(p, A, B)
        for i, a in enumerate(A):
            for j, b in enumerate(B):
                assert nonsingular[i, j] == (not is_singular(a, b, p))
                if nonsingular[i, j]:
                    assert traces[i, j] == trace_mod_p(a, b, p), (p, a, b)


def test_trace_matrix_cells_below_two_to_the_24():
    # the largest prime below 2^24, where p = 1 mod 4 (W0 is not 0) and 3
    # divides p - 1; at a = -x0^2 the cubic has the three roots 0 and +-x0
    p = 16777213
    A, B = [0, -(4321**2), 7], [0, 1, p - 1]
    traces, nonsingular = trace_matrix(p, A, B)
    assert nonsingular.sum() == len(A) * len(B) - 1
    for i, j in ((0, 1), (1, 0), (2, 2)):
        assert traces[i, j] == trace_mod_p(A[i], B[j], p), (A[i], B[j])


def test_trace_matrix_memory_at_a_million():
    # a 31 x 31 box: each side's gather is built 2^20 cells (4 MiB) at a time,
    # beside O(p) int32 and float32 tables of 4 to 12 MiB each
    p = 1000003
    curves._char_tables.clear()
    tracemalloc.start()
    try:
        trace_matrix(p, range(123442, 123473), range(-654336, -654305))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_trace_mod_p_memory_below_two_to_the_24():
    # the largest prime below 2^24: the doubled character table is 32 MiB, and
    # the sum over x runs in blocks of 2^20 values; 8075 is the trace that
    # trace_matrix gives there too
    p = 16777213
    curves._char_tables.clear()
    tracemalloc.start()
    try:
        assert trace_mod_p(5, 7, p) == 8075
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        curves._char_tables.clear()
    assert peak < 64 * 2**20


def test_trace_mod_p_rejects_p_from_two_to_the_24():
    # the smallest prime above 2^24 and a 30-bit prime; the guard comes
    # before any table of size p
    tracemalloc.start()
    try:
        for p in (16777259, 10**9 + 7):
            with pytest.raises(ValueError, match="2\\^24"):
                trace_mod_p(1, 1, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_trace_matrix_rejects_p_beyond_float32_exactness():
    for p in (3, 4, 9):
        with pytest.raises(ValueError):
            trace_matrix(p, [1], [1])
    # the smallest prime above 2^24; the guard comes before any table of size p
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError):
            trace_matrix(16777259, [1], [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_trace_rejects_singular():
    with pytest.raises(ValueError):
        trace_mod_p(0, 0, 7)


def test_hasse_bound():
    rng = random.Random(17)
    for _ in range(200):
        p = rng.choice((101, 103, 107, 109, 113))
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue
        t = trace_mod_p(a, b, p)
        assert t * t <= 4 * p


def test_quadratic_twist_negates_trace():
    p = 13
    d = next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1)
    rng = random.Random(19)
    for _ in range(30):
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b**2) % p == 0:
            continue
        ta = trace_mod_p(a, b, p)
        tw = trace_mod_p(a * d * d % p, b * d * d * d % p, p)
        assert tw == -ta


def test_isogeny_mass_sums_to_p():
    # summing the isomorphism-class mass over all traces recovers p
    for p in (5, 7, 11, 13, 17):
        total = sum(
            isogeny_mass_oracle(p, r)
            for r in range(-p, p + 1)
            if r * r < 4 * p
        )
        assert total == p


def test_isogeny_mass_known_value():
    # p=11, r=2: H(4-44) = H(-40) = 2, so the mass is 1
    assert hurwitz_H(-40) == 2
    assert isogeny_mass_oracle(11, 2) == Fraction(1)


def test_trace_counts_match_trace_grid():
    # the counts read off the correlations against the full (a, b) grid of
    # _trace_kernel, model by model
    for p in sieve_primes(149).tolist():
        if p < 5:
            continue
        R = math.isqrt(4 * p - 1)
        counts = trace_counts(p)
        traces, nonsingular = trace_grid(p)
        assert len(counts) == 2 * R + 1
        for r in range(-R, R + 1):
            assert counts[r + R] == ((traces == r) & nonsingular).sum(), (p, r)
        assert counts.sum() == p * (p - 1)


def test_trace_counts_match_gather():
    # the log-row correlations against the O(p^2) gather of one curve per
    # j-invariant
    primes = [p for p in sieve_primes(699).tolist() if p >= 5] + [5003]
    for p in primes:
        assert np.array_equal(trace_counts(p), trace_counts_gather(p)), p


def test_model_counts_certify_integers(monkeypatch):
    # an inverse FFT off by 1/2 everywhere is at distance 1/2 from every integer
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.5)
    with pytest.raises(ArithmeticError):
        trace_counts(101)
    F = curves.SmallField(7, (1, 0, 1))
    with pytest.raises(ArithmeticError):
        curves._model_counts(7, 2, F.power, F.log)
    with pytest.raises(ArithmeticError):
        next(curves.trace_count_blocks(300))


@pytest.mark.parametrize("budget", [1, 1 << 22])
def test_trace_count_blocks_match_one_prime_calls(monkeypatch, budget):
    # one prime per block, and all primes below 2000 in one block of mixed
    # FFT lengths; then 5003 alone
    monkeypatch.setattr(curves, "_COUNT_CELLS", budget)
    primes = [p for p in sieve_primes(2000).tolist() if p >= 5]
    blocks = list(curves.trace_count_blocks(2000))
    assert [p for block, _ in blocks for p in block] == primes
    assert len(blocks) == (len(primes) if budget == 1 else 1)
    for block, counts in blocks:
        assert np.array_equal(counts, np.concatenate([trace_counts(p) for p in block])), block
    p, (block, counts) = 5003, list(curves.trace_count_blocks(5003))[-1]
    assert block[-1] == p and np.array_equal(counts[-(2 * math.isqrt(4 * p - 1) + 1) :], trace_counts(p))


def test_trace_counts_rejects_bad_characteristic():
    for p in (3, 4, 9):
        with pytest.raises(ValueError):
            trace_counts(p)
    # the smallest prime above 2^31, where a*x would overflow int64
    with pytest.raises(OverflowError):
        trace_counts(2147483659)


def test_trace_counts_rejects_p_beyond_table_bound():
    # the smallest prime above 2^24, the bound of every table kernel; the
    # guard comes before any table of p entries
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError, match="tables of p = 16777259 entries"):
            trace_counts(16777259)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_isomorphism_orbit_structure():
    for p in (13, 17):
        for a, b in ((1, 1), (0, 2), (3, 0)):
            orbit = isomorphism_orbit(a, b, p)
            assert len(orbit) == (p - 1) // aut_size(a, b, p)
            assert len(set(orbit)) == len(orbit)
            t = trace_mod_p(a, b, p)
            for a2, b2 in orbit:
                assert models_isomorphic(a, b, a2, b2, p)
                assert trace_mod_p(a2, b2, p) == t


def test_orbit_codes_are_the_isomorphic_models():
    # ascending int64 codes a' * p + b' of exactly the models isomorphic to (a, b)
    for p in (5, 7, 13, 17):
        for a, b in ((1, 1), (0, 2), (3, 0), (-1, 4)):
            codes = curves._orbit_codes(a, b, p)
            assert codes.dtype == np.int64
            want = [a2 * p + b2 for a2 in range(p) for b2 in range(p) if models_isomorphic(a, b, a2, b2, p)]
            assert codes.tolist() == want, (p, a, b)
            assert isomorphism_orbit(a, b, p) == [divmod(c, p) for c in want]


def test_aut_size_special_j_invariants():
    assert aut_size(0, 1, 13) == 6   # j = 0, p = 1 mod 3
    assert aut_size(0, 1, 7) == 6
    assert aut_size(0, 1, 11) == 2   # j = 0, p = 2 mod 3
    assert aut_size(1, 0, 13) == 4   # j = 1728, p = 1 mod 4
    assert aut_size(1, 0, 7) == 2    # j = 1728, p = 3 mod 4
    assert aut_size(1, 1, 13) == 2   # generic


def test_extension_trace_three_routes():
    # the norm recurrence, the one-curve trace and the full prime-field grid
    # of field_trace_matrix must agree
    mods = {7: (1, 0, 1), 5: (2, 0, 1), 11: (1, 0, 1)}
    for p, modulus in mods.items():
        F = curves.SmallField(p, modulus)
        consts = [F.element_index(c) for c in range(p)]
        grid, _ = field_trace_matrix(F, consts, consts)
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                t1 = trace_mod_p(a, b, p)
                want = frobenius_trace_power(t1, p, 2)
                curve = ReducedCurve((a, 0), (b, 0), p, 2, modulus)
                assert trace_mod_q(curve) == want
                assert grid[a, b] == want


def test_extension_trace_hasse():
    rng = random.Random(29)
    for _ in range(40):
        a = (rng.randrange(7), rng.randrange(7))
        b = (rng.randrange(7), rng.randrange(7))
        try:
            t = trace_mod_q(ReducedCurve(a, b, 7, 2, (1, 0, 1)))
        except ValueError:
            continue  # singular model
        assert t * t <= 4 * 49


def test_frobenius_trace_power_recurrence():
    for t in (-4, -1, 0, 2, 3):
        for p in (5, 11):
            if t * t >= 4 * p:
                continue
            assert frobenius_trace_power(t, p, 1) == t
            seq = [2, t]
            for f in range(2, 6):
                seq.append(t * seq[-1] - p * seq[-2])
                assert frobenius_trace_power(t, p, f) == seq[-1]


# F_49, F_121, F_125 and F_625
_EXTENSION_FIELDS = [(7, (1, 0, 1)), (11, (1, 0, 1)), (5, (1, 0, 1, 1)), (5, (1, 0, 1, 1, 1))]


def _field_digits(index, p, f):
    return gfpoly.trim((index // p**k) % p for k in range(f))


@pytest.mark.parametrize("p, modulus", _EXTENSION_FIELDS)
def test_small_field_tables(p, modulus):
    F = curves.SmallField(p, modulus)
    q = F.q
    polys = [gfpoly.trim(c) for c in itertools.product(range(p), repeat=F.f)]
    assert sorted(F.element_index(c) for c in polys) == list(range(q))
    # g is primitive, and the first primitive element from t in index order
    cofactors = [(q - 1) // r for r in sympy.primefactors(q - 1)]
    primitive = [all(gfpoly.powmod(_field_digits(i, p, F.f), k, modulus, p) != (1,) for k in cofactors) for i in range(p, F.power[1] + 1)]
    assert primitive[-1] and not any(primitive[:-1])
    g = _field_digits(int(F.power[1]), p, F.f)
    rng = random.Random(q)
    for k in [0, 1, 2, (q - 1) // 2, q - 2] + [rng.randrange(q - 1) for _ in range(200)]:
        assert _field_digits(int(F.power[k]), p, F.f) == gfpoly.powmod(g, k, modulus, p), k
    assert F.log.dtype == F.power.dtype == np.int32
    assert np.array_equal(F.log[F.power], np.arange(q - 1)) and F.log[0] == q - 1
    # chi(g^k) = (-1)^k against Euler's criterion
    _, chi = _euler_table(p, modulus)
    assert all(chi[_field_digits(int(F.power[k]), p, F.f)] == (-1) ** k for k in range(q - 1))


@pytest.mark.parametrize("p, modulus", _EXTENSION_FIELDS + [(101, (99, 0, 1)), (13, (11, 0, 0, 1))])
def test_model_counts_satisfy_schoof(p, modulus):
    # Schoof (J. Combin. Theory A 46, 1987): for p not dividing r, the models
    # of trace r over F_q have mass H(r^2 - 4q)/2, so 12 count = (q - 1) 6H
    F = curves.SmallField(p, modulus)
    q = F.q
    counts = curves._model_counts(p, F.f, F.power, F.log)
    R = math.isqrt(4 * q)
    assert len(counts) == 2 * R + 1 and counts.sum() == q * (q - 1)
    r = np.arange(-R, R + 1)
    r = r[r % p != 0]
    n = np.unique(4 * q - r * r)
    H6 = hurwitz_values(n)[np.searchsorted(n, 4 * q - r * r)]
    assert np.array_equal(12 * counts[r + R], (q - 1) * H6), q


def test_reduced_curve_field_size_is_below_two_to_the_24():
    assert ReducedCurve(1, 1, 16777213).p == 16777213  # the largest prime below 2^24
    for args in [(1, 1, 16777259), (1, 1, 10**9 + 7), ((1, 0), (1, 0), 4099, 2, (2, 0, 1)), (1, 1, 7, 10**9, (1,))]:
        with pytest.raises(ValueError, match="2\\^24"):
            ReducedCurve(*args)


def test_trace_mod_q_checks_the_modulus_degree_first(monkeypatch):
    def no_field(*args):
        raise AssertionError("SmallField built")

    monkeypatch.setattr(curves, "SmallField", no_field)
    # q = 257^2 is below 2^24 but 257^3 is not; 7^3 would build 343 entries
    for p in (257, 7):
        with pytest.raises(ValueError, match="modulus degree disagrees"):
            trace_mod_q(ReducedCurve((1, 0), (1, 0), p, 2, (1, 1, 0, 1)))


def test_small_field_accepts_exactly_the_irreducible_moduli():
    # Gauss: (1/d) sum_{k | d} mu(d/k) p^k monic irreducibles of degree d
    mu = {1: 1, 2: -1, 3: -1, 4: 0}
    for p in (5, 7):
        for d in range(1, 5):
            accepted = 0
            for low in itertools.product(range(p), repeat=d):
                try:
                    curves.SmallField(p, low + (1,))
                except ValueError:
                    continue
                accepted += 1
            assert accepted == sum(mu[d // k] * p**k for k in range(1, d + 1) if d % k == 0) // d, (p, d)


def test_small_field_rejects_q_from_two_to_the_24():
    # p^f >= 2^24 at f = 1, 2 and 11; the guard comes before any table of size q
    tracemalloc.start()
    try:
        for p, modulus in ((16777259, (0, 1)), (1321139, (1, 0, 1)), (4099, (2, 0, 1)), (5, (2,) + (0,) * 10 + (1,))):
            with pytest.raises(OverflowError, match="2\\^24"):
                curves.SmallField(p, modulus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_field_trace_matrix_over_prime_fields_is_trace_matrix():
    # F_p as F_p[t]/(t + c): the element index of a residue is the residue
    for p, c in ((5, 0), (7, 3), (13, 12), (29, 1), (31, 30), (53, 7), (59, 58)):
        F = curves.SmallField(p, (c, 1))
        assert F.f == 1
        grid, nonsingular = field_trace_matrix(F, range(p), range(p))
        want, want_nonsingular = trace_matrix(p, range(p), range(p))
        assert np.array_equal(nonsingular, want_nonsingular), p
        assert np.array_equal(grid[nonsingular], want[nonsingular]), p


def _check_field_traces(F, A, B, want):
    """field_trace_matrix on A x B, and on its first row and first column,
    against want(a, b): the oracle trace, or None for a singular model."""
    for a_idx, b_idx in ((A, B), (A[:1], B), (A, B[:1])):
        traces, nonsingular = field_trace_matrix(F, a_idx, b_idx)
        assert traces.dtype == np.int64 and traces.shape == (len(a_idx), len(b_idx))
        for i, a in enumerate(a_idx):
            for j, b in enumerate(b_idx):
                t = want(a, b)
                assert nonsingular[i, j] == (t is not None), (a, b)
                if t is not None:
                    assert traces[i, j] == t, (a, b)


@pytest.mark.parametrize("p, modulus", [(7, (1, 0, 1)), (5, (1, 0, 1, 1))])
def test_field_trace_matrix_every_pair(p, modulus, monkeypatch):
    F = curves.SmallField(p, modulus)
    elements, table = extension_trace_table(p, modulus)
    where = {F.element_index(x): k for k, x in enumerate(elements)}
    order = list(range(F.q))
    random.Random(p).shuffle(order)
    A = order + [0, order[0]]
    B = order[::-1] + [order[5], 0]
    # 7 columns per block of each side's gather, the last block partial
    monkeypatch.setattr(curves, "_BLOCK_CELLS", 7 * len(A))
    _check_field_traces(F, A, B, lambda a, b: table[where[a]][where[b]])


# F_343, where -1 is a non-square, and F_625
@pytest.mark.parametrize("p, modulus", [(7, (1, 0, 1, 1)), (5, (1, 0, 1, 1, 1))])
def test_field_trace_matrix_sampled(p, modulus, monkeypatch):
    F = curves.SmallField(p, modulus)
    rng = random.Random(41)
    A = [rng.randrange(F.q) for _ in range(7)]
    A += [0, A[2]]
    B = [rng.randrange(F.q) for _ in range(4)]
    B += [B[0], 0]
    # 4 columns per block of each side's gather, the last block partial
    monkeypatch.setattr(curves, "_BLOCK_CELLS", 4 * len(A))
    digits = functools.partial(_field_digits, p=p, f=F.f)
    _check_field_traces(F, A, B, functools.cache(lambda a, b: extension_trace_euler(digits(a), digits(b), p, modulus)))


def test_curve_model_validation():
    with pytest.raises(ValueError):
        CurveModel((1, 2), (3,))
    with pytest.raises(ValueError):
        CurveModel((), ())
    m = CurveModel((1,), (2,))
    assert m.alpha == (1,) and m.beta == (2,)
