"""Field presets, split-prime detection, and residue data for primes."""

import json
import math

import numpy as np
import pytest
import sympy

from ltavg import (
    degree_f_primes,
    empirical_norm_residues,
    parse_field,
)
from _oracles import factor_patterns_ddf
from ltavg import experiments, gfpoly, numberfield
from ltavg.numberfield import (
    PRESETS,
    GaloisFieldSpec,
    _factor_patterns,
    _frobenius_x,
    _poly_discriminant,
    _x_pow_p_is_x,
    admissible_primes,
)
from ltavg.primes import sieve_primes


def test_preset_invariants():
    Q = parse_field("Q")
    assert (Q.n_K, Q.m_K, Q.disc) == (1, 1, 1)
    Qi = parse_field("Q_i")
    assert (Qi.n_K, Qi.m_K, Qi.disc) == (2, 4, -4)
    Qz = parse_field("Q_zeta3")
    assert (Qz.n_K, Qz.m_K, Qz.disc) == (2, 3, -3)
    assert parse_field("Q_sqrt2").m_K == 8
    assert parse_field("Q_zeta5").m_K == 5


def test_parse_field_rejects_unknown():
    with pytest.raises(ValueError, match="neither a preset"):
        parse_field("no_such_field")


def test_parse_field_from_json(tmp_path):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"name": "gaussian", "poly": [1, 0, 1]}))
    K = parse_field(str(path))
    assert K.name == "gaussian"
    assert K.poly == (1, 0, 1)
    assert K.m_K == 4


def test_split_primes_rational_field():
    Q = parse_field("Q")
    got = admissible_primes(Q, 200, 1)
    # every prime above the 4p > 20 floor splits in Q
    assert got == list(sympy.primerange(7, 201))


def test_split_primes_gaussian_field():
    Qi = parse_field("Q_i")
    pairs = [(p, Qi.roots_mod(p)) for p in admissible_primes(Qi, 500, 1)]
    want = [p for p in sympy.primerange(7, 501) if p % 4 == 1]
    assert [p for p, _ in pairs] == want
    for p, roots in pairs:
        assert len(roots) == 2
        for t in roots:
            assert (t * t + 1) % p == 0


def test_split_primes_trace_floor():
    Qi = parse_field("Q_i")
    # 4p must exceed max(20, r^2): with r = 9 only p > 20.25 qualifies
    got = admissible_primes(Qi, 100, 9)
    assert got == [p for p in sympy.primerange(21, 101) if p % 4 == 1]


def test_split_primes_sextic_preset():
    # p splits in the splitting field of x^3 - 2 iff p = 1 mod 3 and 2 is a
    # cube mod p; check against a direct power-residue computation
    S3 = parse_field("S3_x3m2")
    got = sorted(int(p) for p in S3.split_primes(500))
    want = [
        p
        for p in sympy.primerange(5, 501)
        if p % 3 == 1 and pow(2, (p - 1) // 3, p) == 1
    ]
    assert got == want
    for p in admissible_primes(S3, 500, 1):
        roots = S3.roots_mod(p)
        assert len(roots) == 6
        for t in roots:
            assert _eval(S3.poly, t, p) == 0


def _eval(poly, x, p):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def test_degree_f_primes_gaussian():
    Qi = parse_field("Q_i")
    split = degree_f_primes(Qi, 13, 1)
    assert sorted(q.root for q in split) == [5, 8]
    inert = degree_f_primes(Qi, 7, 2)
    assert len(inert) == 1 and inert[0].f == 2 and inert[0].norm == 49
    # wrong residue degree yields nothing
    assert degree_f_primes(Qi, 13, 2) == []
    assert degree_f_primes(Qi, 7, 1) == []
    with pytest.raises(ValueError):
        degree_f_primes(Qi, 2, 1)  # ramified


def test_degree_f_primes_rational_field():
    Q = parse_field("Q")
    ideals = degree_f_primes(Q, 11, 1)
    assert len(ideals) == 1 and ideals[0].norm == 11
    # Q has no primes of residue degree above one
    assert degree_f_primes(Q, 11, 3) == []


def test_reduce_element_gaussian():
    Qi = parse_field("Q_i")
    for q in degree_f_primes(Qi, 13, 1):
        assert experiments._reduce(np.array([[3, 5]]), q).tolist() == [(3 + 5 * q.root) % 13]


def test_empirical_norm_residues():
    Qi = parse_field("Q_i")
    assert empirical_norm_residues(Qi, 4, 3000) == frozenset({1})
    assert empirical_norm_residues(Qi, 8, 3000) == frozenset({1, 5})
    assert empirical_norm_residues(Qi, 5, 3000) == frozenset({1, 2, 3, 4})
    Qz = parse_field("Q_zeta3")
    assert empirical_norm_residues(Qz, 3, 3000) == frozenset({1})
    Q = parse_field("Q")
    assert empirical_norm_residues(Q, 4, 3000) == frozenset({1, 3})


def test_split_prime_cache_grows_consistently():
    K = parse_field("Q_zeta3")
    first = [int(p) for p in K.split_primes(300)]
    second = [int(p) for p in K.split_primes(2000)]
    assert second[: len(first)] == first
    assert second[-1] <= 2000
    want = [p for p in sympy.primerange(7, 2001) if p % 3 == 1]
    assert second == want


def _scalar_split(poly, disc, ps):
    """The one-prime split test of gfpoly, the oracle for the batched one."""
    return [
        p
        for p in ps
        if disc % p and gfpoly.x_pow_p_mod(gfpoly.normalize(poly, p), p) == (0, 1)
    ]


def test_batched_split_test_matches_scalar_oracle():
    bound = 20_000
    primes = list(sympy.primerange(2, bound + 1))
    for name, poly in PRESETS.items():
        if len(poly) < 3:
            continue
        K = parse_field(name)
        assert K.split_primes(bound).tolist() == _scalar_split(K.poly, K.disc, primes), name


def test_split_primes_growth_tests_only_new_primes(monkeypatch):
    # each growth of the split list runs the kernel on the primes above the
    # old bound alone, and the grown list holds every split prime once
    tested = []
    kernel = numberfield._x_pow_p_is_x
    monkeypatch.setattr(numberfield, "_x_pow_p_is_x", lambda poly, ps: tested.append(ps.tolist()) or kernel(poly, ps))
    K = GaloisFieldSpec(name="zeta3", poly=(1, 1, 1), n_K=2, disc=-3, m_K=3, n_A=2, G_mK=frozenset({1}))
    for bound in (1000, 1500, 5000):
        K.split_primes(bound)
    assert [(ps[0], ps[-1]) for ps in tested] == [(2, 997), (1009, 1999), (2003, 4999)]
    assert sum(tested, []) == [p for p in sympy.primerange(2, 5001) if p != 3]
    want = [p for p in sympy.primerange(2, 5001) if p % 3 == 1]
    assert K.split_primes(5000).tolist() == want


def test_frobenius_kernel_matches_scalar_powmod():
    # x^p mod (poly, p) at every unramified p < 10^4, against gfpoly one prime at a time
    primes = list(sympy.primerange(2, 10_000))
    for name, poly in PRESETS.items():
        if len(poly) < 3:
            continue
        disc = _poly_discriminant(poly)
        ps = [p for p in primes if disc % p]
        got = _frobenius_x(poly, np.array(ps, dtype=np.int64))
        for p, column in zip(ps, got.T.tolist()):
            assert gfpoly.trim(column) == gfpoly.x_pow_p_mod(gfpoly.normalize(poly, p), p), (name, p)


@pytest.mark.parametrize(
    "poly",
    [
        *(poly for poly in PRESETS.values() if len(poly) > 2),
        (-2, 0, 0, 1),  # x^3 - 2, not Galois: patterns 1+2 and 1+1+1
        (1, 0, -10, 0, 1),  # Q(sqrt2, sqrt3)
        (1, 0, 0, 1, 0, 0, 1),  # x^6 + x^3 + 1, Q(zeta9)
        (4, 0, 5, 0, 1),  # (x^2 + 1)(x^2 + 4)
        (6, 0, -5, 0, 1),  # (x^2 - 2)(x^2 - 3)
        (-30, 0, 31, 0, -10, 0, 1),  # (x^2 - 2)(x^2 - 3)(x^2 - 5): 1+1+2+2 at p = 7
    ],
)
def test_factor_patterns_match_distinct_degree_factorisation(poly):
    disc = _poly_discriminant(poly)
    assert _factor_patterns(poly, disc) == factor_patterns_ddf(poly, disc)


def _shifted(poly, c):
    """Coefficients of poly(x + c): the same field, with large coefficients."""
    x = sympy.symbols("x")
    shifted = sympy.Poly(sum(a * (x + c) ** i for i, a in enumerate(poly)), x)
    return [int(a) for a in reversed(shifted.all_coeffs())]


def test_batched_split_test_unreduced_json_coefficients(tmp_path):
    # Q_zeta5 shifted by x -> x + 10^6 has coefficients near 10^24, which do
    # not fit in int64 and must be reduced mod p first
    poly = _shifted(PRESETS["Q_zeta5"], 10**6)
    assert max(abs(c) for c in poly) > 2**63
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"name": "shifted_zeta5", "poly": poly}))
    K = parse_field(str(path))
    Z = parse_field("Q_zeta5")
    assert (K.disc, K.m_K, K.n_A, K.G_mK) == (Z.disc, Z.m_K, Z.n_A, Z.G_mK)
    primes = list(sympy.primerange(2, 20_001))
    want = _scalar_split(K.poly, K.disc, primes)
    assert K.split_primes(20_000).tolist() == want == Z.split_primes(20_000).tolist()


@pytest.mark.parametrize("name", ["Q_zeta5", "S3_x3m2"])
def test_batched_split_test_at_the_int64_limit(name):
    # the largest primes with n p^2 < 2^63, against coefficients of full size
    # mod p, run without overflow
    poly = _shifted(PRESETS[name], 10**30 + 7)
    n = len(poly) - 1
    ps, p = [], math.isqrt((2**63 - 1) // n) + 1
    while len(ps) < 16:
        p = sympy.prevprime(p)
        ps.append(p)
    assert n * ps[0] ** 2 < 2**63
    mask = _x_pow_p_is_x(poly, np.array(ps, dtype=np.int64))
    assert [p for p, keep in zip(ps, mask) if keep] == _scalar_split(poly, 1, ps)


def test_batched_split_test_rejects_int64_overflow():
    # a single prime above the limit n p^2 < 2^63 raises before any work
    for poly, p in (
        (PRESETS["Q_zeta5"], 2**31 + 11),
        (PRESETS["Q_zeta5"], sympy.nextprime(math.isqrt(2**61))),
        (PRESETS["S3_x3m2"], sympy.nextprime(math.isqrt((2**63 - 1) // 6))),
    ):
        assert (len(poly) - 1) * p**2 >= 2**63
        with pytest.raises(OverflowError):
            _x_pow_p_is_x(poly, np.array([p], dtype=np.int64))


def _sympy_disc(poly):
    x = sympy.symbols("x")
    return int(sympy.discriminant(sum(c * x**i for i, c in enumerate(poly)), x))


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def test_poly_discriminant_matches_sympy():
    rng = np.random.default_rng(11)
    polys = [p for p in PRESETS.values() if len(p) > 2]
    polys += [tuple(rng.integers(-9, 10, size=n).tolist()) + (1,) for n in rng.integers(2, 8, size=300)]
    polys += [tuple(_shifted(PRESETS[name], 10**6)) for name in ("Q_zeta5", "S3_x3m2")]
    assert max(abs(c) for c in polys[-2]) > 2**63
    for poly in polys:
        assert _poly_discriminant(poly) == _sympy_disc(poly), poly
    assert _poly_discriminant(PRESETS["Q"]) == 1


def test_poly_discriminant_of_repeated_factor_is_zero():
    rng = np.random.default_rng(12)
    for _ in range(50):
        g = tuple(rng.integers(-9, 10, size=rng.integers(1, 4)).tolist()) + (1,)
        h = tuple(rng.integers(-9, 10, size=rng.integers(0, 3)).tolist()) + (1,)
        assert _poly_discriminant(_times(_times(g, g), h)) == 0
    assert _poly_discriminant((0, 0, 0, 1)) == 0  # x^3: a pivot column with no nonzero entry left


def test_biquadratic_field_parses_through_sympy_fallback():
    # every Frobenius of Q(sqrt2, sqrt3) has order <= 2, so the mod-p patterns
    # 1+1+1+1 and 2+2 leave a possible quadratic factor for sympy to exclude
    K = parse_field([1, 0, -10, 0, 1])
    assert (K.disc, K.m_K, K.n_A, K.G_mK) == (147456, 24, 4, frozenset({1, 23}))


@pytest.mark.parametrize(
    "poly, error, match",
    [
        ([4, 0, 5, 0, 1], ValueError, "reducible"),  # (x^2+1)(x^2+4): uniform patterns
        ([6, 0, -5, 0, 1], ValueError, "reducible"),  # (x^2-2)(x^2-3): mixed patterns
        ([-2, 0, 0, 1], ArithmeticError, "not Galois"),
        ([-1, -1, 1, 1], ValueError, "not squarefree"),  # (x+1)^2 (x-1)
    ],
)
def test_parse_field_error_order(poly, error, match):
    with pytest.raises(error, match=match):
        parse_field(poly)


# (poly, m_K, n_A, G_mK) from the theory of cyclotomic fields: A is the
# maximal abelian subfield, m_K its conductor and G_mK the residues mod m_K
# of the primes that split completely in A
_THEORY_GRID = [
    (PRESETS["Q_i"], 4, 2, {1}),
    (PRESETS["Q_sqrt2"], 8, 2, {1, 7}),
    (PRESETS["Q_zeta3"], 3, 2, {1}),
    (PRESETS["Q_zeta5"], 5, 4, {1}),
    (PRESETS["S3_x3m2"], 3, 2, {1}),  # A = Q(zeta3)
    (tuple(_shifted(PRESETS["Q_zeta5"], 10**6)), 5, 4, {1}),
    ((1, 0, -10, 0, 1), 24, 4, {1, 23}),  # Q(sqrt2, sqrt3)
    ((1, 1, 1, 1, 1, 1, 1), 7, 6, {1}),  # Phi_7
    ((1, 0, 0, 1, 0, 0, 1), 9, 6, {1}),  # Q(zeta9)
    ((1, 0, 0, 0, 1), 8, 4, {1}),  # Q(zeta8)
    ((1, 0, -1, 0, 1), 12, 4, {1}),  # Q(zeta12)
    ((1, -2, -1, 1), 7, 3, {1, 6}),  # Q(zeta7)^+
    ((-1, -1, 1), 5, 2, {1, 4}),  # Q(sqrt5)
    ((2, -1, 1), 7, 2, {1, 2, 4}),  # Q(sqrt-7)
    ((-3, 0, 1), 12, 2, {1, 11}),  # Q(sqrt3)
    ((-6, 0, 1), 24, 2, {1, 5, 19, 23}),  # Q(sqrt6)
    ((5, 0, 1), 20, 2, {1, 3, 7, 9}),  # Q(sqrt-5)
    ((2, 0, -4, 0, 1), 16, 4, {1, 15}),  # Q(zeta16)^+
    ((1, 0, 0, 0, 0, 0, 0, 0, 1), 16, 8, {1}),  # Q(zeta16)
    ((2, 0, -16, 0, 20, 0, -8, 0, 1), 32, 8, {1, 31}),  # 2cos(pi/16), Q(zeta32)^+
    ((1, 0, 28, 0, 2, 0, 4, 0, 1), 8, 4, {1}),  # 2^(1/4) + i, dihedral with A = Q(zeta8)
    ((16, 12, -3, 1, 6, 3, 1), 3, 2, {1}),  # 3^(1/3) + zeta3, S3 with A = Q(zeta3)
    # 1009^(1/3) + zeta3 and 2017^(1/3) + zeta3: 1009 and 2017 ramify in K but not
    # in A, and disc(poly) has the index primes 5, 7, 101 and 7, 1009
    ((1020100, 3030, -3021, -2011, 6, 3, 1), 3, 2, {1}),
    ((4072324, 6054, -6045, -4027, 6, 3, 1), 3, 2, {1}),
    ((9, 0, -14, 0, 1), 40, 4, {1, 9, 31, 39}),  # sqrt2 + sqrt5
]


@pytest.mark.parametrize("poly, m_K, n_A, G_mK", _THEORY_GRID)
def test_abelian_invariants_match_theory(poly, m_K, n_A, G_mK):
    K = parse_field(list(poly))
    assert (K.m_K, K.n_A, K.G_mK) == (m_K, n_A, frozenset(G_mK))
    assert numberfield.conductor_bound(K.disc, K.n_K) % m_K == 0


def test_conductor_bound_is_tight_at_two():
    # conductors 16 and 32 with n_K = 4 and 8: the 2-exponent 2 + v_2(n_K) is attained
    for poly, m_K in (((2, 0, -4, 0, 1), 16), ((2, 0, -16, 0, 20, 0, -8, 0, 1), 32)):
        K = parse_field(list(poly))
        assert numberfield.conductor_bound(K.disc, K.n_K) == K.m_K == m_K


@pytest.mark.parametrize("ell, poly", [(1997, [-499, -1, 1]), (2017, [-504, -1, 1])])
def test_quadratic_field_of_large_prime_conductor(ell, poly):
    # Q(sqrt ell) for ell = 1 mod 4 has conductor ell and G_mK the squares mod ell
    K = parse_field(poly)
    squares = {a for a in range(1, ell) if pow(a, (ell - 1) // 2, ell) == 1}
    assert (K.disc, K.m_K, K.n_A, K.G_mK) == (ell, ell, 2, frozenset(squares))


@pytest.mark.parametrize(
    "base, c, invariants",
    [("Q_zeta5", 3001, (5, 4, {1})), ("S3_x3m2", 10007, (3, 2, {1})), ((1,) * 7, 10007, (7, 6, {1}))],
)
def test_index_primes_parse_at_the_first_budget(monkeypatch, base, c, invariants):
    # c * theta has disc(poly) = c^(n(n-1)) disc(theta), so c divides M without
    # ramifying; it adds at most n_K classes modulo n_K-th powers, and the split
    # primes up to 20000 settle the invariants
    poly = PRESETS[base] if isinstance(base, str) else base
    n = len(poly) - 1
    bounds = []
    split_primes = GaloisFieldSpec.split_primes
    monkeypatch.setattr(GaloisFieldSpec, "split_primes", lambda K, x: bounds.append(x) or split_primes(K, x))
    monkeypatch.setattr(numberfield, "_field_memo", {})
    K = parse_field([a * c ** (n - i) for i, a in enumerate(poly)])
    m_K, n_A, G_mK = invariants
    assert (K.m_K, K.n_A, K.G_mK) == (m_K, n_A, frozenset(G_mK))
    assert numberfield.conductor_bound(K.disc, K.n_K) % c == 0
    assert max(bounds) == 20000


def test_abelian_invariants_raises_past_the_prime_ceiling(monkeypatch):
    # a stand-in for Q(sqrt2017) whose split primes stop at 1000 never has
    # MIN_WITNESSES of them above half the budget
    monkeypatch.setattr(numberfield, "_PRIME_CEILING", 50_000)
    K = GaloisFieldSpec(name="sqrt2017", poly=(-504, -1, 1), n_K=2, disc=2017, m_K=1, n_A=1, G_mK=frozenset({1}))
    monkeypatch.setattr(K, "split_primes", lambda bound: sieve_primes(1000)[1:])
    with pytest.raises(RuntimeError, match="M = 2017"):
        numberfield.abelian_invariants(K)


def test_abelian_invariants_of_a_perfect_galois_group(monkeypatch):
    # a field with no abelian subfield but Q has split primes in every unit
    # class mod M; stand in for one with every prime not dividing disc = 5
    K = GaloisFieldSpec(name="perfect", poly=(1, 1, 1), n_K=2, disc=5, m_K=1, n_A=1, G_mK=frozenset({1}))
    monkeypatch.setattr(K, "split_primes", lambda bound: (ps := sieve_primes(bound))[ps != 5])
    assert numberfield.abelian_invariants(K) == (1, 1, frozenset({1}))


def test_abelian_invariants_raises_on_an_index_not_dividing_n_K(monkeypatch):
    # a stand-in for Q(i) whose split primes are all 1 mod 8 measures n_A = 4 > n_K
    K = GaloisFieldSpec(name="i", poly=(1, 0, 1), n_K=2, disc=-4, m_K=1, n_A=1, G_mK=frozenset({1}))
    monkeypatch.setattr(K, "split_primes", lambda bound: (ps := sieve_primes(bound))[ps % 8 == 1])
    with pytest.raises(ArithmeticError, match="n_A = 4"):
        numberfield.abelian_invariants(K)


def test_abelian_invariants_doubles_the_budget_while_late_primes_widen_the_group(monkeypatch):
    # a stand-in for Q(i) whose split primes are 1 mod 8 up to 15000: the ones
    # 5 mod 8 above it leave the group generated below 10000, so 20000 is not enough
    K = GaloisFieldSpec(name="i", poly=(1, 0, 1), n_K=2, disc=-4, m_K=1, n_A=1, G_mK=frozenset({1}))
    bounds = []

    def split_primes(bound):
        bounds.append(bound)
        ps = sieve_primes(bound)
        return ps[(ps % 8 == 1) | ((ps > 15000) & (ps % 4 == 1))]

    monkeypatch.setattr(K, "split_primes", split_primes)
    assert numberfield.abelian_invariants(K) == (4, 2, frozenset({1}))
    assert bounds == [20000, 40000]


def test_validate_group_rejects_a_set_not_closed_under_multiplication():
    K = GaloisFieldSpec(name="i", poly=(1, 0, 1), n_K=2, disc=-4, m_K=8, n_A=2, G_mK=frozenset({1, 3, 5}))
    with pytest.raises(ValueError, match="not closed"):
        numberfield._validate_group(K)
