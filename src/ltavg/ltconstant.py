"""The average trace-multiplicity constant, computed two independent ways.

For a Galois number field K and an integer trace r, the constant that scales
the expected count of degree-one primes with trace of Frobenius r admits both
a triple-sum expansion and an Euler-product expansion.  Both are implemented
here, together with the square-root prime-counting integral they calibrate.

The two routes share no code beyond elementary arithmetic, so their agreement
(cross-checked in the test suite) guards against transcription slips in
either formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classnumber import _KRON2, kronecker
from .curves import quadratic_character
from .numberfield import _as_field
from .primes import factorize_slow, phi_from_factors, phi_sieve, sieve_primes, spf_sieve


@dataclass(frozen=True)
class ConstantEstimate:
    value: float
    method: str
    truncations: dict
    tail_estimate: float
    field_name: str
    r: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("constant estimate must be nonnegative")
        if not math.isfinite(self.tail_estimate) or self.tail_estimate < 0:
            raise ValueError("tail estimate must be a finite nonnegative real")


# pi_half works in binary fixed point: an int v stands for v / 2^_BITS
_BITS = 128
_ONE = 1 << _BITS


def _atanh(z: int) -> int:
    """atanh of the fixed-point z, |z| <= 1/3: the odd series sum z^j / j."""
    a = abs(z)
    zz = a * a >> _BITS
    total = term = a
    j = 1
    while term:
        term = term * zz >> _BITS
        j += 2
        total += term // j
    return total if z >= 0 else -total


_LN2 = 2 * _atanh(_ONE // 3)


def _ln(num: int, den: int) -> int:
    """ln(num / den) in fixed point, for positive integers num and den."""
    k = num.bit_length() - den.bit_length()
    m = (num << _BITS >> k) // den if k >= 0 else (num << (_BITS - k)) // den  # in (1/2, 2)
    if 3 * m >= 4 * _ONE:
        m, k = m >> 1, k + 1
    elif 3 * m < 2 * _ONE:
        m, k = m << 1, k - 1
    # now 2/3 <= m < 4/3, so |z| <= 1/5 below
    return k * _LN2 + 2 * _atanh(((m - _ONE) << _BITS) // (m + _ONE))


def _ei_series(t: int) -> int:
    """sum over n >= 1 of t^n / (n * n!) for the fixed-point t > 0."""
    total = term = t
    n = 1
    while term:
        n += 1
        term = term * t // (n << _BITS)
        total += term // n
    return total


_T2 = _ln(2, 1) >> 1  # ln(sqrt 2)
_EI_T2 = _ei_series(_T2)


def pi_half(x: float) -> float:
    """Integral from 2 to x of dt / (2 sqrt(t) log t).

    After t = u^2 it is the integral of du / (2 log u) over [sqrt 2, sqrt x],
    so it equals (li(sqrt x) - li(sqrt 2)) / 2. With li(u) = Ei(ln u) and
    Ei(t) = gamma + ln t + sum_{n>=1} t^n / (n * n!), Euler's gamma cancels:
    the result is (ln(t / t2) + S(t) - S(t2)) / 2 for t = ln(x) / 2,
    t2 = ln(2) / 2 and S the series. It is summed on exact inputs in 128-bit
    integer fixed point, with a relative error below 10^-35 (checked against
    mpmath at 60 digits for x up to 10^18), and rounded to a float once, by
    one correctly rounded int / int division.
    """
    if x < 2:
        raise ValueError("pi_half is defined for x >= 2")
    num, den = (int(x), 1) if x == int(x) else float(x).as_integer_ratio()
    t = _ln(num, den) >> 1
    return (_ln(t, _T2) + _ei_series(t) - _EI_T2) / (_ONE << 1)


def _ord_ell(n: int, ell: int) -> float:
    if n == 0:
        return math.inf
    e = 0
    while n % ell == 0:
        n //= ell
        e += 1
    return e


def local_factor_2(r: int, b: int, m: int) -> Fraction:
    """The 2-adic local factor of the finite product, as a decision list.

    The fourteen guards form a partition of the inputs with gcd(b, m) = 1;
    exactly one must fire, and that is asserted on every call because this
    table is the easiest place for a transcription slip to hide.
    """
    if math.gcd(b, m) != 1:
        raise ValueError("b must be a unit modulo m")
    delta = r * r - 4 * b
    d2 = _ord_ell(delta, 2)
    m2 = _ord_ell(m, 2)
    fin = math.isfinite(d2)
    u4 = (delta >> int(d2)) % 4 if fin else None
    u8 = (delta >> int(d2)) % 8 if fin else None
    r4 = r % 4
    b4 = b % 4
    even_d2 = fin and int(d2) % 2 == 0
    odd_d2 = fin and int(d2) % 2 == 1
    cases = [
        (r % 2 == 1,
         lambda: Fraction(2, 3)),
        (r % 2 == 0 and m % 4 != 0,
         lambda: Fraction(4, 3)),
        (r4 == 2 and 2 <= m2 <= d2 - 2,
         lambda: 2 - Fraction(2, 3 * 2 ** (int(m2) // 2))),
        (r4 == 2 and fin and m2 == d2 - 1 and even_d2,
         lambda: 2 - Fraction(4, 3 * 2 ** ((int(m2) - 1) // 2))),
        (r4 == 2 and fin and m2 == d2 - 1 and odd_d2,
         lambda: 2 - Fraction(2, 2 ** (int(m2) // 2))),
        (r4 == 2 and fin and m2 == d2 and even_d2 and u4 == 1,
         lambda: 2 - Fraction(2, 3 * 2 ** (int(m2) // 2))),
        (r4 == 2 and fin and m2 == d2 and (odd_d2 or u4 == 3),
         lambda: 2 - Fraction(2, 2 ** (int(m2) // 2))),
        (r4 == 2 and fin and m2 > d2 and even_d2 and u8 == 1,
         lambda: Fraction(2)),
        (r4 == 2 and fin and m2 > d2 and even_d2 and u8 == 5,
         lambda: 2 - Fraction(4, 3 * 2 ** (int(d2) // 2))),
        (r4 == 2 and fin and m2 > d2 and (odd_d2 or u4 == 3),
         lambda: 2 - Fraction(2, 2 ** (int(d2) // 2))),
        (r4 == 0 and m2 == 2 and b4 == 3,
         lambda: Fraction(5, 3)),
        (r4 == 0 and m % 8 == 0 and b4 == 3 and (delta // 4) % 8 == 1,
         lambda: Fraction(2)),
        (r4 == 0 and m % 8 == 0 and b4 == 3 and (delta // 4) % 8 == 5,
         lambda: Fraction(4, 3)),
        (r4 == 0 and m % 4 == 0 and b4 == 1,
         lambda: Fraction(1)),
    ]
    hits = [i for i, (guard, _) in enumerate(cases) if guard]
    if len(hits) != 1:
        raise RuntimeError(f"2-adic factor guards matched rows {hits} for r={r} b={b} m={m}")
    return cases[hits[0]][1]()


def finite_product_factor(r: int, b: int, m: int) -> Fraction:
    """Product of the local factors at the primes dividing m, exact."""
    val = local_factor_2(r, b, m)
    delta = r * r - 4 * b
    for ell in sorted(factorize_slow(m)):
        if ell == 2:
            continue
        if r % ell == 0:
            val *= Fraction(ell * (ell + kronecker(-b, ell)), ell * ell - 1)
            continue
        om = int(_ord_ell(m, ell))
        od = _ord_ell(delta, ell)
        if od >= om:
            e_hi = (om + 1) // 2
            e_lo = (om - 1) // 2
            val *= Fraction(ell**e_hi - 1, ell**e_lo * (ell - 1)) + Fraction(
                ell ** (om + 2), ell ** (3 * e_hi) * (ell * ell - 1)
            )
        else:
            od = int(od)
            leg = kronecker(delta, ell)
            gam = kronecker(delta // ell**od, ell) if (od > 0 and od % 2 == 0) else 0
            term = Fraction(ell * leg + leg * leg, ell * ell - 1)
            if gam:
                term += Fraction(ell * gam + ell * ell, ell ** (od // 2) * (ell * ell - 1))
                e = (od - 1) // 2
                term += Fraction(ell**e - 1, ell**e * (ell - 1))
            val *= 1 + term
    return val


def constant_product(field, r: int, L_max: int = 100_000) -> ConstantEstimate:
    """Euler-product evaluation, truncating the generic factors at L_max."""
    field = _as_field(field)
    if L_max < 1000:
        raise ValueError("L_max must be at least 1000")
    m = field.m_K
    primes = sieve_primes(L_max)
    primes = primes[primes > 2]
    keep = np.ones(len(primes), dtype=bool)
    for ell in factorize_slow(m):
        keep &= primes != ell
    ell = primes[keep].astype(np.float64)
    div_r = (r % primes[keep].astype(np.int64)) == 0
    generic = ell * (ell * ell - ell - 1) / ((ell + 1) * (ell - 1) ** 2)
    trace_div = ell * ell / (ell * ell - 1)
    factors = np.where(div_r, trace_div, generic)
    prefactor = float(np.prod(factors))
    bsum = Fraction(0)
    for b in sorted(field.G_mK):
        bsum += finite_product_factor(r, b, m)
    phi_m = phi_from_factors(factorize_slow(m))
    value = 2 * field.n_A / (math.pi * phi_m) * prefactor * float(bsum)
    # every omitted factor is 1 + O(1/ell^2), so the log tail is under C/L
    tail = 4.0 * max(value, 1e-3) / L_max
    return ConstantEstimate(value, "product", {"L_max": L_max}, tail, field.name, r)


_KRON2_TABLE = np.array(_KRON2, dtype=np.int64)  # (a|2) by a mod 8


def _c_prime_power(k: int, p: int, e: int, r: int, b: int, m: int) -> int:
    """c(k, p^e, r, b, m): the sum of (a|p^e) over the a mod 4 p^e with a = 0, 1
    mod 4 whose shifted value r^2 - a k^2 has gcd exactly 4 with 4 p^e k^2 and
    hits 4b modulo gcd(4m, 4 p^e k^2), vectorised over a."""
    q = p**e
    k2 = k * k
    a = np.arange(4 * q, dtype=np.int64)
    a = a[a % 4 < 2]
    x = r * r - a * k2
    a = a[(np.gcd(x, 4 * q * k2) == 4) & ((x - 4 * b) % (4 * math.gcd(m, q * k2)) == 0)]
    if p == 2:
        return int((_KRON2_TABLE[a % 8] ** e).sum())
    # int8 Legendre values; sum() accumulates them in the platform integer
    return int((quadratic_character(p)[a % p] ** e).sum())


def _generic_ratio(p, e, r, k=1):
    """c(k, p^e) / c(k, 1) at an odd prime p not dividing m (elementwise on arrays).

    By CRT the p-part of c counts a mod p^e with weight (a|p)^e, leaving out
    the class a = r^2/k^2 mod p, where p would divide r^2 - a k^2.  That class
    is a nonzero square when p divides neither r nor k, and the class 0 when p
    divides r.  When p divides k, r^2 - a k^2 = r^2 mod p for every a, so no
    class is left out (miss = 0; c(k, 1) = 0 if p divides r too).
    """
    miss = (r % p != 0) & (k % p != 0)
    return p ** (e - 1) * ((1 - e % 2) * (p - 1) - miss)


def _c_by_period(k: int, p: int, r: int, b: int, m: int):
    """e -> c(k, p^e, r, b, m), enumerated for e <= e0 + 1 with e0 = max(1, v_p(m)),
    and from c(k, p^(e+2)) = p^2 c(k, p^e) above that.

    Write x = r^2 - a k^2.  The summand of c(k, p^e) is [4 | x] [no prime of
    p^e k^2 divides x/4] [x = 4b mod 4 gcd(m, p^e k^2)] w(a)^e, with w(a) the
    weight (a|p), or (a|2) when p = 2.  For e >= 1 the primes of p^e k^2 are
    fixed, and for e >= v_p(m) so is gcd(m, p^e k^2).  An odd prime l != p of
    k sees x = r^2 mod l whatever a is, and the part of gcd(m, .) prime to p
    divides k^2, so a k^2 vanishes modulo it.  For e >= e0 the summand is thus
    one function of a, periodic mod 4 p^e0 (mod 2^(e0+2) when p = 2), times
    w(a)^e; the 4 p^e residues are 4 p^e / period copies of one period, and
    the sum at e + 2 is p^2 times the sum at e.
    """
    e0 = max(1, int(_ord_ell(m, p)))
    memo: dict[int, int] = {}

    def local(e: int) -> int:
        if e not in memo:
            memo[e] = _c_prime_power(k, p, e, r, b, m) if e <= e0 + 1 else p * p * local(e - 2)
        return memo[e]

    return local


def _put_prime(f: np.ndarray, p: int, local) -> None:
    """Set f[p^e j] = f[j] * local(e) for every j prime to p and e >= 1."""
    q, e = p, 1
    while q < len(f):
        j = np.arange(1, (len(f) - 1) // q + 1)
        j = j[j % p != 0]
        f[q * j] = f[j] * local(e)
        q, e = q * p, e + 1


# for the last N_max: phi(n), odd part of n, v_2(n), and odd n = p^v rest (p = spf(n)) in rounds of omega(n)
_engines: dict[int, tuple] = {}


def _tables(n_max: int) -> tuple:
    if n_max not in _engines:
        _engines.clear()
        n = np.arange(n_max + 1, dtype=np.int64)
        p = np.maximum(spf_sieve(n_max), 1)
        v, rest = np.ones_like(n), n // p
        live = np.flatnonzero(p > 1)
        while len(live := live[rest[live] % p[live] == 0]):
            v[live] += 1
            rest[live] //= p[live]
        done, rounds = (n % 2 == 0) | (n == 1), []
        while not done.all():
            ready = np.flatnonzero(~done & done[rest])
            done[ready] = True
            rounds.append((ready, rest[ready], p[ready], v[ready]))
        _engines[n_max] = (phi_sieve(n_max), np.where(p == 2, rest, n), np.where(p == 2, v, 0), rounds)
    return _engines[n_max]


def _generic_table(r: int, n_max: int) -> np.ndarray:
    """Product of _generic_ratio(p, v_p(n), r) over odd p | n, in rounds of omega(n)."""
    _, odd, _, rounds = _tables(n_max)
    g = np.ones(n_max + 1, dtype=np.int64)
    for idx, rest, p, v in rounds:
        g[idx] = g[rest] * _generic_ratio(p, v, r)
    return g[odd]


def _row_sums(r: int, m: int, units, k_max: int, n_max: int) -> dict[tuple[int, int], float]:
    """The inner n-sums of the series: row (b, k) is sum over n <= n_max of c(k, n) / D(n).

    D(n) = n k phi(m) phi(n k^2) / phi(gcd(n k^2, m)).  Both c(k, n) / c(k, 1)
    and D(n) / D(1) are multiplicative in n.  A row with c(k, 1) = 0 is zero,
    and a k with no nonzero row (every even k for odd r) builds no D(n).  The
    exact c(k, n) is c(k, 2^v_2(n)) (c(k, 1) for odd n) times _generic_table at
    the odd part of n, reset at the odd primes of k (_generic_ratio, miss = 0)
    and of m (_c_by_period, which enumerates only there and at p = 2, for
    e <= max(1, v_p(m)) + 1).  Terms are exact int / int quotients summed by
    math.fsum.  D(n) <= N_max^2 K_max^3 phi(m) must fit in int64; that is
    checked before any table is built.
    """
    if r * r + 4 * n_max * k_max**2 >= 2**63:
        raise OverflowError("r^2 - a k^2 with a < 4 N_max must fit in int64")
    if n_max**2 * k_max**3 * phi_from_factors(factorize_slow(m)) >= 2**63:
        raise OverflowError("D(n) = n k phi(m) phi(n k^2) / phi(gcd(n k^2, m)) must fit in int64")
    phi, odd, v2, _ = _tables(n_max)
    generic = _generic_table(r, n_max)
    odd, v2, e_top = odd[1:], v2[1:], int(v2.max())
    n = np.arange(1, n_max + 1, dtype=np.int64)
    phi_of = phi_sieve(m)
    rows = {}
    for k in range(1, k_max + 1):
        c1 = {b: _c_prime_power(k, 2, 0, r, b, m) for b in units}
        rows.update(((b, k), 0.0) for b in units)
        if not any(c1.values()):
            continue
        k2 = k * k
        phi_nk2 = phi[1:] * k2
        primes_k = factorize_slow(k)
        for ell in primes_k:
            away = n % ell != 0
            phi_nk2[away] = phi_nk2[away] // ell * (ell - 1)
        denom = n * k * (phi_of[m] * phi_nk2 // phi_of[np.gcd(n * k2, m)])
        for b in filter(c1.get, units):
            coef = generic.copy()
            for p in {p for p in [*primes_k, *factorize_slow(m)] if p > 2}:
                if m % p:
                    _put_prime(coef, p, lambda e: _generic_ratio(p, e, r, k))
                else:
                    c_p = _c_by_period(k, p, r, b, m)
                    _put_prime(coef, p, lambda e: c_p(e) // c1[b])
            t = np.array([c1[b], *map(_c_by_period(k, 2, r, b, m), range(1, e_top + 1))], dtype=np.int64)
            rows[b, k] = math.fsum((coef[odd] * t[v2] / denom).tolist())
    return rows


def constant_sum(field, r: int, K_max: int = 200, N_max: int = 5000) -> ConstantEstimate:
    """Triple-sum evaluation truncated at K_max, N_max.

    Each (b, k) row is a sum of exact rationals in compensated summation, so
    the value does not depend on row order.
    """
    field = _as_field(field)
    if K_max < 16 or N_max < 16:
        raise ValueError("truncations must be at least 16")
    rows = _row_sums(r, field.m_K, sorted(field.G_mK), K_max, N_max)
    total = math.fsum(rows.values())
    value = 2 * field.n_A / math.pi * total
    scale = 2 * field.n_A / math.pi * max(len(field.G_mK), 1)
    tail = scale * (_N_TAIL_COEFF * math.log(N_max) ** 2 / math.sqrt(N_max) + _K_TAIL_COEFF / K_max**2)
    return ConstantEstimate(value, "sum", {"K_max": K_max, "N_max": N_max}, tail, field.name, r)


# Divisor-majorant shape for the n-tail plus a 1/K^2 term for the k-tail.
# The coefficients over-bound measured doubling deltas by two to three orders
# of magnitude; the product method remains the precision anchor.
_N_TAIL_COEFF = 0.08
_K_TAIL_COEFF = 1.2
