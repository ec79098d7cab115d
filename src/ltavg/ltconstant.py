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
from itertools import repeat

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
_ENUM_CELLS = 1 << 17  # residues a (or units b) times k in one block of _class_values


def _class_values(r: int, m: int, p: int, e: int, ks: np.ndarray, units: np.ndarray) -> np.ndarray:
    """c(k, p^e, r, b, m) for k in ks (rows) and b in units (columns): the sum of (a|p)^e
    ((a|2)^e at p = 2) over the a mod 4 p^e, a = 0, 1 mod 4, where x = r^2 - a k^2 has gcd 4 with
    4 p^e k^2 (x/4 is prime to 2 if 2 | p^e k^2, to p if e > 0, and to each odd l | k, where
    x = r^2 mod l) and x = 4b mod 4 gcd(m, p^e k^2).  One histogram of x/4 mod that gcd holds
    every b; its float64 bins add at most 2 p^e terms of -1, 0 or 1, so they are exact."""
    q = p**e
    a = np.flatnonzero(np.arange(4 * q) % 4 < 2)  # a = 0, 1 mod 4
    k2 = ks[:, None] ** 2
    x = r * r - a * k2
    y, g = x // 4, np.gcd(m, q * k2)
    odd_ok = np.gcd(r, ks // (ks & -ks))[:, None] == 1  # no odd l | k divides r
    valid = (x % 4 == 0) & ((y % 2 == 1) | (q * k2 % 2 == 1)) & ((y % p != 0) | (e == 0)) & odd_ok
    w = (_KRON2_TABLE[a % 8] if p == 2 else quadratic_character(p)[a % p]) ** e
    row, span = np.arange(len(ks))[:, None], int(g.max())
    hist = np.bincount((row * span + y % g)[valid], np.broadcast_to(w, x.shape)[valid], len(ks) * span)
    return hist.astype(np.int64).reshape(len(ks), span)[row, units % g]


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


def _stepped(head: list, p: int, e_hi: int) -> list:
    """c(k, p^e) for e <= e_hi: the enumerated head, then c(k, p^(e+2)) = p^2 c(k, p^e)."""
    out = list(head)
    while len(out) <= e_hi:
        out.append(p * p * out[-2])
    return out


def _put_prime(f: np.ndarray, p: int, local, index: dict) -> None:
    """Set f[p^e j] = f[j] * local(e) for every j prime to p and e >= 1; index
    holds the (p^e j, j) of each p, built on its first call for len(f)."""
    if p not in index:
        index[p], q = [], p
        while q < len(f):
            j = np.arange(1, (len(f) - 1) // q + 1)
            j = j[j % p != 0]
            index[p].append((q * j, j))
            q *= p
    for e, (at, j) in enumerate(index[p], 1):
        f[at] = f[j] * local(e)


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


def _row_sums(r: int, m: int, units, k_max: int, n_max: int, counters: dict | None = None) -> dict[tuple[int, int], float]:
    """Row (b, k) of the series: the math.fsum over n <= n_max of the exact c(k, n) / D(n).

    c(k, n) is c(k, 2^v_2(n)) times _generic_table at the odd part of n, reset at the odd primes of k
    (_generic_ratio, miss = 0) and of m.  At 2 and the odd p | m, c(k, p^e) is enumerated for e <=
    max(1, v_p(m)) + 1 (_class_values) and _stepped above.  Those values are all a row reads of b, so
    they key it; each distinct key of a k is summed once, and a k whose keys all have c(k, 1) = 0
    builds no D(n).  D(n) <= N_max^2 K_max^3 phi(m) must fit in int64, checked before any table is
    built.  counters receives rows, distinct_rows, enumerations."""
    m_primes = factorize_slow(m)
    if r * r + 4 * n_max * k_max**2 >= 2**63:
        raise OverflowError("r^2 - a k^2 with a < 4 N_max must fit in int64")
    if n_max**2 * k_max**3 * phi_from_factors(m_primes) >= 2**63:
        raise OverflowError("D(n) = n k phi(m) phi(n k^2) / phi(gcd(n k^2, m)) must fit in int64")
    phi, odd, v2, _ = _tables(n_max)
    generic = _generic_table(r, n_max)
    odd, v2, n_phi = odd[1:], v2[1:], np.arange(1, n_max + 1, dtype=np.int64) * phi[1:]
    # p = 2 and the odd p | m up to n_max: the top e with p^e <= n_max, and the enumerated (p, e)
    e_max = {p: max(e for e in range(64) if p**e <= n_max) for p in sorted({2, *m_primes}) if p == 2 or p <= n_max}
    enumerated = [(p, e) for p, top in e_max.items() for e in range(min(max(1, m_primes.get(p, 0)) + 1, top) + 1)]
    block = max(1, _ENUM_CELLS // max(2 * max(p**e for p, e in enumerated), len(units)))
    rows, summed, index = {}, 0, {}
    for lo in range(1, k_max + 1, block):
        ks = np.arange(lo, min(lo + block, k_max + 1), dtype=np.int64)
        cols = [_class_values(r, m, p, e, ks, np.array(units, dtype=np.int64)) for p, e in enumerated]
        for k, keys in zip(ks.tolist(), np.stack(cols, axis=-1).tolist()):
            sums = dict.fromkeys(keys := list(map(tuple, keys)), 0.0)
            live = [key for key in sums if key[0]]  # key[0] = c(k, 1)
            if live:
                k_primes = factorize_slow(k)
                denom = _denominators(n_phi, k, k_primes, m_primes)
                for key in live:
                    local = {p: _stepped([c for (q, _), c in zip(enumerated, key) if q == p], p, top) for p, top in e_max.items()}
                    coef = generic.copy()
                    for p in {*k_primes, *local} - {2}:  # an odd p | m above n_max puts nothing
                        _put_prime(coef, p, lambda e: local[p][e] // key[0] if p in local else _generic_ratio(p, e, r, k), index)
                    sums[key] = math.fsum((coef[odd] * np.array(local[2])[v2] / denom).tolist())
            summed += len(live)
            rows.update(zip(zip(units, repeat(k)), map(sums.__getitem__, keys)))
    if counters is not None:
        counters.update(rows=len(rows), distinct_rows=summed, enumerations=len(enumerated) * len(range(1, k_max + 1, block)))
    return rows


def _denominators(n_phi: np.ndarray, k: int, k_primes: dict, m_primes: dict) -> np.ndarray:
    """D(n) = n k phi(m) phi(n k^2) / phi(gcd(n k^2, m)) for n <= N_max from n_phi = n phi(n): it is
    n phi(n) k^2 phi(k) times l / (l - 1) at each l | k, n and, at each l | m, l^max(0, v - 2w - j) and
    (l - 1) / l if l divides neither n nor k (v, w, j: the orders of l in m, k, n).  Each division is exact."""
    d = n_phi * (k * k * phi_from_factors(k_primes))
    for ell, v in m_primes.items():
        top, in_k = max(0, v - 2 * k_primes.get(ell, 0)), ell in k_primes
        d *= ell**top if in_k else ell ** (top - 1) * (ell - 1)
        for j in range(1, top + 1):
            d[ell**j - 1 :: ell**j] //= ell - 1 if j == 1 and not in_k else ell
    for ell in k_primes:
        d[ell - 1 :: ell] //= ell - 1
        d[ell - 1 :: ell] *= ell
    return d


def constant_sum(field, r: int, K_max: int = 200, N_max: int = 5000, counters: dict | None = None) -> ConstantEstimate:
    """Triple-sum evaluation truncated at K_max, N_max.

    Each (b, k) row is a sum of exact rationals in compensated summation, so
    the value does not depend on row order.
    """
    field = _as_field(field)
    if K_max < 16 or N_max < 16:
        raise ValueError("truncations must be at least 16")
    rows = _row_sums(r, field.m_K, sorted(field.G_mK), K_max, N_max, counters)
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
