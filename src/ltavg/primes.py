"""Prime sieves and small multiplicative-function tables.

Everything here is desk-scale: bounds up to a few 10^6, dense numpy arrays.
"""
from __future__ import annotations

from math import isqrt

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def sieve_primes(bound: int) -> np.ndarray:
    """Primes <= bound as an int64 array (empty for bound < 2)."""
    if bound < 2:
        return np.empty(0, dtype=np.int64)
    is_comp = np.zeros(bound + 1, dtype=bool)
    is_comp[:2] = True
    for p in range(2, int(bound**0.5) + 1):
        if not is_comp[p]:
            is_comp[p * p :: p] = True
    return np.flatnonzero(~is_comp).astype(np.int64)


def spf_sieve(bound: int) -> np.ndarray:
    """Smallest-prime-factor table: spf[n] is the least prime dividing n (spf[1] = 1)."""
    spf = np.arange(bound + 1, dtype=np.int64)
    for p in range(2, int(bound**0.5) + 1):
        if spf[p] == p:  # p prime
            block = spf[p * p :: p]
            block[block == np.arange(p * p, bound + 1, p)] = p
    return spf


def phi_sieve(bound: int) -> np.ndarray:
    """Euler totient for 0..bound (phi[0] = 0)."""
    phi = np.arange(bound + 1, dtype=np.int64)
    for p in sieve_primes(bound).tolist():
        phi[p::p] -= phi[p::p] // p
    return phi


def factorize_slow(n: int) -> dict[int, int]:
    """Trial-division factorization, for the occasional value above any sieve;
    past the divisor 2^10, a prime cofactor ends it and a square r^2 recurses on r."""
    out: dict[int, int] = {}
    d, checked = 2, 1
    while d * d <= n:
        if d > 1 << 10 and n != checked:
            if is_prime(n):
                break
            checked, r = n, isqrt(n)
            if r * r == n:  # out holds the primes below d, r none of them
                return out | {q: 2 * e for q, e in factorize_slow(r).items()}
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def phi_from_factors(fac: dict[int, int]) -> int:
    v = 1
    for p, e in fac.items():
        v *= (p - 1) * p ** (e - 1)
    return v


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit inputs: the bases 2, 3, 5 decide n
    below 25,326,001 and 2, 3, 5, 7 below 3,215,031,751 (Jaeschke 1993)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[: 3 if n < 25_326_001 else 4 if n < 3_215_031_751 else 12]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
