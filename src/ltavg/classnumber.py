"""Class numbers of negative discriminants, Hurwitz weights, and L(1) values.

h(d) counts primitive reduced binary quadratic forms (a, b, c) of discriminant
d = b^2 - 4ac < 0, with |b| <= a <= c and b >= 0 whenever |b| = a or a = c.
The Hurwitz number H(D) counts every reduced form of discriminant D (see
hurwitz_values), which by content is a sum over square divisors:

    H(D) = 2 * sum over k with k^2 | D, D/k^2 = 0 or 1 mod 4, of h(D/k^2) / w(D/k^2)

where w(-3) = 6, w(-4) = 4, and w(d) = 2 otherwise. Both are exact; H is a
Fraction with denominator dividing 6.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .primes import factorize_slow, sieve_primes

_KRON2 = (0, 1, 0, -1, 0, -1, 0, 1)  # (a/2) indexed by a mod 8

# each memo is emptied when it reaches _MEMO_LIMIT entries, so a long
# `classnum --table` run holds at most that many
_MEMO_LIMIT = 1 << 16
_h_memo: dict[int, int] = {}
_hurwitz_memo: dict[int, Fraction] = {}


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 0 (not both zero)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        if a == 0:
            raise ValueError("kronecker(0, 0) is undefined")
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    result = _KRON2[a % 8] if e % 2 else 1
    # Jacobi part (a/n) for odd n >= 1, by quadratic reciprocity
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_valid_discriminant(d: int) -> bool:
    return d < 0 and d % 4 in (0, 1)


def is_fundamental(d: int) -> bool:
    """True for fundamental negative discriminants."""
    if not is_valid_discriminant(d):
        return False
    if d % 4 == 1:
        return _squarefree(-d)
    m = d // 4
    return m % 4 in (2, 3) and _squarefree(-m)


def _squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize_slow(n).values())


def class_number_h(d: int) -> int:
    """h(d): primitive reduced forms of discriminant d < 0, d = 0 or 1 mod 4."""
    if not is_valid_discriminant(d):
        raise ValueError(f"{d} is not a negative discriminant")
    got = _h_memo.get(d)
    if got is not None:
        return got
    # enumerate a = 1..sqrt(|d|/3), -a < b <= a as one ragged grid
    amax = math.isqrt(-d // 3)
    a = np.arange(1, amax + 1, dtype=np.int64)
    lens = 2 * a
    tot = int(lens.sum())
    A = np.repeat(a, lens)
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    B = np.arange(tot, dtype=np.int64) - np.repeat(starts, lens) - A + 1
    num = B * B - d
    mask = (B - d) % 2 == 0
    mask &= num % (4 * A) == 0
    C = num // (4 * A)
    mask &= C >= A
    mask &= ~((A == C) & (B < 0))
    Am, Bm, Cm = A[mask], B[mask], C[mask]
    g = np.gcd(np.gcd(Am, np.abs(Bm)), Cm)
    return _remember(_h_memo, d, int(np.count_nonzero(g == 1)))


def class_numbers(n) -> np.ndarray:
    """h(-n) for each n of a strictly ascending int64 array of n with -n a
    negative discriminant, exact.  See _class_numbers_and_hurwitz."""
    return _class_numbers_and_hurwitz(n)[0]


def _class_numbers_and_hurwitz(n) -> tuple[np.ndarray, np.ndarray]:
    """(h(-n), 6 * H(-n)) for each n of a strictly ascending int64 array of n
    with -n a negative discriminant, both from one hurwitz_values call.

    Moebius inversion of the square-divisor sum in the module docstring:
    2 h(d) / w(d) = sum of mu(k) H(d/k^2) over the squarefree k with k^2 | d
    and d/k^2 a discriminant.  hurwitz_values runs once, on the union of the
    n/k^2 (k = 1 among them); time is about len(n) * sqrt(max n) gathers.
    """
    n = np.asarray(n, dtype=np.int64)
    if n.ndim != 1 or len(n) and (n[0] < 3 or np.count_nonzero(n[1:] <= n[:-1]) or np.count_nonzero(-n % 4 > 1)):
        raise ValueError("n must be strictly ascending, each -n a negative discriminant")
    K = math.isqrt(int(n[-1])) if len(n) else 1
    mu = np.ones(K + 1, dtype=np.int64)
    for p in sieve_primes(K).tolist():
        mu[::p] *= -1
        mu[:: p * p] = 0
    mu[:2] = 0  # k = 1 is the union's n itself
    parts = []  # (rows, n/k^2 at those rows, mu(k)) for each squarefree k >= 2
    for k in np.flatnonzero(mu).tolist():
        hit = np.flatnonzero(n % (k * k) == 0)
        hit = hit[-(n[hit] // (k * k)) % 4 < 2]
        parts.append((hit, n[hit] // (k * k), int(mu[k])))
    union = np.unique(np.concatenate([n, *(m for _, m, _ in parts)]))
    H6 = hurwitz_values(union)
    big = H6[union.searchsorted(n)]
    total = big.copy()
    for rows, m, sign in parts:
        total[rows] += sign * H6[union.searchsorted(m)]
    return total * np.where(n == 3, 6, np.where(n == 4, 4, 2)) // 12, big


def unit_count_w(d: int) -> int:
    """Number of units of the order of discriminant d < 0 (6, 4, or 2)."""
    if not is_valid_discriminant(d):
        raise ValueError(f"{d} is not a negative discriminant")
    if d == -3:
        return 6
    if d == -4:
        return 4
    return 2


def hurwitz_H(D: int) -> Fraction:
    """Hurwitz number H(D) for D < 0, D = 0 or 1 mod 4, exact: the
    hurwitz_values entry at n = -D, divided by 6.  Memoised."""
    if not is_valid_discriminant(D):
        raise ValueError(f"{D} is not a negative discriminant")
    got = _hurwitz_memo.get(D)
    if got is not None:
        return got
    return _remember(_hurwitz_memo, D, Fraction(int(hurwitz_values([-D])[0]), 6))


def hurwitz_values(n) -> np.ndarray:
    """6 * H(-n) for each n of a strictly ascending int64 array of n >= 0,
    exact, and 0 where n = 0 or n = 1, 2 mod 4.

    Counts the reduced forms (a, b, c) of discriminant -n, imprimitive ones
    included, one a at a time for 3a^2 <= max n (Cohen, A Course in
    Computational Algebraic Number Theory, 5.3).  A form is one root
    b in (-a, a] of b^2 = -n mod 4a with c = (n + b^2)/4a >= a, and c > a
    when b < 0.  For n >= 4a^2 every root qualifies, so R[(-n) mod 4a] counts
    them, R the bincount of b^2 mod 4a.  For 3a^2 <= n < 4a^2, a contiguous
    slice of the queries, only the roots with b^2 >= m = 4a^2 - n do, and
    b^2 > m when b < 0: with the roots sorted by residue and then by the key
    2b^2 - [b < 0], those are the tail of the residue's block from the first
    key >= 2m.  (a, 0, a) at n = 4a^2 and (a, a, a) at n = 3a^2 then give back
    3 and 4, for their weights 1/2 and 1/3.  Memory is O(len(n) + sqrt(max n));
    time is about len(n) * sqrt(max n) / 3 gathers.
    """
    n = np.asarray(n, dtype=np.int64)
    if n.ndim != 1:
        raise ValueError("n must be a one-dimensional array")
    out = np.zeros(len(n), dtype=np.int64)
    if not len(n):
        return out
    if n[0] < 0 or np.count_nonzero(n[1:] <= n[:-1]):
        raise ValueError("n must be nonnegative and strictly ascending")
    N = int(n[-1])
    # the band keys reach 4a * (2a^2 + 2) < 2^63 for 3a^2 <= N < 2^40
    if N >= 1 << 40:
        raise OverflowError("band keys overflow int64 for n >= 2^40")
    neg = -n
    a = 1
    while 3 * a * a <= N:
        q = 4 * a
        b = np.arange(1 - a, a + 1, dtype=np.int64)
        sq = b * b
        res = sq % q
        R = np.bincount(res, minlength=q)
        lo3 = int(n.searchsorted(3 * a * a))
        lo4 = int(n.searchsorted(4 * a * a))
        out[lo4:] += (6 * R)[neg[lo4:] % q]
        if lo4 < len(n) and n[lo4] == 4 * a * a:
            out[lo4] -= 3
        if lo3 < lo4:
            # only the band queries whose residue has roots need a search
            t = neg[lo3:lo4] % q
            hit = np.nonzero(R[t])[0]
            t = t[hit]
            K = 2 * a * a + 2
            keys = res * K + 2 * sq
            keys[: a - 1] -= 1  # b < 0
            # the keys are distinct; the stable sort maps fewer numpy code
            # pages than the default quicksort, which shows in peak RSS
            keys.sort(kind="stable")
            first = keys.searchsorted(t * K + 2 * (4 * a * a + neg[lo3 + hit]))
            out[lo3 + hit] += 6 * (np.cumsum(R)[t] - first)
            if n[lo3] == 3 * a * a:
                out[lo3] -= 4
        a += 1
    return out


def _remember(memo: dict, key: int, value):
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = value
    return value


def L1_formula(d: int) -> float:
    """L(1, (d/.)) by the class number formula 2*pi*h(d) / (w(d)*sqrt(|d|)).

    Valid for every negative discriminant, fundamental or not, with h counting
    primitive reduced forms of discriminant exactly d.
    """
    return 2.0 * math.pi * class_number_h(d) / (unit_count_w(d) * math.sqrt(-d))


def L1_series(d: int, eps: float) -> float:
    """L(1, (d/.)) by direct summation of sum_n (d/n)/n, within eps of the limit.

    (d/.) is periodic with period q = |d| and, since d < 0, odd, so its sums
    over a full period vanish and the partial sums S(t) are periodic. Abel
    summation bounds the tail cut at N by max_t |S(t)| / (N+1); the max is
    computed exactly over one period (it never exceeds the Polya-Vinogradov
    bound sqrt(q) log q). We take N = max(ceil(maxS/eps), 2q).
    """
    if not is_valid_discriminant(d):
        raise ValueError(f"{d} is not a negative discriminant")
    if eps <= 0:
        raise ValueError("eps must be positive")
    q = -d
    chi = np.array([kronecker(d, n) for n in range(q)], dtype=np.int64)
    psums = np.cumsum(chi)
    if psums[-1] != 0:
        raise ArithmeticError(f"character (d/.) for d={d} is not balanced over its period")
    max_s = int(np.max(np.abs(psums)))
    N = max(math.ceil(max_s / eps), 2 * q, 16)
    partials = []
    chunk = 1 << 20
    for lo in range(1, N + 1, chunk):
        hi = min(lo + chunk - 1, N)
        n = np.arange(lo, hi + 1, dtype=np.int64)
        partials.append(float(np.sum(chi[n % q] / n)))
    return math.fsum(partials)
