"""Class numbers of negative discriminants, Hurwitz weights, and L(1) values.

h(d) counts primitive reduced binary quadratic forms (a, b, c) of discriminant
d = b^2 - 4ac < 0, with |b| <= a <= c and b >= 0 whenever |b| = a or a = c.
The Hurwitz number weights every square divisor:

    H(D) = 2 * sum over k with k^2 | D, D/k^2 = 0 or 1 mod 4, of h(D/k^2) / w(D/k^2)

where w(-3) = 6, w(-4) = 4, and w(d) = 2 otherwise. Both are exact; H is a
Fraction with denominator dividing 6.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .primes import factorize_slow

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
    """Hurwitz number H(D) for D < 0, D = 0 or 1 mod 4. Exact."""
    if not is_valid_discriminant(D):
        raise ValueError(f"{D} is not a negative discriminant")
    got = _hurwitz_memo.get(D)
    if got is not None:
        return got
    total = Fraction(0)
    for k in _square_divisor_roots(-D):
        d = D // (k * k)
        if d % 4 in (0, 1):
            total += Fraction(class_number_h(d), unit_count_w(d))
    return _remember(_hurwitz_memo, D, 2 * total)


def hurwitz_table(X: int) -> np.ndarray:
    """T[n] = 6 * H(-n) for 0 <= n <= X, exact, and 0 where n = 1, 2 mod 4.

    One sweep over all reduced forms (a, b, c) with 4ac - b^2 <= X, imprimitive
    ones included (Cohen, A Course in Computational Algebraic Number Theory,
    5.3).  For fixed (a, b) the discriminants of (a, b, c), c >= c0, step by
    4a, so each pair adds 6 to one slice; (a, 0, a) then gives back 3 and
    (a, a, a) gives back 4, for their weights 1/2 and 1/3.
    """
    T = np.zeros(X + 1, dtype=np.int64)
    a = 1
    while 3 * a * a <= X:
        for b in range(1 - a, a + 1):
            c0 = a if b >= 0 else a + 1  # b < 0 needs |b| < a < c
            T[4 * a * c0 - b * b :: 4 * a] += 6
        if 4 * a * a <= X:
            T[4 * a * a] -= 3
        T[3 * a * a] -= 4
        a += 1
    return T


def _remember(memo: dict, key: int, value):
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = value
    return value


def _square_divisor_roots(n: int) -> list[int]:
    """All k >= 1 with k^2 | n."""
    ks = [1]
    for p, e in factorize_slow(n).items():
        ks = [k * p**j for k in ks for j in range(e // 2 + 1)]
    return sorted(ks)


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
