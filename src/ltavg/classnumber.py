"""Class numbers of negative discriminants, Hurwitz weights, and L(1) values.

h(d) counts primitive reduced binary quadratic forms (a, b, c) of discriminant
d = b^2 - 4ac < 0, with |b| <= a <= c and b >= 0 whenever |b| = a or a = c.
The Hurwitz number H(D) counts every reduced form of discriminant D (see
hurwitz_values), which by content is a sum over square divisors:

    H(D) = 2 * sum over k with k^2 | D, D/k^2 = 0 or 1 mod 4, of h(D/k^2) / w(D/k^2)

where w(-3) = 6, w(-4) = 4, and w(d) = 2 otherwise.  class_numbers inverts
that sum, so every h here comes from hurwitz_values.  Both are exact; H is a
Fraction with denominator dividing 6.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .primes import sieve_primes

_KRON2 = (0, 1, 0, -1, 0, -1, 0, 1)  # (a/2) indexed by a mod 8
_BLOCK_CELLS = 1 << 14  # residues and band queries per block of a in hurwitz_values

# hurwitz_H and class_number_h, which `classnum --D` and L1_formula reach,
# fill these memos; each is emptied when it reaches _MEMO_LIMIT entries
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


def class_number_h(d: int) -> int:
    """h(d): primitive reduced forms of discriminant d < 0, d = 0 or 1 mod 4,
    read from class_numbers.  Memoised."""
    if not is_valid_discriminant(d):
        raise ValueError(f"{d} is not a negative discriminant")
    got = _h_memo.get(d)
    if got is not None:
        return got
    return _remember(_h_memo, d, int(class_numbers([-d])[0][0]))


def class_numbers(n) -> tuple[np.ndarray, np.ndarray]:
    """(h(-n), 6 * H(-n)) for each n of a strictly ascending int64 array of n
    with -n a negative discriminant, both exact and from one hurwitz_values
    call.

    Moebius inversion of the square-divisor sum in the module docstring:
    2 h(d) / w(d) = sum of mu(k) H(d/k^2) over the squarefree k with k^2 | d
    and d/k^2 a discriminant.  hurwitz_values runs once, on the union of the
    n/k^2 (k = 1 among them), in about len(union) * sqrt(max n) / 3 gathers.
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
    included, for each a with 3a^2 <= max n (Cohen, A Course in
    Computational Algebraic Number Theory, 5.3).  A form is one root
    b in (-a, a] of b^2 = -n mod 4a with c = (n + b^2)/4a >= a, and c > a
    when b < 0.  For n >= 4a^2 every root qualifies, so R[(-n) mod 4a] counts
    them, R the bincount of b^2 mod 4a: one gather per a.  For 3a^2 <= n < 4a^2,
    the band of a, only the roots with b^2 >= m = 4a^2 - n do, and
    b^2 > m when b < 0: with the roots sorted by residue and then by the key
    2b^2 - [b < 0], those are the tail of the residue's run from the first
    key >= 2m.  The a go in blocks of consecutive a of about _BLOCK_CELLS
    residues and band queries: a block builds its roots and R in one ragged
    pass, sorts all its keys at once, its residue slots end to end, and
    answers all its band queries with one searchsorted.  (a, 0, a) at n = 4a^2
    and (a, a, a) at n = 3a^2 then give back 3 and 4, for their weights 1/2
    and 1/3.  Memory is O(len(n) + sqrt(max n) + _BLOCK_CELLS); time is about
    len(n) * sqrt(max n) / 3 gathers, five numpy calls per a, dozens per block.
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
    # a block's keys stay below (_BLOCK_CELLS + 4a)(2a^2 + 2) < 2^63 for 3a^2 <= N < 2^40
    if N >= 1 << 40:
        raise OverflowError("band keys overflow int64 for n >= 2^40")
    a = np.arange(1, math.isqrt(N // 3) + 1)
    lo3, lo4 = n.searchsorted(3 * a * a), n.searchsorted(4 * a * a)
    out[lo4[n.take(lo4, mode="clip") == 4 * a * a]] -= 3
    out[lo3[n.take(lo3, mode="clip") == 3 * a * a]] -= 4
    # a block is the run of a whose residue and band cells start in one window of _BLOCK_CELLS
    cells = 4 * a + lo4 - lo3
    starts = np.flatnonzero(np.diff((np.cumsum(cells) - cells) // _BLOCK_CELLS, prepend=-1)).tolist()
    for i, j in zip(starts, starts[1:] + [len(a)]):
        ab, two = a[i:j], 2 * a[i:j]
        slot, K = 4 * (np.cumsum(ab) - ab), 2 * int(ab[-1]) ** 2 + 2
        assert 4 * int(ab.sum()) * K < 1 << 63
        b = np.arange(int(two.sum())) - np.repeat(np.cumsum(two) - ab - 1, two)
        ar = np.repeat(ab, two)
        sq = b * b
        res = sq % (4 * ar) + np.repeat(slot, two)
        R = 6 * np.bincount(res, minlength=4 * int(ab.sum()))
        for s, q, lo in zip(slot.tolist(), (4 * ab).tolist(), lo4[i:j].tolist()):
            v = n[lo:]  # -(v % q) indexes (-v) % q from the slot's end; // by one q beats %
            out[lo:] += R[s : s + q][v // q * q - v]
        m, base, top = lo4[i:j] - lo3[i:j], int(lo3[i]), int(lo4[j - 1])
        if base < top:
            keys = np.sort(res * K + 2 * (sq - 4 * ar * ar) - (b < 0))  # less 8a^2: the bound 2m is -2n
            rows = np.arange(int(m.sum())) - np.repeat(np.cumsum(m) - m - lo3[i:j] + base, m)
            nq = n[base:top][rows]
            t = -nq % np.repeat(4 * ab, m) + np.repeat(slot, m)
            hit = np.flatnonzero(R[t])
            t = t[hit]
            first = keys.searchsorted(t * K - 2 * nq[hit])
            # one n lies in the bands of several a, so rows add by bincount, exact in float64
            out[base:top] += np.bincount(rows[hit], np.cumsum(R)[t] - 6 * first, top - base).astype(np.int64)
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
