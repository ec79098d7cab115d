"""Independent reference implementations used to check package results.

Everything here recomputes a quantity from first principles by a different
route than the package code, so agreement between the two is meaningful.
Among them are references that the package no longer ships, since only the
tests call them: class_number_grid (h(d) from one ragged grid of reduced
forms, where the package inverts its Hurwitz values), L1_series (L(1, chi_d)
by direct summation), is_fundamental, c_coefficient (the enumeration that
ltconstant's series coefficients are checked against), and
trace_counts_gather (trace counts by gathering every character value, where
the package reads them off the trace kernel's log-coordinate rows) and
trace_table_gather (every trace over F_p by the same gather, where the
package multiplies shifted log-coordinate rows in float32),
factor_patterns_ddf (mod-p factor degrees by one distinct-degree
factorisation per prime, where the package composes batched Frobenius
images), c_prime_power and c_by_period (c(k, p^e) enumerated for one k and
one b at a time, and stepped by p^2 above e0 + 1 one e at a time, where the
package enumerates a block of k for every class of b at once),
pi_half_mpmath (li differences from mpmath, where the package sums a
fixed-point series) and generic_table_by_primes (the series' generic
coefficient table one prime at a time, where the package fills it in rounds
from the least-prime split of n).
"""

import functools
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

from ltavg import gfpoly
from ltavg.classnumber import is_valid_discriminant, kronecker, unit_count_w
from ltavg.curves import quadratic_character
from ltavg.ltconstant import _KRON2_TABLE, _generic_ratio, _ord_ell, _put_prime
from ltavg.primes import factorize_slow, is_prime, sieve_primes


def hurwitz_all_forms(D):
    """Weighted count of all reduced positive binary quadratic forms of
    discriminant D, imprimitive forms included.

    A form (a, b, c) with b^2 - 4ac = D is reduced when |b| <= a <= c and
    b >= 0 whenever |b| == a or a == c.  Multiples of x^2 + xy + y^2 carry
    weight 1/3, multiples of x^2 + y^2 weight 1/2, everything else weight 1.
    """
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a negative discriminant")
    total = Fraction(0)
    a = 1
    # reduced implies -D = 4ac - b^2 >= 3a^2
    while 3 * a * a <= -D:
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (b == -a or a == c):
                continue
            if a == b == c:
                total += Fraction(1, 3)
            elif b == 0 and a == c:
                total += Fraction(1, 2)
            else:
                total += 1
        a += 1
    return total


def hurwitz_sweep(X):
    """T[n] = 6 * H(-n) for 0 <= n <= X, and 0 where n = 1, 2 mod 4.

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


def _square_divisor_roots(n):
    """All k >= 1 with k^2 | n."""
    ks = [1]
    for p, e in factorize_slow(n).items():
        ks = [k * p**j for k in ks for j in range(e // 2 + 1)]
    return sorted(ks)


def class_number_grid(d):
    """h(d): primitive reduced forms of discriminant d < 0, d = 0 or 1 mod 4,
    counted on one ragged grid of a = 1..sqrt(|d|/3), -a < b <= a."""
    if not is_valid_discriminant(d):
        raise ValueError(f"{d} is not a negative discriminant")
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
    return int(np.count_nonzero(g == 1))


def hurwitz_from_class_numbers(D):
    """H(D) as 2 * sum of h(d) / w(d) over d = D/k^2, k^2 | D, d = 0 or 1
    mod 4: primitive forms counted by class_number_grid, one order at a time."""
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a negative discriminant")
    total = Fraction(0)
    for k in _square_divisor_roots(-D):
        d = D // (k * k)
        if d % 4 in (0, 1):
            total += Fraction(class_number_grid(d), unit_count_w(d))
    return 2 * total


def class_number_forms(D):
    """Number of reduced primitive forms of discriminant D, i.e. h(D)."""
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"{D} is not a negative discriminant")
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (b == -a or a == c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                count += 1
        a += 1
    return count


def is_fundamental(d):
    """True for fundamental negative discriminants."""
    if not is_valid_discriminant(d):
        return False
    if d % 4 == 1:
        return _squarefree(-d)
    m = d // 4
    return m % 4 in (2, 3) and _squarefree(-m)


def _squarefree(n):
    return all(e == 1 for e in factorize_slow(n).values())


def L1_series(d, eps):
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


def c_coefficient(k, n, r, b, m):
    """Character sum over admissible residues a mod 4n, by direct enumeration.

    Counts a with a = 0, 1 mod 4 whose shifted value r^2 - a k^2 has gcd
    exactly 4 with 4 n k^2 and hits the residue 4b modulo gcd(4m, 4nk^2),
    each weighted by the Kronecker symbol (a|n).
    """
    if k < 1 or n < 1 or m < 1:
        raise ValueError("k, n, m must be positive")
    if math.gcd(b, m) != 1:
        raise ValueError("b must be a unit modulo m")
    k2 = k * k
    mod_big = 4 * math.gcd(m, n * k2)
    total = 0
    for a in range(4 * n):
        if a % 4 > 1:
            continue
        x = r * r - a * k2
        if math.gcd(x, 4 * n * k2) != 4:
            continue
        if (x - 4 * b) % mod_big != 0:
            continue
        total += kronecker(a, n)
    return total


def c_prime_power(k, p, e, r, b, m):
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


def c_by_period(k, p, r, b, m):
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
    memo = {}

    def local(e):
        if e not in memo:
            memo[e] = c_prime_power(k, p, e, r, b, m) if e <= e0 + 1 else p * p * local(e - 2)
        return memo[e]

    return local


def generic_table_by_primes(r, n_max):
    """The product of _generic_ratio(p, v_p(n), r) over the odd primes p of n,
    for 0 <= n <= n_max, put in by one _put_prime call per odd prime."""
    f = np.ones(n_max + 1, dtype=np.int64)
    for p in sieve_primes(n_max)[1:].tolist():
        _put_prime(f, p, lambda e: _generic_ratio(p, e, r))
    return f


def pi_half_mpmath(x):
    """(li(sqrt x) - li(sqrt 2)) / 2 from mpmath at 30 digits, rounded once."""
    with mpmath.workdps(30):
        return float((mpmath.li(mpmath.sqrt(x)) - mpmath.li(mpmath.sqrt(2))) / 2)


def factor_patterns_ddf(poly, disc, probes=100):
    """(p, sorted degrees of the irreducible factors of poly mod p) for the
    first `probes` primes p < 4000 not dividing disc, one scalar
    distinct-degree factorisation each."""
    out = []
    for p in range(2, 4000):
        if not is_prime(p) or disc % p == 0:
            continue
        ddf = gfpoly.distinct_degree_factor(gfpoly.normalize(poly, p), p)
        out.append((p, tuple(sorted(d for d, g in ddf for _ in range(gfpoly.degree(g) // d)))))
        if len(out) == probes:
            break
    return out


def pi_half_quad(x):
    """Numerical integral of dt / (2 sqrt(t) log t) over [2, x]."""
    with mpmath.workdps(30):
        f = lambda t: 1 / (2 * mpmath.sqrt(t) * mpmath.log(t))
        points = [2, 100, x] if x > 100 else [2, x]
        return float(mpmath.quad(f, points))


def curve_trace_enumerated(a, b, p):
    """Trace of y^2 = x^3 + ax + b over F_p by counting all (x, y) pairs."""
    count = 1  # point at infinity
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in range(p):
            if (y * y - rhs) % p == 0:
                count += 1
    return p + 1 - count


def trace_counts_gather(p):
    """curves.trace_counts by the blocked O(p^2) gather: each of the 3p curves
    of the j-invariant route is traced as -sum_x chi(x^3 + a*x + b), read off
    the doubled character table one block of rows at a time."""
    if p <= 3 or not is_prime(p):
        raise ValueError("characteristic must be a prime greater than 3")
    if p >= 2**31:
        raise OverflowError("a*x overflows int64 for p >= 2^31")
    R = math.isqrt(4 * p - 1)
    size = 2 * R + 1
    nz = np.arange(1, p, dtype=np.int64)
    zero = np.zeros_like(nz)
    # the models (0, b) and (a, 0), then one curve (a, a) per j outside {0, 1728}
    generic = nz[(4 * nz + 27) % p != 0]
    a = np.concatenate([zero, nz, generic])
    b = np.concatenate([nz, zero, generic])
    chi = quadratic_character(p)
    x = np.arange(p, dtype=np.int64)
    cubic = x * x % p * x % p
    traces = np.empty(len(a), dtype=np.int64)
    rows = max(1, (1 << 16) // p)
    for lo in range(0, len(a), rows):
        v = (cubic + a[lo : lo + rows, None] * x + b[lo : lo + rows, None]) % p
        traces[lo : lo + rows] = -chi[v].sum(axis=1, dtype=np.int64)
    j0, j1728, t = traces[: p - 1], traces[p - 1 : 2 * p - 2], traces[2 * p - 2 :]
    counts = np.bincount(j0 + R, minlength=size) + np.bincount(j1728 + R, minlength=size)
    counts += (p - 1) // 2 * (np.bincount(t + R, minlength=size) + np.bincount(R - t, minlength=size))
    return counts


def trace_table_gather(p):
    """(p, p) table of -sum_x chi(x^3 + a*x + b) indexed [a, b], by an
    O(p^3) gather, one (p, p) block per a, with chi from Euler's criterion
    (garbage at singular (a, b))."""
    chi = np.array([0] + [1 if pow(v, (p - 1) // 2, p) == 1 else -1 for v in range(1, p)], dtype=np.int8)
    chi = np.concatenate([chi, chi])
    x = np.arange(p)
    cubic = (x**3 + np.arange(p)[:, None] * x) % p
    b = np.arange(p)[:, None]
    return np.stack([-chi[row + b].sum(axis=1, dtype=np.int64) for row in cubic])


@functools.lru_cache(maxsize=4)
def _euler_table(p, modulus):
    """Each element x of F_p[t]/(modulus) with x^3, and the quadratic
    character of every nonzero element by Euler's criterion."""
    f = gfpoly.degree(modulus)
    half = (p**f - 1) // 2
    elements = [gfpoly.trim(c) for c in itertools.product(range(p), repeat=f)]
    cubes = [gfpoly.mulmod(gfpoly.mulmod(x, x, modulus, p), x, modulus, p) for x in elements]
    chi = {v: 1 if gfpoly.powmod(v, half, modulus, p) == (1,) else -1 for v in elements if v}
    return list(zip(elements, cubes)), chi


def extension_trace_euler(a, b, p, modulus):
    """Trace of y^2 = x^3 + a*x + b over F_p[t]/(modulus), or None when the
    model is singular.

    a, b and the monic irreducible modulus are coefficient sequences, lowest
    degree first.  Each x in the field adds -chi(x^3 + a*x + b), with chi(v)
    = v^((q-1)/2) by Euler's criterion; only polynomial arithmetic mod p is
    used, none of SmallField's power and log tables.
    """
    modulus = gfpoly.normalize(modulus, p)
    a = gfpoly.mod(gfpoly.normalize(a, p), modulus, p)
    b = gfpoly.mod(gfpoly.normalize(b, p), modulus, p)
    a3 = gfpoly.mulmod(gfpoly.mulmod(a, a, modulus, p), a, modulus, p)
    b2 = gfpoly.mulmod(b, b, modulus, p)
    if not gfpoly.add(gfpoly.mul((4,), a3, p), gfpoly.mul((27 % p,), b2, p), p):
        return None
    pairs, chi = _euler_table(p, modulus)
    trace = 0
    for x, x3 in pairs:
        rhs = gfpoly.add(gfpoly.add(x3, gfpoly.mulmod(a, x, modulus, p), p), b, p)
        trace -= chi.get(rhs, 0)
    return trace


def extension_trace_table(p, modulus):
    """(elements, traces) with traces[i][j] = extension_trace_euler(
    elements[i], elements[j], p, modulus) for every pair of field elements.

    The same sums as extension_trace_euler, with x^3 + a*x computed once per
    a and each addition v + b read from a table of polynomial sums.
    """
    modulus = gfpoly.normalize(modulus, p)
    pairs, chi = _euler_table(p, modulus)
    elements = [x for x, _ in pairs]
    pos = {x: i for i, x in enumerate(elements)}
    chi_of = [chi.get(x, 0) for x in elements]
    plus = [[pos[gfpoly.add(u, v, p)] for v in elements] for u in elements]
    squares = [gfpoly.mulmod(b, b, modulus, p) for b in elements]
    traces = []
    for a in elements:
        a3 = gfpoly.mulmod(gfpoly.mulmod(a, a, modulus, p), a, modulus, p)
        rhs = [plus[pos[x3]][pos[gfpoly.mulmod(a, x, modulus, p)]] for x, x3 in pairs]
        row = []
        for jb, b2 in enumerate(squares):
            if not gfpoly.add(gfpoly.mul((4,), a3, p), gfpoly.mul((27 % p,), b2, p), p):
                row.append(None)
            else:
                row.append(-sum(chi_of[plus[v][jb]] for v in rhs))
        traces.append(row)
    return elements, traces


def models_isomorphic(a1, b1, a2, b2, p):
    """Whether two models over F_p differ by the substitution x -> u^2 x,
    found by trying every u."""
    a1, b1, a2, b2 = a1 % p, b1 % p, a2 % p, b2 % p
    for u in range(1, p):
        u2 = u * u % p
        u4 = u2 * u2 % p
        if (u4 * a1 - a2) % p == 0 and (u4 * u2 * b1 - b2) % p == 0:
            return True
    return False


def frobenius_trace_power(trace, p, f):
    """Trace over F_{p^f} of a curve over F_p with the given trace over F_p.

    Satisfies t_f = t_1 * t_{f-1} - p * t_{f-2} with t_0 = 2, the power-sum
    recurrence for the two Frobenius eigenvalues.
    """
    if f < 1:
        raise ValueError("field degree must be positive")
    prev, cur = 2, trace
    for _ in range(f - 1):
        prev, cur = cur, trace * cur - p * prev
    return cur


def is_squarefree(f, p):
    """Whether f has no repeated factor over F_p: gcd(f, f') is constant."""
    deriv = gfpoly.trim((i * f[i]) % p for i in range(1, len(f)))
    return gfpoly.degree(gfpoly.gcd(f, deriv, p)) == 0
