"""Traces of Frobenius for elliptic curves over finite fields.

Curves are short Weierstrass models y^2 = x^3 + a*x + b in characteristic
at least 5.  Traces come from quadratic character sums: one curve over F_p
by a character table, and trace tables over F_p and F_p[t]/(modulus) alike
by one kernel in discrete-log coordinates, where each histogram is one of
three rows shifted and chi(g^k) = (-1)^k; the number of models of each trace
over F_q comes from the correlations of the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, repeat
from math import gcd, isqrt

import numpy as np

from . import gfpoly
from .primes import factorize_slow, is_prime

# residue fields F_q must have q < FIELD_SIZE_BOUND elements: the float32 sums
# of _trace_kernel are exact below it
FIELD_SIZE_BOUND = 2**24

# per-prime tables are kept for the current prime only: runners visit each
# prime once, in order, and the tables grow with p
_char_tables: dict[int, np.ndarray] = {}


def quadratic_character(p: int) -> np.ndarray:
    """Doubled Legendre symbol table for F_p.

    Returns an int8 array t of length 2*p with t[v] = (v mod p | p), so sums
    of two reduced residues can be used as indices without another reduction.
    The squares are marked _BLOCK_CELLS at a time.
    """
    tab = _char_tables.get(p)
    if tab is None:
        half = np.full(p, -1, dtype=np.int8)
        half[0] = 0
        for lo in range(1, (p + 1) // 2, _BLOCK_CELLS):
            v = np.arange(lo, min(lo + _BLOCK_CELLS, (p + 1) // 2), dtype=np.int64)
            half[v * v % p] = 1
        tab = np.concatenate([half, half])
        _char_tables.clear()
        _char_tables[p] = tab
    return tab


def is_singular(a: int, b: int, p: int) -> bool:
    return (4 * a * a * a + 27 * b * b) % p == 0


def trace_mod_p(a: int, b: int, p: int) -> int:
    """Trace of Frobenius of y^2 = x^3 + a*x + b over F_p, p > 3 prime.

    The point count is p + 1 - trace.  The character sum runs over blocks of
    _BLOCK_CELLS values of x.  Raises ValueError on a singular model, and for
    p >= 2^24, the bound of ReducedCurve, before any table of p entries is built.
    """
    if p <= 3 or not is_prime(p):
        raise ValueError("characteristic must be a prime greater than 3")
    if p >= FIELD_SIZE_BOUND:
        raise ValueError("field size p must be below 2^24")
    a %= p
    b %= p
    if is_singular(a, b, p):
        raise ValueError(f"singular model a={a} b={b} over F_{p}")
    chi = quadratic_character(p)
    total = 0
    for lo in range(0, p, _BLOCK_CELLS):
        x = np.arange(lo, min(lo + _BLOCK_CELLS, p), dtype=np.int64)
        # (x^2 + a) * x is below 2p^2, and the doubled table takes v + b < 2p
        total += int(chi[(x * x % p + a) * x % p + b].sum())
    return -total


def _discrete_log(p: int) -> tuple[np.ndarray, np.ndarray]:
    """int32 tables power[k] = g^k, k < p - 1, and log[g^k] = k, log[0] = p - 1, for
    the least primitive root g; power from the g^i and g^(s*j), i, j < s ~ sqrt(p)."""
    cofactors = [(p - 1) // q for q in factorize_slow(p - 1)]
    g = next(c for c in range(2, p) if all(pow(c, k, p) != 1 for k in cofactors))
    s = isqrt(p - 2) + 1
    low = list(accumulate(repeat(g, s - 1), lambda v, r: v * r % p, initial=1))
    high = accumulate(repeat(low[-1] * g % p, (p - 2) // s), lambda v, r: v * r % p, initial=1)
    power, log = np.empty(p - 1, dtype=np.int32), np.empty(p, dtype=np.int32)
    np.remainder(np.multiply.outer(np.array(list(high)), np.array(low)).ravel()[: p - 1], p, out=power)
    log[power], log[0] = np.arange(p - 1, dtype=np.int32), p - 1
    return power, log


# entries per block of the temporaries that grow with the field: x values in
# trace_mod_p (8 MB of int64), cells of each side's gather in _trace_kernel
# (4 MB of float32), and powers in SmallField (8 MB of int64 per digit)
_BLOCK_CELLS = 1 << 20


def _log_rows(p: int, f: int, power: np.ndarray, log: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float32 rows of _trace_kernel over F_q, q = p^f, H = (q - 1)/2, from
    its tables: S, S, W0 end to end in one array of length 3H, and B_0, B_1,
    B_g, each twice over, as the rows of a (3, 2H) array."""
    H = len(power) // 2
    # the Zech logs: a constant digit p after the + 1 wraps to 0, and at f = 1
    # that digit is g^H + 1 alone
    zech = power + 1
    zech[H if f == 1 else zech % p == 0] -= p
    zech = log[zech]
    # the rows S, S, W0; chi(-1) = (-1)^H, and W0 is 0 unless H is even
    w = 1 - 2 * (H & 1)
    src = np.empty(3 * H, dtype=np.float32)
    np.multiply((zech[:H] & 1) + (zech[H:] & 1), -2, out=src[:H], casting="unsafe")
    src[:H] += 2
    src[0] -= 1
    src[H : 2 * H] = src[:H]
    src[2 * H :: 2], src[2 * H + 1 :: 2] = 1 + w, -1 - w
    # the rows B_0, B_1, B_g, each twice over
    rows = np.zeros((3, 2 * H), dtype=np.float32)
    step = 1 if H % 3 else 3
    rows[0, ::step] = step
    for d in (0, 1):
        rows[1 + d, :H] = np.bincount((np.arange(2 * d, H + 2 * d) + zech[d::2]) % H, minlength=H)
    # Z[H] = log 0 = 2H lies in row d = H mod 2, at i = H // 2
    rows[1 + (H & 1), (H // 2 + 2 * (H & 1)) % H] -= 1
    rows[1:, H:] = rows[1:, :H]
    return src, rows


def _trace_kernel(p: int, f: int, power: np.ndarray, log: np.ndarray, a_idx: np.ndarray, b_idx: np.ndarray):
    """Traces over F_q, q = p^f, for every pair of element indices a_idx x b_idx,
    returned as trace_matrix returns them.  power[k] = g^k, k < q - 1, and
    log[g^k] = k, log[0] = q - 1, are the int32 tables of a primitive element g.

    F_q* is cyclic and chi is multiplicative, so chi(g^k) = (-1)^k and, with
    H = (q - 1)/2, -1 = g^H.  trace(a, b) = -sum_v N_a(v) chi(v + b), N_a(v) =
    #{x : x^3 + a*x = v}, and N_a(-v) = N_a(v), so
      trace(a, b) = -[N_a(0) chi(b) + sum_{k<H} N_a(g^k) (chi(b + g^k) + chi(b - g^k))].
    x = lambda*y gives N_a(v) = N_{a/lambda^2}(v/lambda^3), so for a = g^e,
    t = floor(e/2), k -> N_a(g^k) is B_c[k - 3t], B_c[k] = N_c(g^k), with c = 1
    for even e, c = g for odd e, and N_a(0) = N_c(0) = 2 + chi(-c).  The row
    B_0 of a = 0 is 3 at k = 0 mod 3 and 0 elsewhere if 3 | H, else 1 (x^3
    is then a bijection), and N_0(0) = 1.  For b = g^f, chi(b + g^k) +
    chi(b - g^k) = chi(b) S[k - f], S[j] = chi(1 + g^j) + chi(1 - g^j), and for
    b = 0 the window is W0[k] = (1 + chi(-1)) (-1)^k.  With s_b = chi(b) (1 at 0),
      trace(a, b) = -s_b (N_a(0) [b != 0] + (N W^T)[a, b])
    for N the gather of shifted rows of (B_0, B_1, B_g) and W that of (S, S, W0).
    S and B_c come from the Zech logs Z[k] = log(1 + g^k); 1 + g^k adds 1 to
    the constant digit mod p, the one addition of elements made here.  S[j] =
    (-1)^Z[j] + (-1)^Z[j + H], but chi(0) = 0 at 1 + g^H = 0.  For c = g^d, the
    x = g^(i + d), i < H, are one of each pair +-x (which give v and -v, whose
    logs agree mod H), and x^3 + c*x = x*c*(1 + x^2/c) has log i + 2d + Z[2i + d],
    so B_c is the histogram of those logs mod H, less the x with x^2 = -c.
    The gathers are built _BLOCK_CELLS per side at a time.  The float32
    products are exact for q < 2^24: N is in [0, 3], W in [-2, 2], and every
    partial sum is an integer of size at most 2 sum_k N_a(g^k) <= q.
    """
    H = len(power) // 2
    both = np.concatenate([a_idx, b_idx])
    e = log[both]
    ea, eb = e[: len(a_idx)], e[len(a_idx) :]
    # 4a^3 + 27b^2 = 0 exactly when 4a^3 and -27b^2 are the same element
    scaled = power[np.concatenate([3 * ea + log[4], 2 * eb + log[-27 % p]]) % (2 * H)]
    scaled[both == 0] = 0
    nonsingular = scaled[: len(a_idx), None] != scaled[None, len(a_idx) :]
    w = 1 - 2 * (H & 1)
    src, rows = _log_rows(p, f, power, log)
    family = np.where(a_idx == 0, 0, 1 + (ea & 1))
    hist_rows = family * (2 * H) + (-3 * (ea >> 1)) % H
    window_rows = np.where(b_idx == 0, 2 * H, -eb % H)
    # column block [lo, lo + width) of the rows of each table, row i of which
    # is table[i + lo : i + lo + width]
    width = max(1, _BLOCK_CELLS // max(len(a_idx), len(b_idx), 1))
    sums = np.zeros((len(a_idx), len(b_idx)), dtype=np.float32)
    for lo in range(0, H, width):
        cols = min(width, H - lo)
        hist = np.ndarray((5 * H + 1, cols), np.float32, rows, 4 * lo, (4, 4))[hist_rows]
        window = np.ndarray((2 * H + 1, cols), np.float32, src, 4 * lo, (4, 4))[window_rows]
        sums += hist @ window.T
    sums += np.array([1, 2 + w, 2 - w], dtype=np.float32)[family][:, None] * (b_idx != 0)
    sums *= 2 * (eb & 1) - 1  # -s_b, as the log 2H of b = 0 is even
    return sums.astype(np.int64), nonsingular


def trace_matrix(p: int, a_values, b_values):
    """Traces for every pair from a_values x b_values over F_p.

    Returns (traces, nonsingular) where traces[i, j] is the trace of
    y^2 = x^3 + a_values[i]*x + b_values[j] and nonsingular[i, j] marks the
    pairs where that model is an elliptic curve (traces are garbage at
    singular pairs).  The traces come from _trace_kernel at f = 1, with the
    tables of _discrete_log; the float32 sums there are exact for p < 2^24.
    """
    if p <= 3 or not is_prime(p):
        raise ValueError("characteristic must be a prime greater than 3")
    if p >= FIELD_SIZE_BOUND:
        raise OverflowError("float32 character sums are exact only for p < 2^24")
    avals = np.asarray(a_values, dtype=np.int64) % p
    bvals = np.asarray(b_values, dtype=np.int64) % p
    return _trace_kernel(p, 1, *_discrete_log(p), avals, bvals)


_trace_grids: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # current prime only


def trace_grid(p: int):
    """Full (p, p) trace table indexed [a, b], with its nonsingular mask."""
    got = _trace_grids.get(p)
    if got is None:
        _trace_grids.clear()  # free the last grid before building the next
        rng = np.arange(p, dtype=np.int64)
        got = trace_matrix(p, rng, rng)
        _trace_grids[p] = got
    return got


def _model_counts(p: int, f: int, power: np.ndarray, log: np.ndarray) -> np.ndarray:
    """Number of nonsingular models y^2 = x^3 + a*x + b over F_q, q = p^f, of
    each trace r at index r + R, R = isqrt(4q), from the tables _trace_kernel
    takes; the counts sum to q(q - 1).

    With a = g^(2t + d), c = g^d, b = g^e and w = chi(-1), the product cell of
    _trace_kernel is X_c[(3t - e) mod H], X_c[s] = sum_j B_c[j] S[(j + s) mod H]:
      trace(a, b) = -(-1)^e (N_c(0) + X_c[(3t - e) mod H]) for a, b != 0,
      trace(0, b) = -(-1)^e (1 + X_0[-e mod H]) for b != 0,
      trace(a, 0) = -(1 + w) (-1)^t sum_j (-1)^j B_c[j] for a != 0,
    as W0 = 0 unless H is even, and then -3t has the parity of t.  Each (c, s)
    takes H pairs (t, e) of each parity of e, so each value v of N_c(0) + X_c
    is H models of trace -v and H of trace v.  The q - 1 singular pairs
    (-3u^2, 2u^3) among them read -sum_{x != u} chi(x + 2u) = chi(3u), H of
    them 1 and H -1, and are taken off.  X comes from one float64 real FFT of
    power-of-two length L >= 2H - 1 against S twice over, certified within 1/4
    of integers, else ArithmeticError (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 24, bounds the rounding error a priori).
    """
    H = len(power) // 2
    R = isqrt(8 * H + 4)
    w = 1 - 2 * (H & 1)
    src, rows = _log_rows(p, f, power, log)
    # B_0, B_1, B_g and S twice over, zero-padded to L, through one real FFT
    L = 1 << (2 * H - 2).bit_length()
    pad = np.zeros((4, L))
    pad[:3, :H] = rows[:, :H]
    pad[3, : 2 * H] = src[: 2 * H]
    sign = 1 - 2 * (np.arange(H) & 1)
    V = (1 + w) * (pad[1:3, :H] @ sign)
    spectrum = np.fft.rfft(pad)
    del pad
    np.conjugate(spectrum[:3], out=spectrum[:3])
    spectrum[:3] *= spectrum[3]
    c = np.fft.irfft(spectrum[:3], L)[:, :H]
    X = np.rint(c)
    if np.abs(c - X).max() >= 0.25:
        raise ArithmeticError(f"FFT character sums over F_{p ** f} are not certified integers")
    X = X.astype(np.int64) + [[1], [2 + w], [2 - w]]  # 1 + X_0, then N_c(0) + X_c
    # each v in h is H models at v and H at -v; by e -> -e, which keeps the
    # parity of e, the a = 0 traces are -(-1)^e (1 + X_0[e]) for e < H and w
    # times those for e >= H, whence k and k[::w]; then the b = 0 traces
    h = np.bincount(R + X[1:].ravel(), minlength=2 * R + 1)
    k = np.bincount(R - sign * X[0], minlength=2 * R + 1)
    counts = H * (h + h[::-1]) + k + k[::w] + np.bincount(R - np.outer(V, sign).ravel().astype(np.int64), minlength=2 * R + 1)
    counts[[R - 1, R + 1]] -= H
    return counts


def trace_counts(p: int) -> np.ndarray:
    """Number of nonsingular models y^2 = x^3 + a*x + b over F_p of each trace.

    counts[r + R], with R = isqrt(4p - 1), is the number of (a, b) in F_p^2
    with 4a^3 + 27b^2 != 0 whose curve has trace r; the counts sum to
    p(p - 1).  They are _model_counts of the tables of _discrete_log, whose
    R = isqrt(4p) is the same, as 4p is not a square: O(p log p) per prime.
    p >= 2^24, the bound of every table kernel, is refused before any table.
    """
    if p <= 3 or not is_prime(p):
        raise ValueError("characteristic must be a prime greater than 3")
    if p >= FIELD_SIZE_BOUND:
        raise OverflowError(f"trace counts build tables of p = {p} entries; p must be below 2^24")
    return _model_counts(p, 1, *_discrete_log(p))


def isogeny_mass_oracle(p: int, r: int) -> Fraction:
    """Mass of the trace-r isogeny classes over F_p: sum of 1/#Aut.

    Counting all nonsingular (a, b) models and dividing by p - 1 weighs each
    isomorphism class by the inverse of its automorphism group, since a class
    with aut size w has (p-1)/w distinct models.  The count is read from
    trace_counts, the correlations of the trace kernel's log-coordinate rows:
    O(p log p) per call.
    """
    if r * r >= 4 * p:
        raise ValueError("trace violates the Hasse bound")
    return Fraction(int(trace_counts(p)[r + isqrt(4 * p - 1)]), p - 1)


def aut_size(a: int, b: int, p: int) -> int:
    """Order of the automorphism group of y^2 = x^3 + a*x + b over F_p."""
    if p <= 3:
        raise ValueError("characteristic must exceed 3")
    a %= p
    b %= p
    if a == 0 and b == 0:
        raise ValueError("(0, 0) is not a curve model")
    if a != 0 and b != 0:
        return 2
    if b == 0:
        return gcd(4, p - 1)
    return gcd(6, p - 1)


def _orbit_codes(a: int, b: int, p: int) -> np.ndarray:
    """isomorphism_orbit(a, b, p) as the ascending int64 codes a' * p + b'."""
    u = np.arange(1, p, dtype=np.int64)
    u2 = u * u % p
    u4 = u2 * u2 % p
    return np.unique(u4 * (a % p) % p * p + u4 * u2 % p * (b % p) % p)


def isomorphism_orbit(a: int, b: int, p: int) -> list[tuple[int, int]]:
    """All models (u^4 a, u^6 b) isomorphic to (a, b) over F_p, sorted."""
    return [divmod(code, p) for code in _orbit_codes(a, b, p).tolist()]


class SmallField:
    """F_q = F_p[t]/(modulus), q = p^f < 2^24, for a monic irreducible modulus.

    Elements are encoded as integers in [0, q) whose base-p digits are the
    coefficients of the residue polynomial, constant digit first.  power[k] =
    g^k, k < q - 1, and log[g^k] = k, log[0] = q - 1, are the int32 tables of
    the first primitive element g in index order from 2 (f = 1) or t (f > 1),
    tested by one gfpoly.powmod per prime factor of q - 1.  The powers double:
    the digits of g^(m + k), k < m, are those of g^k times the f x f matrix of
    x -> g^m * x, which squares to that of g^(2m).  q is checked first.
    """

    def __init__(self, p: int, modulus):
        if not is_prime(p):
            raise ValueError("characteristic must be prime")
        poly = gfpoly.monic(gfpoly.normalize(modulus, p), p)
        f = gfpoly.degree(poly)
        if f < 1:
            raise ValueError("modulus must have positive degree")
        if p**f >= FIELD_SIZE_BOUND:
            raise OverflowError("field tables need q = p^f < 2^24")
        # [(f, poly)] exactly when no factor of degree <= f/2 divides poly,
        # squarefree or not
        if gfpoly.distinct_degree_factor(poly, p) != [(f, poly)]:
            raise ValueError(f"modulus {poly} is reducible over F_{p}")
        self.p, self.f, self.q, self.modulus = p, f, p**f, poly
        q = self.q
        pvec = p ** np.arange(f, dtype=np.int64)
        cofactors = [(q - 1) // r for r in factorize_slow(q - 1)]
        candidates = (gfpoly.trim((i // pvec % p).tolist()) for i in count(2 if f == 1 else p))
        g = next(c for c in candidates if all(gfpoly.powmod(c, k, poly, p) != (1,) for k in cofactors))
        # row i of the matrix of x -> g*x: the digits of t^i * g
        powers = np.array(gfpoly.power_digits(poly, 2 * f - 1, p), dtype=np.int64)
        step = np.array([sum(c * powers[i + j] for j, c in enumerate(g)) for i in range(f)]) % p
        self.power = np.ones(q - 1, dtype=np.int32)
        m = 1
        while m < q - 1:
            for lo in range(0, min(m, q - 1 - m), _BLOCK_CELLS):
                block = self.power[lo : min(lo + _BLOCK_CELLS, m, q - 1 - m)]
                self.power[m + lo : m + lo + len(block)] = (block[:, None] // pvec % p) @ step % p @ pvec
            step = step @ step % p
            m *= 2
        self.log = np.empty(q, dtype=np.int32)
        self.log[self.power], self.log[0] = np.arange(q - 1, dtype=np.int32), q - 1

    def element_index(self, value) -> int:
        """Encode an element given as an int (constant) or coefficient list."""
        if isinstance(value, (int, np.integer)):
            value = (value,)
        coeffs = gfpoly.mod(gfpoly.normalize([int(c) for c in value], self.p), self.modulus, self.p)
        return sum(c * self.p**k for k, c in enumerate(coeffs))


@dataclass(frozen=True)
class CurveModel:
    """A Weierstrass model y^2 = x^3 + alpha*x + beta over a number field.

    alpha and beta are power-basis coordinate vectors; singularity is a
    per-prime question, so no global invariant is enforced here.
    """

    alpha: tuple
    beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(int(c) for c in self.alpha))
        object.__setattr__(self, "beta", tuple(int(c) for c in self.beta))
        if not self.alpha or len(self.alpha) != len(self.beta):
            raise ValueError("alpha and beta need equal positive length")


@dataclass(frozen=True)
class ReducedCurve:
    """A model y^2 = x^3 + a*x + b over F_{p^f}.

    For f = 1, a and b are integers mod p.  For f > 1 they are coefficient
    sequences (or prime-field constants) in the basis of modulus, a monic
    irreducible of degree f over F_p.  The field size p^f must be below 2^24.
    """

    a: object
    b: object
    p: int
    f: int = 1
    modulus: tuple = ()

    def __post_init__(self):
        if self.f < 1:
            raise ValueError("field degree must be positive")
        # a trace builds tables of p^f entries; trace_matrix is exact below 2^24
        if self.f >= 24 or self.p**self.f >= FIELD_SIZE_BOUND:
            raise ValueError("field size p^f must be below 2^24")
        if self.f > 1 and not self.modulus:
            raise ValueError("extension fields need a modulus polynomial")


def _as_prime_field_int(value, p: int) -> int:
    if isinstance(value, (int, np.integer)):
        return int(value) % p
    coeffs = [int(c) % p for c in value]
    if any(coeffs[1:]):
        raise ValueError("element does not lie in the prime field")
    return coeffs[0] if coeffs else 0


def trace_mod_q(curve: ReducedCurve) -> int:
    """Trace of Frobenius of a reduced curve over its residue field, by
    trace_mod_p for f = 1 and as a 1x1 field_trace_matrix for f > 1.  Raises
    ValueError on a singular model, and on a modulus not of degree f before
    any table is built."""
    if curve.f == 1:
        return trace_mod_p(_as_prime_field_int(curve.a, curve.p), _as_prime_field_int(curve.b, curve.p), curve.p)
    if gfpoly.degree(gfpoly.normalize(curve.modulus, curve.p)) != curve.f:
        raise ValueError("modulus degree disagrees with the stated field degree")
    field = SmallField(curve.p, curve.modulus)
    traces, nonsingular = field_trace_matrix(field, [field.element_index(curve.a)], [field.element_index(curve.b)])
    if not nonsingular[0, 0]:
        raise ValueError("singular model over the extension field")
    return int(traces[0, 0])


def field_trace_matrix(field: SmallField, a_indices, b_indices):
    """Traces over F_q for every pair of element indices, the extension-field
    form of trace_matrix.

    Returns (traces, nonsingular) where traces[i, j] is the trace of
    y^2 = x^3 + a*x + b for the elements a = a_indices[i], b = b_indices[j],
    and nonsingular[i, j] marks the pairs where 4a^3 + 27b^2 != 0 (traces are
    garbage at singular pairs).  The traces come from _trace_kernel with the
    field's power and log tables.
    """
    if field.p <= 3:
        raise ValueError("characteristic must exceed 3")
    a_idx = np.asarray(a_indices, dtype=np.int64)
    b_idx = np.asarray(b_indices, dtype=np.int64)
    return _trace_kernel(field.p, field.f, field.power, field.log, a_idx, b_idx)
