"""Galois number fields given by a monic integer polynomial, and their prime splitting.

A field is the splitting data of one monic irreducible poly(x) in Z[x] whose
root theta generates a Galois extension K/Q of degree n_K. Everything downstream
works through the power basis 1, theta, ..., theta^(n_K - 1):

  * p splits completely  <=>  poly has n_K distinct roots mod p  (tested via
    x^p = x mod (poly, p); p does not divide disc(poly)).  One kernel,
    _frobenius_x, computes x^p mod (poly, p) for many primes at once: a
    square-and-multiply on int64 arrays with a row per coefficient and a
    column per prime, each product folded back through a table of
    x^(n+j) mod (poly, p).  It feeds both the split test and the factor
    patterns below.
  * a degree-f prime above an unramified p is a degree-f irreducible factor of
    poly mod p; the residue field is F_p[t]/(factor) with theta mapped to t.

Parsing imports sympy only as a fallback. disc(poly) is a Bareiss determinant
of the Sylvester matrix, and the factor degrees of poly mod 100 unramified
primes both prove irreducibility (_patterns_prove_irreducible) and check that
K is Galois. Those degrees come from gcd(poly, x^(p^i) - x), with x^(p^i)
composed from the kernel's x^p. Fields they cannot prove irreducible, such
as biquadratic ones, import sympy for its irreducibility test.

The cyclotomic invariants (m_K, n_A, G_mK) describe the maximal abelian
subfield A: n_A = [A:Q], m_K its conductor, and G_mK the group of residues
mod m_K hit by the norms of split primes. They are measured from the split
primes mod one bound M = conductor_bound(disc, n_K), a multiple of m_K, modulo
n_K-th powers, with a prime budget that doubles until the group is stable.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import gfpoly
from .primes import factorize_slow, phi_from_factors, sieve_primes

MIN_WITNESSES = 20
_N_PROBES = 100  # primes whose factor patterns parse_field inspects
_PRIME_CEILING = 10**7  # split primes abelian_invariants may test; guards time and memory

PRESETS: dict[str, tuple[int, ...]] = {
    "Q": (0, 1),
    "Q_i": (1, 0, 1),
    "Q_sqrt2": (-2, 0, 1),
    "Q_zeta3": (1, 1, 1),
    "Q_zeta5": (1, 1, 1, 1, 1),
    # degree-6 splitting field of x^3 - 2: minimal polynomial of 2^(1/3) + zeta_3
    "S3_x3m2": (9, 9, 0, 3, 6, 3, 1),
}


@dataclass
class DegreeFPrime:
    """One prime ideal above p: residue field F_p[t]/(modulus), theta -> t."""

    p: int
    f: int
    modulus: tuple  # monic degree-f factor of poly mod p, coeffs low -> high

    @property
    def root(self) -> int:
        """Residue of theta for a degree-1 prime."""
        if self.f != 1:
            raise ValueError("root is only defined for degree-1 primes")
        return (-self.modulus[0]) % self.p

    @property
    def norm(self) -> int:
        return self.p**self.f


@dataclass(eq=False)
class GaloisFieldSpec:
    name: str
    poly: tuple[int, ...]
    n_K: int
    disc: int
    m_K: int
    n_A: int
    G_mK: frozenset[int]
    _split_bound: int = 0
    _split_list: np.ndarray = dc_field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def split_primes(self, bound: int) -> np.ndarray:
        """All completely split p <= bound with p not dividing disc (no other filters)."""
        if bound > self._split_bound:
            grow = max(bound, 2 * self._split_bound)
            more = _split_primes_raw(self.poly, self.n_K, self.disc, self._split_bound, grow)
            self._split_list = np.concatenate([self._split_list, more])
            self._split_bound = grow
        lst = self._split_list
        return lst[lst <= bound]

    def roots_mod(self, p: int) -> tuple[int, ...]:
        """Distinct roots of poly mod p, ascending."""
        return tuple(gfpoly.roots(gfpoly.normalize(self.poly, p), p))


def _split_primes_raw(poly, n_K, disc, low, high) -> np.ndarray:
    """The completely split primes low < p <= high not dividing disc."""
    ps = sieve_primes(high)
    ps = ps[ps > low]
    if n_K == 1:
        return ps
    ps = np.array([p for p in ps.tolist() if disc % p], dtype=np.int64)
    return ps[_x_pow_p_is_x(poly, ps)]


def _x_pow_p_is_x(poly, ps: np.ndarray) -> np.ndarray:
    """Mask of the primes p in ps with x^p = x mod (poly, p), all p at once."""
    x = np.zeros((len(poly) - 1, 1), dtype=np.int64)
    x[1] = 1
    return (_frobenius_x(poly, ps) == x).all(axis=0)


def _frobenius_x(poly, ps: np.ndarray) -> np.ndarray:
    """x^p mod (poly, p) for every p in ps at once, by square and multiply.

    The result is an (n, len(ps)) array: column j holds the power-basis
    coefficients of the residue mod (poly, ps[j]), and row i the coefficient of
    x^i at every prime, so each step works on contiguous rows. Requires a monic
    poly of degree n >= 2 and n * max(ps)^2 < 2^63; see _mulmod.
    """
    n = len(poly) - 1
    ps = np.asarray(ps, dtype=np.int64)
    top = int(ps.max(initial=1))
    if n * top**2 >= 2**63:
        raise OverflowError(f"x^p mod (poly, p) needs n * p^2 < 2^63 (n={n}, p={top})")
    fold = _fold_table(poly, ps)
    r = np.zeros((n, len(ps)), dtype=np.int64)
    r[0] = 1
    for bit in range(top.bit_length() - 1, -1, -1):
        r = _mulmod(r, r, fold, ps, (ps >> bit) & 1 == 1)
    return r


def _fold_table(poly, ps: np.ndarray) -> np.ndarray:
    """fold[j] = x^(n + j) mod (poly, p) for j < n, as an (n, n, len(ps)) array."""
    n = len(poly) - 1
    fold = np.zeros((n, n, len(ps)), dtype=np.int64)
    # x^n = -(c_0 + ... + c_(n-1) x^(n-1)); a coefficient beyond int64 is
    # reduced as a Python int
    fold[0] = [-c % ps if abs(c) < 2**62 else [-c % p for p in ps.tolist()] for c in poly[:n]]
    for j in range(1, n):
        fold[j, 1:] = fold[j - 1, :-1]
        fold[j] = (fold[j] + fold[j - 1, -1] * fold[0]) % ps
    return fold


def _mulmod(a, b, fold, ps, times_x=False) -> np.ndarray:
    """a * b mod (poly, p) column by column, times x in the columns where
    times_x is set; a, b are (n, len(ps)) residues and fold is _fold_table.

    Two reductions per product: one of the schoolbook coefficients, one after
    the top half is folded down through the table. Before each, an entry is a
    sum of at most n products below p^2 (plus one residue), so n * p^2 < 2^63
    keeps it in int64.
    """
    n = len(a)
    prod = np.zeros((2 * n + 1, a.shape[1]), dtype=np.int64)
    for i in range(n):
        prod[i + 1 : i + 1 + n] += a[i] * b
    # row k of prod is the coefficient of x^k in x * a * b
    prod = np.where(times_x, prod[:-1], prod[1:]) % ps
    out = prod[:n]
    for j in range(n):
        out += prod[n + j] * fold[j]
    return out % ps


def admissible_primes(field: GaloisFieldSpec, x: int, r: int) -> list[int]:
    """The admissible completely split primes p <= x, ascending.

    Filters: p > max(5, r^2/4), p splits completely, p does not divide
    disc(poly) (so neither m_K), and (for n_K >= 2) p does not divide poly(0),
    the power-basis surrogate for the basis-element condition.
    """
    c0 = field.poly[0]
    out = []
    for p in field.split_primes(x).tolist():
        if 4 * p <= max(20, r * r):
            continue
        if field.n_K >= 2 and c0 % p == 0:
            continue
        out.append(p)
    return out


def degree_f_primes(field: GaloisFieldSpec, p: int, f: int) -> list[DegreeFPrime]:
    """The primes above p, provided they all have residue degree f (else [])."""
    if field.disc % p == 0:
        raise ValueError(f"p={p} ramifies (divides disc)")
    fp = gfpoly.normalize(field.poly, p)
    factors = [g for g, _ in gfpoly.factor_squarefree(fp, p)]
    degs = {gfpoly.degree(g) for g in factors}
    if len(degs) != 1:
        raise ArithmeticError(f"non-uniform factor degrees mod {p}: Galois check failed")
    if degs != {f}:
        return []
    return [DegreeFPrime(p=p, f=f, modulus=g) for g in factors]


def empirical_norm_residues(field: GaloisFieldSpec, q: int, p_budget: int) -> frozenset[int]:
    """Residues mod q of split primes up to p_budget (the empirical image G_q).

    Warns when some residue has fewer than MIN_WITNESSES witnesses.
    """
    if q < 1:
        raise ValueError("q must be positive")
    if q == 1:
        return frozenset({1})
    ps = field.split_primes(p_budget)
    res, counts = np.unique(ps[np.gcd(ps, q) == 1] % q, return_counts=True)
    thinnest = min(counts.tolist(), default=MIN_WITNESSES)
    if thinnest < MIN_WITNESSES:
        warnings.warn(
            f"empirical G_{q}: thinnest residue class has {thinnest} "
            f"witnesses (< {MIN_WITNESSES}); increase p_budget",
            stacklevel=2,
        )
    return frozenset(res.tolist())


def conductor_bound(disc: int, n_K: int) -> int:
    """The product of p^(1 + v_p(n_K)) over the odd p | disc, times 2^(2 + v_2(n_K))
    if 2 | disc: a multiple of m_K, as every ramified prime divides disc and a
    character of conductor p^k, whose order divides n_A | n_K, has order
    divisible by p^(k - 1), or by 2^(k - 2) when p = 2 and k >= 3."""
    v = factorize_slow(n_K)
    return math.prod(p ** (1 + (p == 2) + v.get(p, 0)) for p in factorize_slow(abs(disc)))


def abelian_invariants(field: GaloisFieldSpec) -> tuple[int, int, frozenset[int]]:
    """Measure (m_K, n_A, G_mK) from G_M, the residues mod M = conductor_bound of
    the split primes, taken modulo n_K-th powers so that few primes fill it.

    The prime budget starts at 20000 and doubles, up to _PRIME_CEILING (then a
    RuntimeError), until MIN_WITNESSES split primes lie above half the budget
    and none leaves the group generated below it. Split primes are prime to M,
    so G_q for q | M is the image of G_M. Then n_A = phi(M)/|G_M|, and m_K, the
    least q | M with phi(q) = n_A |G_q|, comes from dividing M by its primes
    while that holds.
    """
    n_K = field.n_K
    M = conductor_bound(field.disc, n_K)
    budget = 20000
    while True:
        ps = field.split_primes(budget).tolist()
        units = {p % M for p in ps}
        G_M = _norm_group(units, M, n_K)[0]
        late = sum(2 * p > budget for p in ps)
        if late >= MIN_WITNESSES and G_M == _norm_group({p % M for p in ps if 2 * p <= budget}, M, n_K)[0]:
            break
        if budget >= _PRIME_CEILING:
            raise RuntimeError(f"no stable residue group mod M = {M} from the split primes up to {budget}")
        budget = min(2 * budget, _PRIME_CEILING)
    n_A = phi_from_factors(factorize_slow(M)) // G_M
    if n_K % n_A:
        raise ArithmeticError(f"empirical n_A = {n_A} does not divide n_K = {n_K}")
    m = M
    for p in factorize_slow(M):
        while m % p == 0 and phi_from_factors(factorize_slow(m // p)) == n_A * _norm_group(units, m // p, n_K)[0]:
            m //= p
    _, power_class, H = _norm_group(units, m, n_K)
    return m, n_A, frozenset(a for a in range(1, max(m, 2)) if math.gcd(a, m) == 1 and power_class(a) in H)


def _norm_group(ps, q: int, n_K: int):
    """G_q, generated by ps and the n_K-th powers mod q | M, as (|G_q|, power_class, H).

    Split primes ps give the G_q of the text, which holds the n_K-th powers as
    Gal(A/Q) has exponent dividing n_K. A unit a lies in G_q iff power_class(a),
    a^k mod pe for each pe || q glued by CRT, lies in H, the span of the ps.
    Here k = lambda(pe)/gcd(lambda(pe), n_K) is the order of the kernel, the
    n_K-th powers, since (Z/pe)^* is cyclic or has exponent dividing n_K.
    """
    parts = []
    for p, e in factorize_slow(q).items():
        pe = p**e
        lam = (p - 1) * p ** (e - 1) // (2 if p == 2 and e >= 3 else 1)
        parts.append((pe, lam // math.gcd(lam, n_K), q // pe * pow(q // pe, -1, pe)))

    def power_class(a: int) -> int:
        return sum(c * pow(a, k, pe) for pe, k, c in parts) % q

    H = {1 % q}
    for g in {power_class(p) for p in ps}:
        coset, r = H, g
        while r not in H:  # the cosets g^j H are new until g^j lies in H
            coset = {h * g % q for h in coset}
            H, r = H | coset, r * g % q
    return math.prod(k for _, k, _ in parts) * len(H), power_class, H


def _factor_patterns(poly, disc) -> list[tuple[int, tuple[int, ...]]]:
    """(p, sorted factor degrees of poly mod p) for the first _N_PROBES primes
    p < 4000 not dividing disc (fewer if there are not that many).

    The Frobenius images x^(p^i) mod (poly, p), i <= n/2, come batched over the
    probes: x^p from _frobenius_x, then each next one by composing with x^p,
    x^(p^(i+1)) = sum_k [x^k] x^(p^i) * (x^p)^k, since Frobenius fixes F_p.
    """
    n = len(poly) - 1
    probes = [p for p in sieve_primes(4000).tolist() if disc % p][:_N_PROBES]
    ps = np.array(probes, dtype=np.int64)
    fold = _fold_table(poly, ps)
    x_p = _frobenius_x(poly, ps)
    one = np.zeros_like(x_p)
    one[0] = 1
    powers = [one, x_p]  # (x^p)^k for k < n
    while len(powers) < n:
        powers.append(_mulmod(powers[-1], x_p, fold, ps))
    images = [x_p]
    while len(images) < n // 2:
        images.append(sum(images[-1][k] * powers[k] for k in range(n)) % ps)
    by_prime = np.stack(images).transpose(2, 0, 1).tolist()  # [prime][i - 1][coefficient]
    return [(p, _factor_degrees(gfpoly.normalize(poly, p), hs, p)) for p, hs in zip(probes, by_prime)]


def _factor_degrees(f, images, p) -> tuple[int, ...]:
    """Sorted degrees of the irreducible factors of the squarefree monic f mod p,
    given images[i - 1] = x^(p^i) mod (f, p) for i <= deg f / 2.

    gcd(f, x^(p^i) - x) has one root for each root of f in F_(p^i), so its
    degree is the sum of e * count[e] over the factor degrees e dividing i. As
    in distinct-degree factorisation, what is left once 2i exceeds its degree
    is one irreducible factor.
    """
    count = [0] * (len(f) + 1)
    left = len(f) - 1
    for i, h in enumerate(images, 1):
        if 2 * i > left:
            break
        roots = gfpoly.degree(gfpoly.gcd(f, gfpoly.add(h, (0, p - 1), p), p))
        count[i] = (roots - sum(e * count[e] for e in range(1, i) if i % e == 0)) // i
        left -= i * count[i]
    if left:
        count[left] += 1
    return tuple(d for d, c in enumerate(count) for _ in range(c))


def _patterns_prove_irreducible(patterns, n: int) -> bool:
    """True when no degree 0 < k < n is a sub-multiset sum of every pattern.

    A monic factor of degree k over Q reduces, at each p not dividing disc, to
    a product of some of the irreducible factors mod p, so every pattern would
    have a sub-multiset summing to k.
    """
    cands = set(range(1, n))
    for _, degs in patterns:
        sums = {0}
        for d in degs:
            sums |= {s + d for s in sums}
        cands &= sums
        if not cands:
            return True
    return False


def _sympy_irreducible(poly) -> bool:
    import sympy

    x = sympy.symbols("x")
    return sympy.Poly(sum(c * x**i for i, c in enumerate(poly)), x).is_irreducible


def _check_galois_degrees(patterns) -> None:
    """Abort on a probe prime with non-uniform factor degrees."""
    for p, degs in patterns:
        if len(set(degs)) != 1:
            raise ArithmeticError(
                f"poly splits with mixed factor degrees mod {p}; the field is not Galois"
            )
    if len(patterns) < _N_PROBES:
        raise RuntimeError("not enough probe primes below 4000")  # unreachable for sane inputs


def parse_field(source) -> GaloisFieldSpec:
    """Build a GaloisFieldSpec from a preset name, a JSON file path, or coefficients.

    source: a preset key in PRESETS, a path to a JSON file {"name", "poly"},
    or an iterable of integer coefficients (low -> high, monic), named "field".
    A source that is neither a preset nor a readable field file is a ValueError.
    """
    if not isinstance(source, str):
        return _build_field(tuple(source), "field")
    if source in PRESETS:
        return _build_field(PRESETS[source], source)
    try:
        with open(source) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(
            f"field {source!r} is neither a preset ({', '.join(PRESETS)}) nor a readable file: {exc.strerror}"
        ) from None
    if not (
        isinstance(data, dict)
        and set(data) <= {"name", "poly"}
        and isinstance(data.get("poly"), list)
        and all(isinstance(c, (int, float)) for c in data["poly"])
        and isinstance(data.get("name", ""), str)
    ):
        raise ValueError(f'field file {source!r} must be a JSON object of a number list "poly" and optionally a string "name"')
    return _build_field(tuple(data["poly"]), data.get("name", "field"))


def _as_field(field) -> GaloisFieldSpec:
    if isinstance(field, GaloisFieldSpec):
        return field
    return parse_field(field)


# Keyed by the parse inputs, so it holds one entry per distinct field a
# process parses; it does not grow with x.
_field_memo: dict[tuple, GaloisFieldSpec] = {}


def _build_field(poly, name) -> GaloisFieldSpec:
    if any(int(c) != c for c in poly):
        raise ValueError("poly coefficients must be integers")
    poly = tuple(int(c) for c in poly)
    key = (poly, name)
    got = _field_memo.get(key)
    if got is not None:
        return got
    if len(poly) < 2:
        raise ValueError("poly must have degree >= 1")
    if poly[-1] != 1:
        raise ValueError("poly must be monic")
    n_K = len(poly) - 1
    disc = _poly_discriminant(poly)
    if disc == 0:
        raise ValueError("poly is not squarefree")
    if n_K > 1:
        patterns = _factor_patterns(poly, disc)
        if not _patterns_prove_irreducible(patterns, n_K) and not _sympy_irreducible(poly):
            raise ValueError("poly is reducible over Q")
        _check_galois_degrees(patterns)
    spec = GaloisFieldSpec(
        name=name, poly=poly, n_K=n_K, disc=disc, m_K=1, n_A=1, G_mK=frozenset({1})
    )
    if n_K > 1:
        spec.m_K, spec.n_A, spec.G_mK = abelian_invariants(spec)
    _validate_group(spec)
    _field_memo[key] = spec
    return spec


def _validate_group(spec: GaloisFieldSpec) -> None:
    m, G = spec.m_K, spec.G_mK
    if m == 1:
        if G != frozenset({1}):
            raise ValueError("G_mK must be {1} when m_K = 1")
    else:
        if 1 not in G:
            raise ValueError("G_mK must contain 1")
        members = np.zeros(m, dtype=bool)
        for a in G:
            if not 1 <= a < m or math.gcd(a, m) != 1:
                raise ValueError(f"G_mK element {a} is not a unit residue mod m_K={m}")
            members[a] = True
        G_arr = np.array(sorted(G), dtype=np.int64)
        if not all(members[a * G_arr % m].all() for a in G):  # one row of products at a time
            raise ValueError("G_mK is not closed under multiplication")
    phi_m = phi_from_factors(factorize_slow(m))
    if spec.n_A * len(G) != phi_m:
        raise ValueError(f"n_A * |G_mK| must equal phi(m_K): {spec.n_A}*{len(G)} != {phi_m}")


def _poly_discriminant(poly: tuple[int, ...]) -> int:
    """disc(poly) = (-1)^(n(n-1)/2) Res(poly, poly') for monic poly of degree n
    (degree 1 has discriminant 1 by convention)."""
    n = len(poly) - 1
    if n == 1:
        return 1
    f = poly[::-1]  # high -> low
    df = [(n - i) * c for i, c in enumerate(f[:-1])]
    # Sylvester matrix: n - 1 shifted rows of poly, then n shifted rows of poly'
    rows = [[0] * i + list(f) + [0] * (n - 2 - i) for i in range(n - 1)]
    rows += [[0] * i + df + [0] * (n - 1 - i) for i in range(n)]
    return (-1) ** (n * (n - 1) // 2) * _det_bareiss(rows)


def _det_bareiss(m: list[list[int]]) -> int:
    """Determinant of the square integer matrix m (overwritten) by
    fraction-free Bareiss elimination: every division is exact."""
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, size):
            mi, mik = m[i], m[i][k]
            for j in range(k + 1, size):
                mi[j] = (mi[j] * pivot - mik * m[k][j]) // prev
        prev = pivot
    return sign * m[-1][-1]
