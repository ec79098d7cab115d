"""Dense univariate polynomial arithmetic over F_p.

Polynomials are tuples of ints (c0, c1, ..., cd) with coefficients in [0, p),
trailing (highest-degree) coefficient nonzero; the zero polynomial is ().
Degrees here stay tiny (<= 8), so for work at one prime plain Python integers
beat any array layout.  The split test and the parse-time factor patterns,
over many primes at once, are batched on int64 arrays in numberfield instead;
these functions remain their test oracle.
"""
from __future__ import annotations

Poly = tuple


def trim(cs) -> Poly:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def normalize(cs, p: int) -> Poly:
    return trim(c % p for c in cs)


def degree(f: Poly) -> int:
    return len(f) - 1  # -1 for the zero polynomial


def add(f: Poly, g: Poly, p: int) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return trim(out)


def mul(f: Poly, g: Poly, p: int) -> Poly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(c % p for c in out)


def divmod_(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    """Quotient and remainder; g must be nonzero."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(g[-1], -1, p)
    rem = list(f)
    dg = len(g) - 1
    q = [0] * max(len(f) - dg, 0)
    for i in range(len(f) - 1, dg - 1, -1):
        c = rem[i] % p
        if c:
            coef = c * inv_lead % p
            q[i - dg] = coef
            for j, b in enumerate(g):
                rem[i - dg + j] -= coef * b
            rem[i] = 0
    return trim(q), normalize(rem[:dg], p)


def mod(f: Poly, g: Poly, p: int) -> Poly:
    return divmod_(f, g, p)[1]


def power_digits(h: Poly, count: int, p: int) -> list[list[int]]:
    """The coefficients of x^m mod (h, p) for m < count, padded to deg h."""
    d = degree(h)
    return [(list(mod((0,) * m + (1,), h, p)) + [0] * d)[:d] for m in range(count)]


def mulmod(f: Poly, g: Poly, h: Poly, p: int) -> Poly:
    return mod(mul(f, g, p), h, p)


def powmod(f: Poly, e: int, h: Poly, p: int) -> Poly:
    """f^e mod (h, p) by square and multiply."""
    result = (1,)
    f = mod(f, h, p)
    while e:
        if e & 1:
            result = mulmod(result, f, h, p)
        f = mulmod(f, f, h, p)
        e >>= 1
    return result


def monic(f: Poly, p: int) -> Poly:
    if not f or f[-1] == 1:
        return f
    inv = pow(f[-1], -1, p)
    return tuple(c * inv % p for c in f)


def gcd(f: Poly, g: Poly, p: int) -> Poly:
    while g:
        f, g = g, mod(f, g, p)
    return monic(f, p)


def x_pow_p_mod(h: Poly, p: int) -> Poly:
    """x^p mod (h, p), the Frobenius image of x."""
    return powmod((0, 1), p, h, p)


def roots(f: Poly, p: int) -> list[int]:
    """Distinct roots of f in F_p, ascending. Deterministic."""
    f = monic(trim(f), p)
    if degree(f) <= 0:
        return []
    if degree(f) == 1:
        return [(-f[0]) % p]
    # the product of the distinct linear factors, gcd(f, x^p - x)
    lin = gcd(f, add(x_pow_p_mod(f, p), (0, p - 1), p), p)
    if degree(lin) <= 0:
        return []
    return sorted((-g[0]) % p for g in equal_degree_factor(lin, 1, p))


def distinct_degree_factor(f: Poly, p: int) -> list[tuple[int, Poly]]:
    """[(d, product of all monic irreducible factors of degree d)] for squarefree f."""
    out = []
    h = (0, 1)  # x^(p^i) mod the current g, built incrementally
    g = monic(f, p)
    i = 0
    while degree(g) > 0:
        i += 1
        if 2 * i > degree(g):
            out.append((degree(g), g))
            break
        h = powmod(h, p, g, p)
        part = gcd(g, add(h, (0, p - 1), p), p)
        if degree(part) > 0:
            out.append((i, part))
            g = divmod_(g, part, p)[0]
            h = mod(h, g, p)
    return out


def equal_degree_factor(f: Poly, d: int, p: int) -> list[Poly]:
    """Split f (product of distinct degree-d irreducibles) into its factors.

    Deterministic: candidate polynomials are swept in a fixed order.
    """
    n = degree(f)
    if n == d:
        return [monic(f, p)]
    exps = (p**d - 1) // 2 if p != 2 else None
    for t in _candidate_polys(d, p):
        if p == 2:
            # trace map T + T^2 + ... + T^(2^(d-1)) mod f
            acc, cur = (), t
            for _ in range(d):
                acc = add(acc, cur, p)
                cur = mulmod(cur, cur, f, p)
            g = gcd(f, acc, p)
        else:
            g = gcd(f, add(powmod(t, exps, f, p), (p - 1,), p), p)
        if 0 < degree(g) < n:
            rest = divmod_(f, g, p)[0]
            return sorted(equal_degree_factor(g, d, p) + equal_degree_factor(rest, d, p))
    raise RuntimeError(f"equal-degree split failed (deg {d} mod {p})")


def _candidate_polys(d: int, p: int):
    # x+c, then c1*x+c0 ... low-degree sweep; enough variety for any tiny case
    for deg in range(1, 2 * d + 1):
        top_range = range(1, p) if deg > 0 else range(1)
        for top in top_range:
            for low in range(p ** min(deg, 6)):
                coeffs = []
                v = low
                for _ in range(deg):
                    coeffs.append(v % p)
                    v //= p
                yield trim(coeffs + [top])


def factor_squarefree(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """All monic irreducible factors of a squarefree monic f, each with exponent 1."""
    out: list[Poly] = []
    for d, part in distinct_degree_factor(f, p):
        out.extend(equal_degree_factor(part, d, p))
    return [(g, 1) for g in sorted(out)]
