"""Reference computations and output checks, made apart from ltavg.

Nothing here imports ltavg or the test suite.  Each check takes the report
bodies one child wrote (plain dicts) and returns a list of error strings; an
empty list means the operation passed.

* Hurwitz numbers come from a weighted count of all reduced forms, imprimitive
  ones included: weight 1/2 on multiples of x^2 + y^2, 1/3 on multiples of
  x^2 + xy + y^2 and 1 otherwise.
* Traces of Frobenius come from an Euler-criterion character sum.
* The Euler product for K = Q, r = 1 is evaluated from its closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for q in range(2, math.isqrt(n) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, n + 1, q)))
    return [i for i, f in enumerate(flags) if f]


def hurwitz6_table(n_max: int) -> np.ndarray:
    """h6[n] = 6 * H(-n) for 0 < n <= n_max, as exact integers.

    Every reduced form (a, b, c) with 4ac - b^2 = n adds 6, except (a, 0, a),
    which adds 3, and (a, a, a), which adds 2.  For fixed (a, b) the values of
    n form an arithmetic progression of step 4a, so each is one slice.
    """
    h6 = np.zeros(n_max + 1, dtype=np.int64)
    a = 1
    while 3 * a * a <= n_max:
        for b in range(-a + 1, a + 1):
            c0 = a + 1 if b < 0 else a  # b < 0 needs |b| < a < c
            n0 = 4 * a * c0 - b * b
            if n0 <= n_max:
                h6[n0 :: 4 * a] += 6
        if 4 * a * a <= n_max:
            h6[4 * a * a] -= 3
        h6[3 * a * a] -= 4
        a += 1
    return h6


def admissible_primes(field: str, r: int, x: int) -> list[int]:
    """Completely split primes p <= x with p > max(5, r^2/4) that do not
    divide the conductor.  Q(zeta_5): p splits completely iff p = 1 mod 5."""
    out = []
    for p in primes_up_to(x):
        if 4 * p <= max(20, r * r):
            continue
        if field == "Q_zeta5" and p % 5 != 1:
            continue
        out.append(p)
    return out


def _tree_sum(terms: list[tuple[int, int]]) -> Fraction:
    """Exact sum of num/den pairs, combined pairwise to keep operands balanced."""
    if not terms:
        return Fraction(0)
    while len(terms) > 1:
        nxt = []
        for i in range(0, len(terms) - 1, 2):
            (n1, d1), (n2, d2) = terms[i], terms[i + 1]
            nxt.append((n1 * d2 + n2 * d1, d1 * d2))
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
    return Fraction(*terms[0])


class ClassSumReference:
    """Expected rows of hurwitz-sum and a1-average for one field, r, x and
    set of checkpoints."""

    def __init__(self, field: str, n_K: int, r: int, x: int, checkpoints):
        self.n_K, self.r = n_K, r
        self.primes = admissible_primes(field, r, x)
        self.h6 = hurwitz6_table(4 * x)
        self.xs = sorted(set(checkpoints) | {x})
        self.hurwitz = self.hurwitz_rows(self.xs)
        self.a1 = self.a1_rows(self.xs)

    def hurwitz_rows(self, xs) -> list[float]:
        """float(exact sum of H(r^2 - 4p)/p over p <= xc, times n_K/2)."""
        out, total, idx = [], Fraction(0), 0
        for xc in xs:
            seg = []
            while idx < len(self.primes) and self.primes[idx] <= xc:
                p = self.primes[idx]
                seg.append((int(self.h6[4 * p - self.r * self.r]), 6 * p))
                idx += 1
            total += _tree_sum(seg)
            out.append(float(total * Fraction(self.n_K, 2)))
        return out

    def a1_rows(self, xs) -> list[float]:
        """n_K * sum of log p * pi * H(-m) / sqrt(m), m = 4p - r^2, which equals
        the sum over square divisors k^2 of m of L(1, chi_{-m/k^2}) / k."""
        out, terms, idx = [], [], 0
        for xc in xs:
            while idx < len(self.primes) and self.primes[idx] <= xc:
                p = self.primes[idx]
                m = 4 * p - self.r * self.r
                terms.append(math.log(p) * math.pi * (int(self.h6[m]) / 6) / math.sqrt(m))
                idx += 1
            out.append(self.n_K * math.fsum(terms))
        return out


def _legendre_table(p: int) -> np.ndarray:
    """chi[v] = (v | p) for 0 <= v < p by Euler's criterion v^((p-1)/2)."""
    base = np.arange(p, dtype=np.int64)
    result = np.ones(p, dtype=np.int64)
    e = (p - 1) // 2
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return np.where(result == p - 1, -1, result)


def box_prime_count(p: int, alphas: range, betas: range, r: int) -> int:
    """Models y^2 = x^3 + a x + b, a in alphas, b in betas, nonsingular mod p
    with trace r, counted with multiplicity."""
    chi = _legendre_table(p)
    xs = np.arange(p, dtype=np.int64)
    cube = xs * xs % p * xs % p
    b = np.array(betas, dtype=np.int64) % p
    count = 0
    for a in alphas:
        a %= p
        vals = (cube + a * xs) % p
        traces = -chi[(vals[None, :] + b[:, None]) % p].sum(axis=1)
        nonsingular = (4 * a * a * a + 27 * b * b) % p != 0
        count += int(((traces == r) & nonsingular).sum())
    return count


class BoxReference:
    """Exact model counts for the low checkpoint and the seeded single primes."""

    def __init__(self, box: dict, r: int, low: int, single_primes):
        self.alphas = range(box["a1"][0] - box["b1"][0], box["a1"][0] + box["b1"][0] + 1)
        self.betas = range(box["a2"][0] - box["b2"][0], box["a2"][0] + box["b2"][0] + 1)
        self.card = len(self.alphas) * len(self.betas)
        self.r, self.low = r, low
        self.low_count = sum(
            box_prime_count(p, self.alphas, self.betas, r) for p in admissible_primes("Q", r, low)
        )
        self.single = {q: box_prime_count(q, self.alphas, self.betas, r) for q in single_primes}


def series_product_value(l_max: int) -> float:
    """(2/pi)(2/3) prod_{3 <= l <= L} l(l^2-l-1)/((l+1)(l-1)^2), the Euler
    product for K = Q, r = 1.  Each factor is 1 - 1/((l+1)(l-1)^2)."""
    logs = [math.log1p(-1.0 / ((ell + 1) * (ell - 1) ** 2)) for ell in primes_up_to(l_max) if ell >= 3]
    return (2 / math.pi) * (2 / 3) * math.exp(math.fsum(logs))


# ---------------------------------------------------------------------------
# checks: one per operation, each returning a list of error strings


def _row_xs(body) -> list[int]:
    return [row["x"] for row in body["rows"]]


def _compare_exact(errors, label, got, want):
    if got != want:
        errors.append(f"{label}: got {got!r}, want {want!r}")


def check_hurwitz(body, ref: ClassSumReference) -> list[str]:
    if body.get("kind") != "hurwitz-sum":
        return [f"kind {body.get('kind')!r} is not hurwitz-sum"]
    errors: list[str] = []
    _compare_exact(errors, "hurwitz row x values", _row_xs(body), ref.xs)
    for row, want in zip(body["rows"], ref.hurwitz):
        _compare_exact(errors, f"hurwitz row x={row['x']}", row["empirical"], want)
    return errors


def check_a1(body, ref: ClassSumReference) -> list[str]:
    if body.get("kind") != "a1-average":
        return [f"kind {body.get('kind')!r} is not a1-average"]
    errors: list[str] = []
    _compare_exact(errors, "a1 row x values", _row_xs(body), ref.xs)
    for row, want in zip(body["rows"], ref.a1):
        if not math.isclose(row["empirical"], want, rel_tol=1e-9, abs_tol=0.0):
            errors.append(f"a1 row x={row['x']}: got {row['empirical']!r}, want {want!r}")
    return errors


def check_box(body, ref: BoxReference) -> list[str]:
    if body.get("kind") != "box-average":
        return [f"kind {body.get('kind')!r} is not box-average"]
    errors: list[str] = []
    rows = {row["x"]: row["empirical"] for row in body["rows"]}
    _compare_exact(errors, f"box row x={ref.low}", rows.get(ref.low), ref.low_count / ref.card)
    for q, want in ref.single.items():
        if q not in rows or q - 1 not in rows:
            errors.append(f"checkpoints {q - 1}, {q} missing")
            continue
        # rows hold cum/card as correctly rounded floats, so round() recovers cum
        got = round(rows[q] * ref.card) - round(rows[q - 1] * ref.card)
        _compare_exact(errors, f"box count at p={q}", got, want)
    return errors


def check_deuring(body, p_max: int) -> list[str]:
    if body.get("kind") != "deuring-check":
        return [f"kind {body.get('kind')!r} is not deuring-check"]
    errors: list[str] = []
    _compare_exact(errors, "mismatches", body["config"]["mismatches"], [])
    want_ps = [p for p in primes_up_to(p_max) if p >= 5]
    _compare_exact(errors, "row primes", _row_xs(body), want_ps)
    for row in body["rows"]:
        # sum_r mass = (p^2 - p)/(p - 1) = p and sum_r H(r^2 - 4p)/2 = p
        if row["empirical"] != float(row["x"]) or row["theoretical"] != float(row["x"]):
            errors.append(f"deuring row p={row['x']}: {row['empirical']!r} vs {row['theoretical']!r}")
    return errors


def check_series(body, l_max: int) -> list[str]:
    if body.get("kind") != "constant":
        return [f"kind {body.get('kind')!r} is not constant"]
    errors: list[str] = []
    prod, series = body["constant"]["product"], body["constant"]["sum"]
    want = series_product_value(l_max)
    if not math.isclose(prod["value"], want, rel_tol=1e-12, abs_tol=0.0):
        errors.append(f"product value {prod['value']!r} is not the closed form {want!r}")
    gap = abs(series["value"] - prod["value"])
    if not gap <= series["tail_estimate"] + prod["tail_estimate"]:
        errors.append(f"sum-product gap {gap!r} exceeds the two tail estimates")
    row = body["rows"][0]
    if row["empirical"] != series["value"] or row["theoretical"] != prod["value"]:
        errors.append("constant row does not echo the two values")
    return errors
