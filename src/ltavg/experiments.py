"""Desk-scale statistics for reductions of curve boxes over a Galois field.

Every fixed-trace count (box_average, box_variance, pi_E_rf) is one
reduce-and-match pipeline.  Each side of a box is a matrix with one row of
power-basis coordinates per model (a single curve is a one-row side).  At
each prime of degree f the rows are reduced to residues mod p (f = 1) or to
element indices of F_p[t]/(modulus) (f > 1), and the distinct residues of the
two sides are matched by one trace table: trace_matrix over F_p, or
field_trace_matrix over F_{p^f}.  The multiplicities of the distinct residues
turn the table into box totals or per-model counts, and their bincounts are
the exact reduction counts at fixed primes.

Quantities backed by exact identities (box counts, class-number sums,
reduction counts) are accumulated in integer or rational arithmetic; float
aggregates use compensated summation in a canonical prime order.  The prime
loop of the box runners can be sharded across forked worker processes, each
handed its configuration as arguments, and results are merged in canonical
order, so any worker count produces an identical report body.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import isqrt
from multiprocessing import get_context

import numpy as np

from . import curves
from .classnumber import hurwitz_values
from .curves import CurveModel, ReducedCurve, field_trace_matrix, small_field, trace_matrix
from .ltconstant import constant_product, constant_sum, pi_half
from .numberfield import (
    DegreeFPrime,
    GaloisFieldSpec,
    _as_field,
    admissible_primes,
    degree_f_primes,
    empirical_norm_residues,
)
from .primes import is_prime, sieve_primes
from .report import ExperimentReport, constant_provenance, make_row

DESK_CARDINALITY_BOUND = 10**6


@dataclass(frozen=True)
class CurveBox:
    """A coordinate box of Weierstrass models: centers a1, a2 and radii b1, b2.

    Every vector has one entry per field coordinate.  The box holds the models
    y^2 = x^3 + alpha*x + beta with alpha in a1 +- b1 and beta in a2 +- b2
    componentwise; identical curves may repeat and count with multiplicity.
    """

    a1: tuple
    b1: tuple
    a2: tuple
    b2: tuple

    def __post_init__(self):
        for name in ("a1", "b1", "a2", "b2"):
            object.__setattr__(self, name, tuple(int(v) for v in getattr(self, name)))
        n = len(self.a1)
        if n == 0 or any(len(getattr(self, name)) != n for name in ("b1", "a2", "b2")):
            raise ValueError("center and radius vectors need equal positive length")
        if any(v <= 0 for v in self.b1 + self.b2):
            raise ValueError("radii must be positive")

    @property
    def n(self) -> int:
        return len(self.a1)

    @property
    def cardinality(self) -> int:
        out = 1
        for rad in self.b1 + self.b2:
            out *= 2 * rad + 1
        return out

    @property
    def volume(self) -> int:
        out = 4**self.n
        for r1, r2 in zip(self.b1, self.b2):
            out *= r1 * r2
        return out

    def describe(self) -> str:
        def vec(v):
            return "(" + ",".join(str(c) for c in v) + ")"

        return f"a1={vec(self.a1)};b1={vec(self.b1)};a2={vec(self.a2)};b2={vec(self.b2)}"

    @classmethod
    def from_string(cls, text: str) -> "CurveBox":
        parts = {}
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, sep, value = chunk.partition("=")
            if not sep:
                raise ValueError(f"malformed box component {chunk!r}")
            parts[key.strip()] = _parse_vector(value)
        missing = {"a1", "b1", "a2", "b2"} - set(parts)
        if missing:
            raise ValueError(f"box string lacks {sorted(missing)}")
        return cls(a1=parts["a1"], b1=parts["b1"], a2=parts["a2"], b2=parts["b2"])


def _parse_vector(text: str) -> tuple:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    items = [t for t in text.replace(",", " ").split() if t]
    if not items:
        raise ValueError("empty vector in box string")
    return tuple(int(t) for t in items)


def _check_box(field: GaloisFieldSpec, box: CurveBox) -> None:
    if box.n != field.n_K:
        raise ValueError(f"box has {box.n} coordinates but the field needs {field.n_K}")
    if box.cardinality > DESK_CARDINALITY_BOUND:
        raise ValueError(f"box cardinality {box.cardinality} exceeds the desk bound")


def _merge_checkpoints(x: int, checkpoints) -> list[int]:
    xs = sorted({int(c) for c in checkpoints} | {int(x)})
    if xs[0] < 2:
        raise ValueError("checkpoints must be at least 2")
    if xs[-1] > int(x):
        raise ValueError("checkpoints cannot exceed x")
    return xs


def _checkpoint_ends(keys: list, xs: list[int]) -> list[int]:
    """For each checkpoint, how many of the ascending keys are at most it."""
    return [bisect_right(keys, xc) for xc in xs]


# ---------------------------------------------------------------------------
# prime-sharded execution


def _map_primes(worker, items: list, workers: int, **config) -> list:
    """Run worker(shard, **config) over items, optionally sharded across forks.

    The config travels to each child bound to the worker; the children's
    result lists are concatenated in shard order, and the runners sort or
    sum them, so the worker count never changes a result.
    """
    if workers <= 1 or len(items) < 2 * workers:
        return list(worker(items, **config))
    shards = [items[i::workers] for i in range(workers)]
    with get_context("fork").Pool(processes=workers) as pool:
        parts = pool.map(partial(worker, **config), shards)
    return [out for part in parts for out in part]


# ---------------------------------------------------------------------------
# reduce and match: the per-prime count of models with trace r


def _rational_primes(field: GaloisFieldSpec, f: int, x: int, r: int) -> list[int]:
    """The rational primes whose degree-f primes the counts visit, ascending:
    the admissible split primes up to x for f = 1, else the p with p^f <= x
    coprime to 6*disc."""
    if f < 1:
        raise ValueError("degree f must be positive")
    if f == 1:
        return admissible_primes(field, x, r)
    top = int(round(x ** (1.0 / f)))
    while (top + 1) ** f <= x:
        top += 1
    while top > 1 and top**f > x:
        top -= 1
    return [p for p in sieve_primes(top).tolist() if p > 3 and field.disc % p != 0]


def _model_coordinate_matrix(centers, radii) -> np.ndarray:
    """One row of power-basis coordinates per model on one side of a box."""
    axes = [np.arange(c - r, c + r + 1, dtype=np.int64) for c, r in zip(centers, radii)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def _box_sides(box: CurveBox) -> tuple[np.ndarray, np.ndarray]:
    return _model_coordinate_matrix(box.a1, box.b1), _model_coordinate_matrix(box.a2, box.b2)


def _reduce(coords: np.ndarray, pr: DegreeFPrime) -> np.ndarray:
    """Each row's element sum_j coords[j] * theta^j at the prime: its residue
    mod p for f = 1, else its SmallField element index."""
    p, n = pr.p, coords.shape[1]
    if n * p * p >= 2**63:
        raise OverflowError("coordinate reduction needs n_K * p^2 < 2^63")
    # rows of a single curve may hold integers beyond int64
    reduced = np.asarray(coords % p, dtype=np.int64)
    if pr.f == 1:
        return reduced @ np.array([pow(pr.root, j, p) for j in range(n)], dtype=np.int64) % p
    fld = small_field(p, pr.modulus)
    t_powers = fld.digits[[fld.element_index((0,) * j + (1,)) for j in range(n)]]
    return (reduced @ t_powers % p) @ fld._pvec


def _prime_matches(field: GaloisFieldSpec, A: np.ndarray, B: np.ndarray, r: int, p: int, f: int):
    """For each degree-f prime above p: which pairs of the two sides' distinct
    residues give a nonsingular model with trace r, and each side's
    (inverse index, multiplicity) over its distinct residues."""
    if f == 1:
        primes = [DegreeFPrime(p, 1, ((-root) % p, 1)) for root in field.roots_mod(p)]
    else:
        primes = degree_f_primes(field, p, f)
    for pr in primes:
        av, ia, ca = np.unique(_reduce(A, pr), return_inverse=True, return_counts=True)
        bv, ib, cb = np.unique(_reduce(B, pr), return_inverse=True, return_counts=True)
        if f == 1:
            traces, nonsingular = trace_matrix(p, av, bv)
        else:
            traces, nonsingular = field_trace_matrix(small_field(p, pr.modulus), av, bv)
        yield (traces == r) & nonsingular, (ia, ca), (ib, cb)


def _count_worker(primes, field, A, B, r, f):
    """(p, number of models A x B with trace r at the primes above p)."""
    out = []
    for p in primes:
        total = 0
        for match, (_, ca), (_, cb) in _prime_matches(field, A, B, r, p, f):
            total += int(ca @ match @ cb)
        out.append((p, total))
    return out


def _variance_worker(primes, field, A, B, r):
    """Per-model counts of the degree-1 primes with trace r, as one matrix."""
    counts = np.zeros((len(A), len(B)), dtype=np.int64)
    for p in primes:
        for match, (ia, _), (ib, _) in _prime_matches(field, A, B, r, p, 1):
            counts += match[ia[:, None], ib[None, :]]
    return [counts]


def pi_E_rf(field, curve: CurveModel, r: int, f: int, x) -> int:
    """Number of degree-f primes with norm at most x where the reduced curve
    has trace of Frobenius r.  Primes of bad reduction are skipped."""
    field = _as_field(field)
    if x < 2:
        raise ValueError("x must be at least 2")
    if len(curve.alpha) != field.n_K:
        raise ValueError(f"curve coordinates must have length {field.n_K}")
    r, f, x = int(r), int(f), int(x)
    A = np.array([curve.alpha], dtype=object)
    B = np.array([curve.beta], dtype=object)
    return sum(c for _, c in _count_worker(_rational_primes(field, f, x, r), field, A, B, r, f))


# ---------------------------------------------------------------------------
# experiment runners


def box_average(field, box: CurveBox, r: int, f: int, x, checkpoints=(), constant=None, workers: int = 1) -> ExperimentReport:
    """Average prime count over the box, compared for f=1 against the
    predicted multiple of pi_half at each checkpoint."""
    started = time.time()
    field = _as_field(field)
    _check_box(field, box)
    r, f, x = int(r), int(f), int(x)
    xs = _merge_checkpoints(x, checkpoints)
    A, B = _box_sides(box)
    per_prime = _map_primes(_count_worker, _rational_primes(field, f, x, r), workers, field=field, A=A, B=B, r=r, f=f)
    if f > 1:
        constant = None
    elif constant is None:
        constant = constant_product(field, r)
    per_prime.sort()
    card = box.cardinality
    cums = list(accumulate((c for _, c in per_prime), initial=0))
    rows = []
    for xc, end in zip(xs, _checkpoint_ends([p**f for p, _ in per_prime], xs)):
        theoretical = constant.value * pi_half(xc) if constant is not None else None
        rows.append(make_row(xc, cums[end] / card, theoretical))
    report = ExperimentReport(
        kind="box-average",
        config={
            "field": field.name,
            "r": r,
            "f": f,
            "x": x,
            "box": box.describe(),
            "cardinality": card,
            "volume": box.volume,
        },
        rows=rows,
        constant=constant_provenance(constant) if constant is not None else None,
    )
    return report.finish(started)


def box_variance(field, box: CurveBox, r: int, x, C: float, workers: int = 1) -> float:
    """Mean squared deviation of per-curve prime counts from C*pi_half(x)."""
    field = _as_field(field)
    _check_box(field, box)
    r, x = int(r), int(x)
    A, B = _box_sides(box)
    parts = _map_primes(_variance_worker, admissible_primes(field, x, r), workers, field=field, A=A, B=B, r=r)
    dev = sum(parts).astype(np.float64) - C * pi_half(x)
    return float(np.mean(dev * dev))


def _hurwitz_parts(field: GaloisFieldSpec, r: int, x: int) -> list:
    """(p, 6 H(r^2 - 4p), 6p) for each admissible prime p <= x, ascending.

    One hurwitz_values call counts the reduced forms of these discriminants
    alone.
    """
    ps = admissible_primes(field, x, r)
    H6 = hurwitz_values(4 * np.array(ps, dtype=np.int64) - r * r)
    return [(p, h, 6 * p) for p, h in zip(ps, H6.tolist())]


def _tree_sum(pairs: list) -> tuple[int, int]:
    """The sum of the fractions num/den in pairs, added pairwise so the
    operands stay balanced; unreduced."""
    if not pairs:
        return 0, 1
    while len(pairs) > 1:
        merged = [(a * d + c * b, b * d) for (a, b), (c, d) in zip(pairs[::2], pairs[1::2])]
        pairs = merged + pairs[len(merged) * 2 :]
    return pairs[0]


def hurwitz_sum_report(field, r: int, x, checkpoints=(), constant=None, workers: int = 1) -> ExperimentReport:
    """Exact-rational accumulation of H(r^2-4p)/p over admissible split primes
    up to each checkpoint, scaled by half the field degree.  The sum reads
    one hurwitz_values entry per prime, so workers is accepted and ignored."""
    started = time.time()
    field = _as_field(field)
    r, x = int(r), int(x)
    if x < 7:
        raise ValueError("x must be at least 7")
    xs = _merge_checkpoints(x, checkpoints)
    parts = _hurwitz_parts(field, r, x)
    if constant is None:
        constant = constant_product(field, r)
    rows = []
    num, den = 0, 1
    ends = _checkpoint_ends([p for p, _, _ in parts], xs)
    for xc, start, end in zip(xs, [0] + ends, ends):
        hn, hd = _tree_sum([(hn, hd) for _, hn, hd in parts[start:end]])
        num, den = num * hd + hn * den, den * hd
        # int true division rounds correctly, as float(Fraction) does
        rows.append(make_row(xc, num * field.n_K / (den * 2), constant.value * pi_half(xc)))
    report = ExperimentReport(
        kind="hurwitz-sum",
        config={"field": field.name, "r": r, "x": x},
        rows=rows,
        constant=constant_provenance(constant),
    )
    return report.finish(started)


def _a1_parts(field: GaloisFieldSpec, r: int, x: int) -> list:
    """(p, log p * sum over k of L(1, chi_{-m/k^2}) / k) with m = 4p - r^2 and
    k^2 | m running over the square divisors that leave a discriminant.

    The k-sum telescopes to pi * H(-m) / sqrt(m), with 6 H(-m) read from
    _hurwitz_parts, so hurwitz_values is asked for these m alone.
    """
    return [
        (p, math.pi * (h6 / 6) / math.sqrt(4 * p - r * r) * math.log(p))
        for p, h6, _ in _hurwitz_parts(field, r, x)
    ]


def a1_report(field, r: int, x, checkpoints=(), constant=None, workers: int = 1) -> ExperimentReport:
    """The degree-weighted average of L(1, chi) over admissible primes up to
    each checkpoint and square divisors of 4p - r^2; workers is ignored."""
    started = time.time()
    field = _as_field(field)
    r, x = int(r), int(x)
    if x < 7:
        raise ValueError("x must be at least 7")
    xs = _merge_checkpoints(x, checkpoints)
    parts = _a1_parts(field, r, x)
    if constant is None:
        constant = constant_product(field, r)
    rows = []
    terms = [t for _, t in parts]
    for xc, end in zip(xs, _checkpoint_ends([p for p, _ in parts], xs)):
        empirical = field.n_K * math.fsum(terms[:end])
        rows.append(make_row(xc, empirical, (math.pi / 2) * constant.value * xc))
    report = ExperimentReport(
        kind="a1-average",
        config={"field": field.name, "r": r, "x": x},
        rows=rows,
        constant=constant_provenance(constant),
    )
    return report.finish(started)


# ---------------------------------------------------------------------------
# reduction counts at fixed primes


def _count_reductions(field, box: CurveBox, targets: list) -> tuple[int, float]:
    """Exact number of box models whose reduction at each degree-1 prime of
    targets, a list of (ReducedCurve, rational prime p), is isomorphic to the
    target there, with the main term V * prod(p - 1) / prod(p^2 * #Aut).

    Above each p the degree-1 prime of least root is taken.  Each box side is
    one bincount of its residues at all the primes read as one mixed-radix
    code, and the product of the targets' isomorphism orbits indexes it.
    """
    field = _as_field(field)
    _check_box(field, box)
    primes = []
    for _, p in targets:
        p = int(p)
        if p <= 3 or not is_prime(p):
            raise ValueError(f"p={p} is not a prime greater than 3")
        options = degree_f_primes(field, p, 1)
        if not options:
            raise ValueError(f"p={p} has no degree-1 primes here")
        primes.append(min(options, key=lambda pr: pr.root))
    ps = [pr.p for pr in primes]
    if len(set(ps)) < len(ps):
        raise ValueError("the two primes must lie over distinct rational primes")
    orbit_a = orbit_b = np.zeros(1, dtype=np.int64)  # the orbit product's codes on each side
    num, den = box.volume, 1
    for (target, _), p in zip(targets, ps):
        if target.f != 1 or target.p != p:
            raise ValueError("target must be a prime-field curve over the same p")
        a0, b0 = curves._as_prime_field_int(target.a, p), curves._as_prime_field_int(target.b, p)
        if curves.is_singular(a0, b0, p):
            raise ValueError("singular target rejected")
        orbit = np.array(curves.isomorphism_orbit(a0, b0, p), dtype=np.int64)
        orbit_a = (orbit_a[:, None] * p + orbit[:, 0]).ravel()
        orbit_b = (orbit_b[:, None] * p + orbit[:, 1]).ravel()
        num, den = num * (p - 1), den * p * p * curves.aut_size(a0, b0, p)
    mult_a, mult_b = (
        np.bincount(np.ravel_multi_index([_reduce(side, pr) for pr in primes], ps), minlength=math.prod(ps))
        for side in _box_sides(box)
    )
    # one int / int division, so the float is correctly rounded
    return int(mult_a[orbit_a] @ mult_b[orbit_b]), num / den


def count_box_reductions(field, box: CurveBox, target: ReducedCurve, prime):
    """Exact number of box models whose reduction at the prime is isomorphic
    to the target, with the first-order prediction (p-1)*V/(p^2*#Aut).

    Returns the pair (exact_count, main_term).
    """
    return _count_reductions(field, box, [(target, prime)])


def count_box_reductions_pair(field, box: CurveBox, target1: ReducedCurve, prime1, target2: ReducedCurve, prime2):
    """Joint version of count_box_reductions at two distinct rational primes."""
    return _count_reductions(field, box, [(target1, prime1), (target2, prime2)])


# ---------------------------------------------------------------------------
# ideal counts in progressions


def theta_report(field, q: int, a: int, x, checkpoints=()) -> ExperimentReport:
    started = time.time()
    field = _as_field(field)
    q, a, x = int(q), int(a), int(x)
    if math.gcd(a, q) != 1:
        raise ValueError("the residue a must be coprime to q")
    xs = _merge_checkpoints(x, checkpoints)
    group = empirical_norm_residues(field, q, max(10_000, x))
    phi_k = len(group)
    ps = sorted(p for p in field.split_primes(x).tolist() if p % q == a % q)
    logs = [math.log(p) for p in ps]
    rows = [
        make_row(xc, field.n_K * math.fsum(logs[:end]), xc / phi_k)
        for xc, end in zip(xs, _checkpoint_ends(ps, xs))
    ]
    report = ExperimentReport(
        kind="theta",
        config={
            "field": field.name,
            "q": q,
            "a": a,
            "x": x,
            "norm_classes": sorted(group),
            "residue_in_group": a % q in group,
        },
        rows=rows,
    )
    return report.finish(started)


# ---------------------------------------------------------------------------
# mass identity sweep


def deuring_check(p_max: int) -> ExperimentReport:
    """Verify the isogeny-mass identity for every prime 5 <= p <= p_max and
    every trace in the Hasse range; mismatches are listed in the config.

    The mass of trace r is the number of trace-r models over F_p divided by
    p - 1.  One trace_counts call per prime gives every r at once, from one
    curve per j-invariant and its quadratic twist, so a prime costs O(p^2).
    The expected masses H(r^2 - 4p)/2 come from one hurwitz_values call on
    every n <= 4 p_max, which the primes then read as 4p - r^2.
    """
    started = time.time()
    rows = []
    mismatches = []
    T = hurwitz_values(np.arange(4 * max(int(p_max), 0) + 1, dtype=np.int64))
    for p in sieve_primes(int(p_max)).tolist():
        if p < 5:
            continue
        mass_total = Fraction(0)
        expected_total = Fraction(0)
        counts = curves.trace_counts(p)
        r_max = isqrt(4 * p - 1)
        for r in range(-r_max, r_max + 1):
            mass = Fraction(int(counts[r + r_max]), p - 1)
            expected = Fraction(int(T[4 * p - r * r]), 12)
            if mass != expected:
                mismatches.append([p, r])
            mass_total += mass
            expected_total += expected
        rows.append(make_row(p, float(mass_total), float(expected_total)))
    report = ExperimentReport(
        kind="deuring-check",
        config={"p_max": int(p_max), "mismatches": mismatches},
        rows=rows,
    )
    return report.finish(started)


def constant_report(field, r: int, method: str = "both", k_max: int = 200, n_max: int = 5000, l_max: int = 100_000, workers: int = 1) -> ExperimentReport:
    """Compute the average-constant estimate(s) and wrap them in a report.

    With method="both" the row compares the series value (empirical) against
    the product value (theoretical), so the ratio exposes the gap.  Neither
    method runs in workers, so workers is accepted and ignored.
    """
    started = time.time()
    field = _as_field(field)
    r = int(r)
    if method not in ("sum", "product", "both"):
        raise ValueError("method must be sum, product, or both")
    prov = {}
    series = prod = None
    if method in ("product", "both"):
        prod = constant_product(field, r, l_max)
        prov["product"] = constant_provenance(prod)
    if method in ("sum", "both"):
        series = constant_sum(field, r, k_max, n_max)
        prov["sum"] = constant_provenance(series)
    if method == "both":
        rows = [make_row(n_max, series.value, prod.value)]
    elif method == "sum":
        rows = [make_row(n_max, series.value)]
    else:
        rows = [make_row(l_max, prod.value)]
    report = ExperimentReport(
        kind="constant",
        config={"field": field.name, "r": r, "method": method},
        rows=rows,
        constant=prov,
    )
    return report.finish(started)
