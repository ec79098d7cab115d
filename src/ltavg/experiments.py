"""Desk-scale statistics for reductions of curve boxes over a Galois field.

Every fixed-trace count (box_average, box_variance, pi_E_rf) is one
reduce-and-match pipeline.  Each side of a box is a matrix with one row of
power-basis coordinates per model (a single curve is a one-row side).  At
each prime of degree f the rows are reduced to element indices of the residue
field F_p[t]/(modulus), and the two sides are matched by one trace table with
a cell per model: trace_matrix over F_p, or field_trace_matrix over F_{p^f},
which share one kernel; residue fields of 2^24 elements or more are refused
before the first prime.  The exact reduction counts at fixed primes match the
same reductions against isomorphism orbits.

Box and reduction counts are exact integers; class-number sums are
correctly rounded from a certified fixed-point prefix; float aggregates use
compensated summation in a canonical prime order.  The prime
loop of the box runners can be sharded across forked worker processes, each
handed its configuration as arguments, and results are merged in canonical
order, so any worker count produces an identical report body.
"""

from __future__ import annotations

import math
import os
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import isqrt

import numpy as np

from . import curves, gfpoly
from .classnumber import hurwitz_values
from .curves import CurveModel, ReducedCurve, SmallField, field_trace_matrix, trace_matrix
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
from .report import ExperimentReport, constant_provenance, make_row, phase

DESK_CARDINALITY_BOUND = 10**6
_SUM_BITS = 128  # fraction bits of the fixed-point Hurwitz prefix


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


def get_context(method: str):
    """multiprocessing.get_context, imported at the first fork: a run that
    never forks does not pay for loading multiprocessing."""
    import multiprocessing

    return multiprocessing.get_context(method)


def _map_primes(worker, items: list, workers: int, **config) -> list:
    """Run worker(shard, **config) over items, optionally sharded across forks.

    At most one fork per CPU runs, whatever workers asks for.  The config
    travels to each child bound to the worker; the children's result lists
    are concatenated in shard order, and the runners sort or sum them, so the
    worker count never changes a result.
    """
    workers = min(workers, os.cpu_count() or 1)
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
    coprime to 6*disc.  Raises ValueError, before any prime is visited, when
    the largest residue field p^f reaches 2^24, the bound of the trace kernel."""
    if f < 1:
        raise ValueError("degree f must be positive")
    if f == 1:
        ps = admissible_primes(field, x, r)
    else:
        ps = [p for p in sieve_primes(isqrt(x)).tolist() if p**f <= x and p > 3 and field.disc % p != 0]
    if ps and ps[-1] ** f >= curves.FIELD_SIZE_BOUND:
        raise ValueError(f"the residue fields reach {ps[-1]}^{f} elements; p^f must be below 2^24")
    return ps


def _model_coordinate_matrix(centers, radii) -> np.ndarray:
    """One row of power-basis coordinates per model on one side of a box."""
    axes = [np.arange(c - r, c + r + 1, dtype=np.int64) for c, r in zip(centers, radii)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def _box_sides(box: CurveBox) -> tuple[np.ndarray, np.ndarray]:
    return _model_coordinate_matrix(box.a1, box.b1), _model_coordinate_matrix(box.a2, box.b2)


def _reduce(coords: np.ndarray, pr: DegreeFPrime) -> np.ndarray:
    """Each row's element sum_j coords[j] * theta^j as its index in the residue
    field F_p[t]/(modulus): its coefficients as base-p digits, constant first."""
    p, n = pr.p, coords.shape[1]
    if n * p * p >= 2**63:
        raise OverflowError("coordinate reduction needs n_K * p^2 < 2^63")
    # row j: the digits of theta^j = t^j mod (modulus, p)
    powers = np.array(gfpoly.power_digits(pr.modulus, n, p), dtype=np.int64)
    # rows of a single curve may hold integers beyond int64
    reduced = np.asarray(coords % p, dtype=np.int64)
    return reduced @ powers % p @ p ** np.arange(pr.f, dtype=np.int64)


def _prime_matches(field: GaloisFieldSpec, A: np.ndarray, B: np.ndarray, r: int, p: int, f: int):
    """For each degree-f prime above p, the (|A|, |B|) mask of the model pairs
    that reduce to a nonsingular curve with trace r there."""
    if f == 1:
        primes = [DegreeFPrime(p, 1, ((-root) % p, 1)) for root in field.roots_mod(p)]
    else:
        primes = degree_f_primes(field, p, f)
    sides = np.concatenate([A, B])  # one power matrix per prime reduces both
    for pr in primes:
        reduced = _reduce(sides, pr)
        a_idx, b_idx = reduced[: len(A)], reduced[len(A) :]
        if f == 1:
            traces, nonsingular = trace_matrix(p, a_idx, b_idx)
        else:
            traces, nonsingular = field_trace_matrix(SmallField(p, pr.modulus), a_idx, b_idx)
        yield (traces == r) & nonsingular


def _count_worker(primes, field, A, B, r, f):
    """(p, number of models A x B with trace r at the primes above p)."""
    return [
        (p, sum(int(np.count_nonzero(match)) for match in _prime_matches(field, A, B, r, p, f)))
        for p in primes
    ]


def _variance_worker(primes, field, A, B, r):
    """Per-model counts of the degree-1 primes with trace r, as one matrix."""
    counts = np.zeros((len(A), len(B)), dtype=np.int64)
    for p in primes:
        for match in _prime_matches(field, A, B, r, p, 1):
            counts += match
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


def box_average(field, box: CurveBox, r: int, f: int, x, checkpoints=(), workers: int = 1) -> ExperimentReport:
    """Average prime count over the box, compared for f=1 against the
    predicted multiple of pi_half at each checkpoint."""
    started = time.time()
    field = _as_field(field)
    _check_box(field, box)
    r, f, x = int(r), int(f), int(x)
    xs = _merge_checkpoints(x, checkpoints)
    A, B = _box_sides(box)
    per_prime = _map_primes(_count_worker, _rational_primes(field, f, x, r), workers, field=field, A=A, B=B, r=r, f=f)
    constant = constant_product(field, r) if f == 1 else None
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
    parts = _map_primes(_variance_worker, _rational_primes(field, 1, x, r), workers, field=field, A=A, B=B, r=r)
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


def hurwitz_sum_report(field, r: int, x, checkpoints=(), workers: int = 1) -> ExperimentReport:
    """H(r^2-4p)/p summed over admissible split primes up to each checkpoint,
    scaled by half the field degree and correctly rounded; workers is ignored.

    T = sum of floor(2^B * 6H / 6p) puts 2^B times the sum in [T, T + end), and
    rounding is monotone: if both ends round alike, that float is the row
    (Ziv's test), else that row alone is summed exactly in Fractions."""
    started = time.time()
    field = _as_field(field)
    r, x = int(r), int(x)
    if x < 7:
        raise ValueError("x must be at least 7")
    xs = _merge_checkpoints(x, checkpoints)
    parts = _hurwitz_parts(field, r, x)
    constant = constant_product(field, r)
    rows = []
    T = 0
    ends = _checkpoint_ends([p for p, _, _ in parts], xs)
    for xc, start, end in zip(xs, [0] + ends, ends):
        T += sum((h << _SUM_BITS) // q for _, h, q in parts[start:end])
        # int true division rounds correctly, as float(Fraction) does
        value = T * field.n_K / (2 << _SUM_BITS)
        if value != (T + end) * field.n_K / (2 << _SUM_BITS):
            value = float(sum(Fraction(h, q) for _, h, q in parts[:end]) * field.n_K / 2)
        rows.append(make_row(xc, value, constant.value * pi_half(xc)))
    report = ExperimentReport(
        kind="hurwitz-sum",
        config={"field": field.name, "r": r, "x": x},
        rows=rows,
        constant=constant_provenance(constant),
    )
    return report.finish(started)


def a1_report(field, r: int, x, checkpoints=(), workers: int = 1) -> ExperimentReport:
    """The degree-weighted average of L(1, chi) over admissible primes up to
    each checkpoint and square divisors of 4p - r^2; workers is ignored.

    Each prime's term is log p * sum over k of L(1, chi_{-m/k^2}) / k, with
    m = 4p - r^2 and k^2 | m running over the square divisors that leave a
    discriminant.  The k-sum telescopes to pi * H(-m) / sqrt(m), with 6 H(-m)
    read from _hurwitz_parts, so hurwitz_values is asked for these m alone.
    """
    started = time.time()
    field = _as_field(field)
    r, x = int(r), int(x)
    if x < 7:
        raise ValueError("x must be at least 7")
    xs = _merge_checkpoints(x, checkpoints)
    parts = [
        (p, math.pi * (h6 / 6) / math.sqrt(4 * p - r * r) * math.log(p))
        for p, h6, _ in _hurwitz_parts(field, r, x)
    ]
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

    Above each p the degree-1 prime of least root is taken.  Each side's
    residues there are matched pairwise against the target's isomorphism
    orbit, so the match matrix has one cell per box model, whatever the primes.
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
    orbits = []  # each target's orbit, as ascending codes a * p + b
    num, den = box.volume, 1
    for (target, _), p in zip(targets, ps):
        if target.f != 1 or target.p != p:
            raise ValueError("target must be a prime-field curve over the same p")
        a0, b0 = curves._as_prime_field_int(target.a, p), curves._as_prime_field_int(target.b, p)
        if curves.is_singular(a0, b0, p):
            raise ValueError("singular target rejected")
        orbits.append(curves._orbit_codes(a0, b0, p))
        num, den = num * (p - 1), den * p * p * curves.aut_size(a0, b0, p)
    A, B = _box_sides(box)
    match = np.ones((len(A), len(B)), dtype=bool)
    for pr, orbit in zip(primes, orbits):
        # binary search in the sorted orbit, so the |A| x |B| codes are never
        # sorted; the sentinel p^2 exceeds every code
        codes = _reduce(A, pr)[:, None] * pr.p + _reduce(B, pr)[None, :]
        match &= np.append(orbit, pr.p**2)[np.searchsorted(orbit, codes)] == codes
    # one int / int division, so the float is correctly rounded
    return int(np.count_nonzero(match)), num / den


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
    p - 1.  One trace_counts call per prime gives every r at once, read off
    the correlations of the trace kernel's log-coordinate rows, so a prime
    costs O(p log p).  The expected masses H(r^2 - 4p)/2 come from
    one hurwitz_values call on every n <= 4 p_max, which the primes then read
    as 4p - r^2, so mass and expected mass agree exactly when
    12 * count = (p - 1) * 6H.  Raises ValueError for p_max < 5, where there
    is no prime to check, and for p_max >= 2^24 before any table is built.
    """
    started = time.time()
    p_max = int(p_max)
    if p_max < 5:
        raise ValueError(f"p_max must be at least 5, got {p_max}")
    if p_max >= curves.FIELD_SIZE_BOUND:
        raise ValueError(f"p_max must be below 2^24, the bound of trace_counts, got {p_max}")
    rows = []
    mismatches = []
    T = hurwitz_values(np.arange(4 * p_max + 1, dtype=np.int64))
    for p in sieve_primes(p_max).tolist():
        if p < 5:
            continue
        counts = curves.trace_counts(p)
        r_max = isqrt(4 * p - 1)
        r = np.arange(-r_max, r_max + 1)
        H6 = T[4 * p - r * r]
        mismatches += [[p, t] for t in r[12 * counts != (p - 1) * H6].tolist()]
        # int true division rounds correctly, as float(Fraction) does
        rows.append(make_row(p, int(counts.sum()) / (p - 1), int(H6.sum()) / 12))
    report = ExperimentReport(
        kind="deuring-check",
        config={"p_max": p_max, "mismatches": mismatches},
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
    prov, metadata = {}, {}
    series = prod = None
    if method in ("product", "both"):
        with phase(metadata, "product"):
            prod = constant_product(field, r, l_max)
        prov["product"] = constant_provenance(prod)
    if method in ("sum", "both"):
        with phase(metadata, "sum") as counters:
            series = constant_sum(field, r, k_max, n_max, counters)
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
        metadata=metadata,
    )
    return report.finish(started)
