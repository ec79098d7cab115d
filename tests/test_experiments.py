"""Desk-scale experiment harness: prime counts over boxes, weighted sums,
reduction counting, and report determinism."""

import json
import math
import os
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from _oracles import extension_trace_euler, models_isomorphic
from ltavg import (
    CurveBox,
    CurveModel,
    aut_size,
    box_average,
    box_variance,
    count_box_reductions,
    count_box_reductions_pair,
    deuring_check,
    parse_field,
    pi_E_rf,
    pi_half,
)
from ltavg import curves, experiments
from ltavg.cli import dispatch
from ltavg.curves import ReducedCurve
from ltavg.experiments import (
    _box_sides,
    _hurwitz_parts,
    a1_report,
    constant_report,
    hurwitz_sum_report,
    theta_report,
)
from ltavg.ltconstant import constant_product
from ltavg.numberfield import PRESETS, admissible_primes, degree_f_primes
from ltavg.primes import is_prime
from ltavg.report import ExperimentReport, constant_provenance, make_row, phase


def _Q():
    return parse_field("Q")


# ---------------------------------------------------------------- CurveBox

def test_curve_box_geometry():
    box = CurveBox((0,), (15,), (0,), (15,))
    assert box.n == 1
    assert box.cardinality == 31 * 31
    assert box.volume == 4 * 15 * 15
    assert sorted(set(_box_sides(box)[0][:, 0].tolist())) == list(range(-15, 16))


def test_curve_box_degree_two():
    box = CurveBox((0, 1), (2, 3), (4, 5), (6, 7))
    assert box.n == 2
    assert box.cardinality == 5 * 7 * 13 * 15
    assert box.volume == 16 * 2 * 3 * 6 * 7


def test_curve_box_string_roundtrip():
    box = CurveBox((12345,), (15,), (67890,), (15,))
    assert CurveBox.from_string(box.describe()) == box
    assert CurveBox.from_string("a1=(0);b1=(5);a2=(0);b2=(5)") == CurveBox(
        (0,), (5,), (0,), (5,)
    )


def test_curve_box_validation():
    with pytest.raises(ValueError):
        CurveBox((0,), (5,), (0,), (5, 6))  # mismatched lengths
    with pytest.raises(ValueError):
        CurveBox((0,), (0,), (0,), (5,))  # empty side
    with pytest.raises(ValueError):
        CurveBox.from_string("a1=(0);b1=(5)")


# ---------------------------------------------------------------- pi_E_rf

def test_pi_counts_match_direct_filtered_enumeration():
    Q = _Q()
    curve = CurveModel((1,), (1,))
    # direct recount from the split-prime stream
    from ltavg import trace_mod_p

    for r in (0, 1, -2):
        want = 0
        for p in admissible_primes(Q, 400, r):
            if (4 + 27) % p == 0:
                continue
            if trace_mod_p(1, 1, p) == r:
                want += 1
        assert pi_E_rf(Q, curve, r, 1, 400) == want


def test_pi_trace_window_empty():
    Q = _Q()
    # 4p never exceeds r^2 below x, so no prime qualifies
    assert pi_E_rf(Q, CurveModel((1,), (1,)), 20, 1, 50) == 0


def test_pi_additivity_over_traces():
    Q = _Q()
    x = 500
    from ltavg import trace_mod_p

    good = 0
    for p in admissible_primes(Q, x, 1):
        if (4 + 27) % p:
            good += 1
    r_bound = int(2 * math.isqrt(x)) + 2
    total = sum(pi_E_rf(Q, CurveModel((1,), (1,)), r, 1, x) for r in range(-r_bound, r_bound + 1))
    assert total == good


def test_pi_extension_degree():
    Qi = parse_field("Q_i")
    curve = CurveModel((1, 0), (3, 0))
    # the only inert prime with norm p^2 <= 50 is p = 7, and the trace of
    # this model over its residue field is -10 (checked in the curves tests)
    assert pi_E_rf(Qi, curve, -10, 2, 50) == 1
    assert pi_E_rf(Qi, curve, -9, 2, 50) == 0


# ---------------------------------------------------------------- averages

def test_hurwitz_prime_sum_tiny_value_exact():
    # only p = 7 contributes below 10: H(-27)/7 / 2 = (4/3)/14
    assert hurwitz_sum_report(_Q(), 1, 10).rows[-1]["empirical"] == float(Fraction(2, 21))


def test_hurwitz_prime_sum_rejects_tiny_x():
    with pytest.raises(ValueError):
        hurwitz_sum_report(_Q(), 1, 5)


def test_hurwitz_sum_report_matches_plain_fraction_sum():
    # the certified fixed-point prefix and its rounding against Fraction arithmetic
    for name in ("Q", "Q_i", "Q_zeta5"):
        field = parse_field(name)
        for r in (0, 1, -3):
            constant = constant_product(field, r)
            rep = hurwitz_sum_report(field, r, 4000, checkpoints=(11, 1000, 2777))
            parts = _hurwitz_parts(field, r, 4000)
            rows = []
            for xc in (11, 1000, 2777, 4000):
                total = sum((Fraction(hn, hd) for p, hn, hd in parts if p <= xc), Fraction(0))
                rows.append(make_row(xc, float(total * Fraction(field.n_K, 2)), constant.value * pi_half(xc)))
            want = ExperimentReport(
                kind="hurwitz-sum",
                config={"field": name, "r": r, "x": 4000},
                rows=rows,
                constant=constant_provenance(constant),
            )
            assert rep.body_json() == want.body_json(), (name, r)


def _hurwitz_grid_bodies():
    return [
        hurwitz_sum_report(parse_field(name), r, 4000, checkpoints=(7, 1000, 2777)).body_json()
        for name in ("Q", "Q_i", "Q_zeta5")
        for r in (0, 1, -3)
    ]


def test_hurwitz_sum_fallback_rows_equal_certified_rows(monkeypatch):
    # with no fraction bits every row that holds a prime fails the certificate,
    # so the exact Fraction fallback must reproduce the default bodies
    want = _hurwitz_grid_bodies()
    calls = []

    class Counted(Fraction):
        def __new__(cls, *args):
            calls.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(experiments, "_SUM_BITS", 0)
    monkeypatch.setattr(experiments, "Fraction", Counted)
    assert _hurwitz_grid_bodies() == want
    # each row sums its whole prefix in the fallback, one Fraction per prime
    prefixes = 0
    for name in ("Q", "Q_i", "Q_zeta5"):
        for r in (0, 1, -3):
            ps = admissible_primes(parse_field(name), 4000, r)
            prefixes += sum(p <= xc for p in ps for xc in (7, 1000, 2777, 4000))
    assert len(calls) == prefixes


def test_hurwitz_sum_certificate_holds_at_default_bits(monkeypatch):
    # at the default precision the fixed-point prefix certifies every row
    def refuse(*args):
        raise AssertionError("Fraction fallback taken")

    want = _hurwitz_grid_bodies()
    monkeypatch.setattr(experiments, "Fraction", refuse)
    assert _hurwitz_grid_bodies() == want


def test_weighted_L_average_symmetric_in_trace_sign():
    Q = _Q()
    for r in (1, 2, 3):
        assert a1_report(Q, r, 3000).rows[-1]["empirical"] == a1_report(Q, -r, 3000).rows[-1]["empirical"]


def test_weighted_L_average_tracks_hurwitz_route():
    # both sums read the same Hurwitz numbers, so this checks the constant that the
    # two normalizations estimate, the weighted L-sum by (pi/2) x and the
    # class-number sum by the comparison integral, not two independent routes
    Q = _Q()
    x = 20000
    ra = a1_report(Q, 1, x).rows[-1]["empirical"] / (math.pi / 2 * x)
    rh = hurwitz_sum_report(Q, 1, x).rows[-1]["empirical"] / pi_half(x)
    assert abs(ra - rh) / rh < 0.08


def test_box_average_matches_per_model_enumeration():
    Q = _Q()
    box = CurveBox((0,), (2,), (0,), (2,))
    rep = box_average(Q, box, 1, 1, 300)
    from ltavg import trace_mod_p

    total = 0
    for p in admissible_primes(Q, 300, 1):
        for a in range(-2, 3):
            for b in range(-2, 3):
                if (4 * a**3 + 27 * b**2) % p and trace_mod_p(a, b, p) == 1:
                    total += 1
    assert rep.rows[-1]["empirical"] == total / box.cardinality


def test_box_average_extension_degree_matches_euler_oracle():
    # Q_i = Q[t]/(t^2 + 1): the inert primes 3 < p <= sqrt(500) are 7, 11
    # and 19, each with residue field F_p[t]/(t^2 + 1)
    Qi = parse_field("Q_i")
    box = CurveBox((1, 0), (1, 1), (3, 0), (1, 1))
    traces = [
        extension_trace_euler(alpha, beta, p, (1, 0, 1))
        for p in (7, 11, 19)
        for alpha in product(*(range(c - r, c + r + 1) for c, r in zip(box.a1, box.b1)))
        for beta in product(*(range(c - r, c + r + 1) for c, r in zip(box.a2, box.b2)))
    ]
    nonzero = 0
    for r in (-8, -4, -1, 0, 2, 4, 10, 13):
        want = traces.count(r)
        nonzero += want > 0
        rep = box_average(Qi, box, r, 2, 500)
        assert rep.rows[-1]["empirical"] == want / box.cardinality, r
    assert nonzero >= 6


def test_box_sides_wider_than_small_primes_match_per_model_enumeration():
    # the 25-wide sides hold residues mod each prime from 7 to 23 more than
    # once, and part of the residues mod each prime from 29 to 59
    Q = _Q()
    box = CurveBox((3,), (12,), (-5,), (12,))
    alphas, betas = range(-9, 16), range(-17, 8)
    from ltavg import trace_mod_p

    for r in (0, 1, -2):
        ps = admissible_primes(Q, 60, r)
        assert ps[0] == 7 and ps[-1] == 59
        counts = np.array([
            [sum((4 * a**3 + 27 * b**2) % p != 0 and trace_mod_p(a, b, p) == r for p in ps) for b in betas]
            for a in alphas
        ])
        assert box_average(Q, box, r, 1, 60).rows[-1]["empirical"] == counts.sum() / box.cardinality, r
        dev = counts - 0.3 * pi_half(60)
        assert box_variance(Q, box, r, 60, 0.3) == pytest.approx(np.mean(dev * dev), rel=1e-12), r
        for i, j in ((0, 0), (7, 19), (12, 12), (24, 3)):
            assert pi_E_rf(Q, CurveModel((alphas[i],), (betas[j],)), r, 1, 60) == counts[i, j], (r, i, j)


def test_extension_box_wider_than_its_residue_fields_matches_euler_oracle():
    # alpha's first coordinate spans 15 values, so its residues in F_{p^2}
    # repeat at the inert primes 7 and 11, the two with p^2 <= 121
    Qi = parse_field("Q_i")
    box = CurveBox((2, 0), (7, 1), (1, -1), (1, 1))
    alphas = list(product(range(-5, 10), range(-1, 2)))
    betas = list(product(range(0, 3), range(-2, 1)))
    traces = {
        (alpha, beta): [extension_trace_euler(alpha, beta, p, (1, 0, 1)) for p in (7, 11)]
        for alpha in alphas
        for beta in betas
    }
    flat = [t for ts in traces.values() for t in ts]
    for r in (-13, -4, 0, 2, 10):
        assert flat.count(r) > 0, r
        assert box_average(Qi, box, r, 2, 121).rows[-1]["empirical"] == flat.count(r) / box.cardinality, r
    for alpha, beta in [(alphas[0], betas[0]), (alphas[20], betas[4]), (alphas[-1], betas[-1])]:
        for r in {t for t in traces[alpha, beta] if t is not None} | {1}:
            assert pi_E_rf(Qi, CurveModel(alpha, beta), r, 2, 121) == traces[alpha, beta].count(r), (alpha, beta, r)


def test_box_average_checkpoint_rows():
    Q = _Q()
    box = CurveBox((0,), (3,), (0,), (3,))
    rep = box_average(Q, box, 1, 1, 500, checkpoints=(100, 250))
    assert [row["x"] for row in rep.rows] == [100, 250, 500]
    empiricals = [row["empirical"] for row in rep.rows]
    assert empiricals == sorted(empiricals)  # cumulative counts never drop


@pytest.mark.parametrize("run", [
    lambda x, cps: box_average(_Q(), CurveBox((0,), (3,), (0,), (3,)), 1, 1, x, checkpoints=cps),
    lambda x, cps: a1_report(_Q(), 1, x, checkpoints=cps),
    lambda x, cps: theta_report(_Q(), 3, 1, x, checkpoints=cps),
], ids=["box", "a1", "theta"])
def test_checkpoint_rows_match_runs_that_end_there(run):
    # 13 and 97 are primes that each runner counts, and xc + 1 is composite
    # for each checkpoint xc, so a run to xc + 1 counts the same primes
    rep = run(400, (13, 97, 98))
    assert [row["x"] for row in rep.rows] == [13, 97, 98, 400]
    for row in rep.rows[:-1]:
        assert row["empirical"] == run(row["x"] + 1, ()).rows[-1]["empirical"], row["x"]


def test_box_average_rejects_oversized_box():
    Q = _Q()
    with pytest.raises(ValueError):
        box_average(Q, CurveBox((0,), (600,), (0,), (600,)), 1, 1, 100)


def test_box_average_rejects_nonpositive_degree():
    # for f < 1 the norm bound p^f <= x has no largest prime
    for f in (0, -1):
        with pytest.raises(ValueError):
            box_average(_Q(), CurveBox((0,), (2,), (0,), (2,)), 1, f, 100)


def test_oversized_residue_fields_rejected_before_any_prime(monkeypatch):
    # Q up to just past the prime 16777259 > 2^24, and F_{p^2} over Q_i with
    # p up to 5791 > 2^12; no prime is visited before the ValueError
    def visit(*args):
        raise AssertionError("a prime was visited")

    monkeypatch.setattr(experiments, "_prime_matches", visit)
    Q, Q_i = _Q(), parse_field("Q_i")
    box = CurveBox((0,), (2,), (0,), (2,))
    runs = [
        lambda: box_average(Q, box, 1, 1, 2**24 + 50),
        lambda: box_variance(Q, box, 1, 2**24 + 50, 0.5),
        lambda: pi_E_rf(Q, CurveModel((1,), (1,)), 1, 1, 2**24 + 50),
        lambda: box_average(Q_i, CurveBox((1, 0), (1, 1), (3, 0), (1, 1)), 0, 2, 2**25),
        lambda: pi_E_rf(Q_i, CurveModel((1, 2), (3, 1)), 0, 2, 2**25),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="2\\^24"):
            run()


def test_box_variance_all_zero_counts():
    Q = _Q()
    # no prime clears the 4p > 20 floor below x = 6, so every model counts
    # zero and the variance collapses to the squared centering term
    box = CurveBox((2,), (1,), (5,), (1,))
    c = 0.4
    want = (c * pi_half(6)) ** 2
    assert abs(box_variance(Q, box, 1, 6, c) - want) < 1e-12


# ---------------------------------------------------- reduction counting

def test_count_box_reductions_full_residue_exact():
    Q = _Q()
    for p in (11, 13):
        box = CurveBox((0,), ((p - 1) // 2,), (0,), ((p - 1) // 2,))
        for a, b in ((2, 4), (1, 1), (0, 1)):
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            exact, main = count_box_reductions(Q, box, ReducedCurve(a, b, p, 1, None), p)
            # the exact identity normalizes by cardinality, the first-order
            # term by volume; they differ by the usual lattice-count slack
            assert exact == Fraction(p - 1, aut_size(a, b, p)) * Fraction(box.cardinality, p * p)
            want_main = (p - 1) / aut_size(a, b, p) * box.volume / p**2
            assert main == pytest.approx(want_main)


@pytest.mark.parametrize("name, primes", [("Q_i", (7, 11, 19, 31)), ("Q_zeta3", (5, 11, 17, 29))])
def test_full_residue_box_matches_model_counts_at_degree_two(name, primes):
    # at an inert p the box of radius (p - 1)/2 on both coordinates reduces
    # onto F_{p^2} once over, so its trace-r pairs are the residue field's
    # trace-r models, as in criterion 9 at f = 1
    field = parse_field(name)
    for p in primes:
        A, B = _box_sides(CurveBox((0, 0), ((p - 1) // 2,) * 2, (0, 0), ((p - 1) // 2,) * 2))
        fields = [curves.SmallField(p, pr.modulus) for pr in degree_f_primes(field, p, 2)]
        assert len(fields) == 1
        counts = [curves._model_counts(p, 2, F.power, F.log) for F in fields]
        for r in (0, 1, 3, p + 1):
            want = sum(int(c[r + 2 * p]) for c in counts)
            assert experiments._count_worker([p], field, A, B, r, 2) == [(p, want)], (p, r)


def test_count_box_reductions_rejects_singular_target():
    Q = _Q()
    box = CurveBox((0,), (5,), (0,), (5,))
    with pytest.raises(ValueError):
        count_box_reductions(Q, box, ReducedCurve(0, 0, 11, 1, None), 11)


def test_count_box_reductions_pair_full_residue():
    Q = _Q()
    # radius 71 spans complete residue systems mod both 11 and 13
    box = CurveBox((0,), (71,), (0,), (71,))
    t1 = ReducedCurve(2, 4, 11, 1, None)
    t2 = ReducedCurve(1, 4, 13, 1, None)
    exact, main = count_box_reductions_pair(Q, box, t1, 11, t2, 13)
    assert exact == (
        Fraction(10, aut_size(2, 4, 11))
        * Fraction(12, aut_size(1, 4, 13))
        * Fraction(box.cardinality, (11 * 13) ** 2)
    )
    # hitting residues at the two primes is independent over a joint cover
    e1, _ = count_box_reductions(Q, box, t1, 11)
    e2, _ = count_box_reductions(Q, box, t2, 13)
    assert exact == Fraction(e1 * e2, box.cardinality)
    assert abs(main - float(exact)) / float(exact) < 0.05


@pytest.mark.parametrize("t1, t2", [((2, 4), (1, 1)), ((2, 4), (2, -4))])
def test_count_box_reductions_pair_at_large_primes_matches_enumeration(t1, t2):
    # the match matrix spans the box's 11 x 11 models, one cell each, not
    # tables indexed by residue codes at both primes (p1 * p2 cells)
    Q = _Q()
    box = CurveBox((0,), (5,), (0,), (5,))
    p1, p2 = 10007, 10009
    tracemalloc.start()
    try:
        exact, _ = count_box_reductions_pair(
            Q, box, ReducedCurve(t1[0] % p1, t1[1] % p1, p1), p1, ReducedCurve(t2[0] % p2, t2[1] % p2, p2), p2
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # (2, 4) and (2, -4) are isomorphic mod 10009 = 1 mod 4 by u^2 = -1
    want = sum(
        models_isomorphic(a, b, *t1, p1) and models_isomorphic(a, b, *t2, p2)
        for a in range(-5, 6)
        for b in range(-5, 6)
    )
    assert exact == want
    assert peak < 16 * 2**20


def test_reduce_matches_polynomial_reduction_in_the_residue_field():
    # every preset, at each f in 1..4 where its degree-f primes occur; the
    # SmallField index reduces the whole element as a polynomial mod modulus
    rng = np.random.default_rng(18)
    seen = set()
    for name in PRESETS:
        field = parse_field(name)
        for f in range(1, 5):
            ps = [p for p in range(5, 200) if is_prime(p) and p**f < 30000 and field.disc % p]
            for p in [p for p in ps if degree_f_primes(field, p, f)][:2]:
                seen.add((name, f))
                for pr in degree_f_primes(field, p, f):
                    F = curves.SmallField(p, pr.modulus)
                    rows = rng.integers(-(2**63), 2**63 - 1, size=(8, field.n_K), dtype=np.int64)
                    want = [F.element_index(row) for row in rows.tolist()]
                    assert experiments._reduce(rows, pr).tolist() == want, (name, pr)
                    # a single curve's row may hold integers beyond int64
                    big = [(-1) ** j * (3 * 10**25 + 7 * j) for j in range(field.n_K)]
                    got = experiments._reduce(np.array([big], dtype=object), pr)
                    assert got.tolist() == [F.element_index(big)], (name, pr)
    assert seen == {
        ("Q", 1),
        *((name, f) for name in ("Q_i", "Q_sqrt2", "Q_zeta3") for f in (1, 2)),
        ("Q_zeta5", 1), ("Q_zeta5", 2), ("Q_zeta5", 4),
        ("S3_x3m2", 1), ("S3_x3m2", 2), ("S3_x3m2", 3),
    }


def test_count_box_reductions_pair_same_prime_rejected():
    Q = _Q()
    box = CurveBox((0,), (5,), (0,), (5,))
    t1 = ReducedCurve(2, 4, 11, 1, None)
    t2 = ReducedCurve(1, 3, 11, 1, None)
    with pytest.raises(ValueError):
        count_box_reductions_pair(Q, box, t1, 11, t2, 11)


def test_count_box_reductions_rejects_composite_primes():
    # checked before any polynomial arithmetic mod p
    Q = _Q()
    box = CurveBox((0,), (5,), (0,), (5,))
    t7, t9, t25 = (ReducedCurve(1, 1, p, 1, None) for p in (7, 9, 25))
    with pytest.raises(ValueError):
        count_box_reductions(Q, box, t9, 9)
    with pytest.raises(ValueError):
        count_box_reductions_pair(Q, box, t7, 7, t25, 25)
    with pytest.raises(ValueError):
        count_box_reductions_pair(Q, box, t9, 9, t25, 25)


# ------------------------------------------------------------------ theta

def test_theta_requires_coprime_residue():
    with pytest.raises(ValueError):
        theta_report(_Q(), 4, 2, 1000).rows[-1]["empirical"]


def test_theta_tracks_chebotarev_density():
    got = theta_report(_Q(), 3, 1, 20000).rows[-1]["empirical"]
    assert abs(got / (20000 / 2) - 1) < 0.1


def test_theta_report_flags_residue_outside_group():
    Qi = parse_field("Q_i")
    rep = theta_report(Qi, 8, 3, 4000)
    assert rep.config["residue_in_group"] is False
    assert rep.rows[-1]["empirical"] == 0.0


# --------------------------------------------------------------- reports

def test_deuring_check_clean():
    for p_max in (60, 400):
        rep = deuring_check(p_max)
        assert rep.config["mismatches"] == []
        assert rep.rows
        for row in rep.rows:
            assert row["empirical"] == row["theoretical"] == float(row["x"])


def test_deuring_check_rejects_range_without_primes():
    for p_max in (-5, 0, 4):
        with pytest.raises(ValueError):
            deuring_check(p_max)
    assert [row["x"] for row in deuring_check(5).rows] == [5]


def test_deuring_check_refuses_p_max_past_the_table_bound():
    # at p_max = 2*10^7 the Hurwitz table alone would take 640 MB; the
    # refusal comes before it, and before any trace count
    tracemalloc.start()
    try:
        for p_max in (1 << 24, 2 * 10**7):
            with pytest.raises(ValueError, match="below 2\\^24"):
                deuring_check(p_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_deuring_check_builds_no_trace_grid(monkeypatch):
    def no_grid(p):
        raise AssertionError(f"trace_grid({p}) called")

    monkeypatch.setattr(curves, "trace_grid", no_grid)
    assert deuring_check(60).config["mismatches"] == []


def test_deuring_check_memory_is_bounded():
    # blocks of small primes keep their padded FFT rows near _COUNT_CELLS
    deuring_check(300)
    tracemalloc.start()
    try:
        deuring_check(300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_deuring_check_lists_each_mismatch(monkeypatch, capsys):
    # one model moved from trace -3 to trace 5 at p = 37 breaks those two
    # masses; a block holds the counts of its primes end to end, those of 37
    # at r + R with R = isqrt(4 * 37 - 1) = 12
    honest = curves.trace_count_blocks

    def moved(p_max):
        for primes, counts in honest(p_max):
            if 37 in primes:
                at = sum(2 * math.isqrt(4 * p - 1) + 1 for p in primes[: primes.index(37)]) + 12
                counts[at - 3] -= 1
                counts[at + 5] += 1
            yield primes, counts

    monkeypatch.setattr(curves, "trace_count_blocks", moved)
    assert deuring_check(60).config["mismatches"] == [[37, -3], [37, 5]]
    assert dispatch(["deuring-check", "--pmax", "60"]) == 1
    assert "2 mismatches found" in capsys.readouterr().err


@pytest.mark.parametrize("cpus, workers, pools", [(2, 500, [2]), (None, 500, []), (1, 4, []), (8, 3, [3])])
def test_map_primes_forks_at_most_one_process_per_cpu(monkeypatch, cpus, workers, pools):
    # a fake fork context records the pool size and runs the shards in-process
    started = []

    class Pool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, shards):
            return [fn(shard) for shard in shards]

    monkeypatch.setattr(experiments, "get_context", lambda method: type("Context", (), {"Pool": Pool}))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    items = list(range(2000))
    got = experiments._map_primes(lambda shard, k: [k * i for i in shard], items, workers, k=3)
    assert started == pools
    assert sorted(got) == [3 * i for i in items]


def test_report_row_shape():
    row = make_row(100, 2.0, 4.0)
    assert row == {"x": 100, "empirical": 2.0, "theoretical": 4.0, "ratio": 0.5}
    assert make_row(10, 1.0)["ratio"] is None
    assert make_row(10, 1.0, 0.0)["ratio"] is None


def test_report_rows_must_be_sorted():
    rows = [make_row(200, 1.0), make_row(100, 2.0)]
    with pytest.raises(ValueError):
        ExperimentReport(kind="demo", config={}, rows=rows)


def test_report_body_json_stable_and_metadata_quarantined():
    rep = hurwitz_sum_report(_Q(), 1, 200)
    rep.finish(0.0)
    body = json.loads(rep.body_json())
    assert set(body) == {"schema_version", "kind", "config", "rows", "constant"}
    full = json.loads(rep.to_json())
    assert "runtime_seconds" in full["metadata"]
    assert "workers" not in body["config"]


def test_reports_identical_across_worker_counts():
    Q = _Q()
    pairs = [
        hurwitz_sum_report(Q, 1, 3000, checkpoints=(1000,), workers=w)
        for w in (1, 2)
    ]
    assert pairs[0].body_json() == pairs[1].body_json()
    boxes = [
        box_average(Q, CurveBox((0,), (4,), (0,), (4,)), 1, 1, 400, workers=w)
        for w in (1, 2)
    ]
    assert boxes[0].body_json() == boxes[1].body_json()
    a1s = [a1_report(Q, 1, 2000, workers=w) for w in (1, 2)]
    assert a1s[0].body_json() == a1s[1].body_json()


def test_constant_report_both_methods():
    rep = constant_report(_Q(), 1, method="both", k_max=40, n_max=600, l_max=2000)
    assert set(rep.constant) == {"sum", "product"}
    row = rep.rows[-1]
    assert row["empirical"] == rep.constant["sum"]["value"]
    assert row["theoretical"] == rep.constant["product"]["value"]
    for prov in rep.constant.values():
        assert prov["tail_estimate"] > 0
        assert prov["field"] == "Q" and prov["r"] == 1


def test_constant_report_phases_stay_out_of_the_body():
    # the phase times and peak RSS go in metadata only: two runs differ there
    # and nowhere in body_json()
    reps = [constant_report(_Q(), 1, method=method, k_max=20, n_max=100, l_max=1000)
            for method in ("both", "both", "sum")]
    for rep in reps:
        assert rep.metadata["peak_rss_mb"] > 0
        assert all(ph["seconds"] >= 0 for ph in rep.metadata["phases"].values())
        assert "phases" in json.loads(rep.to_json())["metadata"]
        assert "phases" not in rep.body_json() and "peak_rss" not in rep.body_json()
        # the series engine's work counters: one row per (b, k), one sum per live k on Q
        assert rep.metadata["phases"]["sum"]["rows"] == 20
        assert rep.metadata["phases"]["sum"]["distinct_rows"] == 10
        assert rep.metadata["phases"]["sum"]["enumerations"] > 0
        assert "distinct_rows" not in rep.body_json() and "enumerations" not in rep.body_json()
    assert set(reps[0].metadata["phases"]) == {"product", "sum"}
    assert set(reps[2].metadata["phases"]) == {"sum"}
    assert reps[0].body_json() == reps[1].body_json()


def test_phase_accumulates_time_and_counters():
    metadata = {}
    with phase(metadata, "merge") as entry:
        entry["rows"] = 3
    with phase(metadata, "merge"):
        pass
    assert set(metadata["phases"]) == {"merge"}
    assert metadata["phases"]["merge"]["rows"] == 3
    assert metadata["phases"]["merge"]["seconds"] >= 0
    assert metadata["peak_rss_mb"] > 0


def test_per_prime_memos_hold_the_current_prime_only():
    deuring_check(60)
    assert len(curves._trace_grids) <= 1
    assert len(curves._char_tables) <= 1
    box_average(_Q(), CurveBox((0,), (3,), (0,), (3,)), 1, 1, 400, workers=1)
    assert len(curves._trace_grids) <= 1
    assert len(curves._char_tables) <= 1
    # 23 inert primes, one residue field F_{p^2} each
    box_average(parse_field("Q_i"), CurveBox((1, 0), (1, 1), (3, 0), (1, 1)), 2, 2, 4 * 10**4)
    # and no per-model or per-trace memo grows with the primes a count visits
    pi_E_rf(_Q(), CurveModel((1,), (1,)), 1, 1, 2000)
    for name, memo in vars(curves).items():
        if isinstance(memo, dict) and not name.startswith("__"):
            assert len(memo) <= 1, name
    # nor does the field spec keep the roots of the primes a box run visits
    Q_i = parse_field("Q_i")
    box_average(Q_i, CurveBox((1, 0), (1, 1), (3, 0), (1, 1)), 1, 1, 2000, workers=1)
    for name, memo in vars(Q_i).items():
        if isinstance(memo, dict):
            assert not memo, name


def test_csv_round_trip():
    rep = deuring_check(30)
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "x,empirical,theoretical,ratio"
    assert len(lines) == len(rep.rows) + 1
