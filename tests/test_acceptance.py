"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1-9 are exact identities or fixed-tolerance checks and fail the
suite when violated.  Criterion 10 is the desk-scale family-statistics
diagnostic: it is reported and warned on, never failed, because no finite-x
constants exist for it.
"""

import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from stmoments import chebycomb as cc
from stmoments import classnumbers as cn
from stmoments.arith_curves import CurveParams, Interval, SumCondition, ap_table, count_in_interval, primes_in_window
from stmoments.family_averages import FactoredInteger, s0_brute, s0_formula, s_grid_brute
from stmoments.hecke import delta_qexp, dim_cusp_forms, hecke_trace, miller_basis, traces_via_birch
from stmoments.moments_engine import MomentPlan, moment_via_expansion, psum_moment_direct
from stmoments.st_approx import (CoeffMode, cosine_grid_blocks, parseval_check, sandwich_coeffs, sandwich_error_bound,
                                 st_measure)
from stmoments.verify import _COPRIME_PAIRS, soft_diagnostics

INTERVALS = [
    Interval(0.0, math.pi / 2),
    Interval(math.pi / 3, 2 * math.pi / 3),
    Interval(0.7, 2.0),
]


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_combinatorics_exact():
    start = time.time()
    alk_ok = all(cc.a_lk(l, k) == (1 if l == k else 0) for k in range(61) for l in range(k + 1))

    rng = random.Random(1)
    melzak_ok = True
    for _ in range(200):
        n = rng.randint(1, 6)
        deg = rng.randint(0, n)
        poly = cc.PowerPoly(tuple(rng.randint(-9, 9) for _ in range(deg)) + (rng.randint(1, 9),))
        lhs, rhs = cc.melzak_eval(
            poly, Fraction(rng.randint(1, 12), rng.randint(1, 6)),
            Fraction(rng.randint(-12, 12), rng.randint(1, 6)), n,
        )
        melzak_ok = melzak_ok and lhs == rhs

    db_ok = True
    for ms in cc.all_exponent_multisets(24):
        s = sum(ms)
        table = cc.u_product_expand(ms)
        db_ok = db_ok and all(v >= 0 for v in table.values())
        db_ok = db_ok and all(0 <= m <= s and (m - s) % 2 == 0 for m in table)
        if len(ms) == 1:
            db_ok = db_ok and table == {ms[0]: 1}
        if len(ms) == 2:
            db_ok = db_ok and table.get(0, 0) == (1 if ms[0] == ms[1] else 0)
    elapsed = time.time() - start
    report(1, alk_ok and melzak_ok and db_ok and elapsed < 5.0,
           f"A(l,k) triangle k<=60, 200 Melzak instances, expansion tables to sum 24 ({elapsed:.1f}s < 5s)")


def test_criterion_2_class_numbers():
    start = time.time()
    anchors = {3: Fraction(1, 3), 4: Fraction(1, 2), 7: 1, 8: 1, 11: 1,
               12: Fraction(4, 3), 15: 2, 16: Fraction(3, 2), 19: 1, 20: 2}
    anchors_ok = all(cn.hurwitz(n) == Fraction(h) for n, h in anchors.items())
    cn.hurwitz_table(8000)  # the largest N first: the one table is built at most once
    primes = [p for p in range(5, 2001) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    mass_ok = all(cn.eichler_mass(p) == 0 for p in primes)
    elapsed = time.time() - start
    report(2, anchors_ok and mass_ok and elapsed < 60.0,
           f"10 anchor values, mass identity exact for 5 <= p <= 2000 ({elapsed:.1f}s < 60s)")


def test_criterion_3_family_moment_identity():
    start = time.time()
    cn.hurwitz_table(400)  # the largest N first: the one table is built at most once
    ok = True
    for p in [q for q in range(5, 101) if all(q % r for r in range(2, math.isqrt(q) + 1))]:
        grid = ap_table(p)
        vals = grid.ap[grid.good].astype(object)
        for g in range(7):
            brute = int((vals ** g).sum())
            ok = ok and brute == cn.family_moment_classnum(p, g)
            if g % 2 == 1:
                ok = ok and brute == 0
    elapsed = time.time() - start
    report(3, ok and elapsed < 30.0,
           f"grid moments equal class-number sums, p <= 100, g <= 6, odd g zero ({elapsed:.1f}s < 30s)")


def test_criterion_4_trace_double_route():
    start = time.time()
    cn.hurwitz_table(800)  # the largest N first: the one table is built at most once
    primes = [p for p in range(5, 201) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    bases = {k: miller_basis(k, dim_cusp_forms(k) * primes[-1] + 1) for k in range(4, 27, 2)}
    agree = True
    deligne = True
    for p in primes:
        for rec in traces_via_birch(p, 12):
            agree = agree and rec.trace == hecke_trace(rec.k, p, bases[rec.k]).trace
            deligne = deligne and rec.deligne_ok()
    delta = delta_qexp(51)
    tau_ok = all(hecke_trace(12, p, bases[12]).trace == delta[p] for p in primes if p <= 50)
    elapsed = time.time() - start
    report(4, agree and deligne and tau_ok and elapsed < 120.0,
           f"class-number route = expansion route, p <= 200, weights 4..26; "
           f"weight 12 matches the discriminant form, p <= 50; Deligne bound everywhere ({elapsed:.1f}s < 2min)")


def test_criterion_5_grid_vs_trace_formula():
    start = time.time()
    worst = 0.0
    for p in [q for q in range(5, 101) if all(q % r for r in range(2, math.isqrt(q) + 1))]:
        for m in range(13):
            worst = max(worst, abs(s0_brute(p, m) - s0_formula(p, m)))
    elapsed = time.time() - start
    report(5, worst <= 1e-10 and elapsed < 120.0,
           f"|grid - trace formula| <= 1e-10 for p <= 100, m <= 12 (max {worst:.2e}, {elapsed:.1f}s < 2min)")


def test_criterion_6_multiplicativity():
    worst = 0.0
    for n1, n2 in _COPRIME_PAIRS:
        lhs = s_grid_brute(FactoredInteger.from_int(n1 * n2))
        rhs = s_grid_brute(FactoredInteger.from_int(n1)) * s_grid_brute(FactoredInteger.from_int(n2))
        worst = max(worst, abs(lhs - rhs))
    report(6, worst <= 1e-9,
           f"|S(n1 n2) - S(n1) S(n2)| <= 1e-9 on 20 coprime pairs, factors in 5..37 (max {worst:.2e})")


def test_criterion_7_parseval():
    ok = True
    detail = []
    for i, iv in enumerate(INTERVALS):
        gaps = []
        for M in (100, 1000, 10000):
            res = parseval_check(iv, M)
            bound = 20.0 * math.log(2 * M) / M
            ok = ok and res.gap <= bound
            gaps.append(res.gap)
        ok = ok and gaps[0] > gaps[1] > gaps[2]
        detail.append(f"I{i+1}: {gaps[0]:.1e}>{gaps[1]:.1e}>{gaps[2]:.1e}")
    report(7, ok, "coefficient square sums track mu - mu^2 within 20 log(2M)/M and decrease; " + ", ".join(detail))


def test_criterion_8_sandwich():
    start = time.time()
    thetas = np.linspace(0.0, math.pi, 100_000)
    pointwise_ok = True
    coeff_sets = [sandwich_coeffs(iv, 256, side) for iv in INTERVALS
                  for side in (CoeffMode.MAJORANT, CoeffMode.MINORANT)]
    values = np.concatenate([v for _, v in cosine_grid_blocks(coeff_sets, 100_000)], axis=1)  # one call, all sides
    for iv, plus, minus in zip(INTERVALS, values[0::2], values[1::2]):
        chi = ((thetas >= iv.alpha) & (thetas <= iv.beta)).astype(float)
        pointwise_ok = pointwise_ok and float((plus - chi).min()) >= -1e-12
        pointwise_ok = pointwise_ok and float((chi - minus).min()) >= -1e-12

    iv = INTERVALS[0]
    mu = st_measure(iv)
    window = primes_in_window(500.0)
    rng = random.Random(8)
    violations = 0
    for _ in range(200):
        while True:
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            if 4 * a ** 3 + 27 * b ** 2 != 0:
                break
        curve = CurveParams(a, b)
        lo, hi = sandwich_error_bound(curve, 500.0, iv, 256)
        err = count_in_interval(curve, 500.0, iv) - window.count * mu
        if not (lo <= err <= hi):
            violations += 1
    elapsed = time.time() - start
    report(8, pointwise_ok and violations == 0,
           f"no pointwise violation beyond 1e-12 on 1e5-point grids; "
           f"0/200 bracket violations at x=500, M=256 ({elapsed:.1f}s)")


def test_criterion_9_pipeline_algebra():
    start = time.time()
    worst = 0.0
    ok = True
    plans = [MomentPlan(x=x, A=half, B=half, interval=iv, t_list=(1, 2, 3), M=M, condition=condition)
             for x, half in ((40.0, 4), (60.0, 6))
             for iv in (INTERVALS[0], INTERVALS[2])
             for condition in (SumCondition.SKIP_BAD_AND_AB, SumCondition.SKIP_BAD_ONLY)
             for M in (1, 2, 3)]
    for directs, expandeds in zip(psum_moment_direct(plans), moment_via_expansion(plans)):
        for direct, expanded in zip(directs, expandeds):
            gap = abs(direct - expanded)
            worst = max(worst, gap)
            ok = ok and gap <= 1e-9 * max(1.0, abs(direct))
    elapsed = time.time() - start
    report(9, ok,
           f"partition/product-rule expansion equals the direct moment to 1e-9 on the tiny grid "
           f"(boxes to 13x13, x <= 60, t <= 3, M <= 3, both conditions; max gap {worst:.1e}, {elapsed:.1f}s)")


def test_criterion_10_soft_diagnostics():
    start = time.time()
    diag = soft_diagnostics()
    elapsed = time.time() - start
    lo, hi = diag["moment_ratio_window"]
    msgs = []
    if not lo <= diag["moment_ratio_t2_no_cm_axes"] <= hi:
        msgs.append(f"t=2 ratio outside [{lo}, {hi}]")
    if diag["clt_ks_no_cm_axes"] >= diag["clt_ks_threshold"]:
        msgs.append("KS at or above 0.1")
    for msg in msgs:
        warnings.warn("desk-scale diagnostic outside its soft window: " + msg)
    detail = (
        f"t=2 ratio {diag['moment_ratio_t2']:.3f} (no CM axes {diag['moment_ratio_t2_no_cm_axes']:.3f}, "
        f"window [{lo}, {hi}]); KS {diag['clt_ks']:.4f} (no CM axes {diag['clt_ks_no_cm_axes']:.4f}, "
        f"threshold 0.1); exception fraction {diag['exception_fraction']:.4f} vs y^-2 "
        f"{diag['exception_scale_y2']:.4f} ({elapsed:.0f}s)"
    )
    report(10, True, "[warn-only] " + detail)
