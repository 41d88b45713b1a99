"""Identity suites: every exact cross-check the package rests on, grouped the
way the command line exposes them.

Each suite returns a list of named checks; a check fails only when an exact
identity (or a stated tolerance) is violated.  Family-statistics behavior at
desk scale is reported through `soft_diagnostics` and never fails a suite.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import chebycomb as cc
from . import classnumbers as cn
from . import hecke
from .arith_curves import (CACHE_MAXSIZE, MIN_CURVE_PRIME, CurveParams, Interval, SumCondition, ap_table,
                           count_in_interval, curve_primes, nonsingular_mask, primes_in_window)
from .family_averages import FactoredInteger, s0_brute, s0_formula, s_grid_brute
from .moments_engine import (
    MomentPlan,
    Profile,
    _sweep_box,
    almost_all_report,
    clt_histogram,
    expansion_c_coefficient,
    family_error_grid,
    family_moments,
    moment_via_expansion,
    psum_moment_direct,
)
from .st_approx import (CoeffMode, cosine_grid_blocks, exact_st_coeffs, parseval_check, sandwich_coeffs,
                        sandwich_error_bound, st_measure)

__all__ = ["CheckResult", "SUITES", "run_suites", "report", "mass_identity_check", "route_agreement_checks",
           "soft_diagnostics"]

# Sizes of the checks, named in their output lines.
CLASSNUM_MAX_MASS_P, CLASSNUM_MAX_MOMENT_P = 2000, 100
TRACE_MAX_P, TRACE_MAX_WEIGHT, TRACE_TAU_MAX_P = 200, 26, 50
FAMILY_MAX_P, FAMILY_MAX_M = 100, 12
BS_GRID_POINTS, BS_X, BS_M, BS_HALF_BOX = 100_000, 500.0, 256, 50  # sandwich angles; x, M and box of the bracket
BS_ORACLE_PAIRS = ((1, 1), (-50, 50), (0, 17))  # where the bracket sweep meets the per-curve bound


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'}  {self.name}" + (f"  [{self.detail}]" if self.detail else "")


def _check(name: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, ok=bool(ok), detail=detail)


@lru_cache(maxsize=CACHE_MAXSIZE)
def _trace_grid(p: int):
    """`ap_table(p)` once per prime for every suite, called as this module's global."""
    return ap_table(p)


# -- arith ------------------------------------------------------------------


def suite_arith() -> list[CheckResult]:
    out = []
    for p in (5, 7, 13, 37, 59):
        table = _trace_grid(p)
        good = table.good
        bad_pairs = int((~good).sum())
        out.append(_check(f"bad-pair count p={p}", bad_pairs == p, f"{bad_pairs} vs {p}"))
        hasse = bool((table.ap[good] ** 2 <= 4 * p).all())
        out.append(_check(f"Hasse bound p={p}", hasse))
        odd_ok = all(int((table.ap[good] ** g).sum()) == 0 for g in (1, 3, 5))
        out.append(_check(f"odd moments vanish p={p}", odd_ok))
        out.append(_check(f"good-pair count p={p}", int(good.sum()) == p * p - p))
    curve = CurveParams(1, 1)
    nested = [Interval(0.9, 1.1), Interval(0.7, 1.6), Interval(0.2, 2.6), Interval(0.0, math.pi)]
    counts = [count_in_interval(curve, 200, iv) for iv in nested]
    out.append(_check("interval count monotone", all(a <= b for a, b in zip(counts, counts[1:])), str(counts)))
    return out


# -- classnum ---------------------------------------------------------------

_H_ANCHORS = {3: Fraction(1, 3), 4: Fraction(1, 2), 7: 1, 8: 1, 11: 1,
              12: Fraction(4, 3), 15: 2, 16: Fraction(3, 2), 19: 1, 20: 2}


def _primes_to(max_p: int) -> tuple[int, ...]:
    """The primes MIN_CURVE_PRIME <= p <= max_p; ValueError naming max_p when there are none."""
    primes = curve_primes(max_p)
    if not primes:
        raise ValueError(f"no prime p >= {MIN_CURVE_PRIME} is at most max_p = {max_p}")
    return primes


def mass_identity_check(max_p: int) -> CheckResult:
    """The mass identity at every prime 5 <= p <= max_p, as one check."""
    primes = _primes_to(max_p)
    cn.hurwitz_table(4 * max_p)  # the largest N first: one build, not one per prime
    worst = max(abs(cn.eichler_mass(p)) for p in primes)
    return _check(f"mass identity residual, 5 <= p <= {max_p}", worst == 0, f"max |residual| = {worst}")


def suite_classnum() -> list[CheckResult]:
    out = []
    anchors_ok = all(cn.hurwitz(n) == Fraction(h) for n, h in _H_ANCHORS.items())
    out.append(_check("class number anchors", anchors_ok))

    table = cn.hurwitz_table(4 * CLASSNUM_MAX_MASS_P)
    consistent = all(table.twelve(n) == cn.twelve_hurwitz(n)
                     for n in range(3, 500) if n % 4 in (0, 3))
    out.append(_check("table vs single-N enumeration (N < 500)", consistent))
    out.append(mass_identity_check(CLASSNUM_MAX_MASS_P))

    moment_ok = True
    detail = ""
    for p in curve_primes(CLASSNUM_MAX_MOMENT_P):
        histogram = [v.tolist() for v in _trace_grid(p).trace_histogram]  # Python ints: the sums stay exact
        for g in range(7):
            brute = sum(c * r ** g for r, c in zip(*histogram))
            closed = cn.family_moment_classnum(p, g)
            if brute != closed:
                moment_ok = False
                detail = f"p={p} g={g}: {brute} != {closed}"
                break
    out.append(_check(f"class-number moment identity, p <= {CLASSNUM_MAX_MOMENT_P}, g <= 6", moment_ok, detail))
    return out


# -- trace ------------------------------------------------------------------


def route_agreement_checks(max_p: int, max_weight: int) -> list[CheckResult]:
    """Birch vs Miller traces at every prime 5 <= p <= max_p and every weight
    4 <= k <= max_weight, and the Deligne bound on each Birch record."""
    primes = _primes_to(max_p)
    cn.hurwitz_table(4 * max_p)  # the largest N first: one build, not one per prime
    records = [hecke.traces_via_birch(p, (max_weight - 2) // 2) for p in primes]
    bases = {rec.k: hecke.miller_basis(rec.k, hecke.dim_cusp_forms(rec.k) * primes[-1] + 1)
             for rec in records[-1] if hecke.dim_cusp_forms(rec.k)}
    agree = True
    deligne = True
    detail = ""
    for p, birch in zip(primes, records):
        for rec in birch:
            miller = hecke.hecke_trace(rec.k, p, bases.get(rec.k)).trace
            if rec.trace != miller:
                agree = False
                detail = f"k={rec.k} p={p}: birch {rec.trace} != miller {miller}"
            if not rec.deligne_ok():
                deligne = False
    return [_check(f"route agreement, p <= {max_p}, weights 4..{max_weight}", agree, detail),
            _check("Deligne bound on every record", deligne)]


def suite_trace() -> list[CheckResult]:
    out = route_agreement_checks(TRACE_MAX_P, TRACE_MAX_WEIGHT)
    store = hecke._default_store()
    dims_ok = all(store.trace(k, 7) == 0 for k in (4, 6, 8, 10, 14) if hecke.dim_cusp_forms(k) == 0)
    out.append(_check("zero trace on zero-dimensional spaces", dims_ok))

    delta = hecke.delta_qexp(TRACE_TAU_MAX_P + 1)
    primes = reversed(curve_primes(TRACE_TAU_MAX_P))  # the largest prime first: at most one Hurwitz table build
    tau_ok = all(store.trace(12, p) == delta[p] for p in primes)
    out.append(_check(f"weight-12 trace equals the discriminant coefficient, p <= {TRACE_TAU_MAX_P}", tau_ok))
    return out


# -- family -----------------------------------------------------------------

_COPRIME_PAIRS = [
    (5, 7), (5, 11), (5, 13), (5, 19), (5, 23), (5, 29), (5, 37),
    (7, 11), (7, 13), (7, 19), (7, 25), (11, 13), (11, 25), (13, 25),
    (25, 7), (49, 5), (125, 7), (5, 121), (13, 19), (11, 23),
]


def suite_family() -> list[CheckResult]:
    out = []
    worst = 0.0
    for p in reversed(curve_primes(FAMILY_MAX_P)):  # the largest prime first: at most one Hurwitz table build
        table = _trace_grid(p)
        for m in reversed(range(FAMILY_MAX_M + 1)):  # the largest weight first: one Birch solve per prime
            gap = abs(s0_brute(p, m, table) - s0_formula(p, m))
            worst = max(worst, gap)
    out.append(_check(
        f"grid average equals trace formula, p <= {FAMILY_MAX_P}, m <= {FAMILY_MAX_M}",
        worst <= 1e-10, f"max gap {worst:.2e}"))

    averages = {n: s_grid_brute(FactoredInteger.from_int(n))  # one grid average per distinct n
                for n in {m for n1, n2 in _COPRIME_PAIRS for m in (n1, n2, n1 * n2)}}
    worst_mult = max(abs(averages[n1 * n2] - averages[n1] * averages[n2]) for n1, n2 in _COPRIME_PAIRS)
    out.append(_check("multiplicativity on 20 coprime pairs", worst_mult <= 1e-9, f"max gap {worst_mult:.2e}"))

    bounded = all(abs(s_grid_brute(FactoredInteger.from_int(n))) <= FactoredInteger.from_int(n).divisor_count + 1e-12
                  for n in (5, 25, 35, 49, 77))
    out.append(_check("grid average bounded by the divisor count", bounded))
    return out


# -- bs ---------------------------------------------------------------------

_TEST_INTERVALS = [
    Interval(0.0, math.pi / 2),          # [0, 2]
    Interval(math.pi / 3, 2 * math.pi / 3),
    Interval(0.7, 2.0),
]


def _bracket_check(iv: Interval) -> CheckResult:
    """The certified bracket minorant sum <= N_I - pi~ mu <= majorant sum at
    every admissible pair of the box |a|, |b| <= BS_HALF_BOX, from one sweep
    with three channels (the counts and the good-prime sums of both sides);
    the sweep's bracket must also match the per-curve `sandwich_error_bound`
    at BS_ORACLE_PAIRS."""
    window = primes_in_window(BS_X)
    channels = [iv, *((sandwich_coeffs(iv, BS_M, side), SumCondition.SKIP_BAD_ONLY)
                      for side in (CoeffMode.MINORANT, CoeffMode.MAJORANT))]
    a_vals, b_vals, (counts, minor, major) = _sweep_box(window, BS_HALF_BOX, BS_HALF_BOX, channels)
    admissible = nonsingular_mask(a_vals, b_vals)
    base = -window.count * st_measure(iv)
    err, lower, upper = counts + base, minor + base, major + base
    outside = (err < lower - 1e-9) | (err > upper + 1e-9)
    violations = int(np.count_nonzero(outside & admissible))
    gap = 0.0
    for a, b in BS_ORACLE_PAIRS:
        lo, hi = sandwich_error_bound(CurveParams(a, b), BS_X, iv, BS_M)
        i, j = a + BS_HALF_BOX, b + BS_HALF_BOX
        gap = max(gap, abs(lower[i, j] - lo), abs(upper[i, j] - hi))
    n_pairs = int(np.count_nonzero(admissible))
    return _check(f"error bracket on {n_pairs} admissible pairs |a|, |b| <= {BS_HALF_BOX}, "
                  f"per-curve bound at {len(BS_ORACLE_PAIRS)} pairs", violations == 0 and gap <= 1e-9,
                  f"{violations} violations, per-curve gap {gap:.1e}")


def suite_bs() -> list[CheckResult]:
    out = []
    for i, iv in enumerate(_TEST_INTERVALS):
        gaps = []
        for m in (100, 1000, 10_000):
            res = parseval_check(iv, m)
            gaps.append(res.gap)
            out.append(_check(f"Parseval gap I{i+1} M={m}", res.gap <= res.bound,
                              f"{res.gap:.3e} <= {res.bound:.3e}"))
        out.append(_check(f"Parseval gap decreasing I{i+1}", gaps[0] > gaps[1] > gaps[2]))

    thetas = np.linspace(0.0, math.pi, BS_GRID_POINTS)
    sides = [(i, iv, side) for i, iv in enumerate(_TEST_INTERVALS) for side in (CoeffMode.MAJORANT, CoeffMode.MINORANT)]
    slacks = [math.inf] * len(sides)  # min of S^+ - chi, or chi - S^-, a block of the grid at a time
    for start, values in cosine_grid_blocks([sandwich_coeffs(iv, BS_M, side) for _, iv, side in sides], thetas.size):
        t = thetas[start:start + values.shape[1]]
        for k, ((_, iv, side), row) in enumerate(zip(sides, values)):
            gap = row - ((t >= iv.alpha) & (t <= iv.beta))  # S - chi
            slacks[k] = min(slacks[k], float((gap if side is CoeffMode.MAJORANT else -gap).min()))
    for (i, _, side), slack in zip(sides, slacks):
        out.append(_check(f"{side.name.lower()} pointwise I{i+1}", slack >= -1e-12, f"min slack {slack:.2e}"))

    out.append(_bracket_check(_TEST_INTERVALS[0]))

    coeffs = exact_st_coeffs(_TEST_INTERVALS[2], 40)
    tgrid = np.linspace(0.0, math.pi, 2001)
    tel = max(float(np.max(np.abs(values[0] - coeffs.eval_traces(2.0 * np.cos(tgrid[start:start + values.shape[1]])))))
              for start, values in cosine_grid_blocks([coeffs], tgrid.size))
    # the gap is a rounding residue, so the detail names only the power of ten above it
    gap = f"< 1e{math.floor(math.log10(tel)) + 1}" if 0 < tel < math.inf else f"{tel:.2e}"
    out.append(_check("telescoped basis matches cosine basis", tel <= 1e-10, f"max gap {gap}"))
    return out


# -- pipeline ---------------------------------------------------------------


def suite_pipeline() -> list[CheckResult]:
    out = []
    alk_ok = all(value == (1 if l == k else 0)
                 for k, row in enumerate(cc.a_lk_table(60)) for l, value in enumerate(row))
    out.append(_check("triangular coefficients A(l,k) = [l=k], k <= 60", alk_ok))

    rng = random.Random(1)
    melzak_ok = True
    for _ in range(200):
        n = rng.randint(1, 6)
        deg = rng.randint(0, n)
        poly = cc.PowerPoly(tuple(rng.randint(-9, 9) for _ in range(deg)) + (rng.randint(1, 9),))
        xq = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        yq = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        lhs, rhs = cc.melzak_eval(poly, xq, yq, n)
        if lhs != rhs:
            melzak_ok = False
            break
    out.append(_check("Melzak identity on 200 random instances", melzak_ok))

    db_ok, detail = True, ""
    for exps, rows in cc.exponent_product_tables(24):
        s = exps.sum(axis=1, keepdims=True)
        c = np.arange(rows.shape[1])
        bad = {"support/positivity": (rows < 0) | ((c > s) & (rows != 0)),
               "parity": ((c - s) % 2 == 1) & (rows != 0)}
        if exps.shape[1] == 1:
            bad["identity case"] = rows != (c == exps)
        if exps.shape[1] == 2:
            bad["pair constant term"] = (rows[:, 0] != (exps[:, 0] == exps[:, 1]))[:, None]
        bad["dimension"] = (rows @ (c + 1) != np.prod(exps + 1, axis=1))[:, None]  # f_m(2) = m + 1
        for name, mask in bad.items():
            hit = np.flatnonzero(mask.any(axis=1))
            if db_ok and hit.size:
                db_ok, detail = False, f"{name} at {tuple(exps[hit[0]].tolist())}"
    out.append(_check("product-expansion table relations, sum <= 24", db_ok, detail))

    grid_ok = True
    worst = 0.0
    detail = ""
    plans = [MomentPlan(x=x, A=half, B=half, interval=iv, t_list=(1, 2, 3), M=M, condition=condition)
             for x, half in ((40.0, 4), (60.0, 6))
             for iv in (_TEST_INTERVALS[0], _TEST_INTERVALS[2])
             for condition in (SumCondition.SKIP_BAD_AND_AB, SumCondition.SKIP_BAD_ONLY)
             for M in (1, 2, 3)]
    # one sweep per box on the direct side, one power-table build per box and condition on the other
    for plan, directs, expandeds in zip(plans, psum_moment_direct(plans), moment_via_expansion(plans)):
        for t, direct, expanded in zip(plan.t_list, directs, expandeds):
            gap = abs(direct - expanded)
            worst = max(worst, gap)
            if gap > 1e-9 * max(1.0, abs(direct)):
                grid_ok = False
                detail = detail or f"x={plan.x} M={plan.M} t={t} {plan.condition.value}: gap {gap:.2e}"
    out.append(_check("expansion equals direct moment on the tiny grid", grid_ok, detail or f"max gap {worst:.2e}"))

    z_ok = True
    for M in (2, 3, 5):
        coeffs = exact_st_coeffs(_TEST_INTERVALS[0], M)
        c0 = expansion_c_coefficient(coeffs.u, M, 2, (0,))
        c00 = expansion_c_coefficient(coeffs.u, M, 4, (0, 0))
        if abs(c0 - coeffs.z) > 1e-12 or abs(c00 - 3 * coeffs.z ** 2) > 1e-12:
            z_ok = False
    out.append(_check("all-zero expansion coefficient matches the Gaussian count", z_ok))
    return out


SUITES = {
    "arith": suite_arith,
    "classnum": suite_classnum,
    "trace": suite_trace,
    "family": suite_family,
    "bs": suite_bs,
    "pipeline": suite_pipeline,
}


def report(checks: list[CheckResult], printer=print) -> bool:
    """Print each check's line; True when every check passed."""
    for res in checks:
        printer(res.line())
    return all(res.ok for res in checks)


def run_suites(names: list[str], printer=print) -> bool:
    ok = True
    for name in names:
        printer(f"== suite {name}")
        ok = report(SUITES[name](), printer) and ok
    return ok


def soft_diagnostics(x: float = 2000.0, half_box: int = 50, clt_half_box: int = 60) -> dict:
    """Warn-only family statistics from one box sweep: second-moment ratio,
    CLT distance, exception counts.  Desk-scale boxes sit far below the
    theory's ranges, so these are reported, never asserted.

    Both variants are reported: with the full box (the summation convention
    of the moment statements) and with the two complex-multiplication lines
    a = 0, b = 0 dropped.  At desk scale the roughly 2 (2A+1) CM pairs carry
    errors of size pi~ mu and visibly inflate the second moment; their
    density vanishes only as the box grows.
    """
    iv = Interval(0.0, math.pi / 2)
    wide = max(half_box, clt_half_box)
    grid = family_error_grid(x, wide, wide, iv)
    out: dict = {"moment_ratio_window": (0.5, 1.5), "clt_ks_threshold": 0.1}
    for tag, excl in (("", False), ("_no_cm_axes", True)):
        plan = MomentPlan(x=x, A=half_box, B=half_box, interval=iv, t_list=(1, 2), M=64,
                          exclude_axes=excl)
        report = family_moments(plan, grid)
        out["moment_ratio_t2" + tag] = next(r.ratio for r in report.results if r.t == 2)
        clt_plan = MomentPlan(x=x, A=clt_half_box, B=clt_half_box, interval=iv, M=64,
                              exclude_axes=excl)
        sample = clt_histogram(clt_plan, grid=grid)
        out["clt_ks" + tag] = sample.ks
        out["clt_mean" + tag] = sample.mean
        out["clt_variance" + tag] = sample.variance
        if not excl:
            aa = almost_all_report(plan, y=3.0, profile=Profile.HYPOTHESES, grid=grid)
            out["exception_fraction"] = aa.fraction
            out["exception_scale_y2"] = aa.y_power
    return out
