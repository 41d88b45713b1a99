import dataclasses
import hashlib
import itertools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from stmoments.arith_curves import (
    CurveParams,
    Interval,
    PrimeWindow,
    SumCondition,
    _index_rows,
    _trace_rows,
    _Workspace,
    box_summands,
    count_in_interval,
    good_traces,
    nonsingular_mask,
    primes_in_window,
    trace_values,
)
from stmoments.chebycomb import f_poly, f_rows, set_partitions
from stmoments.errors import BudgetError
from stmoments.moments_engine import (
    DEFAULT_BOX_BUDGET,
    MAX_BINS,
    MAX_MOMENT_ORDER,
    PAIR_BLOCK,
    _EVAL_BLOCK,
    CltSample,
    MomentPlan,
    Profile,
    almost_all_report,
    clt_histogram,
    _box_prime_data,
    _count_table,
    _fold_u_tables,
    _ks_against_normal,
    _masked_power_tables,
    _normal_cdf,
    _sweep_box,
    error_term,
    expansion_c_coefficient,
    family_error_grid,
    family_moments,
    hypothesis2_probe,
    moment_via_expansion,
    polynomial_sum_grid,
    psum_moment_direct,
)
from stmoments.st_approx import (MAX_DEGREE, CoeffMode, exact_st_coeffs, p_polynomial_sum, sandwich_coeffs,
                                 sandwich_error_bound, st_measure)

from conftest import poly_mul, to_f_basis

HALF = Interval(0.0, math.pi / 2)
GEN = Interval(0.7, 2.0)
FULL = Interval(0.0, math.pi)


def test_error_term_examples():
    full = Interval(0.0, math.pi)
    assert error_term(CurveParams(1, 1), 20.0, full) == pytest.approx(0.0)
    neg = Interval(math.pi / 2, math.pi)
    val = error_term(CurveParams(1, 1), 12.0, neg)
    assert val == pytest.approx(1 - 2 * st_measure(neg))


def test_engine_matches_scalar_counts():
    a_vals, b_vals, counts, adm, pi_tilde = family_error_grid(60.0, 5, 4, HALF)
    assert pi_tilde == primes_in_window(60.0).count
    for i, a in enumerate(a_vals):
        for j, b in enumerate(b_vals):
            if adm[i, j]:
                assert counts[i, j] == count_in_interval(CurveParams(int(a), int(b)), 60.0, HALF)
            else:
                assert 4 * int(a) ** 3 + 27 * int(b) ** 2 == 0


def test_engine_matches_scalar_counts_large_x():
    a_vals, b_vals, counts, adm, _ = family_error_grid(2000.0, 2, 2, GEN)
    for i, a in enumerate(a_vals):
        for j, b in enumerate(b_vals):
            if adm[i, j]:
                assert counts[i, j] == count_in_interval(CurveParams(int(a), int(b)), 2000.0, GEN)


def test_engine_matches_scalar_counts_at_hit_endpoints():
    # a_p = 0 on b = 0 for p = 3 mod 4 (and on a = 0 for p = 2 mod 3), so traces
    # land on the endpoint 0; the box is wider than every window prime
    lower_open = Interval(math.pi / 2, math.pi, half_open=True)  # [-2, 0)
    lower = Interval(math.pi / 2, math.pi)  # [-2, 0]
    grids = {iv: family_error_grid(60.0, 40, 40, iv) for iv in (lower_open, lower, HALF)}
    a_vals, b_vals, _, adm, _ = grids[HALF]
    for i, a in enumerate(a_vals):
        for j, b in enumerate(b_vals):
            if adm[i, j]:
                curve = CurveParams(int(a), int(b))
                for iv in (lower_open, HALF):
                    assert grids[iv].counts[i, j] == count_in_interval(curve, 60.0, iv)
    assert (grids[lower].counts > grids[lower_open].counts).any()
    n_good = sum(((4 * a_vals[:, None] ** 3 + 27 * b_vals[None, :] ** 2) % p != 0).astype(int)
                 for p in primes_in_window(60.0).primes)
    assert np.array_equal((grids[lower_open].counts + grids[HALF].counts)[adm], n_good[adm])


def test_engine_wraps_residues_when_box_exceeds_p():
    # 2A+1 > p for the window primes: residue classes repeat across the box
    a_vals, b_vals, counts, adm, _ = family_error_grid(14.0, 9, 9, HALF)
    for i, a in enumerate(a_vals):
        for j, b in enumerate(b_vals):
            if adm[i, j]:
                assert counts[i, j] == count_in_interval(CurveParams(int(a), int(b)), 14.0, HALF)


def _gather_sweep(x, A, B, interval):
    """Oracle for `family_error_grid`: sorted distinct residues from np.unique,
    the box as one gather ``hits[ia][:, ib]`` per prime, int64 adds."""
    a_vals = np.arange(-A, A + 1, dtype=np.int64)
    b_vals = np.arange(-B, B + 1, dtype=np.int64)
    counts = np.zeros((len(a_vals), len(b_vals)), dtype=np.int64)
    for p in primes_in_window(x).primes:
        ua, ia = np.unique(a_vals % p, return_inverse=True)
        ub, ib = np.unique(b_vals % p, return_inverse=True)
        ap, good = box_summands(p, ua, ub, SumCondition.SKIP_BAD_ONLY)
        counts += (good & interval.contains(ap / math.sqrt(p)))[ia][:, ib]
    return counts


@pytest.mark.parametrize("x, A, B, interval", [
    (11.0, 40, 3, HALF),  # wider than p = 7, 11 in a
    (11.0, 3, 40, Interval(0.0, math.pi / 2, half_open=True)),  # in b
    (11.0, 150, 120, GEN),  # in both: p = 7 tiles the box 43 x 35 times
    (60.0, 40, 40, Interval(math.pi / 2, math.pi, half_open=True)),
    (200.0, 130, 57, Interval(math.pi / 2, math.pi)),  # wider than every window prime in a, than p < 115 in b
    (5000.0, 3, 2, FULL),  # pi~ = 302 > 255: the uint16 accumulator
    (5000.0, 2, 4, Interval(0.3, 1.9, half_open=True)),
])
def test_sweep_equals_gather_oracle(x, A, B, interval):
    counts = family_error_grid(x, A, B, interval).counts
    assert counts.dtype == np.min_scalar_type(primes_in_window(x).count) and not counts.flags.writeable
    assert np.array_equal(counts, _gather_sweep(x, A, B, interval))
    if interval is FULL:
        assert primes_in_window(x).count == 302 and counts.max() > 255 and counts.dtype == np.uint16


def _per_residue_power_tables(plan, mmax):
    """Oracle for `_masked_power_tables`: f_m rows on the float a_p/sqrt(p) of
    every box pair, gathered from residues found by np.unique."""
    a_vals = np.arange(-plan.A, plan.A + 1, dtype=np.int64)
    b_vals = np.arange(-plan.B, plan.B + 1, dtype=np.int64)
    tables = []
    for p in primes_in_window(plan.x).primes:
        ua, ia = np.unique(a_vals % p, return_inverse=True)
        ub, ib = np.unique(b_vals % p, return_inverse=True)
        ap, good = box_summands(p, ua, ub, SumCondition.SKIP_BAD_ONLY)
        keep = good[np.ix_(ia, ib)]
        if plan.condition is SumCondition.SKIP_BAD_AND_AB:
            keep &= (a_vals % p != 0)[:, None] & (b_vals % p != 0)[None, :]
        tables.append(f_rows((ap / math.sqrt(p))[np.ix_(ia, ib)].ravel(), mmax) * keep.ravel())
    return tables


@pytest.mark.parametrize("condition", list(SumCondition))
@pytest.mark.parametrize("x, A, B", [
    (60.0, 4, 6),  # narrower than every window prime (31..59)
    (14.0, 9, 12),  # wider than p = 11, 13 on both axes
    (40.0, 14, 3),  # wider than p = 23, 29 in a, narrower than p = 31, 37
])
def test_power_tables_equal_per_residue_route(x, A, B, condition):
    plan = MomentPlan(x=x, A=A, B=B, interval=GEN, M=6, condition=condition)
    u = exact_st_coeffs(GEN, 6).u[1:7]
    got, want = _masked_power_tables(plan, 12), _per_residue_power_tables(plan, 12)
    assert len(got) == len(want) == primes_in_window(x).count
    for rows, oracle in zip(got, want):
        assert rows.flags.c_contiguous and np.array_equal(rows, oracle)
        assert np.array_equal(u @ rows[1:7], u @ oracle[1:7])


def test_family_moments_full_interval_zero():
    plan = MomentPlan(x=2000.0, A=3, B=3, interval=Interval(0.0, math.pi), t_list=(1, 2, 3), M=8)
    rep = family_moments(plan)
    for r in rep.results:
        assert r.empirical == 0.0
    assert rep.pi_tilde == primes_in_window(2000.0).count


def test_family_moments_report_fields():
    plan = MomentPlan(x=100.0, A=5, B=5, interval=HALF, t_list=(1, 2), M=16)
    rep = family_moments(plan)
    d = rep.to_json_dict()
    assert set(d) == {"x", "A", "B", "interval", "M", "profile", "mu", "pi_tilde", "Z", "results"}
    assert d["interval"] == {"alpha": HALF.alpha, "beta": HALF.beta}
    r2 = next(r for r in d["results"] if r["t"] == 2)
    assert r2["main_term"] == pytest.approx(
        (rep.mu - rep.mu ** 2) * rep.pi_tilde
    )
    r1 = next(r for r in d["results"] if r["t"] == 1)
    assert r1["main_term"] == 0.0 and r1["ratio"] is None


def test_moment_symmetry_under_b_negation():
    # iteration order relabeling leaves the moments unchanged
    plan = MomentPlan(x=60.0, A=4, B=4, interval=HALF, t_list=(1, 2, 3), M=4)
    rep = family_moments(plan)
    _, _, counts, adm, pi = family_error_grid(60.0, 4, 4, HALF)
    flipped = counts[:, ::-1]
    mu = st_measure(HALF)
    for t, r in zip((1, 2, 3), rep.results):
        emp = float(((flipped - pi * mu) ** t)[adm[:, ::-1]].sum()) / (4 * 16)
        assert emp == pytest.approx(r.empirical, abs=1e-12)


def test_budget_guard():
    with pytest.raises(BudgetError, match="16008001 pairs x 135 primes = 2161080135 exceeds the cap of 500000000"):
        family_error_grid(2000.0, 2000, 2000, HALF)


@pytest.mark.parametrize("x, A, B, interval, M", [
    (300.0, 6, 9, HALF, 64),  # narrower than every window prime (151..293)
    (14.0, 9, 12, GEN, 16),  # wider than p = 11, 13 on both axes: the tiling runs
    (40.0, 30, 3, GEN, 8),  # wider than p = 23, 29 in a, narrower than p = 31, 37
])
def test_polynomial_sum_grid_against_per_curve_sum(x, A, B, interval, M):
    """Without const_term the sweep is `p_polynomial_sum` at every pair."""
    coeffs = dataclasses.replace(exact_st_coeffs(interval, M), const_term=0.0)
    grid = polynomial_sum_grid(x, A, B, coeffs)
    assert grid.shape == (2 * A + 1, 2 * B + 1) and grid.dtype == np.float64 and not grid.flags.writeable
    for a, b in itertools.product(range(-A, A + 1, 2), range(-B, B + 1, 3)):
        if 4 * a ** 3 + 27 * b ** 2:
            want = p_polynomial_sum(CurveParams(a, b), x, coeffs, SumCondition.SKIP_BAD_ONLY)
            assert grid[a + A, b + B] == pytest.approx(want, rel=1e-12, abs=1e-12)
        else:
            assert grid[a + A, b + B] == 0.0  # p | Delta = 0 at every prime


@pytest.mark.parametrize("x, A, B, interval, M", [
    (300.0, 6, 9, HALF, 64),  # narrower than every window prime
    (14.0, 9, 12, GEN, 16),  # wider than p = 11, 13 on both axes
    (40.0, 30, 3, GEN, 8),  # wider than p = 23, 29 in a, narrower than p = 31, 37
])
def test_polynomial_sum_grid_skips_ab_like_the_per_curve_sum(x, A, B, interval, M):
    """Under SKIP_BAD_AND_AB the sweep is `p_polynomial_sum` under that
    condition plus const_term times the primes it keeps, at every pair."""
    coeffs = exact_st_coeffs(interval, M)
    grid = polynomial_sum_grid(x, A, B, coeffs, SumCondition.SKIP_BAD_AND_AB)
    primes = primes_in_window(x).primes
    for a, b in itertools.product(range(-A, A + 1), range(-B, B + 1, 2)):
        curve = CurveParams(a, b)
        if curve.delta:
            kept = len(good_traces(curve, primes, SumCondition.SKIP_BAD_AND_AB))
            want = p_polynomial_sum(curve, x, coeffs, SumCondition.SKIP_BAD_AND_AB) + coeffs.const_term * kept
            assert grid[a + A, b + B] == pytest.approx(want, rel=1e-12, abs=1e-12)
            if a == 0 or b == 0:
                assert kept == 0 and grid[a + A, b + B] == 0.0  # p | ab at every prime
        else:
            assert grid[a + A, b + B] == 0.0


def test_polynomial_sum_grid_brackets_like_sandwich_error_bound():
    """Each sandwich side's sweep minus pi~ mu is that side of the per-curve bracket."""
    x, A, B, M = 200.0, 20, 13, 64
    base = -primes_in_window(x).count * st_measure(GEN)
    lower = polynomial_sum_grid(x, A, B, sandwich_coeffs(GEN, M, CoeffMode.MINORANT)) + base
    upper = polynomial_sum_grid(x, A, B, sandwich_coeffs(GEN, M, CoeffMode.MAJORANT)) + base
    for a, b in ((1, 1), (-20, 13), (0, 5), (7, 0), (-3, -1), (17, -11)):
        lo, hi = sandwich_error_bound(CurveParams(a, b), x, GEN, M)
        assert lower[a + A, b + B] == pytest.approx(lo, rel=1e-12, abs=1e-12)
        assert upper[a + A, b + B] == pytest.approx(hi, rel=1e-12, abs=1e-12)
        assert lo <= error_term(CurveParams(a, b), x, GEN) <= hi


def _per_residue_polynomial_sweep(x, A, B, coeffs, condition=SumCondition.SKIP_BAD_ONLY):
    """Oracle for `polynomial_sum_grid`: the polynomial on the float a_p/sqrt(p)
    of every residue pair met, traces from all p FFT rows and the kept mask
    from Delta mod p (and ab mod p under SKIP_BAD_AND_AB), gathered to the box
    and added in ascending prime order."""
    a_vals = np.arange(-A, A + 1, dtype=np.int64)
    b_vals = np.arange(-B, B + 1, dtype=np.int64)
    acc = np.zeros((len(a_vals), len(b_vals)))
    for p in primes_in_window(x).primes:
        ua, ia = np.unique(a_vals % p, return_inverse=True)
        ub, ib = np.unique(b_vals % p, return_inverse=True)
        ap = _trace_rows(p, ua)[:, ub]
        good = (4 * ua[:, None] ** 3 + 27 * ub[None, :] ** 2) % p != 0
        if condition is SumCondition.SKIP_BAD_AND_AB:
            good &= (ua[:, None] != 0) & (ub[None, :] != 0)
        acc += np.where(good, coeffs.eval_traces(ap / math.sqrt(p)), 0.0)[np.ix_(ia, ib)]
    return acc


@pytest.mark.parametrize("x, A, B, interval, M", [
    (40.0, 30, 3, GEN, 16),  # wider than p = 23, 29 in a, narrower than p = 31, 37
    (40.0, 4, 33, HALF, 32),  # in b
    (14.0, 40, 35, Interval(0.3, 2.9, half_open=True), 64),  # in both: p = 11 tiles the box 8 x 7 times
    (300.0, 6, 9, HALF, 256),  # narrower than every window prime
])
def test_polynomial_sum_grid_equals_per_residue_oracle(x, A, B, interval, M):
    for coeffs in (exact_st_coeffs(interval, M), sandwich_coeffs(interval, M, CoeffMode.MAJORANT)):
        got = polynomial_sum_grid(x, A, B, coeffs)
        assert got.tobytes() == _per_residue_polynomial_sweep(x, A, B, coeffs).tobytes()
        for condition in SumCondition:
            got = polynomial_sum_grid(x, A, B, coeffs, condition)
            assert got.tobytes() == _per_residue_polynomial_sweep(x, A, B, coeffs, condition).tobytes()


def test_polynomial_sum_grid_repeats_bit_for_bit():
    coeffs = sandwich_coeffs(HALF, 32, CoeffMode.MAJORANT)
    first = polynomial_sum_grid(60.0, 40, 35, coeffs)
    again = polynomial_sum_grid(60.0, 40, 35, coeffs)
    assert first.tobytes() == again.tobytes()


def test_polynomial_sum_grid_guards(monkeypatch):
    from stmoments import moments_engine

    coeffs = exact_st_coeffs(HALF, 8)
    with pytest.raises(BudgetError, match="16008001 pairs x 135 primes = 2161080135 exceeds the cap of 500000000"):
        polynomial_sum_grid(2000.0, 2000, 2000, coeffs)

    def no_sweep(*args):
        raise AssertionError("swept a prime")

    monkeypatch.setattr(moments_engine, "_box_prime_data", no_sweep)
    too_wide = dataclasses.replace(coeffs, M=MAX_DEGREE + 1)
    with pytest.raises(BudgetError, match=f"coefficient degree M = {MAX_DEGREE + 1} exceeds the cap MAX_DEGREE"):
        polynomial_sum_grid(60.0, 4, 4, too_wide)


@pytest.mark.parametrize("A, B", [(-1, 3), (3, -2), (2.5, 2), (2, 2.0), (-4, -4)])
def test_sweeps_reject_a_bad_box_before_any_prime(monkeypatch, A, B):
    from stmoments import moments_engine

    def no_sweep(*args):
        raise AssertionError("swept a prime")

    monkeypatch.setattr(moments_engine, "_box_prime_data", no_sweep)
    message = re.escape(f"box sweep needs integers A, B >= 0, got A = {A}, B = {B}")
    with pytest.raises(ValueError, match=message):
        family_error_grid(60.0, A, B, HALF)
    with pytest.raises(ValueError, match=message):
        polynomial_sum_grid(60.0, A, B, exact_st_coeffs(HALF, 8))


def test_sweeps_take_an_empty_half_width():
    # A = 0 and B = 0 stay legal: one row or one column of pairs
    for A, B in ((0, 3), (3, 0), (0, 0), (np.int64(2), np.int64(1))):
        grid = family_error_grid(60.0, A, B, HALF)
        assert grid.counts.shape == (2 * A + 1, 2 * B + 1)
        assert np.array_equal(grid.counts, _gather_sweep(60.0, int(A), int(B), HALF))
        assert polynomial_sum_grid(60.0, A, B, exact_st_coeffs(HALF, 8)).shape == (2 * A + 1, 2 * B + 1)


def test_family_moments_checks_m_before_the_sweep(monkeypatch):
    from stmoments import moments_engine

    def no_sweep(*args):
        raise AssertionError("swept the box")

    monkeypatch.setattr(moments_engine, "family_error_grid", no_sweep)
    plan = MomentPlan(x=20000.0, A=100, B=100, interval=HALF, M=10 ** 9)
    with pytest.raises(BudgetError, match="coefficient degree M = 1000000000 exceeds the cap MAX_DEGREE = 100000"):
        family_moments(plan)


@pytest.mark.parametrize("x, error, message", [
    (float("nan"), ValueError, "window operations require x >= 10, got x = nan"),
    (5.0, ValueError, "window operations require x >= 10, got x = 5.0"),
    (math.inf, BudgetError, "x = inf exceeds the largest-prime cap"),
])
def test_plan_rejects_a_bad_x(x, error, message):
    with pytest.raises(error, match=re.escape(message)):
        MomentPlan(x=x, A=1, B=1, interval=HALF)


@pytest.mark.parametrize("condition", [SumCondition.SKIP_BAD_AND_AB, SumCondition.SKIP_BAD_ONLY])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_expansion_identity(condition, t):
    plan = MomentPlan(x=40.0, A=4, B=4, interval=GEN, t_list=(t,), M=2, condition=condition)
    [(direct,)], [(expanded,)] = psum_moment_direct([plan]), moment_via_expansion([plan])
    assert expanded == pytest.approx(direct, abs=1e-9, rel=1e-9)


def test_expansion_t1_linearity():
    plan = MomentPlan(x=40.0, A=3, B=3, interval=HALF, t_list=(1,), M=3, condition=SumCondition.SKIP_BAD_AND_AB)
    [(direct,)], [(expanded,)] = psum_moment_direct([plan]), moment_via_expansion([plan])
    assert expanded == pytest.approx(direct, abs=1e-12)


def test_expansion_guard():
    plan = MomentPlan(x=40.0, A=4, B=4, interval=GEN, t_list=(2,), M=32)
    with pytest.raises(BudgetError, match="M = 32 exceeds the cap of 8"):
        moment_via_expansion([plan])
    plan = MomentPlan(x=40.0, A=4, B=4, interval=GEN, t_list=(2, 5, 1), M=2)
    with pytest.raises(BudgetError, match="t = 5 exceeds the cap of 4"):
        moment_via_expansion([plan])
    for kwargs, message in (
        (dict(M=9), "M = 9 exceeds the cap of 8"),
        (dict(A=16), "A = 16 exceeds the cap of 15"),
        (dict(B=16), "B = 16 exceeds the cap of 15"),
        (dict(x=1447.0), "prime count = 101 exceeds the cap of 100"),
    ):
        plan = dataclasses.replace(MomentPlan(x=40.0, A=4, B=4, interval=GEN, t_list=(4,), M=2), **kwargs)
        with pytest.raises(BudgetError, match=message):
            moment_via_expansion([plan])


@pytest.mark.parametrize("x, A, B, M, t", [
    (40.0, 16, 3, 2, 2),  # A past the expansion's cap of 15
    (40.0, 3, 16, 3, 3),  # B past it
    (1447.0, 2, 1, 2, 4),  # 101 window primes, past the cap of 100
    (40.0, 4, 4, 9, 4),  # M past the cap of 8
    (60.0, 3, 2, 3, 5),  # t past the cap of 4
])
def test_psum_moment_direct_past_the_expansion_caps(x, A, B, M, t):
    """The direct side is the polynomial-sum sweep, bounded only like every
    sweep: against the per-pair `p_polynomial_sum` oracle where the
    expansion refuses the plan."""
    coeffs = exact_st_coeffs(GEN, M)
    assert primes_in_window(1447.0).count == 101
    for condition in SumCondition:
        plan = MomentPlan(x=x, A=A, B=B, interval=GEN, t_list=(t,), M=M, condition=condition)
        with pytest.raises(BudgetError, match="exceeds the cap of"):
            moment_via_expansion([plan])
        sums = [p_polynomial_sum(CurveParams(a, b), x, coeffs, condition)
                for a, b in itertools.product(range(-A, A + 1), range(-B, B + 1)) if 4 * a ** 3 + 27 * b ** 2]
        want = math.fsum(s ** t for s in sums) / (4 * A * B)
        [got] = psum_moment_direct([plan])
        assert got == pytest.approx((want,), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("A, B", [(0, 3), (3, 0), (0, 0)])
def test_cross_check_rejects_an_empty_half_width(monkeypatch, A, B):
    from stmoments import arith_curves, moments_engine

    def no_sweep(*args):
        raise AssertionError("swept a prime")

    monkeypatch.setattr(moments_engine, "_box_prime_data", no_sweep)
    monkeypatch.setattr(moments_engine, "box_summands", no_sweep)
    monkeypatch.setattr(arith_curves, "_twist_index", no_sweep)
    plan = MomentPlan(x=40.0, A=A, B=B, interval=GEN, M=2)
    for route in (moment_via_expansion, psum_moment_direct):
        with pytest.raises(ValueError, match=re.escape(f"needs A >= 1 and B >= 1, got A = {A}, B = {B}")):
            route([plan])


@pytest.mark.parametrize("t_list", [(), (0,), (2, -1)])
def test_plan_rejects_moment_orders_below_one(t_list):
    with pytest.raises(ValueError, match=rf"need t >= 1, got t_list = {re.escape(repr(t_list))}"):
        MomentPlan(x=40.0, A=4, B=4, interval=GEN, t_list=t_list)


def test_plan_caps_the_moment_order():
    """t = MAX_MOMENT_ORDER gives finite moments and Gaussian terms; one more
    is a BudgetError naming t and the cap when the plan is built, so before
    any sweep."""
    assert MAX_MOMENT_ORDER == 64
    plan = MomentPlan(x=100.0, A=3, B=3, interval=HALF, t_list=(2, MAX_MOMENT_ORDER))
    assert all(math.isfinite(r.empirical) and 0 < r.main_term < math.inf for r in family_moments(plan).results)
    for t_list in ((MAX_MOMENT_ORDER + 1,), (1, 400, 2)):
        with pytest.raises(BudgetError, match=re.escape(f"moment order t = {max(t_list)} exceeds the cap of 64")):
            MomentPlan(x=100.0, A=3, B=3, interval=HALF, t_list=t_list)


@pytest.mark.parametrize("c", [math.inf, math.nan, 1e308, -1e308])
def test_a_log_power_that_is_not_a_positive_finite_float_is_refused(monkeypatch, c):
    """(log x)^c overflows at c = inf and 1e308, underflows to 0 at -1e308
    and is NaN at c = nan: the plan refuses it when built, and the probe
    before its prime sum, naming c and x."""
    from stmoments import moments_engine

    def no_sum(*args):
        raise AssertionError("summed over the primes")

    monkeypatch.setattr(moments_engine, "good_traces", no_sum)
    message = re.escape(f"(log x)^c must be a positive finite float, got c = {c}, x = 100.0")
    with pytest.raises(ValueError, match=message):
        MomentPlan(x=100.0, A=3, B=3, interval=HALF, c=c)
    with pytest.raises(ValueError, match=message):
        hypothesis2_probe(CurveParams(1, 1), 1, 0.0, 100.0, c)


def test_clt_caps_the_bins_before_any_sweep(monkeypatch):
    from stmoments import moments_engine

    def no_sweep(*args):
        raise AssertionError("swept a box")

    monkeypatch.setattr(moments_engine, "family_error_grid", no_sweep)
    plan = MomentPlan(x=100.0, A=3, B=3, interval=HALF)
    with pytest.raises(BudgetError, match=re.escape(f"bins = {MAX_BINS + 1} exceeds the cap of 1000000")):
        clt_histogram(plan, bins=MAX_BINS + 1)


def test_clt_refuses_a_bin_count_below_one_before_any_prime(monkeypatch):
    from stmoments import moments_engine

    def no_sweep(*args):
        raise AssertionError("swept a prime")

    monkeypatch.setattr(moments_engine, "_box_prime_data", no_sweep)
    plan = MomentPlan(x=100.0, A=3, B=3, interval=HALF)
    for bins in (0, -1):
        with pytest.raises(ValueError, match=re.escape(f"the CLT histogram needs bins >= 1, got bins = {bins}")):
            clt_histogram(plan, bins=bins)


@pytest.mark.parametrize("kwargs", [dict(t_list=(2.0,)), dict(t_list=(1, 2.5)), dict(M=2.5), dict(M=3.0)])
def test_plan_rejects_non_integer_orders_and_degree(kwargs):
    plan = dict(t_list=(1, 2), M=None) | kwargs
    message = f"moment orders and M must be integers, got t_list = {plan['t_list']}, M = {plan['M']}"
    with pytest.raises(ValueError, match=re.escape(message)):
        MomentPlan(x=40.0, A=4, B=4, interval=GEN, **kwargs)


@pytest.mark.parametrize("condition", list(SumCondition))
def test_cross_check_builds_once_for_every_order(monkeypatch, condition):
    """Each side reads its box data once for the whole t_list, and each
    entry equals the plan's single-t moment bit for bit."""
    from stmoments import moments_engine

    def counted(name):
        real, calls = getattr(moments_engine, name), []
        monkeypatch.setattr(moments_engine, name, lambda p, *args: calls.append(p) or real(p, *args))
        return calls

    plan = MomentPlan(x=60.0, A=6, B=5, interval=GEN, t_list=(1, 2, 3), M=3, condition=condition)
    prime_data, power_tables = counted("_box_prime_data"), counted("_masked_power_tables")
    [direct], [expanded] = psum_moment_direct([plan]), moment_via_expansion([plan])
    assert prime_data == list(primes_in_window(plan.x).primes)
    assert power_tables == [plan]
    assert len(direct) == len(expanded) == 3
    for t, d, e in zip(plan.t_list, direct, expanded):
        single = dataclasses.replace(plan, t_list=(t,))
        assert psum_moment_direct([single]) == [(d,)] and moment_via_expansion([single]) == [(e,)]
        assert e == pytest.approx(d, rel=1e-9, abs=1e-9)


def test_expansion_list_equals_each_plan(monkeypatch):
    """One power-table build per (x, A, B, condition), at the largest t M of
    its plans, serves every plan of the group bit for bit."""
    from stmoments import moments_engine

    plans = [MomentPlan(x=x, A=A, B=B, interval=iv, t_list=t_list, M=M, condition=condition)
             for x, A, B in ((40.0, 4, 3), (60.0, 2, 5))
             for iv, t_list, M in ((GEN, (1, 3), 2), (HALF, (2,), 3), (GEN, (1, 2, 3, 4), 1))
             for condition in SumCondition]
    plans.append(plans[0])
    builds = []
    real = moments_engine._masked_power_tables
    monkeypatch.setattr(moments_engine, "_masked_power_tables",
                        lambda plan, mmax: builds.append((plan, mmax)) or real(plan, mmax))
    together = moment_via_expansion(plans)
    assert builds == [(plans[i], 6) for i in (0, 1, 6, 7)]
    builds.clear()
    assert together == [moment_via_expansion([plan])[0] for plan in plans] and len(builds) == len(plans)
    assert moment_via_expansion([]) == []


def test_expansion_checks_every_cap_before_any_table(monkeypatch):
    from stmoments import moments_engine

    def no_tables(*args):
        raise AssertionError("built a power table")

    monkeypatch.setattr(moments_engine, "_masked_power_tables", no_tables)
    good = MomentPlan(x=40.0, A=4, B=3, interval=GEN, M=2)
    with pytest.raises(BudgetError, match="expansion cross-check: M = 9 exceeds the cap of 8"):
        moment_via_expansion([good, dataclasses.replace(good, M=9)])
    with pytest.raises(ValueError, match=re.escape("needs A >= 1 and B >= 1, got A = 0, B = 3")):
        moment_via_expansion([good, dataclasses.replace(good, A=0)])


def test_pipeline_suite_reads_one_power_table_per_box_and_condition(monkeypatch):
    from stmoments import moments_engine, verify

    real, calls = moments_engine.box_summands, []
    monkeypatch.setattr(moments_engine, "box_summands", lambda p, *args: calls.append(p) or real(p, *args))
    assert all(res.ok for res in verify.suite_pipeline())
    window40, window60 = primes_in_window(40.0).primes, primes_in_window(60.0).primes
    assert calls == 2 * list(window40) + 2 * list(window60) and len(calls) == 22


def _sha(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


def _counted_prime_data(monkeypatch):
    """The primes of every `moments_engine._box_prime_data` call from now on."""
    from stmoments import moments_engine

    real, calls = moments_engine._box_prime_data, []
    monkeypatch.setattr(moments_engine, "_box_prime_data", lambda p, *args: calls.append(p) or real(p, *args))
    return calls


MIXED_CHANNELS = [
    HALF,
    (exact_st_coeffs(GEN, 16), SumCondition.SKIP_BAD_ONLY),
    Interval(0.7, 2.0, half_open=True),
    (sandwich_coeffs(HALF, 64, CoeffMode.MAJORANT), SumCondition.SKIP_BAD_AND_AB),
    (exact_st_coeffs(GEN, 16), SumCondition.SKIP_BAD_AND_AB),
    (sandwich_coeffs(HALF, 64, CoeffMode.MAJORANT), SumCondition.SKIP_BAD_ONLY),
]


@pytest.mark.parametrize("x, A, B", [(60.0, 40, 35), (300.0, 6, 9), (14.0, 0, 12)])
def test_multi_channel_sweep_equals_one_channel_sweeps(monkeypatch, x, A, B):
    calls = _counted_prime_data(monkeypatch)
    a_vals, b_vals, accs = _sweep_box(primes_in_window(x), A, B, MIXED_CHANNELS)
    assert calls == list(primes_in_window(x).primes)  # one base table per prime for all six channels
    grid = family_error_grid(x, A, B, HALF)
    assert np.array_equal(a_vals, grid.a_vals) and np.array_equal(b_vals, grid.b_vals)
    for channel, acc in zip(MIXED_CHANNELS, accs):
        if isinstance(channel, Interval):
            want = family_error_grid(x, A, B, channel).counts
        else:
            want = polynomial_sum_grid(x, A, B, *channel)
        assert acc.dtype == want.dtype and not acc.flags.writeable
        assert _sha(acc) == _sha(want)


def test_sweep_spanning_several_evaluation_blocks(monkeypatch):
    from stmoments import moments_engine

    x, A, B = 5000.0, 3, 2
    primes = primes_in_window(x).primes
    assert sum(len(trace_values(p)) for p in primes) > 10 * _EVAL_BLOCK  # more than ten blocks
    channels = [GEN, (exact_st_coeffs(GEN, 32), SumCondition.SKIP_BAD_ONLY),
                (sandwich_coeffs(HALF, 64, CoeffMode.MINORANT), SumCondition.SKIP_BAD_AND_AB)]
    _, _, accs = _sweep_box(primes_in_window(x), A, B, channels)
    assert np.array_equal(accs[0], _gather_sweep(x, A, B, GEN))
    for acc, (coeffs, condition) in zip(accs[1:], channels[1:]):
        assert _sha(acc) == _sha(_per_residue_polynomial_sweep(x, A, B, coeffs, condition))
    monkeypatch.setattr(moments_engine, "_EVAL_BLOCK", 1)  # every prime its own block
    _, _, single = _sweep_box(primes_in_window(x), A, B, channels)
    assert [_sha(acc) for acc in single] == [_sha(acc) for acc in accs]


def test_bracket_check_sweeps_each_prime_once(monkeypatch):
    from stmoments import verify

    calls = _counted_prime_data(monkeypatch)
    res = verify._bracket_check(verify._TEST_INTERVALS[0])
    assert res.ok and res.detail == "0 violations, per-curve gap 1.1e-14"
    assert calls == list(primes_in_window(verify.BS_X).primes) and len(calls) == 42


def test_cross_check_direct_side_sweeps_each_box_once(monkeypatch):
    from stmoments import verify

    calls = _counted_prime_data(monkeypatch)
    checks = verify.suite_pipeline()  # the expansion side reads box_summands, not _box_prime_data
    assert all(res.ok for res in checks)
    assert calls == list(primes_in_window(40.0).primes) + list(primes_in_window(60.0).primes) and len(calls) == 11

    plans = [MomentPlan(x=x, A=A, B=B, interval=iv, t_list=(1, 3), M=M, condition=condition)
             for x, A, B in ((40.0, 4, 3), (60.0, 2, 5), (40.0, 4, 3))
             for iv, M, condition in ((GEN, 2, SumCondition.SKIP_BAD_AND_AB), (HALF, 3, SumCondition.SKIP_BAD_ONLY))]
    calls.clear()
    together = psum_moment_direct(plans)
    assert calls == list(primes_in_window(40.0).primes) + list(primes_in_window(60.0).primes)
    assert together == [psum_moment_direct([plan])[0] for plan in plans]
    assert psum_moment_direct([]) == []


def test_pipeline_suite_runs_under_the_names_the_tracer_wraps(monkeypatch):
    """`suite_pipeline` passes all 24 of its plans to each side of the
    expansion check in one call, under the two names the benchmark's tracer
    wraps, and no `*_many` twin of either is left."""
    from stmoments import moments_engine, verify

    calls = []
    for name in ("psum_moment_direct", "moment_via_expansion"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda plans, name=name, real=real: calls.append((name, plans)) or real(plans))
    lines = [res.line() for res in verify.suite_pipeline()]
    assert len(lines) == 5 and all(line.startswith("PASS") for line in lines)
    assert [name for name, _ in calls] == ["psum_moment_direct", "moment_via_expansion"]
    assert calls[0][1] == calls[1][1] and len(calls[0][1]) == len(set(calls[0][1])) == 24
    assert not [name for name in dir(moments_engine) if name.endswith("_many")]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


# SHA-256 prefixes of grids swept before the sweep kept one workspace for all
# its primes (fresh per-prime arrays, np.tile, take with bounds checks)
RECORDED_SWEEPS = {
    "narrow": ("ec46c46bd56b6b06", "b615cea875932b39"),
    "wide": ("8d02efdc71eceac5", "1c276db620c5282d"),
    "channels": ("bd7e18d59dcb2bb9", "7b9c961711b0155d", "1050d8278b465803",
                 "98a00f529f82e703", "58de8cd540f87d25", "5c7ae7bdafcc97c7"),
    "blocks": ("b137807d5f136408", "6d86dcb2eb37f7a5"),
    "dtype_switch": ("bcbf29c00730b14d", "1dc49d0de2a7ce83"),
}


def test_sweeps_equal_recorded_digests():
    grid = family_error_grid(3000.0, 50, 50, HALF)  # a narrow box: 101 residues of each prime
    got = {"narrow": (_digest(grid.counts, grid.admissible),
                      _digest(polynomial_sum_grid(3000.0, 50, 50, exact_st_coeffs(HALF, 16))))}
    grid = family_error_grid(200.0, 400, 300, GEN)  # every residue, tiled along both axes
    got["wide"] = (_digest(grid.counts, grid.admissible),
                   _digest(polynomial_sum_grid(200.0, 400, 300, sandwich_coeffs(HALF, 64, CoeffMode.MAJORANT),
                                               SumCondition.SKIP_BAD_AND_AB)))
    got["channels"] = tuple(map(_digest, _sweep_box(primes_in_window(60.0), 40, 35, MIXED_CHANNELS)[2]))
    window = primes_in_window(5000.0)
    assert sum(len(trace_values(p)) for p in window.primes) > 10 * _EVAL_BLOCK
    got["blocks"] = tuple(map(_digest, _sweep_box(window, 3, 2, MIXED_CHANNELS[:2])[2]))
    # the index is reduced in uint32 below 2^16 and in int64 above, inside one sweep
    window = PrimeWindow(65540.0, (65519, 65521, 65537, 65539))
    got["dtype_switch"] = tuple(map(_digest, _sweep_box(window, 3, 4, MIXED_CHANNELS[:2])[2]))
    assert got == RECORDED_SWEEPS


def _recorded_workspaces(monkeypatch) -> list:
    """Every `_Workspace` made from now on, kept alive for inspection."""
    from stmoments import arith_curves

    made, init = [], arith_curves._Workspace.__init__

    def recording(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(arith_curves._Workspace, "__init__", recording)
    return made


def test_no_result_shares_memory_with_a_workspace(monkeypatch):
    from stmoments.arith_curves import ap_table

    made = _recorded_workspaces(monkeypatch)
    results = [*_sweep_box(primes_in_window(60.0), 40, 35, MIXED_CHANNELS)[2],
               *tuple(family_error_grid(300.0, 6, 9, GEN))[:4],
               *box_summands(101, np.arange(-7, 8), np.arange(-3, 150), SumCondition.SKIP_BAD_AND_AB),
               ap_table(53).ap, ap_table(53).kind]
    assert len(made) > 3 and all(work._flat for work in made)
    for work in made:
        for buffer in work._flat.values():
            assert not any(np.shares_memory(result, buffer) for result in results)


def _recorded_regions(monkeypatch) -> list:
    """(name, buffer, views) of every `_Workspace.regions` call from now on;
    buffers and views stay alive, so no buffer id is reused."""
    from stmoments import arith_curves

    calls, regions = [], arith_curves._Workspace.regions

    def recording(self, name, *layout):
        views = regions(self, name, *layout)
        calls.append((name, self._flat[name], views))
        return views

    monkeypatch.setattr(arith_curves._Workspace, "regions", recording)
    return calls


def _request(buffer, views) -> int:
    """The bytes one `regions` call asked of ``buffer``: the end of its last view."""
    return max(view.ctypes.data + view.nbytes for view in views) - buffer.ctypes.data


def _check_growth(work, calls) -> None:
    """The growth rule on one sweep's calls: a buffer is replaced only by one
    at least twice its size that holds the request, each name is allocated
    at most three times, and ``work`` ends with each name's last buffer."""
    for name, buffer in work._flat.items():
        buffers = []
        for n, buf, views in calls:
            if n == name and not any(buf is seen for seen in buffers):
                buffers.append(buf)
                assert buf.nbytes >= _request(buf, views), name
        assert 1 <= len(buffers) <= 3 and buffers[-1] is buffer, (name, len(buffers))
        for old, new in zip(buffers, buffers[1:]):
            assert new.nbytes >= 2 * old.nbytes, name


def test_one_workspace_per_sweep(monkeypatch):
    """A sweep makes one workspace with one uint8 byte buffer per name, and
    each buffer grows by doubling: at most three allocations a name."""
    made, calls = _recorded_workspaces(monkeypatch), _recorded_regions(monkeypatch)
    _sweep_box(primes_in_window(500.0), 300, 200, MIXED_CHANNELS[:2])
    assert len(made) == 1
    assert set(made[0]._flat) == {"scratch", "base", "good", "index", "table"}
    assert all(buffer.dtype == np.uint8 for buffer in made[0]._flat.values())
    _check_growth(made[0], calls)


def test_sweep_temporaries_share_one_block(monkeypatch):
    """A block holds PAIR_BLOCK // period_b period rows.  Each block's twist
    reduction and quotient and the b-tiles are never live together, so they
    are views of one scratch block, and the workspace is smaller by at least
    their size than a layout with one buffer per (name, dtype), which took
    9 980 017 bytes in this sweep, 1 992 008 of them for the twist reduction
    and quotient."""
    made, calls = _recorded_workspaces(monkeypatch), _recorded_regions(monkeypatch)
    window = primes_in_window(500.0)
    _sweep_box(window, 300, 200, MIXED_CHANNELS[:2])
    p = max(q for q in window.primes if q < 401)  # the largest prime whose period table is tiled along b
    rows = PAIR_BLOCK // p
    k, primes = -1, []  # each prime's calls open with its one "table" request
    for name, _, _ in calls:
        k += name == "table"
        primes.append(window.primes[k])
    scratch = [views for (name, _, views), q in zip(calls, primes) if name == "scratch" and q == p]
    twists = [views for views in scratch if views[0].shape[1] == p]
    assert [[view.shape for view in views] for views in twists] == [[(r, p)] * 2 for r in (rows, rows, p - 2 * rows)]
    tiles, = [views for views in scratch if views[0].shape[1] == 401]  # all channels' tiles in one request
    assert [(tile.shape, tile.dtype) for tile in tiles] == [((rows, 401), np.uint8), ((rows, 401), np.float64)]
    assert any(np.shares_memory(tile, quotient) for tile in tiles for _, quotient in twists)
    for views in scratch:
        assert all(view.ctypes.data % 16 == 0 for view in views)  # aligned for complex128
    assert sum(buffer.nbytes for buffer in made[0]._flat.values()) <= 9_980_017 - 1_992_008


def test_mixed_sweep_allocates_each_buffer_by_doubling(monkeypatch):
    """A sweep with a uint8 count channel and a float64 channel asks for all
    of a prime's channel tables, and all of its tiles, in one request each,
    so its buffers follow the growth rule as a one-channel sweep's do."""
    made, calls = _recorded_workspaces(monkeypatch), _recorded_regions(monkeypatch)
    _sweep_box(primes_in_window(500.0), 300, 200, [HALF, (exact_st_coeffs(GEN, 16), SumCondition.SKIP_BAD_ONLY)])
    assert len(made) == 1 and set(made[0]._flat) == {"scratch", "base", "good", "index", "table"}
    _check_growth(made[0], calls)


def test_scratch_is_at_most_twice_its_largest_request(monkeypatch):
    """At x = 1000, half box 600, a block's twist reduction and quotient
    (about 523 KB at p = 503) outgrow its b-tiles (about 156 KB); "scratch"
    ends at most twice its largest request, and every named buffer of that
    sweep and of the workload-shaped ones follows the growth rule."""
    made, calls = _recorded_workspaces(monkeypatch), _recorded_regions(monkeypatch)
    for x, half in ((1000.0, 600), (2000.0, 900), (3000.0, 50), (2000.0, 60), (500.0, 1000)):
        made.clear()
        calls.clear()
        _sweep_box(primes_in_window(x), half, half, [HALF])
        (work,) = made
        assert set(work._flat) == {"scratch", "base", "good", "index", "table"}, (x, half)
        _check_growth(work, calls)
        if (x, half) == (1000.0, 600):
            largest = max(_request(buffer, views) for name, buffer, views in calls if name == "scratch")
            assert work._flat["scratch"].nbytes <= 2 * largest


@pytest.mark.parametrize("pair_block", [1, 1000, 10 ** 9])
def test_sweep_block_size_leaves_every_accumulator_bit_identical(monkeypatch, pair_block):
    # a box wider than its primes in a and in b, so each period table is
    # tiled both ways; one period row a block, several blocks with a short
    # last one, and the whole period in one block
    from stmoments import moments_engine

    window = primes_in_window(60.0)
    _, _, want = _sweep_box(window, 40, 35, MIXED_CHANNELS)
    monkeypatch.setattr(moments_engine, "PAIR_BLOCK", pair_block)
    _, _, got = _sweep_box(window, 40, 35, MIXED_CHANNELS)
    for acc, ref in zip(got, want):
        assert acc.dtype == ref.dtype and np.array_equal(acc, ref)


def test_sweep_workspace_holds_blocks_not_periods(monkeypatch):
    """The x = 1000, 1201 x 1201 sweep's workspace stays under 2.5 MiB: a
    block of at most PAIR_BLOCK pairs and the O(p) base tables.  A layout
    with the whole period table of each prime took 17 005 104 bytes here."""
    made = _recorded_workspaces(monkeypatch)
    _sweep_box(primes_in_window(1000.0), 600, 600, [HALF])
    assert len(made) == 1 and sum(buffer.nbytes for buffer in made[0]._flat.values()) < 2.5 * 2 ** 20


def test_plan_statistics_never_build_the_mask():
    plan = MomentPlan(x=200.0, A=30, B=25, interval=HALF, M=8, exclude_axes=True)
    family_moments(plan), clt_histogram(plan).counts, almost_all_report(plan, 1.0)
    grid = plan._grid
    assert "admissible" not in vars(grid)
    mask = grid.admissible
    assert np.array_equal(mask, nonsingular_mask(grid.a_vals, grid.b_vals)) and not mask.flags.writeable
    assert grid.admissible is mask and "admissible" in vars(grid)
    a_vals, b_vals, counts, admissible, pi_tilde = grid
    assert (a_vals, b_vals, counts, admissible, pi_tilde) == tuple(grid) == tuple(grid[i] for i in range(5))
    assert counts is grid.counts and admissible is mask and pi_tilde == primes_in_window(200.0).count


def test_multi_channel_sweep_guards(monkeypatch):
    from stmoments import moments_engine

    def no_sweep(*args):
        raise AssertionError("swept a prime")

    monkeypatch.setattr(moments_engine, "_box_prime_data", no_sweep)
    window = primes_in_window(60.0)
    for A, B in ((2.5, 2), (-1, 3), (3, 2.0)):
        with pytest.raises(ValueError, match=re.escape(f"box sweep needs integers A, B >= 0, got A = {A}, B = {B}")):
            _sweep_box(window, A, B, MIXED_CHANNELS)
    with pytest.raises(BudgetError, match="16008001 pairs x 135 primes = 2161080135 exceeds the cap of 500000000"):
        _sweep_box(primes_in_window(2000.0), 2000, 2000, MIXED_CHANNELS)
    with pytest.raises(ValueError, match="'bogus' is not a valid SumCondition"):
        _sweep_box(window, 2, 2, [HALF, (exact_st_coeffs(HALF, 8), "bogus")])
    too_wide = dataclasses.replace(exact_st_coeffs(HALF, 8), M=MAX_DEGREE + 1)
    with pytest.raises(BudgetError, match=f"coefficient degree M = {MAX_DEGREE + 1} exceeds the cap MAX_DEGREE"):
        _sweep_box(window, 2, 2, [HALF, (too_wide, SumCondition.SKIP_BAD_ONLY)])
    plans = [MomentPlan(x=60.0, A=3, B=3, interval=GEN, M=2), MomentPlan(x=60.0, A=0, B=3, interval=GEN, M=2)]
    with pytest.raises(ValueError, match=re.escape("needs A >= 1 and B >= 1, got A = 0, B = 3")):
        psum_moment_direct(plans)


def test_sum_condition_values_mean_one_thing_on_both_routes():
    """A SumCondition's value string selects that member on the box route and
    on the per-curve route alike; any other value is a ValueError naming it."""
    coeffs, curve = exact_st_coeffs(GEN, 3), CurveParams(23, 1)  # 23 is a window prime of x = 40
    grids = {c: polynomial_sum_grid(40.0, 4, 5, coeffs, c) for c in SumCondition}
    sums = {c: p_polynomial_sum(curve, 40.0, coeffs, c) for c in SumCondition}
    assert not np.array_equal(*grids.values()) and len(set(sums.values())) == 2
    for c in SumCondition:
        assert np.array_equal(polynomial_sum_grid(40.0, 4, 5, coeffs, c.value), grids[c])
        assert p_polynomial_sum(curve, 40.0, coeffs, c.value) == sums[c]
        assert np.array_equal(good_traces(curve, [23, 29], c.value), good_traces(curve, [23, 29], c))
    for route in (lambda c: polynomial_sum_grid(40.0, 4, 5, coeffs, c),
                  lambda c: box_summands(7, np.arange(3), np.arange(3), c),
                  lambda c: p_polynomial_sum(curve, 40.0, coeffs, c),
                  lambda c: good_traces(curve, [23, 29], c)):
        with pytest.raises(ValueError, match="'bogus' is not a valid SumCondition"):
            route("bogus")


def _expansion_by_permutations(plan, t):
    """The enumeration route: each distinct-prime sum taken over all ordered
    tuples of distinct window primes, O(P^u) box products per exponent tuple."""
    M = plan.resolved_m()
    tables = _masked_power_tables(plan, t * M)
    n_primes = len(tables)
    norm = 4.0 * plan.A * plan.B
    u_tables = _fold_u_tables(exact_st_coeffs(plan.interval, M).u, M, t)

    tuple_cache = {}

    def distinct_tuple_sum(alphas):
        key = tuple(sorted(alphas))
        if key in tuple_cache:
            return tuple_cache[key]
        total = 0.0
        for primes in itertools.permutations(range(n_primes), len(alphas)):
            prod = tables[primes[0]][alphas[0]]
            for j in range(1, len(alphas)):
                prod = prod * tables[primes[j]][alphas[j]]
            total += float(prod.sum())
        tuple_cache[key] = total / norm
        return tuple_cache[key]

    total = 0.0
    for blocks in set_partitions(range(t)):
        factor_tables = [u_tables[len(block) - 1] for block in blocks]
        for alphas in itertools.product(*(ft.keys() for ft in factor_tables)):
            coeff = 1.0
            for ft, alpha in zip(factor_tables, alphas):
                coeff *= ft[alpha]
            if coeff != 0.0:
                total += coeff * distinct_tuple_sum(alphas)
    return total


@pytest.mark.parametrize("interval", [HALF, GEN])
def test_fold_u_tables_against_power_basis(interval):
    # no product rule: each product of f_(m_i) is multiplied out in the power
    # basis and peeled back into the f-basis
    for M in range(1, 5):
        u = exact_st_coeffs(interval, M).u
        for r in range(1, 4):
            want = {}
            for ms in itertools.product(range(1, M + 1), repeat=r):
                weight = math.prod(float(u[m]) for m in ms)
                poly = (1,)
                for m in ms:
                    poly = poly_mul(poly, f_poly(m).coeffs)
                for k, c in to_f_basis(poly).items():
                    want[k] = want.get(k, 0.0) + weight * c
            got = _fold_u_tables(u, M, r)[r - 1]
            assert set(got) <= set(want), (M, r)
            for k, w in want.items():
                assert got.get(k, 0.0) == pytest.approx(w, rel=1e-12, abs=0), (M, r, k)


@pytest.mark.parametrize("x, half", [(40.0, 4), (60.0, 6)])
def test_expansion_matches_permutation_route(x, half):
    # the grid of verify's pipeline suite
    for interval in (HALF, GEN):
        for condition in (SumCondition.SKIP_BAD_AND_AB, SumCondition.SKIP_BAD_ONLY):
            for M in (1, 2, 3):
                plan = MomentPlan(x=x, A=half, B=half, interval=interval, t_list=(1, 2, 3), M=M, condition=condition)
                oracle = [_expansion_by_permutations(plan, t) for t in plan.t_list]
                assert moment_via_expansion([plan]) == [pytest.approx(oracle, rel=1e-12)]


@pytest.mark.parametrize("interval", [HALF, GEN])
def test_expansion_t4_matches_direct_on_61_primes(interval):
    plan = MomentPlan(x=800.0, A=15, B=15, interval=interval, t_list=(4,), M=8)
    assert primes_in_window(plan.x).count == 61
    assert moment_via_expansion([plan]) == [pytest.approx(psum_moment_direct([plan])[0], rel=1e-12)]


def test_c_coefficient_gaussian_collapse():
    for M in (2, 3, 5):
        coeffs = exact_st_coeffs(HALF, M)
        z = coeffs.z
        assert expansion_c_coefficient(coeffs.u, M, 2, (0,)) == pytest.approx(z, rel=1e-12)
        assert expansion_c_coefficient(coeffs.u, M, 4, (0, 0)) == pytest.approx(3 * z * z, rel=1e-12)
        # odd t admits no all-zero tuple: single-index blocks contribute 0
        assert expansion_c_coefficient(coeffs.u, M, 3, (0,)) == 0.0


def test_clt_degenerate_box():
    plan = MomentPlan(x=60.0, A=0, B=1, interval=HALF, M=4)
    # box {0} x {-1, 0, 1}: (0, 0) inadmissible, two curves survive
    sample = clt_histogram(plan, bins=4)
    assert sample.size == 2
    assert sample.ks <= 1.0


@pytest.mark.parametrize("beta", [math.pi, math.pi + 1e-15])
def test_clt_rejects_an_interval_of_measure_one(beta):
    # mu(I) = 1 makes the standardization scale sqrt(pi~ (mu - mu^2)) zero
    plan = MomentPlan(x=100.0, A=3, B=3, interval=Interval(0.0, beta))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"needs 0 < mu(I) < 1, got alpha = 0.0, beta = {beta}, mu = 1.0")):
            clt_histogram(plan)


@pytest.mark.parametrize("exclude_axes", [False, True])
def test_clt_empty_selection_names_the_box(exclude_axes):
    # (0, 0) is the only pair of the first box; the second has only axis pairs
    A, B = (0, 0) if not exclude_axes else (0, 2)
    plan = MomentPlan(x=60.0, A=A, B=B, interval=HALF, exclude_axes=exclude_axes)
    with pytest.raises(ValueError, match=f"x = 60.0, A = {A}, B = {B}, exclude_axes = {exclude_axes}"):
        clt_histogram(plan)


@pytest.mark.parametrize("p, A, B", [(7, 9, 2), (11, 3, 20), (13, 7, 9)])
def test_box_prime_data_against_fft_rows(p, A, B):
    # boxes wider than p in a, in b, and in both, all with A != B
    a_vals = np.arange(-A, A + 1, dtype=np.int64)
    b_vals = np.arange(-B, B + 1, dtype=np.int64)
    work = _Workspace()
    base, good, (offsets, d_inv3, b_res) = _box_prime_data(p, a_vals, b_vals, work)
    assert base.shape == good.shape == (6, p) and len(offsets) == len(d_inv3) == min(len(a_vals), p)
    assert np.array_equal(b_res, b_vals[:p] % p)
    rows = _index_rows(p, offsets[1:3], d_inv3[1:3], b_res, work).copy()  # a block of period rows
    index = _index_rows(p, offsets, d_inv3, b_res, work)
    assert index.dtype == np.intp and index.shape == (min(len(a_vals), p), min(len(b_vals), p))
    assert np.array_equal(rows, index[1:3])
    box = np.ix_(np.arange(len(a_vals)) % index.shape[0], np.arange(len(b_vals)) % index.shape[1])
    ap_box, good_box = base.take(index)[box], good.take(index)[box]
    traces = _trace_rows(p, np.arange(p))
    assert np.array_equal(ap_box, traces[np.ix_(a_vals % p, b_vals % p)])
    delta = 4 * a_vals[:, None] ** 3 + 27 * b_vals[None, :] ** 2
    assert np.array_equal(good_box, delta % p != 0)


def test_clt_sample_statistics():
    plan = MomentPlan(x=500.0, A=15, B=15, interval=HALF, M=16)
    sample = clt_histogram(plan, bins=20)
    # the sample drops the Delta = 0 pairs (0, 0) and (-3, +-2)
    singular = sum(1 for a in range(-15, 16) for b in range(-15, 16) if 4 * a ** 3 + 27 * b ** 2 == 0)
    assert singular == 3
    assert sample.size == 31 * 31 - singular
    assert sample.bin_counts.sum() == sample.size
    # standardized second moment tracks the t=2 moment ratio
    rep = family_moments(MomentPlan(x=500.0, A=15, B=15, interval=HALF, t_list=(2,), M=16))
    ratio = rep.results[0].ratio
    second = float((sample.standardized ** 2).sum()) / (4 * 15 * 15)
    assert second == pytest.approx(ratio, rel=1e-12)
    assert abs(sample.mean) < 1.0


def _ks_sorted_sample(sample):
    """Oracle for `_ks_against_normal`: the KS distance from the sorted sample."""
    s = np.sort(sample)
    n = len(s)
    cdf = _normal_cdf(s)
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def test_ks_table_equals_sorted_sample_on_ties():
    sample = np.array([0.5, -1.25, 0.5, 0.0, 3.0, -1.25, 0.5, 0.0, 7.5, 0.5])
    values, mult = np.unique(sample, return_counts=True)
    assert _ks_against_normal(values, mult) == _ks_sorted_sample(sample)
    assert _ks_against_normal(np.array([0.25]), np.array([4])) == _ks_sorted_sample(np.full(4, 0.25))


STAT_PLANS = [
    dict(x=200.0, A=20, B=17, interval=HALF),
    dict(x=500.0, A=9, B=31, interval=GEN),
    dict(x=60.0, A=40, B=40, interval=Interval(math.pi / 2, math.pi, half_open=True)),
]


def _per_pair(plan):
    """The selected pairs, their counts and float errors, pair by pair."""
    _, _, counts, adm, pi_tilde = family_error_grid(plan.x, plan.A, plan.B, plan.interval)
    sel = adm.copy()
    if plan.exclude_axes:
        sel[plan.A, :] = sel[:, plan.B] = False
    pairs = [(a, b) for a in range(-plan.A, plan.A + 1) for b in range(-plan.B, plan.B + 1)
             if sel[a + plan.A, b + plan.B]]
    selected = counts[sel]
    return pairs, selected, selected - pi_tilde * st_measure(plan.interval)


@pytest.mark.parametrize("exclude_axes", [False, True])
@pytest.mark.parametrize("kwargs", STAT_PLANS)
def test_moments_against_exact_pair_sums(kwargs, exclude_axes):
    plan = MomentPlan(**kwargs, t_list=(1, 2, 3, 4), M=8, exclude_axes=exclude_axes)
    _, _, errors = _per_pair(plan)
    norm = 4 * plan.A * plan.B
    for r in family_moments(plan).results:
        exact = sum(Fraction(float(e)) ** r.t for e in errors) / norm
        scale = float(sum(Fraction(abs(float(e))) ** r.t for e in errors) / norm)
        assert abs(r.empirical - float(exact)) <= 1e-12 * scale, r.t


@pytest.mark.parametrize("exclude_axes", [False, True])
@pytest.mark.parametrize("kwargs", STAT_PLANS)
def test_clt_sample_against_per_pair_route(kwargs, exclude_axes):
    plan = MomentPlan(**kwargs, M=8, exclude_axes=exclude_axes)
    pairs, selected, errors = _per_pair(plan)
    sample = clt_histogram(plan, bins=12)
    assert np.array_equal(sample.a, [a for a, _ in pairs]) and np.array_equal(sample.b, [b for _, b in pairs])
    assert np.array_equal(sample.counts, selected) and np.array_equal(sample.errors, errors)
    bin_counts, bin_edges = np.histogram(sample.standardized, bins=12)
    assert np.array_equal(sample.bin_counts, bin_counts) and sample.bin_counts.dtype == bin_counts.dtype
    assert np.array_equal(sample.bin_edges, bin_edges)
    assert sample.ks == _ks_sorted_sample(sample.standardized)
    mu = st_measure(plan.interval)
    standardized = np.asarray(errors) / math.sqrt(primes_in_window(plan.x).count * (mu - mu * mu))
    assert sample.mean == pytest.approx(float(standardized.mean()), rel=1e-12)
    assert sample.variance == pytest.approx(float(standardized.var()), rel=1e-12)


@pytest.mark.parametrize("exclude_axes", [False, True])
@pytest.mark.parametrize("kwargs", STAT_PLANS)
def test_almost_all_against_per_pair_route(kwargs, exclude_axes):
    plan = MomentPlan(**kwargs, M=8, exclude_axes=exclude_axes)
    _, _, errors = _per_pair(plan)
    errors = np.abs(errors)
    for profile in Profile:
        for y in (0.2, 1.0, 3.0):
            rep = almost_all_report(plan, y, profile)
            assert (rep.exceptions, rep.total) == (int((errors > y * rep.threshold).sum()), len(errors))
            fits = np.log(errors[errors > 0]) / math.log(plan.x)
            assert rep.exponent_fit_max == float(fits.max())
            assert rep.exponent_fit_mean == pytest.approx(float(fits.mean()), rel=1e-12, abs=1e-12)


def test_normal_cdf_on_tied_sample():
    sample = np.array([0.5, -1.25, 0.5, 0.0, 3.0, -1.25, 0.5, 0.0, 7.5])
    expected = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in sample])
    assert np.array_equal(_normal_cdf(sample), expected)


def test_clt_csv(tmp_path):
    plan = MomentPlan(x=60.0, A=2, B=2, interval=HALF, M=4)
    sample = clt_histogram(plan)
    path = tmp_path / "clt.csv"
    sample.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b,n_i,error,standardized"
    assert len(lines) == 1 + sample.size


@pytest.mark.parametrize("exclude_axes", [False, True])
def test_clt_sample_memory_stays_narrow(exclude_axes):
    # 401 x 401 box whose grid and count table the plan already keeps: the
    # sample holds views of the grid and gathers its counts on first read
    plan = MomentPlan(x=200.0, A=200, B=200, interval=HALF, exclude_axes=exclude_axes)
    family_moments(plan)
    grid = plan._grid
    tracemalloc.start()
    try:
        sample = clt_histogram(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sample.size, (peak, sample.size)  # less than 1 byte per selected pair
    # the axes hold 801 pairs, 800 of them admissible: Delta(0, 0) = 0
    assert sample.size == int(np.count_nonzero(grid.admissible)) - (800 if exclude_axes else 0)
    assert "counts" not in vars(sample)
    for f in dataclasses.fields(sample):
        if isinstance(v := getattr(sample, f.name), np.ndarray) and v.size >= sample.size:
            assert np.shares_memory(v, grid.counts), f.name
    counts = sample.counts
    assert counts.dtype == grid.counts.dtype == np.uint8 and counts.shape == (sample.size,)
    assert np.array_equal(counts, grid.counts[sample.selection]) and sample.counts is counts


def _csv_row_by_row(plan) -> str:
    """Oracle for `CltSample.write_csv`: one line per selected pair, from the grid entry by entry."""
    _, _, counts, adm, pi_tilde = family_error_grid(plan.x, plan.A, plan.B, plan.interval)
    mu = st_measure(plan.interval)
    scale = math.sqrt(pi_tilde * (mu - mu * mu))
    lines = ["a,b,n_i,error,standardized\n"]
    for a in range(-plan.A, plan.A + 1):
        for b in range(-plan.B, plan.B + 1):
            if adm[a + plan.A, b + plan.B] and not (plan.exclude_axes and (a == 0 or b == 0)):
                c = int(counts[a + plan.A, b + plan.B])
                error = c - pi_tilde * mu
                lines.append(f"{a},{b},{c},{error!r},{error / scale!r}\n")
    return "".join(lines)


@pytest.mark.parametrize("exclude_axes", [False, True])
@pytest.mark.parametrize("x, A, B, interval", [
    (200.0, 20, 17, HALF),
    (5000.0, 4, 6, Interval(0.3, 1.9, half_open=True)),  # pi~ = 302: uint16 counts
    (100.0, 150, 130, GEN),  # 301 x 261 box pairs: more than one block of rows
])
def test_clt_csv_streams_the_row_by_row_file(tmp_path, x, A, B, interval, exclude_axes):
    plan = MomentPlan(x=x, A=A, B=B, interval=interval, exclude_axes=exclude_axes)
    path = tmp_path / "clt.csv"
    clt_histogram(plan).write_csv(path)
    assert path.read_text() == _csv_row_by_row(plan)


def test_almost_all_monotone_in_y():
    plan = MomentPlan(x=500.0, A=15, B=15, interval=HALF, M=16, c=1.0)
    reports = [almost_all_report(plan, y, Profile.UNCONDITIONAL) for y in (0.1, 0.5, 1.0, 3.0)]
    fracs = [r.fraction for r in reports]
    assert fracs == sorted(fracs, reverse=True)
    assert reports[-1].exceptions <= reports[0].exceptions
    huge = almost_all_report(plan, 1e9, Profile.UNCONDITIONAL)
    assert huge.exceptions == 0


def test_almost_all_profiles():
    plan = MomentPlan(x=500.0, A=10, B=10, interval=HALF, M=16)
    for profile in Profile:
        rep = almost_all_report(plan, 2.0, profile)
        assert rep.threshold > 0
        assert 0 <= rep.fraction <= 1


def test_hypothesis2_probe():
    curve = CurveParams(1, 1)
    probe = hypothesis2_probe(curve, 1, 6.0, 12.0)
    assert probe.value == pytest.approx(3 / math.sqrt(7) - 2 / math.sqrt(11), abs=1e-12)
    m0 = hypothesis2_probe(curve, 0, 6.0, 12.0)
    assert m0.value == 2.0  # both window primes are good
    bad = hypothesis2_probe(CurveParams(0, 7), 0, 6.0, 12.0)
    assert bad.value == 1.0  # 7 is dropped
    with pytest.raises(ValueError):
        hypothesis2_probe(CurveParams(0, 0), 1, 6.0, 12.0)
    with pytest.raises(ValueError):
        hypothesis2_probe(curve, 1, 20.0, 12.0)


def test_supersingular_odd_powers_vanish():
    # y^2 = x^3 + b at p = 2 mod 3 is supersingular: a_p = 0, so odd-power
    # coefficients vanish prime by prime
    from stmoments.arith_curves import curve_ap

    curve = CurveParams(0, 1)
    for p in (5, 11, 17, 23):
        assert curve_ap(p, curve).ap == 0
    probe = hypothesis2_probe(curve, 3, 9.0, 12.0)  # window {11}, supersingular
    assert probe.value == 0.0


def test_exclude_axes_flag():
    plan = MomentPlan(x=200.0, A=8, B=8, interval=HALF, t_list=(2,), M=8, exclude_axes=True)
    rep = family_moments(plan)
    plan2 = MomentPlan(x=200.0, A=8, B=8, interval=HALF, t_list=(2,), M=8)
    rep2 = family_moments(plan2)
    assert rep.results[0].empirical != rep2.results[0].empirical


def test_resolved_m_profiles():
    plan = MomentPlan(x=2000.0, A=5, B=5, interval=HALF, profile=Profile.MRH)
    assert plan.resolved_m() == math.ceil(math.sqrt(primes_in_window(2000.0).count))


@pytest.mark.parametrize("A, B", [(6, 5), (3, 3), (5, 2), (0, 4), (2, 0)])
def test_grid_box_equals_fresh_sweep(A, B):
    wide = family_error_grid(200.0, 6, 5, GEN)
    box, fresh = wide.box(A, B), family_error_grid(200.0, A, B, GEN)
    for name in ("a_vals", "b_vals", "counts", "admissible"):
        got, want = getattr(box, name), getattr(fresh, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert not got.flags.writeable and not want.flags.writeable, name
    assert box.pi_tilde == fresh.pi_tilde == primes_in_window(200.0).count


def test_grid_rejects_uncovered_box_and_other_x():
    grid = family_error_grid(200.0, 4, 3, HALF)
    with pytest.raises(ValueError, match=r"\|a\| <= 5, \|b\| <= 3 .* \|a\| <= 4, \|b\| <= 3"):
        grid.box(5, 3)
    for A, B in ((4, 4), (-1, 2)):
        with pytest.raises(ValueError):
            grid.box(A, B)
    with pytest.raises(ValueError, match=r"\|a\| <= 5"):
        clt_histogram(MomentPlan(x=200.0, A=5, B=2, interval=HALF, M=8), grid=grid)
    with pytest.raises(ValueError, match="pi~"):
        family_moments(MomentPlan(x=300.0, A=2, B=2, interval=HALF, M=8), grid)


def _counted_sweeps(monkeypatch) -> list:
    """The argument tuples of every `moments_engine.family_error_grid` call from now on."""
    from stmoments import moments_engine

    calls = []

    def counting(*args):
        calls.append(args)
        return family_error_grid(*args)

    monkeypatch.setattr(moments_engine, "family_error_grid", counting)
    return calls


def _assert_same_result(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert (np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b), field.name


@pytest.mark.parametrize("exclude_axes", [False, True])
def test_statistics_same_with_and_without_grid(monkeypatch, exclude_axes):
    # the given covering grid is never kept, and one sweep of the plan's own box serves every statistic
    plan = MomentPlan(x=200.0, A=5, B=4, interval=GEN, t_list=(1, 2, 3), M=8, exclude_axes=exclude_axes)
    grid = family_error_grid(200.0, 7, 6, GEN)
    calls = _counted_sweeps(monkeypatch)
    _assert_same_result(family_moments(plan, grid), family_moments(plan))
    _assert_same_result(clt_histogram(plan, bins=10, grid=grid), clt_histogram(plan, bins=10))
    for profile in Profile:
        _assert_same_result(almost_all_report(plan, 0.5, profile, grid=grid), almost_all_report(plan, 0.5, profile))
    assert calls == [(200.0, 5, 4, GEN)]


def test_soft_diagnostics_runs_one_sweep(monkeypatch):
    from stmoments import moments_engine, verify

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return family_error_grid(*args, **kwargs)

    monkeypatch.setattr(moments_engine, "family_error_grid", counting)
    monkeypatch.setattr(verify, "family_error_grid", counting)
    diag = verify.soft_diagnostics(x=200.0, half_box=6, clt_half_box=7)
    assert len(calls) == 1

    want = {"moment_ratio_window": (0.5, 1.5), "clt_ks_threshold": 0.1}
    for tag, excl in (("", False), ("_no_cm_axes", True)):
        plan = MomentPlan(x=200.0, A=6, B=6, interval=HALF, t_list=(1, 2), M=64, exclude_axes=excl)
        want["moment_ratio_t2" + tag] = family_moments(plan).results[1].ratio
        sample = clt_histogram(MomentPlan(x=200.0, A=7, B=7, interval=HALF, M=64, exclude_axes=excl))
        want.update({"clt_ks" + tag: sample.ks, "clt_mean" + tag: sample.mean, "clt_variance" + tag: sample.variance})
        if not excl:
            aa = almost_all_report(plan, y=3.0, profile=Profile.HYPOTHESES)
            want.update({"exception_fraction": aa.fraction, "exception_scale_y2": aa.y_power})
    assert len(calls) == 5  # each oracle plan sweeps its box once; the almost-all count reuses its plan's sweep
    assert diag == want


def test_replaced_plan_sweeps_afresh(monkeypatch):
    calls = _counted_sweeps(monkeypatch)
    plan = MomentPlan(x=200.0, A=6, B=5, interval=HALF, M=8)
    family_moments(plan)
    wider = dataclasses.replace(plan, A=9)
    _assert_same_result(family_moments(wider), family_moments(wider, family_error_grid(200.0, 9, 5, HALF)))
    same = dataclasses.replace(plan)
    assert (same, hash(same), repr(same)) == (plan, hash(plan), repr(plan))
    family_moments(same)
    assert calls == [(200.0, 6, 5, HALF), (200.0, 9, 5, HALF), (200.0, 6, 5, HALF)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.A = 3


def _counted_tables(monkeypatch) -> list:
    """The exclude_axes flag of every `moments_engine._count_table` call from now on."""
    from stmoments import moments_engine

    calls = []

    def counting(grid, exclude_axes):
        calls.append(exclude_axes)
        return _count_table(grid, exclude_axes)

    monkeypatch.setattr(moments_engine, "_count_table", counting)
    return calls


@pytest.mark.parametrize("exclude_axes", [False, True])
def test_plan_counts_its_table_once(monkeypatch, exclude_axes):
    plan = MomentPlan(x=200.0, A=13, B=20, interval=HALF, t_list=(1, 2), M=8, exclude_axes=exclude_axes)
    sweeps, tables = _counted_sweeps(monkeypatch), _counted_tables(monkeypatch)
    family_moments(plan), clt_histogram(plan), almost_all_report(plan, 1.0)
    assert len(sweeps) == 1 and tables == [exclude_axes]
    grid = family_error_grid(200.0, 15, 21, HALF)  # a given grid: a fresh table per statistic, none kept
    fresh = dataclasses.replace(plan)
    family_moments(fresh, grid), clt_histogram(fresh, grid=grid), almost_all_report(fresh, 1.0, grid=grid)
    assert tables == [exclude_axes] * 4 and "_grid" not in vars(fresh) and "_table" not in vars(fresh)


@pytest.mark.parametrize("x, A, B, sub", [(200.0, 20, 17, (13, 16)), (60.0, 60, 500, (48, 500)),
                                          (14.0, 0, 3, (0, 3)), (100.0, 3, 0, (2, 0))])
def test_count_table_equals_the_masked_selection(x, A, B, sub):
    # the zeros of Delta in these boxes include (-3k^2, +-2k^3) for k <= 4, and sub-boxes are views
    grid = family_error_grid(x, A, B, HALF)
    for box in (grid, grid.box(*sub)):
        for exclude_axes in (False, True):
            selected = box.admissible
            if exclude_axes:
                selected = selected & (box.a_vals != 0)[:, None] & (box.b_vals != 0)[None, :]
            values, mult = np.unique(box.counts[selected], return_counts=True)
            got = _count_table(box, exclude_axes)
            assert np.array_equal(got[0], values) and np.array_equal(got[1], mult)
            assert got[0].dtype == got[1].dtype == np.intp
            sample = CltSample(box.a_vals, box.b_vals, exclude_axes, box.counts, *[None] * 9)  # reads only these
            assert np.array_equal(sample.selection, selected)


@pytest.mark.parametrize("A, B, error, message", [
    (2000, 2000, BudgetError, f"exceeds the cap of {DEFAULT_BOX_BUDGET}"),
    (2.5, 2, ValueError, re.escape("box sweep needs integers A, B >= 0, got A = 2.5, B = 2")),
])
def test_failed_sweep_keeps_nothing(monkeypatch, A, B, error, message):
    calls = _counted_sweeps(monkeypatch)
    plan = MomentPlan(x=2000.0, A=A, B=B, interval=HALF, M=8)
    for statistic in (family_moments, clt_histogram, lambda plan: almost_all_report(plan, 1.0)):
        with pytest.raises(error, match=message):
            statistic(plan)
    assert len(calls) == 3 and "_grid" not in vars(plan) and "_table" not in vars(plan)
