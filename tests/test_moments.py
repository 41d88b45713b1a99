import dataclasses
import math

import numpy as np
import pytest

from stmoments.arith_curves import (
    CurveParams,
    Interval,
    SumCondition,
    _trace_rows,
    count_in_interval,
    primes_in_window,
)
from stmoments.errors import BudgetError
from stmoments.moments_engine import (
    MomentPlan,
    Profile,
    almost_all_report,
    clt_histogram,
    _box_prime_data,
    _normal_cdf,
    delta,
    error_term,
    eta,
    expansion_c_coefficient,
    family_error_grid,
    family_moments,
    hypothesis2_probe,
    moment_via_expansion,
    psum_moment_direct,
)
from stmoments.st_approx import exact_st_coeffs, st_measure

HALF = Interval(0.0, math.pi / 2)
GEN = Interval(0.7, 2.0)


def test_eta_delta():
    assert [eta(t) for t in (1, 2, 3, 4)] == [1, 2, 4, 6]
    assert [delta(t) for t in (1, 2, 3, 4)] == [0, 1, 0, 1]


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


@pytest.mark.parametrize("condition", [SumCondition.SKIP_BAD_AND_AB, SumCondition.SKIP_BAD_ONLY])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_expansion_identity(condition, t):
    plan = MomentPlan(x=40.0, A=4, B=4, interval=GEN, M=2, condition=condition)
    coeffs = exact_st_coeffs(GEN, 2)
    direct = psum_moment_direct(plan, t, coeffs)
    expanded = moment_via_expansion(plan, t, coeffs)
    assert expanded == pytest.approx(direct, abs=1e-9, rel=1e-9)


def test_expansion_t1_linearity():
    plan = MomentPlan(x=40.0, A=3, B=3, interval=HALF, M=3, condition=SumCondition.SKIP_BAD_AND_AB)
    coeffs = exact_st_coeffs(HALF, 3)
    direct = psum_moment_direct(plan, 1, coeffs)
    expanded = moment_via_expansion(plan, 1, coeffs)
    assert expanded == pytest.approx(direct, abs=1e-12)


def test_expansion_guard():
    plan = MomentPlan(x=40.0, A=4, B=4, interval=GEN, M=32)
    with pytest.raises(BudgetError):
        moment_via_expansion(plan, 2)
    plan = MomentPlan(x=40.0, A=4, B=4, interval=GEN, M=2)
    with pytest.raises(BudgetError):
        moment_via_expansion(plan, 5)


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
    ap, good, ia, ib = _box_prime_data(p, a_vals, b_vals)
    ap_box, good_box = ap[ia][:, ib], good[ia][:, ib]
    rows = _trace_rows(p, np.arange(p))
    assert np.array_equal(ap_box, rows[np.ix_(a_vals % p, b_vals % p)])
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
    th = plan.thresholds(2)
    assert th["unconditional"] == pytest.approx(2000.0 ** 2)
    assert th["mrh"] == pytest.approx(2000.0 ** 3)
    assert th["hypothesis1"] == pytest.approx(2000.0 ** 4)


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


def _assert_same_result(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert (np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b), field.name


@pytest.mark.parametrize("exclude_axes", [False, True])
def test_statistics_same_with_and_without_grid(exclude_axes):
    plan = MomentPlan(x=200.0, A=5, B=4, interval=GEN, t_list=(1, 2, 3), M=8, exclude_axes=exclude_axes)
    grid = family_error_grid(200.0, 7, 6, GEN)
    _assert_same_result(family_moments(plan, grid), family_moments(plan))
    _assert_same_result(clt_histogram(plan, bins=10, grid=grid), clt_histogram(plan, bins=10))
    for profile in Profile:
        _assert_same_result(almost_all_report(plan, 0.5, profile, grid=grid), almost_all_report(plan, 0.5, profile))


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
    assert len(calls) == 6  # each statistic without a grid sweeps its own box
    assert diag == want
