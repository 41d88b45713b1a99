import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from stmoments import family_averages
from stmoments.arith_curves import (
    CACHE_MAXSIZE,
    CurveParams,
    Interval,
    Reduction,
    _classify_singular,
    _legendre_table,
    _singular_pairs,
    _sqrt_lists,
    _trace_rows,
    _twist_base,
    _twist_traces,
    ap_table,
    count_in_interval,
    curve_ap,
    legendre,
    normalized_coeff,
    primes_in_window,
    primes_upto,
)
from stmoments.errors import BudgetError

from conftest import brute_projective_count, trial_division_primes


def test_prime_window_examples():
    assert primes_in_window(20).primes == (11, 13, 17, 19)
    assert primes_in_window(20).count == 4
    assert primes_in_window(10).primes == (7,)
    assert primes_in_window(12).primes == (7, 11)
    with pytest.raises(ValueError):
        primes_in_window(9.9)


@pytest.mark.parametrize("x", [10, 11.5, 50, 137.2, 500])
def test_prime_window_against_trial_division(x):
    expected = tuple(p for p in trial_division_primes(int(x)) if p > x / 2)
    window = primes_in_window(x)
    assert window.primes == expected
    pi_x = len(trial_division_primes(int(x)))
    pi_half = len(trial_division_primes(int(x / 2)))
    assert window.count == pi_x - pi_half
    for limit in (-1, 0, 1, 2, 3, int(x)):
        assert primes_upto(limit) == tuple(trial_division_primes(limit))


def test_legendre_examples():
    assert legendre(1, 5) == 1
    assert legendre(5, 5) == 0
    assert legendre(2, 5) == -1
    with pytest.raises(ValueError):
        legendre(3, 2)


def test_legendre_multiplicative():
    p = 23
    for a in range(1, p):
        for b in range(1, p):
            assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_curve_ap_examples():
    tv = curve_ap(5, CurveParams(1, 1))
    assert tv.kind is Reduction.GOOD and tv.ap == -3
    tv = curve_ap(11, CurveParams(1, 1))
    assert tv.kind is Reduction.GOOD and tv.ap == -2
    tv = curve_ap(7, CurveParams(0, 7))
    assert tv.kind is Reduction.CUSP and tv.ap == 0
    with pytest.raises(ValueError):
        curve_ap(3, CurveParams(1, 1))
    with pytest.raises(ValueError):
        curve_ap(5, CurveParams(0, 0))


@given(st_.sampled_from([5, 7, 11, 13, 17]), st_.integers(-20, 20), st_.integers(-20, 20))
@settings(max_examples=60, deadline=None)
def test_curve_ap_against_brute_count(p, a, b):
    curve = CurveParams(a, b)
    if curve.delta == 0 or curve.delta % p == 0:
        return
    tv = curve_ap(p, curve)
    assert tv.ap == p + 1 - brute_projective_count(p, a % p, b % p)
    assert tv.ap * tv.ap <= 4 * p


@pytest.mark.parametrize("p", [5, 7, 11, 13, 37, 101])
def test_ap_table_invariants(p):
    table = ap_table(p)
    good = table.good
    assert int((~good).sum()) == p
    assert int(good.sum()) == p * p - p
    assert int(table.ap[good].sum()) == 0
    assert bool((table.ap[good] ** 2 <= 4 * p).all())
    for g in (1, 3, 5):
        assert int((table.ap[good].astype(object) ** g).sum()) == 0
    bad = table.ap[~good]
    assert set(np.unique(bad)).issubset({-1, 0, 1})


def test_ap_table_matches_scalar():
    p = 13
    table = ap_table(p)
    for a in range(p):
        for b in range(p):
            if (4 * a ** 3 + 27 * b ** 2) % p == 0 and (4 * a ** 3 + 27 * b ** 2) != 0:
                tv = curve_ap(p, CurveParams(a, b))
                entry = table.entry(a, b)
                assert (entry.kind, entry.ap) == (tv.kind, tv.ap)
            elif 4 * a ** 3 + 27 * b ** 2 != 0:
                assert table.entry(a, b).ap == curve_ap(p, CurveParams(a, b)).ap


def _twist_grid(p, a_res, b_res):
    return _twist_traces(p, _trace_rows(p, _twist_base(p)), np.asarray(a_res), np.asarray(b_res))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 1009])
def test_twist_traces_equal_fft_rows_on_full_grid(p):
    # p = 5, 13, 101, 1009 are 1 mod 4 and 7, 11 are 3 mod 4: both signs of chi(-1)
    residues = np.arange(p)
    ap, good = _twist_grid(p, residues, residues)
    assert ap.dtype == np.int64
    assert np.array_equal(ap, _trace_rows(p, residues))
    assert np.array_equal(good, (4 * residues[:, None] ** 3 + 27 * residues[None, :] ** 2) % p != 0)


_PRIMES_TO_3000 = primes_upto(3000)[2:]


@settings(max_examples=150, deadline=None)
@given(
    st_.sampled_from(_PRIMES_TO_3000),
    st_.integers(-10 ** 6, 10 ** 6),
    st_.integers(-10 ** 6, 10 ** 6),
    st_.booleans(),
)
def test_twist_traces_entry_against_curve_ap(p, a, b, singular):
    if singular and _singular_pairs(p, a % p):
        b = _singular_pairs(p, a % p)[0] + p * (b // p)
    (ap,), (good,) = _twist_grid(p, [a % p], [b % p])
    delta = 4 * a ** 3 + 27 * b ** 2
    assert bool(good[0]) == (delta % p != 0)
    expected = curve_ap(p, CurveParams(a, b)) if delta % p else _classify_singular(p, a, b)
    assert ap[0] == expected.ap


def _ap_table_oracle(p):
    """ap_table as built from all p FFT rows and the singular-pair loop."""
    ap = _trace_rows(p, np.arange(p))
    kind = np.zeros((p, p), dtype=np.uint8)
    for a in range(p):
        for b in _singular_pairs(p, a):
            tv = _classify_singular(p, a, b)
            kind[a, b] = 1 if tv.kind is Reduction.NODE else 2
            ap[a, b] = tv.ap
    return ap, kind


@pytest.mark.parametrize("p", primes_upto(101)[2:])
def test_ap_table_equals_fft_and_singular_loop(p):
    table = ap_table(p)
    ap, kind = _ap_table_oracle(p)
    assert np.array_equal(table.ap, ap)
    assert np.array_equal(table.kind, kind)


def test_per_prime_caches_share_one_bound():
    for cached in (_legendre_table, _sqrt_lists, family_averages._cached_table):
        assert cached.cache_info().maxsize == CACHE_MAXSIZE


def test_ap_table_budget_guard():
    with pytest.raises(BudgetError):
        ap_table(3001, max_p=3000)


def test_singular_trace_matches_point_count():
    # on a nodal curve the projective count is p + 1 - ap with ap = +-1
    for p in (7, 11, 13):
        table = ap_table(p)
        for a in range(p):
            for b in range(p):
                if not table.good[a, b] and (a, b) != (0, 0):
                    ap = table.entry(a, b).ap
                    assert brute_projective_count(p, a, b) == p + 1 - ap


def test_normalized_coeff():
    from stmoments.arith_curves import TraceValue

    good = TraceValue(Reduction.GOOD, -3)
    assert normalized_coeff(good, 5, 0) == 1
    assert normalized_coeff(good, 5, 2) == pytest.approx(0.8)
    cusp = TraceValue(Reduction.CUSP, 0)
    assert normalized_coeff(cusp, 5, 0) == 1.0
    assert normalized_coeff(cusp, 5, 3) == 0.0
    node = TraceValue(Reduction.NODE, -1)
    assert normalized_coeff(node, 5, 3) == -1.0
    assert normalized_coeff(node, 5, 4) == 1.0
    with pytest.raises(ValueError):
        normalized_coeff(good, 5, -1)


def test_interval_validation_and_membership():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(-0.1, 1.0)
    iv = Interval(0.0, math.pi / 2)
    assert iv.lo == 0.0 and iv.hi == 2.0
    assert iv.contains(0.0) and iv.contains(2.0)
    half = Interval(0.0, math.pi / 2, half_open=True)
    assert half.contains(0.0) and not half.contains(2.0)


@pytest.mark.parametrize("half_open", [False, True])
@pytest.mark.parametrize("alpha, beta", [(0.0, math.pi / 2), (0.7, 2.0), (math.pi / 2, math.pi)])
def test_interval_contains_array_equals_scalar(alpha, beta, half_open):
    iv = Interval(alpha, beta, half_open)
    probes = [v for e in (iv.lo, iv.hi) for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
    probes += [(iv.lo + iv.hi) / 2, -3.0, 3.0]
    values = np.array(probes)
    expected = [iv.contains(float(v)) for v in probes]
    assert all(type(r) is bool for r in expected)
    assert iv.contains(values).tolist() == expected
    assert expected[1] and expected[4] == (not half_open) and not expected[0] and not expected[5]


def test_count_in_interval_examples():
    full = Interval(0.0, math.pi)
    # no bad primes in the window for this curve
    assert count_in_interval(CurveParams(1, 1), 20, full) == primes_in_window(20).count
    # [-2, 0): excludes the trace at 7 (positive), includes the one at 11
    neg = Interval(math.pi / 2, math.pi, half_open=True)
    assert count_in_interval(CurveParams(1, 1), 12, neg) == 1
    with pytest.raises(ValueError):
        count_in_interval(CurveParams(0, 0), 12, full)


def test_count_monotone_in_interval():
    curve = CurveParams(2, 3)
    nested = [Interval(1.0, 1.2), Interval(0.8, 1.5), Interval(0.3, 2.5), Interval(0.0, math.pi)]
    counts = [count_in_interval(curve, 150, iv) for iv in nested]
    assert counts == sorted(counts)


def test_full_interval_counts_good_primes():
    full = Interval(0.0, math.pi)
    curve = CurveParams(0, 7)  # bad at 7 only
    window = primes_in_window(12)
    assert count_in_interval(curve, 12, full) == window.count - 1
