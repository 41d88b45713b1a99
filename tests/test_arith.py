import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from stmoments.arith_curves import (
    CACHE_MAXSIZE,
    MAX_PRIME,
    CurveParams,
    Interval,
    Reduction,
    SumCondition,
    _classify_singular,
    _legendre_table,
    _singular_pairs,
    _smooth_length,
    _sqrt_lists,
    _trace_rows,
    _twist_base,
    _twist_index,
    _Workspace,
    ap_table,
    box_summands,
    count_in_interval,
    curve_ap,
    curve_primes,
    good_traces,
    legendre,
    nonsingular_mask,
    primes_in_window,
    primes_upto,
    require_prime,
    trace_values,
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
                kind = (Reduction.GOOD, Reduction.NODE, Reduction.CUSP)[table.kind[a, b]]
                assert (kind, table.ap[a, b]) == (tv.kind, tv.ap)
            elif 4 * a ** 3 + 27 * b ** 2 != 0:
                assert table.ap[a, b] == curve_ap(p, CurveParams(a, b)).ap


def _trace_rows_prime_length(p, a_residues):
    """Oracle for `_trace_rows`: the circular correlation by complex FFTs of length p."""
    chi = _legendre_table(p).astype(np.float64)
    xs = np.arange(p, dtype=np.int64)
    cubes = xs * xs % p * xs % p
    counts = np.empty((len(a_residues), p), dtype=np.float64)
    for i, a in enumerate(a_residues):
        counts[i] = np.bincount((cubes + int(a) * xs) % p, minlength=p)
    corr = np.fft.ifft(np.conj(np.fft.fft(counts, axis=1)) * np.fft.fft(chi)).real
    return -np.rint(corr).astype(np.int64)


class _RecordingWorkspace(_Workspace):
    """A `_Workspace` that keeps the (name, layout) of every request."""

    def __init__(self):
        super().__init__()
        self.layouts = []

    def regions(self, name, *layout):
        self.layouts.append((name, layout))
        return super().regions(name, *layout)


def test_views_keep_their_values_when_a_buffer_grows():
    # a request that does not fit gets max(request, twice the old) bytes; the
    # views handed out before keep the old buffer and its values
    work = _Workspace()
    (small,) = work.regions("scratch", ((3, 5), np.int64))
    small[:] = np.arange(15).reshape(3, 5)
    first = work._flat["scratch"]
    assert first.nbytes == 120
    counts, values = work.regions("scratch", ((10,), np.uint8), ((25,), np.float64))  # 64 + 200 bytes
    assert work._flat["scratch"].nbytes == 264 and values.ctypes.data % 64 == counts.ctypes.data % 64
    values[:], counts[:] = -1.0, 7
    (wide,) = work.regions("scratch", ((40,), np.float64))  # 320 bytes: twice 264
    assert work._flat["scratch"].nbytes == 528
    wide[:] = 3.0
    assert np.array_equal(small, np.arange(15).reshape(3, 5)) and small.base is first
    assert np.all(values == -1.0) and np.all(counts == 7)
    assert not any(np.shares_memory(wide, view) for view in (small, counts, values))
    (again,) = work.regions("scratch", ((2, 5), np.int64))  # fits: a view of the current buffer
    assert np.shares_memory(again, wide)


# both classes of p mod 4 (the reflection's sign chi(-1)) and of p mod 3 (the
# zero row a = 0 at p = 2 mod 3), then the uint32 / int64 boundary of the index
@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 103, 1009, 1019, 49999, 65519, 65537, 99991])
def test_trace_rows_base_rows_equal_prime_length_fft(p):
    base = _twist_base(p)
    work = _RecordingWorkspace()
    rows = _trace_rows(p, base, work)
    assert rows.dtype == np.int64 and rows.shape == (3, p)
    assert np.array_equal(rows, _trace_rows_prime_length(p, base))
    # the correlation covers b <= (p - 1) / 2 only: length L >= (3p - 1) / 2, not 2p - 1
    (name, ((series_shape, _), _)), = work.layouts
    assert name == "scratch" and series_shape[1] == _smooth_length((3 * p - 1) // 2) < _smooth_length(2 * p - 1)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 101, 1009])
def test_trace_rows_full_grid_equal_prime_length_fft(p):
    # 7, 11, 13, 17 are 1, 2, 1, 2 mod 3 and 3, 3, 1, 1 mod 4
    residues = np.arange(p)
    rows = _trace_rows(p, residues)
    assert np.array_equal(rows, _trace_rows_prime_length(p, residues))
    chi_minus_one = 1 if p % 4 == 1 else -1
    assert np.array_equal(rows[:, -1:0:-1], chi_minus_one * rows[:, 1:])  # T(a, -b) = chi(-1) T(a, b)


@pytest.mark.parametrize("p", [5, 11, 101, 10007])
def test_trace_rows_zero_row_vanishes_at_p_2_mod_3(p):
    # cubing permutes F_p, so row a = 0 is identically 0 and skips the transforms
    assert p % 3 == 2
    base = _twist_base(p)
    rows = _trace_rows(p, base)
    assert rows.dtype == np.int64 and rows.shape == (3, p) and not rows[0].any()
    assert np.array_equal(rows, _trace_rows_prime_length(p, base))
    mixed = [0, 1, 0, p - 1, base[2], 0]
    assert np.array_equal(_trace_rows(p, mixed), _trace_rows_prime_length(p, mixed))
    assert np.array_equal(_trace_rows(p, [0, 0]), np.zeros((2, p), dtype=np.int64))
    if p < 10007:  # the full grid at 10007 would take 800 MB
        residues = np.arange(p)
        assert np.array_equal(_trace_rows(p, residues), _trace_rows_prime_length(p, residues))


def test_smooth_length_is_least_5_smooth_at_or_above():
    def is_smooth(n):
        for q in (2, 3, 5):
            while n % q == 0:
                n //= q
        return n == 1

    for n in range(1, 10_001):
        least = n
        while not is_smooth(least):
            least += 1
        assert _smooth_length(n) == least
    assert _smooth_length(0) == 1
    # every prime up to MAX_PRIME asks for at most (3 MAX_PRIME - 1) / 2; the table reaches 2 MAX_PRIME
    assert _smooth_length(1_499_999) == _smooth_length(1_500_000) == 1_500_000
    assert _smooth_length(2 * MAX_PRIME) == 2 * MAX_PRIME


def test_prime_cap_stops_before_allocating():
    over = MAX_PRIME + 1
    with pytest.raises(BudgetError, match=f"sieve limit = {over} exceeds the largest-prime cap MAX_PRIME = {MAX_PRIME}"):
        primes_upto(over)
    with pytest.raises(BudgetError, match=f"p = 1000000007 exceeds the largest-prime cap MAX_PRIME = {MAX_PRIME}"):
        curve_ap(1_000_000_007, CurveParams(1, 1))
    with pytest.raises(BudgetError, match=f"p = {over}"):
        _legendre_table(over)
    assert primes_upto(100_000)[-1] == 99991  # the x = 1e5 frontier is inside the cap


def test_require_prime_rejects_composites():
    for p in (5, 7, 1009, 99991):
        require_prime(p, "a route")
    for p in (2, 3):
        require_prime(p, "a route", least=2)
    for n in (9, 25, 2997, 999_999):
        with pytest.raises(ValueError, match=f"^a route needs a prime p >= 5, got p = {n}$"):
            require_prime(n, "a route")
    with pytest.raises(ValueError, match="^a route needs a prime p >= 5, got p = 3$"):
        require_prime(3, "a route")
    with pytest.raises(ValueError, match="^a route needs a prime p >= 2, got p = 1$"):
        require_prime(1, "a route", least=2)
    with pytest.raises(ValueError, match="the trace grid needs a prime p >= 5, got p = 2997"):
        ap_table(2997)
    assert curve_primes(30) == (5, 7, 11, 13, 17, 19, 23, 29)
    assert curve_primes(4) == curve_primes(-1) == ()


def test_curve_ap_requires_a_prime():
    # a composite modulus used to give a_p = -15 at p = 25, outside the Hasse bound
    with pytest.raises(ValueError, match="the curve trace needs a prime p >= 5, got p = 25"):
        curve_ap(25, CurveParams(1, 1))
    for p in (-7, 0, 1, 2, 3, 4):
        with pytest.raises(ValueError, match=f"the curve trace needs a prime p >= 5, got p = {p}"):
            curve_ap(p, CurveParams(1, 1))
    over = MAX_PRIME + 1  # 101 x 9901: the cap is checked before primality
    with pytest.raises(BudgetError, match=f"p = {over} exceeds the largest-prime cap"):
        curve_ap(over, CurveParams(1, 1))


def _twist_grid(p, a_res, b_res):
    return box_summands(p, np.asarray(a_res), np.asarray(b_res), SumCondition.SKIP_BAD_ONLY)


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


@pytest.mark.parametrize("p, dtype", [(65521, np.uint32), (65537, np.int64), (999_983, np.int64)])
def test_twist_index_dtype_boundary(p, dtype):
    # b d^-3 < p^2 fits uint32 only for p < 2^16 (65521 is the largest such prime);
    # at 999 983 the products of b = p - 1 with almost every d^-3 pass 2^32.
    # The index is reduced in ``dtype`` and returned as intp, for take.
    rng = np.random.default_rng(p)
    ks = rng.integers(1, p, 3).tolist()
    delta_zero = [(0, 0)] + [(-3 * k * k % p, s * 2 * k ** 3 % p) for k in ks for s in (1, -1)]
    a_res = [0, 1, 2, p - 1, *rng.integers(3, p - 1, 2).tolist(), *(-3 * k * k % p for k in ks)]
    # singular pairs from the square-root lists at the two small primes; at
    # 999 983 those lists would hold a million tuples, so the parametrisation
    # (-3k^2, +-2k^3) of Delta = 0 stands in, which the small primes check
    # against the lists
    if p < 1 << 17:
        singular = [(a, b) for a in a_res for b in _singular_pairs(p, a)]
        assert set(delta_zero) <= set(singular)
    else:
        singular = delta_zero
    assert len(singular) >= 6
    b_good = [0, 1, p - 2, p - 1]
    b_res = b_good + [b for _, b in singular]
    work = _RecordingWorkspace()
    base, good, index = _twist_index(p, np.array(a_res), np.array(b_res), work)
    assert base.shape == good.shape == (6, p) and base.dtype == np.int64
    assert index.dtype == np.intp and index.shape == (len(a_res), len(b_res))
    assert set(work._flat) == {"scratch", "base", "good", "index"}
    shape = (len(a_res), len(b_res))  # the twist reduction and its quotient, in the scratch block
    assert [layout for name, layout in work.layouts if name == "scratch" and layout[0][0] == shape] == \
        [((shape, dtype), (shape, dtype))]
    ap, ok = base.take(index), good.take(index)
    for i, a in enumerate(a_res):
        for j, b in enumerate(b_res):
            delta = 4 * a ** 3 + 27 * b ** 2
            assert bool(ok[i, j]) == (delta % p != 0)
            if delta % p == 0:
                assert ap[i, j] == _classify_singular(p, a, b).ap
            elif j < len(b_good) and i < 6:  # curve_ap is O(p): the fixed rows and columns only
                assert ap[i, j] == curve_ap(p, CurveParams(a, b)).ap
    for a, b in singular:
        i, j = a_res.index(a), b_res.index(b)
        assert not ok[i, j] and ap[i, j] == _classify_singular(p, a, b).ap


def _ap_table_oracle(p):
    """ap_table as built from all p FFT rows and the singular-pair loop."""
    ap = _trace_rows_prime_length(p, np.arange(p))
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
    for cached in (_legendre_table, _sqrt_lists):
        assert cached.cache_info().maxsize == CACHE_MAXSIZE


@pytest.mark.parametrize("condition", list(SumCondition))
@pytest.mark.parametrize("p, a_vals, b_vals", [
    (7, np.arange(-9, 10), np.arange(-2, 3)),  # wider than p in a
    (11, np.arange(-3, 4), np.arange(-20, 21)),  # in b
    (13, np.arange(-7, 8), np.arange(-9, 10)),  # in both
    (5, np.arange(1, 36), np.arange(1, 36)),  # the 1..s axes of s_grid_brute
    (7, np.arange(36, 71), np.arange(71, 106)),  # shifted by s and 2s
    (101, np.arange(-30, 31), np.arange(-40, 41)),  # narrower than p
])
def test_box_summands_against_ap_table_gather(p, a_vals, b_vals, condition):
    table = ap_table(p)
    ia, ib = a_vals % p, b_vals % p
    keep = table.good[np.ix_(ia, ib)]
    if condition is SumCondition.SKIP_BAD_AND_AB:
        keep &= (ia[:, None] != 0) & (ib[None, :] != 0)
    ap, got_keep = box_summands(p, a_vals, b_vals, condition)
    assert np.array_equal(got_keep, keep)
    assert ap.dtype == np.int64 and np.array_equal(ap, table.ap[np.ix_(ia, ib)])


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 1009, 2999, 999_983])
def test_trace_values_index_by_integer_trace(p):
    r = math.isqrt(4 * p)
    values = trace_values(p)
    assert values.shape == (2 * r + 1,) and values.dtype == np.float64
    for a in range(-r, r + 1):
        assert values[a] == a / math.sqrt(p)
    if p <= 1009:  # the Hasse bound keeps every grid trace inside the table, so no index aliases
        table = ap_table(p)
        assert int(np.abs(table.ap).max()) <= r
        assert np.array_equal(values[table.ap], table.ap / math.sqrt(p))


@pytest.mark.parametrize("condition", list(SumCondition))
@pytest.mark.parametrize("a, b", [(1, 1), (-3, 7), (0, 7), (5, 0), (0, -11), (12, -30), (-2, 5)])
def test_good_traces_against_scalar_loop(a, b, condition):
    curve = CurveParams(a, b)
    primes = primes_upto(400)[2:]
    expected = []
    for p in primes:
        if curve.delta % p == 0:
            continue
        if condition is SumCondition.SKIP_BAD_AND_AB and (a % p == 0 or b % p == 0):
            continue
        expected.append(curve_ap(p, curve).ap / math.sqrt(p))
    got = good_traces(curve, primes, condition)
    assert got.dtype == float and got.tolist() == expected
    if condition is SumCondition.SKIP_BAD_AND_AB and a * b == 0:
        assert len(got) == 0  # every prime divides ab on an axis curve


def test_good_traces_rejects_a_singular_curve():
    for a, b in ((0, 0), (-3, 2), (-12, -16)):
        with pytest.raises(ValueError, match=f"not an elliptic curve: a = {a}, b = {b}"):
            good_traces(CurveParams(a, b), (), SumCondition.SKIP_BAD_ONLY)


def test_ap_table_budget_guard():
    with pytest.raises(BudgetError):
        ap_table(3001)


@pytest.mark.parametrize("a_vals, b_vals", [
    (np.arange(-27, 28), np.arange(-54, 55)),  # k = 0..3
    (np.arange(-30, 4), np.arange(-20, 60)),  # asymmetric: k = 3 only at b = +54
    (np.arange(-12, 1), np.arange(-1, 17)),
    (np.arange(-2, 5), np.arange(-3, 2)),  # k = 0 only
    (np.arange(1, 5), np.arange(-4, 5)),  # no singular pair
    (np.arange(1, 36), np.arange(1, 36)),  # the 1..s axes of s_grid_brute
])
def test_nonsingular_mask_against_delta_grid(a_vals, b_vals):
    delta = 4 * a_vals[:, None] ** 3 + 27 * b_vals[None, :] ** 2
    mask = nonsingular_mask(a_vals, b_vals)
    assert mask.dtype == bool and np.array_equal(mask, delta != 0)


def test_singular_trace_matches_point_count():
    # on a nodal curve the projective count is p + 1 - ap with ap = +-1
    for p in (7, 11, 13):
        table = ap_table(p)
        for a in range(p):
            for b in range(p):
                if not table.good[a, b] and (a, b) != (0, 0):
                    ap = int(table.ap[a, b])
                    assert brute_projective_count(p, a, b) == p + 1 - ap


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
