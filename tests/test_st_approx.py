import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from stmoments.arith_curves import CurveParams, Interval, SumCondition, count_in_interval, primes_in_window
from stmoments.errors import BudgetError
from stmoments.st_approx import (
    MAX_DEGREE,
    CoeffMode,
    _sin_multiples,
    coeffs_to_csv,
    cosine_grid_blocks,
    exact_st_coeffs,
    p_polynomial_sum,
    parseval_check,
    profile_M,
    sandwich_coeffs,
    sandwich_error_bound,
    st_measure,
)

INTERVALS = [
    Interval(0.0, math.pi / 2),
    Interval(math.pi / 3, 2 * math.pi / 3),
    Interval(0.7, 2.0),
    Interval(0.0, math.pi),
    Interval(1.9, math.pi),
]


def quad_measure(iv: Interval) -> float:
    # quad's default tolerances (1.49e-8) let it stop well above the 1e-12
    # asserted below, so ask for that precision explicitly.
    lo, hi = 2 * math.cos(iv.beta), 2 * math.cos(iv.alpha)
    val, err = quad(
        lambda t: math.sqrt(max(1 - t * t / 4, 0.0)) / math.pi, lo, hi, limit=200, epsabs=1e-13, epsrel=0.0
    )
    assert err < 1e-12
    return val


@pytest.mark.parametrize("iv", INTERVALS)
def test_measure_against_quadrature(iv):
    assert st_measure(iv) == pytest.approx(quad_measure(iv), abs=1e-12)


def test_measure_examples():
    assert st_measure(Interval(0.0, math.pi)) == pytest.approx(1.0)
    assert st_measure(Interval(0.0, math.pi / 2)) == pytest.approx(0.5)
    assert st_measure(Interval(math.pi / 3, 2 * math.pi / 3)) == pytest.approx(1 / 3 + math.sqrt(3) / (2 * math.pi))


def test_exact_coeffs_examples():
    full = exact_st_coeffs(Interval(0.0, math.pi), 12)
    assert np.allclose(full.u, 0.0)
    assert full.const_term == pytest.approx(1.0)
    half = exact_st_coeffs(Interval(0.0, math.pi / 2), 12)
    assert half.u[1] == pytest.approx(4 / (3 * math.pi))
    assert half.const_term == pytest.approx(0.5)
    # decay: |u(m)| <= 4/(pi m)
    c = exact_st_coeffs(Interval(0.7, 2.0), 500)
    ms = np.arange(1, 501)
    assert np.all(np.abs(c.u[1:]) <= 4 / (math.pi * ms) + 1e-15)
    assert np.max(ms * np.abs(c.u[1:])) <= 4 / math.pi + 1e-12


def test_exact_coeffs_are_fourier_coefficients():
    # u(m) equals the integral of f_m(2 cos t) over the arc, against the
    # angle-variable measure (2/pi) sin^2 t
    iv = Interval(0.7, 2.0)
    M = 30
    coeffs = exact_st_coeffs(iv, M)
    from stmoments.chebycomb import f_eval

    for m in (1, 2, 5, 11, M - 2):
        val, err = quad(
            lambda t: f_eval(m, 2 * math.cos(t)) * (2 / math.pi) * math.sin(t) ** 2,
            iv.alpha, iv.beta, limit=300,
        )
        assert coeffs.u[m] == pytest.approx(val, abs=1e-10)


def test_udef_edge_slots():
    # the telescoping loop, written out as the reference: bit-identical values
    iv = Interval(0.7, 2.0)
    for M in (1, 2, 3, 20):
        for c in [exact_st_coeffs(iv, M)] + [sandwich_coeffs(iv, M, side) for side in (CoeffMode.MAJORANT, CoeffMode.MINORANT)
                                            if M >= 16]:
            s = c.s.tolist()
            expected = [0.0] * (M + 1)
            for m in range(1, M - 1):
                expected[m] = s[m] - s[m + 2]
            if M >= 2:
                expected[M - 1] = s[M - 1]
            expected[M] = s[M]
            assert c.u.tolist() == expected


@pytest.mark.parametrize("iv", INTERVALS[:3])
def test_parseval_contract(iv):
    gaps = []
    for M in (100, 1000, 10_000):
        res = parseval_check(iv, M)
        assert res.gap <= res.bound == 20 * math.log(2 * M) / M
        assert res.mu_term == pytest.approx(st_measure(iv) - st_measure(iv) ** 2)
        gaps.append(res.gap)
    assert gaps[0] > gaps[1] > gaps[2]


def test_parseval_full_interval():
    res = parseval_check(Interval(0.0, math.pi), 100)
    assert res.z == 0.0 and res.mu_term == pytest.approx(0.0) and res.gap <= 1e-15


@pytest.mark.parametrize("beta", [math.pi, math.pi + 1e-15])
def test_exact_coeffs_full_arc_exact_zeros(beta):
    s = exact_st_coeffs(Interval(0.0, beta), 10_000).s
    assert np.count_nonzero(s) == 0


def test_exact_coeffs_half_arc_even_zeros():
    s = exact_st_coeffs(Interval(0.0, math.pi / 2), 10_000).s
    assert np.count_nonzero(s[2::2]) == 0
    ms = np.arange(1, 10_001, 2)
    assert np.array_equal(np.sign(s[1::2]), np.where(ms % 4 == 1, 1.0, -1.0))


@pytest.mark.parametrize("theta", [0.3, 0.7, 1.9, 2.0, math.pi / 3, 2 * math.pi / 3, 3.0])
def test_sin_multiples_matches_numpy(theta):
    # both routes carry an argument error of a few k theta eps
    ks = np.arange(1, 20_001)
    eps = np.finfo(float).eps
    diff = np.abs(_sin_multiples(theta, ks) - np.sin(ks * theta))
    assert np.all(diff <= 4 * ks * theta * eps + 4 * eps)


def grid_values(coeff_sets, n: int) -> np.ndarray:
    """The blocks of ``cosine_grid_blocks(coeff_sets, n)`` joined into one
    row per set, after checking that they cover the indices 0..n-1 in order,
    each exactly once, in blocks of one size but a shorter last one."""
    blocks = list(cosine_grid_blocks(coeff_sets, n))
    sizes = [values.shape[1] for _, values in blocks]
    assert all(values.shape == (len(coeff_sets), size) for (_, values), size in zip(blocks, sizes))
    assert [start for start, _ in blocks] == np.cumsum([0] + sizes[:-1]).tolist()
    assert sum(sizes) == n and all(size == sizes[0] for size in sizes[:-1]) and sizes[-1] <= sizes[0]
    return np.concatenate([values for _, values in blocks], axis=1)


@pytest.mark.parametrize("iv", INTERVALS[:3])
@pytest.mark.parametrize("M", [16, 64, 256])
def test_sandwich_pointwise(iv, M):
    thetas = np.linspace(0.0, math.pi, 20001)
    chi = ((thetas >= iv.alpha) & (thetas <= iv.beta)).astype(float)
    plus, minus = grid_values([sandwich_coeffs(iv, M, side) for side in (CoeffMode.MAJORANT, CoeffMode.MINORANT)],
                              thetas.size)
    assert float((plus - chi).min()) >= -1e-12
    assert float((chi - minus).min()) >= -1e-12


def direct_cosine_sums(coeff_sets, thetas) -> np.ndarray:
    """Oracle for ``cosine_grid_blocks``: row i is d0 + sum_m s[m] 2 cos(m t)
    for coefficient set i, from explicit cosine rows shared by all sets, in
    tiles of 128 degrees by 4096 angles."""
    thetas = np.asarray(thetas, dtype=float).reshape(-1)
    M = coeff_sets[0].M
    s = np.array([c.s[1:M + 1] for c in coeff_sets])
    d0 = np.array([c.const_term + (c.s[2] if M >= 2 else 0.0) for c in coeff_sets])
    out = np.repeat(d0[:, None], thetas.size, axis=1)
    for lo in range(0, M, 128):
        ms = np.arange(lo + 1, min(lo + 128, M) + 1)
        for j in range(0, thetas.size, 4096):
            out[:, j:j + 4096] += s[:, lo:lo + ms.size] @ (2.0 * np.cos(np.outer(ms, thetas[j:j + 4096])))
    return out


def coefficient_sets(M: int) -> list:
    """The exact set of each of the 5 intervals and, from M = 16 on, both
    sandwiches of each: 15 sets of degree M."""
    coeff_sets = [exact_st_coeffs(iv, M) for iv in INTERVALS]
    if M >= 16:
        coeff_sets += [sandwich_coeffs(iv, M, side) for iv in INTERVALS
                       for side in (CoeffMode.MAJORANT, CoeffMode.MINORANT)]
    return coeff_sets


@pytest.mark.parametrize("M", [1, 2, 3, 40, 256, 4096])
def test_eval_cosine_matches_direct_sum(M):
    # the grid evaluator against the oracle on every grid of the package's
    # checks and the ends n = 2, 3; n = 100 000 only up to M = 256, where the
    # oracle's 25.6M cosines already take a third of a second
    coeff_sets = coefficient_sets(M)
    eps = np.finfo(float).eps
    for n in (2, 3, 2001, 20_001, 100_000) if M <= 256 else (2, 3, 2001, 20_001):
        oracle = direct_cosine_sums(coeff_sets, np.linspace(0.0, math.pi, n))
        for coeffs, got, want in zip(coeff_sets, grid_values(coeff_sets, n), oracle):
            tol = 64 * M * eps * float(np.abs(coeffs.s[1:]).sum())
            assert float(np.max(np.abs(got - want))) <= tol, (coeffs.mode, n)
    blocks = [values.shape[1] for _, values in cosine_grid_blocks(coeff_sets, 20_001)]
    assert len(blocks) == 3 and blocks[-1] < blocks[0]  # R = 142: q-rows 64 + 64 + 13, the last block partial
    for n in (1, 0):
        with pytest.raises(ValueError, match=f"needs n >= 2 points, got n = {n}"):
            next(cosine_grid_blocks(coeff_sets, n))


@pytest.mark.parametrize("M", [40, 256, 4096])
def test_cosine_grid_blocks_many_sets_equal_one_set_calls(M):
    # each set's values do not depend on the other sets of the call, bit for bit
    coeff_sets = coefficient_sets(M)
    assert len(coeff_sets) == 15
    for n in (2, 3, 2001, 20_001):
        together = grid_values(coeff_sets, n)  # also checks that the blocks cover 0..n-1 once each
        for coeffs, row in zip(coeff_sets, together):
            assert np.array_equal(grid_values([coeffs], n)[0], row), (coeffs.mode, n)


def test_cosine_grid_blocks_refuses_no_sets_and_mixed_degrees():
    with pytest.raises(ValueError, match=re.escape("got 0 sets of degrees []")):
        next(cosine_grid_blocks([], 2001))
    mixed = [exact_st_coeffs(INTERVALS[0], 40), exact_st_coeffs(INTERVALS[1], 41), exact_st_coeffs(INTERVALS[2], 40)]
    with pytest.raises(ValueError, match=re.escape("got 3 sets of degrees [40, 41]")):
        next(cosine_grid_blocks(mixed, 2001))


def test_eval_cosine_degree_one():
    coeffs = exact_st_coeffs(Interval(0.7, 2.0), 1)
    thetas = np.linspace(0.0, math.pi, 3001)
    got = grid_values([coeffs], thetas.size)[0]
    assert np.allclose(got, coeffs.eval_traces(2.0 * np.cos(thetas)), rtol=0.0, atol=1e-15)
    tol = 64 * np.finfo(float).eps * abs(float(coeffs.s[1]))
    assert float(np.max(np.abs(got - direct_cosine_sums([coeffs], thetas)[0]))) <= tol


def test_sandwich_converges_to_exact():
    iv = Interval(0.7, 2.0)
    dev_small = sandwich_coeffs(iv, 256, CoeffMode.MAJORANT).cert
    dev_large = sandwich_coeffs(iv, 4096, CoeffMode.MAJORANT).cert
    assert dev_large < dev_small


def test_sandwich_full_interval_major_is_one():
    c = sandwich_coeffs(Interval(0.0, math.pi), 64, CoeffMode.MAJORANT)
    assert np.allclose(c.u, 0.0)
    assert c.const_term == pytest.approx(1.0)


def test_sandwich_guards():
    with pytest.raises(ValueError):
        sandwich_coeffs(Interval(1.0, 1.05), 16, CoeffMode.MINORANT)
    with pytest.raises(ValueError):
        sandwich_coeffs(Interval(0.7, 2.0), 8, CoeffMode.MAJORANT)
    with pytest.raises(ValueError):
        sandwich_coeffs(Interval(0.7, 2.0), 64, CoeffMode.EXACT)


def test_degree_cap_stops_before_allocating():
    iv = Interval(0.7, 2.0)
    tracemalloc.start()
    try:
        for M in (MAX_DEGREE + 1, 10 ** 9):
            message = f"^coefficient degree M = {M} exceeds the cap MAX_DEGREE = {MAX_DEGREE}$"
            for build in (exact_st_coeffs, parseval_check, lambda iv, M: sandwich_coeffs(iv, M, CoeffMode.MINORANT)):
                with pytest.raises(BudgetError, match=message):
                    build(iv, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert exact_st_coeffs(iv, MAX_DEGREE).M == MAX_DEGREE  # the cap is inclusive


def test_p_polynomial_sum_examples():
    iv = Interval(0.0, math.pi / 2)
    coeffs = exact_st_coeffs(iv, 5)
    curve = CurveParams(1, 1)
    zeroed = exact_st_coeffs(iv, 5)
    zeroed.u = np.zeros(6)
    assert p_polynomial_sum(curve, 12.0, zeroed) == 0.0
    single = exact_st_coeffs(iv, 5)
    single.u = np.zeros(6)
    single.u[1] = 1.0
    got = p_polynomial_sum(curve, 12.0, single)
    assert got == pytest.approx(3 / math.sqrt(7) - 2 / math.sqrt(11), abs=1e-12)
    # axis curve with the ab condition: every prime divides ab
    axis = CurveParams(0, 7)
    assert p_polynomial_sum(axis, 12.0, coeffs, SumCondition.SKIP_BAD_AND_AB) == 0.0
    with pytest.raises(ValueError):
        p_polynomial_sum(CurveParams(0, 0), 12.0, coeffs)


def test_error_bracket_full_interval():
    iv = Interval(0.0, math.pi)
    curve = CurveParams(0, 7)  # bad exactly at 7 in the window (6, 12]
    lo, hi = sandwich_error_bound(curve, 12.0, iv, 64)
    window = primes_in_window(12.0)
    err = count_in_interval(curve, 12.0, iv) - window.count * st_measure(iv)
    assert err == -1.0
    assert lo == pytest.approx(err) and hi == pytest.approx(err)


def test_error_bracket_random_curves():
    import random

    iv = Interval(0.0, math.pi / 2)
    mu = st_measure(iv)
    window = primes_in_window(300.0)
    rng = random.Random(42)
    widths = []
    for _ in range(40):
        while True:
            a, b = rng.randint(-30, 30), rng.randint(-30, 30)
            if 4 * a ** 3 + 27 * b ** 2 != 0:
                break
        curve = CurveParams(a, b)
        lo, hi = sandwich_error_bound(curve, 300.0, iv, 128)
        err = count_in_interval(curve, 300.0, iv) - window.count * mu
        assert lo <= err <= hi
        widths.append(hi - lo)
    # wider degree tightens the bracket on average
    wide = []
    rng = random.Random(42)
    for _ in range(10):
        while True:
            a, b = rng.randint(-30, 30), rng.randint(-30, 30)
            if 4 * a ** 3 + 27 * b ** 2 != 0:
                break
        lo64, hi64 = sandwich_error_bound(CurveParams(a, b), 300.0, iv, 64)
        lo256, hi256 = sandwich_error_bound(CurveParams(a, b), 300.0, iv, 256)
        wide.append((hi64 - lo64) - (hi256 - lo256))
    assert sum(wide) / len(wide) > 0


def test_profile_m():
    assert profile_M(2000.0, 2, "mrh") == math.ceil(math.sqrt(primes_in_window(2000.0).count))
    assert profile_M(2000.0, 2, "unconditional") == math.ceil(2000 ** 0.25 * math.log(2000) ** 0.25)
    assert profile_M(2000.0, 2, "hypotheses") == math.ceil(2000 ** 0.5 * math.log(2000) ** 0.25)
    with pytest.raises(ValueError):
        profile_M(2000.0, 2, "bogus")


def test_coeff_csv(tmp_path):
    c = exact_st_coeffs(Interval(0.7, 2.0), 8)
    path = tmp_path / "bs.csv"
    coeffs_to_csv(c, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "m,s,u"
    assert len(lines) == 9
