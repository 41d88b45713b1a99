import math

import numpy as np
import pytest

from stmoments import family_averages, verify
from stmoments.arith_curves import (
    CurveParams,
    SumCondition,
    _legendre_table,
    ap_table,
    box_summands,
    curve_ap,
    curve_primes,
    nonsingular_mask,
)
from stmoments.chebycomb import f_eval
from stmoments.errors import BudgetError
from stmoments.family_averages import (
    FactoredInteger,
    box_average,
    s0_brute,
    s0_formula,
    s12,
    s_grid_brute,
    s_multiplicative,
    s_prime_power,
)
from stmoments.verify import suite_family

from conftest import scalar_f_recurrence, trial_division_primes


def test_factored_integer():
    n = FactoredInteger.from_int(175)
    assert n.factors == ((5, 2), (7, 1))
    assert n.radical == 35 and n.divisor_count == 6
    assert FactoredInteger.from_int(1).factors == ()
    with pytest.raises(ValueError):
        FactoredInteger.from_int(6)
    with pytest.raises(ValueError):
        FactoredInteger.from_int(0)


def grid_oracle_s0(p: int, m: int) -> float:
    """Direct double loop over the residue grid, no histogram."""
    table = ap_table(p)
    total = 0.0
    for a in range(p):
        for b in range(p):
            if table.good[a, b]:
                from stmoments.chebycomb import f_eval

                total += f_eval(m, table.ap[a, b] / math.sqrt(p))
    return total / p ** 2


def test_s0_brute_matches_plain_loop():
    for p, m in ((5, 2), (7, 3), (11, 4), (13, 10)):
        assert s0_brute(p, m) == pytest.approx(grid_oracle_s0(p, m), abs=1e-12)


def test_s0_odd_vanishes():
    for p in (5, 7, 11, 37):
        for m in (1, 3, 5, 7):
            assert abs(s0_brute(p, m)) <= 1e-12
            assert s0_formula(p, m) == 0.0


def test_s0_values():
    # grid value at (5, 10): -(1 - 1/5) (tau(5) + 1) / 5^6
    assert s0_brute(5, 10) == pytest.approx(-4 * 4831 / 5 ** 7, abs=1e-12)
    assert s0_formula(5, 10) == pytest.approx(-4 * 4831 / 5 ** 7, rel=1e-15)
    # weight-4 space is zero-dimensional but the +1 shift survives
    assert s0_formula(5, 2) == pytest.approx(-(4 / 5) / 25, rel=1e-15)
    assert s0_formula(7, 10) == pytest.approx(-(6 / 7) * (-16744 + 1) / 7 ** 6, rel=1e-15)
    assert s0_formula(5, 0) == pytest.approx(4 / 5)


def s0_brute_per_call(p: int, m: int, table) -> float:
    """`s0_brute` as it was before tables kept their trace histogram: np.unique
    on every call, f_m by the scalar loop."""
    traces, counts = np.unique(table.ap[table.good], return_counts=True)
    return math.fsum((counts * scalar_f_recurrence(m, traces / math.sqrt(p))).tolist()) / p ** 2


def test_s0_brute_equals_the_per_call_histogram_bit_for_bit():
    for p in curve_primes(100):
        table = ap_table(p)
        for m in range(13):
            assert s0_brute(p, m, table) == s0_brute_per_call(p, m, table), (p, m)
        assert s0_brute(p, 6) == s0_brute(p, 6, table)  # a table of its own when none is passed


def test_family_suite_builds_one_histogram_per_table(monkeypatch):
    # 23 primes 5 <= p <= 100, each with 13 orders m: one np.unique per table, not 299
    calls = []
    unique = np.unique

    def counting_unique(*args, **kwargs):
        calls.append(kwargs.get("return_counts", False))
        return unique(*args, **kwargs)

    verify._trace_grid.cache_clear()  # tables kept from earlier tests already hold their histograms
    monkeypatch.setattr(np, "unique", counting_unique)
    assert all(res.ok for res in suite_family())
    assert len(curve_primes(100)) == 23 and calls == [True] * 23


def test_suites_build_one_trace_grid_per_prime(monkeypatch):
    # arith reads p = 5, 7, 13, 37, 59, classnum and family every prime
    # 5 <= p <= 100: 23 tables in all, not 51, each with one histogram
    built = []

    def counting_ap_table(p):
        built.append(p)
        return ap_table(p)

    for module in (verify, family_averages):
        monkeypatch.setattr(module, "ap_table", counting_ap_table)
    verify._trace_grid.cache_clear()
    assert verify.run_suites(list(verify.SUITES), printer=lambda line: None)
    assert sorted(built) == list(curve_primes(100))  # each of the 23 primes once


def test_multiplicativity_check_averages_each_n_once(monkeypatch):
    # the 20 coprime pairs name 31 distinct n (175 twice): one grid average
    # each, not 60; the bounded check then takes its own 5
    seen = []

    def counting_average(n):
        seen.append(n.n)
        return s_grid_brute(n)

    monkeypatch.setattr(verify, "s_grid_brute", counting_average)
    assert all(res.ok for res in suite_family())
    assert len(seen) == 36 and len(set(seen[:31])) == 31 and seen[31:] == [5, 25, 35, 49, 77]


@pytest.mark.parametrize("m", [-1, -2])
def test_prime_power_averages_refuse_a_negative_m(m):
    # s0_formula(5, -2) was -0.8 and s0_formula(5, -1) 0.0, while s0_brute raised
    for call in (s0_formula, s_prime_power, s0_brute):
        with pytest.raises(ValueError, match=f"got m = {m}$"):
            call(5, m)


@pytest.mark.parametrize("p", [p for p in trial_division_primes(60) if p >= 5])
def test_s0_brute_equals_formula(p):
    for m in range(13):
        assert abs(s0_brute(p, m) - s0_formula(p, m)) <= 1e-10


def s12_brute(p: int, m: int) -> tuple[float, float]:
    """Oracle for `s12`: the axis traces by direct character sums, O(p^2)."""
    chi = _legendre_table(p)
    xs = np.arange(p, dtype=np.int64)
    cubes = xs * xs % p * xs % p
    sqrt_p = math.sqrt(p)
    params = np.arange(1, p, dtype=np.int64)
    # y^2 = x^3 + a x
    ap_a = -chi[(cubes[None, :] + params[:, None] * xs[None, :]) % p].sum(axis=1)
    # y^2 = x^3 + b
    ap_b = -chi[(cubes[None, :] + params[:, None]) % p].sum(axis=1)
    s1 = float(f_eval(m, ap_a / sqrt_p).sum()) / p ** 2
    s2 = float(f_eval(m, ap_b / sqrt_p).sum()) / p ** 2
    return s1, s2


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 103, 211, 293])
def test_s12_equals_brute_bit_for_bit(p):
    # every class mod 12 of a prime >= 5: 13 (1), 5, 101, 293 (5), 7, 103, 211 (7), 11 (11)
    for m in range(7):
        assert s12(p, m) == s12_brute(p, m)
        assert s_prime_power(p, m) == s0_formula(p, m) - s12_brute(p, m)[0] - s12_brute(p, m)[1]


def test_s12_examples():
    s1, s2 = s12(7, 2)
    assert s1 == pytest.approx(-6 / 49, abs=1e-12)
    # supersingular family: p = 3 mod 4, odd m kills the a-axis sum
    for m in (1, 3, 5):
        s1, _ = s12(7, m)
        assert abs(s1) <= 1e-12
    for p in (5, 7, 13):
        for m in (1, 2, 3, 6):
            s1, s2 = s12(p, m)
            assert abs(s1) <= (m + 1) / p + 1e-12
            assert abs(s2) <= (m + 1) / p + 1e-12


@pytest.mark.parametrize("p", [9, 2])
def test_s12_needs_a_prime(p):
    with pytest.raises(ValueError, match=f"the axis averages needs a prime p >= 5, got p = {p}"):
        s12(p, 2)


def test_s12_matches_scalar_loop():
    from stmoments.arith_curves import CurveParams, curve_ap

    p, m = 11, 4
    s1 = sum(f_eval(m, curve_ap(p, CurveParams(a, 0)).ap / math.sqrt(p)) for a in range(1, p)) / p ** 2
    s2 = sum(f_eval(m, curve_ap(p, CurveParams(0, b)).ap / math.sqrt(p)) for b in range(1, p)) / p ** 2
    got = s12(p, m)
    assert got[0] == pytest.approx(s1, abs=1e-12)
    assert got[1] == pytest.approx(s2, abs=1e-12)


def test_prime_power_value_matches_grid():
    # S(p^m) from traces and axis sums equals the defining grid average
    for p, m in ((5, 1), (5, 2), (7, 2), (11, 1), (13, 4)):
        grid = s_grid_brute(FactoredInteger.from_int(p ** m))
        assert s_prime_power(p, m) == pytest.approx(grid, abs=1e-9)


def test_multiplicativity():
    n35 = FactoredInteger.from_int(35)
    lhs = s_grid_brute(n35)
    rhs = s_grid_brute(FactoredInteger.from_int(5)) * s_grid_brute(FactoredInteger.from_int(7))
    assert lhs == pytest.approx(rhs, abs=1e-9)
    assert s_multiplicative(n35) == pytest.approx(lhs, abs=1e-9)
    assert s_multiplicative(FactoredInteger.from_int(1)) == 1.0


def test_s_bounded_by_divisor_count():
    for n in (5, 25, 35, 77, 125):
        fn = FactoredInteger.from_int(n)
        assert abs(s_grid_brute(fn)) <= fn.divisor_count + 1e-12
        assert abs(s_multiplicative(fn)) <= fn.divisor_count + 1e-9


def test_double_periodicity():
    # the coefficient at n over (a, b) has period s(n) in both coordinates
    n = FactoredInteger.from_int(35)
    s = n.radical
    from stmoments.family_averages import _grid_coeff_product

    base = np.arange(1, s + 1, dtype=np.int64)
    shifted_a = _grid_coeff_product(n, base + s, base, SumCondition.SKIP_BAD_AND_AB)
    shifted_b = _grid_coeff_product(n, base, base + 2 * s, SumCondition.SKIP_BAD_AND_AB)
    plain = _grid_coeff_product(n, base, base, SumCondition.SKIP_BAD_AND_AB)
    assert np.allclose(plain, shifted_a, atol=1e-12)
    assert np.allclose(plain, shifted_b, atol=1e-12)


def _per_residue_coeff_product(n, a_vals, b_vals, condition):
    """Oracle for `_grid_coeff_product`: f_m on the float a_p/sqrt(p) of every
    box pair, gathered from residues found by np.unique."""
    coeff = np.ones((len(a_vals), len(b_vals)))
    mask = nonsingular_mask(a_vals, b_vals)
    for p, m in n.factors:
        ua, ia = np.unique(a_vals % p, return_inverse=True)
        ub, ib = np.unique(b_vals % p, return_inverse=True)
        ap, good = box_summands(p, ua, ub, SumCondition.SKIP_BAD_ONLY)
        mask &= good[np.ix_(ia, ib)]
        if condition is SumCondition.SKIP_BAD_AND_AB:
            mask &= (a_vals % p != 0)[:, None] & (b_vals % p != 0)[None, :]
        coeff *= f_eval(m, (ap / math.sqrt(p))[np.ix_(ia, ib)])
    return np.where(mask, coeff, 0.0)


@pytest.mark.parametrize("condition", list(SumCondition))
@pytest.mark.parametrize("n, A, B", [
    (7 ** 3, 20, 2),  # wider than p in a, narrower in b
    (5 ** 2 * 11, 8, 9),  # wider than p = 5 on both axes, than p = 11 on neither
    (101 ** 2, 30, 45),  # narrower than p on both axes
    (5 * 7 * 13, 40, 40),  # wider than every factor
])
def test_grid_coeff_product_equals_per_residue_route(n, A, B, condition):
    from stmoments.family_averages import _grid_coeff_product

    n = FactoredInteger.from_int(n)
    a_vals, b_vals = np.arange(-A, A + 1), np.arange(-B, B + 1)
    got = _grid_coeff_product(n, a_vals, b_vals, condition)
    assert np.array_equal(got, _per_residue_coeff_product(n, a_vals, b_vals, condition))


def test_grid_guard():
    with pytest.raises(BudgetError, match="capped at radical <= 300, got radical = 5005"):
        s_grid_brute(FactoredInteger.from_int(5 * 7 * 11 * 13))
    with pytest.raises(BudgetError, match="capped at p <= 300, got p = 307"):
        s0_brute(307, 2)


def test_box_average_n1():
    n1 = FactoredInteger.from_int(1)
    res = box_average(n1, 10, 10)
    # coefficient 1 at every admissible pair; prediction 4AB
    assert res.prediction == pytest.approx(400.0)
    # Delta = 0 pairs are excluded: (0, 0) and (-3, +-2) in this box
    singular = sum(1 for a in range(-10, 11) for b in range(-10, 11) if 4 * a ** 3 + 27 * b ** 2 == 0)
    assert singular == 3
    assert res.total == (21 * 21) - singular
    assert res.residual == pytest.approx(res.total - 400.0)


def test_box_average_periodic_alignment():
    # summing over exactly one period reproduces s(n)^2 S(n)
    n = FactoredInteger.from_int(5)
    from stmoments.family_averages import _grid_coeff_product

    s = n.radical
    base = np.arange(1, s + 1, dtype=np.int64)
    total = float(_grid_coeff_product(n, base, base, SumCondition.SKIP_BAD_AND_AB).sum())
    assert total == pytest.approx(s * s * s_grid_brute(n), abs=1e-10)


def test_box_average_residual_scale():
    n = FactoredInteger.from_int(5)
    res = box_average(n, 50, 50)
    assert abs(res.residual) <= 10 * res.bound_shape
    res0 = box_average(n, 50, 50, condition=SumCondition.SKIP_BAD_ONLY)
    assert abs(res0.residual) <= 10 * res0.bound_shape
    with pytest.raises(BudgetError, match="16008001 pairs exceeds the cap of 4000000"):
        box_average(n, 2000, 2000)


def test_box_average_reads_a_condition_value_as_its_member():
    # the summation and the prediction read the same condition
    n = FactoredInteger.from_int(5)
    for condition in SumCondition:
        assert box_average(n, 6, 6, condition.value) == box_average(n, 6, 6, condition)


def test_box_average_beyond_the_ap_table_cap():
    # p = 3001 is above AP_TABLE_MAX_P: the box path reads the same residue
    # table as the moment sweep, so it is not capped by the p x p grid
    total = 0.0
    for a in range(-3, 4):
        for b in range(-3, 4):
            if a and b and (4 * a ** 3 + 27 * b ** 2) % 3001:
                total += curve_ap(3001, CurveParams(a, b)).ap / math.sqrt(3001)
    res = box_average(FactoredInteger.from_int(3001), 3, 3)
    assert res.total == pytest.approx(total, abs=1e-12)
    assert res.total == pytest.approx(-7.9224, abs=1e-4)
