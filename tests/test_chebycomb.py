import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from stmoments.chebycomb import (
    PowerPoly,
    _birch_weight,
    a_lk,
    a_lk_table,
    all_exponent_multisets,
    distinct_sum,
    exponent_product_tables,
    f_eval,
    f_poly,
    f_rows,
    gaussian_moment_constant,
    melzak_eval,
    partition_coeff,
    set_partitions,
    u_product_expand,
)

from conftest import poly_mul, scalar_f_recurrence, stacked_f_rows, to_f_basis


def direct_coeffs(m: int) -> list[int]:
    """The defining alternating-binomial coefficients, written independently."""
    out = [0] * (m + 1)
    for j in range(m // 2 + 1):
        out[m - 2 * j] = (-1) ** j * math.comb(m - j, j)
    return out


def test_base_cases():
    assert f_poly(0).coeffs == (1,)
    assert f_poly(1).coeffs == (0, 1)
    assert f_poly(2).coeffs == (-1, 0, 1)
    assert f_poly(3).coeffs == (0, -2, 0, 1)


@pytest.mark.parametrize("m", list(range(25)) + [100, 200])
def test_f_poly_matches_defining_formula(m):
    assert list(f_poly(m).coeffs) == direct_coeffs(m)


@pytest.mark.parametrize("m", range(1, 201))
def test_three_term_recurrence_exact(m):
    lhs = f_poly(m + 1).coeffs
    x_fm = (0,) + f_poly(m).coeffs
    fm1 = f_poly(m - 1).coeffs + (0,) * (m + 2 - len(f_poly(m - 1).coeffs))
    rhs = tuple(a - b for a, b in zip(x_fm, fm1[: len(x_fm)]))
    assert lhs == PowerPoly(rhs).coeffs


def test_f_rows_equal_the_scalar_loop_and_the_stacked_rows():
    # the one recurrence against the two it replaced: exact on Fractions and
    # ints, bit for bit on float arrays, f_eval its last row
    xs = [Fraction(3, 7), Fraction(-9, 4), Fraction(2), 0, -3, 5]
    for x in xs:
        rows = f_rows(x, 30)
        assert rows == [scalar_f_recurrence(m, x) for m in range(31)], x
        assert all(type(v) is type(x * 0 + 1) for v in rows), x
        assert f_eval(30, x) == rows[30]
    grids = [np.linspace(-2.0, 2.0, 1001), np.random.default_rng(5).uniform(-2.5, 2.5, (7, 13)), np.zeros(0)]
    for x in grids:
        for mmax in (0, 1, 2, 40, 300):
            rows = f_rows(x, mmax)
            assert rows.shape == (mmax + 1, *x.shape) and rows.dtype == np.float64
            assert np.array_equal(rows, stacked_f_rows(x, mmax))
            assert np.array_equal(f_eval(mmax, x), scalar_f_recurrence(mmax, x))
    for v in (0.3, -1.7, 2.0):
        assert f_eval(25, v) == scalar_f_recurrence(25, v)  # hypothesis2_probe's scalar loop


@pytest.mark.parametrize("m", [-1, -2])
def test_f_family_refuses_a_negative_m_by_name(m):
    for call in (lambda: f_eval(m, 0.5), lambda: f_rows(np.zeros(3), m), lambda: f_poly(m)):
        with pytest.raises(ValueError, match=f"^m must be nonnegative, got m = {m}$"):
            call()


@given(st_.integers(0, 40), st_.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_product_rule(i, j):
    product = poly_mul(f_poly(i).coeffs, f_poly(j).coeffs)
    expected = [0] * (i + j + 1)
    for l in range(min(i, j) + 1):
        for d, c in enumerate(f_poly(i + j - 2 * l).coeffs):
            expected[d] += c
    assert list(product) == expected


def test_bound_on_the_interval():
    assert f_eval(2, 2.0) == pytest.approx(3.0)
    assert f_eval(3, 0.0) == 0.0
    assert f_eval(2, -3 / math.sqrt(5)) == pytest.approx(0.8)
    for m in (5, 17, 50):
        for k in range(101):
            x = -2 + 4 * k / 100
            assert abs(f_eval(m, x)) <= m + 1 + 1e-9


def test_angle_identity():
    # 2 cos(m t) = f_m(2 cos t) - f_{m-2}(2 cos t)
    for m in range(2, 30):
        for k in range(1, 40):
            theta = math.pi * k / 40
            x = 2 * math.cos(theta)
            lhs = f_eval(m, x) - f_eval(m - 2, x)
            assert lhs == pytest.approx(2 * math.cos(m * theta), abs=1e-12)


def test_product_expand_examples():
    assert u_product_expand([1]) == {1: 1}
    assert u_product_expand([1, 1]) == {0: 1, 2: 1}
    assert u_product_expand([2, 2]) == {0: 1, 2: 1, 4: 1}
    with pytest.raises(ValueError):
        u_product_expand([])
    with pytest.raises(ValueError):
        u_product_expand([0, 2])


@given(st_.lists(st_.integers(1, 6), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_product_expand_against_basis_conversion(ms):
    product = (1,)
    for m in ms:
        product = poly_mul(product, f_poly(m).coeffs)
    assert to_f_basis(product) == {m: c for m, c in u_product_expand(ms).items() if c}


def test_product_expand_relations_small():
    levels = list(exponent_product_tables(24))
    multisets = [tuple(ms) for exps, _ in levels for ms in exps.tolist()]
    assert len(multisets) == 7337 and set(multisets) == set(all_exponent_multisets(24))
    assert max(int(rows.max()) for _, rows in levels) == 653_752  # far below the 2^24 that f_m(2) = m + 1 allows
    for k, (exps, rows) in enumerate(levels, start=1):
        assert exps.shape[1] == k and rows.shape == (len(exps), 25) and rows.dtype == np.int64
        for ms, row in zip(exps.tolist(), rows.tolist()):
            s = sum(ms)
            assert sum((c + 1) * v for c, v in enumerate(row)) == math.prod(m + 1 for m in ms)
            if s <= 12:
                assert row == [u_product_expand(ms).get(c, 0) for c in range(25)]
            assert all(v >= 0 for v in row)
            assert all(v == 0 for c, v in enumerate(row) if c > s or (c - s) % 2)
            if len(ms) == 2:
                assert row[0] == (1 if ms[0] == ms[1] else 0)
    assert list(exponent_product_tables(0)) == []
    with pytest.raises(ValueError, match="need total <= 62, got total = 63"):
        exponent_product_tables(63)


def test_product_tables_are_made_one_level_at_a_time():
    # a generator: the levels of total 24 hold about 1.9 MB together, two adjacent ones about 0.7 MB
    tracemalloc.start()
    try:
        rows = sum(len(exps) for exps, _ in exponent_product_tables(24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 7337 and peak < 1_000_000


def test_melzak_examples():
    lhs, rhs = melzak_eval(PowerPoly((0, 1)), 1, 0, 1)
    assert lhs == rhs == 1
    for n in (1, 2, 5):
        lhs, rhs = melzak_eval(PowerPoly((1,)), Fraction(3, 2), Fraction(-1, 3), n)
        assert lhs == rhs == 1
    with pytest.raises(ValueError):
        melzak_eval(PowerPoly((0, 1)), -1, 0, 2)
    with pytest.raises(ValueError):
        melzak_eval(PowerPoly((0, 0, 0, 1)), 1, 0, 2)  # degree above n


def test_melzak_random_instances():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 6)
        deg = rng.randint(0, n)
        coeffs = tuple(rng.randint(-9, 9) for _ in range(deg)) + (rng.randint(1, 9),)
        x = Fraction(rng.randint(1, 10), rng.randint(1, 7))
        y = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        lhs, rhs = melzak_eval(PowerPoly(coeffs), x, y, n)
        assert lhs == rhs


def _melzak_sides_by_fractions(f, x, y, n):
    """Both sides of Melzak's identity term by term in Fractions: the oracle for `melzak_eval`."""
    x, y = Fraction(x), Fraction(y)
    binom = Fraction(1)
    for i in range(n):
        binom *= x + n - i
    binom /= math.factorial(n)
    total = sum((-1) ** a * math.comb(n, a) * Fraction(f(y - a)) / (x + a) for a in range(n + 1))
    return Fraction(f(x + y)), x * binom * total


def test_melzak_eval_equals_the_fraction_formula():
    rng = random.Random(3)
    checked = 0
    for _ in range(300):
        n = rng.randint(0, 7)
        coeffs = tuple(rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
                       for _ in range(rng.randint(1, n + 1)))
        x, y = Fraction(rng.randint(-20, 20), rng.randint(1, 7)), Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        if x.denominator == 1 and -n <= x <= 0:
            continue
        got = melzak_eval(PowerPoly(coeffs), x, y, n)
        assert got == _melzak_sides_by_fractions(PowerPoly(coeffs), x, y, n) and got[0] == got[1]
        assert all(type(side) is Fraction for side in got)
        checked += 1
    assert checked > 250


def test_birch_weight_matches_factorial_form():
    # the rational term of the old a_lk sum, kept as the independent oracle
    for j in range(61):
        for l in range(j + 1):
            term = (2 * l + 1) * Fraction(math.factorial(2 * j), math.factorial(j - l) * math.factorial(j + l + 1))
            assert _birch_weight(j, l) == term
    assert [_birch_weight(j, 0) for j in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]  # Catalan numbers


def test_alk_examples_and_triangle():
    assert a_lk(1, 1) == 1 and type(a_lk(1, 1)) is int
    assert a_lk(0, 1) == 0
    assert a_lk(0, 2) == 0
    for k in range(26):
        for l in range(k + 1):
            assert a_lk(l, k) == (1 if l == k else 0)
    with pytest.raises(ValueError):
        a_lk(3, 2)


def test_alk_table_equals_the_per_entry_sums():
    table = a_lk_table(60)
    assert [len(row) for row in table] == list(range(1, 62))
    for k, row in enumerate(table):
        for l, value in enumerate(row):
            assert type(value) is int and value == a_lk(l, k)
    assert a_lk_table(0) == [[1]]


def test_partition_coeff():
    assert partition_coeff([[1], [2]]) == 1
    assert partition_coeff([[1, 2]]) == -1
    assert partition_coeff([[1, 2, 3]]) == 2
    assert partition_coeff([[1, 3], [2, 4]]) == 1
    with pytest.raises(ValueError):
        partition_coeff([[1], [1, 2]])


def test_partition_count():
    # Bell numbers
    assert sum(1 for _ in set_partitions(range(4))) == 15
    assert sum(1 for _ in set_partitions(range(6))) == 203


def permutation_sum(values, n):
    """Sum over ordered n-tuples of pairwise-distinct primes of prod_i values[i][p_i],
    by enumerating the tuples: the O(P^n) oracle for `distinct_sum`.  ``values[i]``
    maps each prime to the i-th factor's value there."""
    primes = list(values[0])
    return sum(math.prod(values[i][p] for i, p in enumerate(tup)) for tup in itertools.permutations(primes, n))


def partitioned_sum(values, n):
    """The same sum by `distinct_sum` over the plain prime sums."""
    primes = list(values[0])
    return distinct_sum(n, lambda block: sum(math.prod(values[i][p] for i in block) for p in primes))


def test_distinct_sum_exact_on_prime_maps():
    rng = random.Random(5)
    primes = (5, 7, 11, 13)
    for n in (1, 2, 3, 4):
        maps = [
            {p: Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for p in primes}
            for _ in range(n)
        ]
        assert partitioned_sum(maps, n) == permutation_sum(maps, n)


@given(st_.integers(1, 5), st_.data())
@settings(max_examples=80, deadline=None)
def test_distinct_sum_against_permutations(n, data):
    n_keys = data.draw(st_.integers(1, 6))
    fractions = st_.fractions(min_value=-5, max_value=5, max_denominator=7)
    values = [{p: data.draw(fractions) for p in range(n_keys)} for _ in range(n)]
    got = partitioned_sum(values, n)
    assert got == permutation_sum(values, n)
    if n > n_keys:
        assert got == 0


def test_distinct_sum_special_cases():
    maps = [{5: Fraction(2), 7: Fraction(3)}]
    assert partitioned_sum(maps, 1) == permutation_sum(maps, 1) == 5
    g = {5: Fraction(1, 2), 7: Fraction(1, 3)}
    total = Fraction(5, 6)
    square_sum = Fraction(1, 4) + Fraction(1, 9)
    assert partitioned_sum([g, g], 2) == permutation_sum([g, g], 2) == total * total - square_sum


@pytest.mark.parametrize("n", [0, -1])
def test_distinct_sums_reject_n_below_one(n):
    with pytest.raises(ValueError, match=f"needs n >= 1 factors, got n = {n}"):
        distinct_sum(n, lambda block: 1)


def test_gaussian_moment_constants():
    assert [gaussian_moment_constant(t) for t in range(1, 9)] == [0, 1, 0, 3, 0, 15, 0, 105]
    with pytest.raises(ValueError):
        gaussian_moment_constant(0)
