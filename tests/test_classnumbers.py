import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stmoments import verify
from stmoments.arith_curves import ApTable, ap_table, curve_primes
from stmoments.classnumbers import (
    MAX_HURWITZ_N,
    _class_row,
    build_hurwitz_table,
    eichler_mass,
    family_moment_classnum,
    hurwitz,
    hurwitz_table,
    reduced_forms,
    twelve_hurwitz,
)

from stmoments.errors import BudgetError

from conftest import counted_hurwitz_builds, trial_division_primes


def brute_reduced_forms(n: int) -> set[tuple[int, int, int]]:
    """Exhaustive scan over the full (a, b, c) ranges, written independently
    of the production enumeration."""
    out = set()
    amax = int(math.isqrt(n // 3)) + 2
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            num = b * b + n
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            out.add((a, b, c))
    return out


def test_reduced_form_examples():
    assert {(f.a, f.b, f.c) for f in reduced_forms(3)} == {(1, 1, 1)}
    assert {(f.a, f.b, f.c) for f in reduced_forms(4)} == {(1, 0, 1)}
    assert {(f.a, f.b, f.c) for f in reduced_forms(20)} == {(1, 0, 5), (2, 2, 3)}
    with pytest.raises(ValueError):
        reduced_forms(5)
    with pytest.raises(ValueError):
        reduced_forms(-4)


@pytest.mark.parametrize("n", [n for n in range(3, 400) if n % 4 in (0, 3)])
def test_reduced_forms_against_brute_scan(n):
    got = {(f.a, f.b, f.c) for f in reduced_forms(n)}
    assert got == brute_reduced_forms(n)
    for f in reduced_forms(n):
        assert f.discriminant == -n


def test_hurwitz_anchors():
    anchors = {3: Fraction(1, 3), 4: Fraction(1, 2), 7: 1, 8: 1, 11: 1,
               12: Fraction(4, 3), 15: 2, 16: Fraction(3, 2), 19: 1, 20: 2}
    for n, h in anchors.items():
        assert hurwitz(n) == Fraction(h)
        assert twelve_hurwitz(n) == 12 * Fraction(h)


def test_table_matches_single_enumeration():
    table = build_hurwitz_table(1200)
    for n in range(3, 1201):
        if n % 4 in (0, 3):
            assert table.twelve(n) == twelve_hurwitz(n)
    assert all(table.twelve_h[n] == 0 for n in range(1201) if n % 4 in (1, 2))


def triple_loop_hurwitz(max_n: int) -> np.ndarray:
    """12 H(N) for N <= max_n by weighing every reduced triple (b, a, c) one
    at a time: the loop `build_hurwitz_table` ran before its c-runs became
    strided slices."""
    t12 = np.zeros(max_n + 1, dtype=np.int64)
    b = 0
    while 3 * b * b <= max_n:
        a = max(b, 1)
        while 4 * a * a - b * b <= max_n:
            c = a
            n = 4 * a * c - b * b
            while n <= max_n:
                if a == b == c:
                    w12 = 4
                elif b == 0 and a == c:
                    w12 = 6
                else:
                    w12 = 12
                mult = 2 if 0 < b < a < c else 1
                t12[n] += mult * w12
                c += 1
                n += 4 * a
            a += 1
        b += 1
    return t12


def test_table_equals_the_triple_loop():
    for max_n in (3, 4, 7, 100, 1201, 20_000):
        table = build_hurwitz_table(max_n)
        assert table.twelve_h.dtype == np.int64 and table.twelve_h.shape == (max_n + 1,)
        assert np.array_equal(table.twelve_h, triple_loop_hurwitz(max_n)), max_n
    assert all(table.twelve_h[n] == twelve_hurwitz(n) for n in range(3, 3000) if n % 4 in (0, 3))


def test_good_trace_moments_equal_the_object_sums():
    # the brute side of verify's class-number moment check sums r^g over the
    # table's trace histogram; the direct route raises every good pair's trace
    # in Python ints
    for p in (q for q in trial_division_primes(100) if q >= 5):
        grid = ap_table(p)
        vals = grid.ap[grid.good].astype(object)
        traces, counts = (v.tolist() for v in grid.trace_histogram)
        assert [sum(c * r ** g for r, c in zip(traces, counts)) for g in range(7)] == \
            [int((vals ** g).sum()) for g in range(7)], p


def test_trace_histogram_is_np_unique_built_once():
    grid = ap_table(13)
    traces, counts = grid.trace_histogram
    want = np.unique(grid.ap[grid.good], return_counts=True)
    assert np.array_equal(traces, want[0]) and np.array_equal(counts, want[1])
    assert grid.trace_histogram[0] is traces and not traces.flags.writeable and not counts.flags.writeable
    # a trace outside Hasse's range (|r| <= isqrt(4p) = 4 at p = 5) keeps its own value and slot
    ap = np.zeros((5, 5), dtype=np.int64)
    ap[1, 2], ap[3, 4], ap[0, 1] = 99, -9, 5
    kind = np.zeros((5, 5), dtype=np.uint8)
    kind[0, 1] = 1  # a node: not counted
    traces, counts = ApTable(p=5, ap=ap, kind=kind).trace_histogram
    assert traces.tolist() == [-9, 0, 99] and counts.tolist() == [1, 22, 1]


def test_birch_count_as_whole_vectors():
    # Birch: 24 #{good (a, b) mod p : a_p = r} = (p - 1) 12 H(4p - r^2) at
    # every |r| <= isqrt(4p), exactly, read off the grid's histogram and the
    # one class-number row
    hurwitz_table(4 * 300)  # the largest N first: the one table is built at most once
    for p in curve_primes(300):
        rmax = math.isqrt(4 * p)
        counts = dict(zip(*(v.tolist() for v in ap_table(p).trace_histogram)))
        assert set(counts) <= set(range(-rmax, rmax + 1)), p
        row = _class_row(p)
        assert len(row) == rmax + 1
        assert [24 * counts.get(r, 0) for r in range(-rmax, rmax + 1)] == \
            [(p - 1) * row[abs(r)] for r in range(-rmax, rmax + 1)], p


def test_class_row_equals_single_n_enumeration():
    for p in (293, 101, 7, 5):
        row = _class_row(p)
        assert row == [twelve_hurwitz(4 * p - r * r) for r in range(math.isqrt(4 * p) + 1)], p
        assert all(type(h) is int for h in row)


def test_table_bounds_and_csv(tmp_path):
    table = build_hurwitz_table(100)
    with pytest.raises(ValueError):
        table.twelve(104)
    with pytest.raises(ValueError):
        table.twelve(5)
    path = tmp_path / "h.csv"
    table.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "N,twelve_h"
    assert lines[4] == f"4,{table.twelve(4)}"


def test_eichler_mass_examples():
    # p = 5: H(20) + 2H(19) + 2H(16) + 2H(11) + 2H(4) = 2p
    total = (hurwitz(20) + 2 * hurwitz(19) + 2 * hurwitz(16)
             + 2 * hurwitz(11) + 2 * hurwitz(4))
    assert total == 10
    assert eichler_mass(5) == 0
    assert eichler_mass(7) == 0
    for p in trial_division_primes(200):
        if p >= 5:
            assert eichler_mass(p) == 0


def test_family_moment_examples():
    assert family_moment_classnum(5, 1) == 0
    assert family_moment_classnum(5, 3) == 0
    assert family_moment_classnum(5, 2) == 96
    assert family_moment_classnum(5, 0) == 20


def test_class_number_identities_name_their_inputs():
    cap = f"^Hurwitz table N = 400012 exceeds the cap MAX_HURWITZ_N = {MAX_HURWITZ_N}$"
    with pytest.raises(BudgetError, match=cap):
        eichler_mass(100_003)
    with pytest.raises(BudgetError, match=cap):
        family_moment_classnum(100_003, 2)
    for g in (-1, -2):
        with pytest.raises(ValueError, match=f"^g must be nonnegative, got g = {g}$"):
            family_moment_classnum(5, g)


@pytest.mark.parametrize("p", [9, 15, 25, 49])
def test_class_number_identities_reject_a_composite_p(p):
    # a composite p used to give eichler_mass(15) = 120 and family_moment_classnum(15, 2) = 3808
    with pytest.raises(ValueError, match=f"the mass identity needs a prime p >= 5, got p = {p}$"):
        eichler_mass(p)
    for g in (0, 1, 2):
        with pytest.raises(ValueError, match=f"the class-number moment needs a prime p >= 5, got p = {p}$"):
            family_moment_classnum(p, g)
    for n in (-5, 0, 3, 4):
        with pytest.raises(ValueError, match=f"the mass identity needs a prime p >= 5, got p = {n}$"):
            eichler_mass(n)
        with pytest.raises(ValueError, match=f"the class-number moment needs a prime p >= 5, got p = {n}$"):
            family_moment_classnum(n, 2)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 23, 41, 97])
def test_family_moment_matches_grid(p):
    table = ap_table(p)
    vals = table.ap[table.good].astype(object)
    for g in range(7):
        assert int((vals ** g).sum()) == family_moment_classnum(p, g)


def test_hurwitz_table_cap_stops_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=f"^Hurwitz table N = {MAX_HURWITZ_N + 1} exceeds the cap "
                                              f"MAX_HURWITZ_N = {MAX_HURWITZ_N}$"):
            build_hurwitz_table(MAX_HURWITZ_N + 1)
        with pytest.raises(BudgetError, match="Hurwitz table N = 400012 exceeds"):
            eichler_mass(100_003)  # the table for 4p is refused, not built
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000  # the table alone would be 8 (N + 1) bytes


def test_hurwitz_table_grows_only_past_the_largest(monkeypatch):
    built = counted_hurwitz_builds(monkeypatch)
    small = hurwitz_table(100)
    assert hurwitz_table(40) is small and hurwitz_table(100) is small
    large = hurwitz_table(400)
    assert built == [100, 400] and hurwitz_table(100) is large
    assert np.array_equal(large.twelve_h[:101], small.twelve_h)  # a prefix-stable function of N
    with pytest.raises(ValueError, match="^max_n must be at least 3, got max_n = 2$"):
        hurwitz_table(2)  # the builder's checks, with a table held
    assert built == [100, 400, 2]


def test_all_suites_build_one_hurwitz_table(monkeypatch):
    # classnum asks for N = 8000 first; its mass check, route agreement and
    # default TraceStore (the trace and family suites) read prefixes of it
    built, lines = counted_hurwitz_builds(monkeypatch), []
    assert verify.run_suites(list(verify.SUITES), printer=lines.append)
    assert built == [8000]
    assert sum(line.startswith("PASS  ") for line in lines) == 57
