import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from stmoments import classnumbers, hecke, verify
from stmoments.arith_curves import SumCondition, curve_primes
from stmoments.chebycomb import _birch_weight
from stmoments.classnumbers import MAX_HURWITZ_N, build_hurwitz_table
from stmoments.errors import BudgetError
from stmoments.family_averages import (FactoredInteger, box_average, s0_brute, s0_formula, s_grid_brute,
                                       s_multiplicative)
from stmoments.hecke import (
    MAX_BASIS_TERMS,
    MAX_WEIGHT,
    TraceStore,
    delta_qexp,
    dim_cusp_forms,
    eisenstein_qexp,
    hecke_trace,
    miller_basis,
    normalized_trace,
    trace_average_probe,
    traces_via_birch,
)
from stmoments.verify import route_agreement_checks, suite_family, suite_trace

from conftest import counted_hurwitz_builds, trial_division_primes

RAMANUJAN_TAU = {2: -24, 3: 252, 5: 4830, 7: -16744, 11: 534612, 13: -577738}


def eta_power_24(n_terms: int) -> list[int]:
    """Independent expansion of the weight-12 cusp form as q prod (1-q^k)^24,
    via the Euler function and binary powering."""
    euler = [0] * n_terms
    euler[0] = 1
    for k in range(1, n_terms):
        for i in range(n_terms - 1, k - 1, -1):
            euler[i] -= euler[i - k]

    def mul(f, g):
        res = [0] * n_terms
        for i, fi in enumerate(f):
            if fi:
                for j in range(min(len(g), n_terms - i)):
                    res[i + j] += fi * g[j]
        return res

    power = [1] + [0] * (n_terms - 1)
    base = euler
    e = 24
    while e:
        if e & 1:
            power = mul(power, base)
        base = mul(base, base)
        e >>= 1
    return [0] + power[: n_terms - 1]  # shift by the leading q


def schoolbook_mul_trunc(f: list[int], g: list[int], n_terms: int) -> list[int]:
    """The first n_terms coefficients of f g by the O(n^2) double loop: the
    oracle for `hecke._mul_trunc`'s Kronecker substitution."""
    out = [0] * n_terms
    for i, fi in enumerate(f[:n_terms]):
        for j in range(min(len(g), n_terms - i)):
            out[i + j] += fi * g[j]
    return out


_series = st_.lists(st_.one_of(st_.integers(-3, 3), st_.integers(-2 ** 200, 2 ** 200)), max_size=12)


@given(_series, _series, st_.integers(0, 30))
@settings(max_examples=200, deadline=None)
def test_packed_product_equals_schoolbook(f, g, n_terms):
    """Signed big ints, unequal lengths, n_terms below and above the lengths,
    and empty, all-zero and one-term series."""
    assert hecke._mul_trunc(f, g, n_terms) == schoolbook_mul_trunc(f, g, n_terms)


@pytest.mark.parametrize("f, g, n_terms", [
    ([0, 0, 0], [5, -7], 4),  # all zero
    ([-1], [2 ** 100, -(2 ** 100)], 3),  # one term against big signed ones
    ([2 ** 64 - 1] * 9, [-(2 ** 64 - 1)] * 9, 9),  # every product of one sign
    ([255], [-255], 2),  # a 16-bit product: the digits need a third byte for the sign margin
    ([1, -1] * 5, [1, 1] * 5, 25),  # n_terms past the product's length
    ([3, 1, 4, 1, 5], [9, 2, 6], 2),  # n_terms below both lengths
])
def test_packed_product_edge_cases(f, g, n_terms):
    assert hecke._mul_trunc(f, g, n_terms) == schoolbook_mul_trunc(f, g, n_terms)


def test_dimension_formula():
    assert dim_cusp_forms(12) == 1
    assert dim_cusp_forms(26) == 1
    assert dim_cusp_forms(13) == 0
    assert dim_cusp_forms(2) == 0
    assert dim_cusp_forms(14) == 0
    assert dim_cusp_forms(24) == 2
    assert dim_cusp_forms(0) == 0
    expected = {4: 0, 6: 0, 8: 0, 10: 0, 16: 1, 18: 1, 20: 1, 22: 1, 28: 2, 36: 3, 38: 2}
    for k, d in expected.items():
        assert dim_cusp_forms(k) == d


def test_eisenstein_expansions():
    e4 = eisenstein_qexp(4, 5)
    assert e4 == [1, 240, 2160, 6720, 17520]
    e6 = eisenstein_qexp(6, 4)
    assert e6 == [1, -504, -16632, -122976]


def test_delta_expansion_against_eta_product():
    n = 60
    assert delta_qexp(n) == eta_power_24(n)
    d = delta_qexp(8)
    assert d[:8] == [0, 1, -24, 252, -1472, 4830, -6048, -16744]


def test_miller_basis_echelon():
    for k in (12, 16, 24, 36, 48):
        d = dim_cusp_forms(k)
        basis = miller_basis(k, d * 15 + 1)
        assert len(basis) == d
        for j, f in enumerate(basis, start=1):
            for i in range(1, d + 1):
                assert f[i] == (1 if i == j else 0)
            assert f[0] == 0
    assert miller_basis(10, 30) == []
    with pytest.raises(ValueError):
        miller_basis(24, 2)


def test_hecke_trace_examples():
    assert hecke_trace(4, 11).trace == 0
    assert hecke_trace(12, 2).trace == -24
    assert hecke_trace(12, 3).trace == 252
    for p, tau in RAMANUJAN_TAU.items():
        if p >= 5:
            assert hecke_trace(12, p).trace == tau


@pytest.mark.parametrize("p", [-5, 0, 1, 4, 9, 25])
def test_hecke_trace_rejects_a_non_prime(p):
    # T_1 is the identity, so its trace on the one-dimensional S_12 is 1, not
    # what the T_p formula gives; odd weights and zero-dimensional spaces too
    for k in (12, 13, 10):
        with pytest.raises(ValueError, match=f"the Hecke trace needs a prime p >= 2, got p = {p}$"):
            hecke_trace(k, p)


def test_known_higher_weight_traces():
    # weight 16: trace = coefficient of the unique newform E4*Delta
    assert hecke_trace(16, 2).trace == 216
    assert hecke_trace(16, 3).trace == -3348
    # weight 24 is two-dimensional; trace values from the expansion route
    # are validated against the class-number route below
    rec = hecke_trace(24, 5)
    assert rec.deligne_ok()


def test_birch_route_examples():
    recs = traces_via_birch(5, 5)
    by_weight = {r.k: r.trace for r in recs}
    assert by_weight[4] == 0 and by_weight[6] == 0 and by_weight[8] == 0 and by_weight[10] == 0
    assert by_weight[12] == 4830
    assert all(r.method == "birch" for r in recs)
    with pytest.raises(ValueError):
        traces_via_birch(3, 2)
    for J in (0, -1):
        with pytest.raises(ValueError, match=f"^J must be >= 1, got J = {J}$"):
            traces_via_birch(5, J)
    cap = f"^Hurwitz table N = 400012 exceeds the cap MAX_HURWITZ_N = {MAX_HURWITZ_N}$"
    with pytest.raises(BudgetError, match=cap):
        traces_via_birch(100_003, 2)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 37, 61, 101, 151, 199])
def test_route_agreement(p):
    for rec in traces_via_birch(p, 12):
        assert rec.trace == hecke_trace(rec.k, p).trace  # the q-expansion route, its own basis
        assert rec.deligne_ok()


def test_store_caps(monkeypatch):
    store = TraceStore()
    for k, p, error, message in (
        (MAX_WEIGHT + 2, 5, BudgetError, f"weight capped at {MAX_WEIGHT}, got k = {MAX_WEIGHT + 2}"),
        (12, 100003, BudgetError, f"Hurwitz table N = 400012 exceeds the cap MAX_HURWITZ_N = {MAX_HURWITZ_N}"),
        (12, 2, ValueError, "the class-number route needs a prime p >= 5, got p = 2"),
        (13, 9, ValueError, "the class-number route needs a prime p >= 5, got p = 9"),
        (-2, 7, ValueError, "weight must be nonnegative, got k = -2"),
    ):
        with pytest.raises(error, match=f"^{message}$"):
            store.trace(k, p)
    assert not store._traces
    assert store.trace(13, 7) == store.trace(14, 7) == store.trace(2, 7) == 0  # zero-dimensional spaces

    tables, solves = counted_hurwitz_builds(monkeypatch), []

    def counting_birch(p, J):
        solves.append((p, J))
        return traces_via_birch(p, J)

    monkeypatch.setattr(hecke, "traces_via_birch", counting_birch)
    primes = trial_division_primes(200)[2:]
    traces = {(k, p): store.trace(k, p) for p in reversed(primes) for k in (26, 24, 12)}
    assert tables == [4 * 199] and solves == [(p, 12) for p in reversed(primes)]  # one table, one solve per prime
    assert store.trace(30, 11) == hecke_trace(30, 11).trace and solves[-1] == (11, 14)
    assert store.trace(12, 211) == hecke_trace(12, 211).trace and tables == [4 * 199, 4 * 211]
    reference = {k: miller_basis(k, dim_cusp_forms(k) * 199 + 1) for k in (12, 24, 26)}
    assert traces == {(k, p): hecke_trace(k, p, reference[k]).trace for k, p in traces}
    assert {key for key in store._traces if key[1] == 199} == {(k, 199) for k in range(4, 27, 2)}


def test_route_agreement_builds_one_basis_per_weight(monkeypatch):
    # the check asks for every weight at the largest prime first, so each
    # weight with dim S_k >= 1 gets one basis, at full precision, where an
    # ascending sweep grows each by doubling (49 builds at p <= 200, k <= 26)
    built = []

    def counting_basis(k, n_terms):
        built.append((k, n_terms))
        return miller_basis(k, n_terms)

    monkeypatch.setattr(hecke, "miller_basis", counting_basis)
    checks = route_agreement_checks(200, 26)
    assert all(res.ok for res in checks) and len(checks) == 2
    assert built == [(k, dim_cusp_forms(k) * 199 + 1) for k in (12, 16, 18, 20, 22, 24, 26)]


def _counted_series_builds(monkeypatch) -> list:
    """The lengths of every build of E4, E6 and Delta from now on, starting
    with none built."""
    real, built = hecke.eisenstein_qexp, []
    monkeypatch.setattr(hecke, "_longest_series", ((), (), ()))
    monkeypatch.setattr(hecke, "eisenstein_qexp",
                        lambda k, n: (k == 4 and built.append(n)) or real(k, n))
    return built


def test_route_agreement_builds_the_modular_series_once_per_length(monkeypatch):
    # E4, E6 and Delta at n = 200 (the five weights of dimension 1) and 399
    # (weights 24 and 26), not once for each of the 7 bases
    built = _counted_series_builds(monkeypatch)
    assert all(res.ok for res in route_agreement_checks(200, 26))
    assert built == [200, 399]
    fresh = delta_qexp(200)
    fresh[1] = 0  # the caller's own list: the kept series is untouched
    assert delta_qexp(200)[1] == 1 and built == [200, 399]


def test_all_suites_build_the_modular_series_twice(monkeypatch):
    # classnum's route agreement builds n = 200 and 399; every shorter length
    # after it, such as the tau check's delta_qexp(51), is an exact-length
    # prefix of the 399-term series
    built = _counted_series_builds(monkeypatch)
    assert all(res.ok for suite in verify.SUITES.values() for res in suite())
    assert built == [200, 399]
    for n in (1, 51, 399):
        e4, e6, delta = hecke._modular_series(n)
        assert (list(e4), list(e6)) == (eisenstein_qexp(4, n), eisenstein_qexp(6, n))
        assert delta_qexp(n) == list(delta) == eta_power_24(n)
    fresh = delta_qexp(51)
    fresh[1] = 0
    assert delta_qexp(51)[1] == 1 and built == [200, 399]


def test_tau_and_family_checks_build_one_basis_each(monkeypatch):
    # the weight-12 checks of suite_trace (p <= 50) and suite_family (p <= 100)
    # read Birch traces, so only the route agreement builds Miller bases
    built = []

    def counting_basis(k, n_terms):
        built.append((k, n_terms))
        return miller_basis(k, n_terms)

    monkeypatch.setattr(hecke, "miller_basis", counting_basis)
    assert all(res.ok for res in suite_trace())
    assert built == [(k, dim_cusp_forms(k) * 199 + 1) for k in (12, 16, 18, 20, 22, 24, 26)]
    built.clear()
    assert all(res.ok for res in suite_family())
    assert built == []


def test_production_traces_build_no_miller_basis(monkeypatch):
    # every production path reads the class-number route: with the
    # q-expansion basis unavailable, each still runs and passes
    def refuse(k, n_terms):
        raise AssertionError(f"production path built a Miller basis: k = {k}, n_terms = {n_terms}")

    monkeypatch.setattr(hecke, "miller_basis", refuse)
    monkeypatch.setattr(hecke, "_STORE", None)  # a fresh default store, no cached trace
    for m in (10, 28):
        assert s0_formula(293, m) == pytest.approx(s0_brute(293, m), abs=1e-12)
    n = FactoredInteger.from_int(5 ** 2 * 7)
    assert s_multiplicative(n) == pytest.approx(s_grid_brute(n), abs=1e-12)
    for condition in SumCondition:
        res = box_average(n, 50, 50, condition)
        assert abs(res.residual) <= 10 * res.bound_shape
    delta = delta_qexp(998)
    assert normalized_trace(12, 997) == delta[997] / 997 ** 5.5
    window = [p for p in curve_primes(200) if p > 100]
    assert trace_average_probe(12, 200).value == pytest.approx(abs(sum(delta[p] / p ** 5.5 for p in window)) / 12,
                                                               rel=1e-12)
    assert all(res.ok for res in suite_family())
    monkeypatch.setattr(verify, "route_agreement_checks", lambda max_p, max_weight: [])  # its Miller side
    checks = suite_trace()
    assert [res.name for res in checks] == ["zero trace on zero-dimensional spaces",
                                            "weight-12 trace equals the discriminant coefficient, p <= 50"]
    assert all(res.ok for res in checks)


def test_store_reaches_past_the_q_expansion_primes():
    # past p = 500, against the closed forms in tau(p) from the discriminant form
    delta = delta_qexp(1010)
    for p in curve_primes(1009):
        if p >= 503:
            assert normalized_trace(12, p) == delta[p] / float(p) ** 5.5
            assert s0_formula(p, 10) == float(Fraction(-(p - 1) * (delta[p] + 1), p ** 7))


def test_normalized_trace():
    v = normalized_trace(12, 5)
    assert v == pytest.approx(4830 / 5 ** 5.5, rel=1e-12)
    assert abs(v) <= 2 * dim_cusp_forms(12)
    assert normalized_trace(8, 5) == 0.0
    for k, p in ((12, 7), (16, 11), (24, 13)):
        assert abs(normalized_trace(k, p)) <= 2 * dim_cusp_forms(k)


def test_trace_average_probe():
    assert trace_average_probe(10, 20).value == 0.0
    probe = trace_average_probe(12, 20)
    expected = abs(sum(RAMANUJAN_TAU.get(p, 0) / p ** 5.5 for p in (11, 13, 17, 19)))
    # taus at 11, 13 known; recompute 17, 19 from the expansion
    d = delta_qexp(20)
    expected = abs(sum(d[p] / p ** 5.5 for p in (11, 13, 17, 19))) / 12
    assert probe.value == pytest.approx(expected, rel=1e-12)
    assert probe.scale == pytest.approx(12 * math.sqrt(20))
    bigger = trace_average_probe(16, 20)
    assert bigger.value >= probe.value  # sum of nonnegative contributions


@pytest.mark.parametrize("K", [0, -4])
def test_trace_average_probe_refuses_k_below_one_first(K):
    # x = inf would be the window's budget error, so K is checked before any prime or solve
    with pytest.raises(ValueError, match=f"^the trace-average probe needs K >= 1, got K = {K}, x = inf$"):
        trace_average_probe(K, math.inf)


def test_q_expansion_caps_stop_before_allocating():
    tracemalloc.start()
    try:
        for k, n_terms, message in ((MAX_WEIGHT + 2, 10, f"weight capped at {MAX_WEIGHT}, got k = {MAX_WEIGHT + 2}"),
                                    (12, MAX_BASIS_TERMS + 1, f"q-expansion capped at {MAX_BASIS_TERMS} terms, "
                                                              f"got n_terms = {MAX_BASIS_TERMS + 1}")):
            with pytest.raises(BudgetError, match=f"^{message}$"):
                miller_basis(k, n_terms)
        with pytest.raises(BudgetError, match="got n_terms = 99992$"):
            hecke_trace(12, 99991)
        with pytest.raises(BudgetError, match=f"weight capped at {MAX_WEIGHT}, got k = {MAX_WEIGHT + 2}$"):
            traces_via_birch(5, MAX_WEIGHT // 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert len(miller_basis(MAX_WEIGHT, 61)) == dim_cusp_forms(MAX_WEIGHT)  # both caps are inclusive
    assert traces_via_birch(5, (MAX_WEIGHT - 2) // 2)[-1].k == MAX_WEIGHT


def test_birch_reads_each_class_number_row_once():
    """The traces from one read of 12 H(4p - r^2) per r equal the solve on
    power sums that read the table afresh for every r and j, at every prime
    p < 2000 and every weight up to 60."""
    table = build_hurwitz_table(4 * 2000)  # the oracle's own, apart from the one table the route reads
    classnumbers.hurwitz_table(4 * 1999)  # the largest N first: the one table is built at most once
    for p in curve_primes(1999):
        solved = []
        for rec in hecke.traces_via_birch(p, 29):
            j = (rec.k - 2) // 2
            m24 = sum(2 * r ** (2 * j) * table.twelve(4 * p - r * r) for r in range(1, math.isqrt(4 * p) + 1))
            rhs = math.comb(2 * j, j) // (j + 1) * p ** (j + 1) - m24 // 24
            rhs -= sum(_birch_weight(j, l) * p ** (j - l) * solved[l - 1] for l in range(1, j))
            solved.append(rhs)
            assert rec.trace == rhs - 1, (p, rec.k)
