import math

import pytest

from stmoments import hecke
from stmoments.errors import BudgetError
from stmoments.hecke import (
    TraceStore,
    delta_qexp,
    dim_cusp_forms,
    eisenstein_qexp,
    hecke_trace,
    miller_basis,
    normalized_trace,
    trace_average_probe,
    trace_pair_probe,
    traces_via_birch,
)

from conftest import trial_division_primes

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


def test_known_higher_weight_traces():
    # weight 16: trace = coefficient of the unique newform E4*Delta
    assert hecke_trace(16, 2).trace == 216
    assert hecke_trace(16, 3).trace == -3348
    # weight 24 is two-dimensional; trace values from the expansion route
    # are validated against the class-number route below
    rec = hecke_trace(24, 5)
    assert rec.deligne_ok()


def test_birch_route_examples(hurwitz_table):
    recs = traces_via_birch(5, 5, hurwitz_table)
    by_weight = {r.k: r.trace for r in recs}
    assert by_weight[4] == 0 and by_weight[6] == 0 and by_weight[8] == 0 and by_weight[10] == 0
    assert by_weight[12] == 4830
    assert all(r.method == "birch" for r in recs)
    with pytest.raises(ValueError):
        traces_via_birch(3, 2, hurwitz_table)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 37, 61, 101, 151, 199])
def test_route_agreement(p, hurwitz_table, trace_store):
    for rec in traces_via_birch(p, 12, hurwitz_table):
        assert rec.trace == trace_store.trace(rec.k, p)
        assert rec.deligne_ok()


def test_store_caps():
    store = TraceStore(max_weight=20, max_prime=50)
    with pytest.raises(BudgetError):
        store.trace(22, 5)
    with pytest.raises(BudgetError):
        store.trace(12, 53)


def test_store_grows_basis_geometrically(monkeypatch):
    # weight 24 has dim 2, so p needs 2p + 1 terms: rebuilding at every new
    # prime of an ascending sweep would build the basis 46 times
    built = []

    def counting_basis(k, n_terms):
        built.append(n_terms)
        return miller_basis(k, n_terms)

    monkeypatch.setattr(hecke, "miller_basis", counting_basis)
    store = TraceStore(max_prime=200)
    primes = trial_division_primes(200)
    traces = [store.trace(24, p) for p in primes]
    assert built == [5, 10, 20, 40, 80, 160, 320, 2 * 200 + 1]  # doubled, capped at the largest prime
    monkeypatch.undo()
    reference = miller_basis(24, 2 * 200 + 1)
    assert traces == [hecke_trace(24, p, reference).trace for p in primes]
    assert store.trace(13, 7) == store.trace(14, 7) == 0 and 13 not in store._bases


def test_normalized_trace(trace_store):
    v = normalized_trace(12, 5, trace_store)
    assert v == pytest.approx(4830 / 5 ** 5.5, rel=1e-12)
    assert abs(v) <= 2 * dim_cusp_forms(12)
    assert normalized_trace(8, 5, trace_store) == 0.0
    for k, p in ((12, 7), (16, 11), (24, 13)):
        assert abs(normalized_trace(k, p, trace_store)) <= 2 * dim_cusp_forms(k)


def test_trace_average_probe(trace_store):
    assert trace_average_probe(10, 20, trace_store).value == 0.0
    probe = trace_average_probe(12, 20, trace_store)
    expected = abs(sum(RAMANUJAN_TAU.get(p, 0) / p ** 5.5 for p in (11, 13, 17, 19)))
    # taus at 11, 13 known; recompute 17, 19 from the expansion
    d = delta_qexp(20)
    expected = abs(sum(d[p] / p ** 5.5 for p in (11, 13, 17, 19))) / 12
    assert probe.value == pytest.approx(expected, rel=1e-12)
    assert probe.scale == pytest.approx(12 * math.sqrt(20))
    bigger = trace_average_probe(16, 20, trace_store)
    assert bigger.value >= probe.value  # sum of nonnegative contributions


def test_trace_pair_probe(trace_store):
    assert trace_pair_probe(8, 12, 20, trace_store) == 0.0
    d = delta_qexp(20)
    expected = sum(d[p] ** 2 / p ** 11 for p in (11, 13, 17, 19))
    assert trace_pair_probe(12, 12, 20, trace_store) == pytest.approx(expected, rel=1e-12)
