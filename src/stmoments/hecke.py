"""Exact traces of Hecke operators on level-one cusp forms, two ways.

The direct route builds the echelonized integral basis of S_k from monomials
Delta^j E4^alpha E6^beta and reads the trace of T_p off q-expansion
coefficients (a_n of T_p f is a_{np} + p^(k-1) a_{n/p}).  The second route
inverts the class-number moment identity: with

    m_j = (1/2) sum_{|r| <= 2 sqrt(p)} r^(2j) H(r^2 - 4p)

one has m_j = C_j p^(j+1) - sum_{l=1}^{j} w(j,l) p^(j-l) (trace_{2l+2} + 1),
where C_j is the j-th Catalan number and w(j, l) = C(2j, j-l) - C(2j, j-l-1)
is a positive integer with w(j, j) = 1, so the system solves by forward
substitution in exact integers.  Agreement of the two routes is the central
cross-check of the whole package.

All trace arithmetic uses arbitrary-precision integers; p^(k-1) overflows
any fixed width long before the default caps k <= 60, p <= 500 bite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith_curves import primes_in_window
from .classnumbers import HurwitzTable, build_hurwitz_table
from .errors import BudgetError

__all__ = [
    "QSeries",
    "TraceRecord",
    "TraceStore",
    "TraceAverageProbe",
    "dim_cusp_forms",
    "eisenstein_qexp",
    "delta_qexp",
    "miller_basis",
    "hecke_trace",
    "traces_via_birch",
    "normalized_trace",
    "trace_average_probe",
    "trace_pair_probe",
    "MAX_WEIGHT",
    "MAX_TRACE_PRIME",
]

MAX_WEIGHT = 60
MAX_TRACE_PRIME = 500


def dim_cusp_forms(k: int) -> int:
    """dim S_k for the full modular group."""
    if k < 0:
        raise ValueError("weight must be nonnegative")
    if k % 2 == 1 or k == 2:
        return 0
    if k % 12 == 2:
        return k // 12 - 1
    return k // 12


def _mul_trunc(f: list[int], g: list[int], n_terms: int) -> list[int]:
    out = [0] * n_terms
    for i, fi in enumerate(f[:n_terms]):
        if fi == 0:
            continue
        top = min(len(g), n_terms - i)
        for j in range(top):
            out[i + j] += fi * g[j]
    return out


def _sigma_list(power: int, n_terms: int) -> list[int]:
    """Divisor power sums sigma_power(n) for n < n_terms (index 0 unused)."""
    sig = [0] * n_terms
    for d in range(1, n_terms):
        dp = d ** power
        for m in range(d, n_terms, d):
            sig[m] += dp
    return sig


def eisenstein_qexp(weight: int, n_terms: int) -> list[int]:
    """Normalized E4 or E6 expansion (constant term 1)."""
    if weight == 4:
        scale, power = 240, 3
    elif weight == 6:
        scale, power = -504, 5
    else:
        raise ValueError("only weights 4 and 6 are needed here")
    sig = _sigma_list(power, n_terms)
    return [1] + [scale * s for s in sig[1:]]


def delta_qexp(n_terms: int) -> list[int]:
    """The discriminant cusp form, via (E4^3 - E6^2)/1728."""
    e4 = eisenstein_qexp(4, n_terms)
    e6 = eisenstein_qexp(6, n_terms)
    e4cubed = _mul_trunc(_mul_trunc(e4, e4, n_terms), e4, n_terms)
    e6sq = _mul_trunc(e6, e6, n_terms)
    out = []
    for x, y in zip(e4cubed, e6sq):
        q, r = divmod(x - y, 1728)
        assert r == 0
        out.append(q)
    return out


@dataclass(frozen=True)
class QSeries:
    weight: int
    coeffs: tuple[int, ...]

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    @property
    def precision(self) -> int:
        return len(self.coeffs)


def miller_basis(k: int, n_terms: int) -> list[QSeries]:
    """Integral echelon basis f_1, ..., f_d of S_k: a_i(f_j) = delta_ij for
    i <= d.  Empty for dim 0."""
    if k % 2 == 1:
        return []
    d = dim_cusp_forms(k)
    if d == 0:
        return []
    if n_terms < d + 1:
        raise ValueError("n_terms too small to echelonize the basis")
    e4 = eisenstein_qexp(4, n_terms)
    e6 = eisenstein_qexp(6, n_terms)
    delta = delta_qexp(n_terms)
    rows: list[list[int]] = []
    delta_pow = [1] + [0] * (n_terms - 1)
    for j in range(1, d + 1):
        delta_pow = _mul_trunc(delta_pow, delta, n_terms)
        rem = k - 12 * j
        beta = 0 if rem % 4 == 0 else 1
        alpha, check = divmod(rem - 6 * beta, 4)
        assert check == 0 and alpha >= 0
        mono = delta_pow
        for _ in range(alpha):
            mono = _mul_trunc(mono, e4, n_terms)
        if beta:
            mono = _mul_trunc(mono, e6, n_terms)
        rows.append(mono)
    # rows[j-1] starts q^j + ...; clear columns j+1..d from the bottom up
    for j in range(d - 2, -1, -1):
        for i in range(j + 1, d):
            coeff = rows[j][i + 1]
            if coeff:
                rows[j] = [x - coeff * y for x, y in zip(rows[j], rows[i])]
    return [QSeries(weight=k, coeffs=tuple(row)) for row in rows]


@dataclass(frozen=True)
class TraceRecord:
    k: int
    p: int
    trace: int
    method: str

    def deligne_ok(self) -> bool:
        d = dim_cusp_forms(self.k)
        return self.trace ** 2 <= 4 * d * d * self.p ** (self.k - 1)


def hecke_trace(k: int, p: int, basis: list[QSeries] | None = None) -> TraceRecord:
    """Trace of T_p on S_k from the echelon basis (q-expansion route)."""
    if k % 2 == 1 or dim_cusp_forms(k) == 0:
        return TraceRecord(k=k, p=p, trace=0, method="miller")
    d = dim_cusp_forms(k)
    needed = d * p + 1
    if basis is None:
        basis = miller_basis(k, needed)
    if basis[0].precision < needed:
        raise ValueError("basis precision too small for this prime")
    total = 0
    for j, f in enumerate(basis, start=1):
        total += f[j * p]
        if j % p == 0:
            total += p ** (k - 1) * f[j // p]
    return TraceRecord(k=k, p=p, trace=total, method="miller")


def _birch_weight(j: int, l: int) -> int:
    """(2l+1) (2j)! / ((j-l)! (j+l+1)!) as a difference of binomials."""
    lower = math.comb(2 * j, j - l - 1) if j - l - 1 >= 0 else 0
    return math.comb(2 * j, j - l) - lower


def traces_via_birch(p: int, J: int, table: HurwitzTable | None = None) -> list[TraceRecord]:
    """Traces for weights 4, 6, ..., 2J+2 by the class-number route.

    Solves the unit-triangular system for trace + 1 by forward substitution;
    exact integers throughout (the class-number sums clear 12ths).
    """
    if p < 5:
        raise ValueError("needs p >= 5")
    if J < 1:
        raise ValueError("J must be >= 1")
    if table is None:
        table = build_hurwitz_table(4 * p)
    if table.max_n < 4 * p:
        raise ValueError("Hurwitz table does not cover 4p")
    rmax = math.isqrt(4 * p)
    twelve = [table.twelve(4 * p - r * r) for r in range(1, rmax + 1)]
    records = []
    solved: list[int] = []  # trace_{2l+2} + 1 for l = 1..j-1
    for j in range(1, J + 1):
        num = sum(r ** (2 * j) * t for r, t in zip(range(1, rmax + 1), twelve))
        assert num % 12 == 0
        m_j = num // 12
        rhs = math.comb(2 * j, j) // (j + 1) * p ** (j + 1) - m_j
        for l in range(1, j):
            rhs -= _birch_weight(j, l) * p ** (j - l) * solved[l - 1]
        solved.append(rhs)  # w(j, j) = 1
        records.append(TraceRecord(k=2 * j + 2, p=p, trace=rhs - 1, method="birch"))
    return records


class TraceStore:
    """Cached exact traces, q-expansion route, with weight/prime caps."""

    def __init__(self, max_weight: int = MAX_WEIGHT, max_prime: int = MAX_TRACE_PRIME):
        self.max_weight = max_weight
        self.max_prime = max_prime
        self._traces: dict[tuple[int, int], int] = {}
        self._bases: dict[int, list[QSeries]] = {}

    def trace(self, k: int, p: int) -> int:
        if k > self.max_weight:
            raise BudgetError(f"weight capped at {self.max_weight}")
        if p > self.max_prime:
            raise BudgetError(f"trace prime capped at {self.max_prime}")
        key = (k, p)
        if key not in self._traces:
            d = dim_cusp_forms(k)
            basis = self._bases.get(k)
            if d and (basis is None or basis[0].precision < d * p + 1):
                # at least double the precision, so an ascending sweep rebuilds O(log) times
                n_terms = max(d * p + 1, 2 * basis[0].precision if basis else 0)
                basis = self._bases[k] = miller_basis(k, min(n_terms, d * self.max_prime + 1))
            self._traces[key] = hecke_trace(k, p, basis).trace
        return self._traces[key]

    def record(self, k: int, p: int) -> TraceRecord:
        return TraceRecord(k=k, p=p, trace=self.trace(k, p), method="miller")


def normalized_trace(k: int, p: int, store: TraceStore | None = None) -> float:
    """trace / p^((k-1)/2); bounded by twice the dimension."""
    store = store or _default_store()
    return store.trace(k, p) / float(p) ** ((k - 1) / 2)


_STORE: TraceStore | None = None


def _default_store() -> TraceStore:
    global _STORE
    if _STORE is None:
        _STORE = TraceStore()
    return _STORE


@dataclass(frozen=True)
class TraceAverageProbe:
    """Diagnostic for averaged normalized traces over a prime window."""

    value: float
    scale: float  # K sqrt(x)
    ratio: float
    per_weight: tuple[tuple[int, float], ...]


def trace_average_probe(K: int, x: float, store: TraceStore | None = None) -> TraceAverageProbe:
    """sum_{k <= K} (1/k) |sum over window primes of the normalized trace|.

    Reported against the K sqrt(x) scaling only; at exact-trace scale the
    averaging regime of interest is far out of reach, so this is a small-K
    diagnostic and never a pass/fail quantity.
    """
    store = store or _default_store()
    window = primes_in_window(x)
    per_weight = []
    total = 0.0
    for k in range(12, K + 1, 2):
        if dim_cusp_forms(k) == 0:
            continue
        inner = sum(normalized_trace(k, p, store) for p in window.primes)
        per_weight.append((k, inner))
        total += abs(inner) / k
    scale = K * math.sqrt(x)
    return TraceAverageProbe(
        value=total,
        scale=scale,
        ratio=total / scale if scale else float("nan"),
        per_weight=tuple(per_weight),
    )


def trace_pair_probe(k: int, l: int, x: float, store: TraceStore | None = None) -> float:
    """sum over window primes of the product of two normalized traces."""
    store = store or _default_store()
    window = primes_in_window(x)
    return sum(
        normalized_trace(k, p, store) * normalized_trace(l, p, store)
        for p in window.primes
    )
