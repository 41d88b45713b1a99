"""Exact traces of Hecke operators on level-one cusp forms, two ways.

The direct route builds the echelonized integral basis of S_k from monomials
Delta^j E4^alpha E6^beta and reads the trace of T_p off q-expansion
coefficients (a_n of T_p f is a_{np} + p^(k-1) a_{n/p}).  The second route
inverts the class-number moment identity: with

    m_j = (1/2) sum_{|r| <= 2 sqrt(p)} r^(2j) H(r^2 - 4p)

one has m_j = C_j p^(j+1) - sum_{l=1}^{j} w(j,l) p^(j-l) (trace_{2l+2} + 1),
where C_j is the j-th Catalan number and w(j, l) = C(2j, j-l) - C(2j, j-l-1)
(`chebycomb._birch_weight`) is a positive integer with w(j, j) = 1, so the
system solves by forward substitution in exact integers.  `TraceStore`, the
production route, takes it; agreement with the q-expansion route, kept as the
oracle, is the central cross-check of the whole package.

All trace arithmetic uses arbitrary-precision integers; p^(k-1) overflows
any fixed width long before the caps bite.  `delta_qexp` and `miller_basis`
read E4, E6 and Delta from `_modular_series`, prefixes of the longest series
built so far; every q-series product is one big-integer product packed by
Kronecker substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith_curves import primes_in_window, require_prime
from .chebycomb import _birch_weight
from .classnumbers import _class_row, hurwitz_table
from .errors import BudgetError

__all__ = [
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
    "MAX_WEIGHT",
    "MAX_BASIS_TERMS",
]

MAX_WEIGHT = 60
MAX_BASIS_TERMS = 2501  # q-expansion terms of one Miller basis: weight 60 (dim 5) at every p <= 500


def dim_cusp_forms(k: int) -> int:
    """dim S_k for the full modular group."""
    if k < 0:
        raise ValueError(f"weight must be nonnegative, got k = {k}")
    if k % 2 == 1 or k == 2:
        return 0
    if k % 12 == 2:
        return k // 12 - 1
    return k // 12


def _mul_trunc(f: list[int], g: list[int], n_terms: int) -> list[int]:
    """The first n_terms coefficients of f g, by Kronecker substitution.

    Each series is packed into one integer, coefficient i in digit i of base
    2^(8 w): the signed coefficients go in as w-byte two's complement, and
    the borrow each negative one leaves is subtracted from the next digit.
    A coefficient of f g is a sum of at most min(len f, len g) products, so
    it lies strictly inside +-2^(8 w - 2) when 8 w >= bit_length(max|f| max|g|
    min(len f, len g)) + 2.  One big-integer product then replaces the
    schoolbook double loop; adding half a digit base to every digit makes
    them all nonnegative, so the low n_terms digits unpack with no carry.
    """
    f, g = f[:n_terms], g[:n_terms]
    bound = max(map(abs, f), default=0) * max(map(abs, g), default=0) * min(len(f), len(g))
    if bound == 0:
        return [0] * n_terms
    width = (bound.bit_length() + 9) // 8  # bytes per digit

    def pack(series: list[int]) -> int:
        digits = b"".join(c.to_bytes(width, "little", signed=True) for c in series)
        borrows = b"".join(bytes(width) if c >= 0 else (1).to_bytes(width, "little") for c in series)
        return int.from_bytes(digits, "little") - (int.from_bytes(borrows, "little") << 8 * width)

    half = 1 << 8 * width - 1
    offset = int.from_bytes(half.to_bytes(width, "little") * n_terms, "little")
    low = (pack(f) * pack(g) + offset) & ((1 << 8 * width * n_terms) - 1)
    raw = low.to_bytes(width * n_terms, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half for i in range(0, len(raw), width)]


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
        raise ValueError(f"only weights 4 and 6 are needed here, got weight = {weight}")
    sig = _sigma_list(power, n_terms)
    return [1] + [scale * s for s in sig[1:]]


_longest_series: tuple[tuple[int, ...], ...] = ((), (), ())  # E4, E6 and Delta, the longest built so far


def _modular_series(n_terms: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """E4, E6 and Delta to n_terms coefficients: prefixes of the longest built so far."""
    global _longest_series
    if len(_longest_series[0]) < n_terms:
        e4 = eisenstein_qexp(4, n_terms)
        e6 = eisenstein_qexp(6, n_terms)
        e4cubed = _mul_trunc(_mul_trunc(e4, e4, n_terms), e4, n_terms)
        e6sq = _mul_trunc(e6, e6, n_terms)
        delta = [x - y for x, y in zip(e4cubed, e6sq)]
        assert all(d % 1728 == 0 for d in delta)
        _longest_series = tuple(e4), tuple(e6), tuple(d // 1728 for d in delta)
    return tuple(series[:n_terms] for series in _longest_series)


def delta_qexp(n_terms: int) -> list[int]:
    """The discriminant cusp form, via (E4^3 - E6^2)/1728."""
    return list(_modular_series(n_terms)[2])


def miller_basis(k: int, n_terms: int) -> list[tuple[int, ...]]:
    """Integral echelon basis f_1, ..., f_d of S_k as q-expansions with
    n_terms coefficients: a_i(f_j) = delta_ij for i <= d.  Empty for dim 0.
    k past MAX_WEIGHT or n_terms past MAX_BASIS_TERMS is a BudgetError."""
    if k > MAX_WEIGHT:
        raise BudgetError(f"weight capped at {MAX_WEIGHT}, got k = {k}")
    if n_terms > MAX_BASIS_TERMS:
        raise BudgetError(f"q-expansion capped at {MAX_BASIS_TERMS} terms, got n_terms = {n_terms}")
    if k % 2 == 1:
        return []
    d = dim_cusp_forms(k)
    if d == 0:
        return []
    if n_terms < d + 1:
        raise ValueError(f"n_terms too small to echelonize the basis, got n_terms = {n_terms}, need {d + 1} at k = {k}")
    e4, e6, delta = _modular_series(n_terms)
    rows: list[list[int]] = []
    for j in range(1, d + 1):
        delta_pow = list(delta) if j == 1 else _mul_trunc(delta_pow, delta, n_terms)
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
    return [tuple(row) for row in rows]


@dataclass(frozen=True)
class TraceRecord:
    k: int
    p: int
    trace: int
    method: str

    def deligne_ok(self) -> bool:
        d = dim_cusp_forms(self.k)
        return self.trace ** 2 <= 4 * d * d * self.p ** (self.k - 1)


def hecke_trace(k: int, p: int, basis: list[tuple[int, ...]] | None = None) -> TraceRecord:
    """Trace of T_p on S_k, p prime, from the echelon basis (q-expansion route)."""
    require_prime(p, "the Hecke trace", least=2)
    if k % 2 == 1 or dim_cusp_forms(k) == 0:
        return TraceRecord(k=k, p=p, trace=0, method="miller")
    d = dim_cusp_forms(k)
    needed = d * p + 1
    if basis is None:
        basis = miller_basis(k, needed)
    if len(basis[0]) < needed:
        raise ValueError(f"basis precision too small for this prime, got {len(basis[0])} terms, "
                         f"need {needed} at k = {k}, p = {p}")
    total = 0
    for j, f in enumerate(basis, start=1):
        total += f[j * p]
        if j % p == 0:
            total += p ** (k - 1) * f[j // p]
    return TraceRecord(k=k, p=p, trace=total, method="miller")


def traces_via_birch(p: int, J: int) -> list[TraceRecord]:
    """Traces for weights 4, 6, ..., 2J+2 by the class-number route.

    Solves the unit-triangular system for trace + 1 by forward substitution;
    exact integers throughout.  The class-number row 12 H(4p - r^2) is read
    once (`_class_row`), and each 24 m_j takes one multiplication per r >= 1.
    Weights past MAX_WEIGHT are a BudgetError, as on the q-expansion route.
    """
    require_prime(p, "the class-number route")
    if J < 1:
        raise ValueError(f"J must be >= 1, got J = {J}")
    if 2 * J + 2 > MAX_WEIGHT:
        raise BudgetError(f"weight capped at {MAX_WEIGHT}, got k = {2 * J + 2}")
    row = _class_row(p)
    squares = [r * r for r in range(1, len(row))]
    terms = [2 * h for h in row[1:]]
    records = []
    solved: list[int] = []  # trace_{2l+2} + 1 for l = 1..j-1
    for j in range(1, J + 1):
        terms = [term * square for term, square in zip(terms, squares)]  # 2 r^(2j) 12 H(4p - r^2)
        m24 = sum(terms)  # 24 m_j, the r = 0 term being 0
        assert m24 % 24 == 0
        m_j = m24 // 24
        rhs = math.comb(2 * j, j) // (j + 1) * p ** (j + 1) - m_j
        for l in range(1, j):
            rhs -= _birch_weight(j, l) * p ** (j - l) * solved[l - 1]
        solved.append(rhs)  # w(j, j) = 1
        records.append(TraceRecord(k=2 * j + 2, p=p, trace=rhs - 1, method="birch"))
    return records


class TraceStore:
    """Cached exact traces by the class-number route: every weight of each solve
    is kept, on the process's one Hurwitz table (`classnumbers.hurwitz_table`)."""

    def __init__(self):
        self._traces: dict[tuple[int, int], int] = {}

    def trace(self, k: int, p: int) -> int:
        if k > MAX_WEIGHT:
            raise BudgetError(f"weight capped at {MAX_WEIGHT}, got k = {k}")
        require_prime(p, "the class-number route")
        if k % 2 or k < 4:
            return dim_cusp_forms(k)  # 0, or the ValueError of a negative weight
        key = (k, p)
        if key not in self._traces:
            hurwitz_table(4 * p)  # the table first: 4p past its cap fails before any solve
            for rec in traces_via_birch(p, (k - 2) // 2):
                self._traces[(rec.k, p)] = rec.trace
        return self._traces[key]


def normalized_trace(k: int, p: int) -> float:
    """trace / p^((k-1)/2); bounded by twice the dimension."""
    return _default_store().trace(k, p) / float(p) ** ((k - 1) / 2)


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


def trace_average_probe(K: int, x: float) -> TraceAverageProbe:
    """sum_{k <= K} (1/k) |sum over window primes of the normalized trace|.

    Reported against the K sqrt(x) scaling only; at exact-trace scale the
    averaging regime of interest is far out of reach, so this is a small-K
    diagnostic and never a pass/fail quantity.
    """
    if K < 1:
        raise ValueError(f"the trace-average probe needs K >= 1, got K = {K}, x = {x}")
    window = primes_in_window(x)
    weights = [k for k in range(12, K + 1, 2) if dim_cusp_forms(k)]
    if weights:  # the largest prime and weight first: one solve per prime, and the Hurwitz cap before any
        for p in reversed(window.primes):
            _default_store().trace(weights[-1], p)
    per_weight = []
    total = 0.0
    for k in weights:
        inner = sum(normalized_trace(k, p) for p in window.primes)
        per_weight.append((k, inner))
        total += abs(inner) / k
    scale = K * math.sqrt(x)
    return TraceAverageProbe(
        value=total,
        scale=scale,
        ratio=total / scale,
        per_weight=tuple(per_weight),
    )
