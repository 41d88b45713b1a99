"""Multiplicative family averages of normalized coefficients over (a, b) grids.

For n with prime factors >= 5 and radical s(n), the average

    S(n) = s(n)^{-2} sum over the s(n) x s(n) grid with (ab Delta, n) = 1
           of the normalized coefficient at n

is multiplicative, and at prime powers splits as S = S0 - S1 - S2 where S0
averages over the full good grid mod p and S1, S2 subtract the one-parameter
families b = 0 and a = 0.  S0 collapses to an exact trace formula,

    S0(p^m) = (1 - 1/p) p^{-(m/2 + 1)} trace_{m+2}(T_p)   (0 for odd m),

which is the identity this module exercises from both ends: `s0_brute` sums
the residue grid, `s0_formula` evaluates the trace expression.

Grid sums are the test oracle; the production path for S(n) multiplies the
prime-power values (exact Birch traces and rationals, floats only at the end).
The axis averages S1 and S2 and the sums over integer (a, b) boxes
(`s_grid_brute`, `box_average`) read each prime's traces through
`arith_curves.box_summands`, so any prime up to MAX_PRIME is in reach; only
`s0_brute` sums a full p x p `ap_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith_curves import ApTable, SumCondition, ap_table, box_summands, nonsingular_mask, require_prime, trace_values
from .chebycomb import f_eval
from .errors import BudgetError
from .hecke import _default_store

__all__ = [
    "FactoredInteger",
    "BoxAverageResult",
    "s0_brute",
    "s0_formula",
    "s12",
    "s_prime_power",
    "s_multiplicative",
    "s0_multiplicative",
    "s_grid_brute",
    "box_average",
    "S_BRUTE_MAX_P",
    "BOX_AVERAGE_MAX_PAIRS",
]

S_BRUTE_MAX_P = 300  # largest p of `s0_brute` and largest radical of `s_grid_brute`
BOX_AVERAGE_MAX_PAIRS = 4_000_000


@dataclass(frozen=True)
class FactoredInteger:
    """n >= 1 with its factorization into primes >= 5."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @classmethod
    def from_int(cls, n: int) -> "FactoredInteger":
        if n < 1:
            raise ValueError(f"n must be >= 1, got n = {n}")
        m = n
        factors = []
        d = 2
        while d * d <= m:
            if m % d == 0:
                e = 0
                while m % d == 0:
                    m //= d
                    e += 1
                factors.append((d, e))
            d += 1
        if m > 1:
            factors.append((m, 1))
        if any(p < 5 for p, _ in factors):
            raise ValueError(f"prime factors below 5 are excluded throughout, got n = {n}")
        return cls(n=n, factors=tuple(factors))

    @property
    def radical(self) -> int:
        out = 1
        for p, _ in self.factors:
            out *= p
        return out

    @property
    def divisor_count(self) -> int:
        out = 1
        for _, e in self.factors:
            out *= e + 1
        return out


def s0_brute(p: int, m: int, table: ApTable | None = None) -> float:
    """Grid average of the p^m coefficient over good pairs, from the trace table (built when None)."""
    if p > S_BRUTE_MAX_P:
        raise BudgetError(f"grid average capped at p <= {S_BRUTE_MAX_P}, got p = {p}")
    traces, counts = (ap_table(p) if table is None else table).trace_histogram
    return math.fsum((counts * f_eval(m, traces / math.sqrt(p))).tolist()) / p ** 2


def s0_formula(p: int, m: int) -> float:
    """Closed form of the good-grid average of the p^m coefficient.

    For even m = 2k the class-number moment identity plus the triangular
    trace solve collapse the grid sum to

        S0(p^m) = -(1 - 1/p) p^(-(k+1)) (trace_{m+2}(T_p) + 1),

    and odd m gives 0 by the r -> -r symmetry.  (A frequently quoted variant
    reads +(1 - 1/p) p^(-(k+1)) trace_{m+2}(T_p); the exhaustive grid oracle
    matches the form above, with the shift and the sign, to float accuracy.)
    S0(p^0) is the good-pair density 1 - 1/p; even m >= 2 needs a prime p >= 5.
    """
    if m < 0:
        raise ValueError(f"S0(p^m) needs m >= 0, got m = {m}")
    if m % 2 == 1:
        return 0.0
    if m == 0:
        return float(Fraction(p - 1, p))
    trace = _default_store().trace(m + 2, p)
    return float(Fraction(-(p - 1) * (trace + 1), p ** (m // 2 + 2)))


def s12(p: int, m: int) -> tuple[float, float]:
    """One-parameter family averages S1 (the line b = 0) and S2 (the line a = 0).

    Every curve on the punctured axes has good reduction at p, so the
    normalized coefficient is f_m on `trace_values`, indexed by the traces
    `box_summands` gives along each punctured line.  p must be a prime >= 5.
    """
    require_prime(p, "the axis averages")
    line, zero = np.arange(1, p), np.zeros(1, dtype=np.int64)
    ap_a = box_summands(p, line, zero, SumCondition.SKIP_BAD_ONLY)[0][:, 0]
    ap_b = box_summands(p, zero, line, SumCondition.SKIP_BAD_ONLY)[0][0]
    coeff = f_eval(m, trace_values(p))
    return float(coeff[ap_a].sum()) / p ** 2, float(coeff[ap_b].sum()) / p ** 2


def s_prime_power(p: int, m: int) -> float:
    """S(p^m) = S0 - S1 - S2 via the trace formula and the axis sums."""
    s0 = s0_formula(p, m)  # first, so a negative m is refused by name
    s1, s2 = s12(p, m)
    return s0 - s1 - s2


def s_multiplicative(n: FactoredInteger) -> float:
    """S(n) as the product of its prime-power values."""
    out = 1.0
    for p, m in n.factors:
        out *= s_prime_power(p, m)
    return out


def s0_multiplicative(n: FactoredInteger) -> float:
    """S0(n) (the variant without the ab coprimality), multiplicatively."""
    out = 1.0
    for p, m in n.factors:
        out *= s0_formula(p, m)
    return out


def _grid_coeff_product(
    n: FactoredInteger,
    a_vals: np.ndarray,
    b_vals: np.ndarray,
    condition: SumCondition,
) -> np.ndarray:
    """Normalized coefficient at n on an (a, b) grid whose axes are runs of
    consecutive integers, with the summation mask applied (excluded pairs
    contribute 0).  Shape (len(a_vals), len(b_vals))."""
    coeff = np.ones((len(a_vals), len(b_vals)))
    mask = nonsingular_mask(a_vals, b_vals)
    for p, m in n.factors:
        ap, keep = box_summands(p, a_vals, b_vals, condition)
        mask &= keep
        coeff *= f_eval(m, trace_values(p))[ap]
    return np.where(mask, coeff, 0.0)


def s_grid_brute(n: FactoredInteger) -> float:
    """The defining s(n) x s(n) grid average; oracle for the product path."""
    if n.n == 1:
        return 1.0
    s = n.radical
    if s > S_BRUTE_MAX_P:
        raise BudgetError(f"grid average capped at radical <= {S_BRUTE_MAX_P}, got radical = {s}")
    vals = np.arange(1, s + 1, dtype=np.int64)
    grid = _grid_coeff_product(n, vals, vals, SumCondition.SKIP_BAD_AND_AB)
    return float(grid.sum()) / s ** 2


@dataclass(frozen=True)
class BoxAverageResult:
    total: float
    prediction: float
    residual: float
    bound_shape: float  # d(n) s(n)^(1/2+eps) (A+B), reported with eps = 0.1


def box_average(
    n: FactoredInteger,
    A: int,
    B: int,
    condition: SumCondition = SumCondition.SKIP_BAD_AND_AB,
) -> BoxAverageResult:
    """Box sum of the coefficient at n over |a| <= A, |b| <= B versus its
    multiplicative prediction 4AB S(n) (or 4AB S0(n) without the ab condition)."""
    n_pairs = (2 * A + 1) * (2 * B + 1)
    if n_pairs > BOX_AVERAGE_MAX_PAIRS:
        raise BudgetError(f"box average over {n_pairs} pairs exceeds the cap of {BOX_AVERAGE_MAX_PAIRS}")
    a_vals = np.arange(-A, A + 1, dtype=np.int64)
    b_vals = np.arange(-B, B + 1, dtype=np.int64)
    total = float(_grid_coeff_product(n, a_vals, b_vals, condition).sum())
    if SumCondition(condition) is SumCondition.SKIP_BAD_AND_AB:
        prediction = 4.0 * A * B * s_multiplicative(n)
    else:
        prediction = 4.0 * A * B * s0_multiplicative(n)
    residual = total - prediction
    bound = n.divisor_count * n.radical ** 0.6 * (A + B)
    return BoxAverageResult(total=total, prediction=prediction, residual=residual, bound_shape=bound)
