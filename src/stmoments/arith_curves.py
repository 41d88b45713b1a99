"""Prime windows, point counts of y^2 = x^3 + ax + b over F_p, and interval counts.

Only primes p >= 5 ever reach the curve operations (the window x >= 10 puts
every window prime above 5 automatically).  Bad reduction is detected by
p | Delta(a, b) with Delta = 4a^3 + 27b^2; a pair with p | Delta reduces to a
nodal cubic (trace +1 when the tangents at the node split over F_p, -1
otherwise) or to a cusp (trace 0, exactly when a = b = 0 mod p).

Residue grids of traces T(a, b) = -sum_x chi(x^3 + ax + b) for one prime
come from its twist orbits.  Substituting x = d x' gives T(d^2 a, d^3 b) =
chi(d) T(a, b), so every row a != 0 is a permuted, sign-flipped copy of row 1
(a a square) or of row n (a a non-square, n the least non-residue), and a
prime needs only the three base rows a = 0, 1, n (`_twist_traces`).  The
character sum is already the trace at singular pairs: at a node with double
root e it is chi(3e), the split-tangent sign, and at the cusp it is
-sum_x chi(x^3) = 0, so no entry is overwritten and only the good mask
(Delta != 0 mod p) is needed.

`_trace_rows` builds rows one at a time from a single Legendre lookup table:
for each residue a the histogram of x^3 + ax over x is circularly correlated
against the Legendre table, which gives T(a, b) for every b at once.
Rounding the length-p FFT correlation back to integers is safe because every
value is an integer bounded by p.  It serves the base rows, and over all
residues it is an independent oracle for the twist construction, as are
`curve_ap` and `_singular_pairs`/`_classify_singular`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .chebycomb import f_eval
from .errors import BudgetError

__all__ = [
    "Reduction",
    "TraceValue",
    "CurveParams",
    "PrimeWindow",
    "Interval",
    "ApTable",
    "SumCondition",
    "primes_in_window",
    "primes_upto",
    "legendre",
    "curve_ap",
    "ap_table",
    "normalized_coeff",
    "count_in_interval",
    "AP_TABLE_MAX_P",
]

AP_TABLE_MAX_P = 3000
CACHE_MAXSIZE = 128  # entries of each per-prime cache (Legendre and root tables, trace grids)

_GOOD, _NODE, _CUSP = 0, 1, 2


class Reduction(Enum):
    GOOD = "good"
    NODE = "node"
    CUSP = "cusp"


class SumCondition(Enum):
    """Which primes a per-curve prime sum skips.

    SKIP_BAD_ONLY drops p | Delta; SKIP_BAD_AND_AB also drops p | ab (for the
    axis curves a = 0 or b = 0 this drops every prime).
    """

    SKIP_BAD_ONLY = "skip-bad"
    SKIP_BAD_AND_AB = "skip-bad-and-ab"


@dataclass(frozen=True)
class TraceValue:
    kind: Reduction
    ap: int


@dataclass(frozen=True)
class CurveParams:
    a: int
    b: int

    @property
    def delta(self) -> int:
        return 4 * self.a ** 3 + 27 * self.b ** 2


@dataclass(frozen=True)
class PrimeWindow:
    """Primes p with x/2 < p <= x, in ascending order."""

    x: float
    primes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.primes)


def _snap(v: float) -> float:
    """Clean the float noise of 2 cos(pi/2) and friends: a trace value can
    only collide with an endpoint at 0 (a_p/sqrt(p) is irrational otherwise),
    so only that endpoint needs to be exact."""
    return 0.0 if abs(v) < 1e-12 else v


@dataclass(frozen=True)
class Interval:
    """Subinterval [2 cos(beta), 2 cos(alpha)] of [-2, 2], angles in radians.

    Membership is closed by default; ``half_open`` switches to [lo, hi).
    """

    alpha: float
    beta: float
    half_open: bool = False

    def __post_init__(self):
        if not (0.0 <= self.alpha < self.beta <= math.pi + 1e-15):
            raise ValueError("need 0 <= alpha < beta <= pi")

    @property
    def lo(self) -> float:
        return _snap(2.0 * math.cos(self.beta))

    @property
    def hi(self) -> float:
        return _snap(2.0 * math.cos(self.alpha))

    def contains(self, value: float | np.ndarray) -> bool | np.ndarray:
        """Whether ``value`` lies in the interval: a bool for a float, a boolean
        array for an array.  The one membership rule of the package; the box
        sweep applies it to a prime's residue table."""
        return (self.lo <= value) & ((value < self.hi) if self.half_open else (value <= self.hi))


def primes_upto(limit: int) -> tuple[int, ...]:
    """All primes p <= limit in ascending order (sieve of Eratosthenes)."""
    limit = max(limit, 1)
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            start = q * q
            sieve[start:limit + 1:q] = b"\x00" * ((limit - start) // q + 1)
    return tuple(q for q in range(2, limit + 1) if sieve[q])


def primes_in_window(x: float) -> PrimeWindow:
    """Sieve-exact list of primes in (x/2, x]; requires x >= 10."""
    if x < 10:
        raise ValueError("window operations require x >= 10")
    primes = tuple(q for q in primes_upto(int(math.floor(x))) if q > x / 2)
    return PrimeWindow(x=x, primes=primes)


def legendre(n: int, p: int) -> int:
    """Quadratic residue symbol (n/p) in {-1, 0, 1} for odd p.

    p is assumed prime; the check here only rejects even moduli.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("legendre symbol needs an odd prime modulus")
    n %= p
    if n == 0:
        return 0
    return 1 if pow(n, (p - 1) // 2, p) == 1 else -1


@lru_cache(maxsize=CACHE_MAXSIZE)
def _legendre_table(p: int) -> np.ndarray:
    """chi(c) for c = 0..p-1 as an int8 array (read-only)."""
    tab = np.full(p, -1, dtype=np.int8)
    squares = (np.arange(p, dtype=np.int64) ** 2) % p
    tab[squares] = 1
    tab[0] = 0
    tab.setflags(write=False)
    return tab


@lru_cache(maxsize=CACHE_MAXSIZE)
def _sqrt_lists(p: int) -> tuple[tuple[int, ...], ...]:
    """For each residue r, the y with y^2 = r mod p."""
    roots: list[list[int]] = [[] for _ in range(p)]
    for y in range(p):
        roots[(y * y) % p].append(y)
    return tuple(tuple(r) for r in roots)


def _classify_singular(p: int, a: int, b: int) -> TraceValue:
    """Reduction type of a singular cubic (p | Delta, p >= 5)."""
    a %= p
    b %= p
    if a == 0 and b == 0:
        return TraceValue(Reduction.CUSP, 0)
    # double root e = -3b / (2a); tangents split iff 3e is a square mod p
    e = (-3 * b) * pow(2 * a, p - 2, p) % p
    sign = legendre(3 * e, p)
    return TraceValue(Reduction.NODE, sign)


def curve_ap(p: int, curve: CurveParams) -> TraceValue:
    """Trace of Frobenius at p, or the nodal/cuspidal marker if p | Delta."""
    if p < 5:
        raise ValueError("curve operations require p >= 5")
    if curve.delta == 0:
        raise ValueError("Delta(a, b) = 0 is not an elliptic curve")
    a, b = curve.a % p, curve.b % p
    if curve.delta % p == 0:
        return _classify_singular(p, a, b)
    chi = _legendre_table(p)
    xs = np.arange(p, dtype=np.int64)
    vals = (xs * xs % p * xs + a * xs + b) % p
    ap = -int(chi[vals].sum())
    return TraceValue(Reduction.GOOD, ap)


def _trace_rows(p: int, a_residues: np.ndarray) -> np.ndarray:
    """-sum_x chi(x^3 + a x + b) for the given a residues and every b.

    Returns an int64 array of shape (len(a_residues), p).  At pairs with
    p | Delta the character sum already is the nodal sign or the cusp's 0 (see
    the module docstring).  One batched complex FFT computes all circular
    correlations; the sweep and `ap_table` ask only for the base rows of
    `_twist_traces`, and tests compare the twist grids with all p rows.
    """
    chi = _legendre_table(p).astype(np.float64)
    xs = np.arange(p, dtype=np.int64)
    cubes = xs * xs % p * xs % p
    counts = np.empty((len(a_residues), p), dtype=np.float64)
    for i, a in enumerate(a_residues):
        t = (cubes + int(a) * xs) % p
        counts[i] = np.bincount(t, minlength=p)
    corr = np.fft.ifft(np.conj(np.fft.fft(counts, axis=1)) * np.fft.fft(chi)).real
    return -np.rint(corr).astype(np.int64)


def _twist_base(p: int) -> tuple[int, int, int]:
    """The base residues (0, 1, n) of `_twist_traces`, n the least non-residue mod p."""
    return 0, 1, int(np.argmax(_legendre_table(p) < 0))


def _twist_traces(p: int, base: np.ndarray, a_res: np.ndarray, b_res: np.ndarray):
    """Traces and good mask at the residue pairs (a_res x b_res) of one prime.

    ``base`` holds `_trace_rows(p, _twist_base(p))`.  Row a != 0 is read off
    base row a0 = 1 or n through T(a, b) = chi(d) T(a0, b d^-3) with
    d^2 = a / a0; d comes from a table of square roots, d^-3 = d^(p-4).  The
    work is O(p + len(a_res) len(b_res)).  Returns int64 traces and the
    boolean mask Delta != 0 mod p, both of shape (len(a_res), len(b_res)).
    """
    chi = _legendre_table(p).astype(np.int64)
    n = _twist_base(p)[2]
    a_res = np.asarray(a_res, dtype=np.int64)
    b_res = np.asarray(b_res, dtype=np.int64)
    ys = np.arange((p + 1) // 2, dtype=np.int64)
    root = np.zeros(p, dtype=np.int64)
    root[ys * ys % p] = ys  # y^2 are distinct for 0 <= y <= (p - 1) / 2
    square = chi[a_res] == 1
    d = np.where(a_res == 0, 1, root[np.where(square, a_res, a_res * pow(n, p - 2, p) % p)])
    row = np.where(a_res == 0, 0, np.where(square, 1, 2))
    d_inv3 = np.ones_like(d)  # d^(p-4) by square-and-multiply, entries stay below p^2
    power, e = d, p - 4
    while e:
        if e & 1:
            d_inv3 = d_inv3 * power % p
        power, e = power * power % p, e >> 1
    ap = chi[d][:, None] * base[row[:, None], b_res[None, :] * d_inv3[:, None] % p]
    good = (4 * (a_res ** 3 % p) % p)[:, None] != (-27 * (b_res ** 2 % p) % p)[None, :]  # Delta != 0 mod p
    return ap, good


def _singular_pairs(p: int, a: int) -> list[int]:
    """Residues b with p | Delta(a, b), for a fixed residue a."""
    inv27 = pow(27, p - 2, p)
    rhs = (-4 * a * a % p * a) * inv27 % p
    return list(_sqrt_lists(p)[rhs])


@dataclass
class ApTable:
    """Full residue grid of traces for one prime.

    ``ap[a, b]`` is the trace and ``kind[a, b]`` one of good/node/cusp.
    Exactly p of the p^2 pairs are singular.  Immutable after construction.
    """

    p: int
    ap: np.ndarray
    kind: np.ndarray

    def entry(self, a: int, b: int) -> TraceValue:
        k = int(self.kind[a % self.p, b % self.p])
        kinds = (Reduction.GOOD, Reduction.NODE, Reduction.CUSP)
        return TraceValue(kinds[k], int(self.ap[a % self.p, b % self.p]))

    @property
    def good(self) -> np.ndarray:
        return self.kind == _GOOD

    def good_trace_counts(self) -> dict[int, int]:
        """Histogram of traces over the good pairs."""
        vals, counts = np.unique(self.ap[self.good], return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}


def ap_table(p: int, max_p: int = AP_TABLE_MAX_P) -> ApTable:
    """Build the p x p trace grid from the twist orbits; O(p^2) work and memory."""
    if p < 5:
        raise ValueError("curve operations require p >= 5")
    if p > max_p:
        raise BudgetError(f"ap_table capped at p <= {max_p}")
    residues = np.arange(p)
    ap, good = _twist_traces(p, _trace_rows(p, _twist_base(p)), residues, residues)
    kind = np.where(good, np.uint8(_GOOD), np.uint8(_NODE))
    kind[0, 0] = _CUSP
    ap.setflags(write=False)
    kind.setflags(write=False)
    return ApTable(p=p, ap=ap, kind=kind)


def normalized_coeff(tv: TraceValue, p: int, m: int) -> float:
    """Normalized coefficient at p^m: f_m(a_p/sqrt(p)) at good primes,
    a_p^m at bad ones (the bad trace is already in {-1, 0, 1})."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if tv.kind is Reduction.GOOD:
        return f_eval(m, tv.ap / math.sqrt(p))
    return float(tv.ap ** m) if m else 1.0


def count_in_interval(curve: CurveParams, x: float, interval: Interval) -> int:
    """Number of window primes of good reduction whose normalized trace lies
    in the interval."""
    if curve.delta == 0:
        raise ValueError("Delta(a, b) = 0 is not an elliptic curve")
    window = primes_in_window(x)
    count = 0
    for p in window.primes:
        if curve.delta % p == 0:
            continue
        tv = curve_ap(p, curve)
        if interval.contains(tv.ap / math.sqrt(p)):
            count += 1
    return count
