"""Sato-Tate measure, exact interval coefficients, and one-sided sandwiches.

Write an interval of trace values as I = [2 cos(beta), 2 cos(alpha)], so in
the angle variable the indicator lives on the symmetric arc |t| in
[alpha, beta].  Against the orthonormal family f_m(2 cos t) under the
Sato-Tate measure (2/pi) sin^2(t) dt the indicator has coefficients

    c_m = S(m) - S(m+2),   S(m) = (sin(m beta) - sin(m alpha)) / (m pi),

and the stored sequence U keeps c_m for m <= M-2 while the two edge slots
U(M-1) = S(M-1), U(M) = S(M) carry the telescoped tails.  Parseval then gives
sum U(m)^2 = mu(I) - mu(I)^2 + O(log(2M)/M), the variance constant of the
whole moment theory.

The sandwich modes replace the exact coefficients by genuine one-sided
approximations: the indicator of a widened (majorant) or narrowed (minorant)
arc is convolved with a nonnegative even kernel of degree <= M-2 (the square
of the Fejer kernel), and the kernel mass outside [-h, h] is added to or
subtracted from the constant term.  Both the smoothing and the mass shift
have closed forms in the kernel coefficients, so the pointwise inequalities
S^- <= indicator <= S^+ hold by construction, not by inspection of a grid.
With the margin h = N^(-2/3) (N = floor(M/2) the kernel parameter) the
coefficient deviation from the exact mode is O(M^(-2/3)); the achieved
deviation is recorded in ``cert``.

A coefficient set has two evaluators, Clenshaw's `eval_traces` on u and
`cosine_grid_blocks` on s (any list of sets of one degree, on one grid), which
`verify` checks against each other; prime sums read f_m from `chebycomb.f_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .arith_curves import CurveParams, Interval, SumCondition, good_traces, primes_in_window
from .chebycomb import f_rows
from .errors import BudgetError

__all__ = [
    "CoeffMode",
    "BSCoefficients",
    "ParsevalResult",
    "st_measure",
    "exact_st_coeffs",
    "sandwich_coeffs",
    "parseval_check",
    "p_polynomial_sum",
    "sandwich_error_bound",
    "profile_M",
    "coeffs_to_csv",
    "cosine_grid_blocks",
    "MAX_DEGREE",
]

MAX_DEGREE = 100_000  # largest degree M of a coefficient set (`sandwich_coeffs` grows as M^2)


class CoeffMode(Enum):
    EXACT = "exact"
    MAJORANT = "major"
    MINORANT = "minor"


def st_measure(interval: Interval) -> float:
    """Measure of I under (1/pi) sqrt(1 - t^2/4) dt, in closed form."""
    a, b = interval.alpha, interval.beta
    return (b - a) / math.pi - (math.sin(2 * b) - math.sin(2 * a)) / (2 * math.pi)


@dataclass
class BSCoefficients:
    """Degree-M coefficient set for one interval.

    ``s[m]`` multiplies 2 cos(m t) and ``u[m]`` multiplies f_m(2 cos t); both
    arrays are indexed 1..M (slot 0 unused).  ``const_term`` is the
    f_0-coefficient; in exact mode it equals mu(I).  ``z`` is sum u(m)^2.
    ``cert`` records, for sandwich modes, the achieved max deviation of u
    from the exact-mode coefficients.
    """

    M: int
    mode: CoeffMode
    s: np.ndarray
    u: np.ndarray
    const_term: float
    z: float
    cert: float | None = None

    def eval_traces(self, x: np.ndarray) -> np.ndarray:
        """const_term + sum_m u[m] f_m(x) at normalized traces x, the term
        that a prime adds to the polynomial sums.

        Clenshaw's recurrence in the f basis, since f_m = x f_(m-1) - f_(m-2)
        with f_0 = 1, f_1 = x: from b_(M+1) = b_(M+2) = 0,
        b_m = u[m] + x b_(m+1) - b_(m+2) for m = M .. 1, the sum is
        const_term + x b_1 - b_2.  O(M) passes over x, no (M, len(x)) table.
        """
        x = np.asarray(x, dtype=float)
        b1, b2 = np.zeros_like(x), np.zeros_like(x)
        for um in self.u[self.M:0:-1].tolist():
            b1, b2 = um + x * b1 - b2, b1
        return self.const_term + x * b1 - b2


def cosine_grid_blocks(coeff_sets: list[BSCoefficients], n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Polynomial values d0 + sum_m s[m] 2 cos(m t), d0 = const_term + s[2]
    (just const_term when M = 1), of coefficient sets of one degree M on the
    grid t_j = j pi/(n-1), j < n, as blocks (start, values): values[k, i] is
    set k's value at t_(start+i), the same bits whatever the other sets.

    Split angles: with R = isqrt(n-1) + 1 and j = qR + r, cos(m t_j) =
    cos(m qR h) cos(m r h) - sin(m qR h) sin(m r h), h = pi/(n-1), so a block
    of 64 q-rows is, per set, two products of its q-tables times 2 s[m]
    against (M, R) tables of cos(m r h) and sin(m r h), all built once.  Each
    m j is reduced mod 2(n-1) in integers, so every angle lies in [0, 2 pi).
    """
    if n < 2:
        raise ValueError(f"a grid on [0, pi] needs n >= 2 points, got n = {n}")
    degrees = sorted({c.M for c in coeff_sets})
    if len(degrees) != 1:
        raise ValueError(f"need coefficient sets of one degree M, got {len(coeff_sets)} sets of degrees {degrees}")
    M = degrees[0]
    h, period, R = math.pi / (n - 1), 2 * (n - 1), math.isqrt(n - 1) + 1
    ms = np.arange(1, M + 1)
    r_angles = np.outer(ms, np.arange(R)) % period * h
    cos_r, sin_r = np.cos(r_angles), np.sin(r_angles, out=r_angles)  # no third (M, R) array
    per_set = [(2.0 * c.s[1:M + 1], c.const_term + (c.s[2] if M >= 2 else 0.0)) for c in coeff_sets]
    rows = -(-n // R)
    for q0 in range(0, rows, 64):
        q_angles = np.outer(np.arange(q0, min(q0 + 64, rows)) * R, ms) % period * h
        cos_q, sin_q = np.cos(q_angles), np.sin(q_angles, out=q_angles)
        block = np.empty((len(coeff_sets), len(q_angles), R))
        for values, (s, d0) in zip(block, per_set):  # each set's products written in place
            np.matmul(cos_q * s, cos_r, out=values)
            values -= (sin_q * s) @ sin_r
            values += d0
        yield q0 * R, block.reshape(len(coeff_sets), -1)[:, :n - q0 * R]


def _telescope(s: np.ndarray, M: int) -> np.ndarray:
    """u[m] = s[m] - s[m+2] for m <= M-2; the edge slots M-1 and M keep s."""
    u = np.zeros(M + 1)
    u[1:M - 1] = s[1:M - 1] - s[3:]
    edge = max(M - 1, 1)
    u[edge:] = s[edge:]
    return u


def _sin_multiples(theta: float, ks: np.ndarray) -> np.ndarray:
    """sin(k theta) for integers k >= 1, evaluated as sin(pi y) with
    y = k theta/pi reduced mod 2 and folded into [-1/2, 1/2].

    Since fl(pi)/pi = 1 and fl(pi/2)/pi = 1/2 exactly, and the reduction and
    the fold are exact in floating point, the values at theta = 0, pi/2 and
    pi are exactly 0 and +-1.  At other angles the error is O(k eps), the
    same as for np.sin(k * theta).
    """
    y = np.mod(ks * (theta / math.pi), 2.0)
    y = np.where(y > 1.0, y - 2.0, y)
    y = np.where(y > 0.5, 1.0 - y, np.where(y < -0.5, -1.0 - y, y))
    return np.sin(math.pi * y)


def _arc_cosine_coeffs(lo: float, hi: float, kmax: int) -> np.ndarray:
    """Coefficients of the even indicator of {t : |t| in [lo, hi]}: entry k
    multiplies 2 cos(k t) for k >= 1; entry 0 is the plain constant.

    Endpoints at or above pi are read as pi (``Interval`` admits beta up to
    pi + 1e-15), and sin(k t) goes through the exact reduction of
    ``_sin_multiples``, so the arcs [0, pi] and [0, pi/2] get exact zeros:
    every entry k >= 1 for the first, every even k for the second.
    """
    lo, hi = min(lo, math.pi), min(hi, math.pi)
    out = np.zeros(kmax + 1)
    out[0] = (hi - lo) / math.pi
    ks = np.arange(1, kmax + 1)
    out[1:] = (_sin_multiples(hi, ks) - _sin_multiples(lo, ks)) / (ks * math.pi)
    return out


def _finish(M: int, mode: CoeffMode, s: np.ndarray, const: float) -> BSCoefficients:
    u = _telescope(s, M)
    return BSCoefficients(
        M=M,
        mode=mode,
        s=s,
        u=u,
        const_term=const,
        z=float(np.dot(u[1:], u[1:])),
    )


def _check_degree(M: int) -> None:
    """BudgetError naming M when it exceeds MAX_DEGREE, before anything of that size is built."""
    if M > MAX_DEGREE:
        raise BudgetError(f"coefficient degree M = {M} exceeds the cap MAX_DEGREE = {MAX_DEGREE}")


def exact_st_coeffs(interval: Interval, M: int) -> BSCoefficients:
    """Exact Fourier data of the interval indicator, truncated at degree M <= MAX_DEGREE."""
    if M < 1:
        raise ValueError(f"need M >= 1, got M = {M}")
    _check_degree(M)
    s = _arc_cosine_coeffs(interval.alpha, interval.beta, M)
    const = st_measure(interval)
    s[0] = 0.0  # constant tracked by const_term instead
    return _finish(M, CoeffMode.EXACT, s, const)


def _jackson_lambdas(N: int) -> np.ndarray:
    """Normalized coefficients of the squared Fejer kernel of parameter N:
    lambda_k for k = 0..2N-2, with lambda_0 = 1.  The kernel is the
    nonnegative trig polynomial proportional to (sin(N t/2)/sin(t/2))^4."""
    tri = np.minimum(np.arange(1, 2 * N), np.arange(2 * N - 1, 0, -1)).astype(np.int64)
    conv = np.convolve(tri, tri)
    center = 2 * N - 2
    return conv[center:center + 2 * N - 1] / conv[center]


def _kernel_head_mass(lambdas: np.ndarray, h: float) -> float:
    """Integral of the kernel over [-h, h], closed form."""
    ks = np.arange(1, len(lambdas))
    return h / math.pi + (2.0 / math.pi) * float(np.dot(lambdas[1:], np.sin(ks * h) / ks))


def sandwich_coeffs(interval: Interval, M: int, side: CoeffMode) -> BSCoefficients:
    """Certified one-sided approximation of the interval indicator.

    Majorant: smooth the indicator of the arc widened by h and add the
    kernel's tail mass; minorant: narrow by h and subtract it.  Endpoints at
    0 or pi are not moved (the arc is symmetric about both).  Raises if the
    narrowed arc would be empty.
    """
    if side not in (CoeffMode.MAJORANT, CoeffMode.MINORANT):
        raise ValueError("side must be a sandwich mode")
    if M < 16:
        raise ValueError(f"need M >= 16 for the sandwich construction, got M = {M}")
    exact = exact_st_coeffs(interval, M)  # for cert; first, so MAX_DEGREE is checked before the O(M^2) kernel
    N = M // 2
    h = N ** (-2.0 / 3.0)
    alpha, beta = interval.alpha, interval.beta
    if side is CoeffMode.MAJORANT:
        lo, hi = max(0.0, alpha - h), min(math.pi, beta + h)
    else:
        lo = alpha + h if alpha > 0 else 0.0
        hi = beta - h if beta < math.pi else math.pi
        if lo >= hi:
            raise ValueError("interval narrower than the smoothing margin")
    lambdas = _jackson_lambdas(N)
    kmax = len(lambdas) - 1  # 2N-2 <= M-2
    arc = _arc_cosine_coeffs(lo, hi, kmax)
    s = np.zeros(M + 1)
    s[1:kmax + 1] = lambdas[1:] * arc[1:]
    d0 = arc[0]
    if not (lo == 0.0 and hi == math.pi):
        tail = 1.0 - _kernel_head_mass(lambdas, h)
        d0 += tail if side is CoeffMode.MAJORANT else -tail
    const = float(d0 - s[2])  # a Python float, as in the exact set
    out = _finish(M, side, s, const)
    out.cert = float(np.max(np.abs(out.u - exact.u)))
    return out


@dataclass(frozen=True)
class ParsevalResult:
    M: int
    z: float
    mu_term: float
    gap: float

    @property
    def bound(self) -> float:
        """20 log(2M)/M, the bound the gap is checked against."""
        return 20.0 * math.log(2 * self.M) / self.M


def parseval_check(interval: Interval, M: int) -> ParsevalResult:
    """Compare sum u(m)^2 with mu(I) - mu(I)^2; the gap is O(log(2M)/M)."""
    coeffs = exact_st_coeffs(interval, M)
    mu = st_measure(interval)
    mu_term = mu - mu * mu
    return ParsevalResult(M=M, z=coeffs.z, mu_term=mu_term, gap=abs(coeffs.z - mu_term))


def _window_coeff_sums(curve: CurveParams, x: float, M: int, condition: SumCondition) -> np.ndarray:
    """sums[m] = sum over admissible window primes of the p^m coefficient;
    sums[0] counts those primes, since f_0 = 1."""
    return f_rows(good_traces(curve, primes_in_window(x).primes, condition), M).sum(axis=1)


def p_polynomial_sum(
    curve: CurveParams,
    x: float,
    coeffs: BSCoefficients,
    condition: SumCondition = SumCondition.SKIP_BAD_ONLY,
) -> float:
    """sum_m U(m) sum over admissible window primes of the p^m coefficient."""
    sums = _window_coeff_sums(curve, x, coeffs.M, condition)
    return float(np.dot(coeffs.u[1:], sums[1:]))


def sandwich_error_bound(
    curve: CurveParams,
    x: float,
    interval: Interval,
    M: int,
) -> tuple[float, float]:
    """Certified bracket for N_I(E, x) - pi~(x) mu(I).

    Both sides sum the one-sided polynomials over the good window primes;
    the constant terms contribute exactly const * (number of good primes).
    """
    minor = sandwich_coeffs(interval, M, CoeffMode.MINORANT)
    major = sandwich_coeffs(interval, M, CoeffMode.MAJORANT)
    base = -primes_in_window(x).count * st_measure(interval)
    sums = _window_coeff_sums(curve, x, M, SumCondition.SKIP_BAD_ONLY)
    n_good = int(sums[0])
    lower = float(np.dot(minor.u[1:], sums[1:])) + minor.const_term * n_good + base
    upper = float(np.dot(major.u[1:], sums[1:])) + major.const_term * n_good + base
    return lower, upper


def profile_M(x: float, t: int, profile: str, c: float = 1.0) -> int:
    """Default polynomial degree for the end-to-end pipeline, by profile."""
    if profile == "unconditional":
        return math.ceil(x ** 0.25 * math.log(x) ** (c / (2 * t)))
    if profile == "mrh":
        return math.ceil(math.sqrt(primes_in_window(x).count))
    if profile == "hypotheses":
        return math.ceil(math.sqrt(x) * math.log(x) ** (c / (2 * t)))
    raise ValueError(f"unknown profile {profile!r}")


def coeffs_to_csv(coeffs: BSCoefficients, path) -> None:
    with open(path, "w") as fh:
        fh.write("m,s,u\n")
        for m in range(1, coeffs.M + 1):
            fh.write(f"{m},{float(coeffs.s[m])!r},{float(coeffs.u[m])!r}\n")
