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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .arith_curves import CurveParams, Interval, SumCondition, curve_ap, primes_in_window

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
]


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
    f_0-coefficient; in exact mode it equals mu(I).  ``z`` is sum u(m)^2 and
    ``u_decay`` the largest m |u(m)| (the coefficients decay like 1/m).
    ``cert`` records, for sandwich modes, the achieved max deviation of u
    from the exact-mode coefficients.
    """

    M: int
    mode: CoeffMode
    s: np.ndarray
    u: np.ndarray
    const_term: float
    z: float
    u_decay: float
    cert: float | None = None

    def eval_cosine(self, thetas: np.ndarray) -> np.ndarray:
        """Polynomial value at angles: d0 + sum_m s[m] 2 cos(m t)."""
        thetas = np.asarray(thetas, dtype=float)
        d0 = self.const_term + self.s[2]
        out = np.full_like(thetas, d0)
        for m in range(1, self.M + 1):
            if self.s[m]:
                out += self.s[m] * 2.0 * np.cos(m * thetas)
        return out

    def eval_f_basis(self, thetas: np.ndarray) -> np.ndarray:
        """Same polynomial through the telescoped coefficients:
        const_term + sum_m u[m] f_m(2 cos t)."""
        x = 2.0 * np.cos(np.asarray(thetas, dtype=float))
        out = np.full_like(x, self.const_term)
        for um, fm in zip(self.u[1:], _f_rows(x, self.M)[1:]):
            out += um * fm
        return out


def _f_rows(x: np.ndarray, mmax: int) -> np.ndarray:
    """Rows f_0(x), ..., f_mmax(x) by f_m = x f_(m-1) - f_(m-2), f_0 = 1, f_1 = x."""
    rows = np.empty((mmax + 1, *np.shape(x)))
    rows[0] = 1.0
    if mmax >= 1:
        rows[1] = x
    for m in range(2, mmax + 1):
        rows[m] = x * rows[m - 1] - rows[m - 2]
    return rows


def _telescope(s: np.ndarray, M: int) -> np.ndarray:
    u = np.zeros(M + 1)
    for m in range(1, M - 1):
        u[m] = s[m] - s[m + 2]
    if M >= 2:
        u[M - 1] = s[M - 1]
    u[M] = s[M]
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


def _finish(M: int, mode: CoeffMode, s: np.ndarray, const: float, cert: float | None) -> BSCoefficients:
    u = _telescope(s, M)
    ms = np.arange(1, M + 1)
    return BSCoefficients(
        M=M,
        mode=mode,
        s=s,
        u=u,
        const_term=const,
        z=float(np.dot(u[1:], u[1:])),
        u_decay=float(np.max(ms * np.abs(u[1:]))),
        cert=cert,
    )


def exact_st_coeffs(interval: Interval, M: int) -> BSCoefficients:
    """Exact Fourier data of the interval indicator, truncated at degree M."""
    if M < 1:
        raise ValueError("need M >= 1")
    s = _arc_cosine_coeffs(interval.alpha, interval.beta, M)
    const = st_measure(interval)
    s[0] = 0.0  # constant tracked by const_term instead
    return _finish(M, CoeffMode.EXACT, s, const, cert=None)


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
        raise ValueError("need M >= 16 for the sandwich construction")
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
    const = d0 - s[2]
    out = _finish(M, side, s, const, cert=None)
    exact = exact_st_coeffs(interval, M)
    out.cert = float(np.max(np.abs(out.u - exact.u)))
    return out


@dataclass(frozen=True)
class ParsevalResult:
    z: float
    mu_term: float
    gap: float


def parseval_check(interval: Interval, M: int) -> ParsevalResult:
    """Compare sum u(m)^2 with mu(I) - mu(I)^2; the gap is O(log(2M)/M)."""
    coeffs = exact_st_coeffs(interval, M)
    mu = st_measure(interval)
    mu_term = mu - mu * mu
    return ParsevalResult(z=coeffs.z, mu_term=mu_term, gap=abs(coeffs.z - mu_term))


def _window_coeff_sums(
    curve: CurveParams,
    x: float,
    M: int,
    condition: SumCondition,
) -> np.ndarray:
    """sums[m] = sum over admissible window primes of the p^m coefficient."""
    if curve.delta == 0:
        raise ValueError("Delta(a, b) = 0 is not an elliptic curve")
    window = primes_in_window(x)
    traces = []
    for p in window.primes:
        if curve.delta % p == 0:
            continue
        if condition is SumCondition.SKIP_BAD_AND_AB and (curve.a % p == 0 or curve.b % p == 0):
            continue
        traces.append(curve_ap(p, curve).ap / math.sqrt(p))
    return _f_rows(np.array(traces, dtype=float), M).sum(axis=1)


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
    window = primes_in_window(x)
    n_good = sum(1 for p in window.primes if curve.delta % p != 0)
    mu = st_measure(interval)
    base = -window.count * mu
    sums = _window_coeff_sums(curve, x, M, SumCondition.SKIP_BAD_ONLY)
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
