"""Family moments of the interval-count error, CLT statistics, and the
exact expansion cross-check.

The direct route is elementary: for every admissible pair (a, b) in the box,
count the window primes of good reduction whose normalized trace lands in I,
subtract pi~(x) mu(I), and average powers of the result over the box.  All
counting is exact integer work; floats appear only in the final
normalization.  The per-prime residue tables come from the same twist-orbit
construction as the full trace grid, restricted to the residues the box
actually meets.

`moment_via_expansion` recomputes the t-th moment of the truncated
polynomial sums by the algebraic route: open the t-th power, group equal
primes with set partitions, expand coefficient products through the integer
D tables, and attach to every exponent tuple the box average of the
coefficient at p_1^a_1 ... p_u^a_u over pairwise-distinct prime tuples.
Before any analytic estimation that rewriting is an identity, so the two
routes must agree to float accuracy; this is the strongest single test of
the combinatorial layer.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from itertools import permutations, product
from typing import NamedTuple

import numpy as np

from .arith_curves import (
    CurveParams,
    Interval,
    SumCondition,
    _trace_rows,
    _twist_base,
    _twist_traces,
    count_in_interval,
    curve_ap,
    primes_in_window,
    primes_upto,
)
from .chebycomb import f_eval, gaussian_moment_constant, set_partitions
from .errors import BudgetError
from .st_approx import BSCoefficients, _f_rows, exact_st_coeffs, profile_M, st_measure

__all__ = [
    "Profile",
    "MomentPlan",
    "MomentResult",
    "MomentReport",
    "CltSample",
    "AlmostAllReport",
    "Hypothesis2Probe",
    "FamilyGrid",
    "eta",
    "delta",
    "error_term",
    "family_error_grid",
    "family_moments",
    "psum_moment_direct",
    "moment_via_expansion",
    "clt_histogram",
    "almost_all_report",
    "hypothesis2_probe",
]

DEFAULT_BOX_BUDGET = 500_000_000  # pairs x primes


class Profile(Enum):
    UNCONDITIONAL = "unconditional"
    MRH = "mrh"
    HYPOTHESES = "hypotheses"


def eta(t: int) -> int:
    """Range exponent max{t, 2(t-1)} attached to the t-th moment."""
    return max(t, 2 * (t - 1))


def delta(t: int) -> int:
    """1 for even t, 0 for odd t."""
    return 1 if t % 2 == 0 else 0


@dataclass
class MomentPlan:
    """Parameters of one family-moment run.

    The analytic knobs (c and the profile) only scale reported thresholds;
    they never enter the counting.
    """

    x: float
    A: int
    B: int
    interval: Interval
    t_list: tuple[int, ...] = (1, 2)
    M: int | None = None
    profile: Profile = Profile.UNCONDITIONAL
    condition: SumCondition = SumCondition.SKIP_BAD_ONLY
    c: float = 1.0
    exclude_axes: bool = False  # drop the complex-multiplication lines a=0, b=0

    def resolved_m(self) -> int:
        if self.M is not None:
            return self.M
        return profile_M(self.x, max(self.t_list), self.profile.value, self.c)

    def thresholds(self, t: int) -> dict[str, float]:
        """Theoretical box-size thresholds for the t-th moment, per profile."""
        e = eta(t)
        return {
            "unconditional": self.x ** e,
            "mrh": self.x ** (1.5 * e),
            "hypotheses12": self.x ** (1.5 * e),
            "hypothesis1": self.x ** (2 * e),
        }


@dataclass(frozen=True)
class MomentResult:
    t: int
    empirical: float
    main_term: float
    ratio: float | None


@dataclass
class MomentReport:
    x: float
    A: int
    B: int
    interval: Interval
    M: int
    profile: Profile
    mu: float
    pi_tilde: int
    z: float
    results: list[MomentResult]

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "A": self.A,
            "B": self.B,
            "interval": {"alpha": self.interval.alpha, "beta": self.interval.beta},
            "M": self.M,
            "profile": self.profile.value,
            "mu": self.mu,
            "pi_tilde": self.pi_tilde,
            "Z": self.z,
            "results": [
                {
                    "t": r.t,
                    "empirical": r.empirical,
                    "main_term": r.main_term,
                    "ratio": r.ratio,
                }
                for r in self.results
            ],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


def error_term(curve: CurveParams, x: float, interval: Interval) -> float:
    """N_I(E, x) - pi~(x) mu(I) for a single curve."""
    window = primes_in_window(x)
    return count_in_interval(curve, x, interval) - window.count * st_measure(interval)


def _box_prime_data(p: int, a_vals: np.ndarray, b_vals: np.ndarray):
    """Residue table of one window prime over the box: (ap, good, ia, ib).

    ``ap`` and ``good`` are the traces and the good-reduction mask at the
    distinct residue pairs the box meets, from the three twist base rows, so
    the work is O(p log p + residues met) whatever the box shape.  ``ia`` and
    ``ib`` map the box rows and columns to them: ``ap[ia][:, ib]`` is the box.
    """
    ua, ia = np.unique(a_vals % p, return_inverse=True)
    ub, ib = np.unique(b_vals % p, return_inverse=True)
    ap, good = _twist_traces(p, _trace_rows(p, _twist_base(p)), ua, ub)
    return ap, good, ia, ib


class FamilyGrid(NamedTuple):
    """The result of one box sweep (see `family_error_grid`); its arrays are read-only."""

    a_vals: np.ndarray
    b_vals: np.ndarray
    counts: np.ndarray
    admissible: np.ndarray
    pi_tilde: int

    def box(self, A: int, B: int) -> "FamilyGrid":
        """The centred sub-box |a| <= A, |b| <= B as views; ValueError unless the grid covers it."""
        ga, gb = len(self.a_vals) // 2, len(self.b_vals) // 2
        if not (0 <= A <= ga and 0 <= B <= gb):
            raise ValueError(f"box |a| <= {A}, |b| <= {B} is not inside the grid's box |a| <= {ga}, |b| <= {gb}")
        rows, cols = slice(ga - A, ga + A + 1), slice(gb - B, gb + B + 1)
        a_vals, b_vals, counts, admissible, pi_tilde = self
        return FamilyGrid(a_vals[rows], b_vals[cols], counts[rows, cols], admissible[rows, cols], pi_tilde)


def family_error_grid(
    x: float,
    A: int,
    B: int,
    interval: Interval,
    budget: int = DEFAULT_BOX_BUDGET,
) -> FamilyGrid:
    """Exact interval counts over the box |a| <= A, |b| <= B.

    Returns (a_vals, b_vals, counts, admissible, pi_tilde): ``counts`` is the
    integer N_I grid and ``admissible`` masks Delta != 0.  Each prime's
    residue table is tested with `Interval.contains` and expanded to the box
    in one gather.  Primes are processed in ascending order, so the result is
    bit-reproducible.
    """
    window = primes_in_window(x)
    n_pairs = (2 * A + 1) * (2 * B + 1)
    if n_pairs * max(window.count, 1) > budget:
        raise BudgetError(f"box sweep of {n_pairs} pairs x {window.count} primes = "
                          f"{n_pairs * window.count} exceeds the cap of {budget}")
    a_vals = np.arange(-A, A + 1, dtype=np.int64)
    b_vals = np.arange(-B, B + 1, dtype=np.int64)
    delta_grid = 4 * a_vals[:, None] ** 3 + 27 * b_vals[None, :] ** 2
    admissible = delta_grid != 0
    counts = np.zeros((len(a_vals), len(b_vals)), dtype=np.int64)
    for p in window.primes:
        ap, good, ia, ib = _box_prime_data(p, a_vals, b_vals)
        counts += (good & interval.contains(ap / math.sqrt(p)))[ia][:, ib]
    for arr in (a_vals, b_vals, counts, admissible):
        arr.setflags(write=False)
    return FamilyGrid(a_vals, b_vals, counts, admissible, window.count)


def _plan_grid(plan: MomentPlan, grid: FamilyGrid | None) -> tuple[FamilyGrid, np.ndarray]:
    """The plan's box of ``grid`` (swept here when None) and the pairs the plan
    selects.  A given grid must be swept at the plan's x and interval over a
    covering box; only pi~(x) is checked, so another interval goes unnoticed."""
    if grid is None:
        grid = family_error_grid(plan.x, plan.A, plan.B, plan.interval)
    elif grid.pi_tilde != (pi_tilde := primes_in_window(plan.x).count):
        raise ValueError(f"grid has pi~ = {grid.pi_tilde}, but x = {plan.x} has pi~ = {pi_tilde}")
    grid = grid.box(plan.A, plan.B)
    if not plan.exclude_axes:
        return grid, grid.admissible
    return grid, grid.admissible & (grid.a_vals != 0)[:, None] & (grid.b_vals != 0)[None, :]


def family_moments(plan: MomentPlan, grid: FamilyGrid | None = None) -> MomentReport:
    """Direct family moments of the interval-count error over the box; a given
    ``grid`` must be swept at the same x and interval (see `_plan_grid`)."""
    (_, _, counts, _, pi_tilde), admissible = _plan_grid(plan, grid)
    mu = st_measure(plan.interval)
    errors = np.where(admissible, counts - pi_tilde * mu, 0.0)
    norm = 4.0 * plan.A * plan.B
    M = plan.resolved_m()
    z = exact_st_coeffs(plan.interval, M).z if M >= 3 else float("nan")
    results = []
    for t in plan.t_list:
        empirical = float((errors ** t)[admissible].sum()) / norm
        main = delta(t) * gaussian_moment_constant(t) * (mu - mu * mu) ** (t / 2) * pi_tilde ** (t / 2) if t % 2 == 0 else 0.0
        ratio = empirical / main if main else None
        results.append(MomentResult(t=t, empirical=empirical, main_term=main, ratio=ratio))
    return MomentReport(
        x=plan.x,
        A=plan.A,
        B=plan.B,
        interval=plan.interval,
        M=M,
        profile=plan.profile,
        mu=mu,
        pi_tilde=pi_tilde,
        z=z,
        results=results,
    )


# ---------------------------------------------------------------------------
# expansion cross-check
# ---------------------------------------------------------------------------

PIPELINE_MAX_T = 3
PIPELINE_MAX_M = 6
PIPELINE_MAX_PRIMES = 12
PIPELINE_MAX_HALF_BOX = 15


def _pipeline_guard(plan: MomentPlan, t: int) -> None:
    if t > PIPELINE_MAX_T or plan.resolved_m() > PIPELINE_MAX_M:
        raise BudgetError("expansion cross-check restricted to t <= 3, M <= 6")
    if plan.A > PIPELINE_MAX_HALF_BOX or plan.B > PIPELINE_MAX_HALF_BOX:
        raise BudgetError("expansion cross-check restricted to small boxes")
    if primes_in_window(plan.x).count > PIPELINE_MAX_PRIMES:
        raise BudgetError("expansion cross-check restricted to short windows")


def _masked_power_tables(plan: MomentPlan, mmax: int):
    """Per window prime: rows m = 0..mmax of the p^m coefficient over the box,
    zeroed wherever the prime fails the summation condition for that pair."""
    window = primes_in_window(plan.x)
    a_vals = np.arange(-plan.A, plan.A + 1, dtype=np.int64)
    b_vals = np.arange(-plan.B, plan.B + 1, dtype=np.int64)
    tables = []
    for p in window.primes:
        ap, good, ia, ib = _box_prime_data(p, a_vals, b_vals)
        mask = good[ia][:, ib]  # good at p implies Delta != 0
        if plan.condition is SumCondition.SKIP_BAD_AND_AB:
            mask &= ((a_vals % p) != 0)[:, None] & ((b_vals % p) != 0)[None, :]
        tilde = (ap[ia][:, ib] / math.sqrt(p)).ravel()
        tables.append(_f_rows(tilde, mmax) * mask.ravel())
    return tables


def psum_moment_direct(plan: MomentPlan, t: int, coeffs: BSCoefficients | None = None) -> float:
    """(1/4AB) sum over the box of (sum_m U(m) sum_p coeff(p^m))^t, directly."""
    _pipeline_guard(plan, t)
    M = plan.resolved_m()
    coeffs = coeffs or exact_st_coeffs(plan.interval, M)
    tables = _masked_power_tables(plan, M)
    n_pairs = (2 * plan.A + 1) * (2 * plan.B + 1)
    psum = np.zeros(n_pairs)
    for rows in tables:
        psum += coeffs.u[1:M + 1] @ rows[1:M + 1]
    return float((psum ** t).sum()) / (4.0 * plan.A * plan.B)


def _fold_u_tables(u: np.ndarray, M: int, t: int) -> list[dict[int, float]]:
    """T_r[alpha] = sum over (m_1..m_r) in [1,M]^r of U(m_1)...U(m_r) D(m; alpha),
    for r = 1..t, built by folding the product rule."""
    t1 = {m: float(u[m]) for m in range(1, M + 1) if u[m] != 0.0}
    tables = [t1]
    for _ in range(t - 1):
        prev = tables[-1]
        nxt: dict[int, float] = {}
        for alpha, w in prev.items():
            for m in range(1, M + 1):
                um = float(u[m])
                if um == 0.0:
                    continue
                for l in range(min(alpha, m) + 1):
                    key = alpha + m - 2 * l
                    nxt[key] = nxt.get(key, 0.0) + w * um
        tables.append(nxt)
    return tables


def moment_via_expansion(plan: MomentPlan, t: int, coeffs: BSCoefficients | None = None) -> float:
    """The same t-th moment through the partition/product-rule expansion.

    Box averages of coefficients at square-free-supported prime powers stand
    in for their multiplicative approximation, which makes the rewriting an
    exact identity; agreement with `psum_moment_direct` to float accuracy is
    the pipeline acceptance gate.
    """
    _pipeline_guard(plan, t)
    M = plan.resolved_m()
    coeffs = coeffs or exact_st_coeffs(plan.interval, M)
    tables = _masked_power_tables(plan, t * M)
    n_primes = len(tables)
    norm = 4.0 * plan.A * plan.B
    u_tables = _fold_u_tables(coeffs.u, M, t)

    tuple_cache: dict[tuple[int, ...], float] = {}

    def distinct_tuple_sum(alphas: tuple[int, ...]) -> float:
        key = tuple(sorted(alphas))
        if key in tuple_cache:
            return tuple_cache[key]
        u = len(alphas)
        total = 0.0
        for primes in permutations(range(n_primes), u):
            prod = tables[primes[0]][alphas[0]]
            for j in range(1, u):
                prod = prod * tables[primes[j]][alphas[j]]
            total += float(prod.sum())
        tuple_cache[key] = total / norm
        return tuple_cache[key]

    total = 0.0
    for blocks in set_partitions(range(t)):
        factor_tables = [u_tables[len(block) - 1] for block in blocks]
        for alphas in product(*(ft.keys() for ft in factor_tables)):
            coeff = 1.0
            for ft, alpha in zip(factor_tables, alphas):
                coeff *= ft[alpha]
            if coeff == 0.0:
                continue
            total += coeff * distinct_tuple_sum(alphas)
    return total


def expansion_c_coefficient(u: np.ndarray, M: int, t: int, alphas: tuple[int, ...]) -> float:
    """The expansion coefficient attached to one exponent tuple: the sum over
    set partitions of {1..t} into len(alphas) blocks of the U-weighted D
    products.  At the all-zero tuple with t = 2z this collapses to
    (2z)!/(2^z z!) Z^z."""
    u_tables = _fold_u_tables(u, M, t)
    total = 0.0
    for blocks in set_partitions(range(t)):
        if len(blocks) != len(alphas):
            continue
        prod = 1.0
        for block, alpha in zip(blocks, alphas):
            prod *= u_tables[len(block) - 1].get(alpha, 0.0)
        total += prod
    return total


# ---------------------------------------------------------------------------
# CLT and almost-all reporting
# ---------------------------------------------------------------------------


@dataclass
class CltSample:
    a: np.ndarray
    b: np.ndarray
    counts: np.ndarray
    errors: np.ndarray
    standardized: np.ndarray
    bin_edges: np.ndarray
    bin_counts: np.ndarray
    ks: float
    mean: float
    variance: float

    @property
    def size(self) -> int:
        return len(self.standardized)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("a,b,n_i,error,standardized\n")
            for a, b, c, e, s in zip(self.a, self.b, self.counts, self.errors, self.standardized):
                fh.write(f"{int(a)},{int(b)},{int(c)},{float(e)!r},{float(s)!r}\n")


def _normal_cdf(values: np.ndarray) -> np.ndarray:
    """Phi at each value; erf runs once per distinct value (at most pi~ + 1 of them)."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in distinct])[inverse]


def _ks_against_normal(sample: np.ndarray) -> float:
    s = np.sort(sample)
    n = len(s)
    cdf = _normal_cdf(s)
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def clt_histogram(plan: MomentPlan, bins: int = 40, grid: FamilyGrid | None = None) -> CltSample:
    """Standardized error sample over the box, with histogram and KS distance;
    a given ``grid`` must be swept at the same x and interval (see `_plan_grid`)."""
    (a_vals, b_vals, counts, _, pi_tilde), sel = _plan_grid(plan, grid)
    if not sel.any():
        raise ValueError(f"no pair selected for the CLT sample: x = {plan.x}, A = {plan.A}, B = {plan.B}, "
                         f"exclude_axes = {plan.exclude_axes}")
    mu = st_measure(plan.interval)
    scale = math.sqrt(pi_tilde * (mu - mu * mu))
    aa, bb = np.meshgrid(a_vals, b_vals, indexing="ij")
    errors = (counts - pi_tilde * mu)[sel].ravel()
    standardized = errors / scale
    bin_counts, bin_edges = np.histogram(standardized, bins=bins)
    return CltSample(
        a=aa[sel].ravel(),
        b=bb[sel].ravel(),
        counts=counts[sel].ravel(),
        errors=errors,
        standardized=standardized,
        bin_edges=bin_edges,
        bin_counts=bin_counts,
        ks=_ks_against_normal(standardized),
        mean=float(standardized.mean()),
        variance=float(standardized.var()),
    )


@dataclass(frozen=True)
class AlmostAllReport:
    y: float
    profile: Profile
    threshold: float
    exceptions: int
    total: int
    fraction: float
    y_power: float  # y^-2, the predicted exception density scale
    exponent_fit_mean: float
    exponent_fit_max: float


def _profile_threshold(x: float, mu: float, pi_tilde: int, profile: Profile, c: float) -> float:
    if profile is Profile.UNCONDITIONAL:
        return x ** 0.75 / math.log(x) ** c
    if profile is Profile.MRH:
        return math.sqrt(x) * math.sqrt(math.log(x))
    return math.sqrt((mu - mu * mu) * pi_tilde) + math.sqrt(x) / math.log(x) ** c


def almost_all_report(plan: MomentPlan, y: float, profile: Profile | None = None,
                      grid: FamilyGrid | None = None) -> AlmostAllReport:
    """Count box pairs whose error exceeds y times the profile threshold.

    Also fits the per-curve exponent log |error| / log x, the quantity the
    square-root-cancellation conjecture predicts to hover near 1/2.  A given
    ``grid`` must be swept at the same x and interval (see `_plan_grid`).
    """
    profile = profile or plan.profile
    (_, _, counts, _, pi_tilde), admissible = _plan_grid(plan, grid)
    mu = st_measure(plan.interval)
    errors = np.abs((counts - pi_tilde * mu)[admissible].ravel())
    threshold = _profile_threshold(plan.x, mu, pi_tilde, profile, plan.c)
    exceptions = int((errors > y * threshold).sum())
    total = int(errors.size)
    nonzero = errors[errors > 0]
    fits = np.log(nonzero) / math.log(plan.x)
    return AlmostAllReport(
        y=y,
        profile=profile,
        threshold=threshold,
        exceptions=exceptions,
        total=total,
        fraction=exceptions / total if total else 0.0,
        y_power=y ** -2,
        exponent_fit_mean=float(fits.mean()) if len(fits) else 0.0,
        exponent_fit_max=float(fits.max()) if len(fits) else 0.0,
    )


@dataclass(frozen=True)
class Hypothesis2Probe:
    value: float
    scale: float
    ratio: float


def hypothesis2_probe(curve: CurveParams, m: int, y: float, x: float, c: float = 1.0) -> Hypothesis2Probe:
    """sum over primes y < p <= x (p >= 5, good reduction) of the p^m
    coefficient, against the m x / (log x)^c scaling."""
    if curve.delta == 0:
        raise ValueError("Delta(a, b) = 0 is not an elliptic curve")
    if not 0 <= y < x:
        raise ValueError("need 0 <= y < x")
    total = 0.0
    for p in primes_upto(int(math.floor(x))):
        if p < 5 or p <= y or curve.delta % p == 0:
            continue
        total += f_eval(m, curve_ap(p, curve).ap / math.sqrt(p))
    scale = max(m, 1) * x / math.log(x) ** c
    return Hypothesis2Probe(value=total, scale=scale, ratio=total / scale)
