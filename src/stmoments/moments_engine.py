"""Family moments of the interval-count error, CLT statistics, and the
exact expansion cross-check.

The direct route is elementary: for every admissible pair (a, b) in the box,
count the window primes of good reduction whose normalized trace lands in I,
subtract pi~(x) mu(I), and average powers of the result over the box.  All
counting is exact integer work; floats appear only in the final
normalization.  Each prime's hit rule runs on its six twist base rows only
(`arith_curves`); a gather through the twist index reads it at the residues
the box meets, PAIR_BLOCK pairs at a time, and the box, a periodic tiling of
that table, is added into a narrow integer accumulator.  The same loop
(`_sweep_box`) sums a Beurling-Selberg polynomial over the primes at every
pair (`polynomial_sum_grid`), and one sweep feeds any number of such channels
from one base table per prime, each channel evaluated once per block of
primes: the certified bracket of the count error holds or fails over a
whole box from one sweep, and the cross-check's polynomial sums P_M come
from one sweep per box for every plan on it.

Every statistic (moments, the CLT sample's KS distance and histogram, the
almost-all exceptions) depends only on the multiset of selected counts,
which take at most pi~ + 1 values: they run on its (value, multiplicity)
table from `np.bincount` over the box, less the few pairs off the
selection.  A `MomentPlan` sweeps its box once, inside the first statistic
that needs it, and keeps the read-only grid (1-2 bytes of counts per pair,
the mask built only when read) and its count table while it lives, so its
moments, CLT sample and almost-all count read one sweep and one table.
``grid=`` is for a covering grid swept elsewhere, shared by plans of
different boxes.

`moment_via_expansion` recomputes the moments of P_M at every t of each
plan's `t_list` on one build of `box_summands`' power tables per box and
condition: open the t-th power, group equal primes with set partitions,
expand coefficient products through the integer D tables, and attach to
every exponent tuple the box average of the coefficient at
p_1^a_1 ... p_u^a_u over pairwise-distinct prime tuples.  Those
distinct-prime sums go by the partition route (`chebycomb.distinct_sum`):
Bell(u) products of plain prime sums, not an O(P^u) enumeration.  Before
any analytic estimation that rewriting is an identity, so the two routes
must agree to float accuracy; this is the strongest single test of the
combinatorial layer.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import suppress
from dataclasses import asdict, dataclass, replace
from enum import Enum
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .arith_curves import (
    CurveParams,
    Interval,
    PrimeWindow,
    SumCondition,
    _box_prime_data,
    _delta_zeros,
    _index_rows,
    _kept,
    _sieve_limit,
    _trace_rows,  # not used here; the benchmark's tracer and its tests look it up on this module
    _window_limit,
    _Workspace,
    box_summands,
    count_in_interval,
    curve_primes,
    good_traces,
    nonsingular_mask,
    primes_in_window,
    trace_values,
)
from .chebycomb import distinct_sum, f_eval, f_rows, gaussian_moment_constant, product_rule_fold, set_partitions
from .errors import BudgetError
from .st_approx import BSCoefficients, _check_degree, exact_st_coeffs, profile_M, st_measure

__all__ = [
    "Profile",
    "MomentPlan",
    "MomentResult",
    "MomentReport",
    "CltSample",
    "AlmostAllReport",
    "Hypothesis2Probe",
    "FamilyGrid",
    "error_term",
    "family_error_grid",
    "polynomial_sum_grid",
    "family_moments",
    "psum_moment_direct",
    "moment_via_expansion",
    "expansion_c_coefficient",
    "clt_histogram",
    "almost_all_report",
    "hypothesis2_probe",
]

DEFAULT_BOX_BUDGET = 500_000_000  # pairs x primes
PAIR_BLOCK = 65_536  # pairs per block of the count table and of the CLT CSV writer
_EVAL_BLOCK = 4096  # trace values per evaluation block of a sweep; a prime near MAX_PRIME has 4001
MAX_MOMENT_ORDER = 64  # largest t of a plan: every moment and Gaussian term stays a finite float
MAX_BINS = 1_000_000  # bins of a CLT histogram, about 23 bytes each


def _log_power(x: float, c: float) -> float:
    """(log x)^c; a ValueError naming c and x unless it is a positive finite float."""
    with suppress(OverflowError):  # float ** float past the float range raises instead of giving inf
        if 0 < (power := math.log(x) ** c) < math.inf:
            return power
    raise ValueError(f"(log x)^c must be a positive finite float, got c = {c}, x = {x}")


class Profile(Enum):
    UNCONDITIONAL = "unconditional"
    MRH = "mrh"
    HYPOTHESES = "hypotheses"


@dataclass(frozen=True)
class MomentPlan:
    """Parameters of one family-moment run, and the sweep of its box.

    The analytic knobs (c and the profile) set the default M and the
    almost-all threshold; they never enter the counting.  The first
    statistic run without ``grid=`` sweeps the plan's box and the plan keeps
    that read-only `FamilyGrid` (1-2 bytes of counts per pair, its mask built
    only when read) and its count table (at most pi~ + 1 rows) while it lives,
    so every later statistic reads the same sweep and table.  Neither is a
    field: `repr`, ``==``, `hash` and `dataclasses.replace` ignore them, and a
    replaced plan sweeps afresh.  A `CltSample` adds nothing per pair until read.
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

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) for v in (*self.t_list, 1 if self.M is None else self.M)):
            raise ValueError(f"moment orders and M must be integers, got t_list = {self.t_list}, M = {self.M}")
        if not self.t_list or min(self.t_list) < 1:
            raise ValueError(f"moment orders need t >= 1, got t_list = {self.t_list}")
        if max(self.t_list) > MAX_MOMENT_ORDER:
            raise BudgetError(f"moment order t = {max(self.t_list)} exceeds the cap of {MAX_MOMENT_ORDER}")
        if self.M is not None and self.M < 1:
            raise ValueError(f"need M >= 1, got M = {self.M}")
        _window_limit(self.x)  # NaN, x < 10 and inf fail here, before M or a sweep
        _log_power(self.x, self.c)

    def resolved_m(self) -> int:
        if self.M is not None:
            return self.M
        return profile_M(self.x, max(self.t_list), self.profile.value, self.c)

    @cached_property
    def _grid(self) -> FamilyGrid:
        """The box's sweep, on first use; a sweep that raises keeps nothing."""
        return family_error_grid(self.x, self.A, self.B, self.interval)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """The count table of the plan's selection on its kept sweep, on first use."""
        return _count_table(self._grid, self.exclude_axes)


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
            "results": [asdict(r) for r in self.results],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


def error_term(curve: CurveParams, x: float, interval: Interval) -> float:
    """N_I(E, x) - pi~(x) mu(I) for a single curve."""
    window = primes_in_window(x)
    return count_in_interval(curve, x, interval) - window.count * st_measure(interval)


@dataclass(frozen=True, eq=False)
class FamilyGrid:
    """The result of one box sweep (see `family_error_grid`); its arrays are
    read-only.  ``counts`` is unsigned and narrow (uint8 up to pi~ = 255,
    uint16 above), so cast it before signed or wide integer arithmetic.  The
    mask Delta != 0 (`nonsingular_mask`) is built on first read and kept.
    Indexing and iteration give (a_vals, b_vals, counts, admissible, pi_tilde)."""

    a_vals: np.ndarray
    b_vals: np.ndarray
    counts: np.ndarray
    pi_tilde: int

    @cached_property
    def admissible(self) -> np.ndarray:
        mask = nonsingular_mask(self.a_vals, self.b_vals)
        mask.setflags(write=False)
        return mask

    def __getitem__(self, i: int):
        return getattr(self, ("a_vals", "b_vals", "counts", "admissible", "pi_tilde")[i])

    def __iter__(self):
        return map(self.__getitem__, range(5))

    def box(self, A: int, B: int) -> "FamilyGrid":
        """The centred sub-box |a| <= A, |b| <= B as views; ValueError unless the grid covers it."""
        ga, gb = len(self.a_vals) // 2, len(self.b_vals) // 2
        if not (0 <= A <= ga and 0 <= B <= gb):
            raise ValueError(f"box |a| <= {A}, |b| <= {B} is not inside the grid's box |a| <= {ga}, |b| <= {gb}")
        rows, cols = slice(ga - A, ga + A + 1), slice(gb - B, gb + B + 1)
        return FamilyGrid(self.a_vals[rows], self.b_vals[cols], self.counts[rows, cols], self.pi_tilde)


def _sweep_box(window: PrimeWindow, A: int, B: int, channels: list) -> tuple[np.ndarray, np.ndarray, list]:
    """The one box-sweep loop: (a_vals, b_vals, accs) over |a| <= A, |b| <= B,
    one read-only accumulator per channel: an `Interval` counts the good
    primes whose normalized trace lies in it (narrowest unsigned dtype that
    holds pi~), a (`BSCoefficients`, `SumCondition`) pair sums the polynomial
    over the primes the condition keeps (float64).

    Each channel is evaluated once per block of primes, on their concatenated
    `trace_values` (at most _EVAL_BLOCK values).  Per prime, in ascending
    order, `_box_prime_data` builds the (6, p) base table once (the integer
    traces of the twist base rows and their negatives, and their good mask)
    and the box's twist factors; each channel masks its values there.  Then,
    max(1, PAIR_BLOCK // period_b) period rows at a time, each channel gathers
    through the rows' twist index (`_index_rows`), tiles the result along b
    and adds it into those rows of every period of the box.  The fixed prime
    order makes float accumulators bit-reproducible, each equal to its
    one-channel sweep.  Before any prime is swept, a degree past
    MAX_DEGREE is a BudgetError, a condition that is not a SumCondition a
    ValueError, A or B that is not an integer >= 0 a ValueError naming both,
    and past DEFAULT_BOX_BUDGET pairs x primes a BudgetError.
    """
    channels = [ch if isinstance(ch, Interval) else (ch[0], SumCondition(ch[1])) for ch in channels]
    for ch in channels:
        if not isinstance(ch, Interval):
            _check_degree(ch[0].M)
    if not all(isinstance(v, numbers.Integral) and v >= 0 for v in (A, B)):
        raise ValueError(f"box sweep needs integers A, B >= 0, got A = {A}, B = {B}")
    n_pairs = (2 * A + 1) * (2 * B + 1)
    if n_pairs * max(window.count, 1) > DEFAULT_BOX_BUDGET:
        raise BudgetError(f"box sweep of {n_pairs} pairs x {window.count} primes = "
                          f"{n_pairs * window.count} exceeds the cap of {DEFAULT_BOX_BUDGET}")
    a_vals = np.arange(-A, A + 1, dtype=np.int64)
    b_vals = np.arange(-B, B + 1, dtype=np.int64)
    n_a, n_b = len(a_vals), len(b_vals)
    counting = [isinstance(ch, Interval) for ch in channels]
    accs = [np.zeros((n_a, n_b), dtype=np.min_scalar_type(window.count) if count else np.float64)
            for count in counting]
    work = _Workspace()
    step = max(1, _EVAL_BLOCK // (2 * math.isqrt(4 * window.primes[-1]) + 1))  # primes per block
    for first in range(0, window.count, step):
        block = window.primes[first:first + step]
        values = [trace_values(p) for p in block]
        flat = np.concatenate(values)
        evaluated = [ch.contains(flat) if count else ch[0].eval_traces(flat) for ch, count in zip(channels, counting)]
        start = 0
        for p, n in zip(block, map(len, values)):
            period_a, period_b = min(n_a, p), min(n_b, p)
            rows = min(period_a, max(1, PAIR_BLOCK // period_b))  # period rows per block
            tables = work.regions("table", *(((rows, period_b), acc.dtype) for acc in accs))
            tiles = work.regions("scratch", *(((rows, n_b), acc.dtype) for acc in accs)) if period_b < n_b else tables
            base, good, (offsets, d_inv3, b_res) = _box_prime_data(p, a_vals, b_vals, work)
            at_base = [ev[start:start + n][base] for ev in evaluated]
            masked = [(good & at if count else np.where(_kept(good, ch[1]), at, 0.0)).astype(acc.dtype, copy=False)
                      for ch, count, at, acc in zip(channels, counting, at_base, accs)]
            for r0 in range(0, period_a, rows):
                index = _index_rows(p, offsets[r0:r0 + rows], d_inv3[r0:r0 + rows], b_res, work)
                r = len(index)
                for src, acc, table, tile in zip(masked, accs, tables, tiles):
                    src.take(index, out=table[:r], mode="clip")
                    if tile is not table:  # the period rows, repeated along b
                        for j in range(0, n_b, period_b):
                            tile[:r, j:j + period_b] = table[:r, :n_b - j]
                    for i in range(r0, n_a, period_a):
                        acc[i:i + r] += tile[:min(r, n_a - i)]
            start += n
    for arr in (a_vals, b_vals, *accs):
        arr.setflags(write=False)
    return a_vals, b_vals, accs


def family_error_grid(x: float, A: int, B: int, interval: Interval) -> FamilyGrid:
    """Exact interval counts over the box |a| <= A, |b| <= B: the one-channel
    `_sweep_box` of ``interval``.

    Returns a `FamilyGrid`: ``counts`` is the read-only N_I grid in the
    accumulator's narrow unsigned dtype, uint8 up to pi~ = 255 and uint16
    above (MAX_PRIME keeps pi~ below 2^16), returned as is, not widened, so
    cast it before signed arithmetic; its ``admissible`` mask of Delta != 0
    is built only when read.  All work is exact integer work, so the result
    is bit-reproducible.  A and B must be integers >= 0; anything else is a
    ValueError naming both before any prime is swept.
    """
    window = primes_in_window(x)
    a_vals, b_vals, (counts,) = _sweep_box(window, A, B, [interval])
    return FamilyGrid(a_vals, b_vals, counts, window.count)


def polynomial_sum_grid(x: float, A: int, B: int, coeffs: BSCoefficients,
                        condition: SumCondition = SumCondition.SKIP_BAD_ONLY) -> np.ndarray:
    """Polynomial prime sums over the box |a| <= A, |b| <= B: at each pair,
    the sum over the window primes that ``condition`` keeps of
    const_term + sum_m u[m] f_m(a_p/sqrt(p)), as the read-only float64
    (2A+1, 2B+1) accumulator of the one-channel `_sweep_box` of
    (coeffs, condition).

    With a sandwich set and pi~(x) mu(I) subtracted, the default (good
    primes) is that side of `sandwich_error_bound`'s bracket; without
    const_term it is `p_polynomial_sum` under ``condition``, the direct side
    of the expansion cross-check.  A degree past MAX_DEGREE is a
    BudgetError, and A or B that is not an integer >= 0 a ValueError, before
    anything is swept.
    """
    return _sweep_box(primes_in_window(x), A, B, [(coeffs, condition)])[2][0]


def _plan_grid(plan: MomentPlan, grid: FamilyGrid | None):
    """The plan's box of ``grid`` and the count table of the pairs the plan
    selects.  Without a grid both are the plan's own, made on first use and
    kept by the plan.  A given grid, swept elsewhere at the plan's x and
    interval over a covering box, is never kept and its table is built
    afresh; only pi~(x) is checked, so another interval goes unnoticed."""
    if grid is None:
        return plan._grid, plan._table
    if grid.pi_tilde != (pi_tilde := primes_in_window(plan.x).count):
        raise ValueError(f"grid has pi~ = {grid.pi_tilde}, but x = {plan.x} has pi~ = {pi_tilde}")
    grid = grid.box(plan.A, plan.B)
    return grid, _count_table(grid, plan.exclude_axes)


def _dropped_rectangles(a_vals: np.ndarray, b_vals: np.ndarray, exclude_axes: bool) -> list:
    """The one selection rule: row and column masks of the disjoint
    rectangles of the box a plan drops, the zeros of Delta (`_delta_zeros`)
    and, under ``exclude_axes``, the row a = 0 and the column b = 0.  (0, 0),
    the zero at k = 0, lies on both axes, so there only k >= 1 is listed, and
    the column leaves it out."""
    zeros = _delta_zeros(a_vals, b_vals)
    if not exclude_axes:
        return zeros
    return zeros[1:] + [(a_vals == 0, np.ones(len(b_vals), bool)), (a_vals != 0, b_vals == 0)]


def _count_table(grid: FamilyGrid, exclude_axes: bool) -> tuple[np.ndarray, np.ndarray]:
    """The distinct counts of the pairs a plan selects, ascending, and their
    multiplicities; every statistic of the sample is a function of this
    table.  The whole box is bincounted PAIR_BLOCK pairs at a time
    (`np.bincount` widens its input to intp), then the few pairs off the
    selection (`_dropped_rectangles`) are taken out.  No box-sized copy is made."""
    a_vals, b_vals, counts = grid.a_vals, grid.b_vals, grid.counts
    mult = np.zeros(grid.pi_tilde + 1, dtype=np.intp)
    rows = max(1, PAIR_BLOCK // len(b_vals))
    for i in range(0, len(a_vals), rows):
        mult += np.bincount(counts[i:i + rows].ravel(), minlength=len(mult))
    dropped = [counts[np.ix_(r, c)].ravel() for r, c in _dropped_rectangles(a_vals, b_vals, exclude_axes)]
    mult -= np.bincount(np.concatenate(dropped), minlength=len(mult))
    values = np.flatnonzero(mult)
    return values, mult[values]


def family_moments(plan: MomentPlan, grid: FamilyGrid | None = None) -> MomentReport:
    """Direct family moments of the interval-count error over the box, read
    from the plan's kept sweep, or from ``grid``, a covering grid swept
    elsewhere at the same x and interval (see `_plan_grid`)."""
    M = plan.resolved_m()
    _check_degree(M)  # before the sweep, so a degree past the cap fails fast
    grid, (values, mult) = _plan_grid(plan, grid)
    pi_tilde = grid.pi_tilde
    z = exact_st_coeffs(plan.interval, M).z
    mu = st_measure(plan.interval)
    errors = values - pi_tilde * mu
    norm = 4.0 * plan.A * plan.B
    results = []
    for t in plan.t_list:
        empirical = math.fsum((mult * errors ** t).tolist()) / norm
        main = gaussian_moment_constant(t) * (mu - mu * mu) ** (t / 2) * pi_tilde ** (t / 2)
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

PIPELINE_MAX_T = 4
PIPELINE_MAX_M = 8
PIPELINE_MAX_PRIMES = 100
PIPELINE_MAX_HALF_BOX = 15


def _check_box(plan: MomentPlan) -> None:
    """ValueError naming A and B unless both are >= 1 (norm 4AB)."""
    if not (plan.A >= 1 and plan.B >= 1):
        raise ValueError(f"expansion cross-check needs A >= 1 and B >= 1, got A = {plan.A}, B = {plan.B}")


def _masked_power_tables(plan: MomentPlan, mmax: int):
    """Per window prime: rows m = 0..mmax of the p^m coefficient over the box,
    zeroed wherever the prime fails the summation condition for that pair."""
    window = primes_in_window(plan.x)
    a_vals = np.arange(-plan.A, plan.A + 1, dtype=np.int64)
    b_vals = np.arange(-plan.B, plan.B + 1, dtype=np.int64)
    tables = []
    for p in window.primes:
        ap, keep = box_summands(p, a_vals, b_vals, plan.condition)
        tables.append(f_rows(trace_values(p), mmax).take(ap.ravel(), axis=1) * keep.ravel())
    return tables


def psum_moment_direct(plans: list[MomentPlan]) -> list[tuple[float, ...]]:
    """(1/4AB) sum over the box of (sum_m U(m) sum_p coeff(p^m))^t at each t of
    each plan's t_list, one tuple per plan, in order.  Each plan is one
    polynomial-sum channel at its M and condition, without const_term, in one
    `_sweep_box` per distinct box (x, A, B): bounded like every sweep, not by
    the caps."""
    boxes: dict[tuple, dict[MomentPlan, None]] = {}
    for plan in plans:
        _check_box(plan)
        boxes.setdefault((plan.x, plan.A, plan.B), {})[plan] = None
    moments = {}
    for (x, A, B), group in boxes.items():
        channels = [(replace(exact_st_coeffs(p.interval, p.resolved_m()), const_term=0.0), p.condition) for p in group]
        for plan, psum in zip(group, _sweep_box(primes_in_window(x), A, B, channels)[2]):
            moments[plan] = tuple(float((psum ** t).sum()) / (4.0 * A * B) for t in plan.t_list)
    return [moments[plan] for plan in plans]


def _fold_u_tables(u: np.ndarray, M: int, t: int) -> list[dict[int, float]]:
    """T_r[alpha] = sum over (m_1..m_r) in [1,M]^r of U(m_1)...U(m_r) D(m; alpha),
    for r = 1..t, built by folding the product rule with weights {m: U(m)}."""
    weights = {m: float(u[m]) for m in range(1, M + 1) if u[m] != 0.0}
    tables = [weights]
    for _ in range(t - 1):
        tables.append(product_rule_fold(tables[-1], weights))
    return tables


def _expansion_terms(u: np.ndarray, M: int, t: int):
    """(exponent tuple, coefficient) terms of the opened t-th power: one per set
    partition of {1..t} (the blocks of equal primes) and per choice of one
    exponent per block, weighted by the blocks' U-weighted D products."""
    u_tables = _fold_u_tables(u, M, t)
    for blocks in set_partitions(range(t)):
        factor_tables = [u_tables[len(block) - 1] for block in blocks]
        for alphas in product(*(ft.keys() for ft in factor_tables)):
            yield alphas, math.prod(ft[alpha] for ft, alpha in zip(factor_tables, alphas))


def moment_via_expansion(plans: list[MomentPlan]) -> list[tuple[float, ...]]:
    """The same moments through the partition/product-rule expansion, one
    tuple per plan, in order, from one build of the power tables per (x, A,
    B, condition), rows up to the group's largest max(t_list) M, and one
    cache of block sums and distinct-prime averages per group: neither
    depends on the interval or M.

    Box averages of coefficients at square-free-supported prime powers stand
    in for their multiplicative approximation, which makes the rewriting an
    exact identity; agreement with `psum_moment_direct` to float accuracy is
    the pipeline acceptance gate.  Before any table is built, a plan past a
    PIPELINE_MAX_* cap is a BudgetError naming the first of max(t_list), M,
    A, B and the prime count over its cap.
    """
    groups: dict[tuple, dict[MomentPlan, None]] = {}
    for plan in plans:
        _check_box(plan)
        for name, value, cap in (
            ("t", max(plan.t_list), PIPELINE_MAX_T),
            ("M", plan.resolved_m(), PIPELINE_MAX_M),
            ("A", plan.A, PIPELINE_MAX_HALF_BOX),
            ("B", plan.B, PIPELINE_MAX_HALF_BOX),
            ("the window's prime count", primes_in_window(plan.x).count, PIPELINE_MAX_PRIMES),
        ):
            if value > cap:
                raise BudgetError(f"expansion cross-check: {name} = {value} exceeds the cap of {cap}")
        groups.setdefault((plan.x, plan.A, plan.B, plan.condition), {})[plan] = None
    moments = {}
    for (_, A, B, _), group in groups.items():
        mmax = max(max(plan.t_list) * plan.resolved_m() for plan in group)
        tables = np.stack(_masked_power_tables(next(iter(group)), mmax))  # (prime, m, pair)

        @lru_cache(maxsize=None)
        def block_sum(exponents: tuple[int, ...]) -> np.ndarray:
            return tables[:, list(exponents)].prod(axis=1).sum(axis=0)

        @lru_cache(maxsize=None)
        def distinct_average(alphas: tuple[int, ...]) -> float:
            pairs = distinct_sum(len(alphas), lambda block: block_sum(tuple(sorted(alphas[i] for i in block))))
            return float(pairs.sum()) / (4.0 * A * B)

        for plan in group:
            M = plan.resolved_m()
            u = exact_st_coeffs(plan.interval, M).u
            totals = []
            for t in plan.t_list:
                total = 0.0
                for alphas, coeff in _expansion_terms(u, M, t):
                    if coeff != 0.0:
                        total += coeff * distinct_average(tuple(sorted(alphas)))
                totals.append(total)
            moments[plan] = tuple(totals)
    return [moments[plan] for plan in plans]


def expansion_c_coefficient(u: np.ndarray, M: int, t: int, alphas: tuple[int, ...]) -> float:
    """The expansion coefficient attached to one exponent tuple: the sum over
    set partitions of {1..t} into len(alphas) blocks of the U-weighted D
    products.  At the all-zero tuple with t = 2z this collapses to
    (2z)!/(2^z z!) Z^z."""
    return sum((coeff for key, coeff in _expansion_terms(u, M, t) if key == tuple(alphas)), 0.0)


# ---------------------------------------------------------------------------
# CLT and almost-all reporting
# ---------------------------------------------------------------------------


@dataclass
class CltSample:
    """The standardized error sample over the selected pairs of a box.  It
    holds no per-pair array of its own: ``grid_counts`` is a read-only view of
    the plan's grid, and ``size`` comes from its count table.  ``selection``
    (the box less `_dropped_rectangles`) and ``counts`` (the selected counts
    in box order, in the grid's narrow dtype) are built on first read and
    kept; ``a``, ``b``, ``errors`` and ``standardized`` are rebuilt on each
    access."""

    a_vals: np.ndarray
    b_vals: np.ndarray
    exclude_axes: bool
    grid_counts: np.ndarray
    size: int
    pi_tilde: int
    mu: float
    scale: float
    bin_edges: np.ndarray
    bin_counts: np.ndarray
    ks: float
    mean: float
    variance: float

    @cached_property
    def selection(self) -> np.ndarray:
        mask = np.ones((len(self.a_vals), len(self.b_vals)), dtype=bool)
        for rows, cols in _dropped_rectangles(self.a_vals, self.b_vals, self.exclude_axes):
            mask[np.ix_(rows, cols)] = False
        return mask

    @cached_property
    def counts(self) -> np.ndarray:
        return self.grid_counts[self.selection]

    @property
    def a(self) -> np.ndarray:
        return np.repeat(self.a_vals, self.selection.sum(1))

    @property
    def b(self) -> np.ndarray:
        return np.broadcast_to(self.b_vals, self.selection.shape)[self.selection]

    @property
    def errors(self) -> np.ndarray:
        return self.counts - self.pi_tilde * self.mu

    @property
    def standardized(self) -> np.ndarray:
        return self.errors / self.scale

    def write_csv(self, path) -> None:
        """One line per selected pair in box order, written a block of box rows
        (about PAIR_BLOCK pairs) at a time, so no column is built for the whole box."""
        rows = max(1, PAIR_BLOCK // len(self.b_vals))
        with open(path, "w") as fh:
            fh.write("a,b,n_i,error,standardized\n")
            for i in range(0, len(self.a_vals), rows):
                block = replace(self, a_vals=self.a_vals[i:i + rows], grid_counts=self.grid_counts[i:i + rows])
                columns = (block.a, block.b, block.counts, block.errors, block.standardized)
                for a, b, c, e, s in zip(*(col.tolist() for col in columns)):
                    fh.write(f"{a},{b},{c},{e!r},{s!r}\n")


def _normal_cdf(values: np.ndarray) -> np.ndarray:
    """Phi at each value."""
    return np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in values])


def _ks_against_normal(values: np.ndarray, mult: np.ndarray) -> float:
    """KS distance from N(0, 1) of the sample with distinct ascending ``values``
    of multiplicities ``mult``.  In the sorted sample a run of n entries equal
    to v, ending at cumulative count c, has its largest steps c/N - Phi(v) and
    Phi(v) - (c - n)/N, so this equals the sorted-sample formula bit for bit;
    erf runs once per distinct value."""
    cum = np.cumsum(mult)
    cdf = _normal_cdf(values)
    upper = np.max(cum / cum[-1] - cdf)
    lower = np.max(cdf - (cum - mult) / cum[-1])
    return float(max(upper, lower))


def clt_histogram(plan: MomentPlan, bins: int = 40, grid: FamilyGrid | None = None) -> CltSample:
    """Standardized error sample over the box, with histogram and KS distance,
    read from the plan's kept sweep, or from ``grid``, a covering grid swept
    elsewhere at the same x and interval (see `_plan_grid`).  The histogram,
    the KS distance, the mean and the variance run on the count table; the
    selected counts are gathered only when the sample's ``counts`` is read."""
    if bins < 1:
        raise ValueError(f"the CLT histogram needs bins >= 1, got bins = {bins}")
    if bins > MAX_BINS:
        raise BudgetError(f"the CLT histogram's bins = {bins} exceeds the cap of {MAX_BINS}")
    mu = st_measure(plan.interval)
    if not mu - mu * mu > 0:  # mu rounds to 1 when I covers [-2, 2]: a zero scale
        raise ValueError(f"the CLT sample needs 0 < mu(I) < 1, got alpha = {plan.interval.alpha}, "
                         f"beta = {plan.interval.beta}, mu = {mu}")
    grid, (values, mult) = _plan_grid(plan, grid)
    if not len(values):
        raise ValueError(f"no pair selected for the CLT sample: x = {plan.x}, A = {plan.A}, B = {plan.B}, "
                         f"exclude_axes = {plan.exclude_axes}")
    pi_tilde = grid.pi_tilde
    scale = math.sqrt(pi_tilde * (mu - mu * mu))
    size = int(mult.sum())
    table = (values - pi_tilde * mu) / scale
    bin_counts, bin_edges = np.histogram(table, bins=bins, weights=mult)
    mean = math.fsum((mult * table).tolist()) / size
    return CltSample(
        a_vals=grid.a_vals,
        b_vals=grid.b_vals,
        exclude_axes=plan.exclude_axes,
        grid_counts=grid.counts,
        size=size,
        pi_tilde=pi_tilde,
        mu=mu,
        scale=scale,
        bin_edges=bin_edges,
        bin_counts=bin_counts,
        ks=_ks_against_normal(table, mult),
        mean=mean,
        variance=math.fsum((mult * (table - mean) ** 2).tolist()) / size,
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
        return x ** 0.75 / _log_power(x, c)
    if profile is Profile.MRH:
        return math.sqrt(x) * math.sqrt(math.log(x))
    return math.sqrt((mu - mu * mu) * pi_tilde) + math.sqrt(x) / _log_power(x, c)


def almost_all_report(plan: MomentPlan, y: float, profile: Profile | None = None,
                      grid: FamilyGrid | None = None) -> AlmostAllReport:
    """Count box pairs whose error exceeds y times the profile threshold.

    Also fits the per-curve exponent log |error| / log x, the quantity the
    square-root-cancellation conjecture predicts to hover near 1/2.  The
    counts come from the plan's kept sweep, or from ``grid``, a covering grid
    swept elsewhere at the same x and interval (see `_plan_grid`).
    Everything is read from the count table.
    """
    if not y > 0:
        raise ValueError(f"the almost-all level needs y > 0, got y = {y}")
    profile = profile or plan.profile
    grid, (values, mult) = _plan_grid(plan, grid)
    pi_tilde = grid.pi_tilde
    mu = st_measure(plan.interval)
    errors = np.abs(values - pi_tilde * mu)
    threshold = _profile_threshold(plan.x, mu, pi_tilde, profile, plan.c)
    exceptions = int(mult[errors > y * threshold].sum())
    total = int(mult.sum())
    nonzero = errors > 0
    fits, weights = np.log(errors[nonzero]) / math.log(plan.x), mult[nonzero]
    return AlmostAllReport(
        y=y,
        profile=profile,
        threshold=threshold,
        exceptions=exceptions,
        total=total,
        fraction=exceptions / total if total else 0.0,
        y_power=y ** -2,
        exponent_fit_mean=math.fsum((weights * fits).tolist()) / int(weights.sum()) if len(fits) else 0.0,
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
    if not x > 1:
        raise ValueError(f"need x > 1 for the (log x)^c scale, got x = {x}")
    if not 0 <= y < x:
        raise ValueError(f"need 0 <= y < x, got x = {x}, y = {y}")
    primes = [p for p in curve_primes(_sieve_limit(x)) if p > y]
    scale = max(m, 1) * x / _log_power(x, c)  # before the sum, after x's own checks
    total = sum((f_eval(m, v) for v in good_traces(curve, primes, SumCondition.SKIP_BAD_ONLY).tolist()), 0.0)
    return Hypothesis2Probe(value=total, scale=scale, ratio=total / scale)
