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
prime needs only the three base rows a = 0, 1, n.  The character sum is
already the trace at singular pairs: at a node with double root e it is
chi(3e), the split-tangent sign, and at the cusp it is -sum_x chi(x^3) = 0,
so no entry is overwritten.  Delta(d^2 a, d^3 b) = d^6 Delta(a, b), so
good reduction does not change along an orbit either.  `_twist_index`
therefore returns a (6, p) table, the base rows and their negatives, its
(6, p) good mask, and one flat index into both per residue pair: no trace,
sign or Delta is formed per pair, and every consumer reads a pair's trace
and good flag by `take`.  `_index_rows` forms it for any run of rows from
per-row factors (`_twist_factors`), reduced as x - (x // p) p (numpy divides
by a scalar several times faster than it takes `%`), as intp, which `take`
reads without a copy.  A box sweep forms it a block of rows at a time, in
one `_Workspace` for all its primes.

`_trace_rows` gives T(a, b) for every b at once: for each residue a the
histogram of x^3 + ax over x is circularly correlated against the Legendre
table.  A prime length p would send numpy's FFT to Bluestein's algorithm, so
the correlation is taken as a linear one, by real FFTs of the least 5-smooth
length L >= (3p - 1) / 2 (`_smooth_length`): it is read only at
b = 0 .. (p - 1) / 2, and the other half of each row is its reflection,
T(a, -b) = chi(-1) T(a, b).  Rounding back to integers is safe
because every value is an integer bounded by p.  It serves the base rows, and
over all residues it is an independent oracle for the twist construction, as
are `curve_ap` and `_singular_pairs`/`_classify_singular`.

Every trace the package reads goes through one function per shape of read,
all on `_twist_index` except the last: `_box_prime_data` (one prime over a
box in base form, for the box sweep), `box_summands` (traces over any grid:
`ap_table`, `family_averages`, the expansion's power tables) and
`good_traces` (one curve at many primes, through `curve_ap`).  The sweep and
`box_summands` apply `SumCondition` by one rule on the base table, `_kept`.
The box routes read every function of a_p/sqrt(p) (interval membership, a
Beurling-Selberg polynomial, f_m) off one `trace_values(p)` table by integer
trace; the two sweeps do so on the (6, p) base table, before the gather.

Every O(p) table and the prime sieve stop at MAX_PRIME with a `BudgetError`
before they allocate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

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
    "count_in_interval",
    "good_traces",
    "box_summands",
    "trace_values",
    "nonsingular_mask",
    "AP_TABLE_MAX_P",
    "MAX_PRIME",
    "MIN_CURVE_PRIME",
    "require_prime",
    "curve_primes",
]

AP_TABLE_MAX_P = 3000
MAX_PRIME = 1_000_000  # largest prime (and sieve limit) of any O(p) or O(x) table
MIN_CURVE_PRIME = 5  # least prime of the curve operations and the class-number identities
CACHE_MAXSIZE = 128  # entries of each lru_cache of the package (one per prime)

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
            raise ValueError(f"need 0 <= alpha < beta <= pi, got alpha = {self.alpha}, beta = {self.beta}")

    @property
    def lo(self) -> float:
        return _snap(2.0 * math.cos(self.beta))

    @property
    def hi(self) -> float:
        return _snap(2.0 * math.cos(self.alpha))

    def contains(self, value: float | np.ndarray) -> bool | np.ndarray:
        """Whether ``value`` lies in the interval: a bool for a float, a boolean
        array for an array.  The one membership rule of the package; the box
        sweep applies it to a prime's `trace_values` table."""
        return (self.lo <= value) & ((value < self.hi) if self.half_open else (value <= self.hi))


def _check_prime_cap(n: int, name: str = "p") -> None:
    """BudgetError naming n when it exceeds MAX_PRIME, before any O(n) allocation."""
    if n > MAX_PRIME:
        raise BudgetError(f"{name} = {n} exceeds the largest-prime cap MAX_PRIME = {MAX_PRIME}")


def require_prime(p: int, route: str, least: int = MIN_CURVE_PRIME) -> None:
    """The package's one prime check: BudgetError above MAX_PRIME, otherwise
    a ValueError naming ``route`` and p unless p is a prime >= least."""
    _check_prime_cap(p)
    if p < least or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{route} needs a prime p >= {least}, got p = {p}")


def primes_upto(limit: int) -> tuple[int, ...]:
    """All primes p <= limit in ascending order (sieve of Eratosthenes)."""
    _check_prime_cap(limit, "sieve limit")
    limit = max(limit, 1)
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            start = q * q
            sieve[start:limit + 1:q] = b"\x00" * ((limit - start) // q + 1)
    return tuple(q for q in range(2, limit + 1) if sieve[q])


def curve_primes(limit: int) -> tuple[int, ...]:
    """The primes p <= limit that `require_prime` admits by default."""
    return tuple(q for q in primes_upto(limit) if q >= MIN_CURVE_PRIME)


def _sieve_limit(x: float) -> int:
    """floor(x) as a sieve limit, for x not NaN; x = +inf, where floor
    overflows, gets the cap's BudgetError naming x like any x past MAX_PRIME."""
    if x == math.inf:
        _check_prime_cap(x, "x")
    return int(math.floor(x))


def _window_limit(x: float) -> int:
    """floor(x), the sieve limit of the window (x/2, x]: ValueError naming x
    unless x >= 10 (NaN too); x = inf is the cap's BudgetError (`_sieve_limit`)."""
    if not x >= 10:  # NaN too
        raise ValueError(f"window operations require x >= 10, got x = {x}")
    return _sieve_limit(x)


def primes_in_window(x: float) -> PrimeWindow:
    """Sieve-exact list of primes in (x/2, x]; requires x >= 10."""
    primes = tuple(q for q in primes_upto(_window_limit(x)) if q > x / 2)
    return PrimeWindow(x=x, primes=primes)


def legendre(n: int, p: int) -> int:
    """Quadratic residue symbol (n/p) in {-1, 0, 1} for an odd prime p."""
    require_prime(p, "the Legendre symbol", least=3)
    n %= p
    if n == 0:
        return 0
    return 1 if pow(n, (p - 1) // 2, p) == 1 else -1


@lru_cache(maxsize=CACHE_MAXSIZE)
def _legendre_table(p: int) -> np.ndarray:
    """chi(c) for c = 0..p-1 as an int8 array (read-only)."""
    _check_prime_cap(p)
    tab = np.full(p, -1, dtype=np.int8)
    ys = np.arange((p + 1) // 2, dtype=np.int64)
    tab[ys * ys % p] = 1  # y and -y have the same square
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


def _require_elliptic(curve: CurveParams) -> None:
    """ValueError naming a and b when Delta(a, b) = 0."""
    if curve.delta == 0:
        raise ValueError(f"Delta(a, b) = 0 is not an elliptic curve: a = {curve.a}, b = {curve.b}")


def curve_ap(p: int, curve: CurveParams) -> TraceValue:
    """Trace of Frobenius at p, or the nodal/cuspidal marker if p | Delta."""
    require_prime(p, "the curve trace")
    _require_elliptic(curve)
    a, b = curve.a % p, curve.b % p
    if curve.delta % p == 0:
        return _classify_singular(p, a, b)
    chi = _legendre_table(p)
    xs = np.arange(p, dtype=np.int64)
    vals = (xs * xs % p * xs + a * xs + b) % p
    ap = -int(chi[vals].sum())
    return TraceValue(Reduction.GOOD, ap)


def _smooth_length(n: int) -> int:
    """The least 5-smooth integer L >= n (1 for n <= 1): a length numpy's FFT
    runs without Bluestein's algorithm."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


_ALIGN = 64  # bytes between workspace region starts: numpy's allocation is 16-aligned, as complex128 needs


class _Workspace:
    """Byte buffers that one box sweep reuses prime after prime, so its
    per-prime arrays do not come back from the OS zeroed each time.  A
    buffer is keyed by name only: ``regions`` lays views of any dtypes end to
    end in it, each starting a multiple of _ALIGN bytes in and holding what
    the last prime left there, so arrays that never live together share
    one block.  "scratch" holds in turn the FFT series and spectra, a block's
    twist reduction and quotient, and the b-tiles, and a sweep ``reserve``s
    it for the largest; "base", "good", "index" and "table" keep their own.
    Per-prime arrays grow like p and a sweep's blocks hold about PAIR_BLOCK
    pairs at any p, so a buffer is first allocated with p_max / p times the
    bytes asked for.  Outside a sweep each call makes its own `_Workspace(p)`.
    """

    def __init__(self, p_max: int):
        self.p_max = p_max
        self._flat: dict[str, np.ndarray] = {}

    def regions(self, name: str, p: int, *layout: tuple) -> list[np.ndarray]:
        """One view per (shape, dtype) of ``layout``, laid end to end in buffer ``name``."""
        buf, start, views = self.reserve(name, p, layout), 0, []
        for shape, dtype in layout:
            views.append(np.ndarray(shape, dtype, buf, start))
            start += -(-views[-1].nbytes // _ALIGN) * _ALIGN
        return views

    def reserve(self, name: str, p: int, *layouts: tuple) -> np.ndarray:
        """Buffer ``name``, replaced only when it cannot hold each of ``layouts``."""
        ends = [0] * len(layouts)
        for i, layout in enumerate(layouts):
            for shape, dtype in layout:
                ends[i] = -(-ends[i] // _ALIGN) * _ALIGN + math.prod(shape) * np.dtype(dtype).itemsize
        buf = self._flat.get(name)
        if buf is None or buf.size < max(ends):
            buf = self._flat[name] = np.empty(math.ceil(max(ends) * max(1.0, self.p_max / p)), np.uint8)
        return buf


def _trace_rows(p: int, a_residues: np.ndarray, work: _Workspace | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """-sum_x chi(x^3 + a x + b) for the given a residues and every b.

    Returns an int64 (len(a_residues), p) array, ``out`` when given.  At
    pairs with p | Delta the character sum already is the nodal sign or the
    cusp's 0 (see the module docstring).  Row a is the circular correlation
    of the histogram h_a of x^3 + a x with chi, taken as a linear one, and
    only at b = 0 .. h - 1, h = (p + 1) / 2: h_a reversed against [chi,
    chi[:h - 1]] by one batched real FFT of 5-smooth length L >= (3p - 1) / 2,
    read at entries p - 1 .. p + h - 2.  Sending x to -x gives T(a, -b) =
    chi(-1) T(a, b), so the rows at b = h .. p - 1 are the first half
    reflected, times chi(p - 1).  For p = 2 mod 3 cubing permutes F_p, so row
    a = 0 is -sum_y chi(y + b) = 0 and skips the transforms.  The package
    asks only for the base rows, inside `_twist_index`, and tests compare
    the twist grids with all p rows.
    """
    work = work or _Workspace(p)
    traces = np.empty((len(a_residues), p), np.int64) if out is None else out
    live = [i for i, a in enumerate(a_residues) if p % 3 != 2 or a % p]
    if len(live) < len(traces):
        traces[:] = 0
    if not live:
        return traces
    chi = _legendre_table(p)
    half = (p + 1) // 2
    rows = len(live)
    xs = np.arange(p, dtype=np.int64)
    cubes = xs * xs
    cubes *= xs  # exact in int64 for p <= MAX_PRIME
    cubes %= p
    series, spectra = work.regions("scratch", p, *_fft_layout(p, rows))
    series[:, p:] = 0.0
    for k, i in enumerate(live):
        t = int(a_residues[i]) * xs
        t += cubes
        t %= p
        series[k, p - 1::-1] = np.bincount(t, minlength=p)
    series[rows, :p] = chi
    series[rows, p:p + half - 1] = chi[:half - 1]
    np.fft.rfft(series, axis=1, out=spectra)
    spectra[:rows] *= spectra[rows]
    corr = np.fft.irfft(spectra[:rows], n=series.shape[1], axis=1, out=series[:rows])[:, p - 1:p + half - 1]
    np.negative(np.rint(corr, out=corr), out=corr)
    traces[live, :half] = corr
    np.multiply(traces[:, half - 1:0:-1], chi[-1], out=traces[:, half:])
    return traces


def _fft_layout(p: int, n_rows: int) -> tuple:
    """`_trace_rows`' "scratch" layout for n_rows residues: reversed histograms and chi, then their spectra."""
    size = _smooth_length(p + (p + 1) // 2 - 1)
    return ((n_rows + 1, size), np.float64), ((n_rows + 1, size // 2 + 1), np.complex128)


def _reduction_dtype(p: int) -> type:
    """The twist reduction's dtype: uint32 for p < 2^16, where b d^-3 < p^2 fits, and int64 above."""
    return np.uint32 if p < 1 << 16 else np.int64


def _twist_base(p: int) -> tuple[int, int, int]:
    """The base residues (0, 1, n) of `_twist_index`, n the least non-residue mod p."""
    chi = _legendre_table(p)
    n = 2
    while chi[n] != -1:
        n += 1
    return 0, 1, n


def _twist_factors(p: int, a_res: np.ndarray, b_res: np.ndarray, work: _Workspace | None = None):
    """Base table, good mask and twist factors (offsets, d_inv3, b_res) of a_res x b_res at p.

    ``base`` is the int64 (6, p) table of the base rows T(a0, .), a0 = 0, 1, n
    (`_trace_rows(p, _twist_base(p))`), then their negatives; ``good`` is its
    mask Delta(a0, b') != 0 mod p, false only at b' = 0 for a0 = 0 and at
    b'^2 = -4 a0^3 / 27 otherwise.  Row a, with d^2 = a / a0 (d from a table
    of square roots), has offset (row of a0, negated when chi(d) = -1) * p and
    d^-3 = d^(p-4) mod p; ``d_inv3`` and ``b_res`` come in `_reduction_dtype`.
    """
    work = work or _Workspace(p)
    chi = _legendre_table(p)
    base_res = _twist_base(p)
    n = base_res[2]
    (base,) = work.regions("base", p, ((6, p), np.int64))
    np.negative(_trace_rows(p, base_res, work, out=base[:3]), out=base[3:])
    ys = np.arange((p + 1) // 2, dtype=np.int64)
    root = np.zeros(p, dtype=np.int64)
    root[ys * ys % p] = ys  # y^2 are distinct for 0 <= y <= (p - 1) / 2
    (good,) = work.regions("good", p, ((6, p), bool))
    good[:] = True
    inv27 = pow(27, p - 2, p)
    for i, a0 in enumerate(base_res):
        r = -4 * a0 ** 3 * inv27 % p
        if chi[r] != -1:
            good[[i, i + 3], root[r]] = good[[i, i + 3], -root[r] % p] = False
    a_res = np.asarray(a_res, dtype=np.int64)
    square = chi[a_res] == 1
    d = np.where(a_res == 0, 1, root[np.where(square, a_res, a_res * pow(n, p - 2, p) % p)])
    row = np.where(a_res == 0, 0, np.where(square, 1, 2)) + 3 * (chi[d] == -1)
    d_inv3 = np.ones_like(d)  # d^(p-4) by square-and-multiply, entries stay below p^2
    power, e = d, p - 4
    while e:
        if e & 1:
            d_inv3 = d_inv3 * power % p
        power, e = power * power % p, e >> 1
    dtype = _reduction_dtype(p)
    return base, good, (row * p, d_inv3.astype(dtype), np.asarray(b_res, dtype=np.int64).astype(dtype))


def _index_rows(p: int, offsets: np.ndarray, d_inv3: np.ndarray, b_res: np.ndarray, work: _Workspace) -> np.ndarray:
    """Twist index rows offsets[i] + b_res d_inv3[i] mod p (`_twist_factors`) as intp
    in ``work``'s "index", reduced in b_res's dtype as x - (x // p) p in "scratch"."""
    shape = (len(offsets), len(b_res))
    twist, quotient = work.regions("scratch", p, (shape, b_res.dtype), (shape, b_res.dtype))
    np.multiply(b_res[None, :], d_inv3[:, None], out=twist)
    np.floor_divide(twist, p, out=quotient)
    quotient *= p
    twist -= quotient
    return np.add(twist, offsets[:, None], out=work.regions("index", p, (shape, np.intp))[0])


def _twist_index(p: int, a_res: np.ndarray, b_res: np.ndarray, work: _Workspace | None = None):
    """Base table, good mask and twist index of the residue pairs (a_res x b_res) of one prime.

    `_index_rows` over all `_twist_factors` rows: ``base.take(index)`` and
    ``good.take(index)`` are the traces and good mask over a_res x b_res, all
    three in ``work``.  The work is O(p log p + len(a_res) len(b_res)).
    """
    work = work or _Workspace(p)
    base, good, factors = _twist_factors(p, a_res, b_res, work)
    return base, good, _index_rows(p, *factors, work)


def _singular_pairs(p: int, a: int) -> list[int]:
    """Residues b with p | Delta(a, b), for a fixed residue a."""
    inv27 = pow(27, p - 2, p)
    rhs = (-4 * a * a % p * a) * inv27 % p
    return list(_sqrt_lists(p)[rhs])


def _delta_zeros(a_vals: np.ndarray, b_vals: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row and column masks of the integer zeros of 4a^3 + 27b^2 in a_vals x
    b_vals, which are exactly (-3k^2, +-2k^3), for k = 0, 1, ... in order."""
    return [(a_vals == -3 * k * k, (b_vals == 2 * k ** 3) | (b_vals == -2 * k ** 3))
            for k in range(math.isqrt(-int(np.min(a_vals, initial=0)) // 3) + 1)]


def nonsingular_mask(a_vals: np.ndarray, b_vals: np.ndarray) -> np.ndarray:
    """Writable boolean grid of Delta(a, b) != 0 over a_vals x b_vals.

    Only the pairs `_delta_zeros` names are cleared; no Delta grid is formed.
    """
    mask = np.ones((len(a_vals), len(b_vals)), dtype=bool)
    for rows, cols in _delta_zeros(a_vals, b_vals):
        mask[np.ix_(rows, cols)] = False
    return mask


def _box_prime_data(p: int, a_vals: np.ndarray, b_vals: np.ndarray, work: _Workspace | None = None):
    """One prime over a box in base form: `_twist_factors` at the first
    min(n, p) residues of ``a_vals`` and ``b_vals``, runs of consecutive
    integers whose residues repeat with period p, so `_index_rows` over factor
    rows r0..r1 gives those rows of the twist index of one period of the box.
    The work is O(p log p + residues met); the sweep passes its ``work``."""
    return _twist_factors(p, a_vals[:p] % p, b_vals[:p] % p, work)


def _kept(good: np.ndarray, condition: SumCondition) -> np.ndarray:
    """The base-table mask of the primes a prime sum under ``condition`` keeps:
    ``good``, less row 0 (only a = 0 reads it, d = 1) and column 0 (b d^-3 = 0
    only for b = 0) under SKIP_BAD_AND_AB."""
    if SumCondition(condition) is SumCondition.SKIP_BAD_ONLY:
        return good
    keep = good.copy()
    keep[[0, 3]] = False
    keep[:, 0] = False
    return keep


def box_summands(p: int, a_vals: np.ndarray, b_vals: np.ndarray, condition: SumCondition):
    """Int64 traces a_p over the grid a_vals x b_vals and the mask of the pairs
    whose prime sums keep p under ``condition``: two takes of `_twist_index`."""
    base, good, index = _twist_index(p, a_vals % p, b_vals % p)
    return base.take(index), _kept(good, condition).take(index)


def trace_values(p: int) -> np.ndarray:
    """The one normalization of the box routes: a / sqrt(p) for every |a| <= r
    = isqrt(4p), laid out as [0..r, -r..-1] so that ``trace_values(p)[ap]``
    reads a trace array directly (numpy wraps negative traces; Hasse keeps |a_p| <= r)."""
    r = math.isqrt(4 * p)
    return np.concatenate((np.arange(r + 1), np.arange(-r, 0))) / math.sqrt(p)


@dataclass
class ApTable:
    """Full residue grid of traces for one prime.

    ``ap[a, b]`` is the trace and ``kind[a, b]`` is 0, 1, 2 for good/node/cusp.
    Exactly p of the p^2 pairs are singular.  Immutable after construction.
    """

    p: int
    ap: np.ndarray
    kind: np.ndarray

    @property
    def good(self) -> np.ndarray:
        return self.kind == _GOOD

    @cached_property
    def trace_histogram(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct traces of the good pairs, ascending, and the number of
        good pairs with each (`np.unique`'s pair), built once per table."""
        traces, counts = np.unique(self.ap[self.good], return_counts=True)
        traces.flags.writeable = counts.flags.writeable = False
        return traces, counts


def ap_table(p: int) -> ApTable:
    """Build the p x p trace grid from the twist orbits; O(p^2) work and memory."""
    if p > AP_TABLE_MAX_P:
        raise BudgetError(f"ap_table capped at p <= {AP_TABLE_MAX_P}, got p = {p}")
    require_prime(p, "the trace grid")
    residues = np.arange(p)
    ap, good = box_summands(p, residues, residues, SumCondition.SKIP_BAD_ONLY)
    kind = np.where(good, np.uint8(_GOOD), np.uint8(_NODE))
    kind[0, 0] = _CUSP
    ap.setflags(write=False)
    kind.setflags(write=False)
    return ApTable(p=p, ap=ap, kind=kind)


def good_traces(curve: CurveParams, primes, condition: SumCondition) -> np.ndarray:
    """a_p/sqrt(p) at the primes (each >= 5) whose prime sums ``condition``
    keeps for the curve, in the given order; ValueError naming a and b when
    Delta(a, b) = 0."""
    _require_elliptic(curve)
    skip_ab = SumCondition(condition) is SumCondition.SKIP_BAD_AND_AB
    kept = [p for p in primes if curve.delta % p and not (skip_ab and curve.a * curve.b % p == 0)]
    return np.array([curve_ap(p, curve).ap / math.sqrt(p) for p in kept], dtype=float)


def count_in_interval(curve: CurveParams, x: float, interval: Interval) -> int:
    """Number of window primes of good reduction whose normalized trace lies
    in the interval."""
    traces = good_traces(curve, primes_in_window(x).primes, SumCondition.SKIP_BAD_ONLY)
    return int(np.count_nonzero(interval.contains(traces)))
