"""Exact combinatorics behind the trace identities and the moment pipeline.

The polynomial family

    f_m(x) = sum_{j=0}^{floor(m/2)} (-1)^j C(m-j, j) x^(m-2j)

satisfies f_m(2 cos t) = sin((m+1)t)/sin(t) and the three-term recurrence
f_{m+1} = x f_m - f_{m-1}.  It converts a normalized Frobenius trace into the
normalized prime-power coefficient: at a prime p of good reduction the p^m
coefficient of a curve equals f_m(a_p/sqrt(p)).  The product rule

    f_i * f_j = sum_{l=0}^{min(i,j)} f_{i+j-2l}

is the engine for `u_product_expand`, which writes a product of prime-power
coefficients as an integer combination of single prime-power coefficients.

Two further exact tools live here because everything downstream trusts them:
Melzak's finite-difference identity for polynomials, used to prove that the
triangular system relating class-number moments to operator traces has unit
diagonal (`a_lk`, on the Birch weights w(j, l) that `hecke` solves with), and
the signed coefficients attached to set partitions that separate sums over
pairwise-distinct primes into products of plain prime sums
(`partition_coeff`, `distinct_sum`).

Every helper is exact on int / Fraction inputs.  `f_rows`, the one f_m
recurrence (`f_eval` is its last row), and `distinct_sum` also run elementwise
on numpy arrays, which is how the moment pipeline uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "PowerPoly",
    "f_poly",
    "f_rows",
    "f_eval",
    "product_rule_fold",
    "u_product_expand",
    "melzak_eval",
    "a_lk",
    "a_lk_table",
    "set_partitions",
    "partition_coeff",
    "distinct_sum",
    "gaussian_moment_constant",
    "all_exponent_multisets",
    "exponent_product_tables",
]


@dataclass(frozen=True)
class PowerPoly:
    """Polynomial with exact coefficients in the power basis.

    ``coeffs[d]`` multiplies x^d; trailing zeros are allowed but the
    constructor strips them so ``degree`` is honest.
    """

    coeffs: tuple

    def __post_init__(self):
        c = tuple(self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = x * 0 + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc


def f_poly(m: int) -> PowerPoly:
    """Exact coefficients of f_m in the power basis.

    f_0 = 1, f_1 = x, f_2 = x^2 - 1, f_3 = x^3 - 2x, ...
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got m = {m}")
    coeffs = [0] * (m + 1)
    for j in range(m // 2 + 1):
        coeffs[m - 2 * j] = (-1) ** j * math.comb(m - j, j)
    return PowerPoly(tuple(coeffs))


def f_rows(x, mmax: int):
    """f_0(x), ..., f_mmax(x) by f_m = x f_(m-1) - f_(m-2): a list for a scalar
    x (exact on int and Fraction), one float array of shape (mmax + 1, *x.shape)
    for a numpy array x.  On [-2, 2] |f_m| <= m + 1, so the forward recurrence
    stays well conditioned."""
    if mmax < 0:
        raise ValueError(f"m must be nonnegative, got m = {mmax}")
    rows = np.empty((mmax + 1, *x.shape)) if isinstance(x, np.ndarray) else [None] * (mmax + 1)
    rows[0] = x * 0 + 1
    for m in range(1, mmax + 1):
        rows[m] = x if m == 1 else x * rows[m - 1] - rows[m - 2]
    return rows


def f_eval(m: int, x):
    """f_m(x), the last row of `f_rows`, for float, int, Fraction or array x."""
    return f_rows(x, m)[m]


def product_rule_fold(table: Mapping[int, object], weights: Mapping[int, object]) -> dict[int, object]:
    """The f-basis table of (sum_a table[a] f_a) * (sum_m weights[m] f_m).

    Applies the product rule f_a * f_m = sum_{l<=min(a,m)} f_{a+m-2l},
    accumulating table[a] * weights[m] into entry a + m - 2l in the order
    (a, m, l) of the two tables' iteration; exact for int / Fraction values.
    """
    out: dict[int, object] = {}
    for a, w in table.items():
        for m, um in weights.items():
            for l in range(min(a, m) + 1):
                key = a + m - 2 * l
                out[key] = out.get(key, 0) + w * um
    return out


def u_product_expand(ms: Sequence[int]) -> dict[int, int]:
    """Expand a product of prime-power coefficients in the single-power basis.

    Given exponents (m_1, ..., m_r), returns the integer table D with

        prod_i f_{m_i} = sum_m D[m] * f_m,

    computed by left-folding `product_rule_fold`.  The support is contained
    in [0, m_1+...+m_r] and has constant parity; all values are nonnegative.
    """
    ms = list(ms)
    if not ms:
        raise ValueError(f"need at least one exponent, got ms = {ms}")
    if any(m < 1 for m in ms):
        raise ValueError(f"exponents must be >= 1, got ms = {ms}")
    acc: dict[int, int] = {ms[0]: 1}
    for m in ms[1:]:
        acc = product_rule_fold(acc, {m: 1})
    return acc


def melzak_eval(f: PowerPoly, x, y, n: int) -> tuple[Fraction, Fraction]:
    """Both sides of Melzak's identity, evaluated exactly.

    For any polynomial f of degree <= n and x outside {0, -1, ..., -n}:

        f(x+y) = x C(x+n, n) sum_{a=0}^n (-1)^a C(n, a) f(y-a) / (x+a).

    Returns (lhs, rhs) as Fractions; callers assert equality.  With x = p/q,
    y = r/s and d = deg f, each side is one sum of integer products over a
    known denominator: (qs)^d f(x+y) and s^d f(y-a) are integers, and
    x C(x+n, n) / (x+a) = prod_{i != a} (p + iq) / (q^n n!).
    """
    if f.degree > n:
        raise ValueError(f"polynomial degree exceeds n, got degree = {f.degree}, n = {n}")
    x = Fraction(x)
    y = Fraction(y)
    if x.denominator == 1 and -n <= x <= 0:
        raise ValueError(f"x={x} is a pole of the identity")
    (p, q), (r, s), d = x.as_integer_ratio(), y.as_integer_ratio(), f.degree

    def scaled(num: int, den: int):  # den^d f(num / den)
        return sum(c * num ** j * den ** (d - j) for j, c in enumerate(f.coeffs))

    poles = [p + i * q for i in range(n + 1)]
    total = sum((-1) ** a * math.comb(n, a) * scaled(r - a * s, s) * math.prod(poles[:a] + poles[a + 1:])
                for a in range(n + 1))
    return Fraction(scaled(p * s + r * q, q * s), (q * s) ** d), Fraction(total, q ** n * math.factorial(n) * s ** d)


def _birch_weight(j: int, l: int) -> int:
    """w(j, l) = (2l+1) (2j)! / ((j-l)! (j+l+1)!) as a difference of binomials."""
    lower = math.comb(2 * j, j - l - 1) if j - l - 1 >= 0 else 0
    return math.comb(2 * j, j - l) - lower


def a_lk(l: int, k: int) -> int:
    """The triangular-solve coefficient

        A_{l,k} = sum_{j=l}^{k} (-1)^(k-j) C(k+j, k-j) w(j, l),

    an integer sum over the Birch weights of `_birch_weight`.  Melzak's
    identity forces A_{l,k} = 0 for l < k and A_{k,k} = 1; tests assert this.
    """
    if not 0 <= l <= k:
        raise ValueError(f"need 0 <= l <= k, got l = {l}, k = {k}")
    return sum((-1) ** (k - j) * math.comb(k + j, k - j) * _birch_weight(j, l) for j in range(l, k + 1))


def a_lk_table(kmax: int) -> list[list[int]]:
    """Rows k = 0..kmax of `a_lk`, row k holding A_{l,k} for l = 0..k: each
    Birch weight and each row's signed C(k+j, k-j) are computed once, so the
    triangle costs O(kmax^3) integer products and no per-entry comb sums."""
    weights = [[_birch_weight(j, l) for l in range(j + 1)] for j in range(kmax + 1)]
    rows = []
    for k in range(kmax + 1):
        signed = [(-1) ** (k - j) * math.comb(k + j, k - j) for j in range(k + 1)]
        rows.append([sum(signed[j] * weights[j][l] for j in range(l, k + 1)) for l in range(k + 1)])
    return rows


def set_partitions(items: Iterable) -> Iterator[tuple[tuple, ...]]:
    """All partitions of ``items`` into nonempty blocks (tuples of tuples)."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + ((first,) + smaller[i],) + smaller[i + 1:]
        yield ((first,),) + smaller


def partition_coeff(blocks: Sequence[Sequence[int]]) -> int:
    """Signed coefficient (-1)^(n-k) * prod (|block|-1)! of a set partition.

    ``blocks`` must be disjoint nonempty sets covering {1, ..., n}.
    """
    flat = [i for block in blocks for i in block]
    n = len(flat)
    if n == 0 or any(len(b) == 0 for b in blocks):
        raise ValueError(f"blocks must be nonempty, got blocks = {blocks}")
    if set(flat) != set(range(1, n + 1)) or len(set(flat)) != n:
        raise ValueError(f"blocks must partition {{1, ..., n}}, got blocks = {blocks}")
    k = len(blocks)
    coeff = (-1) ** (n - k)
    for block in blocks:
        coeff *= math.factorial(len(block) - 1)
    return coeff


def distinct_sum(n: int, block_sum: Callable[[tuple[int, ...]], object]):
    """Sum over ordered n-tuples of pairwise-distinct primes of prod_i g_i(p_i).

    ``block_sum(B)`` must return sum_p prod_{i in B} g_i(p) for a block B of
    indices in {0, ..., n-1}; the distinct-prime sum is then

        sum_P A(P) prod_{blocks B of P} block_sum(B)

    over the set partitions P of {0, ..., n-1}, with A(P) from
    `partition_coeff`.  Bell(n) products of block sums replace the O(P^n)
    enumeration.  Exact for int / Fraction block sums, elementwise for arrays.
    """
    if n < 1:
        raise ValueError(f"a distinct-prime sum needs n >= 1 factors, got n = {n}")
    return sum(partition_coeff(blocks) * math.prod(block_sum(tuple(i - 1 for i in block)) for block in blocks)
               for blocks in set_partitions(range(1, n + 1)))


def gaussian_moment_constant(t: int) -> int:
    """t-th moment of a standard Gaussian: 0 for odd t, (t-1)!! for even t."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got t = {t}")
    if t % 2 == 1:
        return 0
    return math.factorial(t) // (2 ** (t // 2) * math.factorial(t // 2))


def all_exponent_multisets(total: int) -> Iterator[tuple[int, ...]]:
    """Nonincreasing tuples of positive integers with sum <= total."""

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if prefix:
            yield prefix
        for first in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - first, first, prefix + (first,))

    yield from rec(total, total, ())


def exponent_product_tables(total: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """u_product_expand(ms) for every ms of `all_exponent_multisets(total)`, as a
    generator of one (exps, rows) pair per length k = 1, 2, ..., each built only
    when asked for: exps[i] is a nonincreasing k-tuple and
    rows[i, c] its D[c] for c <= total, in int64.  Length k + 1 folds every
    extension of length k by a last exponent m at once, rows @ F_m, with row a
    of F_m the table of f_a f_m from `product_rule_fold`.  Since f_m(2) = m + 1,
    sum_c (c+1) D[c] = prod (m_i + 1) <= 2^total bounds every entry, so int64
    is exact for total <= 62; a larger total raises at the call.
    """
    if total > 62:
        raise ValueError(f"dense product tables need total <= 62, got total = {total}")
    return _product_levels(total)


def _product_levels(total: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The levels of `exponent_product_tables(total)`, total <= 62 checked."""
    size = total + 1
    # dense to c <= total: a parent row's support ends at its sum, so its a + m never passes total
    products = [[product_rule_fold({a: 1}, {m: 1}) for a in range(size)] for m in range(size)]
    folds = [np.array([[fa.get(c, 0) for c in range(size)] for fa in row]) for row in products]
    del products  # the generator lives while its levels are read; only the dense folds need to
    exps, rows, last = np.zeros((1, 0), dtype=np.int64), np.eye(1, size, dtype=np.int64), np.array([total])
    while True:  # exps, rows: the level just built, first the empty product f_0
        room = total - exps.sum(axis=1)
        picks = [(m, idx) for m in range(1, size) if (idx := np.flatnonzero((last >= m) & (room >= m))).size]
        if not picks:
            return
        exps = np.concatenate([np.column_stack([exps[idx], np.full(idx.size, m)]) for m, idx in picks])
        rows = np.concatenate([rows[idx] @ folds[m] for m, idx in picks])
        assert 0 <= rows.min() and rows.max() <= 1 << total, "a product table left [0, 2^total]"
        last = exps[:, -1]
        yield exps, rows
