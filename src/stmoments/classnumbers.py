"""Hurwitz class numbers by reduced-form enumeration, and the identities
tying them to the curve family.

H(N) is the weighted number of SL_2(Z)-classes of positive definite binary
quadratic forms ax^2 + bxy + cy^2 of discriminant b^2 - 4ac = -N, where the
square class (a, 0, a) counts 1/2 and the hexagonal class (a, a, a) counts
1/3.  Values are stored as the integers 12 H(N); no floating point enters
this module.  H(N) is defined for N > 0 with N = 0 or 3 mod 4.

A process holds one table, `hurwitz_table`, and each identity reads a
prime's class numbers as one row of it, `_class_row(p)` = [12 H(4p - r^2)
for r = 0..isqrt(4p)]: the mass identity sum_{r^2 <= 4p} H(4p - r^2) = 2p
(`eichler_mass`), the family moment identity

    sum over the good residue grid of a_p^g  =  (p-1)/2 sum_r r^g H(r^2 - 4p)

(`family_moment_classnum`), and its inversion into Hecke traces
(`hecke.traces_via_birch`).  Weighed by (p - 1)/24, the same row is Birch's
count of the good residue pairs with trace r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith_curves import require_prime
from .errors import BudgetError

__all__ = [
    "ReducedForm",
    "HurwitzTable",
    "reduced_forms",
    "hurwitz",
    "twelve_hurwitz",
    "build_hurwitz_table",
    "hurwitz_table",
    "eichler_mass",
    "family_moment_classnum",
    "MAX_HURWITZ_N",
]

MAX_HURWITZ_N = 400_000  # largest N of a Hurwitz table: N = 4p for every p below 10^5


@dataclass(frozen=True)
class ReducedForm:
    """Reduced positive definite form: |b| <= a <= c, with b >= 0 whenever
    |b| = a or a = c."""

    a: int
    b: int
    c: int

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def weight(self) -> Fraction:
        if self.a == self.b == self.c:
            return Fraction(1, 3)
        if self.b == 0 and self.a == self.c:
            return Fraction(1, 2)
        return Fraction(1)


def _check_class_number_arg(n: int) -> None:
    if n <= 0 or n % 4 not in (0, 3):
        raise ValueError("class numbers need N > 0 with N = 0 or 3 mod 4")


def reduced_forms(n: int) -> list[ReducedForm]:
    """All reduced forms of discriminant -N.

    b runs over the parity class of N with 3b^2 <= N; each (a, b, c) with
    0 < b < a < c contributes its negative-b twin as well.
    """
    _check_class_number_arg(n)
    forms: list[ReducedForm] = []
    b = n % 2
    while 3 * b * b <= n:
        m4 = b * b + n
        assert m4 % 4 == 0
        m = m4 // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                forms.append(ReducedForm(a, b, c))
                if 0 < b < a < c:
                    forms.append(ReducedForm(a, -b, c))
            a += 1
        b += 2
    return forms


def hurwitz(n: int) -> Fraction:
    """H(N) as an exact rational, by direct enumeration."""
    return sum((f.weight() for f in reduced_forms(n)), Fraction(0))


def twelve_hurwitz(n: int) -> int:
    """12 H(N) as an integer."""
    value = 12 * hurwitz(n)
    assert value.denominator == 1
    return int(value)


@dataclass
class HurwitzTable:
    """12 H(N) for all N <= max_n; slots with N = 1, 2 mod 4 stay zero."""

    max_n: int
    twelve_h: np.ndarray

    def twelve(self, n: int) -> int:
        _check_class_number_arg(n)
        if n > self.max_n:
            raise ValueError(f"table covers N <= {self.max_n}")
        return int(self.twelve_h[n])

    def to_csv(self, path) -> None:
        """Rows N = 1..max_n of 12 H(N), with 0 at N = 1, 2 mod 4."""
        with open(path, "w") as fh:
            fh.write("N,twelve_h\n")
            for n in range(1, self.max_n + 1):
                fh.write(f"{n},{int(self.twelve_h[n])}\n")


def build_hurwitz_table(max_n: int) -> HurwitzTable:
    """Bin one sweep over reduced triples (b, a, c) by discriminant.

    For fixed (b, a) the discriminants 4ac - b^2 of c = a, a+1, ... step by
    4a, so the run c > a (weight 12, doubled by the -b twin when 0 < b < a)
    is one strided slice add and only c = a is weighed apart.  O(max_n^(3/2))
    total instead of a per-N scan; max_n past MAX_HURWITZ_N is a BudgetError
    before the table is allocated.
    """
    if max_n < 3:
        raise ValueError(f"max_n must be at least 3, got max_n = {max_n}")
    if max_n > MAX_HURWITZ_N:
        raise BudgetError(f"Hurwitz table N = {max_n} exceeds the cap MAX_HURWITZ_N = {MAX_HURWITZ_N}")
    t12 = np.zeros(max_n + 1, dtype=np.int64)
    b = 0
    while 3 * b * b <= max_n:
        a = max(b, 1)
        while 4 * a * a - b * b <= max_n:
            n = 4 * a * a - b * b  # c = a: the hexagonal, square or plain class
            t12[n] += 4 if a == b else 6 if b == 0 else 12
            t12[n + 4 * a::4 * a] += 24 if 0 < b < a else 12
            a += 1
        b += 1
    return HurwitzTable(max_n=max_n, twelve_h=t12)


_largest_table: HurwitzTable | None = None


def hurwitz_table(n: int) -> HurwitzTable:
    """The process's one table, covering N <= n: the largest built so far, built again
    at N = n only when n passes it.  n gets the builder's checks whatever table is held."""
    global _largest_table
    if _largest_table is None or not 3 <= n <= _largest_table.max_n:
        _largest_table = build_hurwitz_table(n)
    return _largest_table


def _class_row(p: int) -> list[int]:
    """12 H(4p - r^2) for r = 0..isqrt(4p) as Python ints, from `hurwitz_table(4p)`;
    4p is no square for prime p, so every N is > 0."""
    return hurwitz_table(4 * p).twelve_h[4 * p - np.arange(math.isqrt(4 * p) + 1) ** 2].tolist()


def eichler_mass(p: int) -> int:
    """Residual 12 (sum_{r^2 <= 4p} H(4p - r^2) - 2p); zero is the contract."""
    require_prime(p, "the mass identity")
    row = _class_row(p)
    return 2 * sum(row) - row[0] - 24 * p


def family_moment_classnum(p: int, g: int) -> int:
    """(p-1)/2 sum_r r^g H(r^2 - 4p), exactly; equals the grid moment
    sum over good residue pairs of a_p^g."""
    require_prime(p, "the class-number moment")
    if g < 0:
        raise ValueError(f"g must be nonnegative, got g = {g}")
    if g % 2 == 1:
        return 0
    value = (p - 1) * sum((2 - (r == 0)) * r ** g * h for r, h in enumerate(_class_row(p)))  # r and -r
    assert value % 24 == 0
    return value // 24
