import numpy as np

from stmoments import classnumbers
from stmoments.chebycomb import f_poly


def counted_hurwitz_builds(monkeypatch) -> list[int]:
    """The max_n of every `classnumbers.build_hurwitz_table` call from now on,
    starting with no table held, so the count does not depend on test order."""
    built, build = [], classnumbers.build_hurwitz_table

    def counting(max_n):
        built.append(max_n)
        return build(max_n)

    monkeypatch.setattr(classnumbers, "_largest_table", None)
    monkeypatch.setattr(classnumbers, "build_hurwitz_table", counting)
    return built


def trial_division_primes(limit: int) -> list[int]:
    """Independent prime oracle."""
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(n ** 0.5) + 1)):
            out.append(n)
    return out


def brute_projective_count(p: int, a: int, b: int) -> int:
    """Points of y^2 = x^3 + ax + b over F_p, counting the point at infinity,
    by full enumeration."""
    n = 1
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in range(p):
            if (y * y - rhs) % p == 0:
                n += 1
    return n


def poly_mul(f: tuple, g: tuple) -> tuple:
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] += fi * gj
    return tuple(out)


def to_f_basis(coeffs: tuple) -> dict[int, int]:
    """Rewrite a power-basis polynomial in the f_m basis by peeling leading
    terms; independent of the product-rule fold."""
    work = list(coeffs)
    out: dict[int, int] = {}
    while work:
        deg = len(work) - 1
        lead = work[-1]
        if lead:
            out[deg] = lead
            for d, c in enumerate(f_poly(deg).coeffs):
                work[d] -= lead * c
        work.pop()
    return {k: v for k, v in out.items() if v}


def scalar_f_recurrence(m: int, x):
    """f_m(x) by the scalar three-term loop that `chebycomb.f_eval` ran before
    it read `f_rows`; exact on int and Fraction, elementwise on arrays."""
    if m == 0:
        return x * 0 + 1
    prev, cur = x * 0 + 1, x
    for _ in range(m - 1):
        prev, cur = cur, x * cur - prev
    return cur


def stacked_f_rows(x: np.ndarray, mmax: int) -> np.ndarray:
    """Rows f_0(x), ..., f_mmax(x) of a float array, by the recurrence that
    `st_approx` kept for its box and per-curve routes before `f_rows`."""
    rows = np.empty((mmax + 1, *np.shape(x)))
    rows[0] = 1.0
    if mmax >= 1:
        rows[1] = x
    for m in range(2, mmax + 1):
        rows[m] = x * rows[m - 1] - rows[m - 2]
    return rows
