"""Independent oracles: exact rational recomputation of what balmat reports.

Nothing here imports balmat. Every expected value comes from a different
route than the library's: `fractions.Fraction` arithmetic on the exact
values of the float entries, fraction-exact Gaussian elimination for
determinants, closed forms for symmetric 2x2 spectra, and Givens rotations
(not Householder reflections) for orthogonal test matrices.

Results the library rounds are compared against the exact values within a
stated error bound, since the library rounds and the oracle does not.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

#: Unit roundoff of IEEE binary64.
U = 2.0**-53

#: Allowed |det_float - det_exact| as a share of the Hadamard bound
#: prod_i ||row_i||_2 >= |det|. Partial-pivoting elimination on the n <= 8
#: matrices used here stays many orders of magnitude inside it.
DET_REL_BOUND = 1e-9


def exact(rows: list[list[float]]) -> list[list[Fraction]]:
    return [[Fraction(v) for v in r] for r in rows]


def square_sums(rows: list[list[float]]) -> tuple[list[Fraction], list[Fraction]]:
    """Exact per-row and per-column sums of squared entries."""
    fr = exact(rows)
    row_sums = [sum((v * v for v in r), Fraction(0)) for r in fr]
    col_sums = [sum((r[j] * r[j] for r in fr), Fraction(0)) for j in range(len(fr[0]))]
    return row_sums, col_sums


def line_sums(rows: list[list[float]]) -> tuple[list[Fraction], list[Fraction]]:
    """Exact per-row and per-column entry sums."""
    fr = exact(rows)
    return [sum(r, Fraction(0)) for r in fr], [sum((r[j] for r in fr), Fraction(0)) for j in range(len(fr[0]))]


def sum_close(value: float, exact_value: Fraction, terms: int, abs_total: Fraction | None = None) -> bool:
    """Float sum of `terms` rounded terms vs its exact value.

    Recursive summation of k terms, each rounded once, errs by at most
    (k + 1) * U * sum(|term|) to first order; twice that is allowed.
    `abs_total` is sum(|term|), needed only when terms differ in sign.
    """
    scale = abs(exact_value) if abs_total is None else abs_total
    return abs(Fraction(value) - exact_value) <= Fraction(2 * (terms + 1) * U) * scale


def all_pairs_close(sums: list[Fraction], rtol: float, atol: float) -> bool:
    """The balance definition, exactly: every pair within atol + rtol*max."""
    ft, fa = Fraction(rtol), Fraction(atol)
    return all(
        abs(x - y) <= fa + ft * max(abs(x), abs(y))
        for i, x in enumerate(sums)
        for y in sums[i + 1 :]
    )


def is_balanced(rows: list[list[float]], rtol: float, atol: float) -> bool:
    row_sums, col_sums = square_sums(rows)
    if all(s == 0 for s in row_sums):
        return False
    return all_pairs_close(row_sums, rtol, atol) and all_pairs_close(col_sums, rtol, atol)


def balanced_square_interior(
    rows: list[list[float]], rtol: float, atol: float, min_dim: int = 2
) -> tuple[int, int, int] | None:
    """First balanced contiguous proper square block, as (row, col, dim).

    Same scan order as the definition: largest dimension first, then row,
    then column. None when no such block is balanced in exact arithmetic.
    """
    n = len(rows)
    for dim in range(n - 1, min_dim - 1, -1):
        for r in range(n - dim + 1):
            for c in range(n - dim + 1):
                block = [row[c : c + dim] for row in rows[r : r + dim]]
                if is_balanced(block, rtol, atol):
                    return (r, c, dim)
    return None


def det(rows: list[list[float]]) -> Fraction:
    """Exact determinant by fraction-exact Gaussian elimination."""
    a = exact(rows)
    n = len(a)
    result = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        p = a[col][col]
        result *= p
        for i in range(col + 1, n):
            f = a[i][col] / p
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return result


def hadamard_bound(rows: list[list[float]]) -> float:
    return math.prod(math.sqrt(sum(v * v for v in r)) for r in rows)


def det_close(value: float, rows: list[list[float]]) -> bool:
    """Float determinant within DET_REL_BOUND * Hadamard bound of exact."""
    allowed = Fraction(DET_REL_BOUND * hadamard_bound(rows))
    return abs(Fraction(value) - det(rows)) <= allowed


def sym2_spectrum(a: float, b: float) -> tuple[float, float]:
    """Eigenvalue magnitudes (largest, smallest) of [[a, b], [b, a]], a, b > 0.

    The eigenvalues are a + b and a - b, with eigenvectors (1, 1) and (1, -1).
    """
    return a + b, abs(a - b)


def near(value: float, expected: float, scale: float, ulps: float = 16.0) -> bool:
    """|value - expected| within `ulps` units of roundoff at `scale`."""
    return abs(value - expected) <= ulps * U * abs(scale)


def givens_orthogonal(rng: random.Random, n: int) -> list[list[float]]:
    """Random orthogonal matrix as a product of random plane rotations."""
    q = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        for p in range(n - 1):
            t = rng.uniform(0.0, 2.0 * math.pi)
            c, s = math.cos(t), math.sin(t)
            k = rng.randrange(p + 1, n)
            for row in q:
                x, y = row[p], row[k]
                row[p], row[k] = c * x - s * y, s * x + c * y
    return q


def sylvester(n: int) -> list[list[float]]:
    """Sign matrix of order n (a power of two) with orthogonal rows."""
    h = [[1.0]]
    while len(h) < n:
        h = [r + r for r in h] + [r + [-v for v in r] for r in h]
    return h
