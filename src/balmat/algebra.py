"""Matrix operations and elimination with an elementary-operation trail.

Besides the basic arithmetic (transpose, scale, add, mul, closed-form 2x2
inverse), this module reduces matrices to reduced row echelon form while
recording every elementary row operation. The determinant then falls out of
the trail (`RrefResult.determinant`): each recorded operation corresponds to
an elementary matrix with known determinant, and the product of those
determinants inverts to the determinant of the input. `det_via_trail` runs
the forward part of that elimination alone, `_kernels.forward`, as a
straight-line function generated per n up to `_kernels._SHAPE_KERNEL_MAX_N`
and compiled by `_kernels._kernel`; the inputs that function declines run
`_kernels.forward` itself. Its builder `_det_source` sits here, next to its
one caller, so that a command that never loads this module compiles none.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from balmat import _kernels
from balmat.core import DEFAULT_TOL, Matrix, TolerancePolicy, _generated_matrix
from balmat.errors import DimensionError, InvalidInputError, SingularMatrixError


@dataclass(frozen=True)
class ElementaryOp:
    """One elementary row operation.

    kind "scale_row": row i *= factor (factor != 0), det factor: factor.
    kind "swap_rows": rows i and j exchanged, det factor: -1.
    kind "add_multiple": row i += factor * row j, det factor: 1.
    """

    kind: str
    i: int
    j: int
    factor: float

    def __post_init__(self):
        if self.kind not in ("scale_row", "swap_rows", "add_multiple"):
            raise InvalidInputError(f"unknown elementary operation kind {self.kind!r}")
        if self.kind == "scale_row" and self.factor == 0.0:
            raise InvalidInputError("scale_row factor must be nonzero")


@dataclass(frozen=True)
class RrefResult:
    """Reduced form, the operations that produced it, and the rank."""

    R: Matrix
    trail: tuple[ElementaryOp, ...]
    rank: int

    @property
    def determinant(self) -> float:
        """Determinant of the reduced input, from the trail; DimensionError unless it is square.

        A full-rank n x n matrix reduces to the identity through elementary
        operations E_1..E_k, so its determinant is the reciprocal of the
        product of their det factors (`_trail_product`). Rank-deficient
        input gives exactly 0.0, and a determinant that overflows gives +-inf.
        """
        _require_square(self.R)
        prod = _trail_product((op.kind, op.i, op.j, op.factor) for op in self.trail)
        return _det_from(prod, self.rank, self.R.n_rows)


def transpose(a: Matrix) -> Matrix:
    e, m = a.entries, a.n_cols
    return _generated_matrix(m, a.n_rows, tuple([v for j in range(m) for v in e[j::m]]))


def scale(lam: float, a: Matrix) -> Matrix:
    lam = float(lam)
    return _generated_matrix(a.n_rows, a.n_cols, tuple([lam * e for e in a.entries]))


def add(a: Matrix, b: Matrix) -> Matrix:
    if a.n_rows != b.n_rows or a.n_cols != b.n_cols:
        raise DimensionError(f"cannot add {a.n_rows}x{a.n_cols} and {b.n_rows}x{b.n_cols}")
    return _generated_matrix(a.n_rows, a.n_cols, tuple(map(operator.add, a.entries, b.entries)))


def mul(a: Matrix, b: Matrix) -> Matrix:
    if a.n_cols != b.n_rows:
        raise DimensionError(f"cannot multiply {a.n_rows}x{a.n_cols} by {b.n_rows}x{b.n_cols}")
    n, k, m = a.n_rows, a.n_cols, b.n_cols
    out = []
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a.entries[i * k + t] * b.entries[t * m + j]
            out.append(s)
    return _generated_matrix(n, m, tuple(out))


def det2(a: Matrix) -> float:
    """Closed-form determinant of a 2x2 matrix."""
    if a.shape != (2, 2):
        raise DimensionError(f"det2 needs a 2x2 matrix, got {a.n_rows}x{a.n_cols}")
    e = a.entries
    return e[0] * e[3] - e[1] * e[2]


def inverse2(a: Matrix, tol: TolerancePolicy = DEFAULT_TOL) -> Matrix:
    """Closed-form inverse of a 2x2 matrix.

    Raises SingularMatrixError when |det| is within the policy's absolute
    tolerance of zero.
    """
    d = det2(a)
    if abs(d) <= tol.atol:
        raise SingularMatrixError(f"2x2 matrix is singular under atol={tol.atol} (det={d})")
    f = 1.0 / d
    e = a.entries
    return _generated_matrix(2, 2, (e[3] * f, -e[1] * f, -e[2] * f, e[0] * f))


def _require_pivot_tol(pivot_tol: float) -> None:
    if not pivot_tol > 0:
        raise InvalidInputError(f"pivot_tol must be positive, got {pivot_tol}")


def rref_with_trail(a: Matrix, pivot_tol: float = 1e-10) -> RrefResult:
    """Reduce `a` to reduced row echelon form, recording every operation.

    Uses partial pivoting (largest magnitude in the column); any candidate
    pivot with magnitude at or below `pivot_tol` is treated as zero, which
    is what decides the numerical rank. Elimination that overflows raises
    InvalidInputError: a zero scale factor, then a non-finite reduced entry.
    """
    _require_pivot_tol(pivot_tol)
    reduced, raw_trail, rank = _kernels.rref(a.entries, a.n_rows, a.n_cols, pivot_tol)
    trail = tuple(ElementaryOp(*op) for op in raw_trail)
    _require_finite(reduced)
    return RrefResult(R=_generated_matrix(a.n_rows, a.n_cols, tuple(reduced)), trail=trail, rank=rank)


def _require_square(a: Matrix) -> None:
    if not a.is_square:
        raise DimensionError(f"determinant needs a square matrix, got {a.n_rows}x{a.n_cols}")


def _require_finite(reduced) -> None:
    if not all(map(math.isfinite, reduced)):
        raise InvalidInputError("elimination overflowed: the reduced form has a non-finite entry")


def _trail_product(steps) -> float:
    """Product of the det factors of (kind, i, j, factor) steps, multiplied in trail order.

    A scale step's is its factor, a swap's -1.0; an add-multiple step's, 1.0,
    is left out. A zero scale factor (an infinite pivot) raises InvalidInputError.
    """
    prod = 1.0
    for kind, _, _, factor in steps:
        if kind == "scale_row":
            if factor == 0.0:
                raise InvalidInputError("scale_row factor must be nonzero")
            prod *= factor
        elif kind == "swap_rows":
            prod *= -1.0
    return prod


def _det_from(prod: float, rank: int, n: int) -> float:
    """The determinant that a product of det factors and a rank give."""
    if rank < n:
        return 0.0
    # A product that underflowed to +-0.0 is a determinant that overflows.
    return 1.0 / prod if prod else math.copysign(math.inf, prod)


def det_via_trail(a: Matrix, pivot_tol: float = 1e-10) -> float:
    """Determinant from forward elimination with partial pivoting.

    The elimination is `rref_with_trail`'s below each pivot: the same
    swaps and scale factors, whose det factors (-1.0 per swap, the factor
    of a scale step) multiply in trail order to the reciprocal of det(a).
    Nothing above a pivot is eliminated, since those add-multiple steps
    have det factor 1; an overflow there is not seen. Rank-deficient input
    returns exactly 0.0, and a determinant that overflows +-inf. A zero
    scale factor, then a non-finite entry of the forward-reduced form,
    raises InvalidInputError.

    For n <= `_kernels._SHAPE_KERNEL_MAX_N` a function generated for n
    (`_det_source`, compiled by `_kernels._kernel`) runs the elimination;
    it declines every input outside the full-rank, finite case, and those
    and larger n run `_kernels.forward`. Both give the same bits.
    """
    _require_square(a)
    _require_pivot_tol(pivot_tol)
    n = a.n_rows
    prod = _kernels._kernel(_det_source, n)(a.entries, pivot_tol) if n <= _kernels._SHAPE_KERNEL_MAX_N else None
    if prod is not None:
        return _det_from(prod, n, n)
    reduced, steps, pivots = _kernels.forward(a.entries, n, n, pivot_tol)
    prod = _trail_product(steps)
    _require_finite(reduced)
    return _det_from(prod, len(pivots), n)


def _det_source(n: int) -> str:
    """Source of det_<n>(entries, tol): the product of `_kernels.forward`'s det factors, for n x n entries.

    The row at position i holds the locals a<i>_<j>; a swap exchanges two
    positions' locals. Column k updates only the columns right of k:
    further left, the rows below the pivot hold zeros that no determinant
    reads, and the pivot entry is read once. The steps are `forward`'s, on
    the same operands in the same order, so the factors are its bits. A
    magnitude is written `x if x >= 0.0 else -x`, which orders candidates
    as abs() does, -0.0 and NaN included.

    The function returns None where `forward`'s answer may not be a
    full-rank product: a column without a candidate above pivot_tol, a
    scale factor that is 0.0 (an infinite pivot) or not finite, or a
    non-finite entry right of a pivot, checked last as x - x, which is 0.0
    exactly when x is finite. That catches every overflow: a non-finite
    entry stays non-finite, and each ends up as a pivot, right of a pivot,
    or eliminated, which makes the rest of its row non-finite.
    """
    a = [[f"a{i}_{j}" for j in range(n)] for i in range(n)]
    out = [f"def det_{n}(entries, tol):", f"    [{', '.join(v for row in a for v in row)}] = entries", "    prod = 1.0"]
    for k in range(n):
        below = range(k + 1, n)
        out.append(f"    b = {a[k][k]} if {a[k][k]} >= 0.0 else -{a[k][k]}")
        if below:
            out.append(f"    best = {k}")
        for i in below:
            out += [
                f"    v = {a[i][k]} if {a[i][k]} >= 0.0 else -{a[i][k]}",
                "    if v > b:",
                f"        best = {i}",
                "        b = v",
            ]
        out += ["    if not b > tol:", "        return None"]
        for i in below:
            out += [
                f"    {'if' if i == k + 1 else 'elif'} best == {i}:",
                f"        {', '.join(a[k][k:] + a[i][k:])} = {', '.join(a[i][k:] + a[k][k:])}",
                "        prod *= -1.0",
            ]
        out += [f"    f = 1.0 / {a[k][k]}", "    if f == 0.0 or f - f != 0.0:", "        return None", "    prod *= f"]
        out += [f"    {u} *= f" for u in a[k][k + 1 :]]
        for i in below:
            out += [f"    x = -{a[i][k]}", "    if x != 0.0:"]
            out += [f"        {a[i][j]} += x * {a[k][j]}" for j in below]
    right = [u for k in range(n) for u in a[k][k + 1 :]]
    if right:
        out += [f"    if {' + '.join(f'({u} - {u})' for u in right)} != 0.0:", "        return None"]
    return "\n".join([*out, "    return prod", ""])
