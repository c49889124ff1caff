"""Matrix operations and elimination with an elementary-operation trail.

Besides the basic arithmetic (transpose, scale, add, mul, closed-form 2x2
inverse), this module reduces matrices to reduced row echelon form while
recording every elementary row operation. The determinant then falls out of
the trail: each recorded operation corresponds to an elementary matrix with
known determinant, and the product of those determinants inverts to the
determinant of the input.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from balmat import _kernels
from balmat.core import DEFAULT_TOL, Matrix, TolerancePolicy
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


def transpose(a: Matrix) -> Matrix:
    e, m = a.entries, a.n_cols
    return Matrix(m, a.n_rows, tuple([v for j in range(m) for v in e[j::m]]))


def scale(lam: float, a: Matrix) -> Matrix:
    lam = float(lam)
    return Matrix(a.n_rows, a.n_cols, tuple([lam * e for e in a.entries]))


def add(a: Matrix, b: Matrix) -> Matrix:
    if a.n_rows != b.n_rows or a.n_cols != b.n_cols:
        raise DimensionError(f"cannot add {a.n_rows}x{a.n_cols} and {b.n_rows}x{b.n_cols}")
    return Matrix(a.n_rows, a.n_cols, tuple(map(operator.add, a.entries, b.entries)))


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
    return Matrix(n, m, tuple(out))


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
    return Matrix(2, 2, (e[3] * f, -e[1] * f, -e[2] * f, e[0] * f))


def _rref(a: Matrix, pivot_tol: float, forward_only: bool = False):
    """The rref kernel on `a`: (reduced entries, raw trail, rank)."""
    if not pivot_tol > 0:
        raise InvalidInputError(f"pivot_tol must be positive, got {pivot_tol}")
    return _kernels.rref(a.entries, a.n_rows, a.n_cols, pivot_tol, forward_only)


def rref_with_trail(a: Matrix, pivot_tol: float = 1e-10) -> RrefResult:
    """Reduce `a` to reduced row echelon form, recording every operation.

    Uses partial pivoting (largest magnitude in the column); any candidate
    pivot with magnitude at or below `pivot_tol` is treated as zero, which
    is what decides the numerical rank.
    """
    reduced, raw_trail, rank = _rref(a, pivot_tol)
    trail = tuple(ElementaryOp(*op) for op in raw_trail)
    return RrefResult(R=Matrix(a.n_rows, a.n_cols, tuple(reduced)), trail=trail, rank=rank)


def _det_rank_steps(a: Matrix, pivot_tol: float, forward_only: bool = False) -> tuple[float, int, int]:
    """Determinant, rank and trail length of square `a`, from one elimination.

    A full-rank n x n matrix reduces to the identity through elementary
    operations E_1..E_k, so its determinant is the reciprocal of the product
    of their det factors, multiplied in trail order: the factor of a scale
    step, -1.0 for a swap. An add-multiple step's factor is exactly 1.0, so
    leaving it out changes no bits. Rank-deficient input gives exactly 0.0,
    and a determinant that overflows gives +-inf.

    Elimination that overflows is rejected as `rref_with_trail` rejects it:
    a zero scale factor or a non-finite reduced entry raises
    InvalidInputError. `forward_only` skips the elimination above each
    pivot (see `_kernels.rref`): the determinant and rank are the same, the
    trail is shorter, and an overflow there is not seen.
    """
    if not a.is_square:
        raise DimensionError(f"determinant needs a square matrix, got {a.n_rows}x{a.n_cols}")
    reduced, raw_trail, rank = _rref(a, pivot_tol, forward_only)
    prod = 1.0
    for kind, _, _, factor in raw_trail:
        if kind == "scale_row":
            if factor == 0.0:
                raise InvalidInputError("scale_row factor must be nonzero")
            prod *= factor
        elif kind == "swap_rows":
            prod *= -1.0
    if not all(map(math.isfinite, reduced)):
        raise InvalidInputError("elimination overflowed: the reduced form has a non-finite entry")
    # A product that underflowed to +-0.0 is a determinant that overflows.
    det = 0.0 if rank < a.n_rows else 1.0 / prod if prod else math.copysign(math.inf, prod)
    return det, rank, len(raw_trail)


def det_via_trail(a: Matrix, pivot_tol: float = 1e-10) -> float:
    """Determinant computed from the elimination trail.

    A full-rank n x n matrix reduces to the identity through elementary
    operations E_1..E_k, so det(a) is the reciprocal of the product of the
    det factors of the trail. Rank-deficient input returns exactly 0.0.
    Only forward elimination runs: the steps above each pivot are add-
    multiples, whose det factor is 1.
    """
    return _det_rank_steps(a, pivot_tol, forward_only=True)[0]
