"""Balance classification: are all row (column) sums of squared entries equal?

A matrix is horizontally balanced when every row has the same sum of
squared entries (up to tolerance), vertically balanced for columns, and
fully balanced when both hold. The defect metrics quantify how badly the
property fails, normalized so they are comparable across scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from balmat import _kernels
from balmat.core import DEFAULT_TOL, Matrix, TolerancePolicy
from balmat.errors import HypothesisError, InvalidInputError

Axis = Literal["rows", "columns"]


def nan_max(x: float, y: float) -> float:
    """max(x, y), but NaN if either is NaN: builtin max drops a NaN in second place."""
    return y if y > x or y != y else x


@dataclass(frozen=True)
class BalanceReport:
    """Classification of one matrix plus the defect metrics behind it.

    The zero matrix is excluded from the balanced classes by definition;
    it is reported with `is_zero` set and all three verdicts False.
    """

    row_square_sums: tuple[float, ...]
    col_square_sums: tuple[float, ...]
    horizontal_defect: float
    vertical_defect: float
    horizontally_balanced: bool
    vertically_balanced: bool
    fully_balanced: bool
    is_zero: bool

    @property
    def max_defect(self) -> float:
        return nan_max(self.horizontal_defect, self.vertical_defect)


def square_sums(a: Matrix, axis: Axis) -> tuple[float, ...]:
    """Sum of squared entries of each row (axis="rows") or column."""
    if axis == "rows":
        return tuple(_kernels.row_square_sums(a.entries, a.n_rows, a.n_cols))
    if axis == "columns":
        return tuple(_kernels.col_square_sums(a.entries, a.n_rows, a.n_cols))
    raise InvalidInputError(f"axis must be 'rows' or 'columns', got {axis!r}")


def balance_defect(a: Matrix, axis: Axis) -> float:
    """Normalized violation of balance along one axis.

    Largest pairwise gap between the square sums, divided by
    max(1, largest sum): exactly 0 iff all sums are equal, and scale-free
    for matrices of non-trivial magnitude.
    """
    return _kernels.spread_defect(square_sums(a, axis))


def classify_balance(a: Matrix, tol: TolerancePolicy = DEFAULT_TOL) -> BalanceReport:
    """Full balance report for `a` under the given tolerance.

    Balance requires every *pair* of square sums to agree under `tol`,
    matching the universally quantified definition rather than comparing
    adjacent lines only. An axis whose square sums overflow is not
    balanced: its defect is then NaN, and `sums_all_close` would count the
    infinite sums as close to anything.
    """
    rs = _kernels.row_square_sums(a.entries, a.n_rows, a.n_cols)
    cs = _kernels.col_square_sums(a.entries, a.n_rows, a.n_cols)
    h_defect = _kernels.spread_defect(rs)
    v_defect = _kernels.spread_defect(cs)
    is_zero = a.is_zero
    if is_zero:
        h_bal = v_bal = full = False
    else:
        h_bal = math.isfinite(h_defect) and _kernels.sums_all_close(rs, tol.rtol, tol.atol)
        v_bal = math.isfinite(v_defect) and _kernels.sums_all_close(cs, tol.rtol, tol.atol)
        full = h_bal and v_bal
    return BalanceReport(
        row_square_sums=tuple(rs),
        col_square_sums=tuple(cs),
        horizontal_defect=h_defect,
        vertical_defect=v_defect,
        horizontally_balanced=h_bal,
        vertically_balanced=v_bal,
        fully_balanced=full,
        is_zero=is_zero,
    )


def require(condition: bool, hypothesis: str) -> None:
    """Raise HypothesisError(hypothesis) unless `condition` holds."""
    if not condition:
        raise HypothesisError(hypothesis)


def require_balanced(a: Matrix, tol: TolerancePolicy, label: str = "input") -> BalanceReport:
    """Balance report of `a`; raises HypothesisError unless fully balanced."""
    report = classify_balance(a, tol)
    if not report.fully_balanced:
        raise HypothesisError(
            "not-balanced",
            f"{label} has defects (h={report.horizontal_defect:.3g}, v={report.vertical_defect:.3g})",
        )
    return report


def require_positive(a: Matrix) -> None:
    """Raise HypothesisError unless every entry of `a` is positive."""
    low = min(a.entries)
    if low <= 0.0:
        raise HypothesisError("not-positive", f"input has minimum entry {low}")


def require_entries_at_least_one(a: Matrix, label: str = "input") -> None:
    """Raise HypothesisError unless every entry of `a` is at least 1."""
    low = min(a.entries)
    if low < 1.0:
        raise HypothesisError("entries-below-1", f"{label} has minimum entry {low}")
