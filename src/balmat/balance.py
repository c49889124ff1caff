"""Balance classification: are all row (column) sums of squared entries equal?

A matrix is horizontally balanced when every row has the same sum of
squared entries (up to tolerance), vertically balanced for columns, and
fully balanced when both hold. The defect metrics quantify how badly the
property fails, normalized so they are comparable across scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from balmat import _kernels
from balmat.core import DEFAULT_TOL, Matrix, TolerancePolicy, one_write_init
from balmat.errors import HypothesisError, InvalidInputError

Axis = Literal["rows", "columns"]


def nan_max(x: float, y: float) -> float:
    """max(x, y), but NaN if either is NaN: builtin max drops a NaN in second place."""
    return y if y > x or y != y else x


@one_write_init
@dataclass(frozen=True, init=False)
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


def _axis_fields(a: Matrix, axis: Axis) -> tuple[tuple[float, ...], float]:
    """(square sums, defect) of one axis, as `classify_balance` reports them."""
    if axis not in ("rows", "columns"):
        raise InvalidInputError(f"axis must be 'rows' or 'columns', got {axis!r}")
    r = classify_balance(a)
    return (r.row_square_sums, r.horizontal_defect) if axis == "rows" else (r.col_square_sums, r.vertical_defect)


def square_sums(a: Matrix, axis: Axis) -> tuple[float, ...]:
    """Sum of squared entries of each row (axis="rows") or column."""
    return _axis_fields(a, axis)[0]


def balance_defect(a: Matrix, axis: Axis) -> float:
    """Normalized violation of balance along one axis.

    Largest pairwise gap between the square sums, divided by
    max(1, largest sum): exactly 0 iff all sums are equal, and scale-free
    for matrices of non-trivial magnitude. NaN when the sums overflow.
    """
    return _axis_fields(a, axis)[1]


def classify_balance(a: Matrix, tol: TolerancePolicy = DEFAULT_TOL) -> BalanceReport:
    """Full balance report for `a` under the given tolerance.

    Balance requires every *pair* of square sums to agree under `tol`,
    matching the universally quantified definition rather than comparing
    adjacent lines only. An axis whose square sums overflow is not
    balanced: its defect is then NaN (see `_kernels.axis_balance`).
    """
    rs, cs, h_defect, v_defect, h_bal, v_bal = _kernels.balance(a.entries, a.n_rows, a.n_cols, tol.rtol, tol.atol)
    # Row sums that are all 0.0 (the lowest is the highest, and the first
    # is 0.0) do not make a zero matrix: 1e-200 squares to 0.0 too.
    if rs[0] == 0.0 and h_defect == 0.0 and a.is_zero:
        return BalanceReport(rs, cs, h_defect, v_defect, False, False, False, True)
    return BalanceReport(rs, cs, h_defect, v_defect, h_bal, v_bal, h_bal and v_bal, False)


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
