"""2x2 spectra: exact eigenvalues, entry-sum estimation, and derived checks.

For a fully balanced positive 2x2 matrix, the four row/column entry sums
all approximate the largest eigenvalue magnitude, and the four absolute
entry differences approximate the smallest. That single fact powers the
estimator, the trace/leading-entry relation, additivity of the dominant
eigenvalue, spectrum-only quadratic-form prediction, and the approximate
determinant homomorphism implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from balmat import _kernels
from balmat.balance import require_balanced, require_entries_at_least_one, require_positive
from balmat.core import DEFAULT_TOL, CheckRecord, Matrix, TolerancePolicy, approx_eq
from balmat.errors import DimensionError, HypothesisError, InvalidInputError, SymmetryError

# `algebra` and `discrepancy` are imported inside the two checks that use
# them, so `balmat spectrum` and `balmat quadform` load neither.

Branch = Literal["b_gt_a", "b_lt_a"]


@dataclass(frozen=True)
class Spectrum2:
    """Eigenvalues of a 2x2 matrix, ordered by magnitude.

    Real spectrum: |lambda1| <= |lambda2|. Complex pair: is_complex is set,
    lambda1 holds the shared real part and lambda2 the shared modulus (the
    magnitude ordering then holds automatically).
    """

    lambda1: float
    lambda2: float
    is_complex: bool

    @property
    def min_abs(self) -> float:
        return abs(self.lambda1)

    @property
    def max_abs(self) -> float:
        return abs(self.lambda2)


@dataclass(frozen=True)
class SpectrumEstimate:
    """Entry-sum estimates of the eigenvalue magnitudes of a balanced 2x2.

    max_estimate averages the four row/column sums, min_estimate the four
    absolute differences; spread is the worst disagreement of any individual
    estimate with its group mean, i.e. how much the four readings of the
    same quantity differ. defect is the max defect its balance gate measured.
    """

    max_estimate: float
    min_estimate: float
    spread: float
    defect: float


def _require_2x2(a: Matrix) -> None:
    if a.shape != (2, 2):
        raise DimensionError(f"operation defined for 2x2 matrices, got {a.n_rows}x{a.n_cols}")


def exact_spectrum2(a: Matrix) -> Spectrum2:
    """Roots of lambda^2 - tr*lambda + det, the characteristic polynomial.

    Uses the numerically stable form of the quadratic formula (no
    subtraction of nearly equal quantities): the larger-magnitude root comes
    from the non-cancelling branch and the other from det / root.
    """
    _require_2x2(a)
    lam1, lam2, is_complex = _kernels.spectrum2(*a.entries)
    return Spectrum2(lam1, lam2, is_complex)


def _mean4(v0: float, v1: float, v2: float, v3: float) -> float:
    # Pairwise sum: exact (no rounding) when all four values coincide.
    return ((v0 + v1) + (v2 + v3)) / 4.0


def estimate_spectrum2(a: Matrix, tol: TolerancePolicy = DEFAULT_TOL) -> SpectrumEstimate:
    """Estimate eigenvalue magnitudes of a balanced 2x2 from entry sums.

    Hypotheses: fully balanced under `tol` and every entry >= 1. The four
    sums {a+b, c+d, a+c, b+d} each estimate the dominant magnitude and the
    four absolute differences estimate the smallest one; averaging the group
    minimizes the worst-case deviation while `spread` preserves how much the
    four readings disagreed.
    """
    _require_2x2(a)
    report = require_balanced(a, tol)
    require_entries_at_least_one(a)
    ea, eb, ec, ed = a.entries
    s0, s1, s2, s3 = ea + eb, ec + ed, ea + ec, eb + ed
    d0, d1, d2, d3 = abs(ea - eb), abs(ec - ed), abs(ea - ec), abs(eb - ed)
    hi = _mean4(s0, s1, s2, s3)
    lo = _mean4(d0, d1, d2, d3)
    spread = max(
        max(abs(s0 - hi), abs(s1 - hi), abs(s2 - hi), abs(s3 - hi)),
        max(abs(d0 - lo), abs(d1 - lo), abs(d2 - lo), abs(d3 - lo)),
    )
    return SpectrumEstimate(max_estimate=hi, min_estimate=lo, spread=spread, defect=report.max_defect)


def trace_entry_check(a: Matrix, tol: TolerancePolicy = DEFAULT_TOL) -> CheckRecord:
    """The leading entry of a balanced positive 2x2 pins down the trace.

    Balance forces the two diagonal entries together, so |tr - 2a| must stay
    within a slack budget: twice the comparison allowance at trace scale
    plus twice the diagonal gap that balance itself permits, which is
    (atol + rtol * max_square_sum) / tr for positive entries.
    """
    _require_2x2(a)
    require_positive(a)
    report = require_balanced(a, tol)
    ea, _, _, ed = a.entries
    tr = ea + ed
    lhs = abs(tr - 2.0 * ea)
    max_sum = max(max(report.row_square_sums), max(report.col_square_sums))
    diag_gap_budget = (tol.atol + tol.rtol * max_sum) / tr
    rhs = 2.0 * (tol.atol + tol.rtol * abs(tr)) + 2.0 * diag_gap_budget
    return CheckRecord.bounded("trace_entry", lhs, rhs)


def emax_additivity_check(
    a: Matrix, b: Matrix, tol: TolerancePolicy = DEFAULT_TOL
) -> CheckRecord:
    """Dominant eigenvalue magnitude should be additive for balanced 2x2s.

    Both inputs must satisfy the estimator hypotheses. The comparison budget
    is the tolerance allowance widened by both estimator spreads, since the
    additivity argument runs through the entry-sum estimates.
    """
    from balmat.algebra import add

    est_a = estimate_spectrum2(a, tol)
    est_b = estimate_spectrum2(b, tol)
    lhs = exact_spectrum2(add(a, b)).max_abs
    rhs = exact_spectrum2(a).max_abs + exact_spectrum2(b).max_abs
    allowed = tol.allowance(lhs, rhs) + est_a.spread + est_b.spread
    return CheckRecord.close("emax_additivity", lhs, rhs, allowed)


def _require_symmetric(a: Matrix) -> None:
    _require_2x2(a)
    if not approx_eq(a.entries[1], a.entries[2], DEFAULT_TOL):
        raise SymmetryError(
            f"off-diagonal entries differ: {a.entries[1]} vs {a.entries[2]}"
        )


def quadform_eval(a: Matrix, x: float, y: float) -> float:
    """Quadratic form a*x^2 + 2*b*x*y + d*y^2 of a symmetric 2x2 matrix."""
    _require_symmetric(a)
    ea, eb, _, ed = a.entries
    return ea * x * x + 2.0 * eb * x * y + ed * y * y


def quadform_branch_select(a: Matrix) -> Branch:
    """Which prediction branch a symmetric 2x2 belongs to.

    "b_gt_a" exactly when the off-diagonal b exceeds the diagonal a, else
    "b_lt_a". The two predicted forms coincide only at a = b exactly (the
    smaller eigenvalue magnitude is then 0); for a < b the "b_lt_a" form is
    off by (b - a)(x - y)^2, however close the two are, so the choice
    takes no tolerance.
    """
    _require_symmetric(a)
    ea, eb = a.entries[0], a.entries[1]
    return "b_gt_a" if eb > ea else "b_lt_a"


#: The (x, y) points at which predicted and evaluated quadratic forms are compared.
QUADFORM_GRID = tuple((float(x), float(y)) for x in range(-2, 3) for y in range(-2, 3))


def _quadform_coeffs(s: Spectrum2, branch: Branch) -> tuple[float, float]:
    """The branch's coefficients of (x+y)^2 and of x*y, from the spectrum alone."""
    lam_min = s.min_abs
    lam_max = s.max_abs
    if branch == "b_gt_a":
        return 0.5 * (lam_max - lam_min), 2.0 * lam_min
    if branch == "b_lt_a":
        return 0.5 * (lam_max + lam_min), -2.0 * lam_min
    raise InvalidInputError(f"branch must be 'b_gt_a' or 'b_lt_a', got {branch!r}")


def quadform_predict(s: Spectrum2, branch: Branch, x: float, y: float) -> float:
    """Quadratic form predicted from the spectrum alone.

    For a symmetric balanced 2x2 with entries >= 1, the form is recovered
    without the entries: with m = min magnitude and M = max magnitude,
    branch "b_gt_a" gives ((M - m)/2)(x+y)^2 + 2m*x*y and branch "b_lt_a"
    gives ((M + m)/2)(x+y)^2 - 2m*x*y.
    """
    coeff_sum_sq, coeff_xy = _quadform_coeffs(s, branch)
    return coeff_sum_sq * ((x + y) * (x + y)) + coeff_xy * x * y


def det_homomorphism_check(
    a: Matrix,
    b: Matrix,
    tol: TolerancePolicy = DEFAULT_TOL,
    fair_eps: float = 0.1,
) -> CheckRecord:
    """det(A+B) should approximate det(A) + det(B) under the stated hypotheses.

    Hypotheses: both matrices are positive balanced 2x2 with entries >= 1,
    A's smallest eigenvalue magnitude is approximately zero, and B has a
    fair discrepancy along rows or columns at `fair_eps`. The residual is
    the cross term a1*b4 + a4*b1 - a2*b3 - a3*b2; fairness bounds it by
    4 * fair_eps * max(A), and the remaining slack terms cover a nonzero
    smallest eigenvalue, imperfect balance of A, and float rounding.
    """
    from balmat.algebra import add, det2
    from balmat.discrepancy import discrepancy_report

    _require_2x2(a)
    _require_2x2(b)
    require_entries_at_least_one(a, "A")
    require_entries_at_least_one(b, "B")
    require_balanced(a, tol, "A")
    require_balanced(b, tol, "B")
    spec_a = exact_spectrum2(a)
    if not approx_eq(spec_a.min_abs, 0.0, tol):
        raise HypothesisError("min-eig-not-small", f"min |eigenvalue| of A is {spec_a.min_abs}")
    rep_b = discrepancy_report(b, fair_eps)
    # The fairness gate gets the policy's comparison cushion: deviations
    # that sit exactly on the threshold (up to rounding) count as fair.
    row_dev, col_dev = rep_b.max_row_deviation, rep_b.max_col_deviation
    fair_rows = row_dev <= fair_eps + tol.allowance(row_dev, fair_eps)
    fair_cols = col_dev <= fair_eps + tol.allowance(col_dev, fair_eps)
    if not (fair_rows or fair_cols):
        raise HypothesisError(
            "not-fair",
            f"B deviations: rows {row_dev:.3g}, cols {col_dev:.3g}",
        )
    det_a = det2(a)
    det_b = det2(b)
    det_sum = det2(add(a, b))
    lhs = abs(det_sum - (det_a + det_b))
    a1, a2, a3, a4 = a.entries
    asym = max(abs(a1 - a4), abs(a2 - a3))
    rhs = (
        4.0 * fair_eps * max(a.entries)
        + 2.0 * max(b.entries) * (spec_a.min_abs + asym)
        + tol.atol
        + tol.rtol * max(abs(det_sum), abs(det_a + det_b))
    )
    return CheckRecord.bounded("det_homomorphism", lhs, rhs)
