"""Row/column discrepancy, fairness classification, and interior search.

The discrepancy of a line (row or column) is its plain entry sum. A line is
*fair* at threshold eps when every entry sits strictly within eps of the
line's mean; it is *unfair* when some entry deviates by at least a larger
threshold theta. For balanced matrices, fairness transfers between rows and
columns, and the interior search looks for balanced submatrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from operator import add, itemgetter

from balmat import _kernels
from balmat.balance import BalanceReport, require_balanced, require_positive
from balmat.core import DEFAULT_TOL, CheckRecord, Matrix, TolerancePolicy
from balmat.errors import DimensionError, InvalidInputError

#: Tolerance widening applied when a fairness verdict is transported to the
#: other axis: the argument passes through two approximations (line means
#: agree, then entries agree), so the receiving side gets twice the budget.
TRANSFER_FACTOR = 2.0


@dataclass(frozen=True)
class DiscrepancyReport:
    """Line sums, means, worst deviations, and fairness verdicts at one eps."""

    row_sums: tuple[float, ...]
    col_sums: tuple[float, ...]
    row_means: tuple[float, ...]
    col_means: tuple[float, ...]
    max_row_deviation: float
    max_col_deviation: float
    fair_rows: bool
    fair_cols: bool
    fair_row_indices: frozenset[int]
    fair_eps: float


def discrepancy_report(a: Matrix, fair_eps: float) -> DiscrepancyReport:
    """Compute sums, means, deviations, and fairness at threshold `fair_eps`."""
    if not fair_eps > 0:
        raise InvalidInputError(f"fair_eps must be positive, got {fair_eps}")
    row_sums, col_sums, row_means, col_means, row_devs, col_devs = _kernels.line_stats(
        a.entries, a.n_rows, a.n_cols
    )
    fair_rows_idx = frozenset(i for i, d in enumerate(row_devs) if d < fair_eps)
    return DiscrepancyReport(
        row_sums=tuple(row_sums),
        col_sums=tuple(col_sums),
        row_means=tuple(row_means),
        col_means=tuple(col_means),
        max_row_deviation=max(row_devs),
        max_col_deviation=max(col_devs),
        fair_rows=max(row_devs) < fair_eps,
        fair_cols=max(col_devs) < fair_eps,
        fair_row_indices=fair_rows_idx,
        fair_eps=fair_eps,
    )


def fairness_transfer_check(
    a: Matrix, tol: TolerancePolicy = DEFAULT_TOL, fair_eps: float = 0.1
) -> CheckRecord:
    """Row fairness at eps should coincide with column fairness at 2*eps.

    Requires a positive, fully balanced matrix. The record's lhs/rhs carry
    the worst row and column deviations for diagnosis.
    """
    require_positive(a)
    require_balanced(a, tol)
    rep = discrepancy_report(a, fair_eps)
    cols_fair_slack = rep.max_col_deviation < TRANSFER_FACTOR * fair_eps
    holds = rep.fair_rows == cols_fair_slack
    return CheckRecord.verdict(
        "fairness_transfer", holds, rep.max_row_deviation, rep.max_col_deviation
    )


def one_fair_row_check(
    a: Matrix,
    tol: TolerancePolicy = DEFAULT_TOL,
    fair_eps: float = 0.1,
    unfair_theta: float = 1.0,
) -> CheckRecord | None:
    """If exactly one row is fair, the columns must carry a large deviation.

    Returns None (not applicable) when the premise fails, i.e. when the
    number of individually fair rows differs from one. For 2x2 matrices a
    balanced matrix cannot have exactly one fair row, so there the check
    verifies instead that the remaining row is fair at the widened 2*eps
    budget. For larger shapes the conclusion is that some column deviation
    reaches theta minus the slack eaten by fairness (eps) and by the spread
    of the row means.
    """
    if not unfair_theta > fair_eps:
        raise InvalidInputError(f"unfair_theta ({unfair_theta}) must exceed fair_eps ({fair_eps})")
    require_positive(a)
    require_balanced(a, tol)
    rep = discrepancy_report(a, fair_eps)
    if len(rep.fair_row_indices) != 1:
        return None
    if a.n_rows == 2 and a.n_cols == 2:
        return CheckRecord.bounded(
            "one_fair_row", rep.max_row_deviation, TRANSFER_FACTOR * fair_eps
        )
    mean_spread = max(rep.row_means) - min(rep.row_means)
    threshold = unfair_theta - fair_eps - mean_spread
    return CheckRecord.bounded("one_fair_row", threshold, rep.max_col_deviation)


def fairness_propagation_check(
    a: Matrix, tol: TolerancePolicy = DEFAULT_TOL, fair_eps: float = 0.1
) -> CheckRecord:
    """One fair row should drag every row to fairness (at the 2*eps budget).

    Conjecture-grade: the result is evidence, never an invariant. Holds
    vacuously when no row is fair at eps.
    """
    require_balanced(a, tol)
    rep = discrepancy_report(a, fair_eps)
    budget = TRANSFER_FACTOR * fair_eps
    if not rep.fair_row_indices:
        return CheckRecord(
            "fairness_propagation", True, rep.max_row_deviation, budget, -1.0
        )
    return CheckRecord.bounded("fairness_propagation", rep.max_row_deviation, budget)


def interior(
    a: Matrix, row_start: int, row_count: int, col_start: int, col_count: int
) -> Matrix:
    """Contiguous submatrix of `a`."""
    if row_count < 1 or col_count < 1:
        raise DimensionError("interior needs positive row_count and col_count")
    if not (0 <= row_start and row_start + row_count <= a.n_rows):
        raise DimensionError(
            f"rows [{row_start}, {row_start + row_count}) out of range for {a.n_rows} rows"
        )
    if not (0 <= col_start and col_start + col_count <= a.n_cols):
        raise DimensionError(
            f"cols [{col_start}, {col_start + col_count}) out of range for {a.n_cols} columns"
        )
    entries = []
    for i in range(row_start, row_start + row_count):
        base = i * a.n_cols
        entries.extend(a.entries[base + col_start : base + col_start + col_count])
    return Matrix(row_count, col_count, tuple(entries))


def _submatrix(a: Matrix, rows: tuple[int, ...], cols: tuple[int, ...]) -> Matrix:
    entries = tuple(a.entries[i * a.n_cols + j] for i in rows for j in cols)
    return Matrix(len(rows), len(cols), entries)


@dataclass(frozen=True)
class InteriorMatch:
    """A balanced interior: which rows/columns it uses and its report."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    matrix: Matrix
    report: BalanceReport


def _partial_sums(
    memo: dict[tuple[int, ...], list[float]], lines: list[list[float]], idx: tuple[int, ...]
) -> list[float]:
    """memo[idx]: elementwise sum of `lines[t]` for t in idx, added in order.

    The sum over idx extends the memoized sum over idx[:-1] by one line, so
    every index set costs one pass, and memo[()] seeds the 0.0 start.
    """
    got = memo.get(idx)
    if got is None:
        got = memo[idx] = list(map(add, _partial_sums(memo, lines, idx[:-1]), lines[idx[-1]]))
    return got


def _scan_interiors(
    a: Matrix, tol: TolerancePolicy, min_dim: int, contiguous: bool
) -> tuple[InteriorMatch | None, float]:
    """One pass over the proper square interiors of `a`, in search order.

    Returns the first fully balanced block (or None) and the lowest
    max(horizontal, vertical) defect among the blocks visited up to it.
    The entries are squared once. A block's square sums are added from
    those squares in the kernels' order, from 0.0 and first index to last,
    so its sums, defects and verdict equal `classify_balance` of the block
    bit for bit. Only the match is built as a Matrix.
    """
    n = a.n_rows
    sq = [e * e for e in a.entries]
    sq_rows = [sq[i * n : (i + 1) * n] for i in range(n)]
    sq_cols = [sq[j::n] for j in range(n)]
    # by_cols[S][i]: square sum of row i over the columns S; by_rows[S][j]
    # likewise for column j over the rows S.
    by_cols: dict[tuple[int, ...], list[float]] = {(): [0.0] * n}
    by_rows: dict[tuple[int, ...], list[float]] = {(): [0.0] * n}
    # Looked up per call: instrumentation may rebind the kernel attributes.
    spread_defect = _kernels.spread_defect
    sums_all_close = _kernels.sums_all_close
    rtol, atol = tol.rtol, tol.atol
    best = math.inf
    for dim in range(n - 1, min_dim - 1, -1):
        if contiguous:
            index_sets = [tuple(range(s, s + dim)) for s in range(n - dim + 1)]
        else:
            index_sets = [tuple(c) for c in combinations(range(n), dim)]
        pickers = [itemgetter(*idx) for idx in index_sets]
        row_parts = [_partial_sums(by_cols, sq_cols, idx) for idx in index_sets]
        col_parts = [_partial_sums(by_rows, sq_rows, idx) for idx in index_sets]
        for rows, pick_rows, col_part in zip(index_sets, pickers, col_parts):
            for cols, pick_cols, row_part in zip(index_sets, pickers, row_parts):
                rs = pick_rows(row_part)
                cs = pick_cols(col_part)
                h_defect = spread_defect(rs)
                v_defect = spread_defect(cs)
                defect = max(h_defect, v_defect)
                if defect < best:
                    best = defect
                if not (sums_all_close(rs, rtol, atol) and sums_all_close(cs, rtol, atol)):
                    continue
                sub = _submatrix(a, rows, cols)
                # Tiny entries can square to 0.0: test the entries themselves.
                if sub.is_zero:
                    continue
                report = BalanceReport(rs, cs, h_defect, v_defect, True, True, True, False)
                return InteriorMatch(rows=rows, cols=cols, matrix=sub, report=report), best
    return None, best


def _interior_search(
    a: Matrix, tol: TolerancePolicy, min_dim: int, contiguous: bool = True
) -> tuple[InteriorMatch | None, float]:
    """`find_balanced_interior`'s checks and scan; also returns the best defect."""
    if not a.is_square:
        raise DimensionError(f"interior search needs a square matrix, got {a.n_rows}x{a.n_cols}")
    n = a.n_rows
    if not 2 <= min_dim < n:
        raise InvalidInputError(f"min_dim must satisfy 2 <= min_dim < {n}, got {min_dim}")
    require_balanced(a, tol)
    return _scan_interiors(a, tol, min_dim, contiguous)


def find_balanced_interior(
    a: Matrix,
    tol: TolerancePolicy = DEFAULT_TOL,
    min_dim: int = 2,
    contiguous: bool = True,
) -> InteriorMatch | None:
    """First balanced proper square interior of a balanced square matrix.

    Scans largest dimension first, then lowest row index, then lowest column
    index, so the result is deterministic. With contiguous=False the scan
    covers arbitrary row/column index subsets (in lexicographic order) at
    combinatorial cost; the default keeps the search polynomial.

    Returns None when no balanced interior exists at the given tolerance;
    such inputs are candidate counterexamples to the claim that every
    balanced matrix contains a balanced subsystem.
    """
    return _interior_search(a, tol, min_dim, contiguous)[0]
