"""Row/column discrepancy, fairness classification, and interior search.

The discrepancy of a line (row or column) is its plain entry sum. A line is
*fair* at threshold eps when every entry sits strictly within eps of the
line's mean; it is *unfair* when some entry deviates by at least a larger
threshold theta. For balanced matrices, fairness transfers between rows and
columns. An interior is a contiguous block: the interior search and the check
that fair matrices keep balanced interiors read block square sums from one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add

from balmat import _kernels
from balmat.balance import BalanceReport, classify_balance, nan_max, require_balanced, require_positive
from balmat.core import DEFAULT_TOL, CheckRecord, Matrix, TolerancePolicy, _generated_matrix, one_write_init
from balmat.errors import DimensionError, InvalidInputError

#: Tolerance widening applied when a fairness verdict is transported to the
#: other axis: the argument passes through two approximations (line means
#: agree, then entries agree), so the receiving side gets twice the budget.
TRANSFER_FACTOR = 2.0


@one_write_init
@dataclass(frozen=True, init=False)
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
    if not 0.0 < fair_eps < math.inf:
        raise InvalidInputError(f"fair_eps must be finite and positive, got {fair_eps}")
    row_sums, col_sums, row_means, col_means, row_devs, col_devs = _kernels.line_stats(
        a.entries, a.n_rows, a.n_cols
    )
    fair_rows_idx = frozenset(i for i, d in enumerate(row_devs) if d < fair_eps)
    max_row_dev, max_col_dev = max(row_devs), max(col_devs)
    return DiscrepancyReport(
        row_sums=tuple(row_sums),
        col_sums=tuple(col_sums),
        row_means=tuple(row_means),
        col_means=tuple(col_means),
        max_row_deviation=max_row_dev,
        max_col_deviation=max_col_dev,
        fair_rows=max_row_dev < fair_eps,
        fair_cols=max_col_dev < fair_eps,
        fair_row_indices=fair_rows_idx,
        fair_eps=fair_eps,
    )


def fairness_transfer_check(
    a: Matrix, tol: TolerancePolicy = DEFAULT_TOL, fair_eps: float = 0.1
) -> CheckRecord:
    """Fairness at eps on one axis should transfer to the other axis at 2*eps.

    Requires a positive, fully balanced matrix. Fair rows imply columns
    fair at the widened budget, and fair columns imply rows fair at it. An
    implication, not an equivalence: on [[a, b], [b, a]] both deviations
    are |a - b| / 2, and a deviation in [eps, 2*eps) leaves both axes
    unfair at eps and fair at 2*eps. The record's lhs/rhs carry the worst
    row and column deviations for diagnosis.
    """
    require_positive(a)
    require_balanced(a, tol)
    rep = discrepancy_report(a, fair_eps)
    budget = TRANSFER_FACTOR * fair_eps
    holds = (not rep.fair_rows or rep.max_col_deviation < budget) and (
        not rep.fair_cols or rep.max_row_deviation < budget
    )
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


def interior(a: Matrix, row_start: int, row_count: int, col_start: int, col_count: int) -> Matrix:
    """Contiguous submatrix of `a`: the one way a block is built."""
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
    return _generated_matrix(row_count, col_count, tuple(entries))


@dataclass(frozen=True)
class InteriorMatch:
    """A balanced interior: which rows/columns it uses and its report."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    matrix: Matrix
    report: BalanceReport


def _run_square_sums(a: Matrix) -> tuple[list[list[list[float]]], list[list[list[float]]]]:
    """(by_cols, by_rows): the square sums of every contiguous run of lines.

    by_cols[k][t][i] is row i's square sum over columns t..t+k-1, by_rows[k][s][j]
    column j's over rows s..s+k-1. A run is the run one line shorter plus its
    last line, as the kernels add from 0.0; one-line runs are the squares, as
    0.0 + x is x for a square x. So the block at rows s..s+r-1, columns t..t+c-1
    has the row and column square sums by_cols[c][t][s : s + r] and
    by_rows[r][s][t : t + c] that `classify_balance` finds for it, bit for bit.
    """
    m = a.n_cols
    sq = [e * e for e in a.entries]
    tables = []
    for lines in ([sq[j::m] for j in range(m)], [sq[b : b + m] for b in range(0, len(sq), m)]):
        runs = [[], lines]
        for k in range(2, len(lines) + 1):
            runs.append([list(map(add, run, line)) for run, line in zip(runs[-1], lines[k - 1 :])])
        tables.append(runs)
    return tables[0], tables[1]


def _scan_interiors(a: Matrix, tol: TolerancePolicy, min_dim: int) -> tuple[InteriorMatch | None, float]:
    """One pass over the proper square interiors of `a`, in search order.

    Returns the first fully balanced block (or None) and the lowest
    max(horizontal, vertical) defect among the blocks visited up to it.
    Each block's square sums are slices of one run-sum table, so its sums,
    defects and verdict equal `classify_balance` of the block bit for bit.
    Only a block whose axes both pass `axis_balance` is built and classified.
    """
    n = a.n_rows
    by_cols, by_rows = _run_square_sums(a)
    # Looked up per call: instrumentation may rebind the kernel attributes.
    axis_balance = _kernels.axis_balance
    rtol, atol = tol.rtol, tol.atol
    best = math.inf
    for dim in range(n - 1, min_dim - 1, -1):
        row_runs = by_cols[dim]
        for r0, col_run in enumerate(by_rows[dim]):
            for c0, row_run in enumerate(row_runs):
                h_defect, h_bal = axis_balance(row_run[r0 : r0 + dim], rtol, atol)
                v_defect, v_bal = axis_balance(col_run[c0 : c0 + dim], rtol, atol)
                # builtin max(h_defect, v_defect), without the call
                defect = v_defect if v_defect > h_defect else h_defect
                if defect < best:
                    best = defect
                if not (h_bal and v_bal):
                    continue
                sub = interior(a, r0, dim, c0, dim)
                report = classify_balance(sub, tol)
                if report.fully_balanced:
                    rows, cols = tuple(range(r0, r0 + dim)), tuple(range(c0, c0 + dim))
                    return InteriorMatch(rows, cols, sub, report), best
    return None, best


def _interiors_balanced(a: Matrix, tol: TolerancePolicy) -> tuple[bool, float]:
    """Whether every proper interior of `a` is fully balanced, and the worst.

    Covers each contiguous block of two or more rows and columns but `a`
    itself; worst is the largest max(horizontal, vertical) defect among the
    unbalanced ones (a NaN defect, from an overflowed sum, is passed
    over), or 0.0. Verdicts and defects are `classify_balance`'s, bit for
    bit; only a block whose square sums are all 0.0 is built.
    """
    n, m = a.n_rows, a.n_cols
    by_cols, by_rows = _run_square_sums(a)
    axis_balance = _kernels.axis_balance
    rtol, atol = tol.rtol, tol.atol
    ok = True
    worst = 0.0
    for r_count in range(2, n + 1):
        for c_count in range(2, m + 1):
            if r_count == n and c_count == m:
                continue
            row_runs = by_cols[c_count]
            for r0, col_run in enumerate(by_rows[r_count]):
                for c0, row_run in enumerate(row_runs):
                    rs = row_run[r0 : r0 + r_count]
                    h_defect, h_bal = axis_balance(rs, rtol, atol)
                    v_defect, v_bal = axis_balance(col_run[c0 : c0 + c_count], rtol, atol)
                    if h_bal and v_bal and (any(rs) or not interior(a, r0, r_count, c0, c_count).is_zero):
                        continue
                    ok = False
                    defect = nan_max(h_defect, v_defect)
                    if defect > worst:
                        worst = defect
    return ok, worst


def _interior_search(a: Matrix, tol: TolerancePolicy, min_dim: int) -> tuple[InteriorMatch | None, float]:
    """`find_balanced_interior`'s checks and scan; also returns the best defect."""
    if not a.is_square:
        raise DimensionError(f"interior search needs a square matrix, got {a.n_rows}x{a.n_cols}")
    n = a.n_rows
    if n < 3:
        raise InvalidInputError(f"interior search needs at least 3 rows, got {n}x{n}")
    if not 2 <= min_dim < n:
        raise InvalidInputError(f"min_dim must satisfy 2 <= min_dim < {n}, got {min_dim}")
    require_balanced(a, tol)
    return _scan_interiors(a, tol, min_dim)


def find_balanced_interior(
    a: Matrix, tol: TolerancePolicy = DEFAULT_TOL, min_dim: int = 2
) -> InteriorMatch | None:
    """First balanced proper square interior of a balanced square matrix.

    An interior is a contiguous block of at least `min_dim` rows and as
    many columns. The scan goes largest dimension first, then lowest row
    index, then lowest column index, so the result is deterministic; it
    visits at most (n - d + 1)^2 blocks of each dimension d.

    Returns None when no balanced interior exists at the given tolerance;
    such inputs are candidate counterexamples to the claim that every
    balanced matrix contains a balanced subsystem.
    """
    return _interior_search(a, tol, min_dim)[0]
