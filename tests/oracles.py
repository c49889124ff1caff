"""Independent oracles for the test suite.

Everything here recomputes expected values by a different route than the
library under test: cofactor expansion instead of the elimination trail,
direct replay of row operations instead of the rref internals, literal
transcriptions of the defining conditions, and the interior search as first
written, block by block. Keep these free of balmat internals beyond the
public API.
"""

from __future__ import annotations

import dataclasses
import math

from balmat.algebra import ElementaryOp
from balmat.balance import balance_defect, classify_balance
from balmat.core import CheckRecord, Matrix, TolerancePolicy
from balmat.discrepancy import InteriorMatch, discrepancy_report, interior


def canonical(obj):
    """JSON-ready copy of `obj`: dataclasses as dicts, floats as hex strings.

    Two values with equal canonical forms agree bit for bit.
    """
    if isinstance(obj, float):
        return obj.hex()
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if dataclasses.is_dataclass(obj):
        return {f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [canonical(v) for v in obj]
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def det_cofactor(rows: list[list[float]]) -> float:
    """Determinant by recursive cofactor expansion along the first row."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return rows[0][0]
    total = 0.0
    sign = 1.0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += sign * rows[0][j] * det_cofactor(minor)
        sign = -sign
    return total


def apply_trail(rows: list[list[float]], trail: tuple[ElementaryOp, ...]) -> list[list[float]]:
    """Replay elementary row operations on a copy of `rows`."""
    out = [list(r) for r in rows]
    for op in trail:
        if op.kind == "swap_rows":
            out[op.i], out[op.j] = out[op.j], out[op.i]
        elif op.kind == "scale_row":
            out[op.i] = [op.factor * v for v in out[op.i]]
        elif op.kind == "add_multiple":
            out[op.i] = [a + op.factor * b for a, b in zip(out[op.i], out[op.j])]
        else:
            raise AssertionError(f"unknown op kind {op.kind}")
    return out


def is_rref(rows: list[list[float]], zero_tol: float) -> bool:
    """Literal check of the four reduced-row-echelon-form conditions.

    Entries with magnitude at or below zero_tol count as zero (matching the
    pivot threshold used during elimination); leading entries must be
    exactly 1 and pivot columns exactly zero elsewhere.
    """
    n = len(rows)
    m = len(rows[0])

    def leading(row):
        for j, v in enumerate(row):
            if abs(v) > zero_tol:
                return j
        return None

    leads = [leading(r) for r in rows]

    # (ii) zero rows at the bottom
    seen_zero = False
    for lead in leads:
        if lead is None:
            seen_zero = True
        elif seen_zero:
            return False
    # (i) leading term of each nonzero row is exactly 1
    for i, lead in enumerate(leads):
        if lead is not None and rows[i][lead] != 1.0:
            return False
    # (iii) leading terms move strictly right
    prev = -1
    for lead in leads:
        if lead is None:
            break
        if lead <= prev:
            return False
        prev = lead
    # (iv) pivot columns are zero in every other row
    for i, lead in enumerate(leads):
        if lead is None:
            continue
        for i2 in range(n):
            if i2 != i and rows[i2][lead] != 0.0:
                return False
    return True


def homomorphism_residual(a_rows, b_rows) -> float:
    """|det(A+B) - det(A) - det(B)| for 2x2 inputs, fully expanded."""
    (a1, a2), (a3, a4) = a_rows
    (b1, b2), (b3, b4) = b_rows
    lhs = (a1 + b1) * (a4 + b4) - (a2 + b2) * (a3 + b3)
    rhs = (a1 * a4 - a2 * a3) + (b1 * b4 - b2 * b3)
    return abs(lhs - rhs)


def square_sum_lists(rows):
    """(row_sums, col_sums) of squared entries, straight from the definition."""
    row_sums = [sum(v * v for v in r) for r in rows]
    col_sums = [sum(r[j] * r[j] for r in rows) for j in range(len(rows[0]))]
    return row_sums, col_sums


def line_deviation_lists(rows):
    """(row_devs, col_devs): worst |entry - line mean| per row and column."""
    n, m = len(rows), len(rows[0])
    row_devs = [max(abs(sum(r) / m - v) for v in r) for r in rows]
    col_devs = []
    for j in range(m):
        col = [rows[i][j] for i in range(n)]
        mean = sum(col) / n
        col_devs.append(max(abs(mean - v) for v in col))
    return row_devs, col_devs


def interior_scan_reference(a: Matrix, tol, min_dim: int):
    """(first balanced interior, lowest max defect) by building every block.

    Each block, in search order (largest dim, then rows, then columns), is
    built as a Matrix and classified by `classify_balance`. The defect is
    the lowest max(horizontal, vertical) defect among the blocks visited up
    to the match. With no match it comes from a second pass that builds
    every block again through `interior()`, as the interior-conjecture
    check did.
    """
    n = a.n_rows
    best = math.inf
    for dim in range(n - 1, min_dim - 1, -1):
        index_sets = [tuple(range(s, s + dim)) for s in range(n - dim + 1)]
        for rows in index_sets:
            for cols in index_sets:
                sub = Matrix(dim, dim, tuple(a.entries[i * n + j] for i in rows for j in cols))
                report = classify_balance(sub, tol)
                if report.max_defect < best:
                    best = report.max_defect
                if report.fully_balanced:
                    return InteriorMatch(rows, cols, sub, report), best
    best = math.inf
    for dim in range(n - 1, min_dim - 1, -1):
        for r in range(n - dim + 1):
            for c in range(n - dim + 1):
                block = interior(a, r, dim, c, dim)
                d = max(balance_defect(block, "rows"), balance_defect(block, "columns"))
                if d < best:
                    best = d
    return None, best


def corollary_reference(a: Matrix, tol, fair_eps: float) -> CheckRecord | None:
    """The interior-fair-corollary check as first written, block by block.

    Every contiguous block with at least two rows and two columns, other
    than `a` itself, is built through `interior()` and classified by
    `classify_balance` at the widened tolerance.
    """
    if min(a.n_rows, a.n_cols) < 3:
        return None
    if not classify_balance(a, tol).fully_balanced:
        return None
    drep = discrepancy_report(a, fair_eps)
    if not (drep.fair_rows or drep.fair_cols):
        return None
    max_abs = max(abs(e) for e in a.entries)
    widened = TolerancePolicy(
        tol.rtol,
        tol.atol + 4.0 * fair_eps * max_abs * max(a.n_rows, a.n_cols),
    )
    ok = True
    worst = 0.0
    for r_count in range(2, a.n_rows + 1):
        for c_count in range(2, a.n_cols + 1):
            if r_count == a.n_rows and c_count == a.n_cols:
                continue
            for r0 in range(a.n_rows - r_count + 1):
                for c0 in range(a.n_cols - c_count + 1):
                    rep = classify_balance(interior(a, r0, r_count, c0, c_count), widened)
                    if not rep.fully_balanced:
                        ok = False
                        if rep.max_defect > worst:
                            worst = rep.max_defect
    return CheckRecord.verdict("interior_fair_corollary", ok, worst, widened.atol)


# The balance kernels as they were before they looped over slices, kept
# verbatim: index arithmetic and the pairwise comparison with no screen.
# The kernels in `balmat._kernels` must agree with these bit for bit.


def row_square_sums(entries, n, m):
    """Per-row sums of squared entries."""
    out = []
    for i in range(n):
        base = i * m
        s = 0.0
        for j in range(m):
            e = entries[base + j]
            s += e * e
        out.append(s)
    return out


def col_square_sums(entries, n, m):
    """Per-column sums of squared entries."""
    out = []
    for j in range(m):
        s = 0.0
        for i in range(n):
            e = entries[i * m + j]
            s += e * e
        out.append(s)
    return out


def sums_all_close(sums, rtol, atol):
    """Whether every pair of values agrees within atol + rtol*max(|x|,|y|)."""
    k = len(sums)
    for r in range(k):
        sr = sums[r]
        for s in range(r + 1, k):
            ss = sums[s]
            ar = sr if sr >= 0.0 else -sr
            as_ = ss if ss >= 0.0 else -ss
            hi = ar if ar >= as_ else as_
            diff = sr - ss
            if diff < 0.0:
                diff = -diff
            if diff > atol + rtol * hi:
                return False
    return True


def line_stats(entries, n, m):
    """Row/column entry sums, means, and per-line worst deviation from the mean.

    Returns (row_sums, col_sums, row_means, col_means, row_devs, col_devs)
    where row_devs[i] = max_j |row_means[i] - a_ij| and col_devs likewise.
    """
    row_sums = []
    row_means = []
    row_devs = []
    for i in range(n):
        base = i * m
        s = 0.0
        for j in range(m):
            s += entries[base + j]
        mean = s / m
        dev = 0.0
        for j in range(m):
            d = mean - entries[base + j]
            if d < 0.0:
                d = -d
            if d > dev:
                dev = d
        row_sums.append(s)
        row_means.append(mean)
        row_devs.append(dev)
    col_sums = []
    col_means = []
    col_devs = []
    for j in range(m):
        s = 0.0
        for i in range(n):
            s += entries[i * m + j]
        mean = s / n
        dev = 0.0
        for i in range(n):
            d = mean - entries[i * m + j]
            if d < 0.0:
                d = -d
            if d > dev:
                dev = d
        col_sums.append(s)
        col_means.append(mean)
        col_devs.append(dev)
    return row_sums, col_sums, row_means, col_means, row_devs, col_devs


# The random orthogonal generator as it was before its Gaussian draws were
# inlined and its dead stores dropped, kept verbatim: `rng.gauss` draws, the
# full Householder update of the sample and of Q, Q started at the identity.
# `balmat.genfuzz._random_orthogonal` must agree with it bit for bit.


def _sum_squares(xs) -> float:
    s = 0.0
    for v in xs:
        s += v * v
    return s


def random_orthogonal(rng, n: int) -> list[list[float]]:
    """Random orthogonal matrix: Householder QR of a Gaussian sample."""
    if n == 1:
        return [[1.0 if rng.random() < 0.5 else -1.0]]
    gauss = rng.gauss
    a = [[gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)]
    q = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for k in range(n - 1):
        x = [a[i][k] for i in range(k, n)]
        norm = math.sqrt(_sum_squares(x))
        if norm == 0.0:
            continue
        alpha = -norm if x[0] >= 0.0 else norm
        v = list(x)
        v[0] -= alpha
        vnorm2 = _sum_squares(v)
        if vnorm2 == 0.0:
            continue
        beta = 2.0 / vnorm2
        # Apply I - beta v v^T to rows k.. of a (from the left) and to
        # columns k.. of q (from the right).
        lower = list(zip(v, a[k:]))
        for j in range(k, n):
            w = 0.0
            for vt, row in lower:
                w += vt * row[j]
            w *= beta
            for vt, row in lower:
                row[j] -= w * vt
        right = list(zip(range(k, n), v))
        for row in q:
            w = 0.0
            for col, vt in right:
                w += row[col] * vt
            w *= beta
            for col, vt in right:
                row[col] -= w * vt
    # Fix reflection signs so the implicit R has a positive diagonal.
    for j in range(n):
        if a[j][j] < 0.0:
            for i in range(n):
                q[i][j] = -q[i][j]
    return q
