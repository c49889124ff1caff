"""Numeric kernels on flat row-major lists of floats with explicit dimensions."""

import math

#: The kernel implementation in use; reported by `balmat --backend-info`.
BACKEND = "python"

# Elementary row-operation codes used in rref trails.
OP_SWAP = 0
OP_SCALE = 1
OP_ADDMUL = 2


def row_square_sums(entries, n, m):
    """Per-row sums of squared entries."""
    out = []
    for base in range(0, n * m, m):
        s = 0.0
        for e in entries[base : base + m]:
            s += e * e
        out.append(s)
    return out


def col_square_sums(entries, n, m):
    """Per-column sums of squared entries."""
    out = []
    for j in range(m):
        s = 0.0
        for e in entries[j::m]:
            s += e * e
        out.append(s)
    return out


def sums_all_close(sums, rtol, atol):
    """Whether every pair of values agrees within atol + rtol*max(|x|,|y|)."""
    k = len(sums)
    if k < 2:
        return True
    # Screen for non-negative sums and tolerances (NaN never compares, so
    # it is skipped): no pair is further apart than max - min, and every
    # pair's allowance lies between those at min and at max. Rounding is
    # monotone, so both answers below agree with the pairwise loop.
    lo = hi = sums[0]
    for v in sums:
        if v < lo:
            lo = v
        elif v > hi:
            hi = v
    if lo >= 0.0 and rtol >= 0.0 and atol >= 0.0:
        span = hi - lo
        if span <= atol + rtol * lo:
            return True
        if span > atol + rtol * hi:
            return False
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


def spread_defect(sums):
    """Normalized spread (max-min)/max(1, max) of a list of non-negative sums."""
    lo = sums[0]
    hi = sums[0]
    for v in sums:
        if v < lo:
            lo = v
        if v > hi:
            hi = v
    denom = hi if hi > 1.0 else 1.0
    return (hi - lo) / denom


def spectrum2(a, b, c, d):
    """Eigenvalues of [[a, b], [c, d]] via the stable quadratic formula.

    Returns (lam1, lam2, is_complex). For a real spectrum lam1 is the root
    of smaller magnitude and lam2 the larger; for a complex pair lam1 holds
    the shared real part and lam2 the shared modulus.
    """
    tr = a + d
    det = a * d - b * c
    disc = (a - d) * (a - d) + 4.0 * (b * c)
    if disc < 0.0:
        # modulus^2 = (tr/2)^2 + |disc|/4 = det, but computed without the
        # cancellation that ad - bc suffers near the real/complex boundary
        return 0.5 * tr, 0.5 * math.sqrt(tr * tr - disc), True
    s = math.sqrt(disc)
    q = 0.5 * (tr + s) if tr >= 0.0 else 0.5 * (tr - s)
    if q == 0.0:
        return 0.0, 0.0, False
    other = det / q
    # det/q can land an ulp above q for (near-)repeated roots; keep the
    # magnitude ordering exact
    if abs(other) > abs(q):
        return q, other, False
    return other, q, False


def rref(entries, n, m, pivot_tol, forward_only=False):
    """Reduced row echelon form with a trail of elementary row operations.

    Partial pivoting: the largest-magnitude candidate in each column is
    swapped into pivot position; candidates at or below `pivot_tol` are
    treated as zero. Pivot entries are forced to exactly 1.0 and eliminated
    entries to exactly 0.0. Returns (reduced_entries, trail, rank) where the
    trail is a list of (op_code, i, j, factor) tuples.

    With `forward_only` set, rows above each pivot are left as they are, so
    the result is a row echelon form with unit pivots. A row is complete by
    the time it becomes the pivot row, so the swaps, the scale factors and
    the rank are bit for bit those of the full reduction.
    """
    r = list(entries)
    trail = []
    pivot_row = 0
    for col in range(m):
        if pivot_row >= n:
            break
        best = pivot_row
        best_abs = abs(r[pivot_row * m + col])
        for i in range(pivot_row + 1, n):
            v = abs(r[i * m + col])
            if v > best_abs:
                best = i
                best_abs = v
        if best_abs <= pivot_tol:
            continue
        if best != pivot_row:
            a_base = pivot_row * m
            b_base = best * m
            for j in range(m):
                r[a_base + j], r[b_base + j] = r[b_base + j], r[a_base + j]
            trail.append((OP_SWAP, pivot_row, best, 0.0))
        pivot = r[pivot_row * m + col]
        if pivot != 1.0:
            f = 1.0 / pivot
            base = pivot_row * m
            for j in range(m):
                r[base + j] *= f
            r[base + col] = 1.0
            trail.append((OP_SCALE, pivot_row, pivot_row, f))
        p_base = pivot_row * m
        for i in range(pivot_row + 1 if forward_only else 0, n):
            if i == pivot_row:
                continue
            x = r[i * m + col]
            if x != 0.0:
                f = -x
                base = i * m
                for j in range(m):
                    r[base + j] += f * r[p_base + j]
                r[base + col] = 0.0
                trail.append((OP_ADDMUL, i, pivot_row, f))
        pivot_row += 1
    return r, trail, pivot_row


def line_stats(entries, n, m):
    """Row/column entry sums, means, and per-line worst deviation from the mean.

    Returns (row_sums, col_sums, row_means, col_means, row_devs, col_devs)
    where row_devs[i] = max_j |row_means[i] - a_ij| and col_devs likewise.
    """
    row_sums, row_means, row_devs = _line_stats([entries[b : b + m] for b in range(0, n * m, m)])
    col_sums, col_means, col_devs = _line_stats([entries[j::m] for j in range(m)])
    return row_sums, col_sums, row_means, col_means, row_devs, col_devs


def _line_stats(lines):
    """Per-line entry sums, means and worst deviations from the mean."""
    sums = []
    means = []
    devs = []
    for line in lines:
        s = 0.0
        lo = hi = line[0]
        for e in line:
            s += e
            if e < lo:
                lo = e
            elif e > hi:
                hi = e
        mean = s / len(line)
        # Rounding is monotone, so the entry furthest from the mean is the
        # lowest or the highest.
        dev = 0.0
        d = mean - lo
        if d > dev:
            dev = d
        d = hi - mean
        if d > dev:
            dev = d
        sums.append(s)
        means.append(mean)
        devs.append(dev)
    return sums, means, devs
