"""Numeric kernels on flat row-major lists of floats with explicit dimensions.

Balance (square sums, defects and verdicts) and line statistics run, for
n, m <= `_SHAPE_KERNEL_MAX_N`, as straight-line functions generated for
their (n, m) shape: the entries are unpacked into locals and every loop is
written out, so no slicing, `for` iteration or `append` is left around the
arithmetic. Each performs the loop's float operations on the same operands
in the same order, so the results are the loop's bit for bit. The
generated code calls no function but `sums_all_close`, for the rare
balance verdict that the screen of `axis_balance` leaves open: on CPython
3.11 a builtin `min()` or `max()` call costs more than the comparisons it
would replace. Larger shapes run the loops.

`_kernel` compiles every generated kernel, these and those of `algebra`
(the determinant) and `genfuzz` (the Householder draw), on first use of
its builder and shape, never at import, and caches it. Each builder sits
beside its one caller, so a command that never loads a module compiles
none of its kernels. `forward` is the one partial-pivot elimination:
`rref` adds back-substitution, and `algebra.det_via_trail` falls back to it
where the generated determinant declines.

Every kernel takes n, m >= 1, which `Matrix` guarantees.
"""

import functools
import math

#: The kernel implementation in use; reported by `balmat --backend-info`.
BACKEND = "python"


def sum_squares(values):
    """Left-to-right sum of squares from 0.0; builtin sum() rounds floats differently since 3.12."""
    s = 0.0
    for v in values:
        s += v * v
    return s


def row_square_sums(entries, n, m):
    """Per-row sums of squared entries: `balance`'s loop above the shape bound."""
    return [sum_squares(entries[base : base + m]) for base in range(0, n * m, m)]


def col_square_sums(entries, n, m):
    """Per-column sums of squared entries: `balance`'s loop above the shape bound."""
    return [sum_squares(entries[j::m]) for j in range(m)]


def sums_all_close(sums, rtol, atol):
    """Whether every pair of values agrees within atol + rtol*max(|x|,|y|): `axis_balance`'s fallback."""
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


def spread_defect(sums):
    """`axis_balance`'s defect; at zero tolerances its verdict never needs the pairwise loop."""
    return axis_balance(sums, 0.0, 0.0)[0]


def axis_balance(sums, rtol, atol):
    """(defect, verdict) of one axis's square sums, from one scan.

    The defect is (hi - lo) / max(1, hi) of the highest and lowest sum. The
    verdict is False when it is not finite (a sum overflowed, and the loop
    would call infinite sums close), else `sums_all_close(sums, rtol, atol)`.
    With sums and tolerances non-negative (`TolerancePolicy`), every pair's
    difference is at most hi - lo and its allowance lies between those at lo
    and at hi; rounding is monotone, so only a span between them needs the loop.
    """
    lo = hi = sums[0]
    for v in sums:
        if v < lo:
            lo = v
        elif v > hi:
            hi = v
    span = hi - lo
    defect = span / (hi if hi > 1.0 else 1.0)
    if defect - defect != 0.0:  # not finite
        return defect, False
    if span <= atol + rtol * lo:
        return defect, True
    if span > atol + rtol * hi:
        return defect, False
    return defect, sums_all_close(sums, rtol, atol)


def balance(entries, n, m, rtol, atol):
    """Square sums, defects and verdicts of both axes, from one pass.

    Returns (row_sums, col_sums, h_defect, v_defect, h_balanced,
    v_balanced), the sums as tuples: `row_square_sums`, `col_square_sums`,
    and `axis_balance` of each, bit for bit. Entries are finite, as
    `Matrix` makes them, and rtol, atol non-negative.
    """
    if n <= _SHAPE_KERNEL_MAX_N and m <= _SHAPE_KERNEL_MAX_N:
        return _kernel(_balance_source, n, m)(entries, rtol, atol)
    rs = tuple(row_square_sums(entries, n, m))
    cs = tuple(col_square_sums(entries, n, m))
    h_defect, h_bal = axis_balance(rs, rtol, atol)
    v_defect, v_bal = axis_balance(cs, rtol, atol)
    return rs, cs, h_defect, v_defect, h_bal, v_bal


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


def forward(entries, n, m, pivot_tol):
    """Forward elimination with partial pivoting, for `rref` and the determinant.

    Each column's largest-magnitude candidate is swapped into pivot position
    and scaled to exactly 1.0, and the entries below it are cleared to 0.0.
    Candidates at or below `pivot_tol` count as zero and are stored as 0.0,
    so that scaling a later pivot row cannot lift a residue above pivot_tol.
    Returns (reduced_entries, steps, pivots): the steps are (kind, i, j,
    factor) tuples, the fields of `algebra.ElementaryOp`; each pivot is
    (column, index in steps of its first step below it).
    """
    r = list(entries)
    steps = []
    pivots = []
    for col in range(m):
        p = len(pivots)
        if p >= n:
            break
        best = p
        best_abs = abs(r[p * m + col])
        for i in range(p + 1, n):
            v = abs(r[i * m + col])
            if v > best_abs:
                best = i
                best_abs = v
        if best_abs <= pivot_tol:
            for i in range(p, n):
                r[i * m + col] = 0.0
            continue
        p_base = p * m
        p_end = p_base + m
        if best != p:
            b_base = best * m
            r[p_base:p_end], r[b_base : b_base + m] = r[b_base : b_base + m], r[p_base:p_end]
            steps.append(("swap_rows", p, best, 0.0))
        pivot = r[p_base + col]
        if pivot != 1.0:
            f = 1.0 / pivot
            r[p_base:p_end] = [v * f for v in r[p_base:p_end]]
            r[p_base + col] = 1.0
            steps.append(("scale_row", p, p, f))
        pivots.append((col, len(steps)))
        _clear(r, m, range(p + 1, n), p, col, steps)
    return r, steps, pivots


def rref(entries, n, m, pivot_tol):
    """Reduced row echelon form with a trail of elementary row operations.

    `forward`, then each pivot in increasing order clears its column above
    it. Each row thus takes the one-pass Gauss-Jordan reduction's steps in
    its order, so the entries are its bits, and each pivot's steps above go
    into the trail where that reduction records them: after its scale.
    Returns (reduced_entries, trail, rank), the trail as `forward`'s steps.
    """
    r, steps, pivots = forward(entries, n, m, pivot_tol)
    trail = []
    done = 0
    for p, (col, below) in enumerate(pivots):
        trail += steps[done:below]
        done = below
        _clear(r, m, range(p), p, col, trail)
    trail += steps[done:]
    return r, trail, len(pivots)


def _clear(r, m, rows, p, col, trail):
    """Clear column `col` of `rows` with pivot row p, whose pivot is 1.0, recording each step."""
    p_base = p * m
    pivot_row = r[p_base : p_base + m]
    for i in rows:
        base = i * m
        x = r[base + col]
        if x != 0.0:
            f = -x
            j = base
            for w in pivot_row:
                r[j] += f * w
                j += 1
            r[base + col] = 0.0
            trail.append(("add_multiple", i, p, f))


def line_stats(entries, n, m):
    """Row/column entry sums, means, and per-line worst deviation from the mean.

    Returns (row_sums, col_sums, row_means, col_means, row_devs, col_devs)
    where row_devs[i] = max_j |row_means[i] - a_ij| and col_devs likewise.
    """
    if n <= _SHAPE_KERNEL_MAX_N and m <= _SHAPE_KERNEL_MAX_N:
        return _kernel(_line_stats_source, n, m)(entries)
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


# ---------------------------------------------------------------------------
# Generated straight-line kernels
# ---------------------------------------------------------------------------

#: Largest n and m for which balance, line statistics and determinants
#: run as generated straight-line code; larger shapes run the loops. Every shape
#: measured from 1x1 to 16x16 runs faster than the loop, so this is a budget
#: for compile time and memory, set at the largest shape a benchmark
#: workload runs. Compiling the 8x8 line statistics takes ~3.4 ms and the
#: compiler peaks at ~1.5 MiB, which a fresh process keeps as RSS; at 16x16
#: that is ~16-23 ms and ~5.7 MiB for a kernel a one-shot command calls once.
_SHAPE_KERNEL_MAX_N = 8


@functools.lru_cache(maxsize=None)
def _kernel(build, *shape):
    """The function that the source `build(*shape)` defines, compiled once per builder and shape.

    A source opens with `def <name>(`; it compiles as the file "<name>",
    beside the two names generated code calls, `pairs_close` and `sqrt`.
    """
    source = build(*shape)
    name = source[len("def ") : source.index("(")]
    namespace = {"pairs_close": sums_all_close, "sqrt": math.sqrt}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]


def _lines(n, m):
    """The locals of n x m entries by row and by column: entry k of the row-major input is e<k>."""
    e = [f"e{k}" for k in range(n * m)]
    return [e[b : b + m] for b in range(0, n * m, m)], [e[j::m] for j in range(m)]


def _line_stats_source(n, m):
    """Source of the n x m `line_stats` kernel, built from the shape alone.

    Row i's sum, mean and deviation are the locals rs<i>, rm<i>, rd<i>, and
    column j's cs<j>, cm<j>, cd<j>.
    """
    rows, cols = _lines(n, m)
    out = [f"def line_stats_{n}x{m}(entries):", f"    [{', '.join(v for row in rows for v in row)}] = entries"]
    for axis, lines in (("r", rows), ("c", cols)):
        for i, line in enumerate(lines):
            s, mean, dev = f"{axis}s{i}", f"{axis}m{i}", f"{axis}d{i}"
            # Sums run left to right from 0.0, as the loop's `s += e` adds.
            out += [f"    {s} = {' + '.join(['0.0', *line])}", f"    lo = hi = {line[0]}"]
            for v in line[1:]:
                out += [f"    if {v} < lo:", f"        lo = {v}", f"    elif {v} > hi:", f"        hi = {v}"]
            out += [
                f"    {mean} = {s} / {len(line)}",
                f"    d = {mean} - lo",
                # the loop's `dev = 0.0; if d > dev: dev = d`
                f"    {dev} = d if d > 0.0 else 0.0",
                f"    d = hi - {mean}",
                f"    if d > {dev}:",
                f"        {dev} = d",
            ]
    shape = (("r", n), ("c", m))
    stats = (f"[{', '.join(f'{axis}{stat}{i}' for i in range(k))}]" for stat in "smd" for axis, k in shape)
    return "\n".join([*out, f"    return {', '.join(stats)}", ""])


def _balance_source(n, m):
    """Source of the n x m `balance` kernel, built from the shape alone.

    The square of entry e<k> is the local q<k>, shared by its row's sum r<i>
    and its column's sum c<j>. A line of one entry has its square as its
    sum, since 0.0 + x is x for a square x; a longer line's sum drops the
    loop's leading 0.0 for the same reason. Each axis then runs the body of
    `axis_balance`, with its scan unrolled: `pairs_close` is called only
    when the span falls between the allowances at the lowest and the
    highest sum.
    """
    rows, cols = _lines(n, m)
    q = {v: f"q{v[1:]}" for line in rows for v in line}
    out = [f"def balance_{n}x{m}(entries, rtol, atol):", f"    [{', '.join(q)}] = entries"]
    out += [f"    {sq} = {v}*{v}" for v, sq in q.items()]
    results = []
    for axis, lines, flag in (("r", rows, "h"), ("c", cols, "v")):
        sums = []
        for i, line in enumerate(lines):
            if len(line) == 1:
                sums.append(q[line[0]])
            else:
                sums.append(f"{axis}{i}")
                out.append(f"    {axis}{i} = {' + '.join(q[v] for v in line)}")
        out.append(f"    lo = hi = {sums[0]}")
        for v in sums[1:]:
            out += [f"    if {v} < lo:", f"        lo = {v}", f"    elif {v} > hi:", f"        hi = {v}"]
        defect, verdict, as_tuple = f"{flag}d", f"{flag}b", f"({', '.join(sums)},)"
        out += [
            "    span = hi - lo",
            f"    {defect} = span / (hi if hi > 1.0 else 1.0)",
            f"    if {defect} - {defect} != 0.0:",
            f"        {verdict} = False",
            "    elif span <= atol + rtol * lo:",
            f"        {verdict} = True",
            "    elif span > atol + rtol * hi:",
            f"        {verdict} = False",
            "    else:",
            f"        {verdict} = pairs_close({as_tuple}, rtol, atol)",
        ]
        results.append(as_tuple)
    return "\n".join([*out, f"    return {results[0]}, {results[1]}, hd, vd, hb, vb", ""])
