"""Seeded matrix generation and randomized theorem/conjecture campaigns.

Balanced matrices form a measure-zero set, so rejection sampling is
hopeless; instead structured families are generated directly on the
balanced manifold (constant, symmetric 2x2, Hadamard-like sign patterns,
scaled orthogonal) with an optional entrywise noise knob to step off it in
a controlled way. Campaigns run a named check over freshly generated
inputs, count pass/violation/not-applicable outcomes, store replayable
counterexamples, and collect defect-vs-error pairs for scaling studies.

Every trial derives its randomness from (campaign seed, trial index), so
reports are reproducible and trials are order-independent.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from dataclasses import dataclass
from typing import Callable

from balmat import _kernels, algebra, spectral2
from balmat.balance import (
    classify_balance,
    nan_max,
    require,
    require_balanced,
    require_entries_at_least_one,
)
from balmat.core import (
    DEFAULT_TOL,
    GENERATOR_KINDS,
    CheckRecord,
    Matrix,
    TolerancePolicy,
    _generated_matrix,
    approx_eq,
    constant_matrix,
)
from balmat.discrepancy import (
    _interiors_balanced,
    _scan_interiors,
    discrepancy_report,
    fairness_propagation_check,
    fairness_transfer_check,
    one_fair_row_check,
)
from balmat.errors import (
    ConfigurationError,
    HypothesisError,
    InvalidInputError,
    SingularMatrixError,
    UnsupportedDimensionError,
)

#: Exactly balanced families must come out with defects at or below this.
DEFECT_FLOOR = 1e-12

_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one generated matrix family.

    noise is the entrywise uniform perturbation radius; kind "perturbed"
    additionally picks a random base family per trial, so noise > 0 with any
    base kind and kind="perturbed" are both ways to leave the balanced
    manifold.
    """

    kind: str
    n: int = 2
    entry_low: float = 1.0
    entry_high: float = 100.0
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ConfigurationError(f"unknown generator kind {self.kind!r}; known: {GENERATOR_KINDS}")
        for name in ("n", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.n <= MAX_DIMENSION:
            raise ConfigurationError(f"dimension must be between 1 and {MAX_DIMENSION}, got {self.n}")
        for name in ("entry_low", "entry_high", "noise"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(f"{name} must be an int or a float, got {value!r}")
            # False for nan, the infinities and ints outside the float range.
            if not -sys.float_info.max <= value <= sys.float_info.max:
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if self.entry_low < 1.0:
            raise ConfigurationError(f"entry_low must be at least 1, got {self.entry_low}")
        if self.entry_low > self.entry_high:
            raise ConfigurationError(
                f"entry_low ({self.entry_low}) must not exceed entry_high ({self.entry_high})"
            )
        if self.noise < 0.0:
            raise ConfigurationError(f"noise must be non-negative, got {self.noise}")
        # Every generator kind keeps an entry within entry_high + noise.
        # Noise is drawn as rng.uniform(-noise, noise), which overflows with 2*noise.
        if math.isinf(float(self.entry_high) + float(self.noise)):
            raise ConfigurationError(
                f"entry_high + noise must be finite, got {self.entry_high} + {self.noise}"
            )
        if math.isinf(2.0 * self.noise):
            raise ConfigurationError(f"noise must be at most {sys.float_info.max / 2}, got {self.noise}")
        if not 0 <= self.seed <= _MASK64:
            raise ConfigurationError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


def _mix(seed: int, index: int) -> int:
    """Derive a per-trial seed; splitmix64-style finalizer."""
    x = (seed * 6364136223846793005 + (index + 1) * 1442695040888963407) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _build_constant(rng: random.Random, spec: GenSpec) -> list[float]:
    lam = rng.uniform(spec.entry_low, spec.entry_high)
    return [lam] * (spec.n * spec.n)


def _build_symmetric2(rng: random.Random, spec: GenSpec) -> list[float]:
    if spec.n != 2:
        raise UnsupportedDimensionError(f"symmetric2 generates 2x2 matrices, requested n={spec.n}")
    a = rng.uniform(spec.entry_low, spec.entry_high)
    b = rng.uniform(spec.entry_low, spec.entry_high)
    return [a, b, b, a]


@functools.lru_cache(maxsize=None)
def _sylvester_signs(n: int) -> tuple[float, ...]:
    """Row-major Sylvester sign pattern of order n, a power of two."""
    signs = [[1.0]]
    while len(signs) < n:
        top = [row + row for row in signs]
        bottom = [row + [-v for v in row] for row in signs]
        signs = top + bottom
    return tuple(v for row in signs for v in row)


def _build_hadamard(rng: random.Random, spec: GenSpec) -> list[float]:
    n = spec.n
    if n & (n - 1) != 0:
        raise UnsupportedDimensionError(
            f"hadamard_like exists for powers of two (1, 2, 4, ...), requested n={n}"
        )
    s = rng.uniform(spec.entry_low, spec.entry_high)
    return [s * v for v in _sylvester_signs(n)]


def _gaussians(rng: random.Random, count: int) -> list[float]:
    """`count` values of `rng.gauss(0.0, 1.0)`, leaving `rng` in the same state.

    Box-Muller as CPython's `Random.gauss` computes it: a pending
    `gauss_next` is used first and an odd leftover is kept there. The
    `0.0 +` turns -0.0 into 0.0, as `mu + z*sigma` does.
    """
    out = []
    z = rng.gauss_next
    if z is not None:
        rng.gauss_next = None
        out.append(0.0 + z)
    draw = rng.random
    cos, sin, log, sqrt, twopi = math.cos, math.sin, math.log, math.sqrt, math.tau
    for _ in range(len(out), count, 2):
        x2pi = draw() * twopi
        g2rad = sqrt(-2.0 * log(1.0 - draw()))
        z = sin(x2pi) * g2rad
        out.append(0.0 + cos(x2pi) * g2rad)
        out.append(0.0 + z)
    if len(out) > count:
        del out[count:]
        rng.gauss_next = z
    return out


#: Largest n whose Householder QR runs as a straight-line kernel (`_householder_source`).
#: The kernel runs about 2x faster than the loop at every n measured up to
#: 64, so this is a memory and compile-time budget, not a speed crossover.
#: Compiling every n up to 16 takes ~70 ms and leaves RSS ~1.2 MiB higher;
#: up to 32 it takes 0.35 s and ~8 MiB, and compiling n=128 alone peaks at
#: ~93 MiB. Larger n runs `_householder_loop`.
_KERNEL_MAX_N = 16


def _scaled_orthogonal(rng: random.Random, n: int, s: float) -> list[float]:
    """Flat row-major s*Q, Q from the Householder QR of a Gaussian sample.

    Q's column signs make R's diagonal positive, so Q is Haar distributed.
    """
    if n == 1:
        return [s if rng.random() < 0.5 else -s]
    g = _gaussians(rng, n * n)
    if n <= _KERNEL_MAX_N:
        return _kernels._kernel(_householder_source, n)(g, s)
    return [s * v for row in _householder_loop(g, n) for v in row]


def _householder_source(n: int) -> str:
    """Source of householder_<n>(g, s): `_householder_loop(g, n)` scaled by s and flattened.

    Every value it reads keeps the loop's operands and order (on the
    identity, their bits), which is all the same bits need. Matrix entries
    are locals: x<i> is row i of the current sample column, v<k>_<i> is
    entry i of reflector k, y<c> is column c of the current row of Q; the
    identity's rows are a literal. Loop bodies are straight-line, so the
    source grows as O(n²).
    """

    def dot(xs, ys):
        # Left to right from 0.0, as `w = 0.0; w += x * y` adds.
        return " + ".join(["0.0", *(f"{x}*{y}" for x, y in zip(xs, ys))])

    x = [f"x{i}" for i in range(n)]
    y = [f"y{i}" for i in range(n)]
    v = [[f"v{k}_{i}" for i in range(n)] for k in range(n - 1)]
    last = n - 1
    out = [
        f"def householder_{n}(g, s):",
        f"    {' = '.join(f't{k}' for k in range(last))} = False",
        # Left-looking: column j goes through reflectors 0..j-1, which
        # skip its row k (never read again), then defines reflector j.
        f"    for j in range({n}):",
        f"        {', '.join(x)} = g[j::{n}]",
    ]
    for k in range(last):
        out += [f"        if t{k}:", f"            w = ({dot(v[k][k:], x[k:])}) * beta{k}"]
        out += [f"            x{i} -= w * v{k}_{i}" for i in range(k + 1, n)]
    for k in range(last):
        out += [
            f"        {'if' if k == 0 else 'elif'} j == {k}:",
            f"            norm = sqrt({dot(x[k:], x[k:])})",
            "            if norm != 0.0:",
            f"                t{k} = True",
            # v0 is also kept whole, for the rows of Q to index
            f"                {'v0 = ' if k == 0 else ''}{', '.join(v[k][k:])} = x{k} - (-norm if x{k} >= 0.0 else norm), {', '.join(x[k + 1 :])}",
            f"                beta{k} = 2.0 / ({dot(v[k][k:], v[k][k:])})",
            f"                d{k} = x{k} - ({dot(v[k][k:], x[k:])}) * beta{k} * v{k}_{k}",
            "            else:",
            f"                d{k} = x{k}",
        ]
    out += ["        else:", f"            d{last} = x{last}"]
    # s and the sign that gives R a positive diagonal, per column of Q.
    out += [f"    m{j} = -s if d{j} < 0.0 else s" for j in range(n)]
    rows = ", ".join(f"({r}, {', '.join('1.0' if c == r else '0.0' for c in range(n))})" for r in range(n))
    out += [
        "    q = []",
        f"    for r, {', '.join(y)} in ({rows}):",
        # Reflector 0 meets the identity, with whose row r v0's dot product
        # is v0_r. With column 0 zero, a later reflector meets it through
        # the general update, which on the identity leaves the same bits.
        "        if t0:",
        "            w = v0[r] * beta0",
    ]
    out += [f"            y{c} -= w * v0_{c}" for c in range(n)]
    for k in range(1, last):
        out += [f"        if t{k}:", f"            w = ({dot(y[k:], v[k][k:])}) * beta{k}"]
        out += [f"            y{c} -= w * v{k}_{c}" for c in range(k, n)]
    out += [f"        q += ({', '.join(f'm{j}*y{j}' for j in range(n))})", "    return q", ""]
    return "\n".join(out)


def _householder_loop(g: list[float], n: int) -> list[list[float]]:
    """Q of the Householder QR of the row-major n x n sample g, with R's diagonal made positive."""
    a = [g[b : b + n] for b in range(0, n * n, n)]
    q = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for k in range(n - 1):
        v = [row[k] for row in a[k:]]
        norm = math.sqrt(_kernels.sum_squares(v))
        if norm == 0.0:
            continue
        # v[0] moves away from zero, so v's squares sum to at least the
        # column's, and that sum is not 0.0
        v[0] -= -norm if v[0] >= 0.0 else norm
        beta = 2.0 / _kernels.sum_squares(v)
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


def _build_scaled_orthogonal(rng: random.Random, spec: GenSpec) -> list[float]:
    s = rng.uniform(spec.entry_low, spec.entry_high)
    return _scaled_orthogonal(rng, spec.n, s)


_BUILDERS = {
    "constant": _build_constant,
    "symmetric2": _build_symmetric2,
    "hadamard_like": _build_hadamard,
    "scaled_orthogonal": _build_scaled_orthogonal,
}


@functools.lru_cache(maxsize=None)
def _bases_for(n: int) -> tuple[str, ...]:
    bases = ["constant"]
    if n == 2:
        bases.append("symmetric2")
    if n & (n - 1) == 0:
        bases.append("hadamard_like")
    bases.append("scaled_orthogonal")
    return tuple(bases)


def _generate_entries(rng: random.Random, spec: GenSpec) -> list[float]:
    """Flat row-major entries of one generated n x n matrix."""
    kind = spec.kind
    if kind == "perturbed":
        kind = rng.choice(_bases_for(spec.n))
    flat = _BUILDERS[kind](rng, spec)
    noise = spec.noise
    if noise > 0.0:
        uniform = rng.uniform
        flat = [v + uniform(-noise, noise) for v in flat]
    return flat


def _generate_with(rng: random.Random, spec: GenSpec) -> Matrix:
    return _generated_matrix(spec.n, spec.n, tuple(_generate_entries(rng, spec)))


def generate(spec: GenSpec) -> Matrix:
    """Generate one matrix from the spec; deterministic for a fixed seed.

    Equals the first trial of any campaign run with the same spec.
    """
    return _generate_with(random.Random(_mix(spec.seed, 0)), spec)


# ---------------------------------------------------------------------------
# Property registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzContext:
    """Check parameters shared by every trial of a campaign; the CLI's defaults."""

    tol: TolerancePolicy = DEFAULT_TOL
    fair_eps: float = 0.1
    unfair_theta: float = 1.0
    pivot_tol: float = 1e-10
    min_dim: int = 2

    def __post_init__(self):
        # The elimination and the interior search check pivot_tol and
        # min_dim again, for their direct callers.
        if not isinstance(self.tol, TolerancePolicy):
            raise ConfigurationError(f"tol must be a TolerancePolicy, got {self.tol!r}")
        for name in ("fair_eps", "unfair_theta", "pivot_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(f"{name} must be an int or a float, got {value!r}")
        if not 0.0 < self.fair_eps < math.inf:
            raise ConfigurationError(f"fair_eps must be finite and positive, got {self.fair_eps}")
        if not -math.inf < self.unfair_theta < math.inf:
            raise ConfigurationError(f"unfair_theta must be finite, got {self.unfair_theta}")
        if not self.pivot_tol > 0:
            raise ConfigurationError(f"pivot_tol must be positive, got {self.pivot_tol}")
        if isinstance(self.min_dim, bool) or not isinstance(self.min_dim, int) or self.min_dim < 2:
            raise ConfigurationError(f"min_dim must be an integer of at least 2, got {self.min_dim!r}")


@dataclass(frozen=True)
class Counterexample:
    """A violating trial: the generated inputs plus the failed record."""

    matrices: tuple[Matrix, ...]
    record: CheckRecord


@dataclass(frozen=True)
class FuzzReport:
    """Aggregate outcome of one campaign."""

    property_name: str
    trials: int
    passes: int
    violations: int
    not_applicable: int
    worst_slack: float | None
    counterexamples: tuple[Counterexample, ...]
    seed: int
    defect_error_pairs: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class PropertyDef:
    name: str
    #: "theorem", "conjecture" or "monitor": README's property table grades
    #: each property the same way.
    grade: str
    make_inputs: Callable[[random.Random, GenSpec, FuzzContext], tuple[Matrix, ...]]
    # Returns a CheckRecord built by `bounded`, `close` or `verdict`, or
    # raises HypothesisError, whose `.hypothesis` names the failed premise,
    # exactly when the trial is not applicable. The estimator checks pair
    # the record with the trial's (defect, error) point.
    check: Callable[[tuple[Matrix, ...], FuzzContext], CheckRecord | tuple]
    #: Always None: checks return their own (defect, error) pairs. Kept for
    #: the benchmark's tracer, which reads the field.
    metrics: None = None


def _gen_one(rng, spec, ctx):
    return (_generate_with(rng, spec),)


def _gen_pair(rng, spec, ctx):
    return (_generate_with(rng, spec), _generate_with(rng, spec))


def _gen_abs_one(rng, spec, ctx):
    # Mirror into the positive orthant; squares (and thus balance) unchanged.
    return (_generated_matrix(spec.n, spec.n, tuple([abs(v) for v in _generate_entries(rng, spec)])),)


def _check_closure(op: str, factor: float, ms, ctx):
    """Closure of positive balanced 2x2s under `algebra.<op>` ("add" or "mul").

    The result's defect may reach `factor` times the inputs' summed defect.
    Products amplify input defects through the cross terms; their 8x is a
    calibration constant, violations beyond it are findings to study.
    """
    a, b = ms
    # Most perturbed pairs stop at the positivity gate, so it tests both
    # inputs in one `require`. The balance reports are kept for the bound.
    require(a.shape == (2, 2) and b.shape == (2, 2), "not-2x2")
    require(min(a.entries) > 0.0 and min(b.entries) > 0.0, "not-positive")
    rep_a = classify_balance(a, ctx.tol)
    rep_b = classify_balance(b, ctx.tol)
    require(rep_a.fully_balanced and rep_b.fully_balanced, "not-balanced")
    lhs = classify_balance(getattr(algebra, op)(a, b), ctx.tol).max_defect
    rhs = DEFECT_FLOOR + factor * (rep_a.max_defect + rep_b.max_defect)
    return CheckRecord.bounded(f"closure_{op}", lhs, rhs)


def _check_closure_inverse(ms, ctx):
    a = ms[0]
    require(a.shape == (2, 2), "not-2x2")
    rep = require_balanced(a, ctx.tol)
    # Inverse closure is probed only on the exactly balanced manifold, where
    # it is provable; condition-number amplification makes a defect bound
    # meaningless off it.
    require(rep.max_defect <= DEFECT_FLOOR, "not-exactly-balanced")
    try:
        inv = algebra.inverse2(a, ctx.tol)
    except SingularMatrixError as exc:
        raise HypothesisError("singular", str(exc)) from exc
    return CheckRecord.bounded("closure_inverse", classify_balance(inv, ctx.tol).max_defect, DEFECT_FLOOR)


def _check_closure_transpose(ms, ctx):
    a = ms[0]
    rep = classify_balance(a, ctx.tol)
    rep_t = classify_balance(algebra.transpose(a), ctx.tol)
    lhs = max(
        abs(rep_t.horizontal_defect - rep.vertical_defect),
        abs(rep_t.vertical_defect - rep.horizontal_defect),
    )
    return CheckRecord.bounded("closure_transpose", lhs, 0.0)


def _make_scale_inputs(rng, spec, ctx):
    m = _generate_with(rng, spec)
    mag = rng.uniform(1.0, 3.0)
    lam = mag if rng.random() < 0.5 else -mag
    return (m, _generated_matrix(1, 1, (lam,)))


def _check_closure_scale(ms, ctx):
    a, lam_box = ms
    lam = lam_box.entries[0]
    # The defect normalizer max(1, max_sum) must be live on both sides for
    # scale invariance to be exact; entry_low >= 1 and |lam| >= 1 ensure it.
    rep = classify_balance(a, ctx.tol)
    require(max(max(rep.row_square_sums), max(rep.col_square_sums)) >= 1.0, "square-sums-below-1")
    try:
        scaled = algebra.scale(lam, a)
    except InvalidInputError as exc:
        raise HypothesisError("scaled-overflows", str(exc)) from exc
    d1 = classify_balance(scaled, ctx.tol).max_defect
    return CheckRecord.bounded("closure_scale", abs(d1 - rep.max_defect), DEFECT_FLOOR)


def _check_det_nonzero(ms, ctx):
    a = ms[0]
    require(a.is_square, "not-square")
    require_balanced(a, ctx.tol)
    moduli = [abs(e) for e in a.entries]
    # True when every pair of moduli agrees within the tolerance.
    require(not _kernels.axis_balance(moduli, ctx.tol.rtol, ctx.tol.atol)[1], "equal-moduli")
    det = algebra.det_via_trail(a, ctx.pivot_tol)
    return CheckRecord.bounded("det_nonzero", ctx.pivot_tol, abs(det))


def _estimator_error(a, ctx):
    """(estimate, error) of the entry-sum estimator on a 2x2.

    The estimator's gates admit only entries >= 1, so the spectrum's
    discriminant (a - d)^2 + 4bc is at least 4 and the spectrum is real.
    """
    require(a.shape == (2, 2), "not-2x2")
    est = spectral2.estimate_spectrum2(a, ctx.tol)
    s = spectral2.exact_spectrum2(a)
    err = max(abs(est.max_estimate - s.max_abs), abs(est.min_estimate - s.min_abs))
    return est, err


def _check_estimator_exact(ms, ctx):
    est, err = _estimator_error(ms[0], ctx)
    return CheckRecord.bounded("estimator_exact", err, 1e-9 + 2.0 * est.spread), (est.defect, err)


def _check_estimator_scaling(ms, ctx):
    a = ms[0]
    est, err = _estimator_error(a, ctx)
    denom = est.defect * max(abs(e) for e in a.entries)
    # Monitoring-only: the campaign's defect/error pairs carry the signal.
    return CheckRecord.verdict("estimator_scaling", True, err, denom), (est.defect, err)


def _check_emax_additivity(ms, ctx):
    return spectral2.emax_additivity_check(ms[0], ms[1], ctx.tol)


def _check_trace_entry(ms, ctx):
    return spectral2.trace_entry_check(ms[0], ctx.tol)


def _make_symmetric2_inputs(rng, spec, ctx):
    # Symmetric even under noise, so the quadratic form stays defined.
    a = rng.uniform(spec.entry_low, spec.entry_high)
    b = rng.uniform(spec.entry_low, spec.entry_high)
    if spec.noise > 0.0:
        na = rng.uniform(-spec.noise, spec.noise)
        nb = rng.uniform(-spec.noise, spec.noise)
        nd = rng.uniform(-spec.noise, spec.noise)
        return (_generated_matrix(2, 2, (a + na, b + nb, b + nb, a + nd)),)
    return (_generated_matrix(2, 2, (a, b, b, a)),)


def _check_quadform_predict(ms, ctx):
    a = ms[0]
    require(a.shape == (2, 2), "not-2x2")
    require(approx_eq(a.entries[1], a.entries[2], DEFAULT_TOL), "not-symmetric")
    est = spectral2.estimate_spectrum2(a, ctx.tol)
    s = spectral2.exact_spectrum2(a)
    branch = spectral2.quadform_branch_select(a)
    diag_gap = abs(a.entries[0] - a.entries[3])
    worst = None
    for x, y in spectral2.QUADFORM_GRID:
        f = spectral2.quadform_eval(a, x, y)
        p = spectral2.quadform_predict(s, branch, x, y)
        err = abs(p - f)
        allowed = 1e-9 * max(1.0, abs(f)) + (est.spread + diag_gap) * (
            x * x + y * y + (x + y) * (x + y)
        )
        slack = err - allowed
        if worst is None or slack > worst_slack:
            worst, worst_slack = (err, allowed), slack
    return CheckRecord.bounded("quadform_predict", *worst)


def _check_fairness_transfer(ms, ctx):
    return fairness_transfer_check(ms[0], ctx.tol, ctx.fair_eps)


def _make_one_fair_row_inputs(rng, spec, ctx):
    """Balanced positive matrix engineered to have exactly one fair row.

    Row 0 is constant; the remaining rows are rotations of a vector with two
    entries nudged +/- theta, so every row has the same square sum and every
    column misses exactly one vector entry. The column imbalance this leaves
    is about 4*m*theta, so campaigns should run with
    rtol >= 4*theta / (n * m) for the balance hypothesis to pass. Entries
    whose square sums overflow are drawn too; their trials are not
    applicable.
    """
    n = spec.n if spec.n >= 3 else 3
    eta = ctx.unfair_theta
    low = max(spec.entry_low, 20.0 * eta)
    high = max(spec.entry_high, 2.0 * low)
    if math.isinf(high + abs(eta)):
        raise ConfigurationError(
            "one_fair_row draws entries up to max(entry_high, 2*entry_low, 40*unfair_theta) + |unfair_theta|, "
            f"which is not finite: unfair_theta={eta}, entry_low={spec.entry_low}, entry_high={spec.entry_high}"
        )
    m_val = rng.uniform(low, high)
    w = [m_val + eta, m_val - eta] + [m_val] * (n - 2)
    c = math.sqrt(_kernels.sum_squares(w) / n)
    if math.isinf(c):
        # The square sum overflowed; scaled by the largest entry, it cannot.
        top = max(w)
        c = top * math.sqrt(_kernels.sum_squares([v / top for v in w]) / n)
    flat = [c] * n
    for i in range(1, n):
        flat += w[i:] + w[:i]
    return (_generated_matrix(n, n, tuple(flat)),)


def _check_one_fair_row(ms, ctx):
    return one_fair_row_check(ms[0], ctx.tol, ctx.fair_eps, ctx.unfair_theta)


def _check_fairness_propagation(ms, ctx):
    return fairness_propagation_check(ms[0], ctx.tol, ctx.fair_eps)


def _check_interior_conjecture(ms, ctx):
    a = ms[0]
    require(a.is_square, "not-square")
    require(a.n_rows > ctx.min_dim, "too-small")
    require_balanced(a, ctx.tol)
    match, best = _scan_interiors(a, ctx.tol, ctx.min_dim)
    if match is not None:
        return CheckRecord.verdict("interior_conjecture", True, match.report.max_defect, 0.0)
    # No balanced interior: report how close the best block came. An
    # all-zero block comes at 0.0, which `bounded` would read as holding.
    if best == 0.0:
        return CheckRecord.verdict("interior_conjecture", False, best, 0.0)
    return CheckRecord.bounded("interior_conjecture", best, 0.0)


def _check_interior_fair_corollary(ms, ctx):
    a = ms[0]
    require(min(a.n_rows, a.n_cols) >= 3, "too-small")
    require_balanced(a, ctx.tol)
    drep = discrepancy_report(a, ctx.fair_eps)
    require(drep.fair_rows or drep.fair_cols, "not-fair")
    widening = 4.0 * ctx.fair_eps * max(abs(e) for e in a.entries) * max(a.n_rows, a.n_cols)
    widened = TolerancePolicy(ctx.tol.rtol, ctx.tol.atol + widening)
    ok, worst = _interiors_balanced(a, widened)
    return CheckRecord.verdict("interior_fair_corollary", ok, worst, widened.atol)


def _make_homomorphism_inputs(rng, spec, ctx):
    """Rank-one balanced A (zero eigenvalue) and a fair near-constant B.

    B's fairness deviation stays strictly below fair_eps by construction;
    its residual imbalance is of order noise * entries, so campaigns need
    rtol of roughly fair_eps / entry_low for the balance hypothesis.
    """
    t = rng.uniform(spec.entry_low, spec.entry_high)
    a = constant_matrix(2, 2, t)
    eps = ctx.fair_eps
    base = rng.uniform(spec.entry_low + eps, spec.entry_high + eps)
    off = base + rng.uniform(-0.4, 0.4) * eps
    amp = 0.1 * eps
    u = rng.uniform
    b = (base + u(-amp, amp), off + u(-amp, amp), off + u(-amp, amp), base + u(-amp, amp))
    return (a, _generated_matrix(2, 2, b))


def _check_det_homomorphism(ms, ctx):
    return spectral2.det_homomorphism_check(ms[0], ms[1], ctx.tol, ctx.fair_eps)


def _make_homomorphism_n_inputs(rng, spec, ctx):
    n = spec.n
    t = rng.uniform(spec.entry_low, spec.entry_high)
    a = constant_matrix(n, n, t)
    eps = ctx.fair_eps
    base = rng.uniform(spec.entry_low + eps, spec.entry_high + eps)
    amp = 0.1 * eps
    flat = [base + rng.uniform(-amp, amp) for _ in range(n * n)]
    return (a, _generated_matrix(n, n, tuple(flat)))


def _check_det_homomorphism_n(ms, ctx):
    a, b = ms
    require(a.is_square, "not-square")
    require(a.shape == b.shape, "shape-mismatch")
    require_entries_at_least_one(a, "A")
    require_entries_at_least_one(b, "B")
    require_balanced(a, ctx.tol, "A")
    require_balanced(b, ctx.tol, "B")
    det_a = algebra.det_via_trail(a, ctx.pivot_tol)
    # A provably vanishing smallest eigenvalue.
    require(abs(det_a) <= ctx.tol.atol, "det-not-small")
    rep_b = discrepancy_report(b, ctx.fair_eps)
    require(rep_b.fair_rows or rep_b.fair_cols, "not-fair")
    det_b = algebra.det_via_trail(b, ctx.pivot_tol)
    det_sum = algebra.det_via_trail(algebra.add(a, b), ctx.pivot_tol)
    lhs = abs(det_sum - (det_a + det_b))
    n = a.n_rows
    max_a = max(a.entries)
    max_b = max(b.entries)
    # Dimensional extrapolation of the 2x2 bound (n*n reduces to 4 there);
    # conjecture-grade, so violations are findings rather than failures.
    rhs = (
        float(n * n) * ctx.fair_eps * max_a * (max_a + max_b) ** (n - 2)
        + ctx.tol.atol
        + ctx.tol.rtol * max(abs(det_sum), abs(det_a + det_b))
    )
    return CheckRecord.bounded("det_homomorphism_n", lhs, rhs)


PROPERTIES: dict[str, PropertyDef] = {
    p.name: p
    for p in (
        PropertyDef("closure_add", "theorem", _gen_pair, functools.partial(_check_closure, "add", 2.0)),
        PropertyDef("closure_mul", "theorem", _gen_pair, functools.partial(_check_closure, "mul", 8.0)),
        PropertyDef("closure_inverse", "theorem", _gen_one, _check_closure_inverse),
        PropertyDef("closure_transpose", "theorem", _gen_one, _check_closure_transpose),
        PropertyDef("closure_scale", "theorem", _make_scale_inputs, _check_closure_scale),
        PropertyDef("det_nonzero", "conjecture", _gen_one, _check_det_nonzero),
        PropertyDef("estimator_exact", "theorem", _gen_one, _check_estimator_exact),
        PropertyDef("estimator_scaling", "monitor", _gen_one, _check_estimator_scaling),
        PropertyDef("emax_additivity", "theorem", _gen_pair, _check_emax_additivity),
        PropertyDef("trace_entry", "theorem", _gen_abs_one, _check_trace_entry),
        PropertyDef("quadform_predict", "theorem", _make_symmetric2_inputs, _check_quadform_predict),
        PropertyDef("fairness_transfer", "theorem", _gen_abs_one, _check_fairness_transfer),
        PropertyDef("one_fair_row", "theorem", _make_one_fair_row_inputs, _check_one_fair_row),
        PropertyDef("edos", "conjecture", _gen_one, _check_fairness_propagation),
        PropertyDef("interior_conjecture", "conjecture", _gen_one, _check_interior_conjecture),
        PropertyDef("interior_fair_corollary", "theorem", _gen_one, _check_interior_fair_corollary),
        PropertyDef("det_homomorphism", "theorem", _make_homomorphism_inputs, _check_det_homomorphism),
        PropertyDef("det_homomorphism_n", "conjecture", _make_homomorphism_n_inputs, _check_det_homomorphism_n),
    )
}


#: A campaign stores the first this many violating trials as counterexamples.
MAX_COUNTEREXAMPLES = 100

#: Largest n a `GenSpec` draws. Measured on CPython 3.11 with noise 0.5,
#: one `scaled_orthogonal` draw takes ~1.0 s and ~8 MiB of RSS at n=256,
#: and ~82 s and ~128 MiB at n=1024: time grows as n³, memory as n². A
#: campaign also keeps up to MAX_COUNTEREXAMPLES violating draws.
MAX_DIMENSION = 256


def _property(property_name: str, ctx: FuzzContext) -> PropertyDef:
    """The registered property, once `ctx` is known to be a FuzzContext."""
    if not isinstance(ctx, FuzzContext):
        raise ConfigurationError(f"ctx must be a FuzzContext, got {type(ctx).__name__}")
    prop = PROPERTIES.get(property_name)
    if prop is None:
        raise ConfigurationError(
            f"unknown property {property_name!r}; known: {', '.join(sorted(PROPERTIES))}"
        )
    return prop


def fuzz_campaign(
    property_name: str, spec: GenSpec, trials: int, ctx: FuzzContext = FuzzContext()
) -> FuzzReport:
    """Run a named check over `trials` freshly generated inputs.

    A trial is not applicable exactly when its check raises HypothesisError,
    whose `hypothesis` names the premise that failed. Violating trials are
    stored as replayable counterexamples, the first `MAX_COUNTEREXAMPLES`
    of them.
    """
    prop = _property(property_name, ctx)
    if isinstance(trials, bool) or not isinstance(trials, int):
        raise ConfigurationError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ConfigurationError(f"trials must be at least 1, got {trials}")
    passes = violations = not_applicable = 0
    worst_slack: float | None = None
    counterexamples: list[Counterexample] = []
    pairs: list[tuple[float, float]] = []
    make_inputs, check = prop.make_inputs, prop.check
    # seed() also clears gauss_next, so each trial starts exactly as a
    # fresh Random(_mix(seed, index)) would.
    rng = random.Random()
    for index in range(trials):
        rng.seed(_mix(spec.seed, index))
        inputs = make_inputs(rng, spec, ctx)
        try:
            record = check(inputs, ctx)
        except HypothesisError:
            not_applicable += 1
            continue
        if type(record) is tuple:
            record, pair = record
            pairs.append(pair)
        worst_slack = record.slack if worst_slack is None else nan_max(worst_slack, record.slack)
        if record.holds:
            passes += 1
        else:
            violations += 1
            if len(counterexamples) < MAX_COUNTEREXAMPLES:
                counterexamples.append(Counterexample(tuple(inputs), record))
    return FuzzReport(
        property_name=property_name,
        trials=trials,
        passes=passes,
        violations=violations,
        not_applicable=not_applicable,
        worst_slack=worst_slack,
        counterexamples=tuple(counterexamples),
        seed=spec.seed,
        defect_error_pairs=tuple(pairs),
    )


def replay_counterexample(
    property_name: str, matrices: tuple[Matrix, ...], ctx: FuzzContext = FuzzContext()
) -> CheckRecord | None:
    """Re-run a property's check on stored counterexample inputs.

    None exactly when the check raises HypothesisError, the test by which
    `fuzz_campaign` counts a trial not applicable.
    """
    prop = _property(property_name, ctx)
    try:
        record = prop.check(tuple(matrices), ctx)
    except HypothesisError:
        return None
    return record[0] if type(record) is tuple else record
