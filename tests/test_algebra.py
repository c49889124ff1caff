import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from balmat import _kernels
from balmat.algebra import (
    ElementaryOp,
    add,
    det2,
    det_via_trail,
    inverse2,
    mul,
    rref_with_trail,
    scale,
    transpose,
)
from balmat.balance import balance_defect
from balmat.core import GENERATOR_KINDS, Matrix, constant_matrix, identity, matrix_from_rows
from balmat.errors import DimensionError, InvalidInputError, SingularMatrixError
from balmat.genfuzz import GenSpec, generate

import oracles

PIVOT_TOL = 1e-10

entry = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def matrices(draw, max_dim=5):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    m = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    return matrix_from_rows(rows)


# entries are either exactly zero or of order one: no magnitudes that
# straddle the pivot threshold mid-elimination
well_scaled_entry = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
    st.floats(min_value=-100.0, max_value=-0.5, allow_nan=False),
)


@st.composite
def well_scaled_matrices(draw, max_dim=5):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    m = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(st.lists(well_scaled_entry, min_size=m, max_size=m), min_size=n, max_size=n)
    )
    return matrix_from_rows(rows)


# zero, +-1 and magnitudes under the pivot threshold, which leave skipped
# columns and their residues, mixed with ordinary entries
det_entry = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 1e-12, 3e-11]), entry)


@st.composite
def square_matrices(draw, max_dim=8):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    return Matrix(n, n, tuple(draw(st.lists(det_entry, min_size=n * n, max_size=n * n))))


class TestBasicOps:
    def test_transpose(self):
        assert transpose(matrix_from_rows([[1, 2], [3, 4]])) == matrix_from_rows([[1, 3], [2, 4]])

    def test_transpose_identity(self):
        assert transpose(identity(3)) == identity(3)

    def test_transpose_shape(self):
        t = transpose(matrix_from_rows([[1, 2, 3], [4, 5, 6]]))
        assert t.shape == (3, 2)

    def test_scale_constant(self):
        assert scale(2.0, constant_matrix(3, 3, 1.0)) == constant_matrix(3, 3, 2.0)

    def test_scale_zero(self):
        assert scale(0.0, matrix_from_rows([[1, 2], [3, 4]])).is_zero

    def test_scale_negative_preserves_balance(self):
        m = scale(-1.0, identity(2))
        assert balance_defect(m, "rows") == 0.0
        assert balance_defect(m, "columns") == 0.0

    def test_add(self):
        s = add(matrix_from_rows([[2, 1], [1, 2]]), constant_matrix(2, 2, 1.0))
        assert s == matrix_from_rows([[3, 2], [2, 3]])

    def test_add_zero_identity(self):
        m = matrix_from_rows([[1, 2], [3, 4]])
        assert add(m, constant_matrix(2, 2, 0.0)) == m

    def test_add_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            add(identity(2), identity(3))

    def test_mul(self):
        m = matrix_from_rows([[2, 1], [1, 2]])
        assert mul(m, m) == matrix_from_rows([[5, 4], [4, 5]])

    def test_mul_identity(self):
        m = matrix_from_rows([[1, 2], [3, 4]])
        assert mul(m, identity(2)) == m

    def test_mul_all_ones(self):
        ones = constant_matrix(2, 2, 1.0)
        assert mul(ones, ones) == constant_matrix(2, 2, 2.0)

    def test_mul_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mul(matrix_from_rows([[1, 2]]), matrix_from_rows([[1, 2]]))


class TestInverse2:
    def test_closed_form(self):
        inv = inverse2(matrix_from_rows([[2, 1], [1, 2]]))
        expected = matrix_from_rows([[2 / 3, -1 / 3], [-1 / 3, 2 / 3]])
        for a, b in zip(inv.entries, expected.entries):
            assert a == pytest.approx(b, rel=1e-15)

    def test_identity(self):
        assert inverse2(identity(2)) == identity(2)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            inverse2(constant_matrix(2, 2, 1.0))

    def test_non_2x2(self):
        with pytest.raises(DimensionError):
            inverse2(identity(3))

    @given(
        st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
    )
    def test_product_with_inverse_is_identity(self, a, b):
        m = matrix_from_rows([[a, b], [b, a]])
        if abs(det2(m)) <= 1e-6:
            return
        p = mul(m, inverse2(m))
        for got, want in zip(p.entries, identity(2).entries):
            assert got == pytest.approx(want, abs=1e-10)


class TestRref:
    def test_full_rank_2x2(self):
        res = rref_with_trail(matrix_from_rows([[2, 1], [1, 2]]), PIVOT_TOL)
        assert res.R == identity(2)
        assert res.rank == 2

    def test_all_ones_rank_one(self):
        res = rref_with_trail(constant_matrix(3, 3, 1.0), PIVOT_TOL)
        assert res.R == matrix_from_rows([[1, 1, 1], [0, 0, 0], [0, 0, 0]])
        assert res.rank == 1

    def test_identity_empty_trail(self):
        res = rref_with_trail(identity(3), PIVOT_TOL)
        assert res.R == identity(3)
        assert res.trail == ()
        assert res.rank == 3

    def test_rank_bounded_by_shape(self):
        res = rref_with_trail(matrix_from_rows([[1, 2, 3], [4, 5, 6]]), PIVOT_TOL)
        assert res.rank <= 2

    def test_determinant_needs_a_square_matrix(self):
        res = rref_with_trail(matrix_from_rows([[1, 2, 3], [4, 5, 6]]), PIVOT_TOL)
        with pytest.raises(DimensionError, match="^determinant needs a square matrix, got 2x3$"):
            res.determinant

    @pytest.mark.parametrize("rows", [[[1e-5, 1e305], [0, 1]], [[1, 1e300, 0], [0, 1, 1e10], [0, 0, 1]]])
    def test_overflow_is_reported_as_elimination_overflow(self, rows):
        # The reduced form holds nan; it is reported before R is built, in
        # the words `det_via_trail` uses.
        with pytest.raises(InvalidInputError, match="^elimination overflowed: the reduced form has a non-finite entry$"):
            rref_with_trail(matrix_from_rows(rows), PIVOT_TOL)

    @given(matrices())
    @example(Matrix(2, 3, (17.0, 0.0, 0.0, 59.75, 0.0, 0.0078125)))
    @example(Matrix(1, 2, (1e-12, 0.0078125)))
    def test_output_is_echelon_and_trail_replays(self, m):
        res = rref_with_trail(m, PIVOT_TOL)
        assert oracles.is_rref(res.R.to_rows(), PIVOT_TOL)
        replayed = oracles.apply_trail(m.to_rows(), res.trail)
        # The kernel sets pivots to exactly 1.0 and eliminated entries to
        # exactly 0.0, where a float replay leaves a rounding remainder;
        # every later operation can magnify that remainder by its factor.
        bound = 1e-12 * math.prod(max(1.0, abs(op.factor)) for op in res.trail)
        # It also sets the candidates of a column without a pivot, each at
        # most PIVOT_TOL, to exactly 0.0, where the replay keeps them; an
        # operation with factor f can add |f| times one of them to another.
        # Row operations keep columns apart, so only those columns differ.
        free_bound = bound + PIVOT_TOL * math.prod(1.0 + abs(op.factor) for op in res.trail)
        pivot_cols = {row.index(1.0) for row in res.R.to_rows()[: res.rank]}
        for got_row, want_row in zip(replayed, res.R.to_rows()):
            for j, (got, want) in enumerate(zip(got_row, want_row)):
                assert abs(got - want) <= (bound if j in pivot_cols else free_bound)

    @given(square_matrices())
    @example(Matrix(3, 3, (1.0, 2.0, 3.0, 2.0, 4.0, 6.0 + 3e-11, 1e-12, 0.0, 1.0)))
    def test_kernel_trail_carries_elementary_op_fields(self, m):
        # The kernel writes each step as ElementaryOp's own fields, so the
        # trail is built without translating them.
        full = _kernels.rref(m.entries, m.n_rows, m.n_cols, PIVOT_TOL)[1]
        assert {op[0] for op in full} <= {"swap_rows", "scale_row", "add_multiple"}
        assert rref_with_trail(m, PIVOT_TOL).trail == tuple(ElementaryOp(*op) for op in full)

    @given(well_scaled_matrices(max_dim=4))
    def test_rank_matches_transpose_and_numpy(self, m):
        # Thresholded elimination rank is a different notion from SVD rank
        # on badly scaled inputs (a pivot can clear the cutoff while the
        # singular value it carries does not), so this comparison is stated
        # only for well-scaled matrices with singular values away from the
        # cutoff.
        sv = np.linalg.svd(np.array(m.to_rows()), compute_uv=False)
        if not all(s < PIVOT_TOL / 10 or s > PIVOT_TOL * 1e4 for s in sv):
            return
        rank = rref_with_trail(m, PIVOT_TOL).rank
        rank_t = rref_with_trail(transpose(m), PIVOT_TOL).rank
        assert rank == rank_t
        assert rank == int(np.linalg.matrix_rank(np.array(m.to_rows()), tol=PIVOT_TOL))


def _det_outcome(det, m, pivot_tol):
    """float.hex of det(m, pivot_tol), or the type and message of what it raises."""
    try:
        return det(m, pivot_tol).hex()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc).__name__, str(exc)


def det_sweep():
    """Square inputs for the determinant at n = 1..10: past the kernel bound too.

    Generated families at three scales, each with a rank-deficient twin
    whose last row repeats its first, and random inputs from 1e0 down to
    subnormal and up to 1e308, with 0.0 and -0.0 mixed in. A third of the
    random inputs are upper triangular with small pivots and entries near
    the float maximum, whose overflow right of a pivot meets no elimination.
    """
    for n in range(1, 11):
        for kind in GENERATOR_KINDS:
            if (kind == "symmetric2" and n != 2) or (kind == "hadamard_like" and n & (n - 1)):
                continue
            for noise, high, seed in itertools.product((0.0, 0.3), (100.0, 1e150, 1e300), range(3)):
                m = generate(GenSpec(kind=kind, n=n, noise=noise, seed=seed, entry_high=high))
                yield m
                if n > 1:
                    yield Matrix(n, n, m.entries[: (n - 1) * n] + m.entries[:n])
    rng = random.Random(26)
    for _ in range(2000):
        n = rng.randint(1, 10)
        scale = 10.0 ** rng.choice((0, 150, -150, 300, -300, 308))
        if rng.random() < 0.2:
            scale = 1e-300 * 10.0 ** rng.choice((-8, -15, -20))  # subnormal
        entries = [rng.choice((0.0, -0.0)) if rng.random() < 0.2 else rng.uniform(-1, 1) * scale for _ in range(n * n)]
        if rng.random() < 0.3:
            for k in range(n * n):
                i, j = divmod(k, n)
                if i > j:
                    entries[k] = 0.0
                elif i == j:
                    entries[k] = rng.uniform(0.5, 2.0) * 10.0 ** rng.choice((0, -5, -100, -300))
                elif rng.random() < 0.3:
                    entries[k] = rng.uniform(-1.7, 1.7) * 1e308
        yield Matrix(n, n, tuple(entries))


class TestDetViaTrail:
    def test_2x2(self):
        assert det_via_trail(matrix_from_rows([[2, 1], [1, 2]])) == pytest.approx(3.0, rel=1e-12)

    def test_rank_deficient_returns_exact_zero(self):
        assert det_via_trail(constant_matrix(3, 3, 1.0)) == 0.0

    def test_identity(self):
        assert det_via_trail(identity(4)) == 1.0

    def test_non_square(self):
        with pytest.raises(DimensionError):
            det_via_trail(matrix_from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_swap_sign(self):
        m = matrix_from_rows([[0, 1], [1, 0]])
        assert det_via_trail(m) == pytest.approx(-1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "rows",
        [
            # Scaling the 1e-5 pivot row by 1e5 overflows 1e305 to inf, and
            # clearing that column leaves nan in the reduced form.
            [[1e-5, 1e305], [0, 1]],
            # Elimination makes the second pivot -inf; its scale factor is
            # -0.0 while the reduced form stays finite.
            [[1, 1e308], [1, -1e308]],
        ],
    )
    def test_overflowing_elimination_raises(self, rows):
        m = matrix_from_rows(rows)
        with pytest.raises(InvalidInputError):
            rref_with_trail(m)
        with pytest.raises(InvalidInputError):
            det_via_trail(m)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_determinant_is_infinite(self, sign):
        # The scale factors' product underflows to +-0.0.
        m = matrix_from_rows([[sign * 1e200, 0, 0], [0, 1e200, 0], [0, 0, 1e200]])
        assert det_via_trail(m) == sign * math.inf
        res = rref_with_trail(m, PIVOT_TOL)
        assert (res.determinant, res.rank, len(res.trail)) == (sign * math.inf, 3, 3)

    def test_overflow_above_the_pivots_only_is_not_seen(self):
        # Clearing column 1 above its pivot takes row 0 to -1e310 = -inf in
        # column 2, and clearing column 2 then leaves nan. Forward
        # elimination never goes back to row 0, and the matrix is upper
        # unitriangular, so its determinant is exactly 1.
        m = matrix_from_rows([[1, 1e300, 0], [0, 1, 1e10], [0, 0, 1]])
        with pytest.raises(InvalidInputError):
            rref_with_trail(m)
        with pytest.raises(InvalidInputError):
            rref_with_trail(m, PIVOT_TOL)  # balmat det, full reduction
        assert det_via_trail(m) == 1.0

    @given(square_matrices())
    @example(Matrix(2, 2, (1e-12, 1.0, 3e-11, 1.0)))
    @example(Matrix(3, 3, (1.0, 2.0, 3.0, 2.0, 4.0, 6.0 + 3e-11, 1e-12, 0.0, 1.0)))
    def test_forward_only_matches_the_full_reduction(self, m):
        # The forward elimination's swaps and scale factors are the full
        # reduction's: a row is complete by the time it becomes the pivot row.
        det = rref_with_trail(m, PIVOT_TOL).determinant
        assert det_via_trail(m, PIVOT_TOL).hex() == det.hex()

    @pytest.mark.parametrize("pivot_tol", [1e-10, 1e-3, 1e-320])
    def test_matches_the_forward_only_trail_bit_for_bit(self, pivot_tol):
        seen = set()
        for m in det_sweep():
            want = _det_outcome(oracles.det_via_trail, m, pivot_tol)
            assert _det_outcome(det_via_trail, m, pivot_tol) == want, (m, pivot_tol)
            seen.add(want if isinstance(want, tuple) else "0.0" if want == "0x0.0p+0" else want.strip("-")[:3])
        # Every branch of the contract is met: the error messages, exact
        # zeros, infinities and finite determinants.
        assert {
            ("InvalidInputError", "scale_row factor must be nonzero"),
            ("InvalidInputError", "elimination overflowed: the reduced form has a non-finite entry"),
            "0.0",
            "inf",
            "0x1",
        } <= seen

    def test_matches_cofactor_oracle_on_seeded_matrices(self):
        rng = random.Random(20240817)
        for _ in range(300):
            n = rng.randint(2, 4)
            rows = [[rng.uniform(-10, 10) for _ in range(n)] for _ in range(n)]
            expected = oracles.det_cofactor(rows)
            if abs(expected) < 1.0:
                continue
            got = det_via_trail(matrix_from_rows(rows), PIVOT_TOL)
            assert got == pytest.approx(expected, rel=1e-9)

    def test_matches_numpy_det(self):
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(2, 5)
            rows = [[rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)]
            expected = float(np.linalg.det(np.array(rows)))
            if abs(expected) < 1e-3:
                continue
            assert det_via_trail(matrix_from_rows(rows)) == pytest.approx(expected, rel=1e-9)


# Entries that overflow, underflow or fall under a pivot threshold, with
# +-0.0 and small integers; mixed with uniform(-10, 10).
SPECIAL_ENTRIES = (0.0, -0.0, 1.0, -1.0, 2.0, 1e-12, 3e-11, 1e300, -1e300, 1e-300, 1e308, -1e308)
PIVOT_TOLS = (1e-10, 1e-3, 1e-320)
OVERFLOW_ROWS = [
    # Overflows only above its pivots: the full reduction raises, the
    # forward elimination answers 1.0.
    [[1, 1e300, 0], [0, 1, 1e10], [0, 0, 1]],
    [[1e-5, 1e305], [0, 1]],
    [[1, 1e308], [1, -1e308]],
    [[1e308, 1e308, 1], [-1e308, 1e308, 2], [1, 2, 3]],
    [[1e-5, 1e305, 0], [0, 1, 2]],
]


def one_pass_sweep(count, seed):
    """(entries, n, m) at n, m = 1..10: special and uniform entries, and repeated rows."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 10)
        m = n if rng.random() < 0.5 else rng.randint(1, 10)
        mix = rng.choice((0.0, 0.3, 1.0))
        entries = [rng.choice(SPECIAL_ENTRIES) if rng.random() < mix else rng.uniform(-10, 10) for _ in range(n * m)]
        if n > 1 and rng.random() < 0.3:
            src, dst = rng.randrange(n), rng.randrange(n)
            entries[dst * m : (dst + 1) * m] = entries[src * m : (src + 1) * m]
        yield tuple(entries), n, m


def _hexed(reduced, trail, rank):
    """A reduction's entries and trail factors as float.hex, so that -0.0 and nan compare bit for bit."""
    return [v.hex() for v in reduced], [(kind, i, j, f.hex()) for kind, i, j, f in trail], rank


def _rref_outcome(rref, m, pivot_tol):
    """rref_with_trail's checks on what `rref` returns: the type and message of its error, else its hexed result."""
    reduced, trail, rank = rref(m.entries, m.n_rows, m.n_cols, pivot_tol)
    try:
        for op in trail:
            ElementaryOp(*op)
    except InvalidInputError as exc:
        return "InvalidInputError", str(exc)
    if not all(map(math.isfinite, reduced)):
        return "InvalidInputError", "elimination overflowed: the reduced form has a non-finite entry"
    return _hexed(reduced, trail, rank)


@st.composite
def one_pass_cases(draw, max_dim=6):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    m = draw(st.integers(min_value=1, max_value=max_dim))
    special = st.sampled_from(SPECIAL_ENTRIES)
    return tuple(draw(st.lists(st.one_of(special, entry), min_size=n * m, max_size=n * m))), n, m


class TestForwardPlusBackSubstitution:
    """`_kernels.rref` is `forward` plus back-substitution; the one-pass reduction is its reference."""

    @pytest.mark.parametrize("pivot_tol", PIVOT_TOLS)
    def test_matches_the_one_pass_reduction_on_seeded_inputs(self, pivot_tol):
        ranks = set()
        for entries, n, m in one_pass_sweep(1500, 31):
            got = _kernels.rref(entries, n, m, pivot_tol)
            assert _hexed(*got) == _hexed(*oracles.rref(entries, n, m, pivot_tol)), (entries, n, m)
            ranks.add(got[2] < min(n, m))
        assert ranks == {False, True}  # full-rank and rank-deficient inputs both met

    @given(one_pass_cases(), st.sampled_from(PIVOT_TOLS))
    @example(((1.0, 2.0, 1.0, 2.0) * 2 + (2.0, 1.0, 2.0, 1.0) * 2, 4, 4), 1e-10)
    @example(((1.0, 1e300, 0.0, 0.0, 1.0, 1e10, 0.0, 0.0, 1.0), 3, 3), 1e-320)
    def test_matches_the_one_pass_reduction(self, case, pivot_tol):
        entries, n, m = case
        assert _hexed(*_kernels.rref(entries, n, m, pivot_tol)) == _hexed(*oracles.rref(entries, n, m, pivot_tol))

    @pytest.mark.parametrize("pivot_tol", PIVOT_TOLS)
    @pytest.mark.parametrize("rows", OVERFLOW_ROWS)
    def test_overflow_raises_as_the_one_pass_reduction_does(self, rows, pivot_tol):
        m = matrix_from_rows(rows)
        want = _rref_outcome(oracles.rref, m, pivot_tol)
        assert _rref_outcome(_kernels.rref, m, pivot_tol) == want
        try:
            res = rref_with_trail(m, pivot_tol)
            got = _hexed(res.R.entries, [(op.kind, op.i, op.j, op.factor) for op in res.trail], res.rank)
        except InvalidInputError as exc:
            got = "InvalidInputError", str(exc)
        assert got == want
        assert _det_outcome(det_via_trail, m, pivot_tol) == _det_outcome(oracles.det_via_trail, m, pivot_tol)
