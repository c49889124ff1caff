import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from balmat import _kernels
from balmat.algebra import (
    ElementaryOp,
    _det_rank_steps,
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
from balmat.core import Matrix, constant_matrix, identity, matrix_from_rows
from balmat.errors import DimensionError, InvalidInputError, SingularMatrixError

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
        fwd = _kernels.rref(m.entries, m.n_rows, m.n_cols, PIVOT_TOL, forward_only=True)[1]
        assert {op[0] for op in full + fwd} <= {"swap_rows", "scale_row", "add_multiple"}
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
        assert _det_rank_steps(m, PIVOT_TOL) == (sign * math.inf, 3, 3)

    def test_overflow_above_the_pivots_only_is_not_seen(self):
        # Clearing column 1 above its pivot takes row 0 to -1e310 = -inf in
        # column 2, and clearing column 2 then leaves nan. Forward
        # elimination never goes back to row 0, and the matrix is upper
        # unitriangular, so its determinant is exactly 1.
        m = matrix_from_rows([[1, 1e300, 0], [0, 1, 1e10], [0, 0, 1]])
        with pytest.raises(InvalidInputError):
            rref_with_trail(m)
        with pytest.raises(InvalidInputError):
            _det_rank_steps(m, PIVOT_TOL)  # balmat det, full reduction
        assert det_via_trail(m) == 1.0

    @given(square_matrices())
    @example(Matrix(2, 2, (1e-12, 1.0, 3e-11, 1.0)))
    @example(Matrix(3, 3, (1.0, 2.0, 3.0, 2.0, 4.0, 6.0 + 3e-11, 1e-12, 0.0, 1.0)))
    def test_forward_only_matches_the_full_reduction(self, m):
        det, rank, steps = _det_rank_steps(m, PIVOT_TOL)
        fwd_det, fwd_rank, fwd_steps = _det_rank_steps(m, PIVOT_TOL, forward_only=True)
        assert det_via_trail(m, PIVOT_TOL).hex() == fwd_det.hex() == det.hex()
        assert fwd_rank == rank and fwd_steps <= steps
        # Same swaps and scale factors, in the same order; only the
        # add-multiples above the pivots are gone.
        full = _kernels.rref(m.entries, m.n_rows, m.n_cols, PIVOT_TOL)[1]
        fwd = _kernels.rref(m.entries, m.n_rows, m.n_cols, PIVOT_TOL, forward_only=True)[1]
        assert all(i > j for kind, i, j, _ in fwd if kind == "add_multiple")
        assert [op for op in fwd if op[0] != "add_multiple"] == [
            op for op in full if op[0] != "add_multiple"
        ]
        assert [op for op in fwd if op[0] == "add_multiple"] == [
            op for op in full if op[0] == "add_multiple" and op[1] > op[2]
        ]

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
