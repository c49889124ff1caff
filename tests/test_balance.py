import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balmat.algebra import scale, transpose
from balmat.balance import balance_defect, classify_balance, nan_max, square_sums
from balmat.core import TolerancePolicy, constant_matrix, identity, matrix_from_rows
from balmat.errors import InvalidInputError

import oracles

entry = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


@st.composite
def matrices(draw, max_dim=5, elements=entry):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    m = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(elements, min_size=m, max_size=m), min_size=n, max_size=n
        )
    )
    return matrix_from_rows(rows)


def spread(sums):
    """(max - min) / max(1, max), the balance defect's definition."""
    hi = max(sums)
    return (hi - min(sums)) / (hi if hi > 1.0 else 1.0)


#: Entry styles: seeded magnitudes, and rows whose squares overflow (1e154,
#: 1e200) or underflow to 0.0 (1e-200).
AXIS_STYLES = ("seeded", 1e154, 1e200, 1e-200)


class TestSquareSums:
    def test_all_ones_rows(self):
        # each row of the 3x3 unity matrix sums to 1^2 + 1^2 + 1^2 = 3
        assert square_sums(constant_matrix(3, 3, 1.0), "rows") == (3.0, 3.0, 3.0)

    def test_identity_columns(self):
        assert square_sums(identity(3), "columns") == (1.0, 1.0, 1.0)

    def test_direct_evaluation(self):
        assert square_sums(matrix_from_rows([[1, 2], [3, 4]]), "rows") == (5.0, 25.0)

    def test_bad_axis(self):
        with pytest.raises(InvalidInputError):
            square_sums(identity(2), "diagonal")
        with pytest.raises(InvalidInputError):
            balance_defect(identity(2), "diagonal")

    @given(matrices())
    def test_matches_definition(self, m):
        row_sums, col_sums = oracles.square_sum_lists(m.to_rows())
        assert list(square_sums(m, "rows")) == pytest.approx(row_sums, rel=1e-12, abs=1e-12)
        assert list(square_sums(m, "columns")) == pytest.approx(col_sums, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_axis_numbers_are_classify_balances(self, n):
        # `square_sums` and `balance_defect` read `classify_balance`'s fields.
        rng = random.Random(n)
        for m in range(1, 10):
            for style in AXIS_STYLES:
                rows = [[rng.uniform(-10.0, 10.0) for _ in range(m)] for _ in range(n)]
                if style != "seeded":
                    rows[rng.randrange(n)] = [style * rng.choice((1.0, -1.0)) for _ in range(m)]
                a = matrix_from_rows(rows)
                rep = classify_balance(a)
                entries = list(a.entries)
                for axis, sums, defect, want in (
                    ("rows", rep.row_square_sums, rep.horizontal_defect, oracles.row_square_sums(entries, n, m)),
                    ("columns", rep.col_square_sums, rep.vertical_defect, oracles.col_square_sums(entries, n, m)),
                ):
                    assert [v.hex() for v in square_sums(a, axis)] == [v.hex() for v in sums] == [
                        v.hex() for v in want
                    ], (style, n, m, axis)
                    assert balance_defect(a, axis).hex() == defect.hex() == spread(want).hex(), (style, n, m, axis)


class TestBalanceDefect:
    def test_all_ones(self):
        assert balance_defect(constant_matrix(3, 3, 1.0), "rows") == 0.0

    def test_normalized_spread(self):
        # sums 5 and 25: (25 - 5) / 25
        assert balance_defect(matrix_from_rows([[1, 2], [3, 4]]), "rows") == pytest.approx(0.8)

    def test_symmetric_columns(self):
        assert balance_defect(matrix_from_rows([[2, 1], [1, 2]]), "columns") == 0.0

    def test_single_row_axis(self):
        assert balance_defect(matrix_from_rows([[3, 4, 5]]), "rows") == 0.0


class TestClassifyBalance:
    def test_identity_fully_balanced(self):
        assert classify_balance(identity(3)).fully_balanced

    def test_scaled_all_ones(self):
        rep = classify_balance(constant_matrix(3, 3, 2.0))
        assert rep.fully_balanced
        assert rep.horizontal_defect == 0.0 and rep.vertical_defect == 0.0

    def test_unbalanced_rows(self):
        rep = classify_balance(matrix_from_rows([[1, 2], [3, 4]]), TolerancePolicy(rtol=1e-6))
        assert not rep.horizontally_balanced
        assert not rep.fully_balanced

    @pytest.mark.parametrize(
        "rows",
        [
            [[1e200, 0.0], [1.0, 0.0]],  # one row's square sum overflows
            [[1e200, 1.0], [1.0, 1e200]],  # every line's does, equally
            [[1e200, 1e200], [1e200, 2e200]],
        ],
    )
    def test_overflowing_square_sums_are_not_balanced(self, rows):
        rep = classify_balance(matrix_from_rows(rows))
        assert math.isinf(max(rep.row_square_sums))
        assert not rep.horizontally_balanced
        assert not rep.fully_balanced

    def test_zero_matrix_flagged(self):
        rep = classify_balance(constant_matrix(2, 2, 0.0))
        assert rep.is_zero
        assert not rep.fully_balanced
        assert not rep.horizontally_balanced and not rep.vertically_balanced
        assert rep.fully_balanced == (rep.horizontally_balanced and rep.vertically_balanced)

    def test_report_fields_consistent(self):
        rep = classify_balance(matrix_from_rows([[2, 1], [1, 2]]))
        assert rep.fully_balanced == (rep.horizontally_balanced and rep.vertically_balanced)
        assert rep.max_defect == max(rep.horizontal_defect, rep.vertical_defect)

    def test_max_defect_keeps_a_nan_in_either_orientation(self):
        # Column 0's square sum overflows beside column 1's 0.0, so the
        # vertical defect is nan while the horizontal one is 0.0.
        m = matrix_from_rows([[1.3e154, 0], [1.3e154, 0]])
        for a in (m, transpose(m)):
            assert math.isnan(classify_balance(a).max_defect)
        assert math.isnan(nan_max(0.0, math.nan)) and math.isnan(nan_max(math.nan, 0.0))
        assert [nan_max(x, y) for x, y in ((1.0, 2.0), (2.0, 1.0))] == [2.0, 2.0]
        assert [math.copysign(1.0, nan_max(x, y)) for x, y in ((0.0, -0.0), (-0.0, 0.0))] == [1.0, -1.0]

    def test_loose_tolerance_admits_near_balanced(self):
        m = matrix_from_rows([[2, 1.01], [0.99, 2.02]])
        assert not classify_balance(m, TolerancePolicy(rtol=1e-6)).fully_balanced
        assert classify_balance(m, TolerancePolicy(rtol=0.05)).fully_balanced

    @given(matrices())
    def test_transpose_swaps_verdicts_exactly(self, m):
        rep = classify_balance(m)
        rep_t = classify_balance(transpose(m))
        assert rep_t.horizontally_balanced == rep.vertically_balanced
        assert rep_t.vertically_balanced == rep.horizontally_balanced
        assert rep_t.horizontal_defect == rep.vertical_defect
        assert rep_t.vertical_defect == rep.horizontal_defect

    @given(
        matrices(elements=st.floats(min_value=1.0, max_value=100.0, allow_nan=False)),
        st.sampled_from([1.0, -1.0, 1.5, -2.5, 3.0]),
    )
    def test_defect_scale_invariant(self, m, lam):
        # entries >= 1 and |lam| >= 1 keep the defect normalizer live on
        # both sides, which is the regime where scaling cancels exactly.
        d0 = balance_defect(m, "rows")
        d1 = balance_defect(scale(lam, m), "rows")
        assert abs(d1 - d0) <= 1e-12

    def test_row_permutation_invariance(self):
        rng = random.Random(7)
        rows = [[rng.uniform(-10, 10) for _ in range(4)] for _ in range(4)]
        m = matrix_from_rows(rows)
        perm = [2, 0, 3, 1]
        p = matrix_from_rows([rows[i] for i in perm])
        # row square sums permute exactly; column sums only reorder their
        # addends, so they match to rounding
        assert [square_sums(p, "rows")[k] for k in range(4)] == [
            square_sums(m, "rows")[perm[k]] for k in range(4)
        ]
        for a, b in zip(square_sums(p, "columns"), square_sums(m, "columns")):
            assert a == pytest.approx(b, rel=1e-12)
        assert balance_defect(p, "columns") == pytest.approx(
            balance_defect(m, "columns"), rel=1e-9, abs=1e-12
        )


class TestExactBalanceStructure2x2:
    """Positive 2x2 with both defects zero forces a=d, b=c, and conversely."""

    @given(
        st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
    )
    def test_symmetric_structure_gives_exact_zero_defects(self, a, b):
        m = matrix_from_rows([[a, b], [b, a]])
        assert balance_defect(m, "rows") == 0.0
        assert balance_defect(m, "columns") == 0.0

    @given(
        st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
    )
    def test_breaking_the_structure_breaks_exact_balance(self, a, b):
        bump = max(1e-3, 1e-3 * a)
        m = matrix_from_rows([[a, b], [b, a + bump]])
        assert balance_defect(m, "rows") > 0.0 or balance_defect(m, "columns") > 0.0
