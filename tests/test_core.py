import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balmat.core import (
    CheckRecord,
    Matrix,
    TolerancePolicy,
    approx_eq,
    constant_matrix,
    identity,
    matrix_from_rows,
)
from balmat.errors import DimensionError, InvalidInputError

finite = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False)


class TestApproxEq:
    def test_identical_values(self):
        assert approx_eq(1.0, 1.0, TolerancePolicy(1e-9, 1e-12))

    def test_clear_gap(self):
        assert not approx_eq(1.0, 1.5, TolerancePolicy(1e-9, 1e-12))

    def test_relative_formula(self):
        # |100 - 100.0000001| = 1e-7 against allowance 1e-6 * 100 = 1e-4
        assert approx_eq(100.0, 100.0000001, TolerancePolicy(rtol=1e-6, atol=0.0))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            approx_eq(math.inf, 1.0)
        with pytest.raises(InvalidInputError):
            approx_eq(1.0, math.nan)

    @given(finite)
    def test_reflexive(self, x):
        assert approx_eq(x, x)

    @given(finite, finite)
    def test_symmetric(self, x, y):
        assert approx_eq(x, y) == approx_eq(y, x)

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.sampled_from([2.0, -2.0, 0.5, 1024.0, -0.25]),
    )
    def test_scale_invariant_when_purely_relative(self, x, y, c):
        # Powers of two scale exactly, so the relative test is unaffected.
        tol = TolerancePolicy(rtol=1e-6, atol=0.0)
        assert approx_eq(x, y, tol) == approx_eq(c * x, c * y, tol)


class TestTolerancePolicy:
    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            TolerancePolicy(rtol=-1e-9, atol=0.1)

    def test_rejects_both_zero(self):
        with pytest.raises(InvalidInputError):
            TolerancePolicy(rtol=0.0, atol=0.0)

    def test_one_sided_policies_allowed(self):
        assert TolerancePolicy(rtol=0.0, atol=1e-9).allowance(5.0, 3.0) == 1e-9
        assert TolerancePolicy(rtol=1e-6, atol=0.0).allowance(5.0, 3.0) == pytest.approx(5e-6)


class TestMatrixConstruction:
    def test_all_ones(self):
        m = matrix_from_rows([[1, 1], [1, 1]])
        assert m.shape == (2, 2)
        assert m.entries == (1.0, 1.0, 1.0, 1.0)

    def test_identity_rows(self):
        m = matrix_from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert m == identity(3)

    def test_ragged_rows(self):
        with pytest.raises(DimensionError):
            matrix_from_rows([[1, 2], [3]])

    def test_empty_input(self):
        with pytest.raises(DimensionError):
            matrix_from_rows([])
        with pytest.raises(DimensionError):
            matrix_from_rows([[]])

    def test_non_finite_entry(self):
        with pytest.raises(InvalidInputError):
            matrix_from_rows([[1.0, math.inf]])

    def test_non_numeric_entry(self):
        with pytest.raises(InvalidInputError):
            matrix_from_rows([[1.0, "x"]])

    def test_entry_count_must_match_shape(self):
        with pytest.raises(DimensionError):
            Matrix(2, 2, (1.0, 2.0, 3.0))

    def test_accessors(self):
        m = matrix_from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.entry(1, 2) == 6.0
        assert m.row(0) == (1.0, 2.0, 3.0)
        assert m.col(1) == (2.0, 5.0)
        assert m.to_rows() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        with pytest.raises(DimensionError):
            m.entry(2, 0)

    def test_is_zero(self):
        assert constant_matrix(2, 3, 0.0).is_zero
        assert not constant_matrix(2, 3, 1e-300).is_zero


class FloatSubclass(float):
    pass


class TestMatrixEntries:
    def test_tuple_of_finite_floats_is_kept(self):
        entries = (1.5, -0.0, 5e-324, -1e308)
        m = Matrix(2, 2, entries)
        assert m.entries is entries
        assert [v.hex() for v in m.entries] == [v.hex() for v in entries]

    @pytest.mark.parametrize(
        "raw, want",
        [
            ([1.5, -0.0], (1.5, -0.0)),
            ((1, -2), (1.0, -2.0)),
            ((True, False), (1.0, 0.0)),
            ((FloatSubclass(1.5), 2.0), (1.5, 2.0)),
            ((Fraction(1, 3), 2.0), (1 / 3, 2.0)),
            (("1.5", 2.0), (1.5, 2.0)),
            ([2.0, FloatSubclass(-0.0)], (2.0, -0.0)),
        ],
    )
    def test_other_entries_become_a_tuple_of_floats(self, raw, want):
        m = Matrix(1, 2, raw)
        assert type(m.entries) is tuple
        assert [type(v) for v in m.entries] == [float, float]
        assert [v.hex() for v in m.entries] == [v.hex() for v in want]

    @pytest.mark.parametrize(
        "raw, message",
        [
            ((1.0, math.nan), "matrix entries must be finite, got nan"),
            ((math.inf, 1.0), "matrix entries must be finite, got inf"),
            ([1.0, -math.inf], "matrix entries must be finite, got -inf"),
            ((FloatSubclass(math.inf), 1.0), "matrix entries must be finite, got inf"),
            ((1.0, "nan"), "matrix entries must be finite, got 'nan'"),
            ((1.0, "1,5"), "matrix entry '1,5' is not a real number"),
            ((None, 1.0), "matrix entry None is not a real number"),
            ((1.0, 1j), "matrix entry 1j is not a real number"),
            ((10**400, 1.0), f"matrix entry {10**400!r} is not a real number"),
            ((1.0, -(10**400)), f"matrix entry {-(10**400)!r} is not a real number"),
        ],
    )
    def test_bad_entries_raise_as_before(self, raw, message):
        with pytest.raises(InvalidInputError) as info:
            Matrix(1, 2, raw)
        assert str(info.value) == message


class TestCheckRecord:
    def test_bounded(self):
        rec = CheckRecord.bounded("x", 1.0, 2.0)
        assert rec.holds and rec.slack == -1.0

    def test_close(self):
        rec = CheckRecord.close("x", 1.0, 1.1, allowed=0.05)
        assert not rec.holds
        assert rec.slack == pytest.approx(0.05, abs=1e-12)

    def test_consistency_enforced(self):
        with pytest.raises(InvalidInputError):
            CheckRecord("x", holds=True, lhs=1.0, rhs=0.0, slack=1.0)


def test_star_import_resolves_every_public_name():
    import balmat

    namespace: dict = {}
    exec("from balmat import *", namespace)
    assert set(balmat.__all__) <= namespace.keys()
    assert namespace["kernel_backend"] == balmat.kernel_backend


def test_one_version_number():
    import balmat

    # Read without tomllib, which Python 3.10 lacks: the [project] table's
    # `version = "..."` line.
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version = "([^"]*)"$', project, re.MULTILINE)
    assert version == balmat.__version__
