import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from balmat.balance import classify_balance
from balmat.core import TolerancePolicy, constant_matrix, identity, matrix_from_rows
from balmat.errors import DimensionError, HypothesisError, InvalidInputError, SymmetryError
from balmat.genfuzz import GenSpec, generate
from balmat.spectral2 import (
    det_homomorphism_check,
    emax_additivity_check,
    estimate_spectrum2,
    exact_spectrum2,
    quadform_branch_select,
    quadform_eval,
    quadform_predict,
    trace_entry_check,
)

import oracles

unit_up = st.floats(min_value=1.0, max_value=100.0, allow_nan=False, allow_infinity=False)
entry = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


def sym2(a, b):
    return matrix_from_rows([[a, b], [b, a]])


class TestExactSpectrum2:
    def test_dominant_symmetric(self):
        s = exact_spectrum2(matrix_from_rows([[2, 1], [1, 2]]))
        assert (s.lambda1, s.lambda2, s.is_complex) == (1.0, 3.0, False)

    def test_negative_eigenvalue(self):
        s = exact_spectrum2(matrix_from_rows([[1, 2], [2, 1]]))
        assert (s.lambda1, s.lambda2) == (-1.0, 3.0)

    def test_identity(self):
        s = exact_spectrum2(identity(2))
        assert (s.lambda1, s.lambda2) == (1.0, 1.0)

    def test_complex_pair(self):
        # rotation by 90 degrees: eigenvalues +/- i
        s = exact_spectrum2(matrix_from_rows([[0, -1], [1, 0]]))
        assert s.is_complex
        assert s.lambda1 == 0.0  # real part
        assert s.lambda2 == 1.0  # modulus

    def test_non_2x2(self):
        with pytest.raises(DimensionError):
            exact_spectrum2(identity(3))

    def test_complex_boundary_no_cancellation(self):
        # discriminant barely negative while ad - bc cancels to ~1e-16: the
        # modulus must come out finite, positive, and >= |real part|
        s = exact_spectrum2(matrix_from_rows([[1.0, 1.0 + 2**-52], [-1.0, -1.0]]))
        assert s.is_complex
        assert s.lambda2 > 0.0
        assert abs(s.lambda1) <= s.lambda2

    @given(entry, entry, entry, entry)
    def test_trace_and_det_identities(self, a, b, c, d):
        m = matrix_from_rows([[a, b], [c, d]])
        s = exact_spectrum2(m)
        if s.is_complex:
            return
        tr = a + d
        det = a * d - b * c
        scale = max(1.0, abs(tr), s.max_abs)
        assert abs((s.lambda1 + s.lambda2) - tr) <= 1e-9 * scale
        assert abs(s.lambda1 * s.lambda2 - det) <= 1e-9 * max(1.0, abs(det))
        assert s.min_abs <= s.max_abs

    @given(entry, entry, entry, entry)
    def test_matches_numpy_eigvals(self, a, b, c, d):
        m = matrix_from_rows([[a, b], [c, d]])
        s = exact_spectrum2(m)
        ev = np.linalg.eigvals(np.array(m.to_rows()))
        mags = sorted(abs(v) for v in ev)
        if s.is_complex:
            # conjugate pair: lambda1 is the shared real part, lambda2 the
            # shared modulus
            assert s.lambda1 == pytest.approx(float(ev[0].real), rel=1e-8, abs=1e-8)
            assert s.lambda2 == pytest.approx(mags[0], rel=1e-8, abs=1e-8)
            assert s.lambda2 == pytest.approx(mags[1], rel=1e-8, abs=1e-8)
        else:
            assert s.min_abs == pytest.approx(mags[0], rel=1e-8, abs=1e-8)
            assert s.max_abs == pytest.approx(mags[1], rel=1e-8, abs=1e-8)


class TestEstimateSpectrum2:
    def test_symmetric_example(self):
        est = estimate_spectrum2(sym2(2, 1))
        assert (est.max_estimate, est.min_estimate, est.spread) == (3.0, 1.0, 0.0)
        s = exact_spectrum2(sym2(2, 1))
        assert (s.min_abs, s.max_abs) == (1.0, 3.0)

    def test_off_diagonal_dominant(self):
        est = estimate_spectrum2(sym2(1, 2))
        assert (est.max_estimate, est.min_estimate) == (3.0, 1.0)
        s = exact_spectrum2(sym2(1, 2))
        assert {s.min_abs, s.max_abs} == {1.0, 3.0}

    def test_rank_one(self):
        est = estimate_spectrum2(constant_matrix(2, 2, 1.0))
        assert (est.max_estimate, est.min_estimate) == (2.0, 0.0)
        s = exact_spectrum2(constant_matrix(2, 2, 1.0))
        assert (s.min_abs, s.max_abs) == (0.0, 2.0)

    def test_not_balanced_hypothesis(self):
        with pytest.raises(HypothesisError) as e:
            estimate_spectrum2(matrix_from_rows([[1, 2], [3, 4]]))
        assert e.value.hypothesis == "not-balanced"

    def test_entries_below_one_hypothesis(self):
        with pytest.raises(HypothesisError) as e:
            estimate_spectrum2(identity(2))
        assert e.value.hypothesis == "entries-below-1"

    @pytest.mark.parametrize("kind, noise", [("symmetric2", 0.0), ("perturbed", 1e-7)])
    def test_defect_is_the_gates_max_defect(self, kind, noise):
        tol = TolerancePolicy()
        defects = []
        for seed in range(60):
            a = generate(GenSpec(kind=kind, noise=noise, seed=seed))
            try:
                est = estimate_spectrum2(a, tol)
            except HypothesisError:
                continue
            assert est.defect.hex() == classify_balance(a, tol).max_defect.hex()
            defects.append(est.defect)
        assert len(defects) >= 20
        assert (noise == 0.0) == (max(defects) == 0.0)

    @given(unit_up, unit_up)
    def test_exact_case_identities(self, a, b):
        # For the exactly balanced symmetric family the four sums and four
        # differences coincide, so the estimates are exact and spread is 0.
        m = sym2(a, b)
        est = estimate_spectrum2(m)
        s = exact_spectrum2(m)
        assert est.spread == 0.0
        assert abs(est.max_estimate - s.max_abs) <= 1e-9
        assert abs(est.min_estimate - s.min_abs) <= 1e-9


class TestTraceEntryCheck:
    def test_exact_diagonal(self):
        rec = trace_entry_check(sym2(2, 1))
        assert rec.holds and rec.lhs == 0.0

    def test_near_balanced_loose_tolerance(self):
        m = matrix_from_rows([[2, 1.01], [0.99, 2.02]])
        rec = trace_entry_check(m, TolerancePolicy(rtol=0.05, atol=1e-9))
        assert rec.holds
        assert rec.lhs == pytest.approx(0.02, abs=1e-12)

    def test_equal_diagonal_large_off(self):
        rec = trace_entry_check(sym2(1, 5), TolerancePolicy(rtol=1e-6, atol=1e-9))
        assert rec.holds and rec.lhs == 0.0

    def test_requires_positive(self):
        with pytest.raises(HypothesisError) as e:
            trace_entry_check(matrix_from_rows([[1, -1], [-1, 1]]))
        assert e.value.hypothesis == "not-positive"


class TestEmaxAdditivity:
    def test_exact_sum(self):
        rec = emax_additivity_check(sym2(2, 1), sym2(3, 2))
        assert rec.holds
        assert rec.lhs == pytest.approx(8.0, rel=1e-12)
        assert rec.rhs == pytest.approx(8.0, rel=1e-12)

    def test_rank_one_pair(self):
        rec = emax_additivity_check(constant_matrix(2, 2, 1.0), constant_matrix(2, 2, 1.0))
        assert rec.holds
        assert rec.lhs == pytest.approx(4.0) and rec.rhs == pytest.approx(4.0)

    def test_identity_fails_entry_hypothesis(self):
        with pytest.raises(HypothesisError) as e:
            emax_additivity_check(sym2(2, 1), identity(2))
        assert e.value.hypothesis == "entries-below-1"

    @given(unit_up, unit_up, unit_up, unit_up)
    def test_exact_family_always_holds(self, a1, b1, a2, b2):
        rec = emax_additivity_check(sym2(a1, b1), sym2(a2, b2))
        assert rec.holds


class TestQuadformEval:
    def test_basic(self):
        assert quadform_eval(sym2(2, 1), 1.0, 1.0) == 6.0

    def test_picks_leading_entry(self):
        assert quadform_eval(sym2(1, 2), 1.0, 0.0) == 1.0

    def test_asymmetric_rejected(self):
        with pytest.raises(SymmetryError):
            quadform_eval(matrix_from_rows([[1, 2], [3, 4]]), 1.0, 1.0)


class TestQuadformPredict:
    def test_b_lt_a_case(self):
        s = exact_spectrum2(sym2(2, 1))
        assert quadform_predict(s, "b_lt_a", 1.0, 1.0) == pytest.approx(6.0, rel=1e-12)
        assert quadform_eval(sym2(2, 1), 1.0, 1.0) == pytest.approx(6.0)

    def test_b_gt_a_case(self):
        s = exact_spectrum2(sym2(1, 2))
        assert quadform_predict(s, "b_gt_a", 1.0, 1.0) == pytest.approx(6.0, rel=1e-12)
        assert quadform_eval(sym2(1, 2), 1.0, 1.0) == pytest.approx(6.0)

    def test_leading_entry_recovery(self):
        s = exact_spectrum2(sym2(2, 1))
        assert quadform_predict(s, "b_lt_a", 1.0, 0.0) == pytest.approx(2.0, rel=1e-12)

    def test_unknown_branch(self):
        s = exact_spectrum2(sym2(2, 1))
        with pytest.raises(InvalidInputError):
            quadform_predict(s, "sideways", 1.0, 1.0)

    @given(
        unit_up,
        unit_up,
        st.integers(min_value=-2, max_value=2),
        st.integers(min_value=-2, max_value=2),
    )
    def test_prediction_matches_evaluation_on_exact_family(self, a, b, x, y):
        m = sym2(a, b)
        branch = quadform_branch_select(m)
        s = exact_spectrum2(m)
        f = quadform_eval(m, float(x), float(y))
        p = quadform_predict(s, branch, float(x), float(y))
        assert abs(p - f) <= 1e-9 * max(1.0, abs(f))


class TestBranchSelect:
    def test_diagonal_dominant(self):
        assert quadform_branch_select(sym2(2, 1)) == "b_lt_a"

    def test_off_diagonal_dominant(self):
        assert quadform_branch_select(sym2(1, 2)) == "b_gt_a"

    def test_tie_rule(self):
        assert quadform_branch_select(constant_matrix(2, 2, 1.0)) == "b_lt_a"

    def test_near_tie_follows_the_sign_of_b_minus_a(self):
        # b exceeds a by 6.5e-7 relative, inside the default rtol of 1e-6;
        # the "b_lt_a" form would miss the grid by about 5.6e-4
        a, b = 53.857922670949975, 53.85795794916812
        m = sym2(a, b)
        branch = quadform_branch_select(m)
        assert branch == "b_gt_a"
        s = exact_spectrum2(m)
        grid = [(float(x), float(y)) for x in range(-2, 3) for y in range(-2, 3)]
        for x, y in grid:
            f = quadform_eval(m, x, y)
            assert abs(quadform_predict(s, branch, x, y) - f) <= 1e-9 * max(1.0, abs(f))

    def test_asymmetric_rejected(self):
        with pytest.raises(SymmetryError):
            quadform_branch_select(matrix_from_rows([[1, 2], [3, 4]]))


class TestDetHomomorphism:
    def test_rank_one_pair(self):
        rec = det_homomorphism_check(constant_matrix(2, 2, 1.0), constant_matrix(2, 2, 3.0))
        assert rec.holds and rec.lhs == 0.0

    def test_fair_perturbed_partner(self):
        a = constant_matrix(2, 2, 1.0)
        b = matrix_from_rows([[2.1, 1.9], [1.9, 2.1]])
        rec = det_homomorphism_check(a, b, TolerancePolicy(rtol=1e-6, atol=1e-9), fair_eps=0.1)
        assert rec.holds
        assert rec.lhs == pytest.approx(0.4, abs=1e-12)
        assert rec.rhs >= 0.4

    def test_min_eigenvalue_hypothesis(self):
        with pytest.raises(HypothesisError) as e:
            det_homomorphism_check(sym2(2, 1), constant_matrix(2, 2, 3.0))
        assert e.value.hypothesis == "min-eig-not-small"

    def test_unfair_partner_rejected(self):
        a = constant_matrix(2, 2, 1.0)
        b = sym2(10.0, 1.0)
        with pytest.raises(HypothesisError) as e:
            det_homomorphism_check(a, b, fair_eps=0.1)
        assert e.value.hypothesis == "not-fair"

    @given(
        unit_up,
        st.floats(min_value=1.1, max_value=100.0, allow_nan=False),
        st.floats(min_value=-0.04, max_value=0.04, allow_nan=False),
    )
    def test_lhs_matches_brute_force_residual(self, t, base, wiggle):
        a = constant_matrix(2, 2, t)
        b = matrix_from_rows(
            [[base + 0.1, base + wiggle], [base + wiggle, base + 0.1]]
        )
        rec = det_homomorphism_check(a, b, fair_eps=0.2)
        oracle = oracles.homomorphism_residual(a.to_rows(), b.to_rows())
        scale = max(1.0, rec.lhs, oracle)
        assert abs(rec.lhs - oracle) <= 1e-12 * scale
