import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balmat import _kernels
from balmat.algebra import transpose
from balmat.balance import classify_balance
from balmat.core import TolerancePolicy, constant_matrix, identity, matrix_from_rows
from balmat.discrepancy import (
    _interiors_balanced,
    _scan_interiors,
    discrepancy_report,
    fairness_propagation_check,
    fairness_transfer_check,
    find_balanced_interior,
    interior,
    one_fair_row_check,
)
from balmat.errors import DimensionError, HypothesisError, InvalidInputError
from balmat.genfuzz import PROPERTIES, FuzzContext, GenSpec, generate, replay_counterexample

import oracles

unit_up = st.floats(min_value=1.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def sym2(a, b):
    return matrix_from_rows([[a, b], [b, a]])


class TestDiscrepancyReport:
    def test_constant_matrix(self):
        rep = discrepancy_report(constant_matrix(3, 3, 1.0), fair_eps=0.1)
        assert rep.max_row_deviation == 0.0 and rep.max_col_deviation == 0.0
        assert rep.fair_rows and rep.fair_cols
        assert rep.fair_row_indices == frozenset({0, 1, 2})

    def test_fair_at_wide_threshold(self):
        rep = discrepancy_report(sym2(2, 1), fair_eps=0.6)
        assert rep.row_means == (1.5, 1.5)
        assert rep.max_row_deviation == 0.5
        assert rep.fair_rows

    def test_unfair_at_tight_threshold(self):
        rep = discrepancy_report(sym2(2, 1), fair_eps=0.4)
        assert not rep.fair_rows
        assert rep.fair_row_indices == frozenset()

    def test_requires_positive_eps(self):
        with pytest.raises(InvalidInputError):
            discrepancy_report(identity(2), fair_eps=0.0)

    def test_transpose_swaps_fields(self):
        rng = random.Random(3)
        m = matrix_from_rows([[rng.uniform(1, 9) for _ in range(4)] for _ in range(3)])
        rep = discrepancy_report(m, fair_eps=0.5)
        rep_t = discrepancy_report(transpose(m), fair_eps=0.5)
        assert rep_t.row_sums == rep.col_sums
        assert rep_t.col_sums == rep.row_sums
        assert rep_t.row_means == rep.col_means
        assert rep_t.max_row_deviation == rep.max_col_deviation
        assert rep_t.fair_rows == rep.fair_cols
        a_rows = m.to_rows()
        _, col_devs = oracles.line_deviation_lists(a_rows)
        fair_cols_of_a = frozenset(j for j, d in enumerate(col_devs) if d < 0.5)
        assert rep_t.fair_row_indices == fair_cols_of_a

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_matches_definition(self, n, m, seed):
        rng = random.Random(seed)
        rows = [[rng.uniform(-10, 10) for _ in range(m)] for _ in range(n)]
        rep = discrepancy_report(matrix_from_rows(rows), fair_eps=1.0)
        row_devs, col_devs = oracles.line_deviation_lists(rows)
        assert rep.max_row_deviation == pytest.approx(max(row_devs), abs=1e-12)
        assert rep.max_col_deviation == pytest.approx(max(col_devs), abs=1e-12)
        assert list(rep.row_sums) == pytest.approx([sum(r) for r in rows], abs=1e-9)


class TestFairnessTransfer:
    def test_constant(self):
        rec = fairness_transfer_check(constant_matrix(3, 3, 1.0), fair_eps=0.1)
        assert rec.holds

    def test_symmetric_2x2(self):
        rec = fairness_transfer_check(sym2(2, 1), fair_eps=0.6)
        assert rec.holds
        assert rec.lhs == 0.5 and rec.rhs == 0.5

    def test_unbalanced_rejected(self):
        with pytest.raises(HypothesisError) as e:
            fairness_transfer_check(matrix_from_rows([[1, 2], [3, 4]]))
        assert e.value.hypothesis == "not-balanced"

    def test_nonpositive_rejected(self):
        with pytest.raises(HypothesisError) as e:
            fairness_transfer_check(identity(2))
        assert e.value.hypothesis == "not-positive"

    @given(unit_up, unit_up)
    def test_exact_2x2_row_deviation_equals_column_deviation(self, a, b):
        rep = discrepancy_report(sym2(a, b), fair_eps=1.0)
        assert abs(rep.max_row_deviation - rep.max_col_deviation) <= 1e-12

    @given(unit_up, unit_up)
    def test_exact_2x2_transfer_holds_outside_ambiguous_band(self, a, b):
        # rows are tested at eps but columns at 2*eps, so thresholds inside
        # [dev, 2*dev) split the two verdicts by construction; pick one eps
        # above the deviation and one below half of it
        dev = abs(a - b) / 2.0
        assert fairness_transfer_check(sym2(a, b), fair_eps=dev + 1.0).holds
        if dev > 0:
            assert fairness_transfer_check(sym2(a, b), fair_eps=dev / 2.5).holds


class TestOneFairRow:
    def test_both_rows_fair_not_applicable(self):
        assert one_fair_row_check(sym2(2, 1), fair_eps=0.6, unfair_theta=6.0) is None

    def test_constant_not_applicable(self):
        assert one_fair_row_check(constant_matrix(3, 3, 1.0), fair_eps=0.1) is None

    def test_requires_theta_above_eps(self):
        with pytest.raises(InvalidInputError):
            one_fair_row_check(sym2(2, 1), fair_eps=0.5, unfair_theta=0.5)

    def test_2x2_tolerance_band_configuration(self):
        # slightly off-balance so the two row deviations differ: 0.5 vs 0.52
        m = matrix_from_rows([[2.0, 1.0], [0.98, 2.02]])
        tol = TolerancePolicy(rtol=0.05, atol=1e-9)
        rec = one_fair_row_check(m, tol, fair_eps=0.51, unfair_theta=5.1)
        assert rec is not None
        assert rec.holds  # the other row is fair at the widened 2*eps budget

    def test_engineered_single_fair_row(self):
        # constant first row, rotations of (m+theta, m-theta, m, m) below:
        # balanced up to ~4*m*theta in the column square sums
        theta, m_val, n = 1.0, 40.0, 4
        w = [m_val + theta, m_val - theta] + [m_val] * (n - 2)
        c = math.sqrt(sum(v * v for v in w) / n)
        rows = [[c] * n] + [[w[(j + i) % n] for j in range(n)] for i in range(1, n)]
        m = matrix_from_rows(rows)
        tol = TolerancePolicy(rtol=0.05, atol=1e-9)
        assert classify_balance(m, tol).fully_balanced
        rec = one_fair_row_check(m, tol, fair_eps=0.1, unfair_theta=theta)
        assert rec is not None and rec.holds
        assert rec.rhs >= rec.lhs  # column deviation reached theta - slack


class TestFairnessPropagation:
    def test_constant(self):
        assert fairness_propagation_check(constant_matrix(3, 3, 1.0), fair_eps=0.1).holds

    def test_symmetric_2x2(self):
        rec = fairness_propagation_check(sym2(2, 1), fair_eps=0.6)
        assert rec.holds

    def test_vacuous_when_no_fair_row(self):
        rec = fairness_propagation_check(sym2(9, 1), fair_eps=0.1)
        assert rec.holds

    def test_unbalanced_rejected(self):
        with pytest.raises(HypothesisError):
            fairness_propagation_check(matrix_from_rows([[1, 2], [3, 4]]))


class TestInterior:
    def test_constant_block(self):
        sub = interior(constant_matrix(3, 3, 1.0), 0, 2, 1, 2)
        assert sub == constant_matrix(2, 2, 1.0)

    def test_row_slice(self):
        assert interior(matrix_from_rows([[1, 2], [3, 4]]), 0, 1, 0, 2) == matrix_from_rows([[1, 2]])

    def test_out_of_bounds(self):
        with pytest.raises(DimensionError):
            interior(constant_matrix(3, 3, 1.0), 5, 1, 0, 1)
        with pytest.raises(DimensionError):
            interior(constant_matrix(3, 3, 1.0), 0, 0, 0, 1)


class TestFindBalancedInterior:
    def test_constant(self):
        match = find_balanced_interior(constant_matrix(3, 3, 1.0), min_dim=2)
        assert match is not None
        assert match.matrix == constant_matrix(2, 2, 1.0)
        assert match.report.fully_balanced

    def test_identity_top_left_block(self):
        match = find_balanced_interior(identity(3), min_dim=2)
        assert match is not None
        assert match.rows == (0, 1) and match.cols == (0, 1)
        assert match.matrix == identity(2)

    def test_largest_first(self):
        match = find_balanced_interior(constant_matrix(4, 4, 2.0), min_dim=2)
        assert match is not None
        assert len(match.rows) == 3  # proper interior, largest dimension first

    def test_self_consistency(self):
        tol = TolerancePolicy(rtol=1e-6, atol=1e-9)
        match = find_balanced_interior(identity(4), tol, min_dim=2)
        assert match is not None
        assert classify_balance(match.matrix, tol).fully_balanced

    def test_unbalanced_rejected(self):
        with pytest.raises(HypothesisError):
            find_balanced_interior(matrix_from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), min_dim=2)

    def test_overflowing_square_sums_rejected(self):
        m = matrix_from_rows([[1e200, 3, 1], [2, 1e200, 5], [1, 1, 1e200]])
        with pytest.raises(HypothesisError) as e:
            find_balanced_interior(m, min_dim=2)
        assert e.value.hypothesis == "not-balanced"

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            find_balanced_interior(constant_matrix(2, 3, 1.0), min_dim=2)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_than_three_rows_named(self, n):
        # No min_dim fits 2 <= min_dim < n: the message names the size.
        with pytest.raises(InvalidInputError) as e:
            find_balanced_interior(identity(n))
        assert str(e.value) == f"interior search needs at least 3 rows, got {n}x{n}"

    def test_min_dim_validation(self):
        with pytest.raises(InvalidInputError):
            find_balanced_interior(constant_matrix(3, 3, 1.0), min_dim=1)
        with pytest.raises(InvalidInputError):
            find_balanced_interior(constant_matrix(3, 3, 1.0), min_dim=3)

    def test_hadamard_type_4x4(self):
        # scaled +-1 sign pattern: exhaustive scan is its own oracle, and
        # this family does contain balanced proper interiors
        s = 2.5
        m = matrix_from_rows(
            [
                [s, s, s, s],
                [s, -s, s, -s],
                [s, s, -s, -s],
                [s, -s, -s, s],
            ]
        )
        assert classify_balance(m).fully_balanced
        match = find_balanced_interior(m, min_dim=2)
        assert match is not None
        assert classify_balance(match.matrix).fully_balanced

    def test_zero_blocks_never_match(self):
        # off-diagonal 2x2 blocks of the identity are all-zero and must not
        # count as balanced interiors
        match = find_balanced_interior(identity(4), min_dim=2)
        assert match is not None
        assert not match.matrix.is_zero


def _scan_case(seed):
    """A seeded square matrix, tolerance and min_dim for the interior scan.

    Mixes exactly balanced families (whose blocks rarely balance), signed
    Hadamard patterns (which have balanced blocks) and unbalanced random
    entries with some repeated or zero values, at tight and loose tolerance.
    """
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    family = seed % 4
    if family == 0:
        m = generate(GenSpec(kind="scaled_orthogonal", n=n, seed=seed))
    elif family == 1:
        n = 4
        m = generate(GenSpec(kind="hadamard_like", n=4, seed=seed))
    else:
        pool = [0.0, 1.0, -1.0, 2.5] + [rng.uniform(-3.0, 3.0) for _ in range(4)]
        m = matrix_from_rows([[rng.choice(pool) for _ in range(n)] for _ in range(n)])
    rtol = rng.choice((1e-6, 0.05, 0.5))
    return m, TolerancePolicy(rtol=rtol, atol=1e-9), rng.randint(2, m.n_rows - 1)


class TestScanInteriors:
    """The single-pass scan against the block-by-block reference, bit for bit.

    Interiors are contiguous blocks. The "True" in the case ids is the
    contiguous flag these cases carried while an index-subset search also
    existed; it is kept so the ids stay stable.
    """

    @pytest.mark.parametrize("seed", range(48), ids=lambda seed: f"{seed}-True")
    def test_matches_reference(self, seed):
        m, tol, min_dim = _scan_case(seed)
        got = _scan_interiors(m, tol, min_dim)
        want = oracles.interior_scan_reference(m, tol, min_dim)
        assert oracles.canonical(got) == oracles.canonical(want)

    def test_work_is_quadratic_per_dimension(self, monkeypatch):
        # Each d x d block's row and column defects, for every d, and no more.
        calls = [0]
        original = _kernels.spread_defect

        def counted(sums):
            calls[0] += 1
            return original(sums)

        monkeypatch.setattr(_kernels, "spread_defect", counted)
        n, min_dim = 10, 2
        m = generate(GenSpec(kind="scaled_orthogonal", n=n, seed=5))
        assert _scan_interiors(m, TolerancePolicy(), min_dim)[0] is None
        assert calls[0] == 2 * sum((n - d + 1) ** 2 for d in range(min_dim, n))

    def test_reference_cases_include_matches_and_misses(self):
        found = [_scan_interiors(*_scan_case(seed))[0] is not None for seed in range(48)]
        assert any(found) and not all(found)

    @pytest.mark.parametrize("min_dim", [2], ids=["True"])
    def test_tiny_entries_match_but_zero_blocks_do_not(self, min_dim):
        # 1e-200 squares to 0.0, so the tiny block's square sums are all
        # zero like the zero block's; only the entries tell them apart
        t = 1e-200
        m = matrix_from_rows([[0, 0, t, 5], [0, 0, t, 7], [1, 2, 3, 4], [9, 8, 6, 2]])
        tol = TolerancePolicy()
        got = _scan_interiors(m, tol, min_dim)
        want = oracles.interior_scan_reference(m, tol, min_dim)
        assert oracles.canonical(got) == oracles.canonical(want)
        match, best = got
        assert match is not None and match.rows == (0, 1)
        assert match.cols == (1, 2)
        assert match.report.row_square_sums == (0.0, 0.0)
        assert best == 0.0  # the zero block came first and has no defect


class TestInteriorConjectureCheck:
    def test_min_dim_below_two_is_invalid(self):
        with pytest.raises(InvalidInputError):
            replay_counterexample("interior_conjecture", (identity(4),), FuzzContext(min_dim=1))

    def test_unbalanced_input_fails_the_gate(self):
        m = matrix_from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        ctx = FuzzContext()
        with pytest.raises(HypothesisError) as e:
            PROPERTIES["interior_conjecture"].check((m,), ctx)
        assert e.value.hypothesis == "not-balanced"
        assert replay_counterexample("interior_conjecture", (m,)) is None

    def test_too_small_is_not_applicable(self):
        assert replay_counterexample("interior_conjecture", (identity(3),), FuzzContext(min_dim=3)) is None

    def test_violation_reports_the_best_block(self):
        m = generate(GenSpec(kind="scaled_orthogonal", n=5, seed=3))
        rec = replay_counterexample("interior_conjecture", (m,))
        _, want = oracles.interior_scan_reference(m, TolerancePolicy(), 2)
        assert not rec.holds
        assert rec.lhs == rec.slack == want


def _corollary_case(seed):
    """A seeded matrix, tolerance and fair_eps for the interior-fair corollary.

    Square and rectangular shapes (3..6 x 3..6) in four families: fair
    near-constant entries; sign patterns, constant along rows or columns or
    free; a constant matrix with one block of 0.0 entries, 1e-200 entries
    or a mix of both; and loose random entries, some zero or negative.
    """
    rng = random.Random(seed)
    n, m = rng.randint(3, 6), rng.randint(3, 6)
    family = seed % 4
    if family == 0:
        c = rng.uniform(1.0, 3.0)
        rows = [[c + rng.uniform(-0.01, 0.01) for _ in range(m)] for _ in range(n)]
        return matrix_from_rows(rows), TolerancePolicy(rtol=0.1, atol=1e-9), 0.1
    if family == 1:
        s = rng.uniform(0.5, 2.0)
        rows = [[rng.choice((-s, s)) for _ in range(m)] for _ in range(n)]
        if seed // 4 % 3 == 0:  # constant along rows
            rows = [[r[0]] * m for r in rows]
        elif seed // 4 % 3 == 1:  # constant along columns
            rows = [list(rows[0]) for _ in range(n)]
        return matrix_from_rows(rows), TolerancePolicy(), rng.choice((0.01, 2.5 * s))
    if family == 2:
        c = rng.uniform(1.0, 3.0)
        r_count, c_count = rng.randint(2, n - 1), rng.randint(2, m - 1)
        r0, c0 = rng.randint(0, n - r_count), rng.randint(0, m - c_count)
        fill = ((0.0,), (1e-200,), (0.0, 1e-200))[seed // 4 % 3]
        rows = [[c] * m for _ in range(n)]
        for i in range(r0, r0 + r_count):
            for j in range(c0, c0 + c_count):
                rows[i][j] = rng.choice(fill)
        return matrix_from_rows(rows), TolerancePolicy(rtol=0.9, atol=1e-9), c
    pool = [0.0, -1.0] + [rng.uniform(0.5, 1.5) for _ in range(6)]
    rows = [[rng.choice(pool) for _ in range(m)] for _ in range(n)]
    return matrix_from_rows(rows), TolerancePolicy(rtol=0.9, atol=1e-9), 1.0


class TestInteriorFairCorollaryCheck:
    """The corollary's check against the block-by-block reference, bit for bit."""

    @staticmethod
    def replay(m, tol, fair_eps):
        return replay_counterexample("interior_fair_corollary", (m,), FuzzContext(tol, fair_eps))

    @pytest.mark.parametrize("seed", range(48))
    def test_matches_reference(self, seed):
        m, tol, fair_eps = _corollary_case(seed)
        got = self.replay(m, tol, fair_eps)
        want = oracles.corollary_reference(m, tol, fair_eps)
        assert oracles.canonical(got) == oracles.canonical(want)

    @pytest.mark.parametrize("seed", range(48))
    def test_blocks_match_classify_balance(self, seed):
        # Unwidened tolerances, so that non-zero blocks fail too and the
        # worst defect is pinned, not only the zero rule.
        m, case_tol, _ = _corollary_case(seed)
        n, k = m.shape
        blocks = [
            interior(m, r0, r_count, c0, c_count)
            for r_count in range(2, n + 1)
            for c_count in range(2, k + 1)
            if (r_count, c_count) != (n, k)
            for r0 in range(n - r_count + 1)
            for c0 in range(k - c_count + 1)
        ]
        for tol in (case_tol, TolerancePolicy()):
            reports = [classify_balance(b, tol) for b in blocks]
            unbalanced = [r.max_defect for r in reports if not r.fully_balanced]
            want = (not unbalanced, max(unbalanced, default=0.0))
            assert oracles.canonical(_interiors_balanced(m, tol)) == oracles.canonical(want)

    def test_reference_cases_reach_every_outcome(self):
        outcomes = set()
        for seed in range(48):
            rec = oracles.corollary_reference(*_corollary_case(seed))
            outcomes.add(None if rec is None else rec.holds)
        assert outcomes == {None, True, False}

    @pytest.mark.parametrize(
        "rows, rhs",
        [
            ([[0, 0, 1], [0, 0, 1], [1, 1, 1]], 12.000000001),
            ([[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 1, 1]], 16.000000001),
        ],
    )
    def test_zero_block_is_a_violation(self, rows, rhs):
        # The top-left 2x2 block is zero, and a zero matrix is never
        # balanced; its defect is 0.0, so the violation reports lhs 0.0.
        m = matrix_from_rows(rows)
        tol = TolerancePolicy(rtol=0.9, atol=1e-9)
        rec = self.replay(m, tol, 1.0)
        assert (rec.holds, rec.lhs, rec.rhs, rec.slack) == (False, 0.0, rhs, 1.0)
        assert oracles.canonical(rec) == oracles.canonical(oracles.corollary_reference(m, tol, 1.0))

    @pytest.mark.parametrize(
        "rows",
        [
            [[1e-200, 1e-200, 1], [1e-200, 1e-200, 1], [1, 1, 1]],
            [[1e-200, 1e-200, 1, 1], [1e-200, 1e-200, 1, 1], [1, 1, 1, 1]],
        ],
    )
    def test_tiny_block_is_balanced(self, rows):
        # 1e-200 squares to 0.0, so the block's square sums are those of
        # the zero block above; only its entries tell it apart.
        m = matrix_from_rows(rows)
        tol = TolerancePolicy(rtol=0.9, atol=1e-9)
        rec = self.replay(m, tol, 1.0)
        assert rec.holds
        assert oracles.canonical(rec) == oracles.canonical(oracles.corollary_reference(m, tol, 1.0))
