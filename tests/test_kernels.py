"""The kernels against exact rational arithmetic.

Float results are compared with `fractions.Fraction` recomputations from
`perfbench/oracles.py`, within the first-order rounding bound of recursive
summation (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3-4)
and, for determinants, within a share of the Hadamard bound.
"""

import importlib.util
from pathlib import Path

from hypothesis import assume, given
from hypothesis import strategies as st

from balmat import _kernels
from balmat.algebra import det_via_trail
from balmat.core import Matrix

# `tests/oracles.py` already holds the module name `oracles`.
_spec = importlib.util.spec_from_file_location(
    "perfbench_oracles", Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
)
exact = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(exact)

# Zero, or a magnitude whose square neither overflows nor underflows.
entry = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=-1e-6),
)


@st.composite
def flat_matrices(draw, max_dim=6, square=False):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    m = n if square else draw(st.integers(min_value=1, max_value=max_dim))
    entries = draw(st.lists(entry, min_size=n * m, max_size=n * m))
    return entries, n, m


def _rows(entries, n, m):
    return [entries[i * m : (i + 1) * m] for i in range(n)]


@given(flat_matrices())
def test_square_sums_match_exact(case):
    entries, n, m = case
    want_rows, want_cols = exact.square_sums(_rows(entries, n, m))
    got_rows = _kernels.row_square_sums(entries, n, m)
    got_cols = _kernels.col_square_sums(entries, n, m)
    assert len(got_rows) == n and len(got_cols) == m
    assert all(exact.sum_close(g, w, m) for g, w in zip(got_rows, want_rows))
    assert all(exact.sum_close(g, w, n) for g, w in zip(got_cols, want_cols))


@given(flat_matrices())
def test_line_sums_match_exact(case):
    entries, n, m = case
    rows = _rows(entries, n, m)
    want_rows, want_cols = exact.line_sums(rows)
    abs_rows, abs_cols = exact.line_sums([[abs(v) for v in r] for r in rows])
    got_rows, got_cols = _kernels.line_stats(entries, n, m)[:2]
    assert len(got_rows) == n and len(got_cols) == m
    assert all(exact.sum_close(g, w, m, a) for g, w, a in zip(got_rows, want_rows, abs_rows))
    assert all(exact.sum_close(g, w, n, a) for g, w, a in zip(got_cols, want_cols, abs_cols))


@given(flat_matrices(square=True))
def test_det_via_trail_matches_exact(case):
    entries, n, _ = case
    det = det_via_trail(Matrix(n, n, tuple(entries)))
    assume(det != 0.0)  # rank-deficient at the pivot threshold
    assert exact.det_close(det, _rows(entries, n, n))
