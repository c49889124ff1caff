"""The kernels against exact arithmetic and against their earlier forms.

Float results are compared with `fractions.Fraction` recomputations from
`perfbench/oracles.py`, within the first-order rounding bound of recursive
summation (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3-4)
and, for determinants, within a share of the Hadamard bound; 2x2 spectra
with 80-digit `decimal` roots. The balance kernels must also agree bit for
bit with the index-arithmetic forms kept in `tests/oracles.py`.
"""

import ast
import importlib.util
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from balmat import _kernels, algebra
from balmat.algebra import det_via_trail
from balmat.balance import classify_balance
from balmat.core import Matrix, identity, matrix_from_rows

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


# ---------------------------------------------------------------------------
# Bit for bit against the index-arithmetic kernels
# ---------------------------------------------------------------------------

#: Signed zeros, subnormals, ordinary values, and magnitudes whose squares
#: (from 1e154) or sums (near 1e308) overflow to inf.
wide_entry = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e154, max_value=1e308).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(min_value=-1e6, max_value=1e6),
)


K = _kernels._SHAPE_KERNEL_MAX_N

#: Shapes at the bound of the generated kernels and one past it, where the
#: loops run, and single rows and columns.
EDGE_SHAPES = [(K, K), (K + 1, K), (K, K + 1), (1, K), (K, 1), (1, K + 1), (K + 1, 1), (1, 1)]


@st.composite
def wide_matrices(draw, edges=False):
    """Up to 8x8 wide entries, or with `edges` also the EDGE_SHAPES."""
    small = st.tuples(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
    n, m = draw(st.one_of(small, st.sampled_from(EDGE_SHAPES)) if edges else small)
    # Values drawn again from a small pool tie for a line's lowest and highest.
    pool = draw(st.lists(wide_entry, min_size=1, max_size=3))
    entries = draw(st.lists(st.one_of(wide_entry, st.sampled_from(pool)), min_size=n * m, max_size=n * m))
    return entries, n, m


def hexes(values):
    return [v.hex() for v in values]


@given(wide_matrices(edges=True))
@example(([1e154, 1e154, 1e154, 1e154], 2, 2))
# 1 + 1 + 1 + 2^54 rounds to 2^54 + 4 left to right but to 2^54 right to left
@example(([1.0, 1.0, 1.0, 2.0**27], 1, 4))
@example(([1.0, 1.0, 1.0, 2.0**27], 4, 1))
@example(([1e308, 1e308, -1e308, 1e308, 5e-324, -0.0], 3, 2))
# the same at the bound and one past it
@example(([1.0] * (K - 1) + [2.0**27], 1, K))
@example(([1.0] * (K - 1) + [2.0**27], K, 1))
@example(([1.0] * K + [2.0**27], 1, K + 1))
@example(([1.0] * K + [2.0**27], K + 1, 1))
# signed zeros, and squares that overflow, at the bound and one past it
@example(([-0.0, 0.0] * (K * K // 2), K, K))
@example(([-0.0, 0.0, 1e154] * (K * (K + 1) // 3) + [-0.0] * (K * (K + 1) % 3), K + 1, K))
# outside the Matrix domain: NaN and the infinities
@example(([math.nan, 1.0, math.inf, -math.inf, 2.0, math.inf], 2, 3))
def test_square_sums_bit_for_bit(case):
    entries, n, m = case
    assert hexes(_kernels.row_square_sums(entries, n, m)) == hexes(oracles.row_square_sums(entries, n, m))
    assert hexes(_kernels.col_square_sums(entries, n, m)) == hexes(oracles.col_square_sums(entries, n, m))
    rows = [entries[b : b + m] for b in range(0, n * m, m)]
    assert hexes(map(_kernels.sum_squares, rows)) == hexes(oracles.row_square_sums(entries, n, m))


@given(wide_matrices(edges=True))
@example(([1e308, 1e308, -1e308, 1e308, 5e-324, -0.0], 3, 2))
# 1 + 1 + 2^53 is 2^53 + 2 left to right but 2^53 right to left
@example(([1.0, 1.0, 2.0**53], 1, 3))
@example(([1.0, 1.0, 2.0**53], 3, 1))
# the same at the bound and one past it
@example(([1.0] * (K - 1) + [2.0**53], 1, K))
@example(([1.0] * (K - 1) + [2.0**53], K, 1))
@example(([1.0] * K + [2.0**53], 1, K + 1))
@example(([1.0] * K + [2.0**53], K + 1, 1))
# signed zeros tie for lowest and highest; the first one seen is kept
@example(([-0.0, 0.0] * (K * K // 2), K, K))
@example(([0.0, -0.0, 0.0, -0.0], 2, 2))
# outside the Matrix domain: NaN never compares, inf - inf is NaN
@example(([math.nan, 1.0, math.inf, -math.inf, 2.0, math.inf], 2, 3))
# ties for lowest and highest one past the bound
@example(([2.0, -1.0, 2.0, -1.0, 2.0] * (K * (K + 1) // 5) + [2.0] * (K * (K + 1) % 5), K, K + 1))
def test_line_stats_bit_for_bit(case):
    entries, n, m = case
    got = _kernels.line_stats(entries, n, m)
    want = oracles.line_stats(entries, n, m)
    assert [hexes(v) for v in got] == [hexes(v) for v in want]


def _run_shape_kernels(n, m):
    entries = [float(k) for k in range(n * m)]
    _kernels.balance(entries, n, m, 1e-6, 1e-9)
    _kernels.line_stats(entries, n, m)


def _run_det(n):
    assert det_via_trail(identity(n)) == 1.0


def test_shapes_past_the_bound_compile_nothing():
    before = _kernels._kernel.cache_info()
    for n, m in [(K + 1, 1), (1, K + 1), (K + 1, K), (K, K + 1)]:
        _run_shape_kernels(n, m)
    _run_det(K + 1)
    assert _kernels._kernel.cache_info() == before


def test_each_shape_compiles_once():
    _run_shape_kernels(3, 4)
    _run_det(3)
    before = _kernels._kernel.cache_info()
    _run_shape_kernels(3, 4)
    _run_det(3)
    after = _kernels._kernel.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)
    # balance, line statistics and det
    assert after.hits == before.hits + 3


@pytest.mark.parametrize("kind", ["line_stats", "det"])
def test_shape_kernels_call_nothing(kind):
    # No builtin min(), max() or abs(): a call costs more than the comparisons it saves.
    source = algebra._det_source(K) if kind == "det" else _kernels._line_stats_source(3, K)
    tree = ast.parse(source)
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def test_code_is_compiled_only_by_the_kernel_cache_and_one_write_init():
    # Every generated kernel goes through `_kernels._kernel`, the one cache
    # keyed by builder and shape, so no module keeps a cache of its own.
    def calls(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from calls(child, module, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                if child.func.id in ("exec", "compile"):
                    yield f"{module}.{function} {child.func.id}"
            yield from calls(child, module, function)

    found = [
        call
        for path in sorted(Path(_kernels.__file__).parent.glob("*.py"))
        for call in calls(ast.parse(path.read_text(), path.name), path.stem, "<module>")
    ]
    assert sorted(found) == [
        "_kernels._kernel compile",
        "_kernels._kernel exec",
        "core.one_write_init compile",
        "core.one_write_init exec",
    ]


#: Any float, NaN and the infinities included.
any_float = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))


@given(any_float, any_float, st.one_of(st.floats(min_value=0.0), st.sampled_from([1e-320, 1e-10])))
def test_inline_magnitude_picks_the_pivot_abs_picks(x, y, tol):
    # The determinant kernel writes |x| as `x if x >= 0.0 else -x`: it can
    # differ from abs(x) only in the sign of 0.0 or NaN, which no
    # comparison sees.
    def mag(v):
        return v if v >= 0.0 else -v

    assert (mag(x) > mag(y)) == (abs(x) > abs(y))
    assert (mag(x) > tol) == (abs(x) > tol)
    assert (mag(x) <= tol) == (abs(x) <= tol)


@given(
    st.lists(any_float, min_size=0, max_size=8),
    st.one_of(st.floats(min_value=-1.0, max_value=4.0), any_float),
    st.one_of(st.floats(min_value=-1.0, max_value=1.0), any_float),
)
def test_sums_all_close_matches_pairwise(sums, rtol, atol):
    assert _kernels.sums_all_close(sums, rtol, atol) is oracles.sums_all_close(sums, rtol, atol)


@given(wide_matrices(), st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=0.0, max_value=1e-3))
def test_sums_all_close_matches_pairwise_on_square_sums(case, rtol, atol):
    for sums in (_kernels.row_square_sums(*case), _kernels.col_square_sums(*case)):
        assert _kernels.sums_all_close(sums, rtol, atol) is oracles.sums_all_close(sums, rtol, atol)


def _agree(sums, rtol, atol):
    want = oracles.sums_all_close(sums, rtol, atol)
    got = _kernels.sums_all_close(sums, rtol, atol)
    assert got is want, (sums, rtol, atol)
    # The screen lives in `axis_balance`, whose domain is finite,
    # non-negative sums and tolerances.
    if sums and all(0.0 <= v < math.inf for v in sums) and rtol >= 0.0 and atol >= 0.0:
        assert _kernels.axis_balance(sums, rtol, atol)[1] is want, (sums, rtol, atol)
    return got


# The (lo, rtol, atol) cases below are dyadic, so their boundary spans are exact.
@pytest.mark.parametrize(
    "lo, rtol, atol", [(1.0, 0.5, 0.5), (3.0, 0.125, 0.25), (0.0, 0.25, 2.0), (2.0, 1.0, 0.0), (4.0, 3.0, 1.0)]
)
def test_sums_all_close_span_on_the_min_allowance(lo, rtol, atol):
    # max - min exactly atol + rtol*min: the screen answers True on it and
    # below it; one ulp above it the pairwise loop decides.
    hi = lo + (atol + rtol * lo)
    assert hi - lo == atol + rtol * lo
    for top in (math.nextafter(hi, -math.inf), hi, math.nextafter(hi, math.inf)):
        for sums in ([lo, top], [top, lo], [top, (lo + top) / 2, lo]):
            _agree(sums, rtol, atol)
    assert _agree([lo, hi], rtol, atol) is True


@pytest.mark.parametrize("lo, rtol, atol", [(1.0, 0.5, 0.5), (3.0, 0.25, 0.0), (0.0, 0.5, 1.0), (0.5, 0.5, 0.25)])
def test_sums_all_close_span_on_the_max_allowance(lo, rtol, atol):
    # max - min exactly atol + rtol*max: still close; one ulp above is not.
    hi = (lo + atol) / (1.0 - rtol)
    assert hi - lo == atol + rtol * hi
    assert _agree([lo, hi], rtol, atol) is True
    assert _agree([hi, lo], rtol, atol) is True
    assert _agree([lo, math.nextafter(hi, math.inf)], rtol, atol) is False
    for top in (math.nextafter(hi, -math.inf), hi, math.nextafter(hi, math.inf)):
        for sums in ([lo, top], [top, lo], [lo, top, (lo + top) / 2]):
            _agree(sums, rtol, atol)


@pytest.mark.parametrize(
    "sums, rtol, atol",
    [
        ([], 1e-6, 1e-9),
        ([5.0], 0.0, -1.0),
        ([-2.0, -1.0], 0.5, 1.0),  # negative: the pairwise allowance is wider
        ([-3.0, 1.0], 1.0, 0.0),
        ([-1.0, 1.0, 0.5], 0.0, 2.0),
        ([0.0, 0.5, 10.0], 2.0, -1.0),  # negative atol: the span alone does not decide
        ([1.0, 1.5], -0.5, 1.0),  # negative rtol
        ([math.inf, 1.0], 1e-6, 1e-9),
        ([math.inf, math.inf], 1e-6, 1e-9),
        ([1.0, math.inf], 0.0, 1.0),
        ([math.nan, 1.0, 5.0], 1e-6, 1e-9),
        ([1.0, math.nan, 5.0], 1e-6, 1e-9),
        ([1.0, 5.0, math.nan], 1e-6, 1e-9),
        ([1.0, math.nan, 1.0], 1e-6, 1e-9),
        ([0.0, math.nan], 0.0, -1.0),  # one comparable value is no pair
        ([1.0, 3.0], 1.0, 0.0),
        ([1.0, 3.0], 2.5, 0.0),
        ([0.0, 7.0], 1.0, 0.0),
        ([-0.0, 0.0, 5e-324], 0.0, 0.0),
        # The lowest and highest sums are close, the lowest and the middle
        # one are not: both differences round to the same float, and the
        # middle one's allowance is one ulp lower.
        ([7.2062137125937635, 28.824854850375065, 28.82485485037507], 0.75, 0.0),
    ],
)
def test_sums_all_close_edge_inputs(sums, rtol, atol):
    _agree(sums, rtol, atol)


# ---------------------------------------------------------------------------
# spectrum2 against 80-digit decimal roots
# ---------------------------------------------------------------------------

REL = 1e-13


def exact_spectrum(a, b, c, d):
    """Spectrum of [[a, b], [c, d]] in spectrum2's form, to 80 digits.

    Trace, determinant and discriminant are exact fractions; only the
    square root and the divisions round, at 80 digits. The smaller real
    root comes from det / (larger root), so it keeps 80 digits however
    small it is. A real spectrum comes as its two roots in increasing
    order; a complex pair as its shared real part and modulus.
    """
    A, B, C, D = (Fraction(v) for v in (a, b, c, d))
    tr, det, disc = A + D, A * D - B * C, (A - D) ** 2 + 4 * B * C
    with localcontext() as ctx:
        ctx.prec = 80

        def dec(f):
            return Decimal(f.numerator) / Decimal(f.denominator)

        if disc < 0:
            return dec(tr) / 2, dec(det).sqrt(), True
        s = dec(disc).sqrt()
        big = (dec(tr) + s) / 2 if tr >= 0 else (dec(tr) - s) / 2
        small = dec(det) / big if big else Decimal(0)
        return min(small, big), max(small, big), False


def check_spectrum2(case, scale=None):
    """spectrum2 on `case` against the exact roots, each within REL of `scale`.

    `scale` defaults to each root's own magnitude. Roots of equal magnitude
    (trace 0) may come in either order, so real roots are compared sorted.
    """
    lam1, lam2, is_complex = _kernels.spectrum2(*case)
    want1, want2, want_complex = exact_spectrum(*case)
    assert bool(is_complex) == want_complex
    if not is_complex:
        assert abs(lam1) <= abs(lam2)
        lam1, lam2 = sorted((lam1, lam2))
    for got, want in ((lam1, want1), (lam2, want2)):
        bound = Decimal(REL) * (abs(want) if scale is None else scale(want1, want2))
        assert abs(Decimal(got) - want) <= bound, (case, got, want)


# Entries k * 2^e with |k| <= 2^20: every step of spectrum2 before its
# square roots is exact, so each root is checked relative to itself and the
# real/complex verdict must match exactly.
W = 2**20


@st.composite
def near_boundary(draw):
    """Integer entries whose discriminant (a-d)^2 + 4bc is near 0."""
    t = draw(st.integers(-W, W))
    b = draw(st.integers(1, W)) * draw(st.sampled_from([1, -1]))
    c = round(-t * t / (4 * b)) + draw(st.integers(-3, 3))
    assume(abs(c) <= W)
    a = draw(st.integers(-W // 2, W // 2))
    d = a - t
    assume(abs(d) <= W)
    return a, b, c, d


@given(
    st.one_of(near_boundary(), st.tuples(*[st.integers(-W, W)] * 4)),
    st.integers(-60, 60),
)
@example((3, 1, -1, 1), 0)  # disc = 0: a double root
@example((1, 1, -1, -1), 0)  # nilpotent: both roots 0
@example((4, 4, -1, 0), -2)  # disc = 0 with a non-integer entry
@example((W, W - 1, -W, -W), 0)  # disc = -4 against 4.4e12 terms
@example((W, -W, W - 1, -W), 0)
@example((0, -1, -3, 0), 0)  # roots +/- sqrt(3): equal magnitudes
@example((W, 1, 1, 0), 0)  # roots 2^20 and about -2^-20: no cancellation allowed
@example((1, 1, -2, -2), -57)  # roots 0 and -2^-57
def test_spectrum2_exact_discriminant(case, exponent):
    check_spectrum2(tuple(k * 2.0**exponent for k in case))


@given(entry, entry, st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3)), st.integers(-14, 6))
@example(1.0, 0.0, 0.0, 0)  # a double root: b = 0 and a = d
@example(-517.407816675707, 0.04981803501249208, 4.3e-7, 0)
@example(0.0, -203048.61143655225, 0.0, 0)  # roots +/- b
def test_spectrum2_symmetric(a, b, gap, exponent):
    # Symmetric matrices have a real spectrum with well-conditioned roots,
    # so both are checked relative to the spectral radius, down to a
    # vanishing discriminant (a = d, b -> 0).
    check_spectrum2((a, b, b, a + gap * 10.0**exponent), lambda w1, w2: max(abs(w1), abs(w2)))


# ---------------------------------------------------------------------------
# The fused balance kernel against the oracles
# ---------------------------------------------------------------------------

#: Every generated shape, then shapes that run the loops.
BALANCE_SHAPES = [(n, m) for n in range(1, K + 1) for m in range(1, K + 1)] + [(9, 3), (3, 9), (12, 12)]

#: (rtol, atol) pairs, all as `TolerancePolicy` allows them.
BALANCE_TOLS = [(1e-6, 1e-9), (0.5, 1e-9), (0.05, 0.0), (0.0, 1e-3), (1.5, 2.0)]


def _balance_entries(rng, style, count):
    if style == "seeded":  # signed
        return [rng.uniform(-100.0, 100.0) for _ in range(count)]
    if style == "ties":  # equal square sums and ties for lowest and highest
        return [rng.choice((1.0, -1.0, 2.0, -2.0)) for _ in range(count)]
    if style == "tiny":  # squares underflow to 0.0
        return [rng.choice((0.0, 1e-200, -1e-200)) for _ in range(count)]
    if style == "huge":  # squares or their sums overflow to inf
        return [rng.choice((1.0, 1e200, -1e154, 1.5e154)) for _ in range(count)]
    # "band": square sums within about 1.7x of each other, so at rtol=0.5
    # spans fall between the allowances at the lowest and the highest sum
    return [rng.choice((1.0, -1.0)) * (1.0 + rng.uniform(0.0, 0.3)) for _ in range(count)]


BALANCE_STYLES = ("seeded", "ties", "tiny", "huge", "band")


def _reference_axis(sums, rtol, atol):
    """`_kernels.axis_balance` from builtin max and min and the oracle's pairwise loop.

    max and min keep the first of tied values and skip a NaN after the
    first value, as the kernels' scan does.
    """
    defect = (max(sums) - min(sums)) / max(1.0, max(sums))
    return defect, math.isfinite(defect) and oracles.sums_all_close(sums, rtol, atol)


def _balance_reference(entries, n, m, rtol, atol):
    """`_kernels.balance` from the index-arithmetic oracles in `tests/oracles.py`."""
    rs = oracles.row_square_sums(entries, n, m)
    cs = oracles.col_square_sums(entries, n, m)
    h_defect, h_bal = _reference_axis(rs, rtol, atol)
    v_defect, v_bal = _reference_axis(cs, rtol, atol)
    return tuple(rs), tuple(cs), h_defect, v_defect, h_bal, v_bal


def _in_middle_band(sums, rtol, atol):
    lo, hi = min(sums), max(sums)
    return atol + rtol * lo < hi - lo <= atol + rtol * hi


@pytest.mark.parametrize("n, m", BALANCE_SHAPES, ids=lambda v: str(v))
def test_balance_bit_for_bit(n, m):
    rng = random.Random(n * 100 + m)
    band = 0
    for style in BALANCE_STYLES:
        for _ in range(4):
            entries = _balance_entries(rng, style, n * m)
            for rtol, atol in BALANCE_TOLS:
                got = _kernels.balance(entries, n, m, rtol, atol)
                want = _balance_reference(entries, n, m, rtol, atol)
                assert type(got[0]) is tuple and type(got[1]) is tuple
                assert [hexes(v) for v in got[:2]] == [hexes(v) for v in want[:2]], (style, entries)
                assert hexes(got[2:4]) == hexes(want[2:4]), (style, entries)
                assert got[4:] == want[4:], (style, entries, rtol, atol)
                band += _in_middle_band(want[0], rtol, atol) + _in_middle_band(want[1], rtol, atol)
            if style in ("seeded", "ties", "band"):  # no square under- or overflows
                want_rows, want_cols = exact.square_sums(_rows(entries, n, m))
                assert all(exact.sum_close(g, w, m) for g, w in zip(got[0], want_rows))
                assert all(exact.sum_close(g, w, n) for g, w in zip(got[1], want_cols))
    # the pairwise fallback ran: some axis fell between the two allowances
    assert band > 0 or n * m == 1


@pytest.mark.parametrize("n, m", [(3, 1), (1, 3), (K + 1, 1), (1, K + 1)], ids=lambda v: str(v))
def test_balance_leaves_the_band_to_the_pairwise_loop(n, m):
    # At rtol 0.75 the lowest and highest squares are close, but after
    # rounding the lowest and the middle one are not: the screen, unrolled
    # or not, must leave this verdict to the pairwise loop.
    entries = [1.7532870469502235, 3.5065740939004475] + [3.506574093900448] * (n * m - 2)
    got = _kernels.balance(entries, n, m, 0.75, 0.0)
    want = _balance_reference(entries, n, m, 0.75, 0.0)
    assert got[4:] == want[4:] == (m != 1, n != 1)


@pytest.mark.parametrize(
    "sums, rtol, atol",
    [
        ([1.0, 1.6], 0.5, 0.0),  # between the allowances
        ([1.0, 1.5, 1.6], 0.5, 0.0),
        ([3.0, 1.0, 2.0], 1.0, 0.0),
        ([2.0, 2.0, 2.0], 1e-6, 1e-9),
        ([0.0, 0.0], 1e-6, 1e-9),
        ([0.0, 5.0], 0.0, 5.0),
        ([math.inf, 1.0], 1e300, 0.0),  # the allowance at the lowest sum is inf
        ([math.inf, math.inf], 1e-6, 1e-9),
        ([7.0], 0.0, 1e-9),
        ([math.inf], 1e-6, 1e-9),
        ([1.7e308, 1e308], 0.5, 0.0),
    ],
)
def test_axis_balance_matches_the_separate_kernels(sums, rtol, atol):
    defect, verdict = _reference_axis(sums, rtol, atol)
    got = _kernels.axis_balance(sums, rtol, atol)
    assert (got[0].hex(), got[1]) == (defect.hex(), verdict)


@pytest.mark.parametrize(
    "rows, is_zero",
    [
        ([[1e-200, 0.0], [0.0, 1e-200]], False),
        ([[0.0, 0.0], [0.0, 0.0]], True),
        ([[0.0, -0.0, 0.0]], True),
        ([[1e-200] * 9] * 9, False),
        ([[0.0] * 9] * 9, True),
    ],
)
def test_balance_tells_tiny_entries_from_the_zero_matrix(rows, is_zero):
    # Both square to all-zero sums; only the entries tell them apart.
    m = matrix_from_rows(rows)
    report = classify_balance(m)
    assert report.row_square_sums == (0.0,) * m.n_rows
    assert report.is_zero is is_zero
    assert report.fully_balanced is not is_zero


def test_balance_compiles_once_per_shape_and_not_past_the_bound():
    _kernels.balance([1.0] * 12, 3, 4, 1e-6, 1e-9)
    before = _kernels._kernel.cache_info()
    for n, m in [(3, 4), (K + 1, K), (K, K + 1), (K + 1, 1)]:
        _kernels.balance([2.0] * (n * m), n, m, 1e-6, 1e-9)
    after = _kernels._kernel.cache_info()
    assert (after.misses, after.currsize, after.hits) == (before.misses, before.currsize, before.hits + 1)


def test_balance_kernel_calls_only_the_pairwise_fallback():
    tree = ast.parse(_kernels._balance_source(3, K))
    assert [node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call)] == ["pairs_close"] * 2
