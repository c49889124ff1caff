"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance here is pinned; none are calibrated at runtime.
"""

import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import balmat
from balmat.algebra import add, det_via_trail, inverse2, mul, rref_with_trail, scale, transpose
from balmat.balance import balance_defect, classify_balance
from balmat.cli import parse_matrix_csv, serialize_csv
from balmat.core import TolerancePolicy, constant_matrix, matrix_from_rows
from balmat.discrepancy import discrepancy_report, fairness_transfer_check
from balmat.genfuzz import FuzzContext, GenSpec, Matrix, fuzz_campaign, generate, replay_counterexample
from balmat.spectral2 import (
    det_homomorphism_check,
    estimate_spectrum2,
    exact_spectrum2,
    quadform_branch_select,
    quadform_eval,
    quadform_predict,
)

import oracles

DATA_DIR = Path(__file__).parent / "data"
PIVOT_TOL = 1e-10


def announce(number: int, name: str, ok: bool):
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}")


def symmetric2_fixtures(count: int, seed: int):
    """Seeded exactly balanced symmetric 2x2 fixtures, entries in [1, 100].

    Pairs with |a - b| < 1e-3 are redrawn: at a == b the two quadratic-form
    branches coincide, so fixtures stay clear of the boundary where the
    branch choice is numerically ambiguous.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = rng.uniform(1.0, 100.0)
        b = rng.uniform(1.0, 100.0)
        if abs(a - b) < 1e-3:
            continue
        out.append(matrix_from_rows([[a, b], [b, a]]))
    return out


def max_defect(m):
    return max(balance_defect(m, "rows"), balance_defect(m, "columns"))


def test_criterion_1_exact_case_estimator():
    fixtures = symmetric2_fixtures(1000, seed=101)
    start = time.perf_counter()
    ok = True
    for m in fixtures:
        est = estimate_spectrum2(m)
        s = exact_spectrum2(m)
        if abs(est.max_estimate - s.max_abs) > 1e-9 or abs(est.min_estimate - s.min_abs) > 1e-9:
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    announce(1, "exact-case estimator", ok)
    assert ok, f"estimator exactness failed (elapsed {elapsed:.3f}s)"


def test_criterion_2_quadratic_form_reconstruction():
    fixtures = symmetric2_fixtures(1000, seed=101)
    grid = [(float(x), float(y)) for x in range(-2, 3) for y in range(-2, 3)]
    branches = set()
    start = time.perf_counter()
    ok = True
    for m in fixtures:
        branch = quadform_branch_select(m)
        branches.add(branch)
        s = exact_spectrum2(m)
        for x, y in grid:
            f = quadform_eval(m, x, y)
            p = quadform_predict(s, branch, x, y)
            if abs(p - f) > 1e-9 * max(1.0, abs(f)):
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and branches == {"b_gt_a", "b_lt_a"} and elapsed < 1.0
    announce(2, "quadratic-form reconstruction", ok)
    assert ok, f"branches seen: {branches}, elapsed {elapsed:.3f}s"


def _nonsingular_sym2(rng):
    while True:
        x, y = rng.uniform(1, 100), rng.uniform(1, 100)
        if abs(x - y) > 1e-6:  # keeps inverse2 well-defined
            return matrix_from_rows([[x, y], [y, x]])


def test_criterion_3_closure_suite():
    rng = random.Random(303)
    ok = True
    for _ in range(1000):
        a = _nonsingular_sym2(rng)
        b = _nonsingular_sym2(rng)
        if max_defect(add(a, b)) > 1e-12 or max_defect(mul(a, b)) > 1e-12:
            ok = False
            break
        if max_defect(inverse2(a)) > 1e-12 or max_defect(inverse2(b)) > 1e-12:
            ok = False
            break
        rep = classify_balance(a)
        rep_t = classify_balance(transpose(a))
        if (
            rep_t.horizontal_defect != rep.vertical_defect
            or rep_t.vertical_defect != rep.horizontal_defect
        ):
            ok = False
            break
        lam = rng.choice([1.5, -2.0, 3.0, -1.0])
        if abs(max_defect(scale(lam, a)) - max_defect(a)) > 1e-12:
            ok = False
            break
    announce(3, "closure suite", ok)
    assert ok


def test_criterion_4_determinant_trail():
    rng = random.Random(404)
    ok = True
    accepted = 0
    while accepted < 1000:
        n = rng.randint(2, 4)
        rows = [[rng.uniform(-10, 10) for _ in range(n)] for _ in range(n)]
        expected = oracles.det_cofactor(rows)
        if abs(expected) < 1.0:
            continue
        accepted += 1
        got = det_via_trail(matrix_from_rows(rows), PIVOT_TOL)
        if abs(got - expected) > 1e-9 * abs(expected):
            ok = False
            break
    rank_deficient = [
        constant_matrix(3, 3, 1.0),
        constant_matrix(2, 2, 1.0),
        constant_matrix(4, 4, 0.0),
        matrix_from_rows([[1, 2, 3], [2, 4, 6], [1, 1, 1]]),
        matrix_from_rows([[1, 2, 3, 4], [5, 6, 7, 8], [6, 8, 10, 12], [1, 1, 1, 1]]),
    ]
    for m in rank_deficient:
        if det_via_trail(m, PIVOT_TOL) != 0.0:
            ok = False
        result = rref_with_trail(m, PIVOT_TOL)
        if not oracles.is_rref(result.R.to_rows(), PIVOT_TOL):
            ok = False
    announce(4, "determinant trail", ok)
    assert ok


def _positive_balanced_fixtures(count: int, seed: int):
    """Noise-free balanced fixtures from every generator kind, mirrored to
    positive entries (absolute values leave all squared sums untouched)."""
    recipes = [
        ("constant", 2),
        ("constant", 3),
        ("constant", 5),
        ("symmetric2", 2),
        ("hadamard_like", 2),
        ("hadamard_like", 4),
        ("scaled_orthogonal", 3),
        ("scaled_orthogonal", 4),
        ("scaled_orthogonal", 5),
    ]
    fixtures = []
    i = 0
    while len(fixtures) < count:
        kind, n = recipes[i % len(recipes)]
        m = generate(GenSpec(kind=kind, n=n, seed=seed + i))
        i += 1
        mirrored = Matrix(m.n_rows, m.n_cols, tuple(abs(e) for e in m.entries))
        if min(mirrored.entries) <= 0.0:
            continue  # |orthogonal| can in principle carry exact zeros
        fixtures.append((kind, mirrored))
    return fixtures


def test_criterion_5_fairness_transfer():
    ok = True
    fixtures = _positive_balanced_fixtures(500, seed=505)
    for idx, (kind, m) in enumerate(fixtures):
        probe = discrepancy_report(m, fair_eps=1.0)
        worst = max(probe.max_row_deviation, probe.max_col_deviation)
        least = min(probe.max_row_deviation, probe.max_col_deviation)
        if idx % 2 == 0 or least == 0.0:
            eps = 1.01 * worst + 0.01  # both axes fair
        else:
            eps = 0.4 * least  # both axes unfair, even at the 2x budget
        rec = fairness_transfer_check(m, fair_eps=eps)
        if not rec.holds:
            ok = False
            break
    rng = random.Random(506)
    for _ in range(200):
        a, b = rng.uniform(1, 100), rng.uniform(1, 100)
        rep = discrepancy_report(matrix_from_rows([[a, b], [b, a]]), fair_eps=1.0)
        if abs(rep.max_row_deviation - rep.max_col_deviation) > 1e-12:
            ok = False
            break
    announce(5, "fairness transfer", ok)
    assert ok


def test_criterion_6_determinant_homomorphism():
    rng = random.Random(606)
    tol = TolerancePolicy(rtol=0.05, atol=1e-9)
    ok = True
    for _ in range(500):
        t = rng.uniform(1.0, 100.0)
        a = constant_matrix(2, 2, t)
        base = rng.uniform(1.2, 100.0)
        off = base + rng.uniform(-0.4, 0.4) * 0.1
        amp = 0.01
        b = matrix_from_rows(
            [
                [base + rng.uniform(-amp, amp), off + rng.uniform(-amp, amp)],
                [off + rng.uniform(-amp, amp), base + rng.uniform(-amp, amp)],
            ]
        )
        rec = det_homomorphism_check(a, b, tol, fair_eps=0.1)
        if not rec.holds:
            ok = False
            break
        oracle = oracles.homomorphism_residual(a.to_rows(), b.to_rows())
        scale_ref = max(1.0, rec.lhs, oracle)
        if abs(rec.lhs - oracle) > 1e-12 * scale_ref:
            ok = False
            break
    announce(6, "determinant homomorphism", ok)
    assert ok


def test_criterion_7_conjecture_instrumentation():
    ok = True
    loose = TolerancePolicy(rtol=0.1, atol=1e-9)
    campaigns = [
        ("interior_conjecture", GenSpec(kind="scaled_orthogonal", n=4, seed=71), TolerancePolicy()),
        ("interior_conjecture", GenSpec(kind="perturbed", n=4, noise=0.05, seed=72), loose),
        ("edos", GenSpec(kind="scaled_orthogonal", n=4, seed=73), TolerancePolicy()),
        ("edos", GenSpec(kind="perturbed", n=4, noise=0.05, seed=74), loose),
    ]
    saw_counterexample = False
    for name, spec, tol in campaigns:
        ctx = FuzzContext(tol, fair_eps=0.1)
        first = fuzz_campaign(name, spec, 200, ctx)
        second = fuzz_campaign(name, spec, 200, ctx)
        if first != second:
            ok = False
        if first.passes + first.violations + first.not_applicable != 200:
            ok = False
        if bool(first.counterexamples) != (first.violations > 0):
            ok = False
        for cex in first.counterexamples:
            saw_counterexample = True
            replayed = replay_counterexample(name, cex.matrices, ctx)
            if replayed is None or replayed.holds:
                ok = False
    ok = ok and saw_counterexample  # the instrument must actually record evidence
    announce(7, "conjecture instrumentation", ok)
    assert ok


#: Input files written next to every golden invocation.
GOLDEN_INPUTS = {
    "matrix.csv": "2,1\n1,2\n",
    "quad_b_lt_a.csv": "2.3,0.7\n0.7,2.3\n",
    "quad_b_gt_a.csv": "0.9,3.1\n3.1,0.9\n",
    "identity3.csv": "1,0,0\n0,1,0\n0,0,1\n",
}

GOLDEN_INVOCATIONS = [
    ("golden_check.json", ["check", "matrix.csv", "--format", "json"]),
    ("golden_spectrum.json", ["spectrum", "matrix.csv", "--format", "json"]),
    ("golden_quadform_b_lt_a.json", ["quadform", "quad_b_lt_a.csv", "--format", "json"]),
    ("golden_quadform_b_gt_a.json", ["quadform", "quad_b_gt_a.csv", "--format", "json"]),
    ("golden_det.json", ["det", "matrix.csv", "--format", "json"]),
    ("golden_interior.json", ["interior", "identity3.csv", "--format", "json"]),
    (
        "golden_discrepancy.json",
        ["discrepancy", "matrix.csv", "--fair-eps", "0.6", "--format", "json"],
    ),
    (
        "golden_fuzz.json",
        [
            "fuzz",
            "--property",
            "estimator_exact",
            "--kind",
            "symmetric2",
            "--n",
            "2",
            "--trials",
            "5",
            "--seed",
            "42",
            "--format",
            "json",
        ],
    ),
]


def test_readme_examples_are_the_golden_files():
    # The README's three JSON examples are the documented CLI contract.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"^```json\n(.*?)^```$", readme, flags=re.DOTALL | re.MULTILINE)
    names = ("golden_check.json", "golden_spectrum.json", "golden_fuzz.json")
    assert examples == [(DATA_DIR / name).read_text(encoding="utf-8") for name in names]


def test_criterion_8_cli_contract(tmp_path):
    ok = True
    failures = []
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    # The child runs in tmp_path, where a relative PYTHONPATH no longer
    # resolves: put the import root of the balmat under test first, so it
    # runs the same package installed or not.
    env = os.environ.copy()
    root = str(Path(balmat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    for golden_name, argv in GOLDEN_INVOCATIONS:
        expected = (DATA_DIR / golden_name).read_bytes()
        proc = subprocess.run(
            [sys.executable, "-m", "balmat", *argv],
            cwd=tmp_path,
            env=env,
            capture_output=True,
        )
        if proc.returncode != 0 or proc.stdout != expected:
            ok = False
            failures.append(
                {
                    "golden": golden_name,
                    "returncode": proc.returncode,
                    "stderr_tail": proc.stderr.decode(errors="replace")[-500:],
                    "stdout_differs": proc.stdout != expected,
                }
            )
    rng = random.Random(808)
    for _ in range(1000):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = matrix_from_rows([[rng.uniform(-1e6, 1e6) for _ in range(m)] for _ in range(n)])
        if parse_matrix_csv(serialize_csv(mat)) != mat:
            ok = False
            break
    announce(8, "CLI contract", ok)
    assert ok, failures
