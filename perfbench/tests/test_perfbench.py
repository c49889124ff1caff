"""Tests of the benchmark itself: its oracles, its checks and a short run.

    python3 -m pytest perfbench/tests -q

The smoke runs write their records to perfbench/out/, which git ignores.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def test_exact_det_known_values():
    assert oracles.det([[2.0, 1.0], [1.0, 2.0]]) == 3
    assert oracles.det([[0.0, 1.0], [1.0, 0.0]]) == -1
    assert oracles.det([[1.0, 2.0], [2.0, 4.0]]) == 0
    assert oracles.det([[0.5, 0.0, 0.0], [0.0, 4.0, 0.0], [7.0, 3.0, -2.0]]) == -4


def test_det_close_accepts_rounding_and_rejects_errors():
    rng = random.Random(5)
    rows = [[rng.uniform(-10, 10) for _ in range(6)] for _ in range(6)]
    value = float(oracles.det(rows))
    assert oracles.det_close(value, rows)
    assert not oracles.det_close(value + 1e-6 * oracles.hadamard_bound(rows), rows)


def test_square_sums_are_exact():
    rows = [[0.1, 0.2], [0.3, -0.4]]
    row_sums, col_sums = oracles.square_sums(rows)
    assert row_sums[0] == Fraction(0.1) ** 2 + Fraction(0.2) ** 2
    assert col_sums[1] == Fraction(0.2) ** 2 + Fraction(-0.4) ** 2
    assert oracles.sum_close(0.1 * 0.1 + 0.2 * 0.2, row_sums[0], 2)
    assert not oracles.sum_close(0.05 + 1e-12, row_sums[0], 2)


def test_balance_definition_is_pairwise():
    assert oracles.is_balanced([[2.0, 1.0], [1.0, 2.0]], 1e-6, 1e-9)
    assert not oracles.is_balanced([[2.0, 1.0], [1.0, 3.0]], 1e-6, 1e-9)
    assert not oracles.is_balanced([[0.0, 0.0], [0.0, 0.0]], 1e-6, 1e-9)


def test_givens_orthogonal_is_orthogonal():
    q = oracles.givens_orthogonal(random.Random(3), 5)
    for i in range(5):
        for j in range(5):
            dot = sum(a * b for a, b in zip(q[i], q[j]))
            assert abs(dot - (1.0 if i == j else 0.0)) < 1e-13


def test_balanced_interior_scan():
    h = oracles.sylvester(4)
    # Every 2x2 block of a Sylvester matrix has entries of modulus 1; the
    # 3x3 ones do too, so the first hit is the top-left 3x3 block.
    assert oracles.balanced_square_interior(h, 1e-6, 1e-9) == (0, 0, 3)
    skewed = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]]
    assert oracles.balanced_square_interior(skewed, 1e-6, 1e-9) is None


def test_sym2_spectrum_closed_form():
    assert oracles.sym2_spectrum(2.0, 1.0) == (3.0, 1.0)
    assert oracles.sym2_spectrum(1.0, 3.0) == (4.0, 2.0)


# ---------------------------------------------------------------------------
# The checks catch wrong outputs
# ---------------------------------------------------------------------------


@pytest.fixture
def cli(tmp_path):
    workloads.import_balmat()
    return workloads.CliWorkload(seed=9, workdir=tmp_path)


def _doc(command, result):
    return workloads.CliResult(0, json.dumps({"command": command, "result": result}).encode(), b"", 0)


def test_cli_checks_accept_library_output_and_reject_altered(cli):
    for k, command in enumerate(workloads.CLI_COMMANDS):
        call = cli.prepare(command, k)
        result = cli._main(call.argv)
        assert cli.check(call, result) == [], command
        altered = _alter(command, json.loads(result.stdout)["result"])
        assert cli.check(call, _doc(command, altered)), f"{command}: altered output passed"


def _alter(command: str, res: dict) -> dict:
    res = json.loads(json.dumps(res))
    if command == "check":
        res["row_square_sums"][0] *= 1 + 1e-9
    elif command == "spectrum":
        res["exact"]["lambda2"] *= 1 + 1e-9
    elif command == "det":
        res["determinant"] *= 1.001
    elif command == "interior":
        res = {"found": not res["found"]}
    elif command == "discrepancy":
        res["report"]["col_sums"][1] += 1e-6
    elif command == "fuzz":
        res["passes"] -= 1
    return res


def test_cli_check_reports_nonzero_exit(cli):
    call = cli.prepare("check", 0)
    problems = cli.check(call, workloads.CliResult(1, b"", b"balmat check: error: boom", 0))
    assert problems and "exit 1" in problems[0]


def test_campaign_check_rejects_inconsistent_counts():
    wl = workloads.CampaignWorkload("campaign_2x2", seed=4)
    prepared = wl.prepare(wl.ops[0], 0)
    report = wl.call(prepared)
    assert wl.check(prepared, report) == []
    assert wl.check(prepared, dataclasses.replace(report, passes=report.passes - 1))
    assert wl.check(prepared, dataclasses.replace(report, violations=1, passes=report.passes - 1))


def test_generated_inputs_match_exact_arithmetic():
    assert workloads.check_generated(workloads.import_balmat(), seed=2) == []


def test_kernel_cases_run_on_active_backend():
    timings, problems = tracer.kernel_timings(seed=1, repeats=1)
    assert problems == []
    assert set(timings) == {n for n in tracer.PER_LAYER if n.endswith(".ns_per_call")}


def test_tracer_restores_every_binding():
    balmat = workloads.import_balmat()
    from balmat import _kernels, core, genfuzz

    before = (genfuzz.classify_balance, _kernels.rref, core.Matrix.__post_init__, dict(genfuzz.PROPERTIES))
    t = tracer.Tracer()
    t.install()
    try:
        assert genfuzz.classify_balance is not before[0]
        balmat.fuzz_campaign("estimator_exact", balmat.GenSpec(kind="symmetric2", seed=1), 10)
    finally:
        t.uninstall()
    assert (genfuzz.classify_balance, _kernels.rref, core.Matrix.__post_init__, dict(genfuzz.PROPERTIES)) == before
    assert t.calls("genfuzz.check") == 10
    assert t.calls("spectral2.estimate_spectrum2") == 20  # check plus metrics hook
    assert t.self_us("genfuzz.loop") > 0


# ---------------------------------------------------------------------------
# BENCHMARK.json and short runs
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] % len(_ops(workload)) == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert (BENCH / "out" / f"{workload}_seed3_trace0.json").is_file()


def test_smoke_traced_run():
    proc = _run("--workload", "cli_invocations", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(tracer.PER_LAYER)
    assert metrics["cli.rref_with_trail.calls_per_op"] == 2  # det eliminates twice today
    assert metrics["trace.overhead_ratio"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "campaign_2x2", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _ops(workload):
    return workloads.campaign_ops(workload) if workload in workloads.CAMPAIGNS else workloads.CLI_COMMANDS
