"""A short run of each benchmark workload, so that a library change that breaks one fails here.

`campaign_nxn` reaches the determinant's forward-elimination fallback (its
constant n = 4 input has rank 1) and checks every generated determinant
against the exact oracles of `perfbench/oracles.py`. `campaign_2x2` times
the 2x2 theorem checks, and `cli_invocations` runs every command,
`balmat discrepancy` among them, as its own process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["campaign_2x2", "campaign_nxn", "cli_invocations"])
def test_campaign_nxn_runs_correct(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", "0"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] > 0
