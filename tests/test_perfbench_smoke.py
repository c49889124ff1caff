"""A short run of the benchmark, so that a library change that breaks it fails here.

`campaign_nxn` reaches the determinant's forward-elimination fallback (its
constant n = 4 input has rank 1) and checks every generated determinant
against the exact oracles of `perfbench/oracles.py`.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_campaign_nxn_runs_correct():
    argv = ["perfbench/run.py", "--workload", "campaign_nxn", "--seed", "5", "--seconds", "0.3", "--trace", "0"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] > 0
