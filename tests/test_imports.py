"""What a cold start imports: `import balmat` is lazy (PEP 562), and a file
command loads only the modules it runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import balmat
from balmat import genfuzz

FILE_COMMANDS = ("check", "spectrum", "quadform", "discrepancy", "det", "interior")


def _child(args, cwd):
    """Run a fresh interpreter on the balmat under test; returns the process."""
    env = os.environ.copy()
    root = str(Path(balmat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def _imported(stderr: str) -> set[str]:
    """Module names in `python -X importtime` output."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines() if line.startswith("import time:")}


def test_import_balmat_loads_no_submodule(tmp_path):
    code = "import balmat, sys; print(sorted(m for m in sys.modules if m.startswith('balmat.')))"
    proc = _child(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_file_command_skips_the_fuzzing_harness(tmp_path, command):
    # interior needs a matrix larger than its smallest interior (2x2)
    (tmp_path / "m.csv").write_text("3,4,0\n4,3,0\n0,0,5\n" if command == "interior" else "3,4\n4,3\n")
    proc = _child(["-X", "importtime", "-m", "balmat", command, "m.csv", "--format", "json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = _imported(proc.stderr)
    assert "balmat.cli" in loaded
    assert "balmat.genfuzz" not in loaded
    if command == "check":
        assert not loaded & {"balmat.algebra", "balmat.discrepancy", "balmat.spectral2"}
    if command in ("spectrum", "quadform"):
        assert "balmat.spectral2" in loaded
        assert not loaded & {"balmat.algebra", "balmat.discrepancy"}


def test_fuzz_command_still_runs(tmp_path):
    argv = ["fuzz", "--property", "estimator_exact", "--kind", "symmetric2", "--trials", "3", "--format", "json"]
    proc = _child(["-X", "importtime", "-m", "balmat", *argv], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert '"passes": 3' in proc.stdout
    assert "balmat.genfuzz" in _imported(proc.stderr)


def test_every_public_name_is_its_submodules_object():
    for name, (module, attr) in balmat._EXPORTS.items():
        assert getattr(balmat, name) is getattr(importlib.import_module(f"balmat.{module}"), attr), name
    assert set(balmat.__all__) == set(balmat._EXPORTS)
    assert balmat.GENERATOR_KINDS is genfuzz.GENERATOR_KINDS


def test_dir_and_unknown_names():
    assert set(balmat.__all__) <= set(dir(balmat))
    with pytest.raises(AttributeError, match="module 'balmat' has no attribute 'nope'"):
        balmat.nope


def test_names_are_not_cached(monkeypatch):
    # A tracer rebinds submodule functions and restores them later; the
    # package must always hand out the current binding.
    balmat.fuzz_campaign  # resolve once before the rebinding

    def f(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(genfuzz, "fuzz_campaign", f)
    assert balmat.fuzz_campaign is f
    monkeypatch.undo()
    assert balmat.fuzz_campaign is genfuzz.fuzz_campaign
