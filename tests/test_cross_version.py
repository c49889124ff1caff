"""The behaviour lock on every installed CPython 3.10-3.13.

Each float sum in balmat runs left to right in plain Python, so every
interpreter must give the same bits. For each CPython minor version from
3.10 to 3.13 found on `PATH` or under pyenv's `versions/*/bin/python3`, this
runs `tests/fingerprint_cases.py`, `tests/value_object_cases.py` (the value
objects store their fields through CPython's `__dict__` handling) and the
golden CLI invocations of `test_acceptance.py`, and prints the versions it
ran, or that it found none. Each interpreter runs under its own fixed
`PYTHONHASHSEED`, so the lock also holds across string-hash seeds. The
running interpreter's version is left out: `test_fingerprints.py`,
`test_value_objects.py` and `test_acceptance.py` check it already.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import balmat

from test_acceptance import DATA_DIR, GOLDEN_INPUTS, GOLDEN_INVOCATIONS

VERSIONS = ((3, 10), (3, 11), (3, 12), (3, 13))

_PROBE = "import sys; print(sys.implementation.name, '.'.join(map(str, sys.version_info[:3])))"


def _candidates() -> list[str]:
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    names = [f"python{major}.{minor}" for major, minor in VERSIONS] + ["python3"]
    paths = [*map(str, sorted(pyenv.glob("versions/*/bin/python3"))), *map(shutil.which, names)]
    return list(dict.fromkeys(filter(None, paths)))


def _interpreters() -> dict[str, str]:
    """One interpreter per installed CPython 3.10-3.13 minor version but the running one: {version: path}."""
    found: dict[str, str] = {}
    minors = {sys.version_info[:2]}
    for exe in _candidates():
        if minors >= set(VERSIONS):
            break
        try:
            proc = subprocess.run([exe, "-c", _PROBE], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        # A pyenv shim with no version selected for it exits non-zero.
        if proc.returncode != 0 or len(proc.stdout.split()) != 2:
            continue
        name, version = proc.stdout.split()
        minor = tuple(map(int, version.split(".")[:2]))
        if name == "cpython" and minor in VERSIONS and minor not in minors:
            minors.add(minor)
            found[version] = exe
    return dict(sorted(found.items(), key=lambda item: tuple(map(int, item[0].split(".")))))


def _mismatches(exe: str, cwd: Path, env: dict[str, str]) -> list[str]:
    """What differs from the lock under interpreter `exe`."""
    bad = []
    # The case scripts run while the CLI invocations do.
    scripts = {
        name: subprocess.Popen(
            [exe, str(Path(__file__).with_name(f"{name}_cases.py"))],
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for name in ("fingerprint", "value_object")
    }  # fmt: skip
    for golden_name, argv in GOLDEN_INVOCATIONS:
        proc = subprocess.run([exe, "-m", "balmat", *argv], cwd=cwd, env=env, capture_output=True)
        if proc.returncode != 0 or proc.stdout != (DATA_DIR / golden_name).read_bytes():
            bad.append(f"{golden_name}: exit {proc.returncode}, {proc.stderr.decode(errors='replace')[-300:]!r}")
    for name, script in scripts.items():
        output, _ = script.communicate()
        if script.returncode != 0:
            bad.append(f"{name} cases: {output.strip()[-500:]}")
    return bad


def test_lock_holds_on_every_installed_python(tmp_path, capsys):
    for name, text in GOLDEN_INPUTS.items():
        (tmp_path / name).write_text(text)
    env = os.environ.copy()
    root = str(Path(balmat.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    found = _interpreters()
    # A distinct string-hash seed for each interpreter, in version order.
    seeds = dict(zip(found, ("0", "1", "12345", "999")))
    failures = {
        version: _mismatches(exe, tmp_path, {**env, "PYTHONHASHSEED": seeds[version]})
        for version, exe in found.items()
    }
    with capsys.disabled():
        if found:
            ran = ", ".join(f"{version} (PYTHONHASHSEED={seed})" for version, seed in seeds.items())
            print(f"\ncross-version lock ran on CPython {ran} (and {sys.version.split()[0]} in process)")
        else:
            print("\ncross-version lock: no CPython 3.10-3.13 found, nothing compared")
    assert {version: bad for version, bad in failures.items() if bad} == {}
