"""The gate scripts under scripts/ run clean against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [
        ["oracle_crosscheck.py", "--trials", "30"],
        ["run_verification.py"],
    ],
)
def test_gate_script_passes(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script[0])] + script[1:],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not any(line.startswith("FAIL") for line in proc.stdout.splitlines())
