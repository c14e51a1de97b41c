"""The gate scripts under scripts/ run clean against the library."""

import hashlib
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
    ],
)
def test_gate_script_passes(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not any(line.startswith("FAIL") for line in proc.stdout.splitlines())


def test_oracle_output_at_the_default_seed_is_pinned():
    # nine PASS lines; the draws of every block follow from the default seed
    proc = _run(["oracle_crosscheck.py"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "b9630b2088cc70b6eaeccb36041769b5925eea836231e614ececc59f7967cbeb"
    )


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script[0])] + script[1:],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
