"""The scripts under ``scripts/`` run end to end against the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "diameter_table": ["diameter_table.py"],
    "oracle_crosscheck": ["oracle_crosscheck.py", "--orders", "2", "3", "4",
                          "--per-order", "5"],
    "theta_family_demo": ["theta_family_demo.py"],
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs(name):
    script, *args = SCRIPTS[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert done.stdout.strip()
