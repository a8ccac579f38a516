"""The scripts under ``scripts/`` and README's library quick start run end
to end against the library."""

import json
import math
import os
import re
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


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs(name):
    script, *args = SCRIPTS[name]
    done = run_python(str(ROOT / "scripts" / script), *args)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert done.stdout.strip()


def test_stage_times_prints_one_json_table():
    done = run_python(str(ROOT / "scripts" / "stage_times.py"), "2", "--repeat", "1",
                      "--number", "3")
    assert done.returncode == 0, done.stderr
    table = json.loads(done.stdout)
    assert list(table) == ["2"]
    assert list(table["2"]) == ["validate x2", "P^*Q", "unitary_eig", "eigh",
                                "spectral_summary", "distance", "log_map",
                                "geodesic_family", "canonical X", "geodesic_eval",
                                "theta_descriptor",
                                "theta_sample x8"]
    assert all(t > 0 for t in table["2"].values())


def test_fingerprint_runs_agree(tmp_path):
    # Two small runs hash every record alike, and --compare finds no key
    # that differs; a changed hash is listed by its key. No hash is pinned.
    paths = []
    for name in ("a.json", "b.json"):
        done = run_python(str(ROOT / "scripts" / "fingerprint.py"), "--small")
        assert done.returncode == 0, done.stderr
        paths.append(tmp_path / name)
        paths[-1].write_text(done.stdout)
    records = json.loads(paths[0].read_text())
    assert len(records) > 1000 and records == json.loads(paths[1].read_text())
    assert all(re.fullmatch(r"[0-9a-f]{64}", h) for h in records.values())
    kinds = {key.split("/")[0] for key in records}
    assert kinds == {"lib", "cli"}
    done = run_python(str(ROOT / "scripts" / "fingerprint.py"), "--compare", *map(str, paths))
    assert done.returncode == 0 and "agree" in done.stdout
    key = next(k for k in records if k.endswith("/outputs.beta_arg"))
    records[key] = "0" * 64
    paths[1].write_text(json.dumps(records))
    done = run_python(str(ROOT / "scripts" / "fingerprint.py"), "--compare", *map(str, paths))
    assert done.returncode == 1 and done.stdout.splitlines() == [f"differs {key}"]


@pytest.mark.parametrize("script, args", [
    ("stage_times.py", ["1"]),
    ("stage_times.py", ["0"]),
    ("stage_times.py", ["2", "--number", "0"]),
    ("theta_family_demo.py", ["--samples", "-1"]),
], ids=["order_1", "order_0", "number_0", "negative_samples"])
def test_invalid_argument_is_a_usage_error(script, args):
    done = run_python(str(ROOT / "scripts" / script), *args)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert "usage:" in done.stderr


def test_readme_quick_start_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [code] = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.splitlines()[0]) == math.pi * math.sqrt(2)
