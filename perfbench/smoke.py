"""Smoke test of the benchmark itself: ``python3 perfbench/smoke.py``.

- every workload runs at a tiny size, untraced and traced, and answers
  correctly;
- every metric named in BENCHMARK.json appears, with its unit;
- another seed changes the inputs but not the request mix or the metric set;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits nonzero without printing a result.

Exits 0 when all checks pass. Scratch files go under .perfbench_work/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import inputs
import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED = {0: {m["name"]: m["unit"] for m in BENCH["end_to_end"]},
            1: {m["name"]: m["unit"] for m in BENCH["per_layer"]}}


def bench(workload: str, seed: int, trace: int, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload: str, seed: int, trace: int) -> list[str]:
    proc = bench(workload, seed, trace)
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload} trace={trace}: keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{workload} trace={trace}: correct={result['correct']} "
                        f"attempted={result['attempted']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != EXPECTED[trace]:
        problems.append(f"{workload} trace={trace}: metrics/units {got} != {EXPECTED[trace]}")
    if not all(isinstance(v["value"], float) for v in result["metrics"].values()):
        problems.append(f"{workload} trace={trace}: a metric value is not a number")
    return problems


def fingerprint(workload: str, seed: int) -> tuple[str, bytes]:
    """(request mix, raw input matrices) of one seed."""
    sys.path.insert(0, str(run.SRC))
    from sungeo import brute_force_m
    workdir = tempfile.mkdtemp(dir=run.WORK)
    try:
        plan = inputs.build(workload, seed, workdir, brute_force_m)
        if workload == "cli_structured":
            mix = [(s["cmd"], plan["cases"][s["case"]]["case"]) for s in plan["schedule"]]
            paths = [p for case in plan["cases"] for p in case["files"].values()]
            data = b"".join(Path(p).read_bytes() for p in paths)
        else:
            mix = [(s["op"], plan["pairs"][s["pair"]]["n"]) for s in plan["schedule"]]
            with np.load(os.path.join(workdir, "arrays.npz")) as arrays:
                data = b"".join(arrays[k].tobytes() for k in sorted(arrays.files))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.dumps(mix), data


def check_seeds(workload: str) -> list[str]:
    (mix1, data1), (mix2, data2) = fingerprint(workload, 1), fingerprint(workload, 2)
    problems = []
    if mix1 != mix2:
        problems.append(f"{workload}: the request mix depends on the seed")
    if data1 == data2:
        problems.append(f"{workload}: seeds 1 and 2 gave the same inputs")
    return problems


def check_without_library() -> list[str]:
    """In a directory with only BENCHMARK.json and perfbench/, exit nonzero
    and print no result."""
    bare = tempfile.mkdtemp(dir=run.WORK)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("small_pairs", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without the library: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    problems = check_without_library()
    for workload in inputs.WORKLOADS:
        problems += check_seeds(workload)
        for trace in (0, 1):
            problems += check_run(workload, 1, trace)
        print(f"{workload}: checked", flush=True)
    problems += check_run("small_pairs", 2, 0)  # same metric set on another seed
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
