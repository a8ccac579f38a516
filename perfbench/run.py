"""sungeo benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload small_pairs --seed 1 --seconds 20 --trace 0

Generates the workload's inputs and independent references from the seed,
then starts worker processes (``worker.py``) that import ``sungeo`` from
this checkout's ``src`` and send requests from one closed-loop client:
each request starts when the previous one has returned. BLAS runs on one
thread. Every answer is checked; a request fails if it raises, exits
nonzero, or answers wrongly.

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced run. The human-readable report
comes first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. See README.md in this
directory for the workloads and what each metric is expected to move.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
TAIL_BEYOND = 10
WORKER_GRACE_S = 60.0
MAX_REASONS = 12

END_TO_END_UNITS = {"throughput_rps": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "calls/req", "self_ms": "ms/req", "failed": "fails/req",
               "share": "ratio", "overhead_pct": "%"}


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def environment() -> list[str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return [
        f"env: python {platform.python_version()}, numpy {np.__version__}, blas {blas}, "
        f"blas threads {BLAS_THREADS} (OPENBLAS/OMP/MKL_NUM_THREADS), "
        f"nproc {os.cpu_count()}, usable cpus {len(os.sched_getaffinity(0))}, "
        f"loadavg at start {load}",
        "limits: no CPU pinning and no frequency control; on 2-vCPU x86 virtual "
        "machines CPU time tracked wall time and four 10 s small-n runs ranged "
        "2840-3850 req/s, so run-to-run spread is machine speed; times are "
        "scaled by a speed kernel and the bounds are set against what remains",
        "load: one worker process, one closed-loop client",
    ]


def worker_cmd(workdir: str, mode: str, seconds: float) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), workdir, mode, repr(seconds)]


def setup_once(workdir: str, reference: float) -> float:
    """Wall time of a fresh worker to start Python, import sungeo and finish
    the first request of each kind, scaled by the worker's speed kernel."""
    t0 = perf_counter()
    proc = subprocess.Popen(worker_cmd(workdir, "setup", 0.0), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait(timeout=WORKER_GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup worker failed (exit {rc})")
    return elapsed * reference / json.loads(rest)["kernel"]


def run_worker(workdir: str, mode: str, seconds: float) -> dict:
    proc = subprocess.run(worker_cmd(workdir, mode, seconds), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} worker failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(lat: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    lat = sorted(lat)
    at = max(len(lat) - TAIL_BEYOND - 1, 0)
    return lat[at], 100.0 * (at + 1) / len(lat)


def end_to_end(result: dict, setup: list[float], plan: dict) -> tuple[dict, list[str]]:
    """End-to-end metrics of a measured run.

    Each request's time is scaled by reference / (the speed-kernel time taken
    right after it), which puts every request at the same machine speed.
    Throughput and the median are over the whole run; the tail is taken per
    window of ``plan["window"]`` requests (a partial last window is
    dropped) and reported as the median over windows.
    """
    lat, ok, kern = result["latencies"], result["ok"], result["kernel"]
    reference = inputs.KERNEL[plan["workload"]][1]
    scaled = [t * reference / k for t, k in zip(lat, kern)]
    n = len(scaled)
    window = plan["window"] or n
    spans = [(a, a + window) for a in range(0, n - window + 1, window)] or [(0, n)]
    tails = [tail(scaled[a:b]) for a, b in spans]
    metrics = {
        "throughput_rps": sum(ok) / sum(scaled),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_tail_ms": 1e3 * statistics.median(t[0] for t in tails),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "throughput_rps": f"{sum(ok)} correct of n={n} per second of request time; "
                          f"unscaled {sum(ok) / sum(lat):.1f}",
        "latency_p50_ms": f"median of n={n}; unscaled {1e3 * statistics.median(lat):.4f}",
        "latency_tail_ms": f"p{statistics.median(t[1] for t in tails):.2f} "
                           f"({TAIL_BEYOND} beyond) per window, median of {len(spans)} "
                           f"windows of {spans[0][1] - spans[0][0]} requests",
        "setup_s": f"median of {len(setup)} fresh workers, each scaled by its own kernel: "
                   + ", ".join(f"{s:.3f}" for s in setup),
        "peak_rss_mb": "worker ru_maxrss at the end of the run",
    }
    lines = [f"machine speed: kernel time / reference {reference * 1e3:.3f} ms = "
             f"{statistics.median(kern) / reference:.3f} (median; times below are "
             "scaled to the reference)"]
    lines += [f"{k:<18} {v:>12.4f} {END_TO_END_UNITS[k]:<6} ({notes[k]})"
              for k, v in metrics.items()]
    fail_ratio = result["failed"] / max(result["attempted"], 1)
    lines.append(f"{'fail_ratio':<18} {fail_ratio:>12.6f} {'ratio':<6} "
                 f"({result['failed']} failed of {result['attempted']} attempted)")
    return metrics, lines


def failure_lines(reasons: dict) -> list[str]:
    """The most frequent failure reasons, with their counts."""
    reasons = sorted(reasons.items(), key=lambda kv: -kv[1])
    lines = [f"{count:>6} x {reason}" for reason, count in reasons[:MAX_REASONS]]
    if len(reasons) > MAX_REASONS:
        lines.append(f"       ... and {len(reasons) - MAX_REASONS} more distinct failures")
    return lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sungeo" / "__init__.py").is_file():
        print(f"perfbench: no library source at {SRC / 'sungeo'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from sungeo import brute_force_m

    lines = [f"perfbench workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"] + environment()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        t0 = perf_counter()
        plan = inputs.build(args.workload, args.seed, workdir, brute_force_m)
        lines.append(f"inputs: {len(plan['schedule'])} requests per cycle, "
                     f"generated in {perf_counter() - t0:.2f} s (not timed)")
        if args.trace:
            result = run_worker(workdir, "trace", args.seconds)
            metrics = result["layers"]
            lines.append(f"traced requests: {result['traced_requests']}; "
                         "per-request values; no end-to-end numbers from this run")
            if result["missing_targets"]:
                lines.append("not traced (absent): " + ", ".join(result["missing_targets"]))
            lines += [f"{k:<36} {v:>12.5f} {layer_unit(k)}" for k, v in metrics.items()]
            units = {k: layer_unit(k) for k in metrics}
        else:
            reference = inputs.KERNEL[args.workload][1]
            setup = [setup_once(workdir, reference) for _ in range(SETUP_REPEATS)]
            result = run_worker(workdir, "measure", args.seconds)
            metrics, metric_lines = end_to_end(result, setup, plan)
            lines += metric_lines
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    mismatches = plan["reference_mismatches"]
    for text in mismatches:
        lines.append(f"reference mismatch: {text}")
    lines += failure_lines(result["reasons"])
    probe = result["probe"]
    if probe["attempted"]:
        lines.append(f"noise probe (untimed, not in attempted/failed): {probe['failed']} "
                     f"of {probe['attempted']} requests on noisy inputs failed, "
                     f"{probe['wrong']} of them wrong")
        lines += failure_lines(probe["reasons"])
    print("\n".join(lines))
    print(json.dumps({
        "correct": result["wrong"] == 0 and probe["wrong"] == 0 and not mismatches,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
