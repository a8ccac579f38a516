"""Benchmark worker: one process, one closed-loop client.

Run by ``run.py`` as ``python3 perfbench/worker.py WORKDIR MODE SECONDS``:

- ``setup``: import the library, run the first request of each kind and
  print ``ready``; the caller times the whole process start. Then time the
  speed kernel, so the caller can scale that time like the others.
- ``measure``: after one warm-up round, send requests back to back
  for SECONDS, timing each; every answer is checked after its timer stops,
  and the speed kernel is timed after every request.
- ``trace``: after the warm-up, alternate rounds without and with the
  span tracer, sending the same requests in both, so the tracer's
  overhead is measured too.

In ``measure`` and ``trace`` the requests of the plan's noise probe are
then sent once each, untimed, and their outcomes kept apart.

The last line of standard output is one JSON object with the outcome.
"""

from __future__ import annotations

import io
import json
import os
import resource
import statistics
import sys
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    """Import sungeo from this checkout's source tree, never from elsewhere."""
    if not (SRC / "sungeo" / "__init__.py").is_file():
        raise SystemExit(f"no library source at {SRC / 'sungeo'}")
    sys.path.insert(0, str(SRC))
    import sungeo
    import sungeo.cli
    if not Path(sungeo.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"sungeo imported from {sungeo.__file__}, not {SRC}")
    return sungeo


sungeo = import_library()

import numpy as np  # noqa: E402  (after the library, as a user would)

import checks  # noqa: E402
from inputs import KERNEL, check_tol  # noqa: E402
from spans import Tracer  # noqa: E402

OK, FAILED, WRONG = "ok", "failed", "wrong"


class PairRequests:
    """distance, log_map and geodesic_family + geodesic_eval on Haar pairs,
    each starting from raw matrices validated at the boundary."""

    kind_key = "op"  # the schedule field naming a request's kind

    def __init__(self, plan, arrays):
        self.plan = plan
        self.arrays = arrays
        self.t = plan["t"]

    def _mats(self, i, *names):
        return [self.arrays[f"{name}{i}"] for name in names]

    @staticmethod
    def prepare(slot):
        return slot

    def request(self, slot):
        p_raw, q_raw = self._mats(slot["pair"], "P", "Q")
        p = sungeo.validate_special_unitary(p_raw)
        q = sungeo.validate_special_unitary(q_raw)
        op = slot["op"]
        if op == "distance":
            return sungeo.distance(p, q)
        if op == "log_map":
            return sungeo.log_map(p, q)
        fam = sungeo.geodesic_family(p, q)
        return fam, sungeo.geodesic_eval(fam.canonical, self.t)

    def verdict(self, slot, out, exc):
        if exc is not None:
            kind = FAILED if isinstance(exc, sungeo.SungeoError) else WRONG
            return kind, f"{slot['op']}: {type(exc).__name__}"
        i = slot["pair"]
        ref = self.plan["pairs"][i]
        d, tol = ref["d"], check_tol(ref["n"])
        if slot["op"] == "distance":
            reason = checks.close("distance", out, d, tol)
        elif slot["op"] == "log_map":
            p, q = self._mats(i, "P", "Q")
            reason = checks.log_answer(np.asarray(out.entries), p, q, d)
        else:
            fam, point = out
            (mid,) = self._mats(i, "M")
            reason = checks.first_failure(
                checks.equal("unique", fam.unique, True),
                checks.close("family distance", fam.distance, d, tol),
                checks.close("||gamma(t) - reference||",
                             float(np.linalg.norm(point.entries - mid)), 0.0, tol))
        return (OK, None) if reason is None else (WRONG, f"{slot['op']}: {reason}")


class CliRequests:
    """In-process ``sungeo.cli.main`` on matrix files."""

    kind_key = "cmd"

    def __init__(self, plan, arrays):
        self.plan = plan
        workdir = plan["workdir"]
        self.out_paths = {"log_out": os.path.join(workdir, "out_log.json"),
                          "random": os.path.join(workdir, "out_random.json")}
        self._mats = {}

    def argv(self, slot):
        case = self.plan["cases"][slot["case"]]
        f, n, seed = case["files"], str(case["n"]), str(case["random_seed"])
        out = self.out_paths.get(slot["cmd"])
        return {
            "dist": ["dist", f["P"], f["Q"]],
            "log": ["log", f["P"], f["Q"]],
            "log_out": ["log", f["P"], f["Q"], "--out", out],
            "geo": ["geo", f["P"], f["Q"], "--t", "0,0.5,1"],
            "plog": ["plog", f["R"]],
            "theta": ["theta", f["R"], "--samples", "8", "--seed", seed],
            "oracle": ["oracle", f["R"]],
            "random": ["random", n, "--seed", seed, "--out", out],
            "diam": ["diam", n, "--point", f["P"]],
        }[slot["cmd"]]

    def prepare(self, slot):
        """Untimed: build argv and remove a stale output file."""
        out = self.out_paths.get(slot["cmd"])
        if out is not None and os.path.exists(out):
            os.remove(out)
        return self.argv(slot)

    @staticmethod
    def request(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                rc = sungeo.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        return rc, stdout.getvalue(), stderr.getvalue()

    def case_matrices(self, c):
        if c not in self._mats:
            files = self.plan["cases"][c]["files"]
            self._mats[c] = {k: checks.read_matrix(v) for k, v in files.items()}
        return self._mats[c]

    def verdict(self, slot, out, exc):
        cmd = slot["cmd"]
        case = self.plan["cases"][slot["case"]]
        tag = f"{cmd} {case['case'][0]} n={case['n']}"
        if exc is not None:
            return WRONG, f"{tag}: traceback {type(exc).__name__}"
        rc, stdout, stderr = out
        if "Traceback" in stderr or "Traceback" in stdout:
            return WRONG, f"{tag}: traceback"
        if rc in (2, 3):
            try:
                code = checks.parse_report(stderr)["error"]
            except (ValueError, KeyError, TypeError):
                return WRONG, f"{tag}: exit {rc} without an error report"
            return FAILED, f"{tag}: exit {rc} {code}"
        if rc != 0:
            return WRONG, f"{tag}: exit {rc}"
        try:
            report = checks.parse_report(stdout)
            reason = checks.cli_report(cmd, case, report, self.case_matrices(slot["case"]),
                                       self.out_paths.get(cmd))
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc2:
            reason = f"malformed report ({type(exc2).__name__}: {exc2})"
        return (OK, None) if reason is None else (WRONG, f"{tag}: {reason}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcomes:
    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.reasons = {}

    def add(self, kind, reason):
        self.attempted += 1
        if kind != OK:
            self.failed += 1
            self.wrong += kind == WRONG
            key = f"{kind}: {reason}"
            self.reasons[key] = self.reasons.get(key, 0) + 1


def send(wl, slot, tracer=None):
    """One timed request, traced when a tracer is given; returns
    (seconds, output, exception)."""
    arg = wl.prepare(slot)
    if tracer is not None:
        tracer.begin()
    t0 = perf_counter()
    try:
        out, exc = wl.request(arg), None
    except Exception as e:  # the verdict classifies it
        out, exc = None, e
    dt = tracer.end() if tracer is not None else perf_counter() - t0
    return dt, out, exc


def measure(wl, schedule, round_length, seconds, outcomes):
    speed = checks.SpeedKernel(KERNEL[wl.plan["workload"]][0])
    # Compact arrays, so that the record of a long run barely moves the
    # worker's peak memory.
    latencies, kernel, ok = array("d"), array("d"), bytearray()
    i = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        slot = schedule[i % len(schedule)]
        i += 1
        dt, out, exc = send(wl, slot)
        kind, reason = wl.verdict(slot, out, exc)
        outcomes.add(kind, reason)
        latencies.append(dt)
        ok.append(kind == OK)
        kernel.append(speed.seconds())
    peak = peak_rss_mb()
    return {"latencies": list(latencies), "ok": list(ok), "kernel": list(kernel),
            "peak_rss_mb": peak}


def trace(wl, schedule, round_length, seconds, outcomes):
    """Each round runs untraced, then again traced; the overhead compares
    the two sums over the same requests."""
    tracer = Tracer()
    plain = traced = 0.0
    start = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        block = [schedule[(start + k) % len(schedule)] for k in range(round_length)]
        start += round_length
        for slot in block:
            dt, out, exc = send(wl, slot)
            plain += dt
            outcomes.add(*wl.verdict(slot, out, exc))
        tracer.install()
        try:
            for slot in block:
                dt, out, exc = send(wl, slot, tracer)
                traced += dt
                outcomes.add(*wl.verdict(slot, out, exc))
        finally:
            tracer.uninstall()
    layers = tracer.layer_metrics()
    layers["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0) if plain else 0.0
    return {"layers": layers, "traced_requests": tracer.requests,
            "missing_targets": tracer.missing}


def main(argv):
    workdir, mode, seconds = argv[0], argv[1], float(argv[2])
    with open(os.path.join(workdir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    arrays = np.load(os.path.join(workdir, "arrays.npz"))
    requests = CliRequests if plan["workload"] == "cli_structured" else PairRequests
    wl = requests(plan, arrays if mode == "setup" else dict(arrays))
    if mode == "setup":
        first = {}
        for slot in plan["schedule"]:
            first.setdefault(slot[wl.kind_key], slot)
        for slot in first.values():
            send(wl, slot)
        print("ready", flush=True)
        speed = checks.SpeedKernel(KERNEL[plan["workload"]][0])
        print(json.dumps({"kernel": statistics.median(speed.seconds() for _ in range(5))}))
        return
    outcomes = Outcomes()
    schedule, round_length = plan["schedule"], plan["round_length"]
    for slot in schedule[:round_length]:  # warm-up, checked but not timed
        _, out, exc = send(wl, slot)
        outcomes.add(*wl.verdict(slot, out, exc))
    run = measure if mode == "measure" else trace
    result = run(wl, schedule, round_length, seconds, outcomes)
    probe = Outcomes()
    for slot in plan["probe"]:
        _, out, exc = send(wl, slot)
        probe.add(*wl.verdict(slot, out, exc))
    result.update(attempted=outcomes.attempted, failed=outcomes.failed,
                  wrong=outcomes.wrong, reasons=outcomes.reasons,
                  probe=vars(probe))
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except Exception:
        traceback.print_exc()
        sys.exit(1)
