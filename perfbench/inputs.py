"""Seeded inputs and independent references for the three workloads.

Everything here runs before timing starts, in the orchestrating process,
and uses numpy alone: Haar sampling by phase-fixed QR, relative spectra
from ``np.linalg.eigvals`` (LAPACK zgeev, a non-Hermitian solver the
library never calls) and the closed-form distance written out again from
the paper. Structured inputs are built from a prescribed spectrum, so
their winding, multiplicity of -1, uniqueness flag and Grassmannian label
are known by construction. The only library call is ``brute_force_m``,
used at n <= 7 to cross-check each reference distance.

A workload is a fixed request mix (the schedule) over a pool of inputs.
The seed changes the matrices and nothing else.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi
NOISE_RANGE = (1e-11, 1e-9)
# Haar inputs stay this many cluster tolerances (1e-7 n) away from a
# repeated eigenvalue or from -1, so that the library's clustering cannot
# merge what the reference treats as distinct.
GENERIC_MARGIN = 10.0
SPACING = 0.05  # minimum gap between distinct prescribed arguments
BRUTE_FORCE_MAX_N = 7

PAIR_OPS = ("distance", "log_map", "geodesic")
GEODESIC_T = 0.5

# Orders of the Haar workloads. The weights give each order of
# large_pairs a comparable share of the run (about 0.12 s per order and
# operation on a 2-core x86 box with one BLAS thread).
SMALL_ORDERS = {2: 1, 3: 1, 4: 1, 5: 1, 8: 1}
LARGE_ORDERS = {32: 64, 128: 5, 256: 1}
SMALL_ROUNDS = 8
LARGE_ROUNDS = 2

# The tail latency is taken per window of whole rounds (whole cycles for
# cli_structured) and reported as the median over windows. Each window is
# long enough that its tail sample falls inside the slowest request class
# (geodesic at n = 8 for small_pairs, oracle at n = 8 for cli_structured)
# rather than on a lone preempted request; large_pairs uses the whole run,
# whose tail lands among its n = 256 requests.
WINDOW_ROUNDS = {"small_pairs": 40, "large_pairs": None, "cli_structured": 4}

# Speed kernel (see checks.SpeedKernel) per workload: the orders it works
# at, and its reference time. Reported times are scaled to the machine speed
# at which the kernel takes the reference time; a 2-vCPU Xeon virtual machine
# measured a median of about these values.
KERNEL = {"small_pairs": ((4,), 0.09e-3), "large_pairs": ((4, 16), 0.45e-3),
          "cli_structured": ((4,), 0.09e-3)}

CLI_COMMANDS = ("dist", "log", "log_out", "geo", "plog", "theta", "oracle",
                "random", "diam")

# Structured cases of cli_structured, in schedule order. Parameters:
# antipodal (n), diametral (n, sign), boundary (n, zeta, nu1, nu2),
# minus_one (n, s, zeta).
CLI_CASES = (
    ("antipodal", 2), ("antipodal", 4), ("antipodal", 6), ("antipodal", 8),
    ("diametral", 3, 1), ("diametral", 3, -1), ("diametral", 5, 1),
    ("diametral", 5, -1), ("diametral", 7, 1), ("diametral", 7, -1),
    ("boundary", 3, 1, 1, 1), ("boundary", 4, 1, 2, 1),
    ("boundary", 5, 1, 3, 1), ("boundary", 6, 1, 2, 1),
    ("boundary", 7, 2, 2, 2), ("boundary", 8, 2, 3, 1),
    ("boundary", 8, 2, 2, 2),
    ("minus_one", 3, 1, 0), ("minus_one", 3, 1, 1), ("minus_one", 4, 2, 1),
    ("minus_one", 5, 2, 2), ("minus_one", 5, 3, 1), ("minus_one", 6, 1, 2),
    ("minus_one", 7, 1, -1), ("minus_one", 8, 4, 2), ("minus_one", 8, 2, 3),
)

# Valid inputs with noise in NOISE_RANGE, one case per order. Every command
# is sent once on each, untimed, after the timed loop: on noisy SU(2) input
# unitary_eig rejects most commands, and at higher orders about one draw in
# a thousand fails the same way, so these requests cannot be part of a timed
# loop in which no request may fail. Their outcome is reported on its own.
NOISE_PROBE_CASES = (("noisy", 2), ("noisy", 4), ("noisy", 7))

WORKLOADS = ("small_pairs", "large_pairs", "cli_structured")


def check_tol(n: int) -> float:
    """Tolerance of every answer check: ten times the library's default
    eigendecomposition tolerance, far below any branch or label error."""
    return 1e-6 * n


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q / (d / np.abs(d))


def haar_special_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q = haar_unitary(n, rng)
    q[:, 0] /= np.linalg.det(q)
    return q


def with_spectrum(alpha: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Haar-conjugated diagonal matrix with eigenvalue arguments ``alpha``."""
    w = haar_unitary(len(alpha), rng)
    return (w * np.exp(1j * alpha)) @ w.conj().T


def add_noise(a: np.ndarray, size: float, rng: np.random.Generator) -> np.ndarray:
    e = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
    return a + e * (size / np.linalg.norm(e))


def _spread_ok(values: np.ndarray, lo: float, hi: float) -> bool:
    v = np.sort(values)
    return bool(len(v) == 0 or (v[0] > lo and v[-1] < hi
                                and np.all(np.diff(v) >= SPACING)))


def boundary_spectrum(n, zeta, nu1, nu2, rng) -> np.ndarray:
    """Sorted arguments with a value repeated nu1 times on the kept side and
    nu2 times on the shifted side of index n - zeta, summing to 2 pi zeta."""
    lower, upper, block = n - zeta - nu1, zeta - nu2, nu1 + nu2
    lim = math.pi - SPACING
    for _ in range(100_000):
        beta0 = rng.uniform(-lim, lim)
        lo = rng.uniform(-lim, beta0, size=lower)
        hi = rng.uniform(beta0, lim, size=upper)
        beta = (TWO_PI * zeta - lo.sum() - hi.sum()) / block
        if (_spread_ok(np.concatenate([lo, [beta], hi]), -lim, lim)
                and np.all(lo < beta) and np.all(hi > beta)):
            return np.sort(np.concatenate([lo, np.full(block, beta), hi]))
    raise RuntimeError(f"no boundary spectrum for {(n, zeta, nu1, nu2)}")


def minus_one_spectrum(n, s, zeta, rng) -> np.ndarray:
    """Sorted arguments with pi repeated s times, summing to 2 pi zeta."""
    k = n - s
    lim = math.pi - SPACING
    for _ in range(100_000):
        rest = rng.uniform(-lim, lim, size=k)
        rest += (TWO_PI * zeta - s * math.pi - rest.sum()) / k
        if _spread_ok(rest, -lim, lim):
            return np.concatenate([np.sort(rest), np.full(s, math.pi)])
    raise RuntimeError(f"no spectrum with -1 for {(n, s, zeta)}")


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def canonical_angles(args: np.ndarray) -> np.ndarray:
    """Minimal-norm logarithm angles from sorted principal arguments: the
    top zeta arguments move down by 2 pi (zeta > 0), or the bottom |zeta|
    move up (zeta < 0)."""
    args = np.sort(np.asarray(args, dtype=float))
    zeta = int(round(args.sum() / TWO_PI))
    out = args.copy()
    if zeta > 0:
        out[len(out) - zeta:] -= TWO_PI
    elif zeta < 0:
        out[:-zeta] += TWO_PI
    return out


def sorted_args(r: np.ndarray) -> np.ndarray:
    """Sorted principal arguments of the eigenvalues of R, via zgeev."""
    return np.sort(np.angle(np.linalg.eigvals(r)))


def reference_distance(p: np.ndarray, q: np.ndarray) -> float:
    theta = canonical_angles(sorted_args(p.conj().T @ q))
    return float(math.sqrt(theta @ theta))


def geodesic_point(p: np.ndarray, q: np.ndarray, t: float) -> np.ndarray:
    """P exp(tX) for the minimal logarithm X of P^*Q, assuming it is unique;
    X is built on the zgeev eigenvectors."""
    w, v = np.linalg.eig(p.conj().T @ q)
    order = np.argsort(np.angle(w))
    v = v[:, order]
    theta = canonical_angles(np.angle(w[order]))
    return p @ ((v * np.exp(1j * t * theta)) @ np.linalg.inv(v))


def generic_margin(r: np.ndarray) -> float:
    """Smallest gap between eigenvalues of R, or between one and -1."""
    ang = sorted_args(r)
    gaps = np.diff(np.concatenate([ang, [ang[0] + TWO_PI]]))
    return float(min(gaps.min(), (math.pi - np.abs(ang)).min()))


def _label(k: int, m: int) -> str:
    return f"Gr({k};C^{m})"


def classify(alpha: np.ndarray, s: int) -> dict:
    """Expected discrete answers for a relative spectrum ``alpha`` (sorted,
    exact pi for the eigenvalue -1, repeated values exactly equal).

    ``geo_*`` follow the pair orientation (the larger of zeta and s - zeta),
    ``theta_*`` the single-matrix one (nonnegative winding); ``plog_*``
    classify generalized principal logarithms (nonempty iff 0 <= zeta <= s).
    """
    n = len(alpha)
    zeta = int(round(float(np.sum(alpha)) / TWO_PI))
    theta = canonical_angles(alpha)
    out = {"zeta": zeta, "s": s, "m": float(theta @ theta),
           "args": [float(a) for a in alpha]}

    def oriented(swap):
        if not swap:
            return alpha, zeta
        neg = np.sort(-alpha[:n - s])
        return np.concatenate([neg, alpha[n - s:]]), s - zeta

    def family(args, z):
        if z == 0 or args[n - z - 1] != args[n - z]:
            return True, None
        beta = args[n - z]
        nu1 = int(np.sum(args[:n - z] == beta))
        nu2 = int(np.sum(args[n - z:] == beta))
        return False, _label(nu2, nu1 + nu2)

    out["geo_unique"], out["geo_label"] = family(*oriented(zeta < s - zeta))
    args_t, zeta_t = oriented(zeta < 0)
    out["theta_zeta"], out["theta_oriented"] = zeta_t, zeta < 0
    out["theta_singleton"], out["theta_label"] = family(args_t, zeta_t)
    out["plog_nonempty"] = 0 <= zeta <= s
    out["plog_label"] = _label(zeta, s) if out["plog_nonempty"] else "empty"
    out["plog_singleton"] = out["plog_nonempty"] and zeta in (0, s)
    return out


class Crosscheck:
    """Compares each reference distance with zgeev and, at n <= 7, with the
    library's brute-force lattice oracle; counts disagreements."""

    def __init__(self, brute_force_m):
        self.brute_force_m = brute_force_m
        self.mismatches: list[str] = []

    def __call__(self, tag: str, r: np.ndarray, m_expected: float) -> None:
        n = r.shape[0]
        args = sorted_args(r)
        theta = canonical_angles(args)
        if abs(float(theta @ theta) - m_expected) > check_tol(n):
            self.mismatches.append(f"{tag}: zgeev m {theta @ theta!r} vs {m_expected!r}")
        if n <= BRUTE_FORCE_MAX_N:
            zeta = int(round(args.sum() / TWO_PI))
            best, _ = self.brute_force_m(args, zeta, K=2)
            if abs(best - m_expected) > check_tol(n):
                self.mismatches.append(f"{tag}: brute force m {best!r} vs {m_expected!r}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _generic_pair(n, rng):
    while True:
        p, q = haar_special_unitary(n, rng), haar_special_unitary(n, rng)
        if generic_margin(p.conj().T @ q) > GENERIC_MARGIN * 1e-7 * n:
            return p, q


def pair_schedule(orders: dict, rounds: int) -> tuple[list, list]:
    """Request mix of a Haar workload and the orders of its input pool.

    One round sends every operation at every order, weight times; the
    pool holds one pair per (order, round, repetition).
    """
    pool, schedule = [], []
    for _ in range(rounds):
        for n, weight in orders.items():
            for _ in range(weight):
                schedule += [{"op": op, "pair": len(pool)} for op in PAIR_OPS]
                pool.append(n)
    return schedule, pool


def build_pairs(workload: str, seed: int, crosscheck: Crosscheck) -> tuple[dict, dict]:
    orders, rounds = ((SMALL_ORDERS, SMALL_ROUNDS) if workload == "small_pairs"
                      else (LARGE_ORDERS, LARGE_ROUNDS))
    schedule, pool = pair_schedule(orders, rounds)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    arrays, pairs = {}, []
    for i, n in enumerate(pool):
        p, q = _generic_pair(n, rng)
        d = reference_distance(p, q)
        if n <= BRUTE_FORCE_MAX_N:
            crosscheck(f"pair {i}", p.conj().T @ q, d * d)
        arrays[f"P{i}"], arrays[f"Q{i}"] = p, q
        arrays[f"M{i}"] = geodesic_point(p, q, GEODESIC_T)
        pairs.append({"n": n, "d": d})
    round_length = len(schedule) // rounds
    plan = {"workload": workload, "schedule": schedule, "probe": [], "pairs": pairs,
            "t": GEODESIC_T, "round_length": round_length,
            "window": WINDOW_ROUNDS[workload] and round_length * WINDOW_ROUNDS[workload]}
    return plan, arrays


def write_matrix(path: str, a: np.ndarray) -> None:
    """Matrix file format of the CLI; json writes floats by repr, which
    round-trips doubles exactly."""
    doc = {"n": a.shape[0],
           "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in a]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _case_spectrum(case, rng):
    kind, n = case[0], case[1]
    if kind == "antipodal":
        return np.full(n, math.pi), n
    if kind == "diametral":
        return np.full(n, case[2] * (n - 1) * math.pi / n), 0
    if kind == "boundary":
        return boundary_spectrum(n, *case[2:], rng), 0
    if kind == "minus_one":
        return minus_one_spectrum(n, case[2], case[3], rng), case[2]
    raise ValueError(kind)


def build_cli(seed: int, workdir: str, crosscheck: Crosscheck) -> tuple[dict, dict]:
    rng = np.random.default_rng([seed, WORKLOADS.index("cli_structured")])
    cases = []
    for c, case in enumerate(CLI_CASES + NOISE_PROBE_CASES):
        kind, n = case[0], case[1]
        if kind == "noisy":
            p, q = _generic_pair(n, rng)
            r = p.conj().T @ q
            size = float(np.exp(rng.uniform(*np.log(NOISE_RANGE))))
            p, q, r = (add_noise(a, size, rng) for a in (p, q, r))
            exp = classify(sorted_args(p.conj().T @ q), 0)
            exp_r = classify(sorted_args(r), 0)
            crosscheck(f"case {c} {case}", r, exp_r["m"])
        else:
            alpha, s = _case_spectrum(case, rng)
            p = haar_special_unitary(n, rng)
            r = with_spectrum(alpha, rng)
            q = p @ r
            exp = exp_r = classify(alpha, s)
            crosscheck(f"case {c} {case}", r, exp["m"])
        files = {}
        for name, a in (("P", p), ("Q", q), ("R", r)):
            files[name] = os.path.join(workdir, f"case{c}_{name}.json")
            write_matrix(files[name], a)
        cases.append({"case": list(case), "n": n, "files": files,
                      "pair": exp, "single": exp_r,
                      "d": math.sqrt(exp["m"]), "random_seed": 1000 * seed + c})
    timed = len(CLI_CASES)
    schedule = [{"cmd": cmd, "case": c} for c in range(timed) for cmd in CLI_COMMANDS]
    probe = [{"cmd": cmd, "case": c} for c in range(timed, len(cases)) for cmd in CLI_COMMANDS]
    plan = {"workload": "cli_structured", "schedule": schedule, "cases": cases,
            "probe": probe, "round_length": len(CLI_COMMANDS), "workdir": workdir,
            "window": len(schedule) * WINDOW_ROUNDS["cli_structured"]}
    return plan, {}


def build(workload: str, seed: int, workdir: str, brute_force_m) -> dict:
    """Generate a workload into ``workdir`` (plan.json, arrays.npz) and
    return its plan."""
    crosscheck = Crosscheck(brute_force_m)
    if workload == "cli_structured":
        plan, arrays = build_cli(seed, workdir, crosscheck)
    else:
        plan, arrays = build_pairs(workload, seed, crosscheck)
    plan["reference_mismatches"] = crosscheck.mismatches
    with open(os.path.join(workdir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    np.savez(os.path.join(workdir, "arrays.npz"), **arrays)
    return plan
