"""Answer checks, run in the worker outside the timed region.

Each check returns ``None`` for a correct answer or a short reason. The
numpy functions are bound at import, so the tracer's wrappers on
``numpy.linalg`` never see them.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

import numpy as np
from numpy.linalg import eigh, eigvals, det, norm

from inputs import canonical_angles, check_tol, haar_special_unitary


def expm_skew(x: np.ndarray) -> np.ndarray:
    """exp(X) for skew-Hermitian X, through the Hermitian matrix -iX."""
    h = -1j * x
    w, v = eigh((h + h.conj().T) / 2.0)
    return (v * np.exp(1j * w)) @ v.conj().T


def distance(p: np.ndarray, q: np.ndarray) -> float:
    theta = canonical_angles(np.angle(eigvals(p.conj().T @ q)))
    return float(math.sqrt(theta @ theta))


def special_unitary_defect(a: np.ndarray) -> float:
    n = a.shape[0]
    return max(float(norm(a @ a.conj().T - np.eye(n))), float(abs(det(a) - 1.0)))


def close(label: str, got, want, tol: float):
    if not isinstance(got, (int, float)) or not math.isfinite(got) or abs(got - want) > tol:
        return f"{label} {got!r}, expected {want!r}"
    return None


def equal(label: str, got, want):
    return None if got == want else f"{label} {got!r}, expected {want!r}"


def same_grassmannian(got, want):
    """Labels Gr(k;C^m) and Gr(m-k;C^m) name the same manifold."""
    def parts(label):
        k, m = label[3:-1].split(";C^")
        return int(k), int(m)
    if not isinstance(got, str) or not got.startswith("Gr("):
        return f"grassmannian {got!r}, expected {want!r}"
    (k, m), (k0, m0) = parts(got), parts(want)
    return None if m == m0 and k in (k0, m0 - k0) else f"grassmannian {got}, expected {want}"


def log_answer(x: np.ndarray, p: np.ndarray, q: np.ndarray, d: float):
    """X is in su(n), exp lands on Q from P, and ||X|| is the distance."""
    tol = check_tol(p.shape[0])
    if float(norm(x + x.conj().T)) > tol or abs(np.trace(x)) > tol:
        return "logarithm is not in su(n)"
    roundtrip = float(norm(p @ expm_skew(x) - q))
    if roundtrip > tol:
        return f"round trip ||P exp(X) - Q|| = {roundtrip:.3e}"
    return close("||X|| - d gap", float(norm(x)), d, tol)


class SpeedKernel:
    """Fixed numpy work, independent of the library, timed after every
    request to track the machine's speed at that moment: a distance and an
    exponential at each of the given orders. It runs twice and only the
    second, warm run is timed, so what the request left in the caches
    barely matters."""

    def __init__(self, orders):
        rng = np.random.default_rng(0)
        self.pairs = [(haar_special_unitary(n, rng), haar_special_unitary(n, rng))
                      for n in orders]

    def _run(self):
        for p, q in self.pairs:
            distance(p, q)
            expm_skew(p - p.conj().T)

    def seconds(self) -> float:
        self._run()
        t0 = perf_counter()
        self._run()
        return perf_counter() - t0


def first_failure(*reasons):
    return next((r for r in reasons if r), None)


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in report")


def parse_report(text: str) -> dict:
    return json.loads(text, parse_constant=_reject_constant)


def read_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh, parse_constant=_reject_constant)
    return payload_matrix(doc["matrix"])


def payload_matrix(rows) -> np.ndarray:
    a = np.array(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def cli_report(cmd: str, case: dict, out: dict, mats: dict, out_path: str | None):
    """Check one CLI report against the case's expected answers; a missing
    key raises, which the caller counts as a wrong answer."""
    n = case["n"]
    tol = check_tol(n)
    pair, single = case["pair"], case["single"]
    p, q, r = mats["P"], mats["Q"], mats["R"]
    d = case["d"]
    o = out["outputs"]
    if cmd == "dist":
        return first_failure(
            close("distance", o["distance"], d, tol),
            equal("zeta", o["zeta"], pair["zeta"]), equal("s", o["s"], pair["s"]),
            close("m", o["m"], d * d, tol),
            None if len(o["args"]) == n and max(
                abs(a - b) for a, b in zip(o["args"], pair["args"])) <= tol
            else "relative arguments differ from the reference")
    if cmd in ("log", "log_out"):
        x = read_matrix(out_path) if cmd == "log_out" else payload_matrix(o["log"])
        return first_failure(close("distance", o["distance"], d, tol),
                             log_answer(x, p, q, d))
    if cmd == "geo":
        pts = {pt["t"]: payload_matrix(pt["matrix"]) for pt in o["points"]}
        mid = pts.get(0.5)
        return first_failure(
            close("distance", o["distance"], d, tol),
            equal("unique", o["unique"], pair["geo_unique"]),
            None if pair["geo_unique"] else same_grassmannian(o.get("grassmannian"),
                                                             pair["geo_label"]),
            close("||gamma(0) - P||", float(norm(pts[0.0] - p)), 0.0, tol),
            close("||gamma(1) - Q||", float(norm(pts[1.0] - q)), 0.0, tol),
            close("d(P, gamma(1/2))", distance(p, mid), d / 2, tol),
            close("d(gamma(1/2), Q)", distance(mid, q), d / 2, tol))
    if cmd == "plog":
        return first_failure(
            equal("nonempty", o["nonempty"], single["plog_nonempty"]),
            equal("zeta", o["zeta"], single["zeta"]), equal("s", o["s"], single["s"]),
            equal("grassmannian", o["grassmannian"], single["plog_label"]),
            equal("singleton", o["singleton"], single["plog_singleton"]))
    if cmd == "theta":
        m = single["m"]
        base = payload_matrix(o["base_log"])
        reasons = [
            equal("zeta", o["zeta"], single["theta_zeta"]),
            equal("oriented", o["oriented"], single["theta_oriented"]),
            equal("singleton", o["singleton"], single["theta_singleton"]),
            close("m", o["m"], m, tol),
            log_answer(base, np.eye(n), r, math.sqrt(m)),
        ]
        if single["theta_singleton"]:
            reasons.append(equal("samples", o.get("samples"), []))
        else:
            reasons.append(same_grassmannian(o.get("grassmannian"), single["theta_label"]))
            samples = o.get("samples", [])
            reasons.append(equal("sample count", len(samples), 8))
            reasons += [log_answer(payload_matrix(x), np.eye(n), r, math.sqrt(m))
                        for x in samples]
        return first_failure(*reasons)
    if cmd == "oracle":
        m = single["m"]
        return first_failure(
            equal("agreement", o["agreement"], True),
            equal("minimizer structure", o["minimizer_structure_ok"], True),
            close("m closed form", o["m_closed_form"], m, tol),
            close("m brute force", o["m_brute_force"], m, tol),
            equal("zeta", o["zeta"], single["zeta"]), equal("s", o["s"], single["s"]))
    if cmd == "random":
        a = read_matrix(out_path)
        return first_failure(equal("order", a.shape, (n, n)),
                             close("SU(n) defect", special_unitary_defect(a), 0.0, 1e-8 * n))
    if cmd == "diam":
        diam = math.pi * math.sqrt(n if n % 2 == 0 else n - 1.0 / n)
        phase = (n - 1) * math.pi / n
        want = [-p] if n % 2 == 0 else [np.exp(1j * phase) * p, np.exp(-1j * phase) * p]
        got = [payload_matrix(x) for x in o.get("points", [])]
        if len(got) != len(want):
            return f"{len(got)} diametral points, expected {len(want)}"
        off = min(max(float(norm(g - w)) for g, w in zip(got, order))
                  for order in (want, want[::-1]))
        return first_failure(close("diameter", o["diameter"], diam, tol),
                             close("diametral point error", off, 0.0, tol))
    raise ValueError(cmd)

