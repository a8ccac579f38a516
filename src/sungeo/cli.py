"""Command-line front end.

Matrices travel as JSON documents {"n": N, "matrix": [[[re, im], ...], ...]}
written with 17 significant digits, which round-trips IEEE doubles exactly.
Every subcommand prints one strict JSON report (echoed inputs, outputs and a
map of verification residuals) and exits 0 on success, 2 on invalid input,
3 on numerical failure, including a NaN or infinity in the report, 4 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (NonFiniteResultError, ParseError, ShapeError, SungeoError,
                     UnsupportedOrderError)
from .geometry import (
    _distance,
    _relative,
    diameter,
    diametral_points,
    distance,
    geodesic_eval,
    geodesic_family,
)
from .logmin import (LatticeProblem, _sample, _signed, brute_force_m, canonical_log,
                     grassmann_label, m_value, plog_status, theta_descriptor)
from .matrixcore import (
    SpecialUnitary,
    expm_skew,
    frobenius_norm,
    random_special_unitary,
    random_unitary,
    validate_special_unitary,
)
from .spectral import spectral_summary
from .tolerances import Tolerances

ENV_TOL = "SUNGEO_TOL"

EXIT_OK = 0
EXIT_USAGE = 4


# ---------------------------------------------------------------------------
# matrix files
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    out = format(float(x), ".17g")
    # Keep a decimal point so JSON readers parse a float and -0.0 survives.
    if out.lstrip("-").isdigit():
        out += ".0"
    return out


@dataclass(frozen=True)
class MatrixFile:
    """In-memory form of the matrix file format."""

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_entries(cls, entries: np.ndarray) -> "MatrixFile":
        return cls(np.asarray(entries, dtype=np.complex128))

    @classmethod
    def loads(cls, text: str) -> "MatrixFile":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "n" not in doc or "matrix" not in doc:
            raise ParseError('expected an object with "n" and "matrix" keys')
        n = doc["n"]
        rows = doc["matrix"]
        if not isinstance(n, int) or n < 1:
            raise ParseError('"n" must be a positive integer')
        if not isinstance(rows, list) or len(rows) != n:
            raise ParseError(f'"matrix" must be a list of {n} rows')
        out = np.empty((n, n), dtype=np.complex128)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise ParseError(f"row {i} must hold {n} entries")
            for j, cell in enumerate(row):
                if (not isinstance(cell, list) or len(cell) != 2
                        or not all(isinstance(v, (int, float)) for v in cell)):
                    raise ParseError(f"entry ({i},{j}) must be an [re, im] pair")
                out[i, j] = complex(cell[0], cell[1])
        if not np.all(np.isfinite(out)):
            raise ParseError("matrix entries must be finite")
        return cls(out)

    @classmethod
    def load(cls, path: str) -> "MatrixFile":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        return cls.loads(text)

    def dumps(self) -> str:
        rows = ",\n    ".join(
            "[" + ", ".join(f"[{_fmt(z.real)}, {_fmt(z.imag)}]" for z in row) + "]"
            for row in self.matrix
        )
        return '{\n  "n": %d,\n  "matrix": [\n    %s\n  ]\n}\n' % (self.n, rows)

    def dump(self, path: str) -> None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self.dumps())
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from exc


def _load(tol: float | None, *paths: str) -> tuple:
    """Read and validate matrix files; returns the tolerances, scaled from
    the first file's order unless ``tol`` is given, and the matrices."""
    tols, mats = None, []
    for path in paths:
        matrix = MatrixFile.load(path).matrix
        if tols is None:
            tols = Tolerances.default(len(matrix)) if tol is None else Tolerances(tol)
        mats.append(validate_special_unitary(matrix, tol=tols.group))
    return (tols, *mats)


def _matrix_payload(entries: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(entries)]


def _unitary_residuals(tag: str, u: SpecialUnitary) -> dict:
    return {f"{tag}_unitarity": u.unitarity_residual,
            f"{tag}_determinant": u.det_residual}


# ---------------------------------------------------------------------------
# subcommands (each returns the report dict)
# ---------------------------------------------------------------------------

def cmd_dist(path_p: str, path_q: str, tol: float | None) -> dict:
    tols, p, q = _load(tol, path_p, path_q)
    sd, oriented, _ = _relative(p, q, tols)
    return {
        "command": "dist",
        "inputs": {"P": path_p, "Q": path_q, "tol": tols.group},
        "outputs": {
            "distance": _distance(oriented),
            "zeta": sd.zeta,
            "s": sd.s,
            "args": [float(a) for a in sd.args],
            "m": m_value(sd),
        },
        "residuals": {**_unitary_residuals("P", p), **_unitary_residuals("Q", q)},
    }


def cmd_log(path_p: str, path_q: str, tol: float | None,
            out: str | None = None) -> dict:
    tols, p, q = _load(tol, path_p, path_q)
    _, oriented, sign = _relative(p, q, tols)
    x = _signed(canonical_log(oriented, alg_tolerance=tols.alg), sign)
    e = expm_skew(x, tol=tols.group)
    roundtrip = float(np.linalg.norm(p.entries @ e.entries - q.entries))
    norm = frobenius_norm(x.entries)
    d = _distance(oriented)
    if out is not None:
        MatrixFile.from_entries(x.entries).dump(out)
    return {
        "command": "log",
        "inputs": {"P": path_p, "Q": path_q, "tol": tols.group, "out": out},
        "outputs": {
            "log": _matrix_payload(x.entries),
            "norm": norm,
            "distance": d,
        },
        "residuals": {
            **_unitary_residuals("P", p), **_unitary_residuals("Q", q),
            "exp_roundtrip": roundtrip,
            "norm_vs_distance": abs(norm - d),
        },
    }


def cmd_geo(path_p: str, path_q: str, t_list: list[float],
            tol: float | None) -> dict:
    if not t_list:
        raise ShapeError("the list of curve parameters must be nonempty")
    tols, p, q = _load(tol, path_p, path_q)
    fam = geodesic_family(p, q, tols=tols)
    points = []
    residuals = {**_unitary_residuals("P", p), **_unitary_residuals("Q", q)}
    end = None
    for t in t_list:
        g = geodesic_eval(fam.canonical, t, tols=tols)
        points.append({"t": t, "matrix": _matrix_payload(g.entries)})
        residuals[f"gamma({_fmt(t)})_unitarity"] = g.unitarity_residual
        if t == 1.0:
            end = g
    if end is None:
        end = geodesic_eval(fam.canonical, 1.0, tols=tols)
    residuals["endpoint"] = float(np.linalg.norm(end.entries - q.entries))
    outputs = {
        "unique": fam.unique,
        "distance": fam.distance,
        "points": points,
    }
    if not fam.unique:
        outputs["grassmannian"] = grassmann_label(*fam.theta.grassmannian)
    return {
        "command": "geo",
        "inputs": {"P": path_p, "Q": path_q, "t": t_list, "tol": tols.group},
        "outputs": outputs,
        "residuals": residuals,
    }


def cmd_plog(path_q: str, tol: float | None) -> dict:
    tols, q = _load(tol, path_q)
    sd = spectral_summary(q, cluster_tol=tols.cluster, zeta_tol=tols.zeta,
                          eig_tol=tols.eig)
    status = plog_status(sd)
    return {
        "command": "plog",
        "inputs": {"Q": path_q, "tol": tols.group},
        "outputs": {
            "nonempty": status.nonempty,
            "zeta": status.zeta,
            "s": status.s,
            "grassmannian": status.label,
            "singleton": status.is_singleton,
        },
        "residuals": _unitary_residuals("Q", q),
    }


def cmd_diam(n: int, point_path: str | None, tol: float | None) -> dict:
    report = {
        "command": "diam",
        "inputs": {"n": n, "point": point_path},
        "outputs": {"diameter": diameter(n)},
        "residuals": {},
    }
    if point_path is not None:
        tols, p = _load(tol, point_path)
        if p.n != n:
            raise ShapeError(f"point has order {p.n}, expected {n}")
        rep = diametral_points(p, tols=tols)
        report["outputs"]["points"] = [_matrix_payload(pt.entries) for pt in rep.points]
        report["residuals"].update(_unitary_residuals("P", p))
        for i, pt in enumerate(rep.points):
            report["residuals"][f"point{i}_distance_vs_diameter"] = \
                abs(distance(p, pt, tols=tols) - rep.diameter)
    return report


def cmd_random(n: int, seed: int, out: str | None, tol: float | None) -> dict:
    if n < 1:
        raise UnsupportedOrderError("order must be at least 1")
    q = random_special_unitary(n, seed)
    doc = MatrixFile.from_entries(q.entries)
    report = {
        "command": "random",
        "inputs": {"n": n, "seed": seed, "out": out},
        "outputs": {},
        "residuals": _unitary_residuals("Q", q),
    }
    if out is not None:
        doc.dump(out)
        report["outputs"]["path"] = out
    else:
        report["outputs"]["matrix"] = _matrix_payload(q.entries)
    return report


def cmd_theta(path_q: str, samples: int, seed: int, tol: float | None) -> dict:
    tols, q = _load(tol, path_q)
    td = theta_descriptor(q, tols=tols)
    m = frobenius_norm(td.base_log.entries) ** 2
    outputs = {
        "zeta": td.zeta,
        "singleton": td.is_singleton,
        "oriented": td.oriented,
        "m": m,
        "base_log": _matrix_payload(td.base_log.entries),
    }
    if td.beta_arg is not None:
        outputs["beta_arg"] = td.beta_arg
    if not td.is_singleton:
        outputs["nu1"] = td.nu1
        outputs["nu2"] = td.nu2
        outputs["grassmannian"] = grassmann_label(*td.grassmannian)
    residuals = _unitary_residuals("Q", q)
    base_exp = expm_skew(td.base_log, tol=tols.group)
    residuals["base_exp_roundtrip"] = float(np.linalg.norm(base_exp.entries - q.entries))
    if samples > 0:
        if td.is_singleton:
            outputs["samples"] = []
            outputs["samples_skipped"] = "the set of minimal logarithms is a single point"
        else:
            rng = np.random.default_rng(seed)
            block = td.nu1 + td.nu2
            sampled = []
            for i in range(samples):
                x, roundtrip = _sample(td, q, random_unitary(block, rng), tols=tols)
                sampled.append(_matrix_payload(x.entries))
                residuals[f"sample{i}_exp_roundtrip"] = roundtrip
                residuals[f"sample{i}_norm_vs_m"] = \
                    abs(frobenius_norm(x.entries) ** 2 - m)
            outputs["samples"] = sampled
    return {
        "command": "theta",
        "inputs": {"Q": path_q, "samples": samples, "seed": seed, "tol": tols.group},
        "outputs": outputs,
        "residuals": residuals,
    }


def cmd_oracle(path_q: str, tol: float | None) -> dict:
    tols, q = _load(tol, path_q)
    sd = spectral_summary(q, cluster_tol=tols.cluster, zeta_tol=tols.zeta,
                          eig_tol=tols.eig)
    closed = m_value(sd)
    brute, minimizers = brute_force_m(sd.args, sd.zeta, K=3)
    gap = abs(closed - brute)
    structure_ok = all(LatticeProblem.spread(k) <= 1 for k in minimizers)
    if sd.zeta >= 0:
        structure_ok = structure_ok and all(
            sorted(set(k)) in ([0], [-1, 0], [-1]) and k.count(-1) == sd.zeta
            for k in minimizers
        )
    return {
        "command": "oracle",
        "inputs": {"Q": path_q, "K": 3, "tol": tols.group},
        "outputs": {
            "zeta": sd.zeta,
            "s": sd.s,
            "m_closed_form": closed,
            "m_brute_force": brute,
            "agreement": gap <= 1e-9 * max(1.0, closed),
            "minimizers": [list(k) for k in minimizers],
            "minimizer_structure_ok": structure_ok,
        },
        "residuals": {**_unitary_residuals("Q", q), "m_gap": gap},
    }


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: usage error: {message}\n")


# Flag value types. A ValueError makes argparse report a usage error.

def finite_positive(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(text)
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def finite_list(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip() != ""]
    if not all(map(math.isfinite, values)):
        raise ValueError(text)
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sungeo",
                     description="Geometry of SU(n) with the Frobenius metric")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        return p

    def add_tol(p):
        p.add_argument("--tol", type=finite_positive, default=None,
                       help="group-membership tolerance (default 1e-8 * n; "
                            f"env {ENV_TOL} overrides)")

    p = command("dist", cmd_dist, "distance between two matrices")
    p.add_argument("path_p", metavar="P"); p.add_argument("path_q", metavar="Q")
    add_tol(p)

    p = command("log", cmd_log, "canonical minimizing logarithm of P^*Q")
    p.add_argument("path_p", metavar="P"); p.add_argument("path_q", metavar="Q")
    add_tol(p)
    p.add_argument("--out", default=None, help="write the logarithm as a matrix file")

    p = command("geo", cmd_geo, "evaluate the canonical geodesic at parameters t")
    p.add_argument("path_p", metavar="P"); p.add_argument("path_q", metavar="Q")
    add_tol(p)
    p.add_argument("--t", dest="t_list", metavar="T", type=finite_list, default=[0.0, 1.0],
                   help="comma-separated curve parameters (default 0,1)")

    p = command("plog", cmd_plog, "classify generalized principal logarithms")
    p.add_argument("path_q", metavar="Q"); add_tol(p)

    p = command("diam", cmd_diam, "diameter of SU(n) and diametral points")
    p.add_argument("n", type=int)
    p.add_argument("--point", dest="point_path", metavar="POINT", default=None,
                   help="matrix file to report diametral partners of")
    add_tol(p)

    p = command("random", cmd_random, "Haar-random special unitary matrix")
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the matrix file here")
    add_tol(p)

    p = command("theta", cmd_theta, "describe and sample the set of minimal logarithms")
    p.add_argument("path_q", metavar="Q"); add_tol(p)
    p.add_argument("--samples", type=nonnegative_int, default=0)
    p.add_argument("--seed", type=int, default=0)

    p = command("oracle", cmd_oracle, "cross-check the closed form against brute force")
    p.add_argument("path_q", metavar="Q"); add_tol(p)

    return parser


def _env_tol() -> float | None:
    raw = os.environ.get(ENV_TOL)
    if raw is None or raw == "":
        return None
    try:
        return finite_positive(raw)
    except ValueError as exc:
        raise ParseError(f"{ENV_TOL} is not a finite positive number: {raw!r}") from exc


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    run = args.pop("run")
    del args["command"]
    try:
        if args["tol"] is None:
            args["tol"] = _env_tol()
        report = run(**args)
        try:
            text = json.dumps(report, indent=2, allow_nan=False)
        except ValueError as exc:
            raise NonFiniteResultError(f"report not written: {exc}") from exc
    except SungeoError as exc:
        payload = {"error": exc.code, "message": str(exc)}
        for key in ("residual", "tolerance"):
            value = getattr(exc, key)
            if value is not None and math.isfinite(value):
                payload[key] = value
        print(json.dumps(payload, allow_nan=False), file=sys.stderr)
        return exc.exit_code
    print(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
