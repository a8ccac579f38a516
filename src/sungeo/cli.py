"""Command-line front end.

Matrices travel as JSON documents {"n": N, "matrix": [[[re, im], ...], ...]},
one row per line, written like the matrices in reports: one format string over
the float view, each float in its shortest round-trip form.
A document is checked in a few bulk passes and converted by one array call;
a malformed one is reported at its first bad row or entry in row-major order.
``theta --samples k`` draws its k sampling unitaries as one stack and builds
the k members in one pass.
Every subcommand prints one strict JSON report (echoed inputs, outputs and a
map of verification residuals) and exits 0 on success, 2 on invalid input,
3 on numerical failure, including a NaN or infinity in the report, 4 on usage errors.
A report or error line whose reader has gone (a closed pipe) is dropped, and
the request keeps its exit code.

A request that starts with a subcommand is parsed by that subcommand's parser
alone, which does in about half the time what argparse's two-level parse
does; an empty command line, an unknown first token and leftover arguments
go to the full parser, so every usage error and help text is the one it gives.

A report is the text ``json.dumps(report, indent=2)`` gives, with floats in
their shortest round-trip form. Reports hold matrices as complex arrays, and
``_ReportEncoder`` writes each one as a block of nested [re, im] pairs with a
single format string instead of walking it value by value.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import (NonFiniteResultError, ParseError, ShapeError, SungeoError,
                     UnsupportedOrderError)
from .geometry import (
    diameter,
    diametral_points,
    distance,
    geodesic_eval,
    geodesic_family,
    relative_spectrum,
)
from .logmin import (brute_force_m, grassmann_label, m_value, plog_status, theta_descriptor,
                     theta_sample)
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

def _non_finite(value: float) -> ValueError:
    return ValueError(f"Out of range float values are not JSON compliant: {value!r}")


def _float_values(entries: np.ndarray) -> list[float]:
    """The float view of a complex matrix (row-major, re before im) as a
    list; a NaN or infinity raises the stdlib's ValueError."""
    values = np.ascontiguousarray(entries, dtype=np.complex128).view(np.float64)
    flat = values.ravel().tolist()
    if not np.isfinite(values).all():
        raise _non_finite(next(v for v in flat if not math.isfinite(v)))
    return flat


# JSON true and false load as bool, a subclass of int: not numbers here.
_NUMBER = {int, float}


def _pair(cell) -> bool:
    return isinstance(cell, list) and len(cell) == 2 and set(map(type, cell)) <= _NUMBER


def _too_large(value) -> bool:
    """Whether an int from a JSON document is out of the float range."""
    try:
        float(value)
    except OverflowError:
        return True
    return False


@dataclass(frozen=True)
class MatrixFile:
    """In-memory form of the matrix file format."""

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def loads(cls, text: str) -> "MatrixFile":
        # ValueError: bad JSON or an over-long integer; RecursionError: deep nesting.
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "n" not in doc or "matrix" not in doc:
            raise ParseError('expected an object with "n" and "matrix" keys')
        n = doc["n"]
        rows = doc["matrix"]
        if type(n) is not int or n < 1:
            raise ParseError('"n" must be a positive integer')
        if not isinstance(rows, list) or len(rows) != n:
            raise ParseError(f'"matrix" must be a list of {n} rows')
        # Bulk passes in the row-major order of the document: the rows, then
        # the cells of the rows before the first bad one, then their values.
        # The first offence in that order is named: a cell whose value is
        # too large for a float counts where it stands.
        stop = next((i for i, row in enumerate(rows)
                     if not isinstance(row, list) or len(row) != n), n)
        cells = list(chain.from_iterable(rows[:stop]))
        pairs = set(map(type, cells)) <= {list} and set(map(len, cells)) <= {2}
        flat = list(chain.from_iterable(cells)) if pairs else []
        bad = len(cells)
        if not pairs or not set(map(type, flat)) <= _NUMBER:
            bad = next(k for k, cell in enumerate(cells) if not _pair(cell))
            flat = list(chain.from_iterable(cells[:bad]))
        try:
            values = np.array(flat, dtype=np.float64)
        except OverflowError as exc:
            k = next(k for k, v in enumerate(flat) if _too_large(v)) // 2
            raise ParseError(f"entry ({k // n},{k % n}) is out of range: {exc}") from exc
        if bad < len(cells):
            raise ParseError(f"entry ({bad // n},{bad % n}) must be an [re, im] pair")
        if stop < n:
            raise ParseError(f"row {stop} must hold {n} entries")
        if not np.isfinite(values).all():
            raise ParseError("matrix entries must be finite")
        return cls(values.view(np.complex128).reshape(n, n))

    @classmethod
    def load(cls, path: str) -> "MatrixFile":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        return cls.loads(text)

    def dumps(self) -> str:
        row = "[" + ", ".join(["[%r, %r]"] * self.n) + "]"
        template = ('{\n  "n": %d,\n  "matrix": [\n    '
                    + ",\n    ".join([row] * self.n) + "\n  ]\n}\n")
        return template % (self.n, *_float_values(self.matrix))

    def dump(self, path: str) -> None:
        text = self.dumps()  # before the file is opened: a bad matrix writes nothing
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from exc


def _load(tol: float | None, *paths: str) -> list[SpecialUnitary]:
    """Read and validate matrix files at one set of tolerances for the first
    file's order, the default or those at base ``tol``; the matrices carry them."""
    tols, mats = None, []
    for path in paths:
        matrix = MatrixFile.load(path).matrix
        if tols is None:
            tols = (Tolerances.default(len(matrix)) if tol is None
                    else Tolerances.scaled(tol, len(matrix)))
        mats.append(validate_special_unitary(matrix, tols))
    return mats


def _unitary_residuals(tag: str, u: SpecialUnitary) -> dict:
    return {f"{tag}_unitarity": u.unitarity_residual,
            f"{tag}_determinant": u.det_residual}


# ---------------------------------------------------------------------------
# report writer
# ---------------------------------------------------------------------------

def _matrix_text(entries: np.ndarray, newline: str, step: str) -> str:
    """A complex matrix as nested [re, im] lists, written with one format
    string over its float view (row-major, re before im)."""
    rows, cols = entries.shape
    row_nl = newline + step
    pair_nl = row_nl + step
    value_nl = pair_nl + step
    pair = "[" + value_nl + "%r," + value_nl + "%r" + pair_nl + "]"
    row = "[" + pair_nl + ("," + pair_nl).join([pair] * cols) + row_nl + "]"
    template = "[" + row_nl + ("," + row_nl).join([row] * rows) + newline + "]"
    return template % tuple(_float_values(entries))


def _text(o, newline: str, step: str) -> str:
    """JSON text of ``o`` whose first line sits at indentation ``newline``;
    the type tests run in the stdlib encoder's order."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise _non_finite(o)
        return float.__repr__(o)
    if isinstance(o, np.ndarray):
        return _matrix_text(o, newline, step)
    inner = newline + step
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        items = [_text(v, inner, step) for v in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _text(v, inner, step)
                 for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


class _ReportEncoder(json.JSONEncoder):
    """Writes ``json.dumps(report, cls=_ReportEncoder, indent=2,
    allow_nan=False)`` as the stdlib's indented encoder would, and 2-d
    arrays as nested [re, im] lists. Keys must be strings; a NaN or infinity
    raises the stdlib's ValueError whatever ``allow_nan`` says."""

    def encode(self, o) -> str:
        return _text(o, "\n", " " * self.indent)


# ---------------------------------------------------------------------------
# subcommands (each returns the report dict)
# ---------------------------------------------------------------------------

def cmd_dist(path_p: str, path_q: str, tol: float | None) -> dict:
    p, q = _load(tol, path_p, path_q)
    sd = relative_spectrum(p, q)
    m = m_value(sd)
    return {
        "command": "dist",
        "inputs": {"P": path_p, "Q": path_q, "tol": p.tols.group},
        "outputs": {
            "distance": math.sqrt(m),
            "zeta": sd.zeta,
            "s": sd.s,
            "args": sd.args.tolist(),
            "m": m,
        },
        "residuals": {**_unitary_residuals("P", p), **_unitary_residuals("Q", q)},
    }


def cmd_log(path_p: str, path_q: str, tol: float | None,
            out: str | None = None) -> dict:
    p, q = _load(tol, path_p, path_q)
    fam = geodesic_family(p, q)
    x = fam.canonical.X
    e = expm_skew(x)
    roundtrip = frobenius_norm(p.entries @ e.entries - q.entries)
    if out is not None:
        MatrixFile(x.entries).dump(out)
    return {
        "command": "log",
        "inputs": {"P": path_p, "Q": path_q, "tol": p.tols.group, "out": out},
        "outputs": {
            "log": x.entries,
            "norm": fam.canonical.length,
            "distance": fam.distance,
        },
        "residuals": {
            **_unitary_residuals("P", p), **_unitary_residuals("Q", q),
            "exp_roundtrip": roundtrip,
            "norm_vs_distance": abs(fam.canonical.length - fam.distance),
        },
    }


def cmd_geo(path_p: str, path_q: str, t_list: list[float],
            tol: float | None) -> dict:
    if not t_list:
        raise ShapeError("the list of curve parameters must be nonempty")
    p, q = _load(tol, path_p, path_q)
    fam = geodesic_family(p, q)
    points = []
    residuals = {**_unitary_residuals("P", p), **_unitary_residuals("Q", q)}
    end = None
    for t in t_list:
        g = geodesic_eval(fam.canonical, t)
        points.append({"t": t, "matrix": g.entries})
        residuals[f"gamma({float(t)!r})_unitarity"] = g.unitarity_residual
        if t == 1.0:
            end = g
    if end is None:
        end = geodesic_eval(fam.canonical, 1.0)
    residuals["endpoint"] = frobenius_norm(end.entries - q.entries)
    outputs = {
        "unique": fam.unique,
        "distance": fam.distance,
        "points": points,
    }
    if not fam.unique:
        outputs["grassmannian"] = grassmann_label(*fam.grassmannian)
    return {
        "command": "geo",
        "inputs": {"P": path_p, "Q": path_q, "t": t_list, "tol": p.tols.group},
        "outputs": outputs,
        "residuals": residuals,
    }


def cmd_plog(path_q: str, tol: float | None) -> dict:
    [q] = _load(tol, path_q)
    status = plog_status(spectral_summary(q))
    return {
        "command": "plog",
        "inputs": {"Q": path_q, "tol": q.tols.group},
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
    top = diameter(n)
    report = {
        "command": "diam",
        "inputs": {"n": n, "point": point_path},
        "outputs": {"diameter": top},
        "residuals": {},
    }
    if point_path is not None:
        [p] = _load(tol, point_path)
        if p.n != n:
            raise ShapeError(f"point has order {p.n}, expected {n}")
        points = diametral_points(p)
        report["outputs"]["points"] = [pt.entries for pt in points]
        report["residuals"].update(_unitary_residuals("P", p))
        for i, pt in enumerate(points):
            report["residuals"][f"point{i}_distance_vs_diameter"] = abs(distance(p, pt) - top)
    return report


def cmd_random(n: int, seed: int, out: str | None) -> dict:
    if n < 1:
        raise UnsupportedOrderError("order must be at least 1")
    try:
        q = random_special_unitary(n, seed)
    except (MemoryError, ValueError) as exc:  # numpy: too many bytes, or too many elements
        raise UnsupportedOrderError(f"order {n} is too large to allocate") from exc
    report = {
        "command": "random",
        "inputs": {"n": n, "seed": seed, "out": out},
        "outputs": {},
        "residuals": _unitary_residuals("Q", q),
    }
    if out is not None:
        MatrixFile(q.entries).dump(out)
        report["outputs"]["path"] = out
    else:
        report["outputs"]["matrix"] = q.entries
    return report


def cmd_theta(path_q: str, samples: int, seed: int, tol: float | None) -> dict:
    [q] = _load(tol, path_q)
    td = theta_descriptor(q)
    m = float(td.angles.dot(td.angles))  # bit for bit m_value(td.spectral)
    outputs = {
        # The winding of Q, or of Q^* (s - zeta) when Q's is negative.
        "zeta": td.zeta if td.zeta >= 0 else td.spectral.s - td.zeta,
        "singleton": td.is_singleton,
        "oriented": td.zeta < 0,
        "m": m,
        "base_log": td.base_log.entries,
    }
    if td.beta_arg is not None:
        outputs["beta_arg"] = td.beta_arg
    if not td.is_singleton:
        outputs["nu1"] = td.nu1
        outputs["nu2"] = td.nu2
        outputs["grassmannian"] = grassmann_label(*td.grassmannian)
    residuals = _unitary_residuals("Q", q)
    base_exp = expm_skew(td.base_log)
    residuals["base_exp_roundtrip"] = frobenius_norm(base_exp.entries - q.entries)
    if samples > 0:
        if td.is_singleton:
            outputs["samples"] = []
            outputs["samples_skipped"] = "the set of minimal logarithms is a single point"
        else:
            try:
                rs = random_unitary(td.nu1 + td.nu2, seed, samples)
            except (MemoryError, ValueError) as exc:  # as in cmd_random
                raise ShapeError(f"{samples} samples are too many to allocate") from exc
            drawn = theta_sample(td, rs)
            for i, (roundtrip, norm) in enumerate(zip(drawn.residuals, drawn.norms)):
                residuals[f"sample{i}_exp_roundtrip"] = roundtrip
                residuals[f"sample{i}_norm_vs_m"] = abs(norm ** 2 - m)
            outputs["samples"] = [x.entries for x in drawn.logs]
    return {
        "command": "theta",
        "inputs": {"Q": path_q, "samples": samples, "seed": seed, "tol": q.tols.group},
        "outputs": outputs,
        "residuals": residuals,
    }


def cmd_oracle(path_q: str, tol: float | None) -> dict:
    [q] = _load(tol, path_q)
    sd = spectral_summary(q)
    closed = m_value(sd)
    brute, minimizers = brute_force_m(sd.args, sd.zeta, K=3, zeta_tol=sd.tols.zeta)
    gap = abs(closed - brute)
    # A minimizer moves |zeta| arguments one turn: down when zeta >= 0, up when zeta < 0.
    step = -1 if sd.zeta >= 0 else 1
    structure_ok = all(set(k) <= {0, step} and k.count(step) == abs(sd.zeta)
                       for k in minimizers)
    return {
        "command": "oracle",
        "inputs": {"Q": path_q, "K": 3, "tol": q.tols.group},
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

# A token that starts like a negative number (--t -1e-3) is a value.
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: usage error: {message}\n")

    def _parse_optional(self, arg_string):
        if _NEGATIVE_NUMBER.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sungeo",
                     description="Geometry of SU(n) with the Frobenius metric")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subcommand parser, for ``main``

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
    p.add_argument("--t", dest="t_list", metavar="T", type=finite_list, default=(0.0, 1.0),
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
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--out", default=None, help="write the matrix file here")

    p = command("theta", cmd_theta, "describe and sample the set of minimal logarithms")
    p.add_argument("path_q", metavar="Q"); add_tol(p)
    p.add_argument("--samples", type=nonnegative_int, default=0)
    p.add_argument("--seed", type=nonnegative_int, default=0)

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


def _parse(argv: list[str]) -> dict:
    """The parsed arguments of one request. An argv that starts with a
    subcommand is parsed by that subcommand's parser alone; an empty argv, an
    unknown first token and leftover arguments go to the full parser, whose
    usage error, help text or "unrecognized arguments" line is then its own."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:])
        if not extra:
            return vars(args)
    args = vars(parser.parse_args(argv))
    del args["command"]
    return args


def _write(stream, text: str) -> None:
    """Print ``text`` and flush it. If the reader has gone (a closed pipe), the
    stream's descriptor is pointed at os.devnull, so that the flush at exit
    writes nothing and raises nothing; the request keeps its exit code."""
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    run = args.pop("run")
    try:
        if "tol" in args and args["tol"] is None:
            args["tol"] = _env_tol()
        report = run(**args)
        try:
            text = json.dumps(report, cls=_ReportEncoder, indent=2, allow_nan=False)
        except ValueError as exc:
            raise NonFiniteResultError(f"report not written: {exc}") from exc
    except SungeoError as exc:
        payload = {"error": exc.code, "message": str(exc)}
        for key in ("residual", "tolerance"):
            value = getattr(exc, key)
            if value is not None and math.isfinite(value):
                payload[key] = value
        _write(sys.stderr, json.dumps(payload, allow_nan=False))
        return exc.exit_code
    _write(sys.stdout, text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
