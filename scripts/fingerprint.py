"""Fingerprint the library's and the CLI's outputs on a seeded corpus.

Each record is a key and the sha256 of its value: floats enter as
``float.hex`` (so a hash moves with any bit), matrices as the hex of their
float view, integers, flags and strings as their text, and CLI output as its
bytes. Run it on two checkouts and compare the two files to see exactly which
outputs a change moves:

    PYTHONPATH=src python scripts/fingerprint.py > new.json
    PYTHONPATH=../parent/src python scripts/fingerprint.py > old.json
    PYTHONPATH=src python scripts/fingerprint.py --compare old.json new.json

The corpus:

- Haar pairs at n = 1..33, 64, 128 and 256, and Haar pairs at n = 3..8
  whose relative winding is negative;
- the lattice holes e^{2 pi i a / n} I, a = 1..n - 1, n = 2..8 (the deep
  holes e^{+-2 pi i (n // 2) / n} I among them), conjugated by a Haar
  unitary;
- spectra with the eigenvalue -1 s times, at every winding that keeps the
  other arguments off the cut: zeta < 0, 0 <= zeta < s - zeta and
  zeta >= s - zeta;
- a repeated eigenvalue at the bottom of the spectrum with winding -1, so
  the boundary of the minimizing shift splits it there;
- each of these as one matrix Q and as a pair (P, P Q); every family is
  sampled by stacks of 0, 1 and 8 unitaries, as a descriptor and as geodesic
  segments;
- every subcommand, with ``--out`` where it has one, its error exits and
  ``--tol 0.03``.

The CLI runs in process, in a scratch directory, on relative file names, so
reports do not depend on where the script runs. A CLI report is recorded
field by field (``outputs.<name>``, ``residuals.<name>``, ``inputs``), with
its exit code, its stderr bytes, the bytes of every file it writes and its
``layout``: the report text with every number replaced by its kind, which
pins the format apart from the values. ``--small`` runs orders 1..4 and a
few structured cases only.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from sungeo import (
    SungeoError,
    Tolerances,
    distance,
    geodesic_eval,
    geodesic_family,
    log_map,
    m_value,
    plog_status,
    random_special_unitary,
    random_unitary,
    relative_spectrum,
    spectral_summary,
    theta_descriptor,
    theta_sample,
    validate_special_unitary,
)
from sungeo.cli import MatrixFile, main as cli_main

TWO_PI = 2.0 * math.pi
TS = (0.0, 0.5, 1.0, -0.25)     # library geodesic parameters
STACKS = (0, 1, 8)              # sampling stack sizes
LOOSE_TOL = "0.03"


# ---------------------------------------------------------------------------
# hashing
# ---------------------------------------------------------------------------

def canon(v) -> str:
    """Text of a value in which every float is its ``float.hex``."""
    if isinstance(v, (bool, int, str)) or v is None:
        return repr(v)
    if isinstance(v, float):
        return float.hex(v)
    if isinstance(v, bytes):
        return "b" + v.hex()
    if isinstance(v, np.ndarray):
        flat = np.ascontiguousarray(v, dtype=np.complex128).view(np.float64).ravel()
        return f"a{v.shape}:" + ",".join(map(float.hex, flat.tolist()))
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(map(canon, v)) + "]"
    if isinstance(v, dict):
        return "{" + ",".join(f"{k!r}:{canon(x)}" for k, x in v.items()) + "}"
    raise TypeError(f"cannot fingerprint {type(v).__name__}")


def failure(exc: SungeoError) -> list:
    return ["error", type(exc).__name__, str(exc)]


class Records(dict):
    def add(self, key: str, value) -> None:
        if key in self:
            raise KeyError(f"duplicate key {key}")
        self[key] = hashlib.sha256(canon(value).encode()).hexdigest()

    def call(self, key: str, fn, *args) -> None:
        """Record ``fn(*args)``, or the error it raises."""
        try:
            value = fn(*args)
        except SungeoError as exc:
            value = failure(exc)
        self.add(key, value)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def conjugated(args, seed) -> np.ndarray:
    """U diag(e^{i args}) U^* for a Haar U drawn from ``seed``."""
    u = random_unitary(len(args), seed)
    return (u * np.exp(1j * np.asarray(args, dtype=float))) @ u.conj().T


def minus_one_spectra(orders):
    """(name, args): s arguments at pi, the rest spread about the mean that
    the winding zeta asks for, at every (n, s, zeta) that keeps that mean
    0.3 off the cut."""
    rng = np.random.default_rng(5)
    for n in orders:
        for s in range(1, n):
            for zeta in range(s - n // 2, n // 2 + 1):
                mean = (TWO_PI * zeta - s * math.pi) / (n - s)
                if abs(mean) >= math.pi - 0.3:
                    continue
                e = rng.uniform(-1, 1, n - s) * (math.pi - abs(mean)) / 3
                kind = ("negative" if zeta < 0 else "below_half" if zeta < s - zeta
                        else "above_half")
                yield f"minus1/n{n}/s{s}/z{zeta}/{kind}", [*(mean + e - e.mean()), *[math.pi] * s]


def bottom_spectra(orders):
    """(name, args) with winding -1 whose bottom cluster the boundary splits:
    the negation of a cluster of k equal arguments c at the top."""
    for n in orders:
        k, c = (2, 2.6) if n < 5 else (3, 2.2)
        spread = np.linspace(-1.0, 1.0, n - k)
        rest = spread - spread.mean() + (TWO_PI - k * c) / (n - k)
        yield f"bottom/n{n}", [-a for a in [c] * k + list(rest)]


def corpus(small: bool):
    """(name, P, Q) raw pairs and (name, Q) raw single matrices."""
    haar_orders = range(1, 5) if small else [*range(1, 34), 64, 128, 256]
    struct_orders = range(2, 5) if small else range(2, 9)
    pairs, singles = [], []
    for n in haar_orders:
        p = random_special_unitary(n, seed=[n, 0, 1]).entries
        q = random_special_unitary(n, seed=[n, 0, 2]).entries
        pairs.append((f"haar/n{n}", p, q))
        if n <= 33:
            singles.append((f"haar/n{n}", q))
    for n in range(3, 5 if small else 9):
        found = 0
        for i in range(1, 400):
            p = random_special_unitary(n, seed=[n, i, 1])
            q = random_special_unitary(n, seed=[n, i, 2])
            if relative_spectrum(p, q).zeta < 0:
                pairs.append((f"haar_negative/n{n}/i{i}", p.entries, q.entries))
                singles.append((f"haar_negative/n{n}/i{i}", p.entries.conj().T @ q.entries))
                found += 1
                if found == 2:
                    break
    structured = [(f"hole/n{n}/a{a}", [TWO_PI * a / n] * n)
                  for n in struct_orders for a in range(1, n)]
    structured += list(minus_one_spectra(range(3, 5) if small else range(3, 9)))
    structured += list(bottom_spectra(range(3, 5) if small else range(3, 9)))
    for k, (name, args) in enumerate(structured):
        n = len(args)
        q = conjugated(args, [k, 1])
        p = random_special_unitary(n, seed=[k, 2]).entries
        singles.append((name, q))
        pairs.append((name, p, p @ q))
    return pairs, singles


# ---------------------------------------------------------------------------
# library records
# ---------------------------------------------------------------------------

def stack(block: int, k: int, seed) -> np.ndarray:
    if k == 0:
        return np.zeros((0, block, block), dtype=complex)
    if k == 1:
        return random_unitary(block, seed)
    return random_unitary(block, seed, k)


def segment_record(seg):
    return [seg.X.entries, seg.length,
            *(geodesic_eval(seg, t).entries for t in TS)]


def sample_record(td, r):
    drawn = theta_sample(td, r)
    return [[x.entries for x in drawn.logs], drawn.residuals, drawn.bases, drawn.angles,
            drawn.norms]


def library_pair(rec: Records, name: str, p_raw, q_raw, tols=None) -> None:
    key = f"lib/{name}"
    try:
        p, q = (validate_special_unitary(a, tols) for a in (p_raw, q_raw))
        sd, fam = relative_spectrum(p, q), geodesic_family(p, q)
    except SungeoError as exc:
        rec.add(f"{key}/error", failure(exc))
        return
    rec.add(f"{key}/spectrum", [sd.args, sd.zeta, sd.s, list(sd.sizes)])
    rec.call(f"{key}/distance", distance, p, q)
    rec.call(f"{key}/log_map", lambda: log_map(p, q).entries)
    rec.add(f"{key}/geo.unique", fam.unique)
    rec.add(f"{key}/geo.distance", fam.distance)
    rec.call(f"{key}/geo.points", lambda: [geodesic_eval(fam.canonical, t).entries for t in TS])
    rec.call(f"{key}/geo.log", lambda: [fam.canonical.X.entries, fam.canonical.length])
    if not fam.unique:
        block = fam.theta.nu1 + fam.theta.nu2
        for k in STACKS:
            rec.call(f"{key}/geo.sample{k}",
                     lambda: [segment_record(s) for s in fam.sample(stack(block, k, [k, 3]))])


def library_single(rec: Records, name: str, q_raw) -> None:
    key = f"lib/{name}"
    try:
        q = validate_special_unitary(q_raw)
        status = plog_status(spectral_summary(q))
        td = theta_descriptor(q)
    except SungeoError as exc:
        rec.add(f"{key}/error", failure(exc))
        return
    rec.add(f"{key}/plog", [status.nonempty, status.zeta, status.s, status.is_singleton,
                            status.label])
    rec.add(f"{key}/theta.shape", [td.is_singleton, td.nu1, td.nu2])
    rec.add(f"{key}/theta.m", m_value(td.spectral))
    rec.call(f"{key}/theta.base_log", lambda: td.base_log.entries)
    if not td.is_singleton:
        block = td.nu1 + td.nu2
        for k in STACKS:
            rec.call(f"{key}/theta.sample{k}", sample_record, td, stack(block, k, [k, 4]))


# ---------------------------------------------------------------------------
# CLI records
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"-?\d+(\.\d+)?([eE][-+]?\d+)?")


def layout(text: str) -> str:
    """Report text with each number replaced by I (an integer) or F."""
    return _NUMBER.sub(lambda m: "F" if m.group(1) or m.group(2) else "I", text)


def run_cli(rec: Records, name: str, argv: list, outputs=()) -> None:
    """Run one request in process; record exit code, stderr, the report field
    by field, its layout and each file in ``outputs``."""
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    key = f"cli/{name}/{' '.join(argv)}"
    rec.add(f"{key}/exit", code)
    rec.add(f"{key}/stderr", err.getvalue().encode())
    text = out.getvalue()
    if text:
        rec.add(f"{key}/layout", layout(text))
        report = json.loads(text)
        rec.add(f"{key}/inputs", report["inputs"])
        for section in ("outputs", "residuals"):
            for field, value in report[section].items():
                rec.add(f"{key}/{section}.{field}", value)
    for path in outputs:
        data = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
        rec.add(f"{key}/file:{path}", data)


def cli_pair(rec: Records, name: str, p_raw, q_raw, tol=()) -> None:
    MatrixFile(p_raw).dump("p.json")
    MatrixFile(q_raw).dump("q.json")
    run_cli(rec, name, ["dist", "p.json", "q.json", *tol])
    run_cli(rec, name, ["log", "p.json", "q.json", "--out", "x.json", *tol], ["x.json"])
    run_cli(rec, name, ["geo", "p.json", "q.json", "--t", "0,0.5,1", *tol])
    run_cli(rec, name, ["geo", "q.json", "p.json", "--t", "0.5", *tol])


def cli_single(rec: Records, name: str, q_raw, tol=()) -> None:
    MatrixFile(q_raw).dump("q.json")
    n = len(q_raw)
    run_cli(rec, name, ["plog", "q.json", *tol])
    for k in ("0", "1", "8"):
        run_cli(rec, name, ["theta", "q.json", "--samples", k, "--seed", "3", *tol])
    if n <= 10:
        run_cli(rec, name, ["oracle", "q.json", *tol])
    if n >= 2:
        run_cli(rec, name, ["diam", str(n), "--point", "q.json", *tol])


def cli_misc(rec: Records) -> None:
    """Subcommands without a corpus matrix and the error exits."""
    for n in (1, 2, 3, 8):
        run_cli(rec, "misc", ["diam", str(n)])
        run_cli(rec, "misc", ["random", str(n), "--seed", "4"])
        run_cli(rec, "misc", ["random", str(n), "--seed", "5", "--out", "r.json"], ["r.json"])
    MatrixFile(random_special_unitary(3, seed=1).entries).dump("p3.json")
    MatrixFile(random_special_unitary(4, seed=1).entries).dump("p4.json")
    MatrixFile(np.eye(3) * 1.5).dump("big3.json")
    MatrixFile(random_special_unitary(10, seed=1).entries).dump("p10.json")
    with open("bad.json", "w") as fh:
        fh.write('{"n": 2, "matrix": [[[1, 0], [0, 0]], [[0, 0], [true, 0]]]}')
    for argv in (["dist", "missing.json", "p3.json"],
                 ["dist", "p3.json", "p4.json"],
                 ["dist", "big3.json", "p3.json"],
                 ["dist", "bad.json", "bad.json"],
                 ["nosuch"],
                 ["dist", "p3.json", "p3.json", "extra"],
                 ["dist", "p3.json", "p3.json", "--tol", "-1"],
                 ["geo", "p3.json", "p3.json", "--t", ","],
                 ["geo", "p3.json", "p3.json", "--t", "1e308"],
                 ["random", "0"],
                 ["diam", "1"],
                 ["diam", "3", "--point", "p4.json"],
                 ["theta", "p3.json", "--samples", "-1"],
                 ["oracle", "p10.json"],
                 ["log", "p3.json", "p3.json", "--out", "nodir/x.json"]):
        run_cli(rec, "error", argv)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def fingerprint(small: bool) -> dict:
    rec = Records()
    pairs, singles = corpus(small)
    for name, p, q in pairs:
        library_pair(rec, f"pair/{name}", p, q)
    for name, q in singles:
        library_single(rec, f"single/{name}", q)
    loose = [(name, p, q) for name, p, q in pairs
             if name.startswith(("haar/n8", "haar/n3", "hole/n4/", "minus1/n4/s2"))]
    for name, p, q in loose:
        library_pair(rec, f"pair_loose/{name}", p, q, Tolerances.scaled(0.03, len(p)))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name, p, q in pairs:
                cli_pair(rec, f"pair/{name}", p, q)
            for name, q in singles:
                cli_single(rec, f"single/{name}", q)
            for name, p, q in loose:
                cli_pair(rec, f"pair_loose/{name}", p, q, ("--tol", LOOSE_TOL))
                cli_single(rec, f"single_loose/{name}", p.conj().T @ q, ("--tol", LOOSE_TOL))
            cli_misc(rec)
        finally:
            os.chdir(cwd)
    return dict(rec)


def compare(path_a: str, path_b: str) -> int:
    """Print each key whose hash differs, then those in one file only;
    exit 1 if any."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    lines = [f"differs {k}" for k in a if k in b and a[k] != b[k]]
    lines += [f"only in {path_a}: {k}" for k in a if k not in b]
    lines += [f"only in {path_b}: {k}" for k in b if k not in a]
    print("\n".join(lines) if lines else f"all {len(a)} keys agree")
    return 1 if lines else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--small", action="store_true",
                        help="orders 1..4 and a few structured cases only")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the keys whose hashes differ between two runs")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    json.dump(fingerprint(args.small), sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
