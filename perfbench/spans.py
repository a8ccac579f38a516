"""In-memory span tracer for the traced run.

The tracer replaces public functions of the library, wherever a ``sungeo``
module namespace holds them, and the LAPACK-backed ``numpy.linalg``
functions with wrappers that record a span (name, parent, start, end,
raised). Spans of one request are kept in memory until the request ends;
then each span's self time (its duration minus its children's) is added to
per-name totals and the spans are dropped. Wrappers record only inside a
request, so the benchmark's own checks never show up as spans.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import defaultdict
from time import perf_counter

import numpy.linalg

# (module, attribute, span name). ``Class.method`` attributes are patched on
# the class. Names missing from the library are skipped and reported.
LIBRARY_TARGETS = (
    ("sungeo.matrixcore", "validate_special_unitary", "matrixcore.validate"),
    ("sungeo.matrixcore", "validate_skew_traceless", "matrixcore.validate"),
    ("sungeo.matrixcore", "unitary_product", "matrixcore.unitary_product"),
    ("sungeo.matrixcore", "unitary_eig", "matrixcore.unitary_eig"),
    ("sungeo.matrixcore", "expm_skew", "matrixcore.expm_skew"),
    ("sungeo.matrixcore", "random_special_unitary", "matrixcore.random"),
    ("sungeo.matrixcore", "random_unitary", "matrixcore.random"),
    ("sungeo.spectral", "spectral_summary", "spectral.spectral_summary"),
    ("sungeo.spectral", "adjoint_spectrum", "spectral.adjoint_spectrum"),
    ("sungeo.logmin", "m_value", "logmin.m_value"),
    ("sungeo.logmin", "canonical_log", "logmin.canonical_log"),
    ("sungeo.logmin", "theta_descriptor", "logmin.theta_descriptor"),
    ("sungeo.logmin", "theta_sample", "logmin.theta_sample"),
    ("sungeo.logmin", "plog_status", "logmin.plog_status"),
    ("sungeo.logmin", "brute_force_m", "logmin.brute_force_m"),
    ("sungeo.geometry", "relative_spectrum", "geometry.relative_spectrum"),
    ("sungeo.geometry", "distance", "geometry.distance"),
    ("sungeo.geometry", "log_map", "geometry.log_map"),
    ("sungeo.geometry", "geodesic_family", "geometry.geodesic_family"),
    ("sungeo.geometry", "geodesic_eval", "geometry.geodesic_eval"),
    ("sungeo.geometry", "diametral_points", "geometry.diametral_points"),
    ("sungeo.cli", "main", "cli.main"),
    ("sungeo.cli", "cmd_dist", "cli.cmd"),
    ("sungeo.cli", "cmd_log", "cli.cmd"),
    ("sungeo.cli", "cmd_geo", "cli.cmd"),
    ("sungeo.cli", "cmd_plog", "cli.cmd"),
    ("sungeo.cli", "cmd_diam", "cli.cmd"),
    ("sungeo.cli", "cmd_random", "cli.cmd"),
    ("sungeo.cli", "cmd_theta", "cli.cmd"),
    ("sungeo.cli", "cmd_oracle", "cli.cmd"),
    ("sungeo.cli", "build_parser", "cli.build_parser"),
    ("sungeo.cli", "MatrixFile.load", "cli.matrixfile_load"),
    ("sungeo.cli", "MatrixFile.loads", "cli.matrixfile_load"),
    ("sungeo.cli", "MatrixFile.dump", "cli.matrixfile_dump"),
    ("sungeo.cli", "MatrixFile.dumps", "cli.matrixfile_dump"),
)
LAPACK_TARGETS = ("eigh", "eigvalsh", "eig", "eigvals", "det", "slogdet", "qr",
                  "svd", "solve", "inv", "lstsq", "cholesky")


class Tracer:
    def __init__(self):
        self.recording = False
        self.missing: list[str] = []
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.failed = defaultdict(int)
        self.requests = 0
        self.request_s = 0.0

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, stack[-1], 0.0, 0.0, False]
            stack.append(len(tracer._spans))
            tracer._spans.append(rec)
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[3] = perf_counter()
                stack.pop()
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in every ``sungeo`` namespace that holds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "sungeo" or k.startswith("sungeo.")]
        self.missing = []
        for mod_name, attr, name in LIBRARY_TARGETS:
            home = sys.modules.get(mod_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(home, cls_name, None)
                raw = getattr(cls, "__dict__", {}).get(meth)
                if raw is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(cls, meth, self._wrap(name, raw))
                continue
            fn = getattr(home, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)
        # The CLI prints its report through json.dumps; give it a json
        # namespace whose dumps is traced.
        cli = sys.modules.get("sungeo.cli")
        if cli is not None and hasattr(cli, "json"):
            proxy = types.ModuleType("json")
            proxy.__dict__.update(vars(cli.json))
            proxy.dumps = self._wrap("cli.report_json", cli.json.dumps)
            self._patch(cli, "json", proxy)
        for attr in LAPACK_TARGETS:
            fn = getattr(numpy.linalg, attr, None)
            if fn is not None:
                self._patch(numpy.linalg, attr, self._wrap(f"lapack.{attr}", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- requests ----------------------------------------------------------

    def begin(self) -> None:
        self._spans = [["request", -1, 0.0, 0.0, False]]
        self._stack = [0]
        self.recording = True
        self._spans[0][2] = perf_counter()

    def end(self) -> float:
        """Close the request span, fold its spans into the totals and
        return the request's duration."""
        root = self._spans[0]
        root[3] = perf_counter()
        self.recording = False
        child = [0.0] * len(self._spans)
        for name, parent, t0, t1, _ in self._spans[1:]:
            child[parent] += t1 - t0
        for i, (name, _, t0, t1, failed) in enumerate(self._spans):
            if i == 0:
                continue
            self.calls[name] += 1
            self.self_s[name] += (t1 - t0) - child[i]
            self.failed[name] += failed
        self._spans = []
        duration = root[3] - root[2]
        self.requests += 1
        self.request_s += duration
        return duration

    # -- report ------------------------------------------------------------

    def _sum_self(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def layer_metrics(self) -> dict:
        """Per-request layer metrics: calls, self time in ms, failures."""
        per = 1.0 / max(self.requests, 1)
        ms = 1e3 * per
        lapack = self._sum_self("lapack.")
        return {
            "matrixcore.validate.calls": self.calls["matrixcore.validate"] * per,
            "matrixcore.validate.self_ms": self.self_s["matrixcore.validate"] * ms,
            "matrixcore.unitary_product.self_ms": self.self_s["matrixcore.unitary_product"] * ms,
            "matrixcore.unitary_eig.calls": self.calls["matrixcore.unitary_eig"] * per,
            "matrixcore.unitary_eig.self_ms": self.self_s["matrixcore.unitary_eig"] * ms,
            "matrixcore.unitary_eig.failed": self.failed["matrixcore.unitary_eig"] * per,
            "matrixcore.expm_skew.calls": self.calls["matrixcore.expm_skew"] * per,
            "matrixcore.expm_skew.self_ms": self.self_s["matrixcore.expm_skew"] * ms,
            "lapack.eigh.calls": self.calls["lapack.eigh"] * per,
            "lapack.det.calls": self.calls["lapack.det"] * per,
            "lapack.self_ms": lapack * ms,
            "lapack.share": lapack / self.request_s if self.request_s else 0.0,
            "spectral.spectral_summary.calls": self.calls["spectral.spectral_summary"] * per,
            "spectral.spectral_summary.self_ms": self.self_s["spectral.spectral_summary"] * ms,
            "spectral.adjoint_spectrum.calls": self.calls["spectral.adjoint_spectrum"] * per,
            "logmin.m_value.self_ms": self.self_s["logmin.m_value"] * ms,
            "logmin.canonical_log.self_ms": self.self_s["logmin.canonical_log"] * ms,
            "logmin.theta_sample.self_ms": self.self_s["logmin.theta_sample"] * ms,
            "logmin.brute_force_m.self_ms": self.self_s["logmin.brute_force_m"] * ms,
            "geometry.self_ms": self._sum_self("geometry.") * ms,
            "cli.build_parser.self_ms": self.self_s["cli.build_parser"] * ms,
            "cli.matrixfile_load.self_ms": self.self_s["cli.matrixfile_load"] * ms,
            "cli.matrixfile_dump.self_ms": self.self_s["cli.matrixfile_dump"] * ms,
            "cli.report_json.self_ms": self.self_s["cli.report_json"] * ms,
            "cli.self_ms": (self.self_s["cli.main"] + self.self_s["cli.cmd"]) * ms,
        }
