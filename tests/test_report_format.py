"""The report writer gives the stdlib's indent-2 text, byte for byte.

``sungeo.cli`` writes reports with its own encoder: matrices stay complex
arrays and each one is written with a single format string. These tests pin
the text to ``json.dumps(..., indent=2, allow_nan=False)`` of the same report
with every matrix spelled out as nested [re, im] lists of Python floats.
"""

import json
import math
import types

import numpy as np
import pytest

import sungeo.cli
from sungeo import random_special_unitary
from sungeo.cli import MatrixFile, _ReportEncoder, main

NAN, INF = math.nan, math.inf


def as_lists(o):
    """``o`` with every array replaced by nested [re, im] lists."""
    if isinstance(o, np.ndarray):
        return [[[float(z.real), float(z.imag)] for z in row] for row in o]
    if isinstance(o, dict):
        return {k: as_lists(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [as_lists(v) for v in o]
    return o


def written(o):
    return json.dumps(o, cls=_ReportEncoder, indent=2, allow_nan=False)


def stdlib(o):
    return json.dumps(as_lists(o), indent=2, allow_nan=False)


def matrix(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


M1 = np.array([[complex(-0.0, 5e-324)]])
M8 = matrix(8, 3)

VALUES = {
    "negative-zero": -0.0,
    "subnormal": 5e-324,
    "small": 1e-05,
    "1e16": 1e16,
    "1e22": 1e22,
    "tenth": 0.1,
    "numpy-float": np.float64(0.3),
    "large-int": 12345678901234567890123456789,
    "true": True,
    "false": False,
    "null": None,
    "empty-dict": {},
    "empty-list": [],
    "nested-empties": {"a": [], "b": {}, "c": [[], {}, [[]]], "d": {"e": {}}},
    "strings": ["héllo ☃ \U0001d11e", "\x00\x01\x1f\x7f\n\t\r\"\\/"],
    "tuple": (0.0, 0.5, 1.0),
    "matrix-1x1": M1,
    "matrix-8x8": M8,
    "matrices-two-depths": {"log": M1, "points": [{"t": 0.5, "matrix": M8}],
                            "samples": [M1, M8]},
}


@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
def test_encoder_writes_the_stdlib_text(value):
    assert written(value) == stdlib(value)


def nan_in_matrix(re_first, im_second):
    m = matrix(3, 4)
    m[0, 2] = complex(1.0, re_first)      # row-major: the first offender
    m[1, 0] = complex(im_second, 0.0)
    return m


BAD = {
    "nan": NAN,
    "inf": INF,
    "-inf": -INF,
    "nan-nested": {"a": [1.0, {"b": NAN}]},
    "matrix-nan": nan_in_matrix(NAN, INF),
    "matrix-inf": nan_in_matrix(INF, NAN),
    "matrix-neg-inf": nan_in_matrix(-INF, NAN),
    "matrix-after-scalar": {"x": -INF, "m": nan_in_matrix(NAN, NAN)},
}


@pytest.mark.parametrize("value", BAD.values(), ids=BAD.keys())
def test_non_finite_raises_the_stdlib_message(value):
    with pytest.raises(ValueError) as expected:
        stdlib(value)
    with pytest.raises(ValueError) as got:
        written(value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("imag", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
def test_non_finite_matrix_gives_the_non_finite_result_line(imag, capsys, monkeypatch):
    entries = np.eye(2, dtype=complex)
    entries[1, 0] = complex(0.0, imag)
    fake = types.SimpleNamespace(entries=entries, unitarity_residual=0.0, det_residual=0.0)
    monkeypatch.setattr(sungeo.cli, "random_special_unitary", lambda n, seed: fake)
    assert main(["random", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        '{"error": "non_finite_result", "message": "report not written: '
        f'Out of range float values are not JSON compliant: {imag!r}"}}\n')


@pytest.fixture
def files(tmp_path):
    paths = {"out": str(tmp_path / "out.json")}
    for name, entries in (("I2", np.eye(2)), ("mI2", -np.eye(2)),
                          ("w3", np.exp(2j * math.pi / 3) * np.eye(3)), ("I4", np.eye(4)),
                          ("P", random_special_unitary(4, seed=1).entries),
                          ("Q", random_special_unitary(4, seed=2).entries)):
        paths[name] = str(tmp_path / f"{name}.json")
        MatrixFile(np.asarray(entries, dtype=complex)).dump(paths[name])
    return paths


COMMANDS = {
    "dist": ["dist", "P", "Q"],
    "plog": ["plog", "mI2"],
    "oracle": ["oracle", "w3"],
    "log": ["log", "P", "Q"],
    "log-out": ["log", "P", "Q", "--out", "out"],
    "geo-unique": ["geo", "P", "Q", "--t", "0,0.5,1"],
    "geo-family": ["geo", "I2", "mI2", "--t", "0,0.25,1"],
    "theta-family": ["theta", "mI2", "--samples", "3", "--seed", "5"],
    "random": ["random", "4", "--seed", "3"],
    "random-out": ["random", "4", "--seed", "3", "--out", "out"],
    "diam-odd": ["diam", "3", "--point", "w3"],
    "diam-even": ["diam", "4", "--point", "I4"],
}


@pytest.mark.parametrize("case", COMMANDS)
def test_report_is_the_indent_2_text_of_itself(case, files, capsys):
    assert main([files.get(a, a) for a in COMMANDS[case]]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("case", COMMANDS)
def test_one_traced_dumps_per_report(case, files, capsys, monkeypatch):
    # Benchmark tracing times the report by wrapping ``sungeo.cli.json.dumps``.
    calls = []
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(json))
    proxy.dumps = lambda *args, **kwargs: calls.append(args) or json.dumps(*args, **kwargs)
    monkeypatch.setattr(sungeo.cli, "json", proxy)
    assert main([files.get(a, a) for a in COMMANDS[case]]) == 0
    capsys.readouterr()
    assert len(calls) == 1
