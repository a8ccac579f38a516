"""Per-request call counts of the public pipeline stages.

Each request should decompose each matrix once and validate only what a
caller or a file supplies, plus the checks that guard exponentials and the
points a geodesic returns. The counts are taken by wrapping the public
names in every ``sungeo`` module namespace, the way a tracer sees them.
"""

import sys
from collections import Counter

import numpy as np
import pytest

import sungeo
from sungeo import (
    distance,
    geodesic_eval,
    geodesic_family,
    log_map,
    random_special_unitary,
)
from sungeo.cli import MatrixFile, main

COUNTED = ("spectral_summary", "validate_special_unitary", "expm_skew")


@pytest.fixture
def counts(monkeypatch):
    tally = Counter()
    modules = [m for k, m in list(sys.modules.items())
               if k == "sungeo" or k.startswith("sungeo.")]
    for name in COUNTED:
        original = getattr(sungeo, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            tally[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return tally


@pytest.fixture
def pair():
    return random_special_unitary(4, seed=1), random_special_unitary(4, seed=2)


@pytest.fixture
def files(tmp_path, pair):
    paths = {}
    for name, entries in (("P", pair[0].entries), ("Q", pair[1].entries),
                          ("R", np.diag([1j] * 4))):
        paths[name] = str(tmp_path / f"{name}.json")
        MatrixFile.from_entries(entries).dump(paths[name])
    return paths


# (spectral_summary, validate_special_unitary, expm_skew) per request
CLI_TARGETS = {
    "dist P Q": (["dist", "P", "Q"], (1, 2, 0)),
    "log P Q": (["log", "P", "Q"], (1, 3, 1)),
    "geo P Q": (["geo", "P", "Q", "--t", "0,0.5,1"], (1, 8, 3)),
    "theta R": (["theta", "R", "--samples", "8"], (1, 10, 9)),
    "diam 4 P": (["diam", "4", "--point", "P"], (1, 1, 0)),
}


@pytest.mark.parametrize("case", sorted(CLI_TARGETS))
def test_cli_request_counts(case, files, counts, capsys):
    argv, target = CLI_TARGETS[case]
    argv = [files.get(a, a) for a in argv]
    counts.clear()
    assert main(argv) == 0
    capsys.readouterr()
    assert tuple(counts[name] for name in COUNTED) == target


@pytest.mark.parametrize("call, target", [
    (lambda p, q: distance(p, q), (1, 0, 0)),
    (lambda p, q: log_map(p, q), (1, 0, 0)),
    (lambda p, q: geodesic_eval(geodesic_family(p, q).canonical, 0.5), (1, 2, 1)),
], ids=["distance", "log_map", "geodesic_eval"])
def test_library_call_counts(call, target, pair, counts):
    counts.clear()
    call(*pair)
    assert tuple(counts[name] for name in COUNTED) == target
