"""Per-request call counts of the pipeline stages.

Each request should decompose each matrix once and validate only what a
caller or a file supplies, plus the checks that guard exponentials and the
points a geodesic returns. A geodesic point is formed in the eigenbasis its
segment was built from, so it costs two checks and no ``expm_skew`` or
eigensolve; ``expm_skew`` runs only for the independent round-trip checks
of ``log`` and of ``theta``'s base logarithm. Family samples are built as
one stack and share one exponential, exp(A), so they call no ``expm_skew``
and no eigensolver, and one special-unitary check covers the stack. A logarithm is
built, and checked in su(n), only where it is read: a geodesic point needs
none. The counts are taken by wrapping the names in every ``sungeo`` module
namespace: the special-unitary gate kernel, which every group check runs,
whether of a caller's matrix or of one the library built, the su(n) gate
kernel, which every logarithm the library builds passes, one call each, the
two entry points through which the library reaches LAPACK's ``eigh`` and
``det``, and the clustering path of the spectrum, which a generic spectrum
never takes.
"""

import sys
from collections import Counter

import numpy as np
import pytest

import sungeo.logmin
import sungeo.matrixcore
import sungeo.spectral
from sungeo import (
    NotUnitaryError,
    SpecialUnitary,
    SpectralData,
    distance,
    geodesic_eval,
    geodesic_family,
    log_map,
    random_special_unitary,
    random_unitary,
    relative_spectrum,
    theta_descriptor,
    theta_sample,
    validate_special_unitary,
)
from sungeo.cli import MatrixFile, main

COUNTED = ("spectral_summary", "_special_unitary", "expm_skew", "_skew_traceless")


def _count(monkeypatch, names):
    tally = Counter()
    modules = [m for k, m in list(sys.modules.items())
               if k == "sungeo" or k.startswith("sungeo.")]
    for name in names:
        original = next(vars(m)[name] for m in (sungeo.matrixcore, sungeo.spectral,
                                                sungeo.logmin, sungeo)
                        if name in vars(m))

        def counted(*args, _name=name, _fn=original, **kwargs):
            tally[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return tally


@pytest.fixture
def counts(monkeypatch):
    return _count(monkeypatch, COUNTED)


@pytest.fixture
def pair():
    return random_special_unitary(4, seed=1), random_special_unitary(4, seed=2)


@pytest.fixture
def files(tmp_path, pair):
    paths = {}
    for name, entries in (("P", pair[0].entries), ("Q", pair[1].entries),
                          ("R", np.diag([1j] * 4))):
        paths[name] = str(tmp_path / f"{name}.json")
        MatrixFile(entries).dump(paths[name])
    return paths


# (spectral_summary, _special_unitary, expm_skew, _skew_traceless) per request
CLI_TARGETS = {
    "dist P Q": (["dist", "P", "Q"], (1, 2, 0, 0)),
    "log P Q": (["log", "P", "Q"], (1, 3, 1, 1)),
    "geo P Q": (["geo", "P", "Q", "--t", "0,0.5,1"], (1, 8, 0, 0)),
    "theta R": (["theta", "R", "--samples", "8"], (1, 3, 1, 9)),
    "diam 4 P": (["diam", "4", "--point", "P"], (1, 1, 0, 0)),
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
    (lambda p, q: distance(p, q), (1, 0, 0, 0)),
    (lambda p, q: log_map(p, q), (1, 0, 0, 1)),
    (lambda p, q: geodesic_eval(geodesic_family(p, q).canonical, 0.5), (1, 2, 0, 0)),
], ids=["distance", "log_map", "geodesic_eval"])
def test_library_call_counts(call, target, pair, counts):
    counts.clear()
    call(*pair)
    assert tuple(counts[name] for name in COUNTED) == target


def test_sampled_segment_counts(counts):
    # I -> -I in SU(2) is a family; the sample's shared exponential is one
    # check, its logarithm one more and the point itself costs two.
    fam = geodesic_family(validate_special_unitary(np.eye(2)),
                          validate_special_unitary(-np.eye(2)))
    r = random_unitary(2, seed=5)
    counts.clear()
    geodesic_eval(fam.sample(r)[0], 0.5)
    assert tuple(counts[name] for name in COUNTED) == (0, 3, 0, 1)


@pytest.mark.parametrize("count", [None, 8])
def test_family_samples_form_no_product(count, monkeypatch):
    # The descriptor carries P^*Q, so sampling forms no product, for one
    # unitary or for a stack.
    p = random_special_unitary(4, seed=8)
    fam = geodesic_family(p, validate_special_unitary(-p.entries))
    pq = validate_special_unitary(p.entries.conj().T).entries @ fam.Q.entries
    r = random_unitary(4, seed=12, count=count)
    products = []
    adjoint_times = SpecialUnitary.adjoint_times
    monkeypatch.setattr(SpecialUnitary, "adjoint_times",
                        lambda a, b: products.append(1) or adjoint_times(a, b))
    segs = fam.sample(r)
    assert products == []
    assert len(segs) == (count or 1)
    assert fam.theta.q.entries.tobytes() == pq.tobytes()


def test_cli_theta_samples_through_theta_sample(files, monkeypatch, capsys):
    # One stacked call of the public sampler, through the CLI's namespace.
    tally = _count(monkeypatch, ("theta_sample",))
    assert main(["theta", files["R"], "--samples", "8"]) == 0
    capsys.readouterr()
    assert tally["theta_sample"] == 1


def _pair_with_relative_spectrum(args, seed):
    args = np.array(args)
    n = len(args)
    u = random_unitary(n, seed=[seed, 0])
    p = random_special_unitary(n, seed=[seed, 1])
    return p, validate_special_unitary(p.entries @ (u * np.exp(1j * args)) @ u.conj().T)


# P^*Q with zeta = -1, s = 0, and with -1 eigenvalues and 0 <= zeta < s - zeta
# (zeta = 0, s = 1 and zeta = 1, s = 3): Q^*P winds more than P^*Q in each.
ADJOINT_WINDS_MORE = {
    "negative-winding": ([-2.5, -2.5, 5.0 - 2 * np.pi], 11),
    "minus-one-s1": ([-1.7, 1.7 - np.pi, np.pi], 12),
    "minus-one-s3": ([-np.pi / 2 - 0.3, -np.pi / 2 + 0.3, np.pi, np.pi, np.pi], 13),
}


# Every request reads the spectrum of P^*Q as it is: none builds a spectrum
# of its adjoint, or any spectrum but that one, whatever the winding.
@pytest.mark.parametrize("case", sorted(ADJOINT_WINDS_MORE))
@pytest.mark.parametrize("call", [
    lambda p, q: distance(p, q),
    lambda p, q: log_map(p, q),
    lambda p, q: geodesic_family(p, q),
], ids=["distance", "log_map", "geodesic_family"])
def test_adjoint_spectrum_counts(call, case, monkeypatch):
    p, q = _pair_with_relative_spectrum(*ADJOINT_WINDS_MORE[case])
    sd = relative_spectrum(p, q)
    assert sd.zeta < sd.s - sd.zeta
    built = []
    check = SpectralData.__post_init__
    monkeypatch.setattr(SpectralData, "__post_init__", lambda sd: built.append(sd) or check(sd))
    call(p, q)
    assert len(built) == 1 and np.array_equal(built[0].args, sd.args)


# The minimizing shift of a spectrum is read once by the closed form and
# once by the canonical logarithm; a family reads it once, for its
# descriptor, whose angles give its distance too, whichever of P^*Q and Q^*P
# winds more.
@pytest.mark.parametrize("case", ["haar", *sorted(ADJOINT_WINDS_MORE)])
@pytest.mark.parametrize("call, target", [
    (lambda p, q: distance(p, q), 1),
    (lambda p, q: log_map(p, q), 1),
    (lambda p, q: geodesic_family(p, q), 1),
], ids=["distance", "log_map", "geodesic_family"])
def test_canonical_angles_counts(call, target, case, pair, monkeypatch):
    p, q = pair if case == "haar" else _pair_with_relative_spectrum(*ADJOINT_WINDS_MORE[case])
    tally = _count(monkeypatch, ("_canonical_angles",))
    call(p, q)
    assert tally["_canonical_angles"] == target


LAPACK = ("_eigh", "_det")


@pytest.fixture
def lapack(monkeypatch):
    # The numpy.linalg wrappers are counted too: the library must not call them.
    tally = _count(monkeypatch, LAPACK)
    for name in ("eigh", "det"):
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            tally[f"np.linalg.{_name}"] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return tally


# (eigh, det) per request: trimming Python work must not add or drop a solve.
@pytest.mark.parametrize("call, target", [
    (lambda p, q: distance(p, q), (1, 0)),
    (lambda p, q: log_map(p, q), (1, 0)),
    (lambda p, q: geodesic_eval(geodesic_family(p, q).canonical, 0.5), (1, 2)),
    (lambda p, q: validate_special_unitary(p.entries), (0, 1)),
], ids=["distance", "log_map", "geodesic_eval", "validate_special_unitary"])
def test_library_lapack_counts(call, target, pair, lapack):
    lapack.clear()
    call(*pair)
    assert tuple(lapack[name] for name in LAPACK) == target
    assert lapack["np.linalg.eigh"] == lapack["np.linalg.det"] == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_haar_distance_is_one_solve(n, lapack):
    # The turned Hermitian part separates a conjugate pair, so a Haar SU(2)
    # spectrum needs no second, in-block solve.
    p, q = random_special_unitary(n, seed=[n, 1]), random_special_unitary(n, seed=[n, 2])
    lapack.clear()
    distance(p, q)
    assert lapack["_eigh"] == 1


@pytest.mark.parametrize("count", [1, 8])
def test_family_samples_take_no_solve_and_one_determinant(count, lapack):
    # A Gr(2;C^4) family: its members share exp(A), whose check takes the
    # one determinant; nothing is solved per member.
    td = theta_descriptor(validate_special_unitary(-np.eye(4)))
    r = random_unitary(4, seed=12, count=count)
    lapack.clear()
    theta_sample(td, r)
    assert tuple(lapack[name] for name in LAPACK) == (0, 1)
    assert lapack["np.linalg.eigh"] == lapack["np.linalg.det"] == 0


def test_cli_geo_eigh_count(files, lapack, capsys):
    # One solve for the relative spectrum; the three points need none.
    argv = ["geo", files["P"], files["Q"], "--t", "0,0.5,1"]
    lapack.clear()
    assert main(argv) == 0
    capsys.readouterr()
    assert lapack["_eigh"] == 1
    assert lapack["np.linalg.eigh"] == lapack["np.linalg.det"] == 0


@pytest.mark.parametrize("n", range(2, 9))
def test_haar_distance_takes_the_generic_path(n, monkeypatch):
    tally = _count(monkeypatch, ("_clustered",))
    for seed in range(10):
        distance(random_special_unitary(n, seed=[n, seed, 1]),
                 random_special_unitary(n, seed=[n, seed, 2]))
    assert tally["_clustered"] == 0
    # An eigenvalue -1 of P^*Q is clustered and read as -1, on the clustering path.
    p, q = _pair_with_relative_spectrum(*ADJOINT_WINDS_MORE["minus-one-s1"])
    distance(p, q)
    assert tally["_clustered"] == 1


@pytest.fixture
def errstates(monkeypatch):
    tally = Counter()
    original = np.errstate

    def counted(*args, **kwargs):
        tally["errstate"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "errstate", counted)
    return tally


def test_validating_a_unitary_matrix_enters_no_errstate(pair, errstates):
    validate_special_unitary(pair[0].entries)
    validate_special_unitary(np.eye(3))
    assert errstates["errstate"] == 0
    # Entries past the bound are checked as before, under one errstate.
    with pytest.raises(NotUnitaryError):
        validate_special_unitary(np.diag([1e200, 1.0]))
    assert errstates["errstate"] == 1
