"""Tolerances are chosen once, when a matrix is validated, and travel with
it: every value derived from a validated matrix carries its ``tols``, and
only the validators take a tolerance."""

import inspect
import math

import numpy as np
import pytest

import sungeo
from sungeo import (
    NotUnitaryError,
    Tolerances,
    diametral_points,
    distance,
    expm_skew,
    frobenius_norm,
    geodesic_eval,
    geodesic_family,
    log_map,
    random_special_unitary,
    random_unitary,
    relative_spectrum,
    spectral_summary,
    theta_descriptor,
    unitary_product,
    validate_skew_traceless,
    validate_special_unitary,
)

PI = math.pi
LOOSE = Tolerances(1e-4, zeta=0.1)
NOISE = 1e-7


def spaced_args(n, rng, margin):
    """Arguments summing to a multiple of 2 pi, each at least ``margin`` from
    the others and from pi."""
    while True:
        head = rng.uniform(-PI, PI, n - 1)
        args = np.sort(np.append(head, (PI - head.sum()) % (2 * PI) - PI))
        if (args[0] + PI >= margin and PI - args[-1] >= margin
                and np.diff(args).min() >= margin):
            return args


def with_spectrum(args, rng):
    w = random_unitary(len(args), rng)
    return (w * np.exp(1j * args)) @ w.conj().T


def noisy(a, rng):
    e = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
    return a + e * (NOISE / np.linalg.norm(e))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_matrices_accepted_at_loose_tolerances_pass_every_stage(n):
    # Noise 1e-7 passes validation at 1e-4 but not the default gates after
    # it. The relative spectrum P^*Q and the spectrum of Q keep 10 cluster
    # tolerances from -1 and between eigenvalues, so no eigenvalues cluster.
    rng = np.random.default_rng(900 + n)
    margin = 10 * LOOSE.cluster
    for _ in range(10):
        rel = with_spectrum(spaced_args(n, rng, margin), rng)
        q_exact = with_spectrum(spaced_args(n, rng, margin), rng)
        p_exact = q_exact @ rel.conj().T
        p = validate_special_unitary(noisy(p_exact, rng), LOOSE)
        q = validate_special_unitary(noisy(q_exact, rng), LOOSE)
        d = distance(p, q)
        x = log_map(p, q)
        fam = geodesic_family(p, q)
        end = geodesic_eval(fam.canonical, 1.0)
        td = theta_descriptor(q)
        carried = (relative_spectrum(p, q), x, fam.canonical.X,
                   geodesic_eval(fam.canonical, 0.5), end, td.base_log, td.spectral)
        assert all(value.tols is LOOSE for value in carried)
        # The distance stays within the order of the noise; the matrices
        # within the reconstruction gate they passed.
        exact = distance(validate_special_unitary(p_exact), validate_special_unitary(q_exact))
        assert abs(d - exact) <= 10 * NOISE
        assert abs(frobenius_norm(x.entries) - d) <= 1e-12 * n
        assert np.linalg.norm(end.entries - q.entries) <= LOOSE.eig
        assert np.linalg.norm(expm_skew(td.base_log).entries - q.entries) <= LOOSE.eig


@pytest.mark.parametrize("eps", [1e-11, 1e-9])
def test_noisy_su2_pairs_pass_every_stage(eps):
    # Haar pairs with complex noise of Frobenius size eps on Q, accepted at the
    # default tolerances. No SU(2) spectrum but +-I collides in the turned
    # Hermitian part that unitary_eig solves, so no stage may fail, and the
    # distance stays within the order of the noise.
    rng = np.random.default_rng(42)
    for _ in range(300):
        p = random_special_unitary(2, rng)
        q_exact = random_special_unitary(2, rng)
        e = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q = validate_special_unitary(q_exact.entries + e * (eps / np.linalg.norm(e)))
        d = distance(p, q)
        log_map(p, q)
        geodesic_eval(geodesic_family(p, q).canonical, 0.5)
        assert abs(d - distance(p, q_exact)) <= 10 * eps


def test_derived_values_carry_their_source_tolerances():
    a, b = Tolerances(3e-7), Tolerances(5e-7, zeta=1e-5)
    p = validate_special_unitary(np.eye(2), a)
    q = validate_special_unitary(-np.eye(2), b)
    assert p.adjoint_times(q).tols is a and q.adjoint_times(p).tols is b
    assert unitary_product(p, q).tols is a and unitary_product(q, p).tols is b
    sd = spectral_summary(q)
    assert sd.tols is b and theta_descriptor(q).base_log.tols is b
    x = validate_skew_traceless(np.diag([1j, -1j]), b)
    assert expm_skew(x).tols is b
    odd = validate_special_unitary(random_special_unitary(3, seed=2).entries, a)
    assert all(pt.tols is a for pt in diametral_points(odd))
    assert all(pt.tols is a for pt in diametral_points(p))
    fam = geodesic_family(p, q)
    assert not fam.unique
    [seg] = fam.sample(np.array([[0, 1], [1, 0]]))
    assert seg.X.tols is a and geodesic_eval(seg, 0.5).tols is a
    assert geodesic_eval(fam.canonical, 0.25).tols is a
    assert validate_special_unitary(np.eye(3)).tols == Tolerances.default(3)
    assert validate_skew_traceless(np.zeros((3, 3))).tols == Tolerances.default(3)


def test_unitary_product_checks_at_ten_times_the_left_factor():
    # Q = U diag(e^d, e^-d, 1, 1) has determinant one and unitarity residual
    # r; so has P Q for an exact P. Q's own, looser tolerances play no part.
    n, delta = 4, 1e-6
    u = random_special_unitary(n, seed=5).entries
    q = validate_special_unitary(u * np.exp([delta, -delta, 0.0, 0.0]), Tolerances(1e-3))
    r = q.unitarity_residual
    exact = random_special_unitary(n, seed=6).entries
    inside = Tolerances(r / 9)
    pq = unitary_product(validate_special_unitary(exact, inside), q)
    assert pq.tols is inside
    assert pq.unitarity_residual == pytest.approx(r, rel=1e-6)
    outside = Tolerances(r / 11)
    with pytest.raises(NotUnitaryError) as exc:
        unitary_product(validate_special_unitary(exact, outside), q)
    assert exc.value.tolerance == 10 * outside.group


KNOBS = {"tol", "tols", "alg_tolerance", "zeta_tol"}
# brute_force_m is the oracle: it takes the winding tolerance of the spectrum
# it checks, as README names it.
BOUNDARY = {"validate_special_unitary", "validate_skew_traceless", "brute_force_m"}


def _exported_callables():
    """Top-level functions of the package and public methods of its classes."""
    for name in dir(sungeo):
        obj = getattr(sungeo, name)
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn


def test_only_the_boundary_takes_a_tolerance():
    takers = {name for name, fn in _exported_callables()
              if KNOBS & set(inspect.signature(fn).parameters)}
    assert takers == BOUNDARY


def test_scaled_tolerances_scale_the_winding_tolerance_too():
    for n in (1, 3, 8, 256):
        default = Tolerances.default(n)
        assert Tolerances.scaled(default.group, n) == default
        assert Tolerances.scaled(default.group / 100, n) == Tolerances(default.group / 100)
        loose = Tolerances.scaled(100 * default.group, n)
        assert loose.group == 100 * default.group
        assert loose.zeta == pytest.approx(100 * default.zeta, rel=1e-15)
        assert Tolerances.scaled(1.0, n).zeta == 0.1


@pytest.mark.parametrize("field", ["group", "zeta"])
@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf, -math.inf],
                         ids=["negative", "zero", "nan", "inf", "-inf"])
def test_tolerances_must_be_finite_and_positive(field, bad):
    # No gate can use such a bound: a negative one is outside the validator's
    # log1p domain, and a NaN one would reject even the exact identity.
    with pytest.raises(ValueError, match="finite and positive"):
        Tolerances(**{"group": 1e-8, field: bad})


@pytest.mark.parametrize("tol", [5e-324, 1e-320, 1e-8, 1.0, 1e308, 1.7976931348623157e308])
def test_every_cli_tolerance_builds(tol):
    # --tol takes any finite positive float; the winding bound stays in
    # [ZETA_TOL, 0.1] when the base's factor over the default underflows or
    # overflows.
    for n in (1, 2, 8, 256):
        t = Tolerances.scaled(tol, n)
        assert t.group == tol and 1e-6 <= t.zeta <= 0.1
