import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sungeo import (
    DeterminantError,
    EigenFailedError,
    NotFiniteError,
    NotSkewHermitianError,
    NotUnitaryError,
    ResidualExceededError,
    ShapeError,
    SungeoError,
    Tolerances,
    TraceNotZeroError,
    expm_skew,
    frobenius_inner,
    frobenius_norm,
    random_special_unitary,
    random_unitary,
    unitary_eig,
    unitary_product,
    validate_skew_traceless,
    validate_special_unitary,
)
import sungeo.matrixcore
from sungeo.matrixcore import (
    _BOUND_SQ,
    _HERM_GAP_TOL,
    _det,
    _eigh,
    _frobenius,
    _frobenius_stack,
    _skew_traceless,
    _special_unitary,
)
from conftest import random_skew_traceless


def elementwise_inner(a, b):
    """Independent oracle: Re(sum_jk a_jk conj(b_jk)) by explicit loops."""
    total = 0.0
    for j in range(a.shape[0]):
        for k in range(a.shape[1]):
            total += (a[j, k] * np.conj(b[j, k])).real
    return total


class TestFrobenius:
    def test_identity_inner(self):
        assert frobenius_inner(np.eye(2), np.eye(2)) == 2.0

    def test_diag_i_self_inner(self):
        a = np.diag([1j, -1j])
        assert frobenius_inner(a, a) == pytest.approx(2.0, abs=1e-15)

    def test_inner_matches_elementwise_oracle_and_is_symmetric(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert frobenius_inner(a, b) == pytest.approx(elementwise_inner(a, b), abs=1e-12)
        assert abs(frobenius_inner(a, b) - frobenius_inner(b, a)) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            frobenius_inner(np.eye(2), np.eye(3))

    def test_norm_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_norm_diag_pi(self):
        a = np.diag([np.pi * 1j, -np.pi * 1j])
        assert frobenius_norm(a) == pytest.approx(math.pi * math.sqrt(2), abs=1e-14)

    def test_skew_norm_equals_trace_formula(self):
        x = random_skew_traceless(4, seed=5, scale=2.5)
        lhs = frobenius_norm(x) ** 2
        rhs = -np.trace(x @ x).real
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 4, 9, 33])
    def test_norm_is_numpys_bit_for_bit(self, n):
        haar = random_unitary(n, seed=n)
        skew = random_skew_traceless(n, seed=n)
        signed = np.full((n, n), complex(-0.0, -0.0))
        upper = np.triu_indices(n, 1)
        signed[upper] = haar[upper]
        for a in (haar, skew, signed):
            assert a.flags.c_contiguous
            assert frobenius_norm(a) == np.linalg.norm(a)

    @pytest.mark.parametrize("a, norm", [
        (np.diag([1e200, 1.0]), 1e200),
        (np.full((2, 2), -1e300j), 2e300),
        (np.array([[1e61, 1e-300], [0.0, 1e61]]).T, math.sqrt(2) * 1e61),
    ], ids=["1e200", "1e300", "transposed 1e61"])
    def test_norm_past_the_bound_is_finite_and_quiet(self, a, norm):
        # Squaring these parts overflows; warnings are errors in the suite.
        assert frobenius_norm(a) == pytest.approx(norm, rel=1e-15)

    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("k", [0, 1, 2, 8])
    def test_stack_norms_are_the_single_norms_bit_for_bit(self, k, n):
        # Entries at 1e-150 square to subnormals, 5e-324 times a Gaussian
        # rounds to a few subnormal steps or to a signed zero, and a quarter
        # of the parts are -0.0; the transpose is a stack that is not
        # contiguous.
        rng = np.random.default_rng([k, n])
        for scale in (1.0, 1e2, 1e-8, 1e-150, 5e-324):
            stack = scale * (rng.standard_normal((k, n, n))
                             + 1j * rng.standard_normal((k, n, n)))
            parts = stack.view(np.float64)
            parts[rng.random(parts.shape) < 0.25] = -0.0
            for s in (stack, stack.swapaxes(1, 2)):
                got = _frobenius_stack(s)
                assert isinstance(got, list) and len(got) == k
                assert list(map(float.hex, got)) == [_frobenius(a).hex() for a in s]

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 6))
    @settings(max_examples=40)
    def test_norm_squared_equals_inner(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        norm2 = frobenius_norm(a) ** 2
        inner = frobenius_inner(a, a)
        assert norm2 == pytest.approx(inner, rel=1e-12)


class TestValidation:
    def test_identity_accepted(self):
        q = validate_special_unitary(np.eye(3))
        assert q.unitarity_residual == 0.0
        assert q.det_residual == 0.0

    def test_det_minus_one_rejected(self):
        with pytest.raises(DeterminantError):
            validate_special_unitary(np.diag([1.0, -1.0]))

    def test_not_unitary_rejected_with_residual(self):
        err = None
        try:
            validate_special_unitary(2.0 * np.eye(2))
        except NotUnitaryError as exc:
            err = exc
        assert err is not None and err.residual > 1.0

    def test_haar_sample_validates_tightly(self):
        q = random_special_unitary(5, seed=11)
        assert q.unitarity_residual < 1e-12
        assert q.det_residual < 1e-12

    def test_skew_validation(self):
        x = validate_skew_traceless(random_skew_traceless(3, seed=1))
        assert x.n == 3
        with pytest.raises(Exception):
            validate_skew_traceless(np.eye(3))


def _eye_with(n, j, k, z):
    a = np.eye(n, dtype=complex)
    a[j, k] = z
    return a


_BOUND = 1e60  # matrixcore._BOUND

# (input, tolerances) -> (error class, message, residual) as the validator
# reported them when every input went through an errstate; the residual of a
# Gram product that overflows is inf or NaN.
REJECTED = {
    "nan real": ((_eye_with(2, 0, 0, complex(np.nan, 0.0)), None),
                 (NotFiniteError, "matrix entries must be finite", None)),
    "nan imaginary": ((_eye_with(2, 1, 0, complex(0.0, np.nan)), None),
                      (NotFiniteError, "matrix entries must be finite", None)),
    "+inf real": ((_eye_with(3, 0, 1, complex(np.inf, 0.0)), None),
                  (NotFiniteError, "matrix entries must be finite", None)),
    "-inf real": ((_eye_with(3, 2, 2, complex(-np.inf, 0.0)), None),
                  (NotFiniteError, "matrix entries must be finite", None)),
    "+inf imaginary": ((_eye_with(2, 0, 0, complex(1.0, np.inf)), None),
                       (NotFiniteError, "matrix entries must be finite", None)),
    "-inf imaginary": ((_eye_with(2, 1, 1, complex(0.0, -np.inf)), None),
                       (NotFiniteError, "matrix entries must be finite", None)),
    "at the bound": ((np.diag([_BOUND, 1 / _BOUND]), None),
                     (NotUnitaryError, "matrix is not unitary (residual 1.000e+120, "
                      "tolerance 2.000e-08)", 9.999999999999998e+119)),
    "minus the bound, imaginary": ((_eye_with(3, 0, 2, complex(0.0, -_BOUND)), None),
                                   (NotUnitaryError, "matrix is not unitary (residual "
                                    "1.000e+120, tolerance 3.000e-08)", 9.999999999999998e+119)),
    "every entry at the bound": ((np.full((4, 4), complex(_BOUND, -_BOUND)), None),
                                 (NotUnitaryError, "matrix is not unitary (residual "
                                  "3.200e+121, tolerance 4.000e-08)", 3.1999999999999995e+121)),
    "just above the bound": ((np.diag([np.nextafter(_BOUND, np.inf), 1.0]), None),
                             (NotUnitaryError, "matrix is not unitary (residual 1.000e+120, "
                              "tolerance 2.000e-08)", 1.0000000000000003e+120)),
    "1e150": ((np.diag([1e150, 1e-150]), None),
              (NotUnitaryError, "matrix is not unitary (residual inf, tolerance 2.000e-08)",
               math.inf)),
    "-1e150 imaginary": ((_eye_with(2, 1, 0, complex(0.0, -1e150)), None),
                         (NotUnitaryError, "matrix is not unitary (residual inf, "
                          "tolerance 2.000e-08)", math.inf)),
    "1e151": ((np.diag([1e151, 1.0, 1.0]), None),
              (NotUnitaryError, "matrix is not unitary (residual inf, tolerance 3.000e-08)",
               math.inf)),
    "1e300": ((np.full((2, 2), 1e300), None),
              (NotUnitaryError, "matrix is not unitary (residual nan, tolerance 2.000e-08)",
               math.nan)),
    "1e300 and 1e-300": ((np.array([[1e300, 1e-300], [-1e-300, 1e300j]]), None),
                         (NotUnitaryError, "matrix is not unitary (residual nan, "
                          "tolerance 2.000e-08)", math.nan)),
    # Inside the entry bound, but a gate this loose lets 1e10 I through to a
    # determinant of 1e400.
    "determinant beyond float range": ((1e10 * np.eye(40), Tolerances(group=1e300)),
                                       (DeterminantError, "determinant is not one (residual "
                                        "inf, tolerance 1.000e+300)", math.inf)),
    "non-square": ((np.ones((2, 3)), None),
                   (ShapeError, "expected a square matrix, got shape (2, 3)", None)),
}


# Input at the edge of the norm bound is gated with no errstate; input
# just past it, or with a NaN or an infinity, goes through _past_bound.
# A finite input fails with the error its gate kernel gives on its own
# (nothing overflows at this scale); a NaN or an infinity is not finite.
NORM_EDGE = {
    "at the edge": (np.diag([_BOUND, 0.0]), False),
    "at the edge, imaginary": (np.diag([0.0, complex(0.0, -_BOUND)]), False),
    "just past the edge": (np.diag([np.nextafter(_BOUND, np.inf), 0.0]), True),
    "parts within, norm past": (np.diag([_BOUND, _BOUND]), True),
    "nan": (np.diag([np.nan, 1.0]), True),
    "inf": (np.diag([1.0, np.inf]), True),
    "-inf imaginary": (_eye_with(2, 1, 0, complex(0.0, -np.inf)), True),
}


class TestValidatorBoundary:
    """Every input the validator rejects is rejected with the same class,
    message and residual wherever it lies against the entry bound, and
    nothing warns."""

    @pytest.mark.parametrize("name", REJECTED)
    def test_rejected(self, name):
        (a, tols), (cls, message, residual) = REJECTED[name]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(cls) as exc:
                validate_special_unitary(a, tols)
        assert caught == []
        assert type(exc.value) is cls and str(exc.value) == message
        got = exc.value.residual
        assert got == residual or (math.isnan(got) and math.isnan(residual))

    def test_accepted(self):
        # Entries of 1e-300 beside the unit ones are within the bound.
        a = np.array([[1e-300j, 1.0, 0.0], [-1.0, 1e-300, 0.0], [0.0, 0.0, 1.0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            q = validate_special_unitary(a)
        assert caught == []
        assert q.unitarity_residual < 1e-15 and q.det_residual < 1e-15

    def test_skew_validator_overflow_is_rejected_quietly(self):
        # X + X^* overflows; the residual is inf, as it is for the group gate.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NotSkewHermitianError) as exc:
                validate_skew_traceless(np.diag([1e308, -1e308]))
        assert caught == []
        assert exc.value.residual == math.inf

    @pytest.mark.parametrize("validate, kernel", [
        (validate_special_unitary, "_special_unitary"),
        (validate_skew_traceless, "_skew_traceless"),
    ], ids=["special_unitary", "skew_traceless"])
    @pytest.mark.parametrize("name", NORM_EDGE)
    def test_norm_bound_edge(self, name, validate, kernel, monkeypatch):
        a, past = NORM_EDGE[name]
        assert bool(np.vdot(a, a).real <= _BOUND_SQ) is not past
        tols = Tolerances.default(2)
        if np.isfinite(a).all():
            gate = getattr(sungeo.matrixcore, kernel)
            with pytest.raises(SungeoError) as alone:
                gate(a.copy(), *((tols, tols.group) if kernel == "_special_unitary" else (tols,)))
            expected = type(alone.value), str(alone.value)
        else:
            expected = NotFiniteError, "matrix entries must be finite"
        taken = []
        past_bound = sungeo.matrixcore._past_bound
        monkeypatch.setattr(sungeo.matrixcore, "_past_bound",
                            lambda *xs: taken.append(1) or past_bound(*xs))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SungeoError) as exc:
                validate(a, tols)
        assert caught == []
        assert len(taken) == past
        assert (type(exc.value), str(exc.value)) == expected

    def test_norm_keeps_the_per_part_bound(self):
        # Every part within +-_BOUND, the norm past it: summed as numpy does,
        # unscaled.
        a = np.full((4, 4), complex(_BOUND, -_BOUND))
        assert np.vdot(a, a).real > _BOUND_SQ
        assert frobenius_norm(a) == np.linalg.norm(a)


class TestUnitaryEig:
    def test_already_diagonal(self):
        q = validate_special_unitary(np.diag([1j, -1j]))
        vals, _, residual = unitary_eig(q)
        assert residual < 1e-14
        got = sorted(vals, key=lambda z: z.imag)
        assert got[0] == pytest.approx(-1j, abs=1e-14)
        assert got[1] == pytest.approx(1j, abs=1e-14)

    def test_conjugated_degenerate_spectrum(self):
        # Build Q = U D U^* from a known eigenvalue multiset and recover it.
        u = random_unitary(3, seed=3)
        d = np.diag(np.exp(1j * np.array([np.pi / 3, np.pi / 3, -2 * np.pi / 3])))
        q = validate_special_unitary(u @ d @ u.conj().T)
        vals = unitary_eig(q)[0]
        got = np.sort_complex(np.round(vals, 9))
        want = np.sort_complex(np.round(np.diag(d), 9))
        assert np.allclose(got, want, atol=1e-9)

    def test_minus_identity(self):
        q = validate_special_unitary(-np.eye(4))
        vals = unitary_eig(q)[0]
        assert np.allclose(vals, -1.0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 9, 16])
    def test_reconstruction_residual_haar(self, n):
        q = random_special_unitary(n, seed=100 + n)
        vals, basis, residual = unitary_eig(q)
        assert residual <= 1e-9
        assert np.allclose(np.abs(vals), 1.0, atol=1e-12)
        gram = basis.conj().T @ basis
        assert np.linalg.norm(gram - np.eye(n)) <= 1e-12

    @pytest.mark.parametrize("args, solves", [
        ((0.7, -0.7, 0.0), 1),
        ((1.7, 0.3, -2.0), 2),
    ], ids=["conjugate_pair", "turned_collision"])
    def test_near_degenerate_hermitian_part(self, args, solves, monkeypatch):
        # e^{i a} and e^{i b} collide in the turned Hermitian part
        # e^{-i}Q + e^{i}Q^* when a + b = 2 (mod 2 pi), and the turned skew
        # part must separate them; a conjugate pair does not collide there.
        calls = []

        def counted(h):
            calls.append(h.shape)
            return _eigh(h)

        monkeypatch.setattr("sungeo.matrixcore._eigh", counted)
        d = np.diag(np.exp(1j * np.array(args)))
        u = random_unitary(3, seed=8)
        q = validate_special_unitary(u @ d @ u.conj().T)
        residual = unitary_eig(q)[2]
        assert residual <= 1e-12
        assert len(calls) == solves

    @pytest.mark.parametrize("above, solves", [(False, 2), (True, 1)],
                             ids=["at_the_threshold", "just_above"])
    def test_gap_threshold_decides_the_block_solve(self, above, solves, monkeypatch):
        # A gap of the turned Hermitian part's eigenvalues equal to
        # _HERM_GAP_TOL * max(n, 2) joins its two eigenvalues in a block, which
        # takes a second, block-sized solve; a gap just above it does not.
        q = random_special_unitary(4, seed=51)
        gap = _HERM_GAP_TOL * 4
        calls = []

        def fed(h):
            calls.append(h.shape)
            w, v = _eigh(h)
            if len(calls) > 1:
                return w, v
            top = np.nextafter(gap, np.inf) if above else gap
            assert (top - 0.0 <= gap) is not above
            return np.array([-3.0, 0.0, top, 3.0]), v

        monkeypatch.setattr(sungeo.matrixcore, "_eigh", fed)
        assert unitary_eig(q)[2] <= 1e-12
        assert calls == [(4, 4), (2, 2)][:solves]

    def test_blocks_are_the_runs_of_small_gaps(self, monkeypatch):
        # Clusters of 2 at 1 - pi and of 3 at 1 are the bottom and top runs of
        # the turned Hermitian part's eigenvalues 2cos(theta - 1), -2 and 2;
        # each takes one block-sized solve, in that order, and the three
        # single eigenvalues between them take none.
        calls = []

        def counted(h):
            calls.append(h.shape)
            return _eigh(h)

        monkeypatch.setattr(sungeo.matrixcore, "_eigh", counted)
        singles = np.array([0.2, 0.5, 0.0])
        singles[2] = 2 * math.pi - 5.0 - singles[:2].sum()
        args = np.array([1 - math.pi] * 2 + [1.0] * 3 + list(singles))
        q = validate_special_unitary(_with_args(args, seed=53))
        vals, _, residual = unitary_eig(q)
        assert calls == [(8, 8), (2, 2), (3, 3)]
        assert residual <= 1e-12
        assert np.allclose(np.sort(np.angle(vals)), np.sort(np.angle(np.exp(1j * args))), atol=1e-12)

    @pytest.mark.parametrize("collapsed, error", [
        (False, ResidualExceededError),
        (True, EigenFailedError),
    ], ids=["nan_alone", "nan_and_collapsed"])
    def test_nan_eigenvalue_magnitude(self, collapsed, error, monkeypatch):
        # A NaN magnitude is not below the collapse threshold: alone, it
        # fails the residual gate as a NaN residual, raised before anything
        # divides by it, so nothing warns (warnings are errors here); beside
        # a collapsed eigenvalue the collapse is reported.
        q = random_special_unitary(3, seed=52)

        def fed(h):
            w, v = _eigh(h)
            v[:, 0] = np.nan
            if collapsed:
                v[:, 2] *= 0.1
            return w, v

        monkeypatch.setattr(sungeo.matrixcore, "_eigh", fed)
        with pytest.raises(error) as exc:
            unitary_eig(q)
        if not collapsed:
            assert math.isnan(exc.value.residual)


def _with_args(args, seed):
    """W diag(e^{i args}) W^* for a Haar unitary W."""
    w = random_unitary(len(args), seed=seed)
    return (w * np.exp(1j * np.asarray(args))) @ w.conj().T


def _reconstruction_residual(q, vals, basis):
    """||U diag(vals) U^* - Q||_F, the residual the eigen-residual stands for."""
    return np.linalg.norm((basis * vals) @ basis.conj().T - q.entries)


# Repeated eigenvalues put the turned Hermitian part e^{-i}Q + e^{i}Q^* through
# the degenerate-block path.
_DEGENERATE = {
    "minus_identity": -np.eye(4),
    "omega_identity": np.exp(2j * math.pi / 3) * np.eye(3),
    "boundary": _with_args([0.5, math.pi - 0.25, math.pi - 0.25], seed=41),
    "boundary_block": _with_args([-1.0, -1.0, 0.4, 0.8, 0.8], seed=42),
    "minus_one": _with_args([math.pi, math.pi, 0.3, -0.3], seed=43),
    "minus_one_odd": _with_args([math.pi, math.pi, math.pi, 1.2, math.pi - 1.2], seed=44),
}


class TestEigenResidual:
    """``unitary_eig`` gates ||QU - U diag(vals)||_F, read off the product QU
    that the eigenvalues come from; for unitary U it is the reconstruction
    residual ||U diag(vals) U^* - Q||_F."""

    @staticmethod
    def assert_matches_reconstruction(q):
        vals, basis, residual = unitary_eig(q)
        recon = _reconstruction_residual(q, vals, basis)
        assert abs(residual - recon) <= 4 * q.n * np.finfo(float).eps

    @pytest.mark.parametrize("n", [2, 5, 32, 128])
    def test_haar(self, n):
        for i in range(3):
            self.assert_matches_reconstruction(random_special_unitary(n, seed=[n, i]))

    @pytest.mark.parametrize("name", sorted(_DEGENERATE))
    def test_degenerate_spectra(self, name):
        self.assert_matches_reconstruction(validate_special_unitary(_DEGENERATE[name]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_noisy_inputs_are_gated_as_by_the_reconstruction(self, n):
        # Each noisy input is validated at the least tolerance that accepts it,
        # which puts its eigen-residual on either side of the eig gate.
        rng = np.random.default_rng(900 + n)
        outcomes = set()
        for _ in range(60):
            u = random_special_unitary(n, rng).entries
            e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = u + e * (10.0 ** rng.uniform(-11, -7) / np.linalg.norm(e))
            loose = validate_special_unitary(a, Tolerances(1.0))
            try:
                vals, basis, _ = unitary_eig(loose)
            except EigenFailedError:
                continue
            recon = _reconstruction_residual(loose, vals, basis)
            q = validate_special_unitary(
                a, Tolerances(1.01 * max(loose.unitarity_residual, loose.det_residual)))
            accepted = recon <= q.tols.eig
            outcomes.add(accepted)
            if not accepted:
                with pytest.raises(ResidualExceededError,
                                   match="eigendecomposition reconstruction failed"):
                    unitary_eig(q)
                continue
            assert unitary_eig(q)[1].tobytes() == basis.tobytes()
            self.assert_matches_reconstruction(q)
        # No SU(2) spectrum but +-I collides in the turned Hermitian part, so
        # every noisy SU(2) draw is accepted.
        assert outcomes == ({True} if n == 2 else {True, False})


class TestExpmSkew:
    def test_zero_maps_to_identity(self):
        x = validate_skew_traceless(np.zeros((3, 3)))
        assert np.allclose(expm_skew(x).entries, np.eye(3))

    def test_diag_pi(self):
        x = validate_skew_traceless(np.diag([np.pi * 1j, -np.pi * 1j]))
        assert np.allclose(expm_skew(x).entries, -np.eye(2), atol=1e-14)

    def test_conjugation_equivariance(self):
        x = np.diag([0.8j, -0.8j])
        u = random_unitary(2, seed=17)
        lhs = expm_skew(validate_skew_traceless(u @ x @ u.conj().T)).entries
        rhs = u @ expm_skew(validate_skew_traceless(x)).entries @ u.conj().T
        assert np.linalg.norm(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("n,scale", [(2, 10.0), (7, 10.0), (16, 10.0), (4, 0.1)])
    def test_result_in_group(self, n, scale):
        x = validate_skew_traceless(random_skew_traceless(n, seed=n, scale=scale))
        e = expm_skew(x)
        assert np.linalg.norm(e.entries @ e.entries.conj().T - np.eye(n)) <= 1e-9
        assert abs(np.linalg.det(e.entries) - 1.0) <= 1e-9

    def test_equivariance_random_large(self):
        n = 6
        x = random_skew_traceless(n, seed=23, scale=3.0)
        u = random_unitary(n, seed=29)
        lhs = expm_skew(validate_skew_traceless(u @ x @ u.conj().T)).entries
        rhs = u @ expm_skew(validate_skew_traceless(x)).entries @ u.conj().T
        assert np.linalg.norm(lhs - rhs) <= 1e-9


class TestRandomSpecialUnitary:
    def test_order_one_is_trivial(self):
        q = random_special_unitary(1, seed=42)
        assert q.entries[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_construction_contract(self):
        q = random_special_unitary(4, seed=0)
        assert q.unitarity_residual < 1e-12
        assert q.det_residual < 1e-12

    def test_seeds_give_distinct_matrices(self):
        a = random_special_unitary(3, seed=1)
        b = random_special_unitary(3, seed=2)
        assert np.linalg.norm(a.entries - b.entries) > 1e-6

    def test_deterministic_per_seed(self):
        a = random_special_unitary(3, seed=7)
        b = random_special_unitary(3, seed=7)
        assert np.array_equal(a.entries, b.entries)


class TestRandomUnitaryStack:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("count", [0, 1, 2, 5])
    def test_stack_is_successive_draws(self, n, count):
        one_by_one, stacked = np.random.default_rng(n), np.random.default_rng(n)
        singles = [random_unitary(n, one_by_one) for _ in range(count)]
        stack = random_unitary(n, stacked, count)
        assert stack.shape == (count, n, n)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(singles, stack))
        assert one_by_one.bit_generator.state == stacked.bit_generator.state

    def test_stack_from_a_seed_starts_with_the_single_draw(self):
        assert random_unitary(4, 17, 3)[0].tobytes() == random_unitary(4, 17).tobytes()

    def test_negative_count_rejected(self):
        with pytest.raises(ShapeError):
            random_unitary(3, 0, -1)

    def test_zero_order_rejected(self):
        with pytest.raises(ShapeError, match="order must be at least 1"):
            random_unitary(0, 0)


def test_unitary_product_and_adjoint():
    p = random_special_unitary(4, seed=1)
    q = random_special_unitary(4, seed=2)
    prod = unitary_product(p, q)
    assert np.allclose(prod.entries, p.entries @ q.entries)
    back = unitary_product(validate_special_unitary(p.entries.conj().T), prod)
    assert np.linalg.norm(back.entries - q.entries) < 1e-13
    with pytest.raises(ShapeError, match="order mismatch: 4 vs 3"):
        unitary_product(p, random_special_unitary(3, seed=3))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_adjoint_times_is_the_adjoint_times_bit_for_bit(n):
    for seed in range(4):
        p = random_special_unitary(n, seed=[n, seed, 1])
        q = random_special_unitary(n, seed=[n, seed, 2])
        got = p.adjoint_times(q)
        assert got.entries.tobytes() == (p.entries.conj().T @ q.entries).tobytes()
        assert not got.entries.flags.writeable
        # The stated bound r(P) + r(Q) + r(P) r(Q), carried as the residuals ...
        pu, pd = p.unitarity_residual, p.det_residual
        assert (got.unitarity_residual, got.det_residual) == (
            pu + q.unitarity_residual * (1.0 + pu), pd + q.det_residual * (1.0 + pd))
        # ... bounds the product's own residuals up to rounding.
        ref = got.entries
        assert np.linalg.norm(ref @ ref.conj().T - np.eye(n)) <= got.unitarity_residual + 1e-12
        assert abs(np.linalg.det(ref) - 1.0) <= got.det_residual + 1e-12
        assert got.tols is p.tols
    with pytest.raises(ShapeError, match="order mismatch: 2 vs 3"):
        random_special_unitary(2, seed=1).adjoint_times(random_special_unitary(3, seed=1))


def _near_the_gate(u, tol, rng):
    """u plus complex noise scaled so its larger validation residual is
    0.95 tol: accepted, but only just."""
    n = u.shape[0]
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def worst(step):
        a = u + step * e
        return max(np.linalg.norm(a @ a.conj().T - np.eye(n)),
                   abs(np.linalg.det(a) - 1.0))

    return u + (0.95 * tol * tol / worst(tol)) * e


@pytest.mark.parametrize("n", range(2, 9))
def test_unchecked_products_stay_within_the_gate(n):
    # P^*Q (relative spectra, family samples) and the diametral partners
    # c P are built from accepted matrices without a re-check. Their true
    # residuals stay below the 10x group tolerance a re-check would apply,
    # and below the bound the product carries.
    from sungeo import diametral_points

    tol = 1e-8 * n
    rng = np.random.default_rng(700 + n)
    for trial in range(12):
        mats = []
        for _ in range(2):
            u = random_special_unitary(n, rng).entries
            if trial % 2:
                u = _near_the_gate(u, tol, rng)
            mats.append(validate_special_unitary(u, Tolerances(tol)))
            if trial % 2:
                worst = max(mats[-1].unitarity_residual, mats[-1].det_residual)
                assert 0.9 * tol <= worst <= tol
        p, q = mats
        rel = p.adjoint_times(q)
        products = [(rel.entries, rel.unitarity_residual, rel.det_residual)]
        products += [(pt.entries, pt.unitarity_residual, pt.det_residual)
                     for pt in diametral_points(p)]
        for entries, carried_u, carried_d in products:
            u_res = np.linalg.norm(entries @ entries.conj().T - np.eye(n))
            d_res = abs(np.linalg.det(entries) - 1.0)
            assert u_res <= 10 * tol and d_res <= 10 * tol
            assert u_res <= carried_u + 1e-12 and d_res <= carried_d + 1e-12


def test_tolerances_scale_from_one_base():
    from sungeo import Tolerances

    for n in range(1, 1001):
        tols = Tolerances.default(n)
        assert tols.group == 1e-8 * n and tols.alg == tols.group
        assert tols.zeta == 1e-6
        assert tols.eig == tols.cluster == 10.0 * tols.group
        # 10 * (1e-8 n) and the old 1e-7 n round differently: at most 2 ulp.
        assert abs(tols.eig - 1e-7 * n) <= 2 * math.ulp(1e-7 * n)
    custom = Tolerances(3e-7)
    assert (custom.alg, custom.eig, custom.cluster) == (3e-7, 3e-6, 3e-6)


class TestStackGates:
    """Neither gate kernel has a stack form: over the slices of a noisy stack
    each records numpy.linalg's residuals bit for bit and rejects the bad
    slice, so a stack gated member by member fails as its member alone."""

    @pytest.mark.parametrize("bad", [None, "unitarity", "determinant"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 9])
    def test_special_unitary_stack(self, n, bad):
        # The special-unitary kernel has no stack form (a sampled family
        # shares one exponential): over the slices of a noisy stack it
        # records numpy.linalg's residuals bit for bit and rejects the bad one.
        rng = np.random.default_rng(n)
        tols = Tolerances.default(n)
        stack = np.array([random_special_unitary(n, seed=[n, i]).entries for i in range(6)])
        stack += 10.0 ** rng.uniform(-17, -12, (6, 1, 1)) * rng.standard_normal((6, n, n))
        if bad == "unitarity":
            stack[3] *= 1.01
        elif bad == "determinant":
            stack[3] *= np.exp(0.1j / n)
        for i, a in enumerate(stack):
            gram = float(np.linalg.norm(a @ a.conj().T - np.eye(n)))
            det = float(abs(np.linalg.det(a) - 1.0))
            if i == 3 and bad is not None:
                error = NotUnitaryError if bad == "unitarity" else DeterminantError
                with pytest.raises(error) as raised:
                    _special_unitary(a.copy(), tols, tols.group)
                assert raised.value.residual == (gram if bad == "unitarity" else det)
                continue
            got = _special_unitary(a.copy(), tols, tols.group)
            assert (got.unitarity_residual, got.det_residual) == (gram, det)
            assert got.tols is tols and not got.entries.flags.writeable

    @pytest.mark.parametrize("bad", [None, "skew", "trace"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 9])
    def test_skew_traceless_stack(self, n, bad):
        # The sampler gates its members through this kernel one by one. At a
        # gate below every residual each slice reports ||a + a^*||_F; at the
        # order's gate only the bad slice fails, with the residual it breaks.
        rng = np.random.default_rng(n)
        tols, tight = Tolerances.default(n), Tolerances(1e-300)
        stack = np.array([random_skew_traceless(n, rng, scale=3.0) for _ in range(6)])
        stack += 10.0 ** rng.uniform(-17, -12, (6, 1, 1)) * rng.standard_normal((6, n, n))
        if bad == "skew":
            stack[3] += 1e-3 * np.eye(n)
        elif bad == "trace":
            stack[3] += 1e-3j * np.eye(n)
        for i, a in enumerate(stack):
            skew = float(np.linalg.norm(a + a.conj().T))
            trace = float(abs(np.trace(a)))
            with pytest.raises(NotSkewHermitianError) as raised:
                _skew_traceless(a.copy(), tight)
            assert raised.value.residual == skew
            if i == 3 and bad is not None:
                error = NotSkewHermitianError if bad == "skew" else TraceNotZeroError
                with pytest.raises(error) as raised:
                    _skew_traceless(a.copy(), tols)
                assert raised.value.residual == (skew if bad == "skew" else trace)
                continue
            got = _skew_traceless(a.copy(), tols)
            assert got.entries.tobytes() == a.tobytes()
            assert got.tols is tols and not got.entries.flags.writeable


class TestFreshArraysAreFrozen:
    """The validators copy the caller's array once, at the boundary; every
    array on a value built here is read-only, so no later copy is needed."""

    @pytest.mark.parametrize("validate, make", [
        (validate_special_unitary, lambda: random_special_unitary(4, seed=3).entries.copy()),
        (validate_skew_traceless, lambda: random_skew_traceless(4, seed=3)),
    ], ids=["special_unitary", "skew_traceless"])
    def test_validators_copy_the_callers_array(self, validate, make):
        a = make()
        before = a.copy()
        value = validate(a)
        assert a.flags.writeable and not value.entries.flags.writeable
        assert not np.shares_memory(value.entries, a)
        a[0, 0] += 1.0
        assert np.array_equal(value.entries, before)

    def test_derived_values_are_read_only(self):
        p = random_special_unitary(4, seed=1)
        q = random_special_unitary(4, seed=2)
        x = validate_skew_traceless(random_skew_traceless(4, seed=4))
        vals, basis, _ = unitary_eig(p.adjoint_times(q))
        arrays = {
            "adjoint_times": p.adjoint_times(q).entries,
            "eigenvalues": vals,
            "eigenbasis": basis,
            "expm_skew": expm_skew(x).entries,
            "unitary_product": unitary_product(p, q).entries,
        }
        assert [k for k, arr in arrays.items() if arr.flags.writeable] == []


class TestLapackEntryPoints:
    """``_eigh`` and ``_det`` call the gufuncs behind numpy.linalg's ``eigh``
    and ``det`` without the wrappers, and fail as the wrapper did."""

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4, 4)])
    def test_non_finite_hermitian_input_raises_eigen_failed(self, shape):
        h = np.full(shape, np.nan, dtype=complex)
        with pytest.raises(np.linalg.LinAlgError) as ref:
            np.linalg.eigh(h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigenFailedError) as exc:
                _eigh(h)
        assert str(exc.value) == f"hermitian eigensolver failed: {ref.value}"
        assert str(exc.value) == "hermitian eigensolver failed: Eigenvalues did not converge"

    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_same_bits_as_numpy_linalg(self, n):
        a = random_unitary(n, seed=40 + n)
        h = a + a.conj().T
        w, v = _eigh(h)
        ref_w, ref_v = np.linalg.eigh(h)
        assert np.array_equal(w, ref_w) and np.array_equal(v, ref_v)
        assert _det(a) == np.linalg.det(a)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 33])
    def test_library_built_matrices_carry_the_validators_residuals(self, n):
        # unitary_product and expm_skew gate the matrix they build in place;
        # the residuals they record are bit for bit the boundary validator's.
        for seed in range(3):
            p = random_special_unitary(n, seed=2 * seed)
            q = random_special_unitary(n, seed=2 * seed + 1)
            x = validate_skew_traceless(random_skew_traceless(n, seed=seed, scale=2.0))
            for built in (unitary_product(p, q), expm_skew(x)):
                ref = validate_special_unitary(built.entries)
                assert built.unitarity_residual == ref.unitarity_residual
                assert built.det_residual == ref.det_residual
