import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sungeo import (
    DeterminantError,
    NotUnitaryError,
    ShapeError,
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


class TestUnitaryEig:
    def test_already_diagonal(self):
        q = validate_special_unitary(np.diag([1j, -1j]))
        dec = unitary_eig(q)
        assert dec.residual < 1e-14
        got = sorted(dec.eigenvalues, key=lambda z: z.imag)
        assert got[0] == pytest.approx(-1j, abs=1e-14)
        assert got[1] == pytest.approx(1j, abs=1e-14)

    def test_conjugated_degenerate_spectrum(self):
        # Build Q = U D U^* from a known eigenvalue multiset and recover it.
        u = random_unitary(3, seed=3)
        d = np.diag(np.exp(1j * np.array([np.pi / 3, np.pi / 3, -2 * np.pi / 3])))
        q = validate_special_unitary(u @ d @ u.conj().T)
        dec = unitary_eig(q)
        got = np.sort_complex(np.round(dec.eigenvalues, 9))
        want = np.sort_complex(np.round(np.diag(d), 9))
        assert np.allclose(got, want, atol=1e-9)

    def test_minus_identity(self):
        q = validate_special_unitary(-np.eye(4))
        dec = unitary_eig(q)
        assert np.allclose(dec.eigenvalues, -1.0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 5, 9, 16])
    def test_reconstruction_residual_haar(self, n):
        q = random_special_unitary(n, seed=100 + n)
        dec = unitary_eig(q)
        assert dec.residual <= 1e-9
        assert np.allclose(np.abs(dec.eigenvalues), 1.0, atol=1e-12)
        gram = dec.basis.conj().T @ dec.basis
        assert np.linalg.norm(gram - np.eye(n)) <= 1e-12

    def test_near_degenerate_hermitian_part(self):
        # Conjugate eigenvalue pairs collide in Q + Q^*; the skew part must
        # separate them.
        d = np.diag(np.exp(1j * np.array([0.7, -0.7, 0.0])))
        u = random_unitary(3, seed=8)
        q = validate_special_unitary(u @ d @ u.conj().T)
        dec = unitary_eig(q)
        assert dec.residual <= 1e-12


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


def test_unitary_product_and_adjoint():
    p = random_special_unitary(4, seed=1)
    q = random_special_unitary(4, seed=2)
    prod = unitary_product(p, q)
    assert np.allclose(prod.entries, p.entries @ q.entries)
    back = unitary_product(p.adjoint(), prod)
    assert np.linalg.norm(back.entries - q.entries) < 1e-13


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
            mats.append(validate_special_unitary(u, tol=tol))
            if trial % 2:
                worst = max(mats[-1].unitarity_residual, mats[-1].det_residual)
                assert 0.9 * tol <= worst <= tol
        p, q = mats
        rel = p.adjoint().times(q)
        products = [(rel.entries, rel.unitarity_residual, rel.det_residual)]
        products += [(pt.entries, pt.unitarity_residual, pt.det_residual)
                     for pt in diametral_points(p).points]
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
