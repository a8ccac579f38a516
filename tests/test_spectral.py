import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sungeo import (
    AdmissibleTuple,
    ZeroInputError,
    adjoint_spectrum,
    distance,
    principal_arg,
    random_special_unitary,
    random_unitary,
    spectral_summary,
    unitary_eig,
    validate_special_unitary,
)
from sungeo.spectral import _runs_of_equal

PI = math.pi


class TestPrincipalArg:
    def test_one(self):
        assert principal_arg(1.0) == 0.0

    def test_minus_one_is_plus_pi(self):
        assert principal_arg(-1.0) == PI
        assert principal_arg(complex(-1.0, -0.0)) == PI

    def test_i(self):
        assert principal_arg(1j) == pytest.approx(PI / 2, abs=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            principal_arg(0.0)

    @given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=200)
    def test_defining_property(self, z):
        a = principal_arg(z)
        assert -PI < a <= PI
        assert abs(z / abs(z) - np.exp(1j * a)) < 1e-12


class TestSpectralSummary:
    def test_identity(self):
        sd = spectral_summary(validate_special_unitary(np.eye(3)))
        assert np.array_equal(sd.args, np.zeros(3))
        assert sd.zeta == 0 and sd.s == 0
        assert sd.clusters == ((0, 1, 2),)

    def test_minus_identity_2(self):
        sd = spectral_summary(validate_special_unitary(-np.eye(2)))
        assert np.array_equal(sd.args, np.array([PI, PI]))
        assert sd.zeta == 1 and sd.s == 2

    def test_diag_pm_one(self):
        q = validate_special_unitary(np.diag([-1.0, -1.0, 1.0, 1.0]))
        sd = spectral_summary(q)
        assert np.allclose(sd.args, [0.0, 0.0, PI, PI], atol=1e-14)
        assert sd.zeta == 1 and sd.s == 2
        assert sd.clusters == ((0, 1), (2, 3))

    def test_branch_cut_cluster_is_not_split(self):
        # Eigenvalues just on either side of -1 must land in one cluster at pi.
        eps = 1e-9
        q = validate_special_unitary(np.diag(np.exp(1j * np.array([PI - eps, -PI + eps]))))
        sd = spectral_summary(q)
        assert np.array_equal(sd.args, np.array([PI, PI]))
        assert sd.s == 2 and sd.zeta == 1

    def test_basis_reconstructs_input(self):
        q = random_special_unitary(6, seed=77)
        sd = spectral_summary(q)
        recon = (sd.basis * np.exp(1j * sd.args)) @ sd.basis.conj().T
        assert np.linalg.norm(recon - q.entries) <= 1e-9

    @pytest.mark.parametrize("n", range(2, 9))
    def test_zeta_always_integer_on_haar_corpus(self, n):
        for i in range(200):
            sd = spectral_summary(random_special_unitary(n, seed=n * 1000 + i),
                                  zeta_tol=1e-6)
            assert sd.s - n // 2 <= sd.zeta <= n // 2

    def test_conjugation_invariance(self):
        q = random_special_unitary(5, seed=5)
        u = random_unitary(5, seed=6)
        qc = validate_special_unitary(u @ q.entries @ u.conj().T)
        sd, sdc = spectral_summary(q), spectral_summary(qc)
        assert np.allclose(sd.args, sdc.args, atol=1e-8)
        assert sd.zeta == sdc.zeta and sd.s == sdc.s


class TestAdjointSpectrum:
    def test_identity_fixed(self):
        sd = spectral_summary(validate_special_unitary(np.eye(4)))
        adj = adjoint_spectrum(sd)
        assert np.array_equal(adj.args, sd.args)
        assert adj.zeta == 0 and adj.s == 0

    def test_pi_cluster_stays(self):
        sd = spectral_summary(validate_special_unitary(-np.eye(2)))
        adj = adjoint_spectrum(sd)
        assert np.array_equal(adj.args, np.array([PI, PI]))
        assert adj.zeta == sd.s - sd.zeta == 1

    def test_negate_and_sort(self):
        q = AdmissibleTuple.from_args([-2 * PI / 3, PI / 3, PI / 3]).to_special_unitary()
        sd = spectral_summary(q)
        adj = adjoint_spectrum(sd)
        assert np.allclose(adj.args, [-PI / 3, -PI / 3, 2 * PI / 3], atol=1e-12)
        assert adj.zeta == 0

    @given(n=st.integers(2, 7), seed=st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_involution_and_winding_relation(self, n, seed):
        sd = spectral_summary(random_special_unitary(n, seed=seed))
        adj = adjoint_spectrum(sd)
        assert adj.zeta == sd.s - sd.zeta
        back = adjoint_spectrum(adj)
        assert np.allclose(back.args, sd.args, atol=1e-12)
        assert back.zeta == sd.zeta

    def test_matches_full_pipeline_on_adjoint_matrix(self):
        q = random_special_unitary(5, seed=91)
        adj = adjoint_spectrum(spectral_summary(q))
        direct = spectral_summary(q.adjoint())
        assert np.allclose(adj.args, direct.args, atol=1e-10)
        assert adj.zeta == direct.zeta and adj.s == direct.s


class TestAdmissibleTuple:
    def test_from_args_infers_winding(self):
        t = AdmissibleTuple.from_args([PI, PI])
        assert t.zeta == 1 and t.n == 2

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            AdmissibleTuple(alphas=(0.0, 0.5), zeta=0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AdmissibleTuple(alphas=(-PI, PI), zeta=0)

    def test_roundtrip_through_matrix(self):
        t = AdmissibleTuple.from_args([-0.9, -0.3, 0.4, 0.8])
        sd = spectral_summary(t.to_special_unitary())
        assert np.allclose(sd.args, t.alphas, atol=1e-12)
        assert sd.zeta == t.zeta


def with_spectrum(args, seed):
    """Haar-conjugated matrix with eigenvalue arguments ``args``, which sum
    to a multiple of 2 pi."""
    u = random_unitary(len(args), seed=seed)
    return validate_special_unitary((u * np.exp(1j * np.asarray(args))) @ u.conj().T)


def det_one(args):
    """``args`` and one more argument that brings their sum to 0 mod 2 pi."""
    last = -math.fsum(args)
    return [*args, math.atan2(math.sin(last), math.cos(last))]


class TestAgainstZgeev:
    """The spectral layer against LAPACK zgeev (``np.linalg.eigvals``), a
    non-Hermitian solver the library never calls, at the tolerance of the
    benchmark's answer checks (1e-6 n)."""

    STRUCTURED = [
        [0.4, 0.4, 0.4, -1.2],                          # repeated eigenvalue
        [1.0, 1.0, 1.0, -0.5, -0.5, -0.5, -0.5, -1.0],  # two repeated blocks
        [PI, PI / 2, PI / 2],                           # -1 with s = 1
        [PI, PI, 0.3, -0.3],                            # s = 2
        [PI] * 4 + [0.2, -0.2],                         # s = 4
        [PI - 1e-9, -PI + 1e-9, 0.7, -0.7],             # cluster across the cut
    ]

    @staticmethod
    def check_pair(p, q):
        n = p.n
        ref = np.linalg.eigvals(p.entries.conj().T @ q.entries)
        lib = unitary_eig(p.adjoint().times(q)).eigenvalues
        # Sort both by the argument measured from the middle of the widest
        # gap of the reference spectrum, so no cluster straddles the cut.
        ang = np.sort(np.angle(ref))
        gaps = np.diff(np.append(ang, ang[0] + 2 * PI))
        cut = ang[np.argmax(gaps)] + gaps.max() / 2

        def from_cut(v):
            return v[np.argsort(np.angle(-v * np.exp(-1j * cut)))]

        assert np.abs(from_cut(lib) - from_cut(ref)).max() <= 1e-6 * n
        # Closed-form distance from the zgeev arguments: with winding zeta,
        # the top zeta arguments move down by 2 pi (the bottom -zeta up).
        theta = ang.copy()
        zeta = round(theta.sum() / (2 * PI))
        if zeta > 0:
            theta[n - zeta:] -= 2 * PI
        elif zeta < 0:
            theta[:-zeta] += 2 * PI
        assert distance(p, q) == pytest.approx(math.sqrt(theta @ theta), abs=1e-6 * n)

    @pytest.mark.parametrize("n,pairs", [(2, 20), (3, 20), (4, 20), (5, 20), (8, 10),
                                         (32, 3), (128, 1)])
    def test_haar_pairs(self, n, pairs):
        for i in range(pairs):
            self.check_pair(random_special_unitary(n, seed=[n, i, 0]),
                            random_special_unitary(n, seed=[n, i, 1]))

    @pytest.mark.parametrize("args", STRUCTURED)
    def test_structured_spectra(self, args):
        for seed in range(3):
            p = random_special_unitary(len(args), seed=[seed, 2])
            r = with_spectrum(args, seed=[seed, 3])
            q = validate_special_unitary(p.entries @ r.entries)
            self.check_pair(p, q)


def reference_runs(args):
    """Loop form of ``_runs_of_equal``, kept as its reference."""
    clusters = []
    start = 0
    for i in range(1, len(args) + 1):
        if i == len(args) or args[i] != args[start]:
            clusters.append(tuple(range(start, i)))
            start = i
    return tuple(clusters)


def reference_summary(q, ctol):
    """Snapping and clustering of ``spectral_summary`` in the per-cluster
    loop form it replaced, on the same decomposition; kept as its reference.
    Returns (args, zeta, s, clusters, basis)."""
    dec = unitary_eig(q)
    ang = np.angle(dec.eigenvalues)
    ang[ang == -PI] = PI
    order = np.argsort(ang, kind="stable")
    ang_sorted, vals_sorted = ang[order], dec.eigenvalues[order]
    n = len(ang)
    labels = np.zeros(n, dtype=int)
    if n > 1:
        labels[1:] = np.cumsum(np.diff(ang_sorted) > ctol)
        if labels[-1] > 0 and (ang_sorted[0] + 2 * PI - ang_sorted[-1]) < ctol:
            labels[labels == labels[-1]] = 0
    snapped = np.empty(n)
    for label in np.unique(labels):
        members = labels == label
        mean = vals_sorted[members].mean()
        if abs(mean) < 1e-9:
            a = float(ang_sorted[members][0])
        else:
            a = principal_arg(complex(mean))
        if PI - abs(a) < ctol:
            a = PI
        snapped[members] = a
    final = np.argsort(snapped, kind="stable")
    args = snapped[final]
    clusters = reference_runs(args)
    s = len(clusters[-1]) if args[-1] == PI else 0
    zeta = int(round(float(args.sum()) / (2 * PI)))
    return args, zeta, s, clusters, dec.basis[:, order][:, final]


class TestAgainstLoopReference:
    """The array form of snapping and clustering gives the loop form's
    answers. Cluster means are summed in another order, and np.angle and
    math.atan2 differ by an ulp, so args may differ by at most 2 ulp of pi."""

    C = 1e-3  # cluster tolerance of the crafted cases; their gaps scale with it
    CRAFTED = {
        "wrapped across the cut": det_one([PI - 0.3 * C, -PI + 0.4 * C, 1.0]),
        "wrapped, mean more than ctol from -1": det_one(
            [PI - 0.5 * C, PI - 1.3 * C, PI - 2.1 * C, PI - 2.9 * C, -PI + 0.3 * C]),
        "within ctol of -1": det_one([PI - 0.5 * C, PI - 0.7 * C, 0.4]),
        "chain wider than ctol": det_one([0.2, 0.2 + 0.7 * C, 0.2 + 1.4 * C,
                                          0.2 + 2.1 * C, -1.0]),
        "all equal": [2 * PI / 3] * 3,
        "all equal at -1": [PI] * 4,
        "all singleton": det_one([-2.5, -1.0, 0.1, 1.2, 2.9]),
    }

    def check(self, q, ctol):
        args, zeta, s, clusters, basis = reference_summary(q, ctol)
        # Snapping a cluster to pi moves the argument sum by up to a few
        # ctol; the winding gate is not under test here.
        sd = spectral_summary(q, cluster_tol=ctol, zeta_tol=0.1)
        assert (sd.zeta, sd.s, sd.clusters) == (zeta, s, clusters)
        assert np.abs(sd.args - args).max() <= 8.9e-16
        assert np.array_equal(sd.basis, basis)

    @pytest.mark.parametrize("name", CRAFTED)
    def test_crafted(self, name):
        for seed in range(3):
            self.check(with_spectrum(self.CRAFTED[name], seed=seed), self.C)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 32])
    def test_haar(self, n):
        for seed in range(20):
            q = random_special_unitary(n, seed=[n, seed])
            self.check(q, 1e-7 * n)

    @pytest.mark.parametrize("args", [[0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 2.0],
                                      [-1.0, -1.0, 0.5, 2.0, 2.0], [0.0, 0.0, 1.0, PI]])
    def test_runs_of_equal(self, args):
        assert _runs_of_equal(np.array(args)) == reference_runs(args)
