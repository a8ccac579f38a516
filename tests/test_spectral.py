import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sungeo import (
    AdmissibleTuple,
    ShapeError,
    Tolerances,
    canonical_log,
    distance,
    expm_skew,
    geodesic_eval,
    geodesic_family,
    log_map,
    random_special_unitary,
    random_unitary,
    relative_spectrum,
    spectral_summary,
    unitary_eig,
    validate_special_unitary,
)

PI = math.pi


class TestSpectralSummary:
    def test_identity(self):
        sd = spectral_summary(validate_special_unitary(np.eye(3)))
        assert np.array_equal(sd.args, np.zeros(3))
        assert sd.zeta == 0 and sd.s == 0
        assert sd.sizes == (3,)

    def test_minus_identity_2(self):
        sd = spectral_summary(validate_special_unitary(-np.eye(2)))
        assert np.array_equal(sd.args, np.array([PI, PI]))
        assert sd.zeta == 1 and sd.s == 2

    def test_diag_pm_one(self):
        q = validate_special_unitary(np.diag([-1.0, -1.0, 1.0, 1.0]))
        sd = spectral_summary(q)
        assert np.allclose(sd.args, [0.0, 0.0, PI, PI], atol=1e-14)
        assert sd.zeta == 1 and sd.s == 2
        assert sd.sizes == (2, 2)

    def test_branch_cut_cluster_is_not_split(self):
        # Eigenvalues just on either side of -1 must land in one cluster,
        # read next to pi: the one at -pi + eps is lifted to pi + eps.
        eps = 1e-9
        q = validate_special_unitary(np.diag(np.exp(1j * np.array([PI - eps, -PI + eps]))))
        sd = spectral_summary(q)
        assert np.abs(sd.args - PI).max() <= 2e-9
        assert sd.s == 2 and sd.zeta == 1 and sd.sizes == (2,)

    def test_basis_reconstructs_input(self):
        q = random_special_unitary(6, seed=77)
        sd = spectral_summary(q)
        recon = (sd.basis * np.exp(1j * sd.args)) @ sd.basis.conj().T
        assert np.linalg.norm(recon - q.entries) <= 1e-9

    @pytest.mark.parametrize("n", range(2, 9))
    def test_zeta_always_integer_on_haar_corpus(self, n):
        for i in range(200):
            sd = spectral_summary(random_special_unitary(n, seed=n * 1000 + i))
            assert sd.s - n // 2 <= sd.zeta <= n // 2

    def test_conjugation_invariance(self):
        q = random_special_unitary(5, seed=5)
        u = random_unitary(5, seed=6)
        qc = validate_special_unitary(u @ q.entries @ u.conj().T)
        sd, sdc = spectral_summary(q), spectral_summary(qc)
        assert np.allclose(sd.args, sdc.args, atol=1e-8)
        assert sd.zeta == sdc.zeta and sd.s == sdc.s


def adjoint(q):
    """Q^* as a matrix in its own right, at Q's tolerances."""
    return validate_special_unitary(q.entries.conj().T, q.tols)


class TestAdjointSpectrum:
    """The spectrum of Q^*, decomposed from Q^* itself, mirrors that of Q:
    the arguments off -1 are negated, those at -1 stay next to pi, and the
    winding is s - zeta."""

    def test_identity_fixed(self):
        q = validate_special_unitary(np.eye(4))
        sd, adj = spectral_summary(q), spectral_summary(adjoint(q))
        assert np.array_equal(adj.args, sd.args)
        assert adj.zeta == 0 and adj.s == 0

    def test_pi_cluster_stays(self):
        q = validate_special_unitary(-np.eye(2))
        sd, adj = spectral_summary(q), spectral_summary(adjoint(q))
        assert np.array_equal(adj.args, np.array([PI, PI]))
        assert adj.zeta == sd.s - sd.zeta == 1

    def test_negate_and_sort(self):
        q = AdmissibleTuple.from_args([-2 * PI / 3, PI / 3, PI / 3]).to_special_unitary()
        adj = spectral_summary(adjoint(q))
        assert np.allclose(adj.args, [-PI / 3, -PI / 3, 2 * PI / 3], atol=1e-12)
        assert adj.zeta == 0

    @given(n=st.integers(2, 7), seed=st.integers(0, 10**6))
    @settings(max_examples=50)
    def test_involution_and_winding_relation(self, n, seed):
        q = random_special_unitary(n, seed=seed)
        sd, adj = spectral_summary(q), spectral_summary(adjoint(q))
        assert (adj.zeta, adj.s) == (sd.s - sd.zeta, sd.s)
        k = n - sd.s
        assert np.allclose(np.sort(-adj.args[:k]), sd.args[:k], atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_flip_negates_sign(self, n):
        # The unique minimal logarithm of Q^* is that of Q negated.
        q = random_special_unitary(n, seed=n)
        x = canonical_log(spectral_summary(q)).entries
        x_adj = canonical_log(spectral_summary(adjoint(q))).entries
        assert np.linalg.norm(x + x_adj) <= 1e-12

    def test_fields_by_name(self):
        # SpectralData is built positionally: read each field by name on the
        # spectra of Q and Q^*, whose zeta and size order tell them apart.
        y = (1.5 - PI) / 2
        q = validate_special_unitary(np.diag(np.exp(1j * np.array([-1.5, y, y, PI, PI, PI]))))
        sd = spectral_summary(q)
        assert np.allclose(sd.args, [-1.5, y, y, PI, PI, PI], atol=1e-12)
        assert (sd.zeta, sd.s, sd.sizes) == (1, 3, (1, 2, 3))
        assert sd.basis.shape == (6, 6) and sd.tols is q.tols
        adj = spectral_summary(adjoint(q))
        assert np.allclose(adj.args, [-y, -y, 1.5, PI, PI, PI], atol=1e-12)
        assert (adj.zeta, adj.s, adj.sizes) == (2, 3, (2, 1, 3))
        # The eigenvector of the simple eigenvalue moves from first to third.
        assert abs(abs(np.vdot(adj.basis[:, 2], sd.basis[:, 0])) - 1) <= 1e-12
        assert adj.tols is sd.tols

    def test_matches_full_pipeline_on_adjoint_matrix(self):
        # Q^*P is (P^*Q)^*: the pair read in the other order has the
        # adjoint's spectrum.
        p, q = random_special_unitary(5, seed=90), random_special_unitary(5, seed=91)
        back = relative_spectrum(q, p)
        direct = spectral_summary(adjoint(p.adjoint_times(q)))
        assert np.allclose(back.args, direct.args, atol=1e-10)
        assert back.zeta == direct.zeta and back.s == direct.s


@pytest.mark.parametrize("args", [[0.3, -0.3, 1.1, -1.1], [PI, PI, 0.4, -0.4]],
                         ids=["generic", "minus_one_pair"])
def test_spectral_values_are_read_only(args):
    p = random_special_unitary(4, seed=8)
    q = validate_special_unitary(p.entries @ with_spectrum(args, seed=9).entries)
    sd = spectral_summary(p.adjoint_times(q))
    fam = geodesic_family(p, q)
    arrays = {
        "args": sd.args, "basis": sd.basis,
        "canonical angles": fam.theta.angles,
        "log_map": log_map(p, q).entries,
        "canonical velocity": fam.canonical.X.entries,
    }
    assert [k for k, arr in arrays.items() if arr.flags.writeable] == []


class TestSpectralDataChecks:
    """A spectrum is checked as it is built: ``dataclasses.replace`` on a real
    one with one field made inconsistent raises its construction error."""

    @pytest.mark.parametrize("change, error, message", [
        (lambda sd: {"basis": np.eye(sd.n - 1)}, ShapeError,
         "basis order does not match argument count"),
        (lambda sd: {"args": sd.args[::-1].copy()}, ValueError,
         "arguments must be sorted ascending"),
        (lambda sd: {"args": sd.args + np.r_[np.zeros(sd.n - 1), 2 * PI]}, ValueError,
         "arguments must lie within one turn"),
        (lambda sd: {"zeta": sd.n // 2 + 1}, ValueError,
         "winding integer outside its admissible range"),
    ], ids=["basis-order", "sort-order", "span", "zeta"])
    def test_inconsistent_field_is_rejected(self, change, error, message):
        sd = spectral_summary(random_special_unitary(4, seed=71))
        dataclasses.replace(sd)  # unchanged, it passes
        with pytest.raises(error, match=message):
            dataclasses.replace(sd, **change(sd))


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

    @pytest.mark.parametrize("alphas, zeta, error, message", [
        ((), 0, ShapeError, "tuple must be nonempty"),
        ((0.5, -0.5), 0, ValueError, "arguments must be sorted ascending"),
        ((0.0, 0.0), 2, ValueError, "winding integer outside its admissible range"),
    ], ids=["empty", "unsorted", "winding-out-of-range"])
    def test_rejects_malformed(self, alphas, zeta, error, message):
        with pytest.raises(error, match=message):
            AdmissibleTuple(alphas=alphas, zeta=zeta)

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
        lib = unitary_eig(p.adjoint_times(q))[0]
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
    """Contiguous runs of exactly equal entries in a sorted sequence."""
    clusters = []
    start = 0
    for i in range(1, len(args) + 1):
        if i == len(args) or args[i] != args[start]:
            clusters.append(tuple(range(start, i)))
            start = i
    return tuple(clusters)


def reference_summary(q, ctol, solve=None):
    """Clustering of the spectrum in a per-cluster loop form, on the
    decomposition ``solve`` gives (by default ``unitary_eig``): each
    cluster's members snapped to the phase of their circular mean, or to pi
    within ``ctol`` of -1, and the clusters read off as runs of equal
    snapped phases. Returns (snapped, zeta, s, clusters, basis, raw), with
    ``raw`` the unsnapped arguments in the same order."""
    vals, basis, _ = (solve or unitary_eig)(q)
    ang = np.angle(vals)
    ang[ang == -PI] = PI
    order = np.argsort(ang, kind="stable")
    ang_sorted, vals_sorted = ang[order], vals[order]
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
            a = math.atan2(mean.imag, mean.real)
            if a == -PI:
                a = PI
        if PI - abs(a) < ctol:
            a = PI
        snapped[members] = a
    final = np.argsort(snapped, kind="stable")
    args = snapped[final]
    clusters = reference_runs(args)
    s = len(clusters[-1]) if args[-1] == PI else 0
    zeta = int(round(float(args.sum()) / (2 * PI)))
    return args, zeta, s, clusters, basis[:, order][:, final], ang_sorted[final]


class TestAgainstLoopReference:
    """``spectral_summary`` decides zeta, s and the partition as the loop
    form of snapping does, while its arguments are the raw ones, each lifted
    by whole turns to the turn of its cluster's snapped phase."""

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
        # Singletons on either side of -1, each within ctol of it but not of
        # each other: both are read as -1, which lifts the first one a turn.
        "singletons snapped across the cut": det_one([PI - 0.6 * C, -PI + 0.6 * C,
                                                      1.0, -2.5]),
        "singletons and one pair": det_one([0.3, 0.3 + 0.4 * C, -1.5, 2.0]),
        # The edges of the generic spectrum, up to the solver's rounding:
        # ends ctol from -1 or just inside that, a gap of ctol, and a wrap gap
        # lo + 2 pi - hi of ctol.
        "singleton ends ctol from -1": [-PI + C, -0.5, 0.5, PI - C],
        "singleton ends just inside ctol of -1": [-PI + 0.99 * C, -0.5, 0.5, PI - 0.99 * C],
        "gap of ctol": det_one([0.2, 0.2 + C, -1.0]),
        "wrap gap of ctol": [-PI + C / 2, -0.3, 0.3, PI - C / 2],
    }

    # The same edges hit exactly: the solved eigenvalues are replaced by unit
    # numbers whose np.arctan2 is exactly each argument (or by the complex
    # value given). E = 10 * 2^-13 is the cluster tolerance of Tolerances(2^-13)
    # exactly, and pi - E, pi - E/2 and 0.25 + E are exact in floating point.
    E = 10 * 2.0**-13
    EXACT = {
        "singleton ends exactly ctol from -1": [-PI + E, -0.5, 0.5, PI - E],
        "singleton ends an ulp inside ctol of -1": [-PI + E - 2.0**-51, -0.5, 0.5,
                                                    PI - E + 2.0**-51],
        "gap of exactly ctol": [-0.5 - E, 0.25, 0.25 + E],
        "wrap gap of exactly ctol": [-PI + E / 2, -0.3, 0.3, PI - E / 2],
        # arctan2 gives -pi, which the principal argument moves to +pi.
        "-1 with imaginary part -0.0": [PI / 2, PI / 2, complex(-1.0, -0.0)],
        "1 with imaginary part -0.0": [complex(1.0, -0.0), -1.0, 1.0],
    }

    def check(self, q, ctol):
        snapped, zeta, s, clusters, basis, raw = reference_summary(q, ctol)
        # The cluster and reconstruction tolerances are both 10x the base: ctol.
        q = validate_special_unitary(q.entries, Tolerances(group=ctol / 10))
        sd = spectral_summary(q)
        assert (sd.zeta, sd.s, sd.sizes) == (zeta, s, tuple(map(len, clusters)))
        lifted = raw + 2 * PI * np.round((snapped - raw) / (2 * PI))
        for c in clusters:
            assert np.array_equal(sd.args[list(c)], np.sort(lifted[list(c)]))
            # Columns in a cluster may come in another order: a wrapped
            # cluster lists its members below pi first.
            assert sorted(col.tobytes() for col in sd.basis[:, c].T) == \
                sorted(col.tobytes() for col in basis[:, c].T)

    @pytest.mark.parametrize("name", CRAFTED)
    def test_crafted(self, name):
        for seed in range(3):
            self.check(with_spectrum(self.CRAFTED[name], seed=seed), self.C)

    def test_exact_one_with_negative_zero_imaginary_part(self, monkeypatch):
        # A real rotation has the eigenvalue 1; the solved eigenvalue nearest
        # it is set to exactly 1 with imaginary part -0.0, as a solve could
        # round it. A singleton's argument is then +0.0, the phase of its
        # cluster sum 0.0 + z.
        solve = unitary_eig

        def signed_zero(q):
            vals, basis, residual = solve(q)
            vals = vals.copy()
            vals[np.argmin(np.abs(vals - 1))] = complex(1.0, -0.0)
            return vals, basis, residual

        monkeypatch.setattr("sungeo.spectral.unitary_eig", signed_zero)
        monkeypatch.setitem(globals(), "unitary_eig", signed_zero)
        c, s = math.cos(1.0), math.sin(1.0)
        rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
        o = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
        q = validate_special_unitary(o @ rot @ o.T)
        vals = signed_zero(q)[0]
        assert np.count_nonzero((vals == 1) & np.signbit(vals.imag)) == 1
        self.check(q, self.C)
        sd = spectral_summary(q)
        assert np.count_nonzero(sd.args == 0.0) == 1
        assert not np.signbit(sd.args[sd.args == 0.0]).any()

    @staticmethod
    def unit(a):
        """A unit complex number whose np.arctan2 is exactly ``a``."""
        t = a
        for _ in range(8):
            z = complex(math.cos(t), math.sin(t))
            got = float(np.arctan2(z.imag, z.real))
            if got == a:
                return z
            t += a - got
        raise AssertionError(f"no unit number has the argument {a!r}")

    @pytest.mark.parametrize("name", EXACT)
    def test_exact(self, name, monkeypatch):
        values = np.array([z if isinstance(z, complex) else self.unit(z)
                           for z in self.EXACT[name]])
        solve = unitary_eig

        def pinned(q):
            vals, basis, residual = solve(q)
            # Each solved eigenvalue becomes the nearest pinned value.
            near = np.abs(vals[:, None] - values[None, :]).argmin(axis=1)
            return values[near], basis, residual

        monkeypatch.setattr("sungeo.spectral.unitary_eig", pinned)
        monkeypatch.setitem(globals(), "unitary_eig", pinned)
        for seed in range(3):
            q = with_spectrum(np.angle(values), seed=seed)
            assert sorted(pinned(q)[0].tolist(), key=repr) == sorted(values.tolist(), key=repr)
            self.check(q, self.E)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 32])
    def test_haar(self, n):
        for seed in range(20):
            q = random_special_unitary(n, seed=[n, seed])
            self.check(q, 1e-7 * n)


def near_minus_one(n, eps, seed):
    """Q = U diag(e^{ia}) U^* with Haar U, exactly special unitary, whose
    arguments a are pi - eps, n - 2 values in (-2.6, 2.6) and pi / 2 + eps;
    and the distance from I to Q that these arguments give."""
    rng = np.random.default_rng(seed)
    rest = rng.uniform(-2.0, 2.0, n - 2)
    rest += (PI / 2 - rest.sum()) / max(n - 2, 1)
    args = np.array([PI - eps, *rest, PI / 2 + eps])
    lifted = np.sort(args)
    zeta = round(lifted.sum() / (2 * PI))
    lifted[n - zeta:] -= 2 * PI
    return with_spectrum(args, seed=seed), math.sqrt(lifted @ lifted)


class TestRawArguments:
    """Continuous answers are read off the solver's arguments, so an
    eigenvalue that the cluster tolerance reads as -1 moves no answer: the
    distance, the logarithm and the geodesic are those of the exact input."""

    @pytest.mark.parametrize("n, eps", [(3, 2e-7), (4, 1e-7), (8, 5e-7), (11, 1.01e-6),
                                        (16, 1.5e-6), (64, 5e-6), (128, 1e-5), (256, 2e-5)])
    def test_eigenvalue_inside_cluster_tolerance_of_minus_one(self, n, eps):
        q, d = near_minus_one(n, eps, seed=n)
        assert eps < q.tols.cluster
        p = validate_special_unitary(np.eye(n))
        assert relative_spectrum(p, q).s == 1
        assert distance(p, q) == pytest.approx(d, rel=1e-12)
        x = log_map(p, q)
        assert np.linalg.norm(x.entries) == pytest.approx(d, rel=1e-12)
        assert np.linalg.norm(expm_skew(x).entries - q.entries) <= 1e-12 * n
        fam = geodesic_family(p, q)
        assert fam.distance == pytest.approx(d, rel=1e-12)
        assert np.linalg.norm(geodesic_eval(fam.canonical, 1.0).entries - q.entries) <= 1e-12 * n

    @pytest.mark.parametrize("tol", [0.03, 0.1])
    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_loose_tolerance_gives_the_default_distance(self, n, tol):
        # At tol 0.1 the cluster tolerance is 1 rad: clusters merge distinct
        # eigenvalues, and chains can span more than pi.
        tols = Tolerances.scaled(tol, n)
        for i in range(100):
            p, q = (random_special_unitary(n, seed=seed) for seed in (2 * i, 2 * i + 1))
            loose = [validate_special_unitary(m.entries, tols) for m in (p, q)]
            assert distance(*loose) == pytest.approx(distance(p, q), rel=1e-12)
            fam = geodesic_family(*loose)
            assert fam.canonical.length == pytest.approx(fam.distance, rel=1e-9)


def mp_solve(q):
    """Eigenvalues of Q from mpmath at 50 digits, rounded to complex128; the
    basis is a placeholder."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        vals = mpmath.eig(mpmath.matrix(q.entries.tolist()), left=False, right=False)
    return np.array([complex(v) for v in vals]), np.eye(q.n), 0.0


class TestAgainstMpmath:
    """zeta, s and the partition against the loop form of clustering run on
    eigenvalues that mpmath computes at 50 digits: a solve that shares no
    float64 rounding with ``unitary_eig``."""

    SPECTRA = {
        "pair at -1": [PI, PI, 0.4, -0.4],
        "cluster across the cut": [PI - 1e-9, -PI + 1e-9, 0.7, -0.7],
        "near -1 inside ctol": det_one([PI - 2e-7, 1.0, -2.0, 0.5]),
        "repeated blocks": [1.0, 1.0, 1.0, -0.5, -0.5, -0.5, -0.5, -1.0],
        "-1 four times and a pair": [PI] * 4 + [0.2, -0.2, 0.2, -0.2],
        "sixteen with clusters": det_one([PI - 1e-8, -PI + 1e-8, PI, 2.0, 2.0, 2.0 + 1e-9,
                                          -1.0, -1.0, 0.3, 0.3, 0.3, -2.5, 1.5, 1.5, -0.1]),
    }

    @pytest.mark.parametrize("name", SPECTRA)
    def test_zeta_s_and_partition(self, name):
        args = self.SPECTRA[name]
        q = with_spectrum(args, seed=len(args))
        _, zeta, s, clusters, _, _ = reference_summary(q, q.tols.cluster, mp_solve)
        sd = spectral_summary(q)
        assert (sd.zeta, sd.s, sd.sizes) == (zeta, s, tuple(map(len, clusters)))
