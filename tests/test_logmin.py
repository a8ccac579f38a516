import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sungeo.logmin
from sungeo import (
    DeterminantError,
    InfeasibleError,
    NotFiniteError,
    NotSkewHermitianError,
    NotUnitaryError,
    ResidualExceededError,
    ShapeError,
    SingletonThetaError,
    SungeoError,
    Tolerances,
    TraceNotZeroError,
    brute_force_m,
    canonical_log,
    expm_skew,
    frobenius_norm,
    geodesic_family,
    grassmann_label,
    m_value,
    plog_status,
    random_special_unitary,
    random_unitary,
    spectral_summary,
    theta_descriptor,
    theta_sample,
    validate_skew_traceless,
    validate_special_unitary,
)
from sungeo.logmin import _canonical_angles, _log_in_basis

from conftest import diag_su

PI = math.pi
TWO_PI = 2 * math.pi


def with_winding(args) -> tuple[tuple[float, ...], int]:
    """The sorted arguments and their winding, round(sum / 2 pi)."""
    args = tuple(sorted(map(float, args)))
    return args, round(math.fsum(args) / TWO_PI)


def random_args_with_winding(n: int, zeta: int, rng) -> list[float]:
    """Random argument tuple in (-pi, pi] with the prescribed winding.

    Writes args as -pi + 2*pi*y with y in (0, 1] summing to zeta + n/2 and
    draws the y one by one inside their feasible ranges, so the sum
    constraint holds by construction for every reachable winding.
    """
    floor = 1e-6
    remaining = zeta + n / 2.0
    ys = []
    for left in range(n - 1, -1, -1):
        lo = max(floor, remaining - left)
        hi = min(1.0, remaining - left * floor)
        ys.append(lo if hi <= lo else rng.uniform(lo, hi))
        remaining -= ys[-1]
    return sorted(-math.pi + 2 * math.pi * y for y in ys)


def summary_of(entries):
    return spectral_summary(validate_special_unitary(entries))


def enumerate_box(args, zeta: int, K: int, tie_tol: float = 1e-9):
    """Reference for ``brute_force_m``: psi on every tuple of the box."""
    tuples = [k for k in itertools.product(range(-K, K + 1), repeat=len(args))
              if sum(k) == -zeta]
    psi = [sum((a + TWO_PI * kj) ** 2 for a, kj in zip(args, k)) for k in tuples]
    best = min(psi)
    cutoff = best + tie_tol * max(1.0, best)
    return best, [k for k, v in zip(tuples, psi) if v <= cutoff]


def tie_heavy_spectra():
    """-I, omega I, [pi/2] x 4, [0, 0, pi, pi] and clusters split by the
    kept/shifted boundary, as (args, zeta)."""
    spectra = [[PI] * 2, [PI] * 4, [PI / 2] * 4, [0.0, 0.0, PI, PI],
               [2 * PI / 3] * 3, [-2 * PI / 3] * 3, [2 * PI / 5] * 5, [4 * PI / 5] * 5,
               [-4 * PI / 5] * 5, [0.0, PI, PI], [0.0] + [2 * PI / 3] * 3,
               [-PI / 2, -PI / 2, PI, PI, PI], [0.0, PI, PI, PI, PI],
               [0.0, 0.0] + [2 * PI / 3] * 3, [0.0] * 5]
    return list(map(with_winding, spectra))


def boundary_args(n: int, zeta: int, nu1: int, nu2: int, beta: float = 2.25):
    """beta repeated nu1 times below and nu2 times above index n - zeta; the
    zeta - nu2 arguments above it spaced evenly up to pi, the rest spaced by
    0.2 about the mean that makes the sum 2 pi zeta."""
    upper, lower = zeta - nu2, n - zeta - nu1
    hi = beta + (PI - beta) * np.arange(1, upper + 1) / (upper + 1)
    mean = (TWO_PI * zeta - (nu1 + nu2) * beta - hi.sum()) / lower
    lo = mean + 0.2 * (np.arange(lower) - (lower - 1) / 2)
    return [*lo, *[beta] * (nu1 + nu2), *hi]


def tied_spectra():
    """Spectra of order at most 9 whose minimizers can tie, with the number
    of minimizing tuples known from their construction: the hole of class a
    of 2 pi A_{n-1}, e^{2 pi i a / n} I, with its C(n, a) nearest lattice
    points, a repeated value split by index n - zeta (and its negation) and
    -1 repeated s times."""
    # math.remainder takes 2 pi a / n into (-pi, pi]: -2 pi (n - a) / n for a > n / 2.
    spectra = [([math.remainder(TWO_PI * a / n, TWO_PI)] * n, math.comb(n, a))
               for n in range(2, 10) for a in range(1, n)]
    for n, zeta, nu1, nu2 in [(3, 1, 1, 1), (4, 1, 2, 1), (5, 1, 3, 1), (6, 1, 2, 1),
                              (7, 2, 2, 2), (8, 2, 3, 1), (8, 2, 2, 2), (9, 2, 3, 2)]:
        args = boundary_args(n, zeta, nu1, nu2)
        spectra += [(args, math.comb(nu1 + nu2, nu2)),
                    ([-a for a in args], math.comb(nu1 + nu2, nu2))]
    for n, s, zeta in [(3, 1, 0), (3, 1, 1), (4, 2, 1), (5, 2, 2), (5, 3, 1), (6, 1, 2),
                       (7, 1, -1), (8, 4, 2), (8, 2, 3), (9, 3, 1)]:
        rest = (TWO_PI * zeta - s * PI) / (n - s) + 0.2 * (np.arange(n - s) - (n - s - 1) / 2)
        spectra.append(([*rest, *[PI] * s], math.comb(s, zeta) if 0 <= zeta <= s else 1))
    return spectra


class TestMValue:
    def test_identity_is_zero(self):
        assert m_value(summary_of(np.eye(4))) == 0.0

    def test_minus_identity_2(self):
        assert m_value(summary_of(-np.eye(2))) == pytest.approx(2 * PI**2, abs=1e-12)

    def test_zero_winding_example_against_oracle(self):
        sd = spectral_summary(diag_su([-2 * PI / 3, PI / 3, PI / 3]))
        m = m_value(sd)
        brute, _ = brute_force_m(sd.args, sd.zeta, K=3)
        assert m == pytest.approx(brute, abs=1e-12)
        assert m == pytest.approx(2 * PI**2 / 3, abs=1e-12)

    def test_scalar_cube_root_matrix(self):
        q = validate_special_unitary(np.exp(2j * PI / 3) * np.eye(3))
        assert m_value(spectral_summary(q)) == pytest.approx(8 * PI**2 / 3, abs=1e-12)

    def test_negative_winding_goes_through_adjoint(self):
        q = validate_special_unitary(np.exp(-2j * PI / 3) * np.eye(3))
        sd = spectral_summary(q)
        assert sd.zeta == -1
        assert m_value(sd) == pytest.approx(8 * PI**2 / 3, abs=1e-12)


class TestBruteForce:
    def test_zero_tuple(self):
        best, mins = brute_force_m((0.0,) * 4, 0, K=2)
        assert best == 0.0
        assert mins == [(0, 0, 0, 0)]

    def test_two_pis(self):
        best, mins = brute_force_m((PI, PI), 1, K=2)
        assert best == pytest.approx(2 * PI**2, abs=1e-12)
        assert mins == [(-1, 0), (0, -1)]

    def test_three_equal_arguments(self):
        best, mins = brute_force_m((2 * PI / 3,) * 3, 1, K=2)
        assert best == pytest.approx(8 * PI**2 / 3, abs=1e-12)
        assert mins == [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]

    def test_infeasible_box(self):
        with pytest.raises(InfeasibleError):
            brute_force_m((6 * PI, 6 * PI), 6, K=2)

    def test_requires_wide_enough_box(self):
        with pytest.raises(ValueError):
            brute_force_m((0.0, 0.0), 0, K=1)

    @pytest.mark.parametrize("args", [(math.nan, math.nan), (-math.inf, math.inf),
                                      (0.0, math.nan)])
    def test_non_finite_arguments_are_rejected(self, args):
        with pytest.raises(NotFiniteError):
            brute_force_m(args, 0)

    @pytest.mark.parametrize("args, zeta, error, message", [
        ((), 0, ShapeError, "argument tuple must be nonempty"),
        ((0.5, -0.5), 0, ValueError, "arguments must be sorted ascending"),
        ((-0.5, 0.6), 0, ValueError, r"do not sum to 2\*pi\*0 \(residual 1\.000e-01\)"),
        ((PI, PI), 0, ValueError, r"do not sum to 2\*pi\*0"),
    ], ids=["empty", "unsorted", "sum-off", "winding-off"])
    def test_malformed_arguments_are_rejected(self, args, zeta, error, message):
        with pytest.raises(error, match=message):
            brute_force_m(args, zeta)

    @pytest.mark.parametrize("K", [2, 3])
    def test_matches_literal_enumeration(self, K):
        haar = [spectral_summary(random_special_unitary(n, seed=50 * n + i))
                for n in range(1, 6) for i in range(6)]
        spectra = [(sd.args, sd.zeta) for sd in haar] + tie_heavy_spectra()
        assert {zeta for _, zeta in spectra} >= {-1, 0, 1, 2}
        for args, zeta in spectra:
            ref, ref_mins = enumerate_box(args, zeta, K)
            best, mins = brute_force_m(args, zeta, K=K)
            assert mins == ref_mins
            assert best == pytest.approx(ref, rel=1e-12)

    def test_minimizer_count_is_the_grassmannian_euler_characteristic(self):
        # The minimizing tuples are the torus-fixed points of the family
        # Gr(nu2; C^(nu1 + nu2)), so they number C(nu1 + nu2, nu2), and
        # C(s, zeta) when the family is that of plog, Gr(zeta; C^s).
        counts = set()
        for i, (args, count) in enumerate(tied_spectra()):
            n = len(args)
            u = random_unitary(n, seed=600 + i)
            q = validate_special_unitary(u @ diag_su(args).entries @ u.conj().T)
            sd = spectral_summary(q)
            _, mins = brute_force_m(sd.args, sd.zeta, K=3, zeta_tol=sd.tols.zeta)
            td = theta_descriptor(q)
            assert len(mins) == count
            assert count == (1 if td.is_singleton else math.comb(td.nu1 + td.nu2, td.nu2))
            status = plog_status(sd)
            if status.nonempty:
                assert count == math.comb(status.s, status.zeta)
            counts.add((count, status.nonempty))
        assert {(1, True), (1, False), (70, True), (35, False), (6, True)} <= counts

    @given(n=st.integers(2, 9), seed=st.integers(0, 10**5))
    @settings(max_examples=40)
    def test_closed_form_matches_oracle(self, n, seed):
        sd = spectral_summary(random_special_unitary(n, seed=seed))
        m = m_value(sd)
        brute, mins = brute_force_m(sd.args, sd.zeta, K=3)
        assert abs(m - brute) <= 1e-9 * max(1.0, m)
        for k in mins:
            assert max(k) - min(k) <= 1
            if sd.zeta >= 0:
                assert k.count(-1) == sd.zeta
                assert all(v in (0, -1) for v in k)

    def test_closed_form_matches_oracle_at_high_winding(self):
        # Haar matrices rarely wind past |zeta| = 1, so sweep constructed
        # tuples across the whole reachable winding range instead.
        rng = np.random.default_rng(314)
        for n in range(2, 7):
            for zeta in range(-((n - 1) // 2), n // 2 + 1):
                for _ in range(5):
                    args = random_args_with_winding(n, zeta, rng)
                    sd = spectral_summary(diag_su(args))
                    assert sd.zeta == zeta
                    m = m_value(sd)
                    brute, mins = brute_force_m(sd.args, sd.zeta, K=3)
                    assert abs(m - brute) <= 1e-9 * max(1.0, m)
                    for k in mins:
                        assert max(k) - min(k) <= 1
                        if zeta >= 0:
                            assert k.count(-1) == zeta


def haar_with_negative_winding(n: int, count: int) -> list:
    """The first ``count`` Haar SU(n) draws from seed 700 n on whose winding
    is negative (SU(2) has none: its windings are 0 and 1)."""
    found = []
    for seed in itertools.count(700 * n):
        q = random_special_unitary(n, seed=seed)
        if spectral_summary(q).zeta < 0:
            found.append(q)
            if len(found) == count:
                return found


def negative_winding_spectra():
    """Argument tuples with zeta < 0, as (args, zeta): constructed across the
    reachable windings, the tied spectra and Haar draws."""
    rng = np.random.default_rng(271)
    spectra = [(random_args_with_winding(n, zeta, rng), zeta)
               for n in range(2, 8) for zeta in range(-((n - 1) // 2), 0) for _ in range(4)]
    spectra += [with_winding(args) for args, _ in tied_spectra()]
    spectra += tie_heavy_spectra()
    spectra += [(tuple(sd.args), sd.zeta) for sd in
                (spectral_summary(q) for n in range(3, 9) for q in haar_with_negative_winding(n, 2))]
    return [(args, zeta) for args, zeta in spectra if zeta < 0]


class TestMinLog:
    def test_identity(self):
        x = theta_descriptor(validate_special_unitary(np.eye(3))).base_log
        assert np.allclose(x.entries, 0.0)

    def test_minus_identity_2(self):
        q = validate_special_unitary(-np.eye(2))
        x = theta_descriptor(q).base_log
        eigs = sorted(np.linalg.eigvals(x.entries).imag)
        assert eigs == pytest.approx([-PI, PI], abs=1e-12)
        assert frobenius_norm(x.entries) == pytest.approx(PI * math.sqrt(2), abs=1e-12)
        assert np.linalg.norm(expm_skew(x).entries - q.entries) <= 1e-12

    def test_zero_winding_diagonal(self):
        # The minimizer is unique here (brute force confirms), so the
        # logarithm must be exactly the principal one.
        q = validate_special_unitary(np.diag([1j, -1j]))
        sd = spectral_summary(q)
        _, mins = brute_force_m(sd.args, sd.zeta, K=3)
        assert mins == [(0, 0)]
        x = theta_descriptor(q).base_log
        assert np.allclose(x.entries, np.diag([1j * PI / 2, -1j * PI / 2]), atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_roundtrip_and_norm_on_haar(self, n):
        for i in range(10):
            q = random_special_unitary(n, seed=400 + 10 * n + i)
            sd = spectral_summary(q)
            x = theta_descriptor(q).base_log
            assert np.linalg.norm(expm_skew(x).entries - q.entries) <= 1e-8 * n
            assert frobenius_norm(x.entries) ** 2 == pytest.approx(m_value(sd), abs=1e-9)
            assert abs(np.trace(x.entries)) <= 1e-9
            assert np.linalg.norm(x.entries + x.entries.conj().T) <= 1e-9

    def test_negative_winding_orientation(self):
        q = validate_special_unitary(-1j * np.eye(4))  # winding -1
        sd = spectral_summary(q)
        assert sd.zeta == -1
        x = theta_descriptor(q).base_log
        assert np.linalg.norm(expm_skew(x).entries - q.entries) <= 1e-12
        assert frobenius_norm(x.entries) ** 2 == pytest.approx(m_value(sd), abs=1e-10)

    def test_adjoint_symmetry(self):
        for n, seed in [(2, 0), (4, 1), (6, 2)]:
            q = random_special_unitary(n, seed=seed)
            sd = spectral_summary(q)
            q_adj = validate_special_unitary(q.entries.conj().T)
            sd_adj = spectral_summary(q_adj)
            assert m_value(sd_adj) == pytest.approx(m_value(sd), abs=1e-12)
            x_adj = theta_descriptor(q_adj).base_log
            # Negating a minimal logarithm of Q^* gives one of Q.
            back = expm_skew(validate_skew_traceless(-x_adj.entries, x_adj.tols))
            assert np.linalg.norm(back.entries - q.entries) <= 1e-10
            assert frobenius_norm(x_adj.entries) == pytest.approx(
                frobenius_norm(theta_descriptor(q).base_log.entries), abs=1e-10)


class TestNegativeWinding:
    """The minimizing shift read off a spectrum of negative winding as it is:
    the bottom -zeta arguments move up by 2 pi."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_canonical_log_of_haar(self, n):
        for q in haar_with_negative_winding(n, 3):
            self.assert_canonical_log(q)

    def test_canonical_log_of_a_family(self):
        # The negative-winding spectrum of the call-count tests: the boundary
        # splits the cluster at -2.5, so this is one member of a family.
        u = random_unitary(3, seed=11)
        args = np.array([-2.5, -2.5, 5.0 - TWO_PI])
        q = validate_special_unitary(u @ np.diag(np.exp(1j * args)) @ u.conj().T)
        assert not theta_descriptor(q).is_singleton
        self.assert_canonical_log(q)

    @staticmethod
    def assert_canonical_log(q):
        sd = spectral_summary(q)
        assert sd.zeta < 0
        x = canonical_log(sd)
        validate_skew_traceless(x.entries, sd.tols)
        assert frobenius_norm(expm_skew(x).entries - q.entries) <= sd.tols.eig
        m = m_value(sd)
        assert abs(frobenius_norm(x.entries) ** 2 - m) <= 1e-12 * max(1.0, m)
        td = theta_descriptor(q)
        if td.is_singleton:
            assert frobenius_norm(x.entries - td.base_log.entries) <= 1e-12

    def test_brute_force_minimizers_move_the_bottom_up(self):
        spectra = negative_winding_spectra()
        assert len(spectra) >= 40
        assert {zeta for _, zeta in spectra} >= {-1, -2, -3}
        for args, zeta in spectra:
            _, mins = brute_force_m(args, zeta, K=3)
            for k in mins:
                assert set(k) <= {0, 1} and k.count(1) == -zeta


class TestExactSkewness:
    """The logarithm is symmetrized in place to (X - X^*) / 2, so it is
    skew-Hermitian entry for entry, as one matrix and as a stack."""

    @staticmethod
    def assert_exactly_skew(x):
        assert np.array_equal(x, -np.swapaxes(x.conj(), -1, -2))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 32])
    def test_single_and_stacked_haar(self, n):
        q = random_special_unitary(n, seed=500 + n)
        sd = theta_descriptor(q).spectral
        self.assert_exactly_skew(_log_in_basis(sd.basis, _canonical_angles(sd)))
        stack = sd.basis @ random_unitary(n, seed=600 + n, count=4)
        xs = _log_in_basis(stack, _canonical_angles(sd))
        assert xs.shape == (4, n, n)
        self.assert_exactly_skew(xs)
        x = canonical_log(sd).entries
        assert np.linalg.norm(x + x.conj().T) == 0.0

    @pytest.mark.parametrize("kind, n", [("diametral", 3), ("boundary", 5),
                                         ("minus_one", 6), ("boundary_adjoint", 4)])
    def test_family_samples(self, kind, n):
        q, td = conjugated_family(kind, n)
        self.assert_exactly_skew(td.base_log.entries)
        xs = theta_sample(td, random_unitary(td.nu1 + td.nu2, seed=n, count=3)).logs
        for x in xs:
            self.assert_exactly_skew(x.entries)


class TestThetaDescriptor:
    @pytest.mark.parametrize("scale", [-1.0, -1j])   # windings 2 and -1
    def test_carries_its_matrix_and_signed_angles(self, scale):
        q = validate_special_unitary(scale * np.eye(4))
        td = theta_descriptor(q)
        assert td.q is q and td.zeta == (2 if scale == -1.0 else -1)
        u = td.spectral.basis
        x = (u * (1j * td.angles)) @ u.conj().T
        assert np.linalg.norm(x - td.base_log.entries) <= 1e-12

    @pytest.mark.parametrize("arg", [PI / 2, -PI / 2], ids=["as_is", "oriented"])
    def test_fields_by_name(self, arg):
        # The descriptor is built positionally: read each field by name on a
        # family whose nu1, nu2 and beta_arg differ. With arg < 0 the winding
        # is -1 and the boundary splits the cluster at the bottom, shifting
        # one member up and keeping three.
        q = diag_su([arg] * 4)
        td = theta_descriptor(q)
        sd = td.spectral
        assert (sd.n, td.zeta, td.is_singleton) == (4, 1 if arg > 0 else -1, False)
        assert (td.nu1, td.nu2) == (3, 1) and td.beta_arg == pytest.approx(arg, abs=1e-14)
        assert sd.zeta == td.zeta and td.q is q
        assert np.array_equal(td.base_log.entries, canonical_log(sd).entries)
        assert np.array_equal(td.angles, _canonical_angles(sd))

    def test_base_log_is_built_once_when_first_read(self):
        td = theta_descriptor(diag_su([PI / 2] * 4))
        assert "base_log" not in vars(td)
        x = td.base_log
        assert td.base_log is x and vars(td)["base_log"] is x

    def test_distinct_spectrum_is_singleton(self):
        q = validate_special_unitary(np.diag(np.exp(1j * np.array([0.1, 0.2, -0.3]))))
        td = theta_descriptor(q)
        assert td.is_singleton and td.zeta == 0
        assert td.grassmannian is None

    def test_minus_identity_4(self):
        td = theta_descriptor(validate_special_unitary(-np.eye(4)))
        assert td.zeta == 2 and not td.is_singleton
        assert (td.nu1, td.nu2) == (2, 2)
        assert td.grassmannian == (2, 4)

    def test_boundary_pair(self):
        td = theta_descriptor(diag_su([0.0, 0.0, PI, PI]))
        assert td.zeta == 1 and not td.is_singleton
        assert (td.nu1, td.nu2) == (1, 1)

    def test_positive_winding_boundary_cases(self):
        # All four arguments equal: the boundary eigenvalues coincide and
        # the family is a Grassmannian.
        td = theta_descriptor(diag_su([PI / 2, PI / 2, PI / 2, PI / 2]))
        assert td.zeta == 1 and not td.is_singleton
        assert (td.nu1, td.nu2) == (3, 1)
        # Distinct eigenvalues across the boundary: single point despite
        # positive winding.
        td2 = theta_descriptor(diag_su([PI / 2, PI / 2, PI]))
        assert td2.zeta == 1 and td2.is_singleton
        assert td2.beta_arg == pytest.approx(PI / 2, abs=1e-14)

    def test_base_log_norm_matches_m(self):
        for seed in range(5):
            q = random_special_unitary(5, seed=700 + seed)
            td = theta_descriptor(q)
            m = m_value(spectral_summary(q))
            assert frobenius_norm(td.base_log.entries) ** 2 == pytest.approx(m, abs=1e-9)

    def test_conjugation_equivariance(self):
        q = diag_su([0.0, 0.0, PI, PI])
        u = random_unitary(4, seed=13)
        qc = validate_special_unitary(u @ q.entries @ u.conj().T)
        td, tdc = theta_descriptor(q), theta_descriptor(qc)
        assert (td.zeta, td.is_singleton, td.nu1, td.nu2) == \
               (tdc.zeta, tdc.is_singleton, tdc.nu1, tdc.nu2)
        x = theta_descriptor(qc).base_log
        assert frobenius_norm(x.entries) == pytest.approx(
            frobenius_norm(theta_descriptor(q).base_log.entries), abs=1e-9)
        assert np.linalg.norm(expm_skew(x).entries - qc.entries) <= 1e-9


class TestThetaSample:
    def test_identity_returns_base(self):
        q = validate_special_unitary(-np.eye(2))
        td = theta_descriptor(q)
        [x] = theta_sample(td, np.eye(2)).logs
        assert np.allclose(x.entries, td.base_log.entries, atol=1e-14)

    def test_swap_gives_swapped_log(self):
        # Conjugating diag(pi i, -pi i) by the swap permutation by hand
        # exchanges the diagonal entries.
        q = validate_special_unitary(-np.eye(2))
        td = theta_descriptor(q)
        [x] = theta_sample(td, np.array([[0, 1], [1, 0]], dtype=complex)).logs
        assert np.allclose(x.entries, np.diag([-1j * PI, 1j * PI]), atol=1e-14)

    def test_givens_family(self):
        q = validate_special_unitary(-np.eye(2))
        td = theta_descriptor(q)
        seen = []
        for t in (0.3, 0.9, 1.4):
            r = np.array([[math.cos(t), -math.sin(t)],
                          [math.sin(t), math.cos(t)]], dtype=complex)
            [x] = theta_sample(td, r).logs
            assert frobenius_norm(x.entries) == pytest.approx(PI * math.sqrt(2), abs=1e-12)
            assert np.linalg.norm(expm_skew(x).entries + np.eye(2)) <= 1e-12
            seen.append(x.entries)
        assert np.linalg.norm(seen[0] - seen[1]) > 1e-2

    def test_singleton_rejected(self):
        q = validate_special_unitary(np.diag(np.exp(1j * np.array([0.1, 0.2, -0.3]))))
        with pytest.raises(SingletonThetaError):
            theta_sample(theta_descriptor(q), np.eye(1))

    def test_wrong_shape_rejected(self):
        q = validate_special_unitary(-np.eye(2))
        with pytest.raises(ShapeError):
            theta_sample(theta_descriptor(q), np.eye(3))

    def test_random_samples_are_minimizing_logs(self):
        q = validate_special_unitary(-np.eye(4))
        td = theta_descriptor(q)
        m = m_value(spectral_summary(q))
        rng = np.random.default_rng(5)
        for _ in range(50):
            [x] = theta_sample(td, random_unitary(td.nu1 + td.nu2, rng)).logs
            assert np.linalg.norm(expm_skew(x).entries - q.entries) <= 1e-8
            assert frobenius_norm(x.entries) ** 2 == pytest.approx(m, abs=1e-8)

    def test_oriented_sampling_negative_winding(self):
        q = validate_special_unitary(-1j * np.eye(4))  # winding -1
        td = theta_descriptor(q)
        assert td.zeta == -1 and not td.is_singleton
        [x] = theta_sample(td, random_unitary(td.nu1 + td.nu2, seed=3)).logs
        assert np.linalg.norm(expm_skew(x).entries - q.entries) <= 1e-10
        m = m_value(spectral_summary(q))
        assert frobenius_norm(x.entries) ** 2 == pytest.approx(m, abs=1e-9)

    def test_singleton_uniqueness_evidence(self):
        # Unique brute-force minimizer plus a trivial commutant orbit: the
        # canonical logarithm is fixed by every unitary commuting with Q.
        q = validate_special_unitary(np.diag(np.exp(1j * np.array([0.1, 0.2, -0.3]))))
        sd = spectral_summary(q)
        _, mins = brute_force_m(sd.args, sd.zeta, K=3)
        assert len(mins) == 1
        x = theta_descriptor(q).base_log
        rng = np.random.default_rng(11)
        phases = np.exp(1j * rng.uniform(-PI, PI, size=3))
        d = sd.basis @ np.diag(phases) @ sd.basis.conj().T
        assert np.linalg.norm(d @ x.entries @ d.conj().T - x.entries) <= 1e-12
        # A perturbed candidate either stops being a logarithm of Q or gets
        # strictly longer.
        for seed in range(3):
            gen = np.random.default_rng(seed)
            z = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
            pert = (z - z.conj().T) / 2
            pert -= (np.trace(pert) / 3) * np.eye(3)
            cand = validate_skew_traceless(x.entries + 1e-3 * pert)
            exp_gap = np.linalg.norm(expm_skew(cand).entries - q.entries)
            norm_gap = frobenius_norm(cand.entries) ** 2 - frobenius_norm(x.entries) ** 2
            assert exp_gap > 1e-6 or norm_gap > 1e-8


def family_args(kind: str, n: int) -> list[float]:
    """Arguments of a family spectrum of order n (the kept/shifted boundary
    splits a cluster): a scalar matrix at maximal distance from I, a
    repeated eigenvalue at the boundary, or -1 repeated with 0 < zeta < s.
    ``*_adjoint`` negates them, so the winding is negative and the boundary
    splits a cluster at the bottom of the spectrum."""
    base = kind.removesuffix("_adjoint")
    if base == "diametral" or n == 2:   # -I is the only family in SU(2)
        args = [PI] * n if n % 2 == 0 else [(n - 1) * PI / n] * n
    else:
        top, value = {"boundary": (2 if n < 5 else 3, 2.6 if n < 5 else 2.2),
                      "minus_one": (2 if n < 5 else 4, PI)}[base]
        total = (2 * PI if base == "boundary" else 2 * PI * (top // 2)) - top * value
        spread = np.linspace(-1.0, 1.0, n - top)
        args = [value] * top + list(spread - spread.mean() + total / (n - top))
    return [-a for a in args] if kind.endswith("_adjoint") else args


# (kind, n); -I is its own adjoint, so the diametral adjoint needs odd n.
FAMILY_CASES = ([(kind, n) for kind in ("diametral", "boundary", "minus_one")
                 for n in range(2, 9)]
                + [("boundary_adjoint", n) for n in range(3, 9)]
                + [("diametral_adjoint", n) for n in (3, 5, 7)])


def conjugated_family(kind: str, n: int):
    u = random_unitary(n, seed=300 + n)
    q = validate_special_unitary(u @ diag_su(family_args(kind, n)).entries @ u.conj().T)
    td = theta_descriptor(q)
    assert not td.is_singleton and (td.zeta < 0) == kind.endswith("_adjoint")
    return q, td


def sample_reference(td, q, r):
    """One member of the family computed on its own, step by step: the block's
    arguments at their mean, the top zeta arguments a turn down (zeta > 0) or
    the bottom -zeta a turn up (zeta < 0) except the block's, less the mean
    of the member's angles; A = U diag(i a) U^* on those; the frame W of the
    rotated block's shifted columns; the skew part of
    X = A + 2 pi i sigma W W^*, checked in su(n); and the bound
    ||exp(A) - Q||_F + 2 pi ||W^*W - I||_F. Returns X, the bound, the
    rotated basis and the member's angles, those of A with the shifted
    columns a turn away."""
    sd, zeta, block = td.spectral, td.zeta, td.nu1 + td.nu2
    if zeta > 0:
        start, cut, turn = sd.n - zeta - td.nu1, sd.n - zeta, -TWO_PI
        shifted = slice(cut, cut + td.nu2)
    else:
        start, cut, turn = -zeta - td.nu2, -zeta, TWO_PI
        shifted = slice(start, cut)
    base = np.array(sd.args, dtype=float)
    if zeta > 0:
        base[cut:] -= TWO_PI
    else:
        base[:cut] += TWO_PI
    base[start:start + block] = float(sd.args[start:start + block].mean())
    base -= (float(np.add.reduce(base)) + td.nu2 * turn) / sd.n
    angles = base.copy()
    angles[shifted] += turn
    u = sd.basis.copy()
    u[:, start:start + block] = u[:, start:start + block] @ r
    w = u[:, shifted]
    a = (sd.basis * (1j * base)) @ sd.basis.conj().T
    a = (a - a.conj().T) / 2.0
    x = (1j * turn) * (w @ w.conj().T) + a
    x = validate_skew_traceless((x - x.conj().T) / 2.0, sd.tols)
    exp_a = (sd.basis * np.exp(1j * base)) @ sd.basis.conj().T
    frame = np.linalg.norm(w.conj().T @ w - np.eye(td.nu2))
    bound = float(np.linalg.norm(exp_a - q.entries)) + TWO_PI * float(frame)
    return x, bound, u, angles


def eigh_roundtrip(x, q) -> float:
    """||exp(X) - Q||_F, exp(X) from numpy's eigh of the Hermitian -iX."""
    h = -1j * x
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    return float(np.linalg.norm((v * np.exp(1j * w)) @ v.conj().T - q))


class TestStackedSampler:
    @pytest.mark.parametrize("kind, n", FAMILY_CASES)
    def test_stack_equals_single_members_bit_for_bit(self, kind, n):
        q, td = conjugated_family(kind, n)
        rs = random_unitary(td.nu1 + td.nu2, seed=n, count=5)
        xs, resids, bases, angles, norms = theta_sample(td, rs)
        assert isinstance(xs, tuple) and len(xs) == len(resids) == len(norms) == 5
        assert bases.shape == (5, n, n)
        for r, x, resid, basis in zip(rs, xs, resids, bases):
            ref_x, ref_resid, ref_basis, ref_angles = sample_reference(td, q, r)
            assert x.entries.tobytes() == ref_x.entries.tobytes()
            assert resid == ref_resid
            assert basis.tobytes() == ref_basis.tobytes()
            assert angles.tobytes() == ref_angles.tobytes()
            single = theta_sample(td, r)
            assert single.logs[0].entries.tobytes() == x.entries.tobytes()
            assert single.residuals == (resid,)
            with pytest.raises(ValueError):   # a view of a frozen stack
                x.entries.setflags(write=True)

    def test_empty_stack_gives_no_members(self):
        _, td = conjugated_family("boundary", 4)
        drawn = theta_sample(td, np.zeros((0, 2, 2)))
        assert drawn.logs == () and drawn.residuals == ()
        assert drawn.bases.shape == (0, 4, 4)

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("bad", ["scaled", "nan", "inf", "1e200"])
    def test_bad_slice_raises_what_its_single_call_raises(self, position, bad):
        # A NaN, an inf or a 1e200 fails the gate quietly: the suite runs
        # with warnings as errors.
        _, td = conjugated_family("minus_one", 6)
        rs = random_unitary(td.nu1 + td.nu2, seed=1, count=5)
        rs[position] = 1.5 * rs[position] if bad == "scaled" else float(bad)
        with pytest.raises(NotUnitaryError) as single:
            theta_sample(td, rs[position])
        with pytest.raises(NotUnitaryError) as stacked:
            theta_sample(td, rs)
        assert str(stacked.value) == str(single.value)

    def test_round_trip_failure_names_the_first_member(self):
        # A descriptor of one matrix carrying another of the same family
        # shape: every member misses it, and the stack fails as its first does.
        _, td = conjugated_family("boundary", 5)
        other = validate_special_unitary(
            random_unitary(5, seed=1) @ diag_su(family_args("boundary", 5)).entries
            @ random_unitary(5, seed=1).conj().T)
        td = dataclasses.replace(td, q=other)
        rs = random_unitary(td.nu1 + td.nu2, seed=2, count=3)
        with pytest.raises(ResidualExceededError) as single:
            theta_sample(td, rs[0])
        with pytest.raises(ResidualExceededError) as stacked:
            theta_sample(td, rs)
        assert str(stacked.value) == str(single.value)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3, 2), (1, 1, 3, 3), (3,)])
    def test_wrong_shape_names_the_given_shape(self, shape):
        _, td = conjugated_family("boundary", 5)   # block of order 3
        with pytest.raises(ShapeError) as exc:
            theta_sample(td, np.ones(shape))
        assert str(exc.value) == f"expected a unitary of order 3, got shape {shape}"


# Each gate of the sampler, the error it raises and the pass over the stack
# in which it runs: the sampling matrices, then X in su(n), then the frames,
# member by member; then the exponential the members share, exp(A), unitary
# and then of determinant one; then member by member the round trip.
SAMPLER_GATES = {
    "sampling_matrix": (0, NotUnitaryError, "sampling matrix is not unitary"),
    "skew": (1, NotSkewHermitianError, "matrix is not skew-Hermitian"),
    "trace": (1, TraceNotZeroError, "trace is not zero"),
    "frame": (2, ResidualExceededError, "sampled frame is not orthonormal"),
    "exp_unitarity": (3, NotUnitaryError, "matrix is not unitary"),
    "exp_determinant": (4, DeterminantError, "determinant is not one"),
    "round_trip": (5, ResidualExceededError,
                   "sampled logarithm does not exponentiate to the given matrix"),
}


def sample_with_failures(td, rs, bad, monkeypatch):
    """The error of ``theta_sample(td, rs)`` when member i fails gate
    ``bad[i]``: its sampling matrix is scaled; X gets a Hermitian part or a
    trace; its frame is sheared, its second shifted column moved along its
    first by 1e-9; exp(A) is built on a stretched basis, or on angles whose
    sum moves. For the round trip, Q moves by 0.6 of the eig gate and the
    member's frame is sheared so that 2 pi ||W^*W - I||_F is 0.6 of it too:
    the other members pass. ``td`` is at ``Tolerances(1e-12)``, where the
    frame and round-trip gates are tighter than the sampling matrix's."""
    rs = rs.copy()
    nu1 = td.nu1
    eig = td.spectral.tols.eig
    skew_part = sungeo.logmin._skew_part
    exp_in_basis = sungeo.logmin._exp_in_basis

    def skew(x):
        # The member stack is the one 3-D array made skew: its slice i is
        # member i, whatever order the su(n) gate then checks them in.
        x = skew_part(x)
        for i, gate in bad.items():
            if x.ndim == 3 and gate == "skew":
                x[i] += 1e-3 * np.eye(x.shape[1])
            elif x.ndim == 3 and gate == "trace":
                x[i] += 1e-3j * np.eye(x.shape[1])
        return x

    def exps(v, w):
        gates = set(bad.values())
        if "exp_unitarity" in gates:
            v = 1.01 * v
        if "exp_determinant" in gates:
            w = w.copy()
            w[0] += 0.5
        return exp_in_basis(v, w)

    for i, gate in bad.items():
        if gate == "sampling_matrix":
            rs[i] *= 1.5
        elif gate in ("frame", "round_trip"):
            shear = 1e-9 if gate == "frame" else 0.6 * eig / (TWO_PI * math.sqrt(2.0))
            rs[i][:, nu1 + 1] += shear * rs[i][:, nu1]
    if "round_trip" in bad.values():
        # A phase pair e^{+-i phi} on two columns keeps det Q: ||dQ||_F = 0.6 eig.
        phi = 0.6 * eig / math.sqrt(2.0)
        turn = np.ones(td.spectral.n, dtype=complex)
        turn[:2] = np.exp(1j * phi), np.exp(-1j * phi)
        td = dataclasses.replace(td, q=dataclasses.replace(td.q, entries=td.q.entries * turn))
    with monkeypatch.context() as patch:
        patch.setattr(sungeo.logmin, "_skew_part", skew)
        patch.setattr(sungeo.logmin, "_exp_in_basis", exps)
        with pytest.raises(SungeoError) as exc:
            theta_sample(td, rs)
    return exc.value


class TestStackedGates:
    """The sampler runs each gate over the whole stack, member by member in
    order, before the next gate; the one exponential the members share is
    checked between the frames and the round trips."""

    @pytest.fixture
    def stack(self):
        # -1 four times with zeta = 2: a Gr(2;C^4) family, so a frame has two
        # columns to shear; at this tolerance a frame or a round trip can fail
        # while the sampling matrix passes Tolerances.default(4).
        u = random_unitary(6, seed=306)
        q = validate_special_unitary(
            u @ diag_su(family_args("minus_one", 6)).entries @ u.conj().T, Tolerances(1e-12))
        td = theta_descriptor(q)
        assert (td.zeta, td.nu1, td.nu2) == (2, 2, 2)
        return td, random_unitary(td.nu1 + td.nu2, seed=21, count=8)

    @pytest.mark.parametrize("gate", sorted(SAMPLER_GATES))
    def test_member_failing_one_gate(self, gate, stack, monkeypatch):
        td, rs = stack
        _, error, message = SAMPLER_GATES[gate]
        stacked = sample_with_failures(td, rs, {3: gate}, monkeypatch)
        alone = sample_with_failures(td, rs[3:4], {0: gate}, monkeypatch)
        assert type(stacked) is type(alone) is error
        assert str(stacked).startswith(message + " (residual ")
        assert str(stacked) == str(alone)
        assert stacked.residual == alone.residual

    @pytest.mark.parametrize("second", sorted(SAMPLER_GATES))
    @pytest.mark.parametrize("first", sorted(SAMPLER_GATES))
    def test_two_failing_members(self, first, second, stack, monkeypatch):
        # Member 3 fails ``first`` and member 5 ``second``: the earlier
        # member's failure is raised, unless member 5's gate runs in an
        # earlier pass over the stack.
        td, rs = stack
        raised = sample_with_failures(td, rs, {3: first, 5: second}, monkeypatch)
        later = SAMPLER_GATES[second][0] < SAMPLER_GATES[first][0]
        member, gate = (5, second) if later else (3, first)
        alone = sample_with_failures(td, rs[member:member + 1], {0: gate}, monkeypatch)
        assert type(raised) is type(alone)
        assert str(raised) == str(alone)

    def test_the_failures_are_the_gates_alone(self, stack):
        # Without the injected failures, the same stack passes every gate.
        td, rs = stack
        assert len(theta_sample(td, rs).logs) == 8


def u_generators(b: int) -> np.ndarray:
    """A real basis of u(b) as a (b^2, b, b) stack: i E_jj at (j, j), and
    for j < k, E_jk - E_kj at (j, k) and i (E_jk + E_kj) at (k, j)."""
    gens = np.zeros((b, b, b, b), dtype=complex)
    for j in range(b):
        gens[j, j, j, j] = 1j
        for k in range(j + 1, b):
            gens[j, k, j, k], gens[j, k, k, j] = 1.0, -1.0
            gens[k, j, j, k] = gens[k, j, k, j] = 1j
    return gens.reshape(b * b, b, b)


def assert_orbit_map_is_grassmannian(args, seed, label):
    """Conjugate diag(e^{i args}) by a Haar unitary drawn at ``seed``, check the
    family's label, and check the orbit map r -> X(r) of U(nu1 + nu2) at r = I:
    its rank is 2 nu1 nu2, every nonzero singular value is 2 sqrt 2 pi, and
    the block-diagonal generators span its kernel."""
    n = len(args)
    u = random_unitary(n, seed=seed)
    q = validate_special_unitary(u @ diag_su(args).entries @ u.conj().T)
    td = theta_descriptor(q)
    assert grassmann_label(*td.grassmannian) == label
    b, h = td.nu1 + td.nu2, 1e-5
    gens = u_generators(b)
    # exp(tG) = V diag(e^{i t w}) V^* from the eigh of the Hermitian -iG;
    # the 2 b^2 steps exp(+-hG) go to the sampler as one stack.
    w, v = np.linalg.eigh(-1j * gens)
    steps = [(v * np.exp(1j * t * w)[:, None, :]) @ v.conj().swapaxes(1, 2)
             for t in (h, -h)]
    xs = [x.entries.ravel() for x in theta_sample(td, np.concatenate(steps)).logs]
    jac = (np.array(xs[:b * b]) - np.array(xs[b * b:])).T / (2 * h)
    jac = np.concatenate([jac.real, jac.imag])
    sv = np.linalg.svd(jac, compute_uv=False)
    assert np.count_nonzero(sv > 1e-6 * sv[0]) == 2 * td.nu1 * td.nu2
    # Every nonzero singular value is 2 sqrt 2 pi, as the class docstring derives.
    nonzero = sv[:2 * td.nu1 * td.nu2]
    assert np.abs(nonzero / (2 * math.sqrt(2) * PI) - 1.0).max() <= 1e-8
    # The nu1^2 + nu2^2 block-diagonal generators map to zero; with the
    # rank above they span the whole kernel. The kept columns come first at
    # the top of the spectrum, the shifted ones at the bottom.
    side = np.arange(b) < (td.nu1 if td.zeta > 0 else td.nu2)
    block_diagonal = (side[:, None] == side[None, :]).ravel()
    assert np.count_nonzero(block_diagonal) == b * b - 2 * td.nu1 * td.nu2
    assert np.abs(jac[:, block_diagonal]).max() <= 1e-6 * sv[0]
    return td


def _beta_range(n, zeta, nu1, nu2, margin=0.05):
    """The interval of cluster values beta in (-pi, pi - 0.3] for which
    ``boundary_args(n, zeta, nu1, nu2, beta)`` keeps every argument below the
    cluster at least ``margin`` from -pi and from beta, or None. The arguments
    are affine in beta, so each slack is too, and read off two points."""
    lower = n - zeta - nu1

    def slacks(beta):
        args = boundary_args(n, zeta, nu1, nu2, beta)
        return np.array([args[0] + PI - margin, beta - margin - args[lower - 1]])

    at0, slope = slacks(0.0), slacks(1.0) - slacks(0.0)
    lo, hi = -PI + margin, PI - 0.3
    for a, d in zip(at0.tolist(), slope.tolist()):
        lo, hi = (max(lo, -a / d), hi) if d > 0 else (lo, min(hi, -a / d))
    return (lo, hi) if lo < hi else None


# (n, zeta, nu1, nu2, beta range) of every family shape at n <= 8 with some
# argument below the cluster; with none, the one family is the scalar
# e^{2 pi i zeta / n} I (nu1 = n - zeta, nu2 = zeta, zeta <= n / 2).
FAMILY_SHAPES = [(n, zeta, nu1, nu2, rng)
                 for n in range(2, 9) for zeta in range(1, n) for nu2 in range(1, zeta + 1)
                 for nu1 in range(1, n - zeta)
                 if (rng := _beta_range(n, zeta, nu1, nu2)) is not None]
FAMILY_SHAPES += [(n, zeta, n - zeta, zeta, None)
                  for n in range(2, 9) for zeta in range(1, n // 2 + 1)]


# The shapes whose mirror stays off the cut: the scalar -I families, all of
# whose arguments are pi, would mirror to -pi, which reads as pi.
MIRRORED_SHAPES = [shape for shape in FAMILY_SHAPES if shape[4] or 2 * shape[1] < shape[0]]


@st.composite
def family_spectra(draw, mirror=False):
    """(args, zeta, nu1, nu2, beta): a spectrum of order n <= 8 and winding
    zeta >= 1 whose kept/shifted boundary, at the top, splits a cluster of
    nu1 kept and nu2 shifted arguments, all beta. With ``mirror`` it is
    -args reversed, which winds -zeta: the boundary, at the bottom, splits
    the same cluster at -beta, so nu1 and nu2 stay."""
    n, zeta, nu1, nu2, rng = draw(st.sampled_from(MIRRORED_SHAPES if mirror else FAMILY_SHAPES))
    if rng is None:
        beta = TWO_PI * zeta / n
        args = [beta] * n
    else:
        lo, hi = rng
        beta = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
        args = boundary_args(n, zeta, nu1, nu2, beta)
    if mirror:
        return [-a for a in reversed(args)], -zeta, nu1, nu2, -beta
    return args, zeta, nu1, nu2, beta


def assert_drawn_family(spectrum, seed):
    """The orbit-map test on a ``family_spectra`` draw, and the descriptor's
    winding, (nu1, nu2), beta_arg and label against the draw's."""
    args, zeta, nu1, nu2, beta = spectrum
    td = assert_orbit_map_is_grassmannian(args, seed, grassmann_label(nu2, nu1 + nu2))
    assert (td.zeta, td.nu1, td.nu2) == (zeta, nu1, nu2)
    assert td.beta_arg == pytest.approx(beta, abs=1e-9)


class TestFamilyDimension:
    """The paper's third result on the sampled family: at r = I the orbit map
    r -> X(r) of U(nu1 + nu2) has rank 2 nu1 nu2, the real dimension of
    Gr(nu2; C^(nu1 + nu2)), and its kernel is the block-diagonal
    u(nu1) + u(nu2), so it factors through U(nu1 + nu2) / (U(nu1) x U(nu2)).

    The singular values follow from the embedding X(r) = A + 2 pi i sigma
    U_b r E r^* U_b^*, with E the diagonal projector onto the shifted
    columns and sigma = +-1. A is fixed, so dX(G) = 2 pi i sigma U_b [G, E]
    U_b^* for G in u(nu1 + nu2), and ||dX(G)||_F = 2 pi ||[G, E]||_F. A
    block-diagonal G commutes with E. For j kept and k shifted,
    G = E_jk - E_kj gives [G, E] = E_jk + E_kj and G = i(E_jk + E_kj) gives
    i(E_jk - E_kj): each maps its norm sqrt 2 to 2 pi sqrt 2, and distinct
    off-block generators map to orthogonal images. So every nonzero singular
    value is 2 sqrt 2 pi."""

    # Keyed by label, and the deep holes e^{2 pi i a / n} I, a = n // 2, by
    # order (n = 2 and 4 are the -I above): each of those is Gr(a; C^n).
    CASES = {"Gr(1;C^2)": [PI] * 2, "Gr(2;C^4)": [PI] * 4,
             "Gr(3;C^4)": boundary_args(7, 3, 1, 3, beta=2.9),
             "Gr(2;C^5)": boundary_args(6, 2, 3, 2),
             **{f"deep hole n={n}": [TWO_PI * (n // 2) / n] * n for n in (3, 5, 6, 7, 8)}}

    @pytest.mark.parametrize("key", CASES)
    def test_orbit_map_rank_and_kernel(self, key):
        args = self.CASES[key]
        n = len(args)
        label = grassmann_label(n // 2, n) if key.startswith("deep hole") else key
        assert_orbit_map_is_grassmannian(args, 700 + n, label)

    @given(spectrum=family_spectra(), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25)
    def test_orbit_map_on_random_family_spectra(self, spectrum, seed):
        assert_drawn_family(spectrum, seed)

    @given(spectrum=family_spectra(mirror=True), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25)
    def test_orbit_map_on_mirrored_family_spectra(self, spectrum, seed):
        assert_drawn_family(spectrum, seed)

    def test_samples_agree_iff_the_rotation_is_block_diagonal(self):
        # Gr(2;C^4) from I to -I: X(r1) = X(r2) when r1^* r2 lies in
        # U(2) x U(2), and not when it mixes the two blocks.
        fam = geodesic_family(validate_special_unitary(np.eye(4)),
                              validate_special_unitary(-np.eye(4)))
        assert fam.theta.grassmannian == (2, 4)
        r1 = random_unitary(4, seed=711)
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2], block[2:, 2:] = random_unitary(2, seed=712), random_unitary(2, seed=713)
        cos, sin = math.cos(0.3), math.sin(0.3)
        mix = np.eye(4, dtype=complex)
        mix[1:3, 1:3] = [[cos, -sin], [sin, cos]]
        x1, same, mixed = (seg.X.entries for seg in fam.sample(
            np.stack([r1, r1 @ block, r1 @ mix])))
        assert np.linalg.norm(same - x1) <= 1e-12
        assert np.linalg.norm(mixed - x1) > 1e-3


def deep_hole_family(n: int, sign: int):
    """The deep hole e^{sign 2 pi i a / n} I, a = n // 2, conjugated by a Haar
    unitary, its descriptor, sigma and the slice of the shifted columns."""
    u = random_unitary(n, seed=800 + n)
    w = np.exp(sign * 2j * PI * (n // 2) / n)
    q = validate_special_unitary(w * (u @ u.conj().T))
    td = theta_descriptor(q)
    assert not td.is_singleton and td.nu1 + td.nu2 == n
    cut = n - td.zeta if td.zeta > 0 else -td.zeta
    sigma = -1 if td.zeta > 0 else 1
    return q, td, sigma, slice(cut, n) if td.zeta > 0 else slice(0, cut)


# (n, sign): every deep hole up to n = 8 and at 16, 32 and 256; the two
# holes of an even order are both -I.
DEEP_HOLES = [(n, sign) for n in range(2, 9) for sign in (1, -1) if sign == 1 or n % 2]
DEEP_HOLES += [(16, 1), (32, 1), (256, 1)]


class TestGrassmannianEmbedding:
    """Each member is X = A + 2 pi i sigma P with P the orthogonal projector
    onto a nu2-dimensional subspace of span U_b: Gr(nu2; C^(nu1 + nu2))
    embedded by its projectors. At a deep hole every basis column is in the
    cluster, and A is the scalar-free log whose angles are the members'
    with the shifted ones a turn back."""

    @pytest.mark.parametrize("n, sign", DEEP_HOLES)
    def test_members_are_a_plus_projectors(self, n, sign):
        q, td, sigma, shifted = deep_hole_family(n, sign)
        drawn = theta_sample(td, random_unitary(n, seed=n, count=2 if n == 256 else 4))
        base = drawn.angles.copy()
        base[shifted] -= sigma * TWO_PI
        u = td.spectral.basis
        a = (u * (1j * base)) @ u.conj().T
        tol = 1e-12 * n
        for x in drawn.logs:
            p = (x.entries - a) / (2j * PI * sigma)
            assert np.linalg.norm(p - p.conj().T) <= tol
            assert np.linalg.norm(p @ p - p) <= tol
            assert abs(np.trace(p) - td.nu2) <= tol
            # The cluster is all of C^n here, so span U_b is checked through
            # the basis itself: P = U_b (U_b^* P U_b) U_b^*.
            assert np.linalg.norm(u @ (u.conj().T @ p @ u) @ u.conj().T - p) <= tol

    @pytest.mark.parametrize("kind, n", [("boundary", 6), ("boundary_adjoint", 7),
                                         ("minus_one", 8)])
    def test_range_lies_in_the_cluster_span(self, kind, n):
        # Off the deep holes the cluster is a proper subspace; P vanishes on
        # its complement and maps into it.
        q, td = conjugated_family(kind, n)
        sd = td.spectral
        cut = n - td.zeta if td.zeta > 0 else -td.zeta
        start = cut - (td.nu1 if td.zeta > 0 else td.nu2)
        sigma = -1 if td.zeta > 0 else 1
        shifted = slice(cut, cut + td.nu2) if td.zeta > 0 else slice(start, cut)
        drawn = theta_sample(td, random_unitary(td.nu1 + td.nu2, seed=n, count=4))
        base = drawn.angles.copy()
        base[shifted] -= sigma * TWO_PI
        a = (sd.basis * (1j * base)) @ sd.basis.conj().T
        ub = sd.basis[:, start:start + td.nu1 + td.nu2]
        outside = np.eye(n) - ub @ ub.conj().T
        tol = 1e-12 * n
        for x in drawn.logs:
            p = (x.entries - a) / (2j * PI * sigma)
            assert np.linalg.norm(p @ p - p) <= tol
            assert abs(np.trace(p) - td.nu2) <= tol
            assert np.linalg.norm(outside @ p) <= tol
            assert np.linalg.norm(p @ outside) <= tol


class TestSampledRoundTrips:
    """A member's residual, ||exp(A) - Q||_F + 2 pi ||W^*W - I||_F, bounds
    ||exp(X) - Q||_F and on exact families equals it to rounding."""

    @pytest.mark.parametrize("kind, n", FAMILY_CASES + [("diametral", 16),
                                                      ("diametral_adjoint", 15)])
    def test_residual_is_the_round_trip(self, kind, n):
        q, td = conjugated_family(kind, n)
        drawn = theta_sample(td, random_unitary(td.nu1 + td.nu2, seed=[n, 7], count=6))
        for x, resid in zip(drawn.logs, drawn.residuals):
            assert abs(resid - eigh_roundtrip(x.entries, q.entries)) <= 1e-12 * n
            assert resid <= td.spectral.tols.eig

    def test_a_frame_off_its_gate_raises_residual_exceeded(self):
        # A member whose bound exceeds the eig gate raises residual_exceeded
        # though its sampling matrix passes its own gate: here the frame's
        # share of the bound, 2 pi ||W^*W - I||_F, exceeds it alone.
        u = random_unitary(6, seed=306)
        q = validate_special_unitary(
            u @ diag_su(family_args("minus_one", 6)).entries @ u.conj().T, Tolerances(1e-12))
        td = theta_descriptor(q)
        r = random_unitary(4, seed=5)
        r[:, 3] += 1.5e-12 * r[:, 2]
        with pytest.raises(ResidualExceededError) as exc:
            theta_sample(td, r)
        assert str(exc.value).startswith("sampled frame is not orthonormal")


class TestConjugatedMultiplicities:
    # Repeated-eigenvalue patterns pushed through a Haar conjugation stress
    # the whole chain: eigenspace grouping, circular clustering, lifting,
    # and the boundary-run extraction.
    PATTERNS = [
        [2 * PI - 6.0, 2.0, 2.0, 2.0],           # zeta 1, block in the middle
        [PI / 2] * 4,                            # zeta 1, block at the top
        [0.0, 0.0, PI, PI],                      # zeta 1, block at pi
        [-1.1, -1.1, 0.3, 0.3, 0.8, 0.8],        # zeta 0, three pairs
        [-2.0, -2.0, -2.0, 6.0 - 2 * PI, 0.0, 0.0],  # zeta -1 with repeats
    ]

    @pytest.mark.parametrize("args", PATTERNS)
    def test_descriptor_survives_conjugation(self, args):
        plain = diag_su(args)
        td_plain = theta_descriptor(plain)
        for seed in range(3):
            u = random_unitary(len(args), seed=1000 + seed)
            q = validate_special_unitary(u @ plain.entries @ u.conj().T)
            td = theta_descriptor(q)
            assert (td.zeta, td.is_singleton, td.nu1, td.nu2) == \
                   (td_plain.zeta, td_plain.is_singleton, td_plain.nu1, td_plain.nu2)
            x = theta_descriptor(q).base_log
            assert np.linalg.norm(expm_skew(x).entries - q.entries) <= 1e-8
            assert frobenius_norm(x.entries) ** 2 == pytest.approx(
                m_value(spectral_summary(q)), abs=1e-9)

    def test_midblock_sampling_after_conjugation(self):
        # The repeated eigenvalue sits strictly inside the spectrum, so the
        # sampler must embed the unitary into an interior block.
        plain = diag_su([2 * PI - 6.0, 2.0, 2.0, 2.0])
        u = random_unitary(4, seed=2024)
        q = validate_special_unitary(u @ plain.entries @ u.conj().T)
        td = theta_descriptor(q)
        assert (td.nu1, td.nu2) == (2, 1)
        m = m_value(spectral_summary(q))
        rng = np.random.default_rng(9)
        outs = [theta_sample(td, random_unitary(3, rng)).logs[0] for _ in range(10)]
        for x in outs:
            assert np.linalg.norm(expm_skew(x).entries - q.entries) <= 1e-9
            assert frobenius_norm(x.entries) ** 2 == pytest.approx(m, abs=1e-8)
        spread = max(np.linalg.norm(a.entries - b.entries)
                     for i, a in enumerate(outs) for b in outs[i + 1:])
        assert spread > 0.1


class TestPlogStatus:
    def test_identity(self):
        st_ = plog_status(summary_of(np.eye(4)))
        assert st_.nonempty and st_.is_singleton
        assert (st_.zeta, st_.s) == (0, 0)
        assert st_.label == "Gr(0;C^0)"

    def test_minus_identity_2(self):
        st_ = plog_status(summary_of(-np.eye(2)))
        assert st_.nonempty and not st_.is_singleton
        assert st_.label == "Gr(1;C^2)"

    def test_scalar_cube_root_is_empty(self):
        st_ = plog_status(summary_of(np.exp(2j * PI / 3) * np.eye(3)))
        assert not st_.nonempty
        assert st_.label == "empty"

    def test_equivalence_with_norm_criterion(self):
        # nonempty iff the minimal squared norm is the plain argument sum.
        cases = [
            [0.1, 0.2, -0.3],                      # zeta 0, s 0
            [PI, PI],                              # zeta 1 = s/2, inside
            [0.0, 0.0, PI, PI],                    # zeta 1, s 2
            [PI, PI, PI, PI],                      # zeta 2 = s
            [2 * PI / 3] * 3,                      # zeta 1, s 0: empty
            [-2 * PI / 3] * 3,                     # zeta -1: empty
            [0.7 * PI, 0.75 * PI, 0.75 * PI, 0.8 * PI, PI],  # zeta 2 > s 1
        ]
        for args in cases:
            sd = spectral_summary(diag_su(args))
            status = plog_status(sd)
            plain = float(np.dot(sd.args, sd.args))
            assert status.nonempty == (abs(m_value(sd) - plain) <= 1e-9)

    def test_equivalence_on_random_inputs(self):
        # Haar matrices land on both sides of the criterion once twisted by
        # scalar phases that push the winding around.
        branches = set()
        for n in (3, 4, 5):
            for i in range(20):
                q = random_special_unitary(n, seed=880 + 20 * n + i)
                twist = np.exp(2j * PI * (i % n) / n)
                sd = spectral_summary(validate_special_unitary(twist * q.entries))
                status = plog_status(sd)
                plain = float(np.dot(sd.args, sd.args))
                assert status.nonempty == (abs(m_value(sd) - plain) <= 1e-9)
                branches.add(status.nonempty)
        assert branches == {True, False}


def test_brute_force_box_too_large_is_unsupported_order():
    from sungeo import UnsupportedOrderError

    with pytest.raises(UnsupportedOrderError):
        brute_force_m((0.0,) * 10, 0, K=3)
