import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sungeo import (
    AdmissibleTuple,
    InfeasibleError,
    LatticeProblem,
    ShapeError,
    SingletonThetaError,
    adjoint_spectrum,
    brute_force_m,
    expm_skew,
    frobenius_norm,
    m_value,
    min_log,
    plog_status,
    random_special_unitary,
    random_unitary,
    spectral_summary,
    theta_descriptor,
    theta_sample,
    validate_skew_traceless,
    validate_special_unitary,
)

PI = math.pi
TWO_PI = 2 * math.pi


def diag_su(args) -> "SpecialUnitary":
    return AdmissibleTuple.from_args(args).to_special_unitary()


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

    def test_lattice_problem_psi_matches(self):
        prob = LatticeProblem(args=(PI, PI), zeta=1)
        assert prob.psi((-1, 0)) == pytest.approx(2 * PI**2, abs=1e-12)
        assert prob.psi((0, -1)) == pytest.approx(2 * PI**2, abs=1e-12)
        assert prob.spread((-1, 0)) == 1
        best, mins = brute_force_m(prob.args, prob.zeta, K=3)
        assert all(prob.psi(k) == pytest.approx(best, rel=1e-12) for k in mins)

    @given(n=st.integers(2, 6), seed=st.integers(0, 10**5))
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


class TestMinLog:
    def test_identity(self):
        x = min_log(validate_special_unitary(np.eye(3)))
        assert np.allclose(x.entries, 0.0)

    def test_minus_identity_2(self):
        q = validate_special_unitary(-np.eye(2))
        x = min_log(q)
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
        x = min_log(q)
        assert np.allclose(x.entries, np.diag([1j * PI / 2, -1j * PI / 2]), atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_roundtrip_and_norm_on_haar(self, n):
        for i in range(10):
            q = random_special_unitary(n, seed=400 + 10 * n + i)
            sd = spectral_summary(q)
            x = min_log(q)
            assert np.linalg.norm(expm_skew(x).entries - q.entries) <= 1e-8 * n
            assert frobenius_norm(x.entries) ** 2 == pytest.approx(m_value(sd), abs=1e-9)
            assert abs(np.trace(x.entries)) <= 1e-9
            assert np.linalg.norm(x.entries + x.entries.conj().T) <= 1e-9

    def test_negative_winding_orientation(self):
        q = validate_special_unitary(-1j * np.eye(4))  # winding -1
        sd = spectral_summary(q)
        assert sd.zeta == -1
        x = min_log(q)
        assert np.linalg.norm(expm_skew(x).entries - q.entries) <= 1e-12
        assert frobenius_norm(x.entries) ** 2 == pytest.approx(m_value(sd), abs=1e-10)

    def test_adjoint_symmetry(self):
        for n, seed in [(2, 0), (4, 1), (6, 2)]:
            q = random_special_unitary(n, seed=seed)
            sd = spectral_summary(q)
            sd_adj = spectral_summary(q.adjoint())
            assert m_value(sd_adj) == pytest.approx(m_value(sd), abs=1e-12)
            x_adj = min_log(q.adjoint())
            # Negating a minimal logarithm of Q^* gives one of Q.
            back = expm_skew(-x_adj)
            assert np.linalg.norm(back.entries - q.entries) <= 1e-10
            assert frobenius_norm(x_adj.entries) == pytest.approx(
                frobenius_norm(min_log(q).entries), abs=1e-10)


class TestThetaDescriptor:
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
        x = min_log(qc)
        assert frobenius_norm(x.entries) == pytest.approx(
            frobenius_norm(min_log(q).entries), abs=1e-9)
        assert np.linalg.norm(expm_skew(x).entries - qc.entries) <= 1e-9


class TestThetaSample:
    def test_identity_returns_base(self):
        q = validate_special_unitary(-np.eye(2))
        td = theta_descriptor(q)
        x = theta_sample(td, q, np.eye(2))
        assert np.allclose(x.entries, td.base_log.entries, atol=1e-14)

    def test_swap_gives_swapped_log(self):
        # Conjugating diag(pi i, -pi i) by the swap permutation by hand
        # exchanges the diagonal entries.
        q = validate_special_unitary(-np.eye(2))
        td = theta_descriptor(q)
        x = theta_sample(td, q, np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(x.entries, np.diag([-1j * PI, 1j * PI]), atol=1e-14)

    def test_givens_family(self):
        q = validate_special_unitary(-np.eye(2))
        td = theta_descriptor(q)
        seen = []
        for t in (0.3, 0.9, 1.4):
            r = np.array([[math.cos(t), -math.sin(t)],
                          [math.sin(t), math.cos(t)]], dtype=complex)
            x = theta_sample(td, q, r)
            assert frobenius_norm(x.entries) == pytest.approx(PI * math.sqrt(2), abs=1e-12)
            assert np.linalg.norm(expm_skew(x).entries + np.eye(2)) <= 1e-12
            seen.append(x.entries)
        assert np.linalg.norm(seen[0] - seen[1]) > 1e-2

    def test_singleton_rejected(self):
        q = validate_special_unitary(np.diag(np.exp(1j * np.array([0.1, 0.2, -0.3]))))
        with pytest.raises(SingletonThetaError):
            theta_sample(theta_descriptor(q), q, np.eye(1))

    def test_wrong_shape_rejected(self):
        q = validate_special_unitary(-np.eye(2))
        with pytest.raises(ShapeError):
            theta_sample(theta_descriptor(q), q, np.eye(3))

    def test_random_samples_are_minimizing_logs(self):
        q = validate_special_unitary(-np.eye(4))
        td = theta_descriptor(q)
        m = m_value(spectral_summary(q))
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = theta_sample(td, q, random_unitary(td.nu1 + td.nu2, rng))
            assert np.linalg.norm(expm_skew(x).entries - q.entries) <= 1e-8
            assert frobenius_norm(x.entries) ** 2 == pytest.approx(m, abs=1e-8)

    def test_oriented_sampling_negative_winding(self):
        q = validate_special_unitary(-1j * np.eye(4))  # winding -1
        td = theta_descriptor(q)
        assert td.oriented and not td.is_singleton
        x = theta_sample(td, q, random_unitary(td.nu1 + td.nu2, seed=3))
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
        x = min_log(q)
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


class TestConjugatedMultiplicities:
    # Repeated-eigenvalue patterns pushed through a Haar conjugation stress
    # the whole chain: eigenspace grouping, circular clustering, snapping,
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
            x = min_log(q)
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
        outs = [theta_sample(td, q, random_unitary(3, rng)) for _ in range(10)]
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
        assert (st_.grassmann_k, st_.grassmann_n) == (0, 0)
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
