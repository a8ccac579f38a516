import math

import numpy as np
import pytest

from sungeo import (
    ShapeError,
    UnsupportedOrderError,
    brute_force_m,
    diameter,
    diametral_points,
    distance,
    expm_skew,
    frobenius_norm,
    geodesic_eval,
    geodesic_family,
    log_map,
    m_value,
    random_special_unitary,
    random_unitary,
    relative_spectrum,
    spectral_summary,
    validate_special_unitary,
)

PI = math.pi


def su(entries):
    return validate_special_unitary(np.asarray(entries, dtype=complex))


I2 = su(np.eye(2))
MI2 = su(-np.eye(2))
I3 = su(np.eye(3))
W3 = su(np.exp(2j * PI / 3) * np.eye(3))


class TestDistance:
    def test_self_distance_zero(self):
        p = random_special_unitary(4, seed=3)
        assert distance(p, p) <= 1e-9

    def test_antipodal_2(self):
        assert distance(I2, MI2) == pytest.approx(PI * math.sqrt(2), abs=1e-12)

    def test_scalar_cube_root_3(self):
        assert distance(I3, W3) == pytest.approx(PI * math.sqrt(8 / 3), abs=1e-12)

    def test_quarter_turns(self):
        # Independent check: brute-force minimum over the argument lattice
        # of diag(i, -i) is (pi/2)^2 + (pi/2)^2.
        q = su(np.diag([1j, -1j]))
        sd = spectral_summary(q)
        brute, _ = brute_force_m(sd.args, sd.zeta, K=3)
        assert brute == pytest.approx(PI**2 / 2, abs=1e-12)
        assert distance(I2, q) == pytest.approx(math.sqrt(brute), abs=1e-12)
        assert distance(I2, q) == pytest.approx(PI / math.sqrt(2), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            distance(I2, I3)

    def test_symmetry_and_triangle_smoke(self):
        for n in (2, 3, 4):
            trip = [random_special_unitary(n, seed=50 * n + i) for i in range(3)]
            p, q, r = trip
            assert abs(distance(p, q) - distance(q, p)) <= 1e-9
            assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-8

    def test_bi_invariance_smoke(self):
        n = 4
        p = random_special_unitary(n, seed=1)
        q = random_special_unitary(n, seed=2)
        u = random_special_unitary(n, seed=3)
        d = distance(p, q)
        left = distance(su(u.entries @ p.entries), su(u.entries @ q.entries))
        right = distance(su(p.entries @ u.entries), su(q.entries @ u.entries))
        assert abs(left - d) <= 1e-8
        assert abs(right - d) <= 1e-8


class TestLogMap:
    def test_self_log_zero(self):
        p = random_special_unitary(3, seed=9)
        assert frobenius_norm(log_map(p, p).entries) <= 1e-9

    def test_antipodal_eigenvalues(self):
        x = log_map(I2, MI2)
        eigs = sorted(np.linalg.eigvals(x.entries).imag)
        assert eigs == pytest.approx([-PI, PI], abs=1e-12)

    def test_roundtrip_haar_order_5(self):
        for i in range(10):
            p = random_special_unitary(5, seed=210 + i)
            q = random_special_unitary(5, seed=310 + i)
            x = log_map(p, q)
            assert np.linalg.norm(p.entries @ expm_skew(x).entries - q.entries) <= 1e-8
            assert abs(frobenius_norm(x.entries) - distance(p, q)) <= 1e-9


class TestGeodesicFamily:
    def test_unique_zero_winding(self):
        fam = geodesic_family(I2, su(np.diag([1j, -1j])))
        assert fam.unique and fam.theta.is_singleton

    def test_antipodal_family(self):
        fam = geodesic_family(I2, MI2)
        assert not fam.unique
        assert fam.theta.grassmannian == (1, 2)
        assert abs(fam.distance - PI * math.sqrt(2)) <= 1e-9

    def test_boundary_pair_family(self):
        fam = geodesic_family(su(np.eye(4)), su(np.diag([-1, -1, 1, 1])))
        assert not fam.unique
        assert (fam.theta.nu1, fam.theta.nu2) == (1, 1)

    def test_length_is_distance(self):
        p = random_special_unitary(4, seed=21)
        q = random_special_unitary(4, seed=22)
        fam = geodesic_family(p, q)
        assert abs(fam.canonical.length - distance(p, q)) <= 1e-9
        assert abs(frobenius_norm(fam.canonical.X.entries) - fam.canonical.length) <= 1e-12

    def test_family_samples_are_minimizing(self):
        fam = geodesic_family(I2, MI2)
        rng = np.random.default_rng(4)
        d = fam.distance
        for _ in range(20):
            seg = fam.sample(random_unitary(2, rng))
            end = geodesic_eval(seg, 1.0)
            assert np.linalg.norm(end.entries - MI2.entries) <= 1e-8
            assert abs(seg.length - d) <= 1e-8


    # Relative spectra whose kept/shifted boundary splits a cluster; the last
    # two have zeta < s - zeta, so the pair policy takes Q^*P.
    FAMILY_SPECTRA = [
        [PI] * 2, [PI] * 4, [0.0, 0.0, PI, PI], [PI / 2] * 4,
        [2 * PI - 6.0, 2.0, 2.0, 2.0], [2 * PI / 3] * 3, [-2 * PI / 3] * 3,
        [-PI / 2] * 4,
    ]

    @pytest.mark.parametrize("args", FAMILY_SPECTRA)
    def test_canonical_log_of_a_family_is_a_minimizer(self, args):
        # Which member of the family is canonical depends on the order of
        # the eigenbasis columns inside the split cluster, which rounding
        # decides; so the test checks the minimizing property, not a matrix.
        n = len(args)
        for seed in range(4):
            u = random_unitary(n, seed=[seed, 0])
            p = random_special_unitary(n, seed=[seed, 1])
            q = su(p.entries @ (u * np.exp(1j * np.array(args))) @ u.conj().T)
            fam = geodesic_family(p, q)
            assert not fam.unique
            m = m_value(relative_spectrum(p, q))
            for x in (fam.canonical.X, log_map(p, q)):
                assert np.linalg.norm(p.entries @ expm_skew(x).entries - q.entries) <= 1e-9
                assert frobenius_norm(x.entries) ** 2 == pytest.approx(m, abs=1e-9)


class TestGeodesicEval:
    def test_endpoints(self):
        p = random_special_unitary(3, seed=31)
        q = random_special_unitary(3, seed=32)
        fam = geodesic_family(p, q)
        assert np.linalg.norm(geodesic_eval(fam.canonical, 0.0).entries - p.entries) <= 1e-12
        assert np.linalg.norm(geodesic_eval(fam.canonical, 1.0).entries - q.entries) <= 1e-7 * 3

    def test_midpoint_of_antipodes(self):
        fam = geodesic_family(I2, MI2)
        mid = geodesic_eval(fam.canonical, 0.5)
        assert np.allclose(mid.entries, np.diag([1j, -1j]), atol=1e-12)

    def test_segment_method(self):
        fam = geodesic_family(I2, MI2)
        assert np.allclose(fam.canonical.at(0.5).entries, np.diag([1j, -1j]), atol=1e-12)

    def test_extends_beyond_segment(self):
        fam = geodesic_family(I2, MI2)
        g = geodesic_eval(fam.canonical, 2.0)
        assert np.allclose(g.entries, np.eye(2), atol=1e-12)


class TestDiameter:
    def test_even_values(self):
        assert diameter(2) == PI * math.sqrt(2)
        assert diameter(4) == pytest.approx(2 * PI, abs=1e-15)

    def test_odd_values(self):
        assert diameter(3) == PI * math.sqrt(3 - 1 / 3)
        assert diameter(5) == PI * math.sqrt(5 - 1 / 5)

    def test_too_small(self):
        with pytest.raises(UnsupportedOrderError):
            diameter(1)


class TestDiametralPoints:
    def test_even_unique_antipode(self):
        rep = diametral_points(I2)
        assert len(rep.points) == 1
        assert np.allclose(rep.points[0].entries, -np.eye(2))

    def test_odd_two_points(self):
        rep = diametral_points(I3)
        assert len(rep.points) == 2
        phases = sorted(np.angle(pt.entries[0, 0]) for pt in rep.points)
        assert phases == pytest.approx([-2 * PI / 3, 2 * PI / 3], abs=1e-12)

    def test_random_even_order(self):
        p = random_special_unitary(4, seed=77)
        rep = diametral_points(p)
        assert len(rep.points) == 1
        assert abs(distance(p, rep.points[0]) - diameter(4)) <= 1e-9

    def test_random_odd_order(self):
        p = random_special_unitary(5, seed=78)
        rep = diametral_points(p)
        assert len(rep.points) == 2
        for pt in rep.points:
            assert abs(distance(p, pt) - diameter(5)) <= 1e-9

    def test_too_small(self):
        with pytest.raises(UnsupportedOrderError):
            diametral_points(su(np.eye(1)))


def test_family_orientation_when_windings_differ():
    # Relative spectrum (-pi/2 - 0.3, -pi/2 + 0.3, pi, pi, pi) has winding 1
    # while its adjoint has winding 2, so the family must be classified on
    # the adjoint. The two orientations give complementary Grassmannians of
    # the same manifold.
    from sungeo import spectral_summary, theta_descriptor

    args = np.array([-PI / 2 - 0.3, -PI / 2 + 0.3, PI, PI, PI])
    q = su(np.diag(np.exp(1j * args)))
    p = su(np.eye(5))
    rel_sd = spectral_summary(q)
    assert rel_sd.zeta == 1 and rel_sd.s == 3

    fam = geodesic_family(p, q)
    assert not fam.unique
    assert fam.theta.oriented
    assert fam.theta.zeta == 2
    assert fam.theta.grassmannian == (2, 3)
    # The unoriented descriptor sees the complementary pair of dimensions.
    assert theta_descriptor(q).grassmannian == (1, 3)

    # Canonical and sampled segments still join the endpoints minimally.
    assert np.linalg.norm(geodesic_eval(fam.canonical, 1.0).entries - q.entries) <= 1e-9
    rng = np.random.default_rng(3)
    for _ in range(5):
        seg = fam.sample(random_unitary(3, rng))
        assert np.linalg.norm(geodesic_eval(seg, 1.0).entries - q.entries) <= 1e-8
        assert abs(seg.length - fam.distance) <= 1e-9


def test_distance_bounded_by_diameter_smoke():
    for n in (2, 3, 5):
        bound = diameter(n) + 1e-8
        for i in range(25):
            p = random_special_unitary(n, seed=900 + 2 * i)
            q = random_special_unitary(n, seed=901 + 2 * i)
            assert distance(p, q) <= bound
