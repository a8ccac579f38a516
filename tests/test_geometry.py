import json
import math
import warnings

import numpy as np
import pytest

from sungeo import (
    NotFiniteError,
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
    theta_sample,
    unitary_product,
    validate_skew_traceless,
    validate_special_unitary,
)
import sungeo.geometry
from sungeo.cli import MatrixFile, main
from conftest import random_skew_traceless

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

    def test_fields_by_name(self):
        # The family and its segment are built positionally: read each field by name.
        p, q = random_special_unitary(3, seed=[5, 1]), random_special_unitary(3, seed=[5, 2])
        fam = geodesic_family(p, q)
        td, seg = fam.theta, fam.canonical
        assert (fam.P, fam.Q, fam.unique) == (p, q, td.is_singleton) and fam.unique
        assert fam.distance == distance(p, q) and td.q.entries.shape == (3, 3)
        assert (seg.P, seg.X, seg.length) == (p, td.base_log, frobenius_norm(td.base_log.entries))
        assert seg.basis is td.spectral.basis and seg.angles is td.angles and seg.theta is td

    def test_velocity_is_built_when_first_read(self):
        # The family builds no X; the first read builds and caches it, and
        # the canonical X is the descriptor's base_log, the same object.
        p, q = random_special_unitary(3, seed=[5, 1]), random_special_unitary(3, seed=[5, 2])
        fam = geodesic_family(p, q)
        seg, td = fam.canonical, fam.theta
        geodesic_eval(seg, 0.5)
        assert not {"X", "length"} & set(vars(seg)) and "base_log" not in vars(td)
        x = seg.X
        assert x is td.base_log and seg.X is x
        length = seg.length
        assert seg.length is length and length == frobenius_norm(x.entries)

    def test_sampled_segments_hold_the_sampler_logs_and_norms(self, monkeypatch):
        # Each sample segment's X is theta_sample's log object and its length
        # the sampler's norm: nothing is built again.
        fam = geodesic_family(I2, MI2)
        drawn = []
        monkeypatch.setattr(sungeo.geometry, "theta_sample",
                            lambda td, r: drawn.append(theta_sample(td, r)) or drawn[-1])
        segs = fam.sample(random_unitary(2, seed=5, count=3))
        [samples] = drawn
        assert len(segs) == 3
        for seg, x, norm in zip(segs, samples.logs, samples.norms):
            assert seg.X is x and seg.length is norm and seg.theta is fam.theta

    def test_length_is_distance(self):
        p = random_special_unitary(4, seed=21)
        q = random_special_unitary(4, seed=22)
        fam = geodesic_family(p, q)
        assert abs(fam.canonical.length - distance(p, q)) <= 1e-9
        assert abs(frobenius_norm(fam.canonical.X.entries) - fam.canonical.length) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 8, 33])
    def test_length_is_the_frobenius_norm(self, n):
        pairs = [(random_special_unitary(n, seed=[23, n, i]),
                  random_special_unitary(n, seed=[24, n, i])) for i in range(4)]
        pairs.append((su(np.eye(n)), su(np.exp(2j * PI / n) * np.eye(n))))
        for p, q in pairs:
            fam = geodesic_family(p, q)
            segs = [fam.canonical]
            if not fam.unique:
                segs.append(fam.sample(random_unitary(fam.theta.nu1 + fam.theta.nu2, seed=n))[0])
            for seg in segs:
                assert seg.length == frobenius_norm(seg.X.entries)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 32])
    def test_family_distance_is_the_distance(self, n):
        pairs = [(random_special_unitary(n, seed=900 + 2 * i),
                  random_special_unitary(n, seed=901 + 2 * i)) for i in range(10)]
        if n == 2:
            pairs.append((I2, MI2))
        for p, q in pairs:
            fam = geodesic_family(p, q)
            assert fam.distance == distance(p, q)

    def test_stacked_samples_are_the_single_samples(self):
        # A stack gives a tuple of segments, each bit for bit its slice's;
        # one unitary is the stack of one.
        p = random_special_unitary(4, seed=8)
        fam = geodesic_family(p, su(-p.entries))
        rs = random_unitary(4, seed=12, count=4)
        singles = [single for (single,) in map(fam.sample, rs)]
        segs = fam.sample(rs)
        assert isinstance(segs, tuple) and len(segs) == 4
        for seg, single in zip(segs, singles):
            assert seg.X.entries.tobytes() == single.X.entries.tobytes()
            assert seg.basis.tobytes() == single.basis.tobytes()
            assert seg.angles.tobytes() == single.angles.tobytes()
            assert (geodesic_eval(seg, 0.5).entries.tobytes()
                    == geodesic_eval(single, 0.5).entries.tobytes())

    def test_family_samples_are_minimizing(self):
        fam = geodesic_family(I2, MI2)
        rng = np.random.default_rng(4)
        d = fam.distance
        for _ in range(20):
            seg = fam.sample(random_unitary(2, rng))[0]
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

    @pytest.mark.parametrize("args", FAMILY_SPECTRA)
    def test_sampled_lengths_are_the_single_norms_bit_for_bit(self, args):
        # The sampler reads its members' norms off one batched call; each is
        # bit for bit frobenius_norm of the member, and so is its segment's length.
        n = len(args)
        u = random_unitary(n, seed=[n, 0])
        p = random_special_unitary(n, seed=[n, 1])
        fam = geodesic_family(p, su(p.entries @ (u * np.exp(1j * np.array(args))) @ u.conj().T))
        rs = random_unitary(fam.theta.nu1 + fam.theta.nu2, seed=n, count=6)
        drawn = theta_sample(fam.theta, rs)
        singles = tuple(frobenius_norm(x.entries) for x in drawn.logs)
        assert drawn.norms == singles
        assert tuple(seg.length for seg in fam.sample(rs)) == singles

    def orientation_pairs(self):
        """Haar pairs and pairs with the family spectra, in both pair
        orientations."""
        for n in (2, 3, 4, 5, 8):
            for seed in range(10):
                yield (random_special_unitary(n, seed=[n, seed, 0]),
                       random_special_unitary(n, seed=[n, seed, 1]))
        for args in self.FAMILY_SPECTRA:
            n = len(args)
            for seed in range(2):
                u = random_unitary(n, seed=[seed, 0])
                p = random_special_unitary(n, seed=[seed, 1])
                yield p, su(p.entries @ (u * np.exp(1j * np.array(args))) @ u.conj().T)

    def test_log_map_is_the_canonical_velocity(self):
        for p, q in self.orientation_pairs():
            x = geodesic_family(p, q).canonical.X
            assert log_map(p, q).entries.tobytes() == x.entries.tobytes()

    def test_distance_is_the_root_of_m_on_both_orientations(self, tmp_path, capsys):
        # The distance is read off P^*Q's spectrum as it is, so the dist
        # report's distance is sqrt of its m exactly, and the family's distance
        # is distance(p, q), whether or not the pair policy flips the spectrum.
        # The last pair has P^*Q with spectrum (-1.7, 1.7 - pi, pi): s = 1 and
        # zeta = 0, which the pair policy flips. Summed on the flipped
        # spectrum, its m rounds to a distance 1 ulp larger than this one.
        u = random_unitary(3, seed=[0, 0])
        p3 = random_special_unitary(3, seed=[0, 1])
        minus_one = su(p3.entries @ (u * np.exp(1j * np.array([-1.7, 1.7 - PI, PI])))
                       @ u.conj().T)
        sd = relative_spectrum(p3, minus_one)
        assert (sd.zeta, sd.s) == (0, 1)
        for p, q in [*self.orientation_pairs(), (p3, minus_one)]:
            paths = []
            for name, m in (("P", p), ("Q", q)):
                paths.append(str(tmp_path / f"{name}.json"))
                MatrixFile(m.entries).dump(paths[-1])
            assert main(["dist", *paths]) == 0
            out = json.loads(capsys.readouterr().out)["outputs"]
            assert out["distance"] == math.sqrt(out["m"]) == distance(p, q)
            assert distance(p, q) == geodesic_family(p, q).distance


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

    def test_extends_beyond_segment(self):
        fam = geodesic_family(I2, MI2)
        g = geodesic_eval(fam.canonical, 2.0)
        assert np.allclose(g.entries, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_is_rejected(self, t):
        fam = geodesic_family(I2, MI2)
        for seg in (fam.canonical, *fam.sample(random_unitary(2, seed=6))):
            with pytest.raises(NotFiniteError):
                geodesic_eval(seg, t)

    def test_overflowing_phases_are_rejected_without_warnings(self):
        # t is finite, but t times the largest angle (4 pi / 3) is not.
        fam = geodesic_family(I3, W3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e308, -1e308):
                with pytest.raises(NotFiniteError):
                    geodesic_eval(fam.canonical, t)

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_large_finite_parameters_stay_in_the_group(self, n):
        # t * angles carries a rounding error that grows with |t|; the phases
        # are reduced modulo 2 pi with their sum moved onto a multiple of
        # 2 pi, so the point passes the group gates at any finite t.
        for i in range(3):
            p = random_special_unitary(n, seed=10 + i)
            q = random_special_unitary(n, seed=20 + i)
            seg = geodesic_family(p, q).canonical
            for t in (1e8, 1e10, 1e12, -1e12):
                g = geodesic_eval(seg, t)
                assert g.unitarity_residual <= p.tols.group
                assert g.det_residual <= p.tols.group
                assert np.linalg.norm(g.entries @ g.entries.conj().T - np.eye(n)) <= 1e-13 * n
                assert abs(np.linalg.det(g.entries) - 1.0) <= 1e-13 * n

    TS = (-1.0, 0.0, 0.25, 0.5, 1.0, 2.0)

    def assert_agrees_with_expm_skew(self, seg, q):
        n = seg.P.n
        for t in self.TS:
            tx = validate_skew_traceless(t * seg.X.entries, seg.X.tols)
            reference = seg.P.entries @ expm_skew(tx).entries
            assert np.linalg.norm(geodesic_eval(seg, t).entries - reference) <= 1e-13 * n
        assert np.linalg.norm(geodesic_eval(seg, 1.0).entries - q.entries) <= q.tols.eig

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 32])
    def test_agrees_with_expm_skew_on_haar_pairs(self, n):
        for i in range(5):
            p = random_special_unitary(n, seed=[n, i, 0])
            q = random_special_unitary(n, seed=[n, i, 1])
            self.assert_agrees_with_expm_skew(geodesic_family(p, q).canonical, q)

    def test_agrees_with_expm_skew_on_sampled_segments(self):
        fam = geodesic_family(I2, MI2)
        rng = np.random.default_rng(7)
        self.assert_agrees_with_expm_skew(fam.canonical, MI2)
        for _ in range(5):
            self.assert_agrees_with_expm_skew(fam.sample(random_unitary(2, rng))[0], MI2)

    def test_agrees_with_expm_skew_through_the_adjoint(self):
        # A boundary spectrum with winding 1 whose adjoint winds twice: the
        # segments are read off P^*Q, whose top member of -1 is shifted.
        args = np.array([-PI / 2 - 0.3, -PI / 2 + 0.3, PI, PI, PI])
        u = random_unitary(5, seed=8)
        p = random_special_unitary(5, seed=9)
        q = su(p.entries @ (u * np.exp(1j * args)) @ u.conj().T)
        fam = geodesic_family(p, q)
        assert (fam.theta.zeta, fam.theta.nu1, fam.theta.nu2) == (1, 2, 1) and not fam.unique
        rng = np.random.default_rng(10)
        self.assert_agrees_with_expm_skew(fam.canonical, q)
        for _ in range(5):
            self.assert_agrees_with_expm_skew(fam.sample(random_unitary(3, rng))[0], q)


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

    @pytest.mark.parametrize("n", [10 ** 400, 10 ** 400 + 1], ids=["even", "odd"])
    def test_order_beyond_float_range_is_unsupported(self, n):
        with pytest.raises(UnsupportedOrderError):
            diameter(n)


class TestDiametralPoints:
    def test_even_unique_antipode(self):
        points = diametral_points(I2)
        assert len(points) == 1
        assert np.allclose(points[0].entries, -np.eye(2))

    def test_odd_two_points(self):
        points = diametral_points(I3)
        assert len(points) == 2
        phases = sorted(np.angle(pt.entries[0, 0]) for pt in points)
        assert phases == pytest.approx([-2 * PI / 3, 2 * PI / 3], abs=1e-12)

    def test_random_even_order(self):
        p = random_special_unitary(4, seed=77)
        points = diametral_points(p)
        assert len(points) == 1
        assert abs(distance(p, points[0]) - diameter(4)) <= 1e-9

    def test_random_odd_order(self):
        p = random_special_unitary(5, seed=78)
        points = diametral_points(p)
        assert len(points) == 2
        for pt in points:
            assert abs(distance(p, pt) - diameter(5)) <= 1e-9

    def test_too_small(self):
        with pytest.raises(UnsupportedOrderError):
            diametral_points(su(np.eye(1)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_partners_are_strict_local_maxima(self, n):
        # Each partner C lies in the cut locus of P, so moving it to
        # C exp(eps Y) along any unit Y in su(n) lowers the distance from P
        # linearly in eps.
        rng = np.random.default_rng(4100 + n)
        p = random_special_unitary(n, rng)
        ys = [validate_skew_traceless(random_skew_traceless(n, rng)) for _ in range(50)]
        top = diameter(n)
        for c in diametral_points(p):
            for y in ys:
                for eps in (1e-2, 1e-3):
                    step = validate_skew_traceless(eps * y.entries, y.tols)
                    moved = unitary_product(c, expm_skew(step))
                    assert distance(p, moved) < top - 0.25 * eps


HOLE_ORDERS = [*range(2, 17), 33, 128, 255, 256]


def hole_classes(n):
    """Every class a = 1..n-1 up to n = 16; above it the classes next to the
    lattice points (1, 2, n-1) and the deep ones (floor and ceil of n/2)."""
    return range(1, n) if n <= 16 else sorted({1, 2, n // 2, n - n // 2, n - 1})


class TestLatticeHoles:
    """P^*Q = e^{2 pi i a / n} I is the hole of class a of 2 pi A_{n-1}: at
    squared distance 4 pi^2 a (n - a) / n from the lattice, with its C(n, a)
    nearest points spanning the family Gr(min(a, n - a); C^n). The classes
    floor(n/2) and ceil(n/2) are the deep holes, which give the diameter."""

    @pytest.mark.parametrize("n", HOLE_ORDERS)
    def test_distance_and_family_at_every_class(self, n):
        p = random_special_unitary(n, seed=[5200, n])
        for a in hole_classes(n):
            q = su(np.exp(2j * PI * a / n) * p.entries)
            expected = 2 * PI * math.sqrt(a * (n - a) / n)
            d = distance(p, q)
            assert abs(d - expected) <= 1e-14 * expected
            if a in (n // 2, n - n // 2):
                assert abs(d - diameter(n)) <= 1e-14 * expected
            assert geodesic_family(p, q).theta.grassmannian == (min(a, n - a), n)

    @pytest.mark.parametrize("n", HOLE_ORDERS)
    def test_diametral_points_are_the_deep_holes(self, n):
        p = random_special_unitary(n, seed=[5300, n])
        holes = [np.exp(2j * PI * a / n) * p.entries for a in dict.fromkeys((n // 2, n - n // 2))]
        points = diametral_points(p)
        assert len(points) == len(holes)
        for pt, hole in zip(points, holes):
            assert np.abs(pt.entries - hole).max() <= 1e-15
        if len(points) == 1:
            assert (points[0].entries == -p.entries).all()


def test_family_orientation_when_windings_differ():
    # Relative spectrum (-pi/2 - 0.3, -pi/2 + 0.3, pi, pi, pi) has winding 1
    # while its adjoint has winding 2. The family is read off P^*Q as it is,
    # one of the three -1 members shifted, and labelled as Q^*P reads it, two
    # of three shifted, so that both orders and Q alone report one label:
    # Gr(1; C^3) and Gr(2; C^3) are the same manifold.
    from sungeo import spectral_summary, theta_descriptor

    args = np.array([-PI / 2 - 0.3, -PI / 2 + 0.3, PI, PI, PI])
    q = su(np.diag(np.exp(1j * args)))
    p = su(np.eye(5))
    rel_sd = spectral_summary(q)
    assert rel_sd.zeta == 1 and rel_sd.s == 3

    fam = geodesic_family(p, q)
    assert not fam.unique
    assert (fam.theta.zeta, fam.theta.nu1, fam.theta.nu2) == (1, 2, 1)
    assert fam.theta.grassmannian == geodesic_family(q, p).theta.grassmannian == (2, 3)
    assert theta_descriptor(q).grassmannian == (2, 3)

    # Canonical and sampled segments still join the endpoints minimally.
    assert np.linalg.norm(geodesic_eval(fam.canonical, 1.0).entries - q.entries) <= 1e-9
    rng = np.random.default_rng(3)
    for _ in range(5):
        seg = fam.sample(random_unitary(3, rng))[0]
        assert np.linalg.norm(geodesic_eval(seg, 1.0).entries - q.entries) <= 1e-8
        assert abs(seg.length - fam.distance) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_geodesics_answer_when_the_pair_drifts_in_determinant(n):
    # P and Q each pass validation with det e^{+-i eps}, so det(P^*Q) =
    # e^{-2i eps} and the canonical angles sum to arg det(P^*Q) = -2 eps, past
    # the su(n) gate on a trace. A point is formed from the basis and angles,
    # which need no X; the logarithm takes the angles less their mean, so it
    # is traceless and still reaches Q within the eig gate.
    tols = validate_special_unitary(np.eye(n)).tols
    for frac in (0.1, 0.5, 0.9):
        turn = np.exp(1j * frac * tols.group / n)
        for i in range(20):
            p = su(random_special_unitary(n, seed=[n, i, 1]).entries * turn)
            q = su(random_special_unitary(n, seed=[n, i, 2]).entries / turn)
            fam = geodesic_family(p, q)
            start, _, end = (geodesic_eval(fam.canonical, t) for t in (0.0, 0.5, 1.0))
            assert np.linalg.norm(start.entries - p.entries) <= tols.eig
            assert np.linalg.norm(end.entries - q.entries) <= tols.eig
            x = log_map(p, q)
            assert np.linalg.norm(p.entries @ expm_skew(x).entries - q.entries) <= tols.eig
            assert abs(frobenius_norm(x.entries) - fam.distance) <= tols.eig


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_family_samples_answer_when_the_pair_drifts_in_determinant(n):
    # The same drift on pairs whose P^*Q is the deep hole e^{2 pi i a / n} I,
    # a = n // 2, turned by e^{-2i eps / n}: a family, whose samples and
    # canonical logarithm are traceless and reach Q within the eig gate.
    tols = validate_special_unitary(np.eye(n)).tols
    hole = np.exp(2j * PI * (n // 2) / n)
    for frac in (0.1, 0.5, 0.9):
        turn = np.exp(1j * frac * tols.group / n)
        for i in range(20):
            base = random_special_unitary(n, seed=[n, i, 1]).entries
            p, q = su(base * turn), su(base * (hole / turn))
            fam = geodesic_family(p, q)
            assert not fam.unique
            segs = fam.sample(random_unitary(n, seed=[n, i, 3], count=3))
            for x in (fam.canonical.X, *(seg.X for seg in segs)):
                assert np.linalg.norm(p.entries @ expm_skew(x).entries - q.entries) <= tols.eig
            for seg in segs:
                assert np.linalg.norm(geodesic_eval(seg, 1.0).entries - q.entries) <= tols.eig


def test_distance_bounded_by_diameter_smoke():
    for n in (2, 3, 5):
        bound = diameter(n) + 1e-8
        for i in range(25):
            p = random_special_unitary(n, seed=900 + 2 * i)
            q = random_special_unitary(n, seed=901 + 2 * i)
            assert distance(p, q) <= bound
