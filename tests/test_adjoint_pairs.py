"""Q and Q^*, and (P, Q) and (Q, P), read off their own spectra.

Every spectrum is read as it is. Q^* winds s - zeta where Q winds zeta, and
its minimal logarithms are those of Q negated, so the two describe one
family: one at the top of one spectrum is at the bottom of the other, or, at
-1, split the other way. The corpus holds the spectra where the two
windings differ most: zeta < 0 (a cluster split at the bottom, a lattice
hole past the half turn, Haar draws) and 0 < zeta < s - zeta (a -1 cluster
split at the top), at n <= 8, each conjugated by a Haar unitary.
"""

import itertools
import math

import numpy as np
import pytest

from sungeo import (
    geodesic_family,
    grassmann_label,
    m_value,
    random_special_unitary,
    random_unitary,
    spectral_summary,
    theta_descriptor,
    theta_sample,
    validate_special_unitary,
)

PI = math.pi
TWO_PI = 2 * math.pi
ORDERS = range(3, 9)


def spectra(n: int) -> list:
    """Argument tuples of order n with zeta < 0 or 0 < zeta < s - zeta."""
    rng = np.random.default_rng([n, 17])
    found = [[TWO_PI * (a - n) / n] * n for a in range(n // 2 + 1, n)]   # holes, zeta = a - n
    for s in range(1, n):
        for zeta in range(s - n // 2, n // 2 + 1):
            mean = (TWO_PI * zeta - s * PI) / (n - s)
            if (zeta < 0 or 0 < zeta < s - zeta) and abs(mean) < PI - 0.3:
                e = rng.uniform(-1, 1, n - s) * (PI - abs(mean)) / 3
                found.append([*(mean + e - e.mean()), *[PI] * s])
    # A cluster of k at the bottom that the boundary splits: zeta = -1.
    k, c = (2, -2.6) if n < 5 else (3, -2.2)
    spread = np.linspace(-1.0, 1.0, n - k)
    found.append([c] * k + list(spread - spread.mean() - (TWO_PI + k * c) / (n - k)))
    return found


def matrices(n: int) -> list:
    """Q for each spectrum of order n, and Haar draws with zeta < 0."""
    qs = []
    for i, args in enumerate(spectra(n)):
        u = random_unitary(n, seed=[n, i, 3])
        qs.append(validate_special_unitary((u * np.exp(1j * np.array(args))) @ u.conj().T))
    haar = (random_special_unitary(n, seed=[n, i, 4]) for i in itertools.count())
    qs += list(itertools.islice((q for q in haar if spectral_summary(q).zeta < 0), 2))
    return qs


def adjoint(q):
    return validate_special_unitary(q.entries.conj().T, q.tols)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_corpus_covers_both_kinds():
    # -1 split at the top needs s >= 3 off a cut mean, so n >= 5.
    for n in ORDERS:
        kinds = {sd.zeta < 0 for sd in map(spectral_summary, matrices(n))}
        assert kinds == ({True} if n < 5 else {True, False})
        families = [td for td in map(theta_descriptor, matrices(n)) if not td.is_singleton]
        assert {td.zeta < 0 for td in families} == ({True} if n < 5 else {True, False})


@pytest.mark.parametrize("n", ORDERS)
def test_descriptors_of_q_and_its_adjoint_agree(n):
    for q in matrices(n):
        td, ta = theta_descriptor(q), theta_descriptor(adjoint(q))
        assert ta.zeta == td.spectral.s - td.zeta
        assert td.is_singleton == ta.is_singleton
        assert close(m_value(td.spectral), m_value(ta.spectral))
        if td.zeta < 0:
            # The kept side of the bottom boundary of Q's spectrum is that of
            # the top boundary of Q^*'s.
            assert td.beta_arg == pytest.approx(-ta.beta_arg, abs=1e-9)
        if td.is_singleton:
            continue
        assert {td.nu1, td.nu2} == {ta.nu1, ta.nu2}
        if td.zeta < 0:
            # One family, shifted up at the bottom of Q's spectrum and down
            # at the top of Q^*'s: the same members shift.
            assert (td.nu1, td.nu2) == (ta.nu1, ta.nu2)
            assert grassmann_label(*td.grassmannian) == grassmann_label(*ta.grassmannian)
        else:
            # Split inside -1 the other way: each descriptor names the
            # complementary Grassmannian of one manifold.
            assert (td.nu1, td.nu2) == (ta.nu2, ta.nu1)


@pytest.mark.parametrize("n", ORDERS)
def test_pair_families_agree_in_both_orders(n):
    for i, q in enumerate(matrices(n)):
        p = random_special_unitary(n, seed=[n, i, 5])
        pq = validate_special_unitary(p.entries @ q.entries)
        ab, ba = geodesic_family(p, pq), geodesic_family(pq, p)
        assert ab.unique == ba.unique
        assert close(ab.distance ** 2, ba.distance ** 2)
        if ab.unique:
            assert ab.grassmannian is ba.grassmannian is None
            continue
        assert {ab.theta.nu1, ab.theta.nu2} == {ba.theta.nu1, ba.theta.nu2}
        assert grassmann_label(*ab.grassmannian) == grassmann_label(*ba.grassmannian)


def exp_skew(x: np.ndarray) -> np.ndarray:
    """exp(X) for skew-Hermitian X, from numpy's eigh of the Hermitian -iX."""
    w, v = np.linalg.eigh(-1j * x)
    return (v * np.exp(1j * w)) @ v.conj().T


@pytest.mark.parametrize("n", ORDERS)
def test_sampled_members_are_minimal_logarithms(n):
    sampled = 0
    for i, q in enumerate(matrices(n)):
        td = theta_descriptor(q)
        if td.is_singleton:
            continue
        m = m_value(td.spectral)
        drawn = theta_sample(td, random_unitary(td.nu1 + td.nu2, seed=[n, i, 6], count=4))
        for x in (td.base_log, *drawn.logs):
            assert np.linalg.norm(exp_skew(x.entries) - q.entries) <= 1e-12 * n
            assert abs(np.linalg.norm(x.entries) ** 2 - m) <= 1e-12 * max(1.0, m)
            sampled += 1
    assert sampled >= 5
