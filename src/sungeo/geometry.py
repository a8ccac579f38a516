"""Riemannian API for SU(n) with the bi-invariant Frobenius metric.

Distances come from spectra of the relative matrix P^*Q: the squared
distance is the minimal squared norm of an su(n)-logarithm of P^*Q, and
geodesics are the one-parameter curves t -> P exp(tX).

Lattice reading: the zero-sum lifts of P^*Q's arguments differ by points of
2 pi A_{n-1}, and m(P^*Q) is the squared distance from a lift to that lattice.
So the diameter is 2 pi times its covering radius, 2 pi sqrt(a (n - a) / n)
with a = n // 2, reached only at the deep holes e^{+-2 pi i a / n} I (Conway &
Sloane, *Sphere Packings, Lattices and Groups*, ch. 4 sec. 6.1).

Orientation: the distance, the logarithm and the family are read off the
spectrum of P^*Q as it is. Q^*P is its adjoint, with winding s - zeta, and
its minimal logarithms are the negations of those of P^*Q, so (P, Q) and
(Q, P) are joined by one family of minimizing segments. Its Grassmannian has
two names, Gr(k; C^m) and Gr(m - k; C^m); ``ThetaDescriptor.grassmannian``
gives the one both orders report.

No function here takes a tolerance: P^*Q, its spectrum, its logarithms and the
points of a geodesic carry P's (``unitary_product`` checks points at 10x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotFiniteError, UnsupportedOrderError
from .matrixcore import (
    SkewHermitianTraceless,
    SpecialUnitary,
    _exp_in_basis,
    _frobenius,
    _frozen,
    _special_unitary,
    unitary_product,
)
from .logmin import ThetaDescriptor, canonical_log, m_value, theta_descriptor, theta_sample
from .spectral import _TWO_PI, SpectralData, spectral_summary

__all__ = [
    "GeodesicSegment",
    "GeodesicFamily",
    "distance",
    "log_map",
    "geodesic_family",
    "geodesic_eval",
    "diameter",
    "diametral_points",
    "relative_spectrum",
]


def relative_spectrum(p: SpecialUnitary, q: SpecialUnitary) -> SpectralData:
    """Spectral data of the relative matrix P^*Q, which is built from the
    validated factors without a re-check (``SpecialUnitary.adjoint_times``)."""
    return spectral_summary(p.adjoint_times(q))


@dataclass(frozen=True, eq=False)
class GeodesicSegment:
    """Geodesic t -> P exp(tX); at t = 1 it reaches P exp(X).

    The segment is fixed by the spectral form of its velocity,
    X = U diag(i angles) U^* with U = ``basis`` and the real, signed
    ``angles`` of the descriptor or of a sample (``theta_sample``), so
    ``geodesic_eval`` reads a point on it off one product in that basis and
    never reads X. ``theta`` describes the family the segment belongs to.
    The canonical segment's ``X`` is ``theta.base_log`` and its ``length`` is
    ||X||_F, both built the first time they are read; a sampled segment
    holds the logarithm and norm that ``theta_sample`` drew for it.
    """

    P: SpecialUnitary
    basis: np.ndarray
    angles: np.ndarray
    theta: ThetaDescriptor

    @cached_property
    def X(self) -> SkewHermitianTraceless:
        return self.theta.base_log

    @cached_property
    def length(self) -> float:
        return _frobenius(self.X.entries)


@dataclass(frozen=True, eq=False)
class GeodesicFamily:
    """All minimizing geodesic segments between two points.

    ``theta`` describes the minimal logarithms of P^*Q (its ``q``), and
    ``canonical`` is the segment of ``theta.base_log``, which neither is built
    nor checked until it is read. When ``unique`` is false it is the family
    member that rounding picks (see ``canonical_log``) and the others are
    reached by sampling the descriptor's Grassmannian. ``distance`` is
    ``distance(P, Q)`` bit for bit; ``canonical.length`` is ||X||_F, equal to
    it up to rounding.
    """

    P: SpecialUnitary
    Q: SpecialUnitary
    unique: bool
    canonical: GeodesicSegment
    theta: ThetaDescriptor
    distance: float

    def sample(self, r) -> tuple[GeodesicSegment, ...]:
        """Minimizing segments with velocities drawn from the family, one for
        each unitary of the (k, nu1 + nu2, nu1 + nu2) stack ``r``, built
        together by ``theta_sample``; one unitary is the k = 1 stack. A
        segment holds its sample's rotated basis and angles, from which
        ``geodesic_eval`` forms its points, and its logarithm
        X = A + 2 pi i sigma W W^* and norm."""
        drawn = theta_sample(self.theta, r)
        segs = tuple(GeodesicSegment(self.P, basis, drawn.angles, self.theta)
                     for basis in drawn.bases)
        for seg, x, length in zip(segs, drawn.logs, drawn.norms):
            vars(seg).update(X=x, length=length)  # cached as if already read
        return segs


def distance(p: SpecialUnitary, q: SpecialUnitary) -> float:
    """Geodesic distance induced by the Frobenius metric: sqrt(m(P^*Q))."""
    return math.sqrt(m_value(relative_spectrum(p, q)))


def log_map(p: SpecialUnitary, q: SpecialUnitary) -> SkewHermitianTraceless:
    """Canonical velocity X with P exp(X) = Q and ||X|| = d(P, Q)."""
    return canonical_log(relative_spectrum(p, q))


def geodesic_family(p: SpecialUnitary, q: SpecialUnitary) -> GeodesicFamily:
    """Classify and parametrize the minimizing geodesics joining P and Q.

    The segment is unique iff the relative spectrum has distinct eigenvalues
    on the two sides of the kept / shifted boundary, as when zeta = 0;
    otherwise the family is a complex Grassmannian recorded in the
    descriptor and labelled by ``ThetaDescriptor.grassmannian``.
    """
    td = theta_descriptor(p.adjoint_times(q))
    seg = GeodesicSegment(p, td.spectral.basis, td.angles, td)
    # m(P^*Q) off the descriptor's canonical angles, bit for bit ``m_value``.
    return GeodesicFamily(p, q, td.is_singleton, seg, td,
                          math.sqrt(float(td.angles.dot(td.angles))))


def geodesic_eval(seg: GeodesicSegment, t: float) -> SpecialUnitary:
    """Point P exp(tX) on the (complete) geodesic through the segment.

    exp(tX) = U diag(e^{i t angles}) U^* is one product in the segment's
    basis, validated at P's tolerances (which X carries too) as ``expm_skew``
    validates its result; ``unitary_product`` checks the point at 10x. X
    itself is never read. A ``t`` that is not finite, or whose phases
    t * angles overflow, raises ``NotFiniteError``. Any other ``t`` gives a
    point in SU(n): the phases are reduced modulo 2 pi and the excess of
    their sum over the nearest multiple of 2 pi is spread evenly over them.
    """
    t = float(t)
    # Python floats overflow to inf without the warning numpy would give. max
    # may pass over a NaN angle; the sum of the angles does not.
    angles = seg.angles.tolist()
    if not math.isfinite(t * max(map(abs, angles))) or math.isnan(sum(angles)):
        raise NotFiniteError(f"curve parameter {t!r} gives non-finite phases")
    # The rounding of t * angles grows with |t| and moves the phase sum, which
    # is 0 for a traceless X, off a multiple of 2 pi, and det(exp(tX)) off 1.
    phases = np.fmod(t * seg.angles, _TWO_PI)
    total = float(np.add.reduce(phases))
    phases -= (total - _TWO_PI * round(total / _TWO_PI)) / len(phases)
    exp_tx = _exp_in_basis(seg.basis, phases)
    tols = seg.P.tols
    return unitary_product(seg.P, _special_unitary(exp_tx, tols, tols.group))


def diameter(n: int) -> float:
    """Diameter of SU(n): 2 pi sqrt(a (n - a) / n) with a = n // 2. An order
    too large for a float raises ``UnsupportedOrderError``."""
    if n < 2:
        raise UnsupportedOrderError("diameter requires order at least 2")
    a = n // 2
    try:
        return _TWO_PI * math.sqrt(a * (n - a) / n)
    except OverflowError:
        raise UnsupportedOrderError("order too large to convert to a float") from None


def diametral_points(p: SpecialUnitary) -> tuple[SpecialUnitary, ...]:
    """Points at maximal distance from P: the distinct members of
    e^{+-2 pi i a / n} P = -e^{-+i pi (n - 2a) / n} P, a = n // 2. Each
    partner c P has |c| = 1 and c^n = 1, so it keeps P's residuals and
    tolerances, as P^* does in ``adjoint_times``, and needs no check."""
    n = p.n
    if n < 2:
        raise UnsupportedOrderError("diametral points require order at least 2")
    a = n // 2
    # n - 2a = 0 for even n gives -P exactly; negating the product, not P,
    # keeps the signed zeros of -I.
    return tuple(SpecialUnitary(_frozen(-(np.exp(1j * math.pi * k / n) * p.entries)),
                                p.unitarity_residual, p.det_residual, p.tols)
                 for k in dict.fromkeys((2 * a - n, n - 2 * a)))
