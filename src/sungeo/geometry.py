"""Riemannian API for SU(n) with the bi-invariant Frobenius metric.

Distances come from spectra of the relative matrix P^*Q: the squared
distance is the minimal squared norm of an su(n)-logarithm of P^*Q, and
geodesics are the one-parameter curves t -> P exp(tX).

Orientation: the pair policy in ``_relative`` keeps whichever of P^*Q and
Q^*P has the larger winding (flip when zeta < s - zeta), so both endpoints
induce the same oriented spectrum, which makes the distance numerically
symmetric and the uniqueness classification well defined. Like the
single-matrix policy of ``logmin`` (flip when zeta < 0), it calls
``spectral.orient``, the one helper that flips a spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedOrderError
from .matrixcore import (
    SkewHermitianTraceless,
    SpecialUnitary,
    _readonly,
    expm_skew,
    frobenius_norm,
    validate_special_unitary,
)
from .logmin import (ThetaDescriptor, _descriptor_from_spectral, _signed, canonical_log,
                     m_value, theta_sample)
from .spectral import SpectralData, orient, spectral_summary
from .tolerances import Tolerances

__all__ = [
    "GeodesicSegment",
    "GeodesicFamily",
    "DiametralReport",
    "distance",
    "log_map",
    "geodesic_family",
    "geodesic_eval",
    "diameter",
    "diametral_points",
    "relative_spectrum",
]


def relative_spectrum(p: SpecialUnitary, q: SpecialUnitary,
                      tols: Tolerances | None = None) -> SpectralData:
    """Spectral data of the relative matrix P^*Q, which is built from the
    validated factors without a re-check (``SpecialUnitary.times``)."""
    tols = Tolerances.default(p.n) if tols is None else tols
    return spectral_summary(p.adjoint().times(q), cluster_tol=tols.cluster,
                            zeta_tol=tols.zeta, eig_tol=tols.eig)


def _relative(p: SpecialUnitary, q: SpecialUnitary,
              tols: Tolerances | None) -> tuple[SpectralData, SpectralData, int]:
    """Spectrum of P^*Q, and that spectrum oriented by the pair policy with
    its sign. The larger of zeta and s - zeta is never negative, so the
    closed forms apply directly to the oriented spectrum."""
    sd = relative_spectrum(p, q, tols=tols)
    return (sd, *orient(sd, sd.zeta < sd.s - sd.zeta))


def _distance(oriented: SpectralData) -> float:
    return math.sqrt(max(m_value(oriented), 0.0))


@dataclass(frozen=True, eq=False)
class GeodesicSegment:
    """Geodesic t -> P exp(tX); at t = 1 it reaches P exp(X)."""

    P: SpecialUnitary
    X: SkewHermitianTraceless
    length: float

    def at(self, t: float) -> SpecialUnitary:
        return geodesic_eval(self, t)


@dataclass(frozen=True, eq=False)
class GeodesicFamily:
    """All minimizing geodesic segments between two points.

    ``canonical`` is the segment of ``theta.base_log``. When ``unique`` is
    false it is the family member that rounding picks (see ``canonical_log``)
    and the others are reached by sampling the descriptor's Grassmannian.
    """

    P: SpecialUnitary
    Q: SpecialUnitary
    unique: bool
    canonical: GeodesicSegment
    theta: ThetaDescriptor
    distance: float

    def sample(self, r) -> GeodesicSegment:
        """Minimizing segment with velocity drawn from the family; ``r`` is
        a unitary of order nu1 + nu2."""
        x = theta_sample(self.theta, self.P.adjoint().times(self.Q), r)
        return GeodesicSegment(self.P, x, frobenius_norm(x.entries))


@dataclass(frozen=True, eq=False)
class DiametralReport:
    """Diameter of SU(n) and the diametral partners of a point."""

    n: int
    diameter: float
    points: tuple[SpecialUnitary, ...]


def distance(p: SpecialUnitary, q: SpecialUnitary,
             tols: Tolerances | None = None) -> float:
    """Geodesic distance induced by the Frobenius metric."""
    return _distance(_relative(p, q, tols)[1])


def log_map(p: SpecialUnitary, q: SpecialUnitary,
            tols: Tolerances | None = None) -> SkewHermitianTraceless:
    """Canonical velocity X with P exp(X) = Q and ||X|| = d(P, Q)."""
    tols = Tolerances.default(p.n) if tols is None else tols
    _, sd, sign = _relative(p, q, tols)
    return _signed(canonical_log(sd, alg_tolerance=tols.alg), sign)


def geodesic_family(p: SpecialUnitary, q: SpecialUnitary,
                    tols: Tolerances | None = None) -> GeodesicFamily:
    """Classify and parametrize the minimizing geodesics joining P and Q.

    The segment is unique iff the oriented relative spectrum has zeta = 0,
    or zeta >= 1 with distinct eigenvalues on the two sides of the kept /
    shifted boundary; otherwise the family is a complex Grassmannian
    recorded in the descriptor.
    """
    tols = Tolerances.default(p.n) if tols is None else tols
    _, sd, sign = _relative(p, q, tols)
    td = _descriptor_from_spectral(sd, sign, alg_tolerance=tols.alg)
    x = td.base_log
    length = frobenius_norm(x.entries)
    seg = GeodesicSegment(p, x, length)
    return GeodesicFamily(P=p, Q=q, unique=td.is_singleton, canonical=seg,
                          theta=td, distance=length)


def geodesic_eval(seg: GeodesicSegment, t: float,
                  tols: Tolerances | None = None) -> SpecialUnitary:
    """Point P exp(tX) on the (complete) geodesic through the segment."""
    n = seg.P.n
    tols = Tolerances.default(n) if tols is None else tols
    e = expm_skew(seg.X.scaled(t), tol=tols.group)
    # Accumulated tolerance headroom, as for any internal product.
    return validate_special_unitary(seg.P.entries @ e.entries,
                                    tol=10.0 * tols.group)


def diameter(n: int) -> float:
    """Diameter of SU(n): pi sqrt(n) for even n, pi sqrt(n - 1/n) for odd."""
    if n < 2:
        raise UnsupportedOrderError("diameter requires order at least 2")
    if n % 2 == 0:
        return math.pi * math.sqrt(n)
    return math.pi * math.sqrt(n - 1.0 / n)


def diametral_points(p: SpecialUnitary,
                     tols: Tolerances | None = None) -> DiametralReport:
    """Points at maximal distance from P.

    For even n the unique diametral partner is -P; for odd n there are
    exactly two, e^{+-(n-1) pi i / n} P. Each partner c P has |c| = 1 and
    c^n = 1, so it keeps P's residuals, as ``SpecialUnitary.adjoint`` does;
    ``tols`` is accepted for compatibility and no check needs it.
    """
    n = p.n
    if n < 2:
        raise UnsupportedOrderError("diametral points require order at least 2")
    if n % 2 == 0:
        entries = (-p.entries,)
    else:
        phase = (n - 1) * math.pi / n
        entries = (np.exp(1j * phase) * p.entries, np.exp(-1j * phase) * p.entries)
    points = tuple(SpecialUnitary(_readonly(e), p.unitarity_residual, p.det_residual)
                   for e in entries)
    return DiametralReport(n=n, diameter=diameter(n), points=points)
