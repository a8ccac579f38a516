"""Spectral invariants of a special unitary matrix.

For Q in SU(n) with unit-circle eigenvalues mu_1, ..., mu_n, this module
extracts the sorted principal arguments, the winding integer
zeta = (1/2pi) sum arg(mu_j), and the multiplicity s of the eigenvalue -1,
together with a tolerance-based clustering of the spectrum. The snapped
cluster arguments make downstream equality tests between eigenvalues exact,
which the minimizing-logarithm classification depends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ZeroInputError, ZetaNotIntegerError
from .matrixcore import SpecialUnitary, _readonly, unitary_eig, validate_special_unitary
from .tolerances import ZETA_TOL, Tolerances

__all__ = [
    "SpectralData",
    "AdmissibleTuple",
    "principal_arg",
    "spectral_summary",
    "adjoint_spectrum",
    "orient",
]

_TWO_PI = 2.0 * math.pi


def principal_arg(z: complex) -> float:
    """Principal argument in (-pi, pi]; negative reals map to +pi exactly."""
    zc = complex(z)
    if zc == 0:
        raise ZeroInputError("argument of zero is undefined")
    ang = math.atan2(zc.imag, zc.real)
    return math.pi if ang == -math.pi else ang


def _principal_args(values: np.ndarray) -> np.ndarray:
    ang = np.angle(values)
    ang[ang == -np.pi] = np.pi
    return ang


def _runs_of_equal(args: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Contiguous runs of exactly equal entries in a sorted array."""
    edges = [0, *(np.flatnonzero(args[1:] != args[:-1]) + 1).tolist(), len(args)]
    return tuple(tuple(range(lo, hi)) for lo, hi in zip(edges, edges[1:]))


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Snapped, sorted spectral fingerprint of a special unitary matrix.

    ``args`` are the principal arguments sorted ascending in (-pi, pi],
    ``zeta`` the winding integer, ``s`` the multiplicity of -1, ``clusters``
    the partition of sorted indices into runs of equal snapped arguments,
    and ``basis`` the unitary eigenbasis with columns ordered like ``args``.
    """

    args: np.ndarray
    zeta: int
    s: int
    clusters: tuple[tuple[int, ...], ...]
    basis: np.ndarray

    @property
    def n(self) -> int:
        return len(self.args)

    def __post_init__(self):
        n = len(self.args)
        if self.basis.shape != (n, n):
            raise ShapeError("basis order does not match argument count")
        if n > 1 and np.any(np.diff(self.args) < 0):
            raise ValueError("arguments must be sorted ascending")
        if not (-math.pi < self.args[0] and self.args[-1] <= math.pi):
            raise ValueError("arguments must lie in (-pi, pi]")
        half = n // 2
        if not (self.s - half <= self.zeta <= half):
            raise ValueError("winding integer outside its admissible range")


def spectral_summary(q: SpecialUnitary, cluster_tol: float | None = None,
                     zeta_tol: float | None = None,
                     eig_tol: float | None = None) -> SpectralData:
    """Eigendecompose Q and extract its spectral invariants.

    Eigenvalues are projected onto the unit circle and clustered by
    circular distance below ``cluster_tol``; every member of a cluster is
    snapped to the phase of the cluster's circular mean, and any cluster
    whose mean lies within ``cluster_tol`` of -1 is snapped to exactly pi.
    Clustering is circular, so eigenvalues straddling the -pi/pi boundary
    are never split. The winding integer is the rounded value of
    sum(args)/2pi; a rounding residual above ``zeta_tol`` signals a broken
    input and raises ``ZetaNotIntegerError``. ``eig_tol`` caps the
    eigendecomposition reconstruction residual.
    """
    n = q.n
    ctol = Tolerances.default(n).cluster if cluster_tol is None else float(cluster_tol)
    ztol = ZETA_TOL if zeta_tol is None else float(zeta_tol)

    dec = unitary_eig(q, tol=eig_tol)
    ang = _principal_args(dec.eigenvalues)
    order = np.argsort(ang, kind="stable")
    ang_sorted, vals = ang[order], dec.eigenvalues[order]

    labels = np.zeros(n, dtype=int)
    labels[1:] = np.cumsum(np.diff(ang_sorted) > ctol)
    # Merge across the branch cut: -pi + eps and pi - eps are the same
    # eigenvalue cluster on the circle. Labels stay 0..k with none missing.
    if labels[-1] > 0 and (ang_sorted[0] + _TWO_PI - ang_sorted[-1]) < ctol:
        labels[labels == labels[-1]] = 0

    # Each cluster takes the phase of its circular mean (that of its sum) or,
    # on antipodal cancellation, unreachable at sane tolerances, its lowest
    # argument: that of its first member in index order.
    sums = np.bincount(labels, vals.real) + 1j * np.bincount(labels, vals.imag)
    lowest = np.full(len(sums), np.inf)
    np.minimum.at(lowest, labels, ang_sorted)
    cancelled = np.abs(sums) < 1e-9 * np.bincount(labels)
    centre = np.where(cancelled, lowest, _principal_args(sums))
    centre[math.pi - np.abs(centre) < ctol] = math.pi
    snapped = centre[labels]

    final = np.argsort(snapped, kind="stable")
    args = snapped[final]
    basis = dec.basis[:, order[final]]

    clusters = _runs_of_equal(args)
    s = len(clusters[-1]) if args[-1] == math.pi else 0

    total = float(args.sum())
    zeta = int(round(total / _TWO_PI))
    ZetaNotIntegerError.check(abs(total - _TWO_PI * zeta), ztol,
                              "argument sum is not a multiple of 2pi")
    return SpectralData(args=_readonly(args), zeta=zeta, s=s,
                        clusters=clusters, basis=_readonly(basis))


def adjoint_spectrum(sd: SpectralData) -> SpectralData:
    """Spectral data of Q^* from that of Q, without re-decomposing.

    Arguments away from pi are negated (and therefore re-sorted in reverse
    order); the cluster at pi stays at pi. The winding integers satisfy
    zeta(Q^*) = s - zeta(Q). Eigenvectors carry over unchanged since Q and
    Q^* share eigenspaces.
    """
    args = sd.args
    pi_mask = args == math.pi
    nonpi_idx = np.nonzero(~pi_mask)[0][::-1]
    pi_idx = np.nonzero(pi_mask)[0]
    perm = np.concatenate([nonpi_idx, pi_idx])
    new_args = np.concatenate([-args[nonpi_idx], args[pi_idx]])
    return SpectralData(args=_readonly(new_args),
                        zeta=sd.s - sd.zeta,
                        s=sd.s,
                        clusters=_runs_of_equal(new_args),
                        basis=_readonly(sd.basis[:, perm]))


def orient(sd: SpectralData, flip: bool) -> tuple[SpectralData, int]:
    """The spectrum of Q^* and sign -1 when ``flip``, else ``sd`` and +1.

    The sign maps logarithms of the returned spectrum back to those of Q.
    The policies deciding ``flip`` live in ``logmin`` and ``geometry``.
    """
    return (adjoint_spectrum(sd), -1) if flip else (sd, 1)


@dataclass(frozen=True)
class AdmissibleTuple:
    """Sorted argument tuple in (-pi, pi] summing to 2*pi*zeta.

    These tuples are exactly the spectra that special unitary matrices can
    have, which makes them convenient for constructing test inputs with a
    prescribed winding integer.
    """

    alphas: tuple[float, ...]
    zeta: int

    @property
    def n(self) -> int:
        return len(self.alphas)

    def __post_init__(self):
        n = len(self.alphas)
        if n < 1:
            raise ShapeError("tuple must be nonempty")
        if any(b < a for a, b in zip(self.alphas, self.alphas[1:])):
            raise ValueError("arguments must be sorted ascending")
        if not (-math.pi < self.alphas[0] and self.alphas[-1] <= math.pi):
            raise ValueError("arguments must lie in (-pi, pi]")
        if abs(self.zeta) > n // 2:
            raise ValueError("winding integer outside its admissible range")
        resid = abs(math.fsum(self.alphas) - _TWO_PI * self.zeta)
        if resid > 1e-9 * n:
            raise ValueError(f"arguments sum to 2*pi*{self.zeta} + {resid:.3e}")

    @classmethod
    def from_args(cls, alphas) -> "AdmissibleTuple":
        alphas = tuple(sorted(float(a) for a in alphas))
        zeta = int(round(math.fsum(alphas) / _TWO_PI))
        return cls(alphas=alphas, zeta=zeta)

    def to_special_unitary(self, tol: float | None = None) -> SpecialUnitary:
        """Diagonal SU(n) matrix with these eigenvalue arguments."""
        diag = np.exp(1j * np.array(self.alphas))
        return validate_special_unitary(np.diag(diag), tol=tol)
