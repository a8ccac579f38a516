"""Spectral invariants of a special unitary matrix.

For Q in SU(n) with unit-circle eigenvalues mu_1, ..., mu_n, this module
extracts the sorted principal arguments, the winding integer
zeta = (1/2pi) sum arg(mu_j), and the multiplicity s of the eigenvalue -1,
together with a tolerance-based clustering of the spectrum. The snapped
cluster arguments make downstream equality tests between eigenvalues exact,
which the minimizing-logarithm classification depends on.

A generic spectrum, whose sorted arguments have every gap above the cluster
tolerance and both ends at least that far from +-pi, is read off from its
two ends and its gaps: each eigenvalue is its own cluster, nothing snaps and
s = 0. Only the other spectra are clustered and snapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ZetaNotIntegerError
from .matrixcore import SpecialUnitary, _frozen, unitary_eig, validate_special_unitary
from .tolerances import Tolerances

__all__ = [
    "SpectralData",
    "AdmissibleTuple",
    "spectral_summary",
    "adjoint_spectrum",
]

_TWO_PI = 2.0 * math.pi


def _principal_args(values: np.ndarray) -> np.ndarray:
    """Principal arguments in (-pi, pi]; negative reals map to +pi exactly."""
    ang = np.arctan2(values.imag, values.real)
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
    ``zeta`` the winding integer, ``s`` the multiplicity of -1 and ``basis``
    the unitary eigenbasis with columns ordered like ``args``; ``tols`` are
    Q's. ``sign`` is -1 when this is the spectrum of Q^* standing in for Q
    (``adjoint_spectrum``), so a logarithm read off it maps back to one of Q
    by negation.
    """

    args: np.ndarray
    zeta: int
    s: int
    basis: np.ndarray
    tols: Tolerances
    sign: int = 1

    @property
    def n(self) -> int:
        return len(self.args)

    @property
    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """Partition of sorted indices into runs of equal snapped arguments."""
        return _runs_of_equal(self.args)

    def __post_init__(self):
        n = len(self.args)
        if self.basis.shape != (n, n):
            raise ShapeError("basis order does not match argument count")
        args = self.args.tolist()
        if any(b < a for a, b in zip(args, args[1:])):
            raise ValueError("arguments must be sorted ascending")
        if not (-math.pi < args[0] and args[-1] <= math.pi):
            raise ValueError("arguments must lie in (-pi, pi]")
        half = n // 2
        if not (self.s - half <= self.zeta <= half):
            raise ValueError("winding integer outside its admissible range")


def _generic(ang: list[float], ctol: float) -> bool:
    """Whether sorted arguments need no merge and no snap: both ends at least
    ``ctol`` from +-pi (every other argument is nearer 0 than one of them, and
    none is -pi) and every gap above ``ctol``. Nothing can then wrap across
    the cut: the wrap gap lo + 2 pi - hi is the ends' two distances from -1.
    The gap scan stops at the first small gap."""
    lo, hi = ang[0], ang[-1]
    if math.pi - abs(lo) < ctol or math.pi - abs(hi) < ctol:
        return False
    return all(b - a > ctol for a, b in zip(ang, ang[1:]))


def _clustered(vals: np.ndarray, ang: np.ndarray, order: np.ndarray,
               ctol: float) -> tuple[np.ndarray, np.ndarray]:
    """Snapped arguments of ``vals`` in ascending order, and the order of
    ``vals`` they come in, from their arctan2 arguments ``ang`` (overwritten)
    and the stable order that sorts them."""
    if ang[order[0]] == -math.pi:
        # Principal arguments: -1 has +pi, which sorts last.
        ang[ang == -math.pi] = math.pi
        order = ang.argsort(kind="stable")
    ang_sorted = ang[order]
    labels = np.zeros(len(ang), dtype=int)
    labels[1:] = np.cumsum(ang_sorted[1:] - ang_sorted[:-1] > ctol)
    # Merge across the branch cut: -pi + eps and pi - eps are the same
    # eigenvalue cluster on the circle. Labels stay 0..k with none missing.
    if labels[-1] > 0 and ang_sorted[0] + _TWO_PI - ang_sorted[-1] < ctol:
        labels[labels == labels[-1]] = 0
    # Each cluster takes the phase of its circular mean (that of its sum, so a
    # singleton's own argument, with -0.0 made +0.0) or, on antipodal
    # cancellation, unreachable at sane tolerances, its lowest argument: that of
    # its first member in index order.
    vals = vals[order]
    sums = np.bincount(labels, vals.real) + 1j * np.bincount(labels, vals.imag)
    lowest = np.full(len(sums), np.inf)
    np.minimum.at(lowest, labels, ang_sorted)
    cancelled = np.abs(sums) < 1e-9 * np.bincount(labels)
    snapped = np.where(cancelled, lowest, _principal_args(sums))[labels]
    snapped[math.pi - np.abs(snapped) < ctol] = math.pi
    final = snapped.argsort(kind="stable")
    return snapped[final], order[final]


def spectral_summary(q: SpecialUnitary) -> SpectralData:
    """Eigendecompose Q and extract its spectral invariants at ``q.tols``.

    Eigenvalues are projected onto the unit circle and clustered by
    circular distance below ``tols.cluster``; every member of a cluster is
    snapped to the phase of the cluster's circular mean, and any cluster
    whose mean lies within ``tols.cluster`` of -1 is snapped to exactly pi.
    Clustering is circular, so eigenvalues straddling the -pi/pi boundary
    are never split. A generic spectrum, whose sorted arguments have every
    gap above ``tols.cluster`` and both ends at least ``tols.cluster`` from
    +-pi, is read off from its ends and gaps alone: its arguments are their
    own cluster phases and s = 0. The winding integer is
    the rounded value of sum(args)/2pi; a rounding residual above
    ``tols.zeta`` signals a broken input and raises ``ZetaNotIntegerError``.
    ``tols.eig`` caps the eigendecomposition reconstruction residual.
    """
    ctol = q.tols.cluster
    eigenvalues, eigenbasis, _ = unitary_eig(q)
    ang = np.arctan2(eigenvalues.imag, eigenvalues.real)
    order = ang.argsort(kind="stable")
    ang_sorted = ang[order]
    if _generic(ang_sorted.tolist(), ctol):
        # + 0.0: an imaginary part of -0.0 gives +0.0, as a cluster sum does.
        args, s = ang_sorted + 0.0, 0
    else:
        args, order = _clustered(eigenvalues, ang, order, ctol)
        s = int(np.count_nonzero(args == math.pi))
    basis = eigenbasis.take(order, axis=1)

    total = float(args.sum())
    zeta = int(round(total / _TWO_PI))
    ZetaNotIntegerError.check(abs(total - _TWO_PI * zeta), q.tols.zeta,
                              "argument sum is not a multiple of 2pi")
    return SpectralData(args=_frozen(args), zeta=zeta, s=s, basis=_frozen(basis),
                        tols=q.tols)


def adjoint_spectrum(sd: SpectralData) -> SpectralData:
    """Spectral data of Q^* from that of Q, without re-decomposing.

    Arguments away from pi are negated (and therefore re-sorted in reverse
    order); the cluster at pi stays at pi. The winding integers satisfy
    zeta(Q^*) = s - zeta(Q). Eigenvectors carry over unchanged since Q and
    Q^* share eigenspaces. This is the one function that flips a spectrum,
    and it negates ``sign``: flipping twice gives back Q's orientation.
    """
    k = sd.n - sd.s
    perm = np.arange(sd.n)
    perm[:k] = perm[:k][::-1]
    args = sd.args[perm]
    np.negative(args[:k], out=args[:k])
    return SpectralData(args=_frozen(args),
                        zeta=sd.s - sd.zeta,
                        s=sd.s,
                        basis=_frozen(sd.basis.take(perm, axis=1)),
                        tols=sd.tols, sign=-sd.sign)


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

    def to_special_unitary(self, tols: Tolerances | None = None) -> SpecialUnitary:
        """Diagonal SU(n) matrix with these arguments, validated at ``tols``."""
        diag = np.exp(1j * np.array(self.alphas))
        return validate_special_unitary(np.diag(diag), tols)
