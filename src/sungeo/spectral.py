"""Spectral invariants of a special unitary matrix.

For Q in SU(n) with unit-circle eigenvalues mu_1, ..., mu_n, this module
extracts their sorted arguments, the winding integer
zeta = (1/2pi) sum arg(mu_j), the multiplicity s of the eigenvalue -1 and a
partition of the spectrum into clusters. The cluster tolerance decides only
these discrete answers: the arguments are the solver's, lifted by whole
turns, so every continuous answer read off them is continuous in Q.

A spectrum is Q's and is read as it is, for either sign of zeta: the
minimizing shift moves the top zeta arguments down a turn when zeta > 0 and
the bottom -zeta up a turn when zeta < 0 (``logmin``). Q^* has the winding
s - zeta; nothing here builds its spectrum from Q's.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ZetaNotIntegerError
from .matrixcore import SpecialUnitary, _frozen, unitary_eig, validate_special_unitary
from .tolerances import Tolerances

__all__ = [
    "SpectralData",
    "AdmissibleTuple",
    "spectral_summary",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Sorted spectral fingerprint of a special unitary matrix.

    ``args`` are the eigenvalues' arguments in ascending order, within one
    turn, lifted so that each cluster is contiguous and the -1 cluster comes
    last (a member at -pi + e reads pi + e). ``sizes`` are the cluster sizes
    in that order, ``zeta`` the winding integer of ``args``, ``s`` the size
    of the -1 cluster and ``basis`` the eigenbasis ordered like ``args``;
    ``tols`` are Q's.
    """

    args: np.ndarray
    zeta: int
    s: int
    sizes: tuple[int, ...]
    basis: np.ndarray
    tols: Tolerances

    @property
    def n(self) -> int:
        return len(self.args)

    def __post_init__(self):
        n = len(self.args)
        if self.basis.shape != (n, n):
            raise ShapeError("basis order does not match argument count")
        args = self.args.tolist()
        if any(map(operator.lt, args[1:], args)):
            raise ValueError("arguments must be sorted ascending")
        if not args[-1] - args[0] <= _TWO_PI:
            raise ValueError("arguments must lie within one turn")
        if not (self.s - n // 2 <= self.zeta <= n // 2):
            raise ValueError("winding integer outside its admissible range")


def _generic(ang: list[float], ctol: float) -> bool:
    """Whether sorted arguments need no merge and no lift: both ends at least
    ``ctol`` from +-pi (every other argument is nearer 0 than one of them, and
    none is -pi) and every gap above ``ctol``. Nothing can then wrap across
    the cut: the wrap gap lo + 2 pi - hi is the ends' two distances from -1.
    The gap scan stops at the first small gap."""
    lo, hi = ang[0], ang[-1]
    if math.pi - abs(lo) < ctol or math.pi - abs(hi) < ctol:
        return False
    return all(map(ctol.__lt__, map(operator.sub, ang[1:], ang)))


def _lift(a: np.ndarray, k: int) -> np.ndarray:
    """Sorted ``a``, its bottom k a turn up at the end (k < 0: top -k a turn down first)."""
    return np.concatenate((a[k:], a[:k] + _TWO_PI) if k >= 0 else (a[k:] - _TWO_PI, a[:k]))


def _clustered(a: np.ndarray, ctol: float) -> tuple[int, list[int], int]:
    """Clusters of the sorted arguments ``a``, chains with gaps at most
    ``ctol`` (the bottom one joins the top one when lo + 2 pi - hi is below
    ``ctol``), as the lift of ``a`` (``_lift``), the sizes in lifted order and s.

    The top cluster, and the bottom one a turn up, are read as -1 when their
    mean lies within ``ctol`` of pi, unless they then sum to a quarter turn
    or more from s pi. A wrapped cluster that is not -1 goes first, a turn
    down, when its mean lies past pi. So every other cluster has its mean
    in [-pi, pi], and zeta is admissible once it passes its gate."""
    n = len(a)
    ang = a.tolist()
    cuts = [j for j, d in enumerate(map(operator.sub, ang[1:], ang), 1) if d > ctol]
    sizes = list(map(operator.sub, [*cuts, n], [0, *cuts]))
    lo, hi = sizes[0], sizes[-1]
    top, bottom = float((a[n - hi:] - math.pi).sum()), float((a[:lo] + math.pi).sum())
    wrapped = len(sizes) > 1 and ang[0] + _TWO_PI - ang[-1] < ctol
    if wrapped:
        at_top = at_bottom = abs(top + bottom) < (lo + hi) * ctol
    else:
        at_top = abs(top) < hi * ctol
        at_bottom = abs(bottom) < lo * ctol and not (at_top and len(sizes) == 1)
    s = hi * at_top + lo * at_bottom
    if s and abs(top * at_top + bottom * at_bottom) < math.pi / 2:
        return lo * at_bottom, [*sizes[at_bottom:len(sizes) - at_top], s], s
    if not wrapped:
        return 0, sizes, 0
    if top + bottom > 0:
        return -hi, [lo + hi, *sizes[1:-1]], 0
    return lo, [*sizes[1:-1], lo + hi], 0


def spectral_summary(q: SpecialUnitary) -> SpectralData:
    """Eigendecompose Q and extract its spectral invariants at ``q.tols``.

    The arctan2 arguments of the eigenvalues are sorted and clustered by
    circular distance below ``tols.cluster`` (``_clustered``), so clusters
    straddling -1 are never split, and lifted by whole turns. A generic
    spectrum (``_generic``) is read off from its ends and gaps alone: each
    argument is its own cluster and s = 0. The winding integer is the
    rounded value of sum(args)/2pi; a rounding residual above ``tols.zeta``
    signals a broken input and raises ``ZetaNotIntegerError``.
    ``tols.eig`` caps the eigendecomposition reconstruction residual.
    """
    ctol = q.tols.cluster
    eigenvalues, eigenbasis, _ = unitary_eig(q)
    ang = np.arctan2(eigenvalues.imag, eigenvalues.real)
    order = ang.argsort(kind="stable")
    # + 0.0: an imaginary part of -0.0 gives an argument of +0.0.
    args = ang[order] + 0.0
    if _generic(args.tolist(), ctol):
        sizes, s = (1,) * len(args), 0
    else:
        k, sizes, s = _clustered(args, ctol)
        args, order = _lift(args, k), np.concatenate((order[k:], order[:k]))

    total = float(np.add.reduce(args))
    zeta = int(round(total / _TWO_PI))
    ZetaNotIntegerError.check(abs(total - _TWO_PI * zeta), q.tols.zeta,
                              "argument sum is not a multiple of 2pi")
    # Fields in order, not by keyword: a keyword call costs more than the
    # arithmetic here at small n.
    return SpectralData(_frozen(args), zeta, s, tuple(sizes),
                        _frozen(eigenbasis.take(order, axis=1)), q.tols)


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
