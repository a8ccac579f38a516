"""Minimal-norm logarithms in su(n).

For Q in SU(n) every su(n)-logarithm has eigenvalues
(arg(mu_j) + 2 pi k_j) i with integer k_j summing to -zeta(Q), so the
squared norm of a minimal logarithm is

    m(Q) = min { sum_j (arg(mu_j) + 2 pi k_j)^2 : sum_j k_j = -zeta(Q) }.

This module provides the closed form for m(Q) (assuming zeta >= 0), the
canonical minimizing logarithm, the descriptor of the full solution set
Theta(Q) together with a sampler of its Grassmannian family, the classifier
for generalized principal logarithms, and an independent brute-force
lattice oracle that enumerates the integer tuples directly.

Orientation: a single matrix with a negative winding is handled through its
adjoint (policy: flip when zeta < 0, in ``_nonnegative``). The pair policy
of ``geometry`` (flip when zeta < s - zeta) and this one both call
``spectral.orient``, the one helper that flips a spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InfeasibleError,
    NotUnitaryError,
    ResidualExceededError,
    ShapeError,
    SingletonThetaError,
    UnsupportedOrderError,
)
from .matrixcore import (
    SkewHermitianTraceless,
    SpecialUnitary,
    expm_skew,
    validate_skew_traceless,
)
from .spectral import SpectralData, orient, spectral_summary
from .tolerances import ZETA_TOL, Tolerances

__all__ = [
    "LatticeProblem",
    "ThetaDescriptor",
    "PlogStatus",
    "m_value",
    "brute_force_m",
    "min_log",
    "canonical_log",
    "theta_descriptor",
    "theta_sample",
    "plog_status",
    "grassmann_label",
]

_TWO_PI = 2.0 * math.pi


def grassmann_label(k: int, m: int) -> str:
    """Complex Grassmannian of k-planes in C^m, as a report label."""
    return f"Gr({k};C^{m})"


def _nonnegative(sd: SpectralData) -> tuple[SpectralData, int]:
    """Single-matrix orientation: Q^* when Q has a negative winding."""
    return orient(sd, sd.zeta < 0)


def _signed(x: SkewHermitianTraceless, sign: int) -> SkewHermitianTraceless:
    """Map a logarithm of an oriented spectrum back through its sign. By
    negation: a complex product by -1 changes the signs of zero entries."""
    return -x if sign < 0 else x


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def m_value(sd: SpectralData) -> float:
    """Squared Frobenius norm of a minimal su(n)-logarithm.

    For zeta = 0 this is sum(args^2). For zeta >= 1 the last zeta sorted
    arguments contribute (2 pi - arg)^2 instead, which corresponds to the
    integer assignment with zeta entries -1 at the top of the spectrum.
    Negative windings are evaluated on the adjoint spectrum; the minimum is
    invariant under conjugation of Q.
    """
    sd, _ = _nonnegative(sd)
    args = sd.args
    if sd.zeta == 0:
        return float(args @ args)
    head = args[:sd.n - sd.zeta]
    tail = _TWO_PI - args[sd.n - sd.zeta:]
    return float(head @ head + tail @ tail)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeProblem:
    """Integer-lattice form of the minimal-logarithm problem.

    Minimize psi(k) = sum_j (args_j + 2 pi k_j)^2 over integer tuples with
    sum(k) = -zeta.
    """

    args: tuple[float, ...]
    zeta: int

    @property
    def n(self) -> int:
        return len(self.args)

    def psi(self, k) -> float:
        k = tuple(k)
        if len(k) != self.n:
            raise ShapeError("tuple length does not match argument count")
        return math.fsum((a + _TWO_PI * kj) ** 2 for a, kj in zip(self.args, k))

    @staticmethod
    def spread(k) -> int:
        """max(k) - min(k); minimizers always have spread at most 1."""
        return max(k) - min(k)


@lru_cache(maxsize=None)
def _feasible_tuples(n: int, k_max: int, total: int) -> np.ndarray:
    """All integer tuples of length n with entries in [-k_max, k_max] and the
    given sum, in lexicographic order. Cached per (n, k_max, total)."""
    if abs(total) > k_max * n:
        return np.empty((0, n), dtype=np.int8)
    if n == 1:
        return np.array([[total]], dtype=np.int8)
    blocks = []
    for first in range(-k_max, k_max + 1):
        rest = _feasible_tuples(n - 1, k_max, total - first)
        if len(rest):
            lead = np.full((len(rest), 1), first, dtype=np.int8)
            blocks.append(np.hstack([lead, rest]))
    if not blocks:
        return np.empty((0, n), dtype=np.int8)
    out = np.vstack(blocks)
    out.setflags(write=False)
    return out


def brute_force_m(args, zeta: int, K: int = 3,
                  tie_tol: float = 1e-9) -> tuple[float, list[tuple[int, ...]]]:
    """Exhaustive minimization of psi over the integer box [-K, K]^n.

    Enumerates every integer tuple with entries in [-K, K] summing to
    -zeta, evaluates psi on all of them, and returns the minimum together
    with every minimizer (sorted lexicographically). Floating-point ties
    within ``tie_tol`` relative to the minimum count as minimizers; exact
    ties between permuted sums can differ by a few ulps.

    This path never consults the closed form, so it serves as an
    independent oracle for it.

    Parameters
    ----------
    args : sequence of float
        Sorted argument tuple summing to 2*pi*zeta.
    zeta : int
        Winding integer of the tuple.
    K : int
        Half-width of the search box; must be at least 2 so the box is
        strictly larger than where minimizers can live.
    """
    arr = np.asarray(args, dtype=float)
    n = len(arr)
    if n < 1:
        raise ShapeError("argument tuple must be nonempty")
    if np.any(np.diff(arr) < 0):
        raise ValueError("arguments must be sorted ascending")
    if K < 2:
        raise ValueError("search box half-width must be at least 2")
    resid = abs(float(arr.sum()) - _TWO_PI * zeta)
    if resid > ZETA_TOL:
        raise ValueError(f"arguments do not sum to 2*pi*{zeta} (residual {resid:.3e})")
    if (2 * K + 1) ** n > 100_000_000:
        raise UnsupportedOrderError("search box too large to enumerate")
    if K * n < abs(zeta):
        raise InfeasibleError("no tuple in the box satisfies the sum constraint")
    table = _feasible_tuples(n, int(K), -int(zeta))
    shifted = arr[None, :] + _TWO_PI * table.astype(float)
    psi = np.einsum("ij,ij->i", shifted, shifted)
    best = float(psi.min())
    cutoff = best + tie_tol * max(1.0, best)
    minimizers = sorted(tuple(int(v) for v in row) for row in table[psi <= cutoff])
    return best, minimizers


# ---------------------------------------------------------------------------
# canonical minimizing logarithm
# ---------------------------------------------------------------------------

def _canonical_angles(sd: SpectralData) -> np.ndarray:
    angles = np.array(sd.args, dtype=float)
    if sd.zeta > 0:
        angles[sd.n - sd.zeta:] -= _TWO_PI
    return angles


def canonical_log(sd: SpectralData,
                  alg_tolerance: float | None = None) -> SkewHermitianTraceless:
    """Canonical minimal logarithm from spectral data with zeta >= 0.

    Keeps the first n - zeta sorted arguments, shifts the last zeta by -2 pi
    and conjugates back through the eigenbasis. If the kept/shifted boundary
    splits a cluster, rounding orders the basis columns inside it: this is one
    member of the family Gr(nu2; C^(nu1+nu2)), and rounding may pick another.
    """
    if sd.zeta < 0:
        raise ValueError("canonical form requires a nonnegative winding; "
                         "orient through the adjoint first")
    angles = _canonical_angles(sd)
    u = sd.basis
    x = (u * (1j * angles)) @ u.conj().T
    x = (x - x.conj().T) / 2.0
    return validate_skew_traceless(x, tol=alg_tolerance)


def min_log(q: SpecialUnitary,
            tols: Tolerances | None = None) -> SkewHermitianTraceless:
    """A minimal-norm su(n)-logarithm of Q.

    Exponentiates back to Q and has squared norm m(Q). Negative windings
    are handled by taking the canonical logarithm of Q^* and negating,
    which maps minimal logarithms of Q^* onto those of Q.
    """
    return theta_descriptor(q, tols=tols).base_log


# ---------------------------------------------------------------------------
# the solution set Theta(Q)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ThetaDescriptor:
    """Structure of the set of minimal logarithms of Q.

    The set is a single point unless zeta >= 1 and mu_{n-zeta} = mu_{n-zeta+1}
    (the kept/shifted boundary splits a cluster); then it is diffeomorphic to
    the complex Grassmannian Gr(nu2; C^(nu1+nu2)), nu1 and nu2 counting the
    boundary eigenvalue on each side, and ``base_log`` is the member that
    rounding picks (see ``canonical_log``). ``oriented`` records that the
    descriptor was computed for Q^* (outputs negated) because Q had negative
    winding. ``spectral`` keeps the oriented spectral data so sampling reuses
    the exact basis of ``base_log``.
    """

    n: int
    zeta: int
    is_singleton: bool
    base_log: SkewHermitianTraceless
    beta_arg: float | None
    nu1: int | None
    nu2: int | None
    oriented: bool
    spectral: SpectralData

    @property
    def grassmannian(self) -> tuple[int, int] | None:
        """(k, m) for Gr(k; C^m) when the set is a family, else None."""
        if self.is_singleton:
            return None
        return (self.nu2, self.nu1 + self.nu2)

    @property
    def sign(self) -> int:
        """Sign mapping logarithms of ``spectral`` back to those of Q."""
        return -1 if self.oriented else 1


def _descriptor_from_spectral(sd: SpectralData, sign: int,
                              alg_tolerance: float | None = None) -> ThetaDescriptor:
    """Descriptor from an oriented spectrum (zeta >= 0) and its sign."""
    base = _signed(canonical_log(sd, alg_tolerance=alg_tolerance), sign)
    n, zeta, args = sd.n, sd.zeta, sd.args
    # The set is a family when the boundary between kept and shifted
    # arguments splits a cluster; sorted, so each side's part is contiguous.
    beta = float(args[n - zeta - 1]) if zeta > 0 else None
    family = zeta > 0 and args[n - zeta] == beta
    return ThetaDescriptor(n=n, zeta=zeta, is_singleton=not family, base_log=base,
                           beta_arg=beta,
                           nu1=int(np.sum(args[:n - zeta] == beta)) if family else None,
                           nu2=int(np.sum(args[n - zeta:] == beta)) if family else None,
                           oriented=sign < 0, spectral=sd)


def theta_descriptor(q: SpecialUnitary,
                     tols: Tolerances | None = None) -> ThetaDescriptor:
    """Describe the set of minimal logarithms of Q.

    The winding is oriented to be nonnegative through the adjoint; the
    family structure is unchanged by that because negation maps the
    solution set of Q^* onto that of Q.
    """
    tols = Tolerances.default(q.n) if tols is None else tols
    sd = spectral_summary(q, cluster_tol=tols.cluster, zeta_tol=tols.zeta,
                          eig_tol=tols.eig)
    return _descriptor_from_spectral(*_nonnegative(sd), alg_tolerance=tols.alg)


def theta_sample(td: ThetaDescriptor, q: SpecialUnitary, r,
                 tols: Tolerances | None = None) -> SkewHermitianTraceless:
    """Sample the Grassmannian family of minimal logarithms.

    Embeds the unitary ``r`` of order nu1 + nu2 into the eigenblock of the
    boundary eigenvalue (identity elsewhere: only block unitaries commute
    with the block-scalar diagonal) and conjugates the canonical diagonal
    logarithm by it in the spectral basis. Every output exponentiates to Q
    and has squared norm m(Q); distinct cosets of r give distinct
    logarithms, though the orbit map is not injective.
    """
    return _sample(td, q, r, tols)[0]


def _sample(td: ThetaDescriptor, q: SpecialUnitary, r,
            tols: Tolerances | None = None) -> tuple[SkewHermitianTraceless, float]:
    """``theta_sample`` and its checked round-trip residual ||exp(X) - Q||_F."""
    if td.is_singleton:
        raise SingletonThetaError("the set of minimal logarithms is a single point")
    tols = Tolerances.default(td.n) if tols is None else tols
    block = td.nu1 + td.nu2
    rm = np.asarray(r, dtype=np.complex128)
    if rm.shape != (block, block):
        raise ShapeError(f"expected a unitary of order {block}, got shape {rm.shape}")
    NotUnitaryError.check(float(np.linalg.norm(rm @ rm.conj().T - np.eye(block))),
                          Tolerances.default(block).alg, "sampling matrix is not unitary")
    if q.n != td.n:
        raise ShapeError(f"order mismatch: descriptor {td.n}, matrix {q.n}")

    sd = td.spectral
    angles = _canonical_angles(sd)
    start = sd.n - td.zeta - td.nu1
    full = np.eye(sd.n, dtype=np.complex128)
    full[start:start + block, start:start + block] = rm
    core = (full * (1j * angles)) @ full.conj().T
    u = sd.basis
    x = u @ core @ u.conj().T
    x = (x - x.conj().T) / 2.0
    out = _signed(validate_skew_traceless(x, tol=tols.alg), td.sign)
    check = expm_skew(out, tol=tols.group)
    resid = ResidualExceededError.check(
        float(np.linalg.norm(check.entries - q.entries)), tols.eig,
        "sampled logarithm does not exponentiate to the given matrix")
    return out, resid


# ---------------------------------------------------------------------------
# generalized principal logarithms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlogStatus:
    """Existence and shape of generalized principal su(n)-logarithms.

    Nonempty exactly when 0 <= zeta <= s, in which case the set is a
    complex Grassmannian Gr(zeta; C^s), a single point iff zeta is 0 or s
    (including the degenerate Gr(0; C^0) convention for matrices without
    the eigenvalue -1).
    """

    nonempty: bool
    zeta: int
    s: int
    grassmann_k: int | None
    grassmann_n: int | None
    is_singleton: bool

    @property
    def label(self) -> str:
        if not self.nonempty:
            return "empty"
        return grassmann_label(self.grassmann_k, self.grassmann_n)


def plog_status(sd: SpectralData) -> PlogStatus:
    """Classify the generalized principal logarithms of Q from its spectrum.

    Equivalently: nonempty iff the minimal squared log norm equals
    sum(args^2), i.e. no argument needs to wind past the principal branch.
    """
    nonempty = 0 <= sd.zeta <= sd.s
    if not nonempty:
        return PlogStatus(nonempty=False, zeta=sd.zeta, s=sd.s,
                          grassmann_k=None, grassmann_n=None,
                          is_singleton=False)
    return PlogStatus(nonempty=True, zeta=sd.zeta, s=sd.s,
                      grassmann_k=sd.zeta, grassmann_n=sd.s,
                      is_singleton=sd.zeta in (0, sd.s))
