"""Minimal-norm logarithms in su(n).

For Q in SU(n) every su(n)-logarithm has eigenvalues
(arg(mu_j) + 2 pi k_j) i with integer k_j summing to -zeta(Q), so the
squared norm of a minimal logarithm is

    m(Q) = min { sum_j (arg(mu_j) + 2 pi k_j)^2 : sum_j k_j = -zeta(Q) }.

This module provides the closed form for m(Q), the canonical minimizing
logarithm, the descriptor of the full solution set Theta(Q) together with a
sampler of its Grassmannian family, the classifier for generalized principal
logarithms, and an independent lattice oracle: a dynamic program over
positions that minimizes exactly over the box [-K, K]^n, lists every tuple
within a relative ``_TIE_TOL`` (1e-9) of the minimum and rejects boxes of
more than 1e8 tuples.

``theta_sample`` is the one sampler of a family. It takes a (k, b, b) stack
of sampling unitaries, batch axis first as in geomstats, one unitary being the
k = 1 stack; each member is bit for bit what its slice gives alone.

Orientation: everything here reads Q's spectrum as it is, for either sign of
zeta. The minimizing shift (``_canonical_angles``) moves the top zeta
arguments down a turn when zeta > 0 and the bottom -zeta up a turn when
zeta < 0, so the kept/shifted boundary (``_boundary``) lies below the top
zeta arguments or above the bottom -zeta. A family is the cluster that
boundary splits, at the top of the spectrum or, mirrored, at the bottom; nu1
counts its kept members and nu2 its shifted ones.
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import (
    InfeasibleError,
    NotFiniteError,
    NotUnitaryError,
    ResidualExceededError,
    ShapeError,
    SingletonThetaError,
    UnsupportedOrderError,
)
from .matrixcore import (
    SkewHermitianTraceless,
    SpecialUnitary,
    _exp_in_basis,
    _frobenius,
    _frobenius_stack,
    _frozen,
    _skew_traceless,
    _special_unitary,
)
from .spectral import _TWO_PI, SpectralData, spectral_summary
from .tolerances import ZETA_TOL, Tolerances

__all__ = [
    "ThetaDescriptor",
    "PlogStatus",
    "m_value",
    "brute_force_m",
    "canonical_log",
    "theta_descriptor",
    "ThetaSamples",
    "theta_sample",
    "plog_status",
    "grassmann_label",
]

_TIE_TOL = 1e-9  # relative slack of a tie in ``brute_force_m``


def grassmann_label(k: int, m: int) -> str:
    """Complex Grassmannian of k-planes in C^m, as a report label."""
    return f"Gr({k};C^{m})"


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def _canonical_angles(sd: SpectralData) -> np.ndarray:
    """The sorted arguments plus 2 pi times the minimizing integers: -1 on the
    top zeta for zeta > 0, +1 on the bottom -zeta for zeta < 0, 0 elsewhere.
    Only the moved slice is touched: adding 0.0 would turn -0.0 into +0.0."""
    angles = np.array(sd.args, dtype=float)
    if sd.zeta > 0:
        angles[sd.n - sd.zeta:] -= _TWO_PI
    elif sd.zeta < 0:
        angles[:-sd.zeta] += _TWO_PI
    return angles


def _boundary(sd: SpectralData) -> int:
    """Position of the kept/shifted boundary in the sorted arguments: the
    shifted ones start there when zeta > 0 and end there when zeta < 0; 0
    when zeta = 0."""
    return sd.n - sd.zeta if sd.zeta > 0 else -sd.zeta


def m_value(sd: SpectralData) -> float:
    """Squared Frobenius norm of a minimal su(n)-logarithm: that of the
    canonical angles, for either sign of zeta; sum(args^2) when zeta = 0."""
    angles = _canonical_angles(sd)
    return float(angles.dot(angles))


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_m(args, zeta: int, K: int = 3,
                  zeta_tol: float = ZETA_TOL) -> tuple[float, list[tuple[int, ...]]]:
    """Exact minimization of psi(k) = sum_j (args_j + 2 pi k_j)^2 over the
    integer tuples k in the box [-K, K]^n with sum(k) = -zeta.

    A dynamic program over positions with the partial sum of k as state:
    ``rest[j][t]`` is the least cost of positions j..n-1 whose k sum to t,
    and the minimum is ``rest[0][-zeta]``. A depth-first walk lists, in
    lexicographic order, every tuple whose psi is within ``_TIE_TOL``
    relative to the minimum (exact ties can differ by a few ulps). Boxes of
    more than 1e8 tuples, (2K + 1)^n, are rejected.

    This path never consults the closed form, so it serves as an
    independent oracle for it.

    Parameters
    ----------
    args : sequence of float
        Sorted finite argument tuple summing to 2*pi*zeta.
    zeta : int
        Winding integer of the tuple.
    K : int
        Half-width of the search box; must be at least 2 so the box is
        strictly larger than where minimizers can live.
    zeta_tol : float
        Bound on |sum(args) - 2*pi*zeta|; a spectrum passes on its own
        ``tols.zeta``.
    """
    arr = np.asarray(args, dtype=float)
    n = len(arr)
    if n < 1:
        raise ShapeError("argument tuple must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise NotFiniteError("arguments must be finite")
    if np.any(np.diff(arr) < 0):
        raise ValueError("arguments must be sorted ascending")
    if K < 2:
        raise ValueError("search box half-width must be at least 2")
    resid = abs(float(arr.sum()) - _TWO_PI * zeta)
    if resid > zeta_tol:
        raise ValueError(f"arguments do not sum to 2*pi*{zeta} (residual {resid:.3e})")
    if (2 * K + 1) ** n > 100_000_000:
        raise UnsupportedOrderError("search box too large to enumerate")
    if K * n < abs(zeta):
        raise InfeasibleError("no tuple in the box satisfies the sum constraint")
    ks = range(-int(K), int(K) + 1)
    cost = ((arr[:, None] + _TWO_PI * np.array(ks, dtype=float)) ** 2).tolist()
    rest = [None] * n + [{0: 0.0}]
    for j in range(n - 1, -1, -1):
        row = rest[j] = {}
        for t, tail in rest[j + 1].items():
            for k, c in zip(ks, cost[j]):
                if c + tail < row.get(t + k, math.inf):
                    row[t + k] = c + tail
    best = rest[0][-int(zeta)]
    cutoff = best + _TIE_TOL * max(1.0, best)
    minimizers = []

    def walk(j: int, t: int, prefix: float, head: tuple[int, ...]) -> None:
        if j == n:
            minimizers.append(head)
            return
        for k, c in zip(ks, cost[j]):
            if prefix + c + rest[j + 1].get(t - k, math.inf) <= cutoff:
                walk(j + 1, t - k, prefix + c, head + (k,))

    walk(0, -int(zeta), 0.0, ())
    return best, minimizers


# ---------------------------------------------------------------------------
# canonical minimizing logarithm
# ---------------------------------------------------------------------------

def _skew_part(x: np.ndarray) -> np.ndarray:
    """(X - X^*) / 2 in place, for one matrix or a stack: skew-Hermitian entry
    for entry."""
    x -= x.conj().swapaxes(-1, -2)
    x /= 2.0
    return x


def _log_in_basis(u: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """U diag(i angles) U^*, symmetrized to its skew part; for one basis U or
    a stack of them, not yet checked."""
    return _skew_part((u * (1j * angles)) @ u.conj().swapaxes(-1, -2))


def canonical_log(sd: SpectralData) -> SkewHermitianTraceless:
    """Canonical minimal logarithm from spectral data with any winding.

    Conjugates the canonical angles (``_canonical_angles``), less their mean,
    back through the eigenbasis. They sum to arg det Q, which for a product
    P^*Q of validated factors can pass the su(n) gate on the trace;
    re-centered, X is traceless and moves by at most |arg det Q| / n per
    angle. If the kept/shifted boundary splits a cluster, rounding orders
    the basis columns inside it: this is one member of the family of
    minimal logarithms, and rounding may pick another.
    """
    angles = _canonical_angles(sd)
    angles -= float(np.add.reduce(angles)) / sd.n
    return _skew_traceless(_log_in_basis(sd.basis, angles), sd.tols)


# ---------------------------------------------------------------------------
# the solution set Theta(Q)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ThetaDescriptor:
    """Structure of the set of minimal logarithms of ``q``.

    The set is a single point unless the kept/shifted boundary splits a
    cluster: mu_{n-zeta} = mu_{n-zeta+1} up to the cluster tolerance when
    zeta > 0, at the top of the spectrum, or mu_{-zeta} = mu_{-zeta+1} when
    zeta < 0, at the bottom. Then it is diffeomorphic to the complex
    Grassmannian Gr(nu2; C^(nu1+nu2)), nu1 counting the kept members of that
    cluster and nu2 the shifted ones, and ``base_log`` is the member that
    rounding picks (see ``canonical_log``). ``zeta`` is q's winding and
    ``beta_arg`` q's argument on the kept side of the boundary, that of
    mu_{n-zeta} or of mu_{-zeta+1}; None when zeta = 0. ``spectral`` is q's
    spectrum, so sampling reuses the exact basis of ``base_log``. ``angles``
    are the canonical angles, and m(Q) is their squared norm; ``base_log``
    is U diag(i angles) U^* with U = ``spectral.basis`` and the angles less
    their mean (``canonical_log``). ``base_log`` is built, and checked in
    su(n), the first time it is read.
    """

    zeta: int
    is_singleton: bool
    beta_arg: float | None
    nu1: int | None
    nu2: int | None
    spectral: SpectralData
    q: SpecialUnitary
    angles: np.ndarray

    @cached_property
    def base_log(self) -> SkewHermitianTraceless:
        """The canonical minimal logarithm of ``q``, ``canonical_log(spectral)``."""
        return canonical_log(self.spectral)

    @property
    def grassmannian(self) -> tuple[int, int] | None:
        """(k, m) for Gr(k; C^m) when the set is a family, else None."""
        if self.is_singleton:
            return None
        return (self.nu2, self.nu1 + self.nu2)


def _descriptor_from_spectral(sd: SpectralData, q: SpecialUnitary) -> ThetaDescriptor:
    """Descriptor of ``q`` from its spectrum ``sd``."""
    cut = _boundary(sd)
    # A family when the kept/shifted boundary splits a cluster: none ends there.
    edges = list(accumulate(sd.sizes, initial=0))
    i = bisect(edges, cut)
    below, above = cut - edges[i - 1], edges[i] - cut
    kept, shifted = (below, above) if sd.zeta > 0 else (above, below)
    family = below > 0
    beta = None if sd.zeta == 0 else float(sd.args[cut - 1 if sd.zeta > 0 else cut])
    # Fields in order (zeta, is_singleton, beta_arg, nu1, nu2, spectral, q,
    # angles): a keyword call costs more than building them.
    return ThetaDescriptor(sd.zeta, not family, beta, kept if family else None,
                           shifted if family else None, sd, q, _frozen(_canonical_angles(sd)))


def theta_descriptor(q: SpecialUnitary) -> ThetaDescriptor:
    """Describe the set of minimal logarithms of Q, read off Q's spectrum."""
    return _descriptor_from_spectral(spectral_summary(q), q)


class ThetaSamples(NamedTuple):
    """Checked logarithms X = A + 2 pi i sigma W W^* (``theta_sample``); for
    each a bound on ||exp(X) - Q||_F, ||exp(A) - Q||_F + 2 pi ||W^*W - I||_F;
    the (k, n, n) stack of bases U in which X = U diag(i angles) U^* up to
    rounding, the angles, and the Frobenius norms ||X||_F, bit for bit
    ``frobenius_norm`` of each."""

    logs: tuple[SkewHermitianTraceless, ...]
    residuals: tuple[float, ...]
    bases: np.ndarray
    angles: np.ndarray
    norms: tuple[float, ...]


def theta_sample(td: ThetaDescriptor, r) -> ThetaSamples:
    """Sample the Grassmannian family of minimal logarithms of ``td.q``.

    Member i is X_i = A + 2 pi i sigma W_i W_i^*: Gr(nu2; C^(nu1 + nu2))
    embedded by the projectors onto nu2-planes in span U_b, U_b being the
    basis columns of the boundary cluster. A = U diag(i a) U^* holds the
    cluster at its mean angle, unshifted; sigma = -1 at the top boundary
    (zeta > 0) and +1 at the bottom (zeta < 0); W_i is U_b r_i[:, nu1:] at
    the top and U_b r_i[:, :nu2] at the bottom, for r_i the slices of the
    (k, nu1 + nu2, nu1 + nu2) stack ``r`` (one unitary is the k = 1 stack).
    So X_i = U_i diag(i angles) U_i^* up to rounding, with the rotated basis
    U_i and the shifted angles a turn from a; the angles are less their
    mean, as in ``canonical_log``, so X_i is traceless. Every member has
    squared norm m(Q) up to the cluster's spread.

    A is scalar on span U_b, so it commutes with W_i W_i^*, and
    exp(2 pi i sigma P) = I for a projector P: one exponential, exp(A),
    serves the stack. A member's residual, ||exp(A) - Q||_F +
    2 pi ||W_i^*W_i - I||_F, bounds ||exp(X_i) - Q||_F up to rounding.

    The gates, in order: every r_i unitary; every X_i in su(n); every frame's
    share of the bound, 2 pi ||W_i^*W_i - I||_F, at ``tols.eig``; exp(A)
    special unitary at ``tols.group``; every residual at ``tols.eig``. The
    sampling-matrix and frame gates are batched: each reads its k Frobenius
    residuals off one call (``matrixcore._frobenius_stack``, bit for bit the
    single ones) and checks the members in order. The su(n) gate runs per
    member, through the kernel ``_skew_traceless`` itself. Either way the
    first failing check raises the error its member raises alone; a huge or
    non-finite sampling matrix fails its gate, with no warning. A stack of
    no members checks nothing.
    """
    if td.is_singleton:
        raise SingletonThetaError("the set of minimal logarithms is a single point")
    block = td.nu1 + td.nu2
    rm = np.asarray(r, dtype=np.complex128)
    if rm.ndim not in (2, 3) or rm.shape[-2:] != (block, block):
        raise ShapeError(f"expected a unitary of order {block}, got shape {rm.shape}")
    rm = rm.reshape(-1, block, block)
    # A huge or infinite entry overflows the Gram product or its squares: the
    # residual reads inf or NaN, which the gate rejects, and nothing warns.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = rm @ np.swapaxes(rm.conj(), 1, 2)
        gram -= np.eye(block)
        residuals = _frobenius_stack(gram)
    alg = Tolerances.default(block).alg
    for res in residuals:
        NotUnitaryError.check(res, alg, "sampling matrix is not unitary")

    sd, tols = td.spectral, td.spectral.tols
    cut = _boundary(sd)
    if td.zeta > 0:
        start, shifted, turn = cut - td.nu1, slice(cut, cut + td.nu2), -_TWO_PI
    else:
        start, shifted, turn = cut - td.nu2, slice(cut - td.nu2, cut), _TWO_PI
    base = _canonical_angles(sd)
    base[start:start + block] = float(sd.args[start:start + block].mean())
    # Less the mean of the member angles, which sum to that of A's plus nu2 turns.
    base -= (float(np.add.reduce(base)) + td.nu2 * turn) / sd.n
    angles = base.copy()
    angles[shifted] += turn
    u = np.repeat(sd.basis[None], len(rm), axis=0)
    u[:, :, start:start + block] = u[:, :, start:start + block] @ rm
    w = u[:, :, shifted]
    x = w @ w.conj().swapaxes(1, 2)
    x *= 1j * turn
    x += _log_in_basis(sd.basis, base)
    logs = tuple(_skew_traceless(m, tols) for m in _frozen(_skew_part(x)))
    frame = w.conj().swapaxes(1, 2) @ w
    frame -= np.eye(td.nu2)
    frames = [_TWO_PI * res for res in _frobenius_stack(frame)]
    for res in frames:
        ResidualExceededError.check(res, tols.eig, "sampled frame is not orthonormal")
    resids = ()
    if frames:
        exp_a = _special_unitary(_exp_in_basis(sd.basis, base), tols, tols.group)
        gap = _frobenius(exp_a.entries - td.q.entries)
        resids = tuple(
            ResidualExceededError.check(
                gap + res, tols.eig, "sampled logarithm does not exponentiate to the given matrix")
            for res in frames)
    return ThetaSamples(logs, resids, _frozen(u), _frozen(angles), tuple(_frobenius_stack(x)))


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
    is_singleton: bool

    @property
    def label(self) -> str:
        return grassmann_label(self.zeta, self.s) if self.nonempty else "empty"


def plog_status(sd: SpectralData) -> PlogStatus:
    """Classify the generalized principal logarithms of Q from its spectrum.

    Equivalently: nonempty iff the minimal squared log norm equals
    sum(args^2), i.e. no argument needs to wind past the principal branch.
    """
    nonempty = 0 <= sd.zeta <= sd.s
    return PlogStatus(nonempty, sd.zeta, sd.s, nonempty and sd.zeta in (0, sd.s))
