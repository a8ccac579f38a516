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
zeta, and one rule, ``_shift``, orients it: the minimizing shift moves the
top zeta arguments down a turn when zeta > 0 and the bottom -zeta up a turn
when zeta < 0. Every consumer reads that rule: the canonical angles, the
boundary cluster (``_boundary_cluster``, the cluster of the kept argument
next to the moved ones), the sampler, the Grassmannian's name and the CLI's
lattice oracle. A family is the boundary cluster when the shift splits it;
nu1 counts its kept members and nu2 its shifted ones.
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

def _shift(sd: SpectralData) -> tuple[slice, int]:
    """The orientation rule: the slice of the sorted arguments that the
    minimizing shift moves, and the turns it moves them by. The top zeta move
    down a turn when zeta > 0, the bottom -zeta up a turn otherwise, so the
    slice is empty when zeta = 0. Nothing else here reads zeta's sign."""
    if sd.zeta > 0:
        return slice(sd.n - sd.zeta, sd.n), -1
    return slice(0, -sd.zeta), 1


def _boundary_cluster(sd: SpectralData) -> tuple[int, slice, slice]:
    """The kept argument next to the moved slice (``_shift``), just below it
    at the top of the spectrum or just above it at the bottom; the cluster
    holding that argument; and the cluster's overlap with the moved slice,
    empty unless the shift splits the cluster."""
    moved, _ = _shift(sd)
    edge = moved.start - 1 if moved.start else moved.stop
    edges = list(accumulate(sd.sizes, initial=0))
    i = bisect(edges, edge)
    start, stop = edges[i - 1], edges[i]
    return edge, slice(start, stop), slice(max(start, moved.start), min(stop, moved.stop))


def _canonical_angles(sd: SpectralData) -> np.ndarray:
    """The sorted arguments with the moved slice a turn off (``_shift``).
    Nothing is touched when zeta = 0: adding 0.0 would turn -0.0 into +0.0."""
    angles = np.array(sd.args, dtype=float)
    if sd.zeta:
        moved, turns = _shift(sd)
        angles[moved] += turns * _TWO_PI
    return angles


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

    The set is a single point unless the minimizing shift (``_shift``) splits
    the boundary cluster (``_boundary_cluster``): mu_{n-zeta} =
    mu_{n-zeta+1} up to the cluster tolerance when zeta > 0, at the top of
    the spectrum, or mu_{-zeta} = mu_{-zeta+1} when zeta < 0, at the bottom.
    Then it is diffeomorphic to the complex Grassmannian
    Gr(nu2; C^(nu1+nu2)), nu1 counting the kept members of that cluster and
    nu2 the shifted ones, and ``base_log`` is the member that rounding picks
    (see ``canonical_log``). ``zeta`` is q's winding and ``beta_arg`` the
    argument of the kept eigenvalue next to the shifted ones, mu_{n-zeta} or
    mu_{-zeta+1}; None when zeta = 0. ``spectral`` is q's spectrum, so
    sampling reuses the exact basis of ``base_log``. ``angles`` are the
    canonical angles, and m(Q) is their squared norm; ``base_log`` is
    U diag(i angles) U^* with U = ``spectral.basis`` and the angles less
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
        """(k, m) for Gr(k; C^m) when the set is a family, else None. Q^* winds
        s - zeta, and its minimal logarithms are the negations of Q's, so the
        family has two names, Gr(nu2; C^m) and Gr(nu1; C^m). k is nu1 when the
        shift moves arguments down and Q^* winds more (0 < zeta < s - zeta),
        nu2 otherwise, so Q and Q^*, and (P, Q) and (Q, P), read one label."""
        if self.is_singleton:
            return None
        _, turns = _shift(self.spectral)
        k = self.nu1 if turns < 0 and self.zeta < self.spectral.s - self.zeta else self.nu2
        return (k, self.nu1 + self.nu2)


def theta_descriptor(q: SpecialUnitary) -> ThetaDescriptor:
    """Describe the set of minimal logarithms of Q, read off Q's spectrum."""
    sd = spectral_summary(q)
    edge, cluster, shifted = _boundary_cluster(sd)
    nu2 = shifted.stop - shifted.start
    nu1 = cluster.stop - cluster.start - nu2
    family = nu2 > 0
    beta = float(sd.args[edge]) if sd.zeta else None
    # Fields in order (zeta, is_singleton, beta_arg, nu1, nu2, spectral, q,
    # angles): a keyword call costs more than building them.
    return ThetaDescriptor(sd.zeta, not family, beta, nu1 if family else None,
                           nu2 if family else None, sd, q, _frozen(_canonical_angles(sd)))


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
    basis columns of the boundary cluster (``_boundary_cluster``). A =
    U diag(i a) U^* holds the cluster at its mean angle, unshifted; sigma is
    the shift's turns (``_shift``), -1 at the top and +1 at the bottom; W_i
    is the columns of U_b r_i at the cluster's shifted positions, for r_i the
    slices of the (k, nu1 + nu2, nu1 + nu2) stack ``r`` (one unitary is the
    k = 1 stack).
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
    _, cluster, shifted = _boundary_cluster(sd)
    turn = _shift(sd)[1] * _TWO_PI
    base = _canonical_angles(sd)
    base[cluster] = float(sd.args[cluster].mean())
    # Less the mean of the member angles, which sum to that of A's plus nu2 turns.
    base -= (float(np.add.reduce(base)) + td.nu2 * turn) / sd.n
    angles = base.copy()
    angles[shifted] += turn
    u = np.repeat(sd.basis[None], len(rm), axis=0)
    u[:, :, cluster] = u[:, :, cluster] @ rm
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
