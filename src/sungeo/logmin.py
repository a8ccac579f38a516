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

Orientation: the minimizing shift (``_canonical_angles``), the closed form
and the canonical logarithm read a spectrum as it is, for either sign of
zeta. Orientation picks the reported member and label: ``theta_descriptor``
flips Q when zeta < 0, and the pair policy of ``geometry`` when
zeta < s - zeta, both through ``spectral.adjoint_spectrum`` (``sign = -1``).
``_log_in_basis`` negates what it builds on a flipped spectrum, and the
signed angles are negated with it, so every logarithm here is one of the
matrix the spectrum stands for.
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass
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
    _frobenius_stack,
    _frozen,
    _skew_eigh,
    _skew_traceless,
    _skew_traceless_stack,
    _special_unitary_stack,
)
from .spectral import _TWO_PI, SpectralData, _flip_order, adjoint_spectrum, spectral_summary
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


def m_value(sd: SpectralData) -> float:
    """Squared Frobenius norm of a minimal su(n)-logarithm: that of the
    canonical angles, for either sign of zeta; sum(args^2) when zeta = 0.
    A flipped spectrum sums its angles in its source's order
    (``_flip_order``), so Q and Q^* give the same bits: negation, the map
    a -> 2 pi - a and the 2 pi shifts round symmetrically."""
    angles = _canonical_angles(sd)
    if sd.sign < 0:
        angles = angles[_flip_order(sd.n, sd.s)]
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

def _log_in_basis(sd: SpectralData, u: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """U diag(i angles) U^*, symmetrized to its skew part and negated when ``sd``
    is flipped, so that it is a logarithm of the matrix ``sd`` stands for; for
    one basis U or a stack of them, not yet checked."""
    x = (u * (1j * angles)) @ u.conj().swapaxes(-1, -2)
    x -= x.conj().swapaxes(-1, -2)
    x /= 2.0
    if sd.sign < 0:
        np.negative(x, out=x)  # not a product by -1, which moves signed zeros
    return x


def canonical_log(sd: SpectralData, angles: np.ndarray | None = None) -> SkewHermitianTraceless:
    """Canonical minimal logarithm from spectral data with any winding.

    Conjugates the canonical angles (``_canonical_angles``) back through the
    eigenbasis. The result is a logarithm of the matrix the spectrum stands
    for: of Q when ``sd`` is the spectrum of Q^* that ``adjoint_spectrum``
    made from Q's (``sign = -1``). If the kept/shifted boundary splits a
    cluster, rounding orders the basis columns inside it: this is one member
    of the family of minimal logarithms, and rounding may pick another.
    ``angles``, when given, must be ``_canonical_angles(sd)``, already read.
    """
    angles = _canonical_angles(sd) if angles is None else angles
    return _skew_traceless(_log_in_basis(sd, sd.basis, angles), sd.tols)


# ---------------------------------------------------------------------------
# the solution set Theta(Q)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ThetaDescriptor:
    """Structure of the set of minimal logarithms of ``q``.

    The set is a single point unless zeta >= 1 and the kept/shifted boundary
    splits a cluster (mu_{n-zeta} = mu_{n-zeta+1} up to the cluster
    tolerance); then it is diffeomorphic to the complex Grassmannian
    Gr(nu2; C^(nu1+nu2)), nu1 and nu2 counting the cluster on each side, and
    ``base_log`` is the member that rounding picks (see ``canonical_log``).
    ``beta_arg`` is the argument of mu_{n-zeta}. ``spectral`` keeps the oriented
    spectral data so sampling reuses the exact basis of ``base_log``; its
    ``sign`` is -1 when that is q^*'s, and the logarithms built on it are
    still those of ``q``. ``angles`` are the signed canonical angles:
    ``base_log`` is U diag(i angles) U^* with U = ``spectral.basis``.
    """

    n: int
    zeta: int
    is_singleton: bool
    base_log: SkewHermitianTraceless
    beta_arg: float | None
    nu1: int | None
    nu2: int | None
    spectral: SpectralData
    q: SpecialUnitary
    angles: np.ndarray

    @property
    def grassmannian(self) -> tuple[int, int] | None:
        """(k, m) for Gr(k; C^m) when the set is a family, else None."""
        if self.is_singleton:
            return None
        return (self.nu2, self.nu1 + self.nu2)

    @property
    def oriented(self) -> bool:
        """Whether the descriptor was computed for Q^* (outputs negated)."""
        return self.spectral.sign < 0


def _descriptor_from_spectral(sd: SpectralData, q: SpecialUnitary) -> ThetaDescriptor:
    """Descriptor of ``q`` from an oriented spectrum of it (zeta >= 0)."""
    n, cut = sd.n, sd.n - sd.zeta
    # A family when the kept/shifted boundary splits a cluster: none ends there.
    edges = list(accumulate(sd.sizes, initial=0))
    i = bisect(edges, cut)
    family = sd.zeta > 0 and edges[i - 1] != cut
    angles = _canonical_angles(sd)
    base_log = canonical_log(sd, angles)
    # Fields in order (n, zeta, is_singleton, base_log, beta_arg, nu1, nu2,
    # spectral, q, angles): a keyword call costs more than building them.
    return ThetaDescriptor(n, sd.zeta, not family, base_log,
                           float(sd.args[cut - 1]) if sd.zeta > 0 else None,
                           cut - edges[i - 1] if family else None,
                           edges[i] - cut if family else None, sd, q,
                           _frozen(sd.sign * angles))


def theta_descriptor(q: SpecialUnitary) -> ThetaDescriptor:
    """Describe the set of minimal logarithms of Q.

    The winding is oriented to be nonnegative through the adjoint; the
    family structure is unchanged by that because negation maps the
    solution set of Q^* onto that of Q.
    """
    sd = spectral_summary(q)
    return _descriptor_from_spectral(adjoint_spectrum(sd) if sd.zeta < 0 else sd, q)


class ThetaSamples(NamedTuple):
    """Checked logarithms X = U diag(i angles) U^*, their residuals
    ||exp(X) - Q||_F, the (k, n, n) stack of bases U, the signed angles and
    the Frobenius norms ||X||_F, bit for bit ``frobenius_norm`` of each."""

    logs: tuple[SkewHermitianTraceless, ...]
    residuals: tuple[float, ...]
    bases: np.ndarray
    angles: np.ndarray
    norms: tuple[float, ...]


def theta_sample(td: ThetaDescriptor, r) -> ThetaSamples:
    """Sample the Grassmannian family of minimal logarithms of ``td.q``.

    Rotates the basis columns of the boundary cluster by each unitary of the
    (k, nu1 + nu2, nu1 + nu2) stack ``r``, one unitary being the k = 1 stack
    (the other columns stay: only block unitaries commute with the diagonal,
    which is scalar on the cluster, set to its mean argument). Every member
    exponentiates to Q and has squared norm m(Q), up to the cluster's
    spread; distinct cosets of r give distinct logarithms, though the orbit
    map is not injective.

    The arithmetic runs once on the stack (the rotation, ``_log_in_basis``,
    ``_skew_eigh`` and ``_exp_in_basis``), and each gate forms its products
    once per stack (a Gram product for r; X + X^* and the diagonal sums for X;
    a Gram product and a determinant call for exp(X); the difference to Q)
    and reads its k Frobenius residuals off one batched call
    (``matrixcore._frobenius_stack``, bit for bit the single ones), then
    checks the members in order: every r unitary, every X in su(n), then
    member by member exp(X) special unitary and its round trip to Q. The
    first failing check raises the error its member raises alone.
    """
    if td.is_singleton:
        raise SingletonThetaError("the set of minimal logarithms is a single point")
    block = td.nu1 + td.nu2
    rm = np.asarray(r, dtype=np.complex128)
    if rm.ndim not in (2, 3) or rm.shape[-2:] != (block, block):
        raise ShapeError(f"expected a unitary of order {block}, got shape {rm.shape}")
    rm = rm.reshape(-1, block, block)
    gram = rm @ np.swapaxes(rm.conj(), 1, 2)
    gram -= np.eye(block)
    alg = Tolerances.default(block).alg
    for res in _frobenius_stack(gram):
        NotUnitaryError.check(res, alg, "sampling matrix is not unitary")

    sd = td.spectral
    start, cut = sd.n - td.zeta - td.nu1, sd.n - td.zeta
    angles = _canonical_angles(sd)
    mean = float(sd.args[start:start + block].mean())
    angles[start:cut], angles[cut:start + block] = mean, mean - _TWO_PI
    u = np.repeat(sd.basis[None], len(rm), axis=0)
    u[:, :, start:start + block] = u[:, :, start:start + block] @ rm
    x = _log_in_basis(sd, u, angles)
    logs = _skew_traceless_stack(x, sd.tols)
    w, v = _skew_eigh(x)
    exps = _exp_in_basis(v, w)
    gaps = _frobenius_stack(exps - td.q.entries)
    # A member's exponential is gated as it is drawn, before its round trip.
    members = _special_unitary_stack(exps, sd.tols, sd.tols.group)
    resids = tuple(
        ResidualExceededError.check(
            gap, sd.tols.eig, "sampled logarithm does not exponentiate to the given matrix")
        for _, gap in zip(members, gaps))
    return ThetaSamples(logs, resids, _frozen(u), _frozen(sd.sign * angles),
                        tuple(_frobenius_stack(x)))


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
