"""Dense complex matrix core for SU(n).

Validated group and algebra element types, the Frobenius inner product, a
unitary eigendecomposition built entirely from Hermitian solves and checked
by its eigen-residual ||QU - U diag(eigenvalues)||_F, the skew-Hermitian matrix
exponential, and Haar-distributed random sampling, of one matrix or of a
stack drawn as successive single draws.

Tolerances are chosen once, by the two validators. The validated value carries
them as ``tols``, values derived from it (the product P^*Q, an exponential)
inherit them, and each later check reads them off the value.

All functions are pure and all types are immutable after construction, so
everything here is safe to call concurrently. The validators copy the
caller's array once, at the boundary; a gate kernel (``_special_unitary``,
``_skew_traceless``) checks it, or a matrix the library has just built, and
freezes it in place (marked read-only, not copied). The su(n) kernel has a
stack form for a (k, n, n) stack the library has built
(``_skew_traceless_stack``): it forms the gate's products once per stack,
reads their k Frobenius norms off one batched call (``_frobenius_stack``),
then checks the members in order, each bit for bit as the kernel checks it
alone. Both forms pass their residuals to the same ``*_gate`` function per
check, which holds its error and message, so each check is defined once. A
sampled family needs no special-unitary stack: its members share one
exponential, which ``_special_unitary`` checks once. A caller's matrix with
Frobenius norm within ``_BOUND`` is gated as it is, with no errstate. Past the
bound, or behind a gate so loose that the determinant could overflow, a NaN or
infinite entry raises ``NotFiniteError`` and the gates run under an errstate,
so huge entries are rejected with an inf or NaN residual and nothing warns.
LAPACK ``eigh`` and ``det`` are reached only through ``_eigh`` and ``_det``,
the gufuncs that ``numpy.linalg`` wraps. The only randomness is the
caller-owned generator.

At small n a numpy call costs more than its arithmetic, so three rules keep
the fixed cost down: a decision over O(n) values is made on Python floats
(``tolist``); a 2-D product is ``@``, except the Gram product of a gate, whose
entries reach only squares, which is ``ndarray.dot`` (the same BLAS call with
less dispatch, but a scalar product for 1 x 1 operands, which can flip the sign
of a zero; a stack's Gram product is ``@``, the same BLAS call per slice); and
no numpy API newer than 1.23, the oldest supported, is used.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DeterminantError,
    EigenFailedError,
    NotFiniteError,
    NotSkewHermitianError,
    NotUnitaryError,
    ResidualExceededError,
    ShapeError,
    TraceNotZeroError,
)
from .tolerances import Tolerances

__all__ = [
    "SpecialUnitary",
    "SkewHermitianTraceless",
    "frobenius_inner",
    "frobenius_norm",
    "validate_special_unitary",
    "validate_skew_traceless",
    "unitary_eig",
    "expm_skew",
    "random_special_unitary",
    "random_unitary",
    "unitary_product",
]

# Gap threshold for splitting the spectrum of the turned Hermitian part
# e^{-i}Q + e^{i}Q^*, whose eigenvalues 2cos(theta_j - 1) collide only when
# theta_j = theta_k or theta_j + theta_k = 2 (mod 2 pi): far above the
# eigensolver jitter on a degenerate eigenvalue (~n*eps*||.||), far below any
# genuinely separate eigenvalue pair at desk scale. Over-grouping is harmless
# (the second Hermitian solve still produces an eigenbasis within the group);
# under-grouping a true eigenspace is what must be avoided.
_HERM_GAP_TOL = 1e-11

# The turn e^{-i}; in Q + Q^* every conjugate pair, so every SU(2) spectrum, collides.
_TURN = complex(math.cos(1.0), -math.sin(1.0))

# A Frobenius norm within _BOUND keeps every Gram entry below _BOUND^2
# (Cauchy-Schwarz) and every entry of X + X^* below 2 _BOUND, and the squared
# Frobenius norms of both below _BOUND^4 + O(n) and 4 _BOUND^2: nothing
# overflows at any order that fits in memory. The test reads the squared norm
# off one ``vdot``; a NaN or an infinity fails it, and a square that overflows
# reads inf, as BLAS does not warn. Two predicates use _BOUND: the validators'
# norm test in ``_boundary_copy`` and ``frobenius_norm``'s own test of the
# largest real or imaginary part, kept so its result does not move; an edit of
# the one should look at the other.
_BOUND = 1e60
_BOUND_SQ = _BOUND * _BOUND
# Within the unitarity gate g, |det Q| <= (1 + g)^{n/2}, which stays finite
# while n log1p(g) < 2 log(DBL_MAX) ~ 1419.6.
_LOG_DET_MAX = 1400.0


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only in place; nothing else may hold it."""
    arr.setflags(write=False)
    return arr


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.linalg``'s ``eigh`` of a complex Hermitian matrix or stack without
    the wrapper: the same gufunc and errstate, so a solve that does not converge
    (a non-finite input too) raises ``EigenFailedError`` and warns nothing."""
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            return np.linalg._umath_linalg.eigh_lo(h)
    except FloatingPointError as exc:
        raise EigenFailedError("hermitian eigensolver failed: "
                               "Eigenvalues did not converge") from exc


def _det(a: np.ndarray) -> complex:
    """``numpy.linalg``'s ``det`` of a complex matrix without the wrapper."""
    return np.linalg._umath_linalg.det(a)


def _frobenius(arr: np.ndarray) -> float:
    """||arr||_F as ``numpy.linalg``'s ``norm`` forms it, sqrt(re.re + im.im)
    over the raveled array, so residuals are bit for bit what it reports."""
    flat = arr.ravel()
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _frobenius_stack(arr: np.ndarray) -> list[float]:
    """``_frobenius`` of each slice of a (k, ...) stack, bit for bit, k >= 0.
    A slice's re.re (im.im) is one vector-vector product of the batched
    ``matmul``, which numpy runs as the strided BLAS dot that ``ndarray.dot``
    runs for ``_frobenius``; the two sums then add and root as there."""
    flat = arr.reshape(len(arr), math.prod(arr.shape[1:]))
    re, im = flat.real, flat.imag
    sq = re[:, None, :] @ re[:, :, None]
    sq += im[:, None, :] @ im[:, :, None]
    return list(map(math.sqrt, sq.ravel().tolist()))


def _square(a) -> np.ndarray:
    """Coerce to a square complex128 matrix."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NotFiniteError("matrix entries must be finite")
    return arr


def _boundary_copy(a) -> tuple[np.ndarray, bool]:
    """The caller's square matrix, copied once, and whether its Frobenius norm
    lies within ``_BOUND`` (a NaN or an infinity does not)."""
    arr = _square(a).copy()
    return arr, bool(np.vdot(arr, arr).real <= _BOUND_SQ)


def _past_bound(kernel, arr: np.ndarray, *args):
    """A gate kernel on a matrix past ``_BOUND``: finite entries only, and
    residuals that overflow to inf or NaN, which the gates reject, warn nothing."""
    _finite(arr)
    with np.errstate(over="ignore", invalid="ignore"):
        return kernel(arr, *args)


def frobenius_inner(a, b) -> float:
    """Real scalar product Re(tr(A B^*)) of two square matrices."""
    am = _finite(_square(a))
    bm = _finite(_square(b))
    if am.shape != bm.shape:
        raise ShapeError(f"order mismatch: {am.shape[0]} vs {bm.shape[0]}")
    # Re tr(A B^*) equals the elementwise sum Re(sum A_jk conj(B_jk)).
    return float(np.vdot(bm, am).real)


def frobenius_norm(a) -> float:
    """Frobenius norm sqrt(sum |a_jk|^2), by ``_frobenius``; with a real or
    imaginary part past +-``_BOUND``, where the squares could overflow, by that
    of A / c, times c = max |a_jk|."""
    arr = _square(a).copy()
    if np.abs(arr.view(np.float64)).max() <= _BOUND:
        return _frobenius(arr)
    top = float(np.abs(_finite(arr)).max())
    return top * _frobenius(arr / top)


@dataclass(frozen=True, eq=False)
class SpecialUnitary:
    """Validated element of SU(n).

    ``unitarity_residual`` is ||QQ^* - I||_F and ``det_residual`` is
    |det(Q) - 1|, both recorded when Q was validated at ``tols``.
    """

    entries: np.ndarray
    unitarity_residual: float
    det_residual: float
    tols: Tolerances

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def adjoint_times(self, other: "SpecialUnitary") -> "SpecialUnitary":
        """Q^* B without a re-check: Q^* has Q's residuals (the same singular values,
        the conjugate determinant), so each residual r of Q^* B is at most r(Q) +
        r(B) + r(Q) r(B) up to rounding; the product carries that bound and Q's tols."""
        if self.n != other.n:
            raise ShapeError(f"order mismatch: {self.n} vs {other.n}")
        u, d = self.unitarity_residual, self.det_residual
        return SpecialUnitary(_frozen(self.entries.conj().T @ other.entries),
                              u + other.unitarity_residual * (1.0 + u),
                              d + other.det_residual * (1.0 + d), self.tols)


@dataclass(frozen=True, eq=False)
class SkewHermitianTraceless:
    """Element of su(n), skew-Hermitian with zero trace, checked at ``tols``."""

    entries: np.ndarray
    tols: Tolerances

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _unitary_gate(residual: float, gate: float) -> float:
    """||A A^* - I||_F, the norm of the Gram product A A^* with the identity
    subtracted, checked at ``gate``."""
    return NotUnitaryError.check(residual, gate, "matrix is not unitary")


def _det_gate(det: complex, gate: float) -> float:
    """|det A - 1| from det A, checked at ``gate``."""
    return DeterminantError.check(float(abs(det - 1.0)), gate, "determinant is not one")


def _special_unitary(arr: np.ndarray, tols: Tolerances, gate: float) -> SpecialUnitary:
    """Gate kernel: Gram and determinant residuals of a matrix its caller has just
    built, checked at ``gate``; the array is frozen in place and carries ``tols``."""
    gram = arr.dot(arr.conj().T).ravel()
    gram[::arr.shape[0] + 1] -= 1.0
    u_res = _unitary_gate(_frobenius(gram), gate)
    return SpecialUnitary(_frozen(arr), u_res, _det_gate(_det(arr), gate), tols)


def validate_special_unitary(a, tols: Tolerances | None = None) -> SpecialUnitary:
    """Check unitarity and unit determinant at ``tols.group`` (by default
    scaled from the order), returning the wrapped matrix carrying ``tols``.

    Raises ``NotUnitaryError`` or ``DeterminantError`` with the residual.
    """
    arr, bounded = _boundary_copy(a)
    n = arr.shape[0]
    tols = Tolerances.default(n) if tols is None else tols
    if bounded and n * math.log1p(tols.group) < _LOG_DET_MAX:
        return _special_unitary(arr, tols, tols.group)
    return _past_bound(_special_unitary, arr, tols, tols.group)


def _skew_gate(residual: float, gate: float) -> float:
    """||X + X^*||_F, the norm of X + X^* or of its conjugate, checked at ``gate``."""
    return NotSkewHermitianError.check(residual, gate, "matrix is not skew-Hermitian")


def _trace_gate(trace: complex, gate: float) -> float:
    """|tr X| from tr X, checked at ``gate``."""
    return TraceNotZeroError.check(float(abs(trace)), gate, "trace is not zero")


def _skew_traceless(arr: np.ndarray, tols: Tolerances) -> SkewHermitianTraceless:
    """Gate kernel: X + X^* = 0 and tr(X) = 0 at ``tols.alg`` for a square
    complex array its caller has just built, which is frozen in place."""
    # conj(X) + X^T, one buffer, is (X + X^*)^T; X + X^* is Hermitian entry for
    # entry, so this is its conjugate and the residual is the same, bit for bit.
    herm = arr.conj()
    herm += arr.T
    _skew_gate(_frobenius(herm), tols.alg)
    _trace_gate(np.add.reduce(arr.diagonal()), tols.alg)
    return SkewHermitianTraceless(_frozen(arr), tols)


def _skew_traceless_stack(arr: np.ndarray, tols: Tolerances) -> tuple[SkewHermitianTraceless, ...]:
    """``_skew_traceless`` of each slice of a (k, n, n) stack its caller has
    just built, which is frozen in place: one X + X^* buffer, one call for its
    norms (``_frobenius_stack``) and one diagonal sum for the stack, then the
    members checked in order. Every residual is bit for bit its slice's alone:
    a slice's diagonal is summed in the same order, and its magnitude is the
    same ``hypot``."""
    herm = arr.conj()
    herm += arr.swapaxes(1, 2)
    traces = np.add.reduce(arr.diagonal(0, 1, 2), axis=1).tolist()
    _frozen(arr)
    members = []
    for a, h, t in zip(arr, _frobenius_stack(herm), traces):
        _skew_gate(h, tols.alg)
        _trace_gate(t, tols.alg)
        members.append(SkewHermitianTraceless(a, tols))
    return tuple(members)


def validate_skew_traceless(x, tols: Tolerances | None = None) -> SkewHermitianTraceless:
    """Check membership in su(n) at ``tols.alg``: X + X^* = 0 and tr(X) = 0.

    A matrix passing both checks has purely imaginary eigenvalues up to the
    same tolerance. The result carries ``tols``, by default those for its order.
    """
    arr, bounded = _boundary_copy(x)
    tols = Tolerances.default(arr.shape[0]) if tols is None else tols
    return _skew_traceless(arr, tols) if bounded else _past_bound(_skew_traceless, arr, tols)


def _residual_gate(residual: float, gate: float) -> float:
    """The eigen-residual ||QU - U diag(eigenvalues)||_F, checked at ``gate``."""
    return ResidualExceededError.check(residual, gate, "eigendecomposition reconstruction failed")


def unitary_eig(q: SpecialUnitary) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigendecomposition Q = U diag(eigenvalues) U^* of a special unitary
    matrix via Hermitian solves, returned as (eigenvalues, U, residual).

    Diagonalizes the turned Hermitian part e^{-i}Q + e^{i}Q^*, then, inside each
    degenerate eigenspace only, the projected turned skew part
    (e^{-i}Q - e^{i}Q^*)/i; as Q is normal this gives a simultaneous unitary
    eigenbasis U. The Hermitian part's eigenvalues 2cos(theta_j - 1) collide
    only when theta_j = theta_k or theta_j + theta_k = 2 (mod 2 pi), so no
    conjugate pair e^{+-i theta} does, and an SU(2) spectrum other than +-I
    takes one solve. The raw eigenvalues, diag(U^* Q U), take one matrix
    product Q U and a column-wise dot; they are rescaled to modulus one.

    The residual is the eigen-residual ||QU - U diag(eigenvalues)||_F, read off the
    same product Q U and gated at ``q.tols.eig``. For unitary U it is the
    reconstruction residual, ||U diag(eigenvalues) U^* - Q||_F =
    ||(U diag(eigenvalues) - QU) U^*||_F, and ``eigh`` returns U unitary to O(n eps),
    so the two agree to rounding without a second n^3 product.
    """
    a = q.entries
    n = q.n
    turned = a * _TURN
    herm = turned.conj().T
    herm += turned
    del turned  # no second n x n array alive across the solve
    w, basis = _eigh(herm)
    gap = _HERM_GAP_TOL * max(n, 2)
    ws = w.tolist()
    # Some gap w[j] - w[j - 1] at most ``gap``, read on Python floats.
    if any(map(gap.__ge__, map(operator.sub, ws[1:], ws))):
        # Block lo..hi-1 ends where the next gap exceeds ``gap``, or at n.
        cuts = [j for j, d in enumerate(map(operator.sub, ws[1:], ws), 1) if not d <= gap]
        turned = a * _TURN
        skew = (turned - turned.conj().T) / 1j
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            if hi - lo < 2:
                continue
            cols = basis[:, lo:hi]
            proj = cols.conj().T @ skew @ cols
            proj = (proj + proj.conj().T) / 2.0
            _, rot = _eigh(proj)
            basis[:, lo:hi] = cols @ rot
    qu = a @ basis
    # conj(U) for the column-wise dot, then reused for U diag(evals).
    buf = basis.conj()
    raw = np.einsum("ji,ji->i", buf, qu)
    mags = np.abs(raw)
    ms = mags.tolist()
    if not all(map((0.5).__le__, ms)):
        if any(map((0.5).__gt__, ms)):
            raise EigenFailedError("eigenvalue collapsed away from the unit circle")
        # A NaN magnitude: the residual would read NaN, so it fails the gate
        # as that, before anything divides by it.
        _residual_gate(math.nan, q.tols.eig)
    evals = raw / mags
    qu -= np.multiply(basis, evals, out=buf)
    return _frozen(evals), _frozen(basis), _residual_gate(_frobenius(qu), q.tols.eig)


def _exp_in_basis(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """V diag(e^{i w}) V^* = exp(V diag(i w) V^*) for a unitary V and real w;
    not yet checked."""
    return (v * np.exp(1j * w)) @ v.conj().T


def expm_skew(x: SkewHermitianTraceless) -> SpecialUnitary:
    """Matrix exponential su(n) -> SU(n): the real eigenvalues w of the
    Hermitian -iX exponentiated on the unit circle in its eigenbasis V
    (``_exp_in_basis``), revalidated as special unitary at ``x.tols``."""
    herm = -1j * x.entries
    herm = (herm + herm.conj().T) / 2.0
    w, v = _eigh(herm)
    return _special_unitary(_exp_in_basis(v, w), x.tols, x.tols.group)


def random_unitary(n: int, seed, count: int | None = None) -> np.ndarray:
    """Haar-distributed U(n) matrix, deterministic per seed (or drawn from
    the given ``np.random.Generator``).

    With ``count``, a (count, n, n) stack that is bit for bit ``count``
    successive single draws from the same generator, and leaves it in the
    same state: the Gaussians are drawn in one call, in that order, and the
    stack is factored by one stacked QR.
    """
    if n < 1:
        raise ShapeError("order must be at least 1")
    if count is not None and count < 0:
        raise ShapeError("sample count must be nonnegative")
    rng = np.random.default_rng(seed)
    # Each draw takes the real parts, then the imaginary parts.
    g = rng.standard_normal((2, n, n) if count is None else (count, 2, n, n))
    z = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    z /= np.sqrt(2.0)
    qmat, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    # Phase fix: dividing column j by the phase of r_jj makes the factor
    # a deterministic equivariant function of the Gaussian draw, so its
    # law is exactly Haar on U(n).
    return qmat / (diag / np.abs(diag))[..., None, :]


def random_special_unitary(n: int, seed) -> SpecialUnitary:
    """Haar-distributed SU(n) matrix, deterministic per seed.

    Samples Haar on U(n) by phase-fixed QR of a complex Gaussian matrix,
    then divides the first column by the determinant to land in SU(n).
    """
    qmat = random_unitary(n, seed)
    qmat[:, 0] /= _det(qmat)
    tols = Tolerances.default(n)
    return _special_unitary(qmat, tols, tols.group)


def unitary_product(p: SpecialUnitary, q: SpecialUnitary) -> SpecialUnitary:
    """Group product P Q, checked at 10x the group tolerance of P.

    Residuals of the factors accumulate, so an exact-group-tolerance check
    could spuriously reject products of matrices that each barely pass
    validation. The product carries P's tolerances.
    """
    if p.n != q.n:
        raise ShapeError(f"order mismatch: {p.n} vs {q.n}")
    return _special_unitary(p.entries @ q.entries, p.tols, 10.0 * p.tols.group)
