"""Dense complex matrix core for SU(n).

Validated group and algebra element types, the Frobenius inner product, a
unitary eigendecomposition built entirely from Hermitian solves, the
skew-Hermitian matrix exponential, and Haar-distributed random sampling.

All functions are pure and all types are immutable after construction, so
everything here is safe to call concurrently. The only randomness is the
caller-owned generator passed to the samplers.
"""

from __future__ import annotations

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
    "UnitaryEigenDecomposition",
    "as_complex_matrix",
    "adjoint",
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

# Gap threshold for splitting the spectrum of Q + Q^*: far above the
# eigensolver jitter on a degenerate eigenvalue (~n*eps*||.||), far below any
# genuinely separate eigenvalue pair at desk scale. Over-grouping is harmless
# (the second Hermitian solve still produces an eigenbasis within the group);
# under-grouping a true eigenspace is what must be avoided.
_HERM_GAP_TOL = 1e-11


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, order="C")
    out.setflags(write=False)
    return out


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 matrix with finite entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NotFiniteError("matrix entries must be finite")
    return arr


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(a)).T


def frobenius_inner(a, b) -> float:
    """Real scalar product Re(tr(A B^*)) of two square matrices."""
    am = as_complex_matrix(a)
    bm = as_complex_matrix(b)
    if am.shape != bm.shape:
        raise ShapeError(f"order mismatch: {am.shape[0]} vs {bm.shape[0]}")
    # Re tr(A B^*) equals the elementwise sum Re(sum A_jk conj(B_jk)).
    return float(np.vdot(bm, am).real)


def frobenius_norm(a) -> float:
    """Frobenius norm sqrt(sum |a_jk|^2)."""
    am = as_complex_matrix(a)
    return float(np.sqrt(max(np.vdot(am, am).real, 0.0)))


@dataclass(frozen=True, eq=False)
class SpecialUnitary:
    """Validated element of SU(n).

    ``unitarity_residual`` is ||QQ^* - I||_F and ``det_residual`` is
    |det(Q) - 1|, both recorded at validation time.
    """

    entries: np.ndarray
    unitarity_residual: float
    det_residual: float

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def adjoint(self) -> "SpecialUnitary":
        # Q^* inherits the residuals: ||Q^*Q - I||_F = ||QQ^* - I||_F
        # (same singular values) and |conj(det) - 1| = |det - 1|.
        return SpecialUnitary(_readonly(self.entries.conj().T),
                              self.unitarity_residual, self.det_residual)

    def times(self, other: "SpecialUnitary") -> "SpecialUnitary":
        """Product with another validated element, without a re-check: each
        residual r of AB is at most r(A) + r(B) + r(A) r(B) up to rounding, and
        the product carries that bound as Q^* carries Q's residuals."""
        if self.n != other.n:
            raise ShapeError(f"order mismatch: {self.n} vs {other.n}")
        u, d = self.unitarity_residual, self.det_residual
        return SpecialUnitary(_readonly(self.entries @ other.entries),
                              u + other.unitarity_residual * (1.0 + u),
                              d + other.det_residual * (1.0 + d))


@dataclass(frozen=True, eq=False)
class SkewHermitianTraceless:
    """Element of the Lie algebra su(n): skew-Hermitian with zero trace."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __neg__(self) -> "SkewHermitianTraceless":
        return SkewHermitianTraceless(_readonly(-self.entries))

    def scaled(self, t: float) -> "SkewHermitianTraceless":
        """Real scalar multiple; stays in the algebra."""
        return SkewHermitianTraceless(_readonly(self.entries * float(t)))

    def norm(self) -> float:
        return frobenius_norm(self.entries)


@dataclass(frozen=True, eq=False)
class UnitaryEigenDecomposition:
    """Q = U diag(eigenvalues) U^* with U unitary and unit-modulus
    eigenvalues (projected onto the circle after the raw solve)."""

    eigenvalues: np.ndarray
    basis: np.ndarray
    residual: float

    @property
    def n(self) -> int:
        return self.basis.shape[0]


def validate_special_unitary(a, tol: float | None = None) -> SpecialUnitary:
    """Check unitarity and unit determinant, returning the wrapped matrix.

    Raises ``NotUnitaryError`` or ``DeterminantError`` with the offending
    residual when the matrix is farther than ``tol`` from SU(n).
    """
    arr = as_complex_matrix(a)
    n = arr.shape[0]
    tol = Tolerances.default(n).group if tol is None else float(tol)
    gram = arr @ arr.conj().T
    u_res = NotUnitaryError.check(float(np.linalg.norm(gram - np.eye(n))), tol,
                                  "matrix is not unitary")
    d_res = DeterminantError.check(float(abs(np.linalg.det(arr) - 1.0)), tol,
                                   "determinant is not one")
    return SpecialUnitary(_readonly(arr), u_res, d_res)


def validate_skew_traceless(x, tol: float | None = None) -> SkewHermitianTraceless:
    """Check membership in su(n): X + X^* = 0 and tr(X) = 0.

    A matrix passing both checks automatically has purely imaginary
    eigenvalues up to the same tolerance.
    """
    arr = as_complex_matrix(x)
    n = arr.shape[0]
    tol = Tolerances.default(n).alg if tol is None else float(tol)
    NotSkewHermitianError.check(float(np.linalg.norm(arr + arr.conj().T)), tol,
                                "matrix is not skew-Hermitian")
    TraceNotZeroError.check(float(abs(np.trace(arr))), tol, "trace is not zero")
    return SkewHermitianTraceless(_readonly(arr))


def unitary_eig(q: SpecialUnitary, tol: float | None = None) -> UnitaryEigenDecomposition:
    """Eigendecomposition of a special unitary matrix via Hermitian solves.

    Diagonalizes the Hermitian part Q + Q^*, then, inside each degenerate
    eigenspace only, the projected skew part (Q - Q^*)/i; as Q is normal this
    gives a simultaneous unitary eigenbasis U. The raw eigenvalues, diag(U^* Q U),
    take one matrix product Q U and a column-wise dot; they are rescaled to modulus one.
    """
    a = q.entries
    n = q.n
    tol = Tolerances.default(n).eig if tol is None else float(tol)
    try:
        w, basis = np.linalg.eigh(a + a.conj().T)
    except np.linalg.LinAlgError as exc:
        raise EigenFailedError(f"hermitian eigensolver failed: {exc}") from exc
    # near[j]: w[j] joins the block of w[j - 1]; block lo..hi-1 has edges lo, hi - 1.
    near = np.zeros(n + 1, dtype=bool)
    np.less_equal(np.diff(w), _HERM_GAP_TOL * max(n, 2), out=near[1:n])
    edges = np.flatnonzero(near[1:] != near[:-1])
    skew = (a - a.conj().T) / 1j if edges.size else None
    for lo, hi in zip(edges[::2], edges[1::2] + 1):
        cols = basis[:, lo:hi]
        proj = cols.conj().T @ skew @ cols
        proj = (proj + proj.conj().T) / 2.0
        try:
            _, rot = np.linalg.eigh(proj)
        except np.linalg.LinAlgError as exc:
            raise EigenFailedError(f"hermitian eigensolver failed: {exc}") from exc
        basis[:, lo:hi] = cols @ rot
    raw = np.einsum("ji,ji->i", basis.conj(), a @ basis)
    mags = np.abs(raw)
    if np.any(mags < 0.5):
        raise EigenFailedError("eigenvalue collapsed away from the unit circle")
    evals = raw / mags
    recon = (basis * evals) @ basis.conj().T
    residual = ResidualExceededError.check(float(np.linalg.norm(recon - a)), tol,
                                           "eigendecomposition reconstruction failed")
    return UnitaryEigenDecomposition(_readonly(evals), _readonly(basis), residual)


def expm_skew(x: SkewHermitianTraceless, tol: float | None = None) -> SpecialUnitary:
    """Matrix exponential su(n) -> SU(n).

    Diagonalizes the Hermitian matrix -iX and exponentiates its (real)
    eigenvalues on the unit circle: exp(X) = V diag(e^{i theta_j}) V^*.
    The result is revalidated as special unitary.
    """
    herm = -1j * x.entries
    herm = (herm + herm.conj().T) / 2.0
    try:
        w, v = np.linalg.eigh(herm)
    except np.linalg.LinAlgError as exc:
        raise EigenFailedError(f"hermitian eigensolver failed: {exc}") from exc
    e = (v * np.exp(1j * w)) @ v.conj().T
    return validate_special_unitary(e, tol=tol)


def _haar_unitary(n: int, seed) -> np.ndarray:
    if n < 1:
        raise ShapeError("order must be at least 1")
    rng = _as_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    z /= np.sqrt(2.0)
    qmat, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    # Phase fix: dividing column j by the phase of r_jj makes the factor
    # a deterministic equivariant function of the Gaussian draw, so its
    # law is exactly Haar on U(n).
    qmat = qmat / (diag / np.abs(diag))
    return qmat


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed U(n) matrix, deterministic per seed."""
    return _haar_unitary(n, seed)


def random_special_unitary(n: int, seed) -> SpecialUnitary:
    """Haar-distributed SU(n) matrix, deterministic per seed.

    Samples Haar on U(n) by phase-fixed QR of a complex Gaussian matrix,
    then divides the first column by the determinant to land in SU(n).
    """
    qmat = _haar_unitary(n, seed).copy()
    qmat[:, 0] /= np.linalg.det(qmat)
    return validate_special_unitary(qmat)


def unitary_product(p: SpecialUnitary, q: SpecialUnitary,
                    tol: float | None = None) -> SpecialUnitary:
    """Group product P Q as a validated element.

    Default tolerance is 10x the group tolerance: residuals of the factors
    accumulate, so an exact-group-tolerance check could spuriously reject
    products of matrices that each barely pass validation.
    """
    tol = 10.0 * Tolerances.default(p.n).group if tol is None else float(tol)
    return validate_special_unitary(p.times(q).entries, tol=tol)
