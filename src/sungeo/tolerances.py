"""Numerical tolerances, all scaled from one base value.

The base ``1e-8 * n`` bounds group membership (unitarity and determinant)
and algebra membership (skew-hermitian and traceless). The
eigendecomposition reconstruction and the eigenvalue clustering get 10x
headroom over it. The rounding residual of the winding integer has its own
fixed bound.
"""

from __future__ import annotations

from dataclasses import dataclass

BASE_TOL_COEFF = 1e-8  # base tolerance per unit of matrix order
ZETA_TOL = 1e-6        # rounding residual of the winding integer


@dataclass(frozen=True)
class Tolerances:
    """The base (group) tolerance and the winding tolerance; everything
    else is derived from the base."""

    group: float
    zeta: float = ZETA_TOL

    @classmethod
    def default(cls, n: int) -> "Tolerances":
        return cls(group=BASE_TOL_COEFF * n)

    @property
    def alg(self) -> float:
        return self.group

    @property
    def eig(self) -> float:
        return 10.0 * self.group

    @property
    def cluster(self) -> float:
        return 10.0 * self.group
