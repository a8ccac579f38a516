"""Numerical tolerances, all scaled from one base value.

The base ``1e-8 * n`` bounds group membership (unitarity and determinant)
and algebra membership (skew-hermitian and traceless). The
eigendecomposition reconstruction and the eigenvalue clustering get 10x
headroom over it. The rounding residual of the winding integer has its own
bound, fixed at the default base and scaled with a base chosen by the caller.

Tolerances are chosen once, when a matrix is validated, and then travel with
it: validated matrices, the values derived from them and their spectra carry
``tols``, and each later check reads the field it needs from the value it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

BASE_TOL_COEFF = 1e-8  # base tolerance per unit of matrix order
ZETA_TOL = 1e-6        # rounding residual of the winding integer


@dataclass(frozen=True)
class Tolerances:
    """The base (group) tolerance and the winding tolerance, both finite and
    positive; everything else is derived from the base."""

    group: float
    zeta: float = ZETA_TOL

    def __post_init__(self):
        if not (0 < self.group < math.inf and 0 < self.zeta < math.inf):
            raise ValueError(f"tolerances must be finite and positive, got {self}")

    @classmethod
    @lru_cache(maxsize=256)
    def default(cls, n: int) -> "Tolerances":
        return cls(group=BASE_TOL_COEFF * n)

    @classmethod
    def scaled(cls, group: float, n: int) -> "Tolerances":
        """Tolerances for order n at a chosen base. The winding tolerance
        scales by the base's factor over the default, never below ``ZETA_TOL``
        and at most 0.1, far below the pi at which rounding becomes ambiguous:
        input noise moves the argument sum as it moves the residuals."""
        factor = group / cls.default(n).group
        return cls(group=group, zeta=min(0.1, max(ZETA_TOL, ZETA_TOL * factor)))

    @property
    def alg(self) -> float:
        return self.group

    @property
    def eig(self) -> float:
        return 10.0 * self.group

    @property
    def cluster(self) -> float:
        return 10.0 * self.group
