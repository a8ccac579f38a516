"""Exception types with stable machine-readable codes.

Every error raised by the library carries a short ``code`` string and the
process exit code the CLI maps it to (2 = invalid input, 3 = numerical
failure). Residual-bearing errors keep the offending residual and the
tolerance it was checked against.
"""

from __future__ import annotations


class SungeoError(Exception):
    """Base class for all library errors."""

    code = "error"
    exit_code = 2

    def __init__(self, message: str = "", *, residual: float | None = None,
                 tolerance: float | None = None):
        self.residual = residual
        self.tolerance = tolerance
        if not message:
            message = self.code
        if residual is not None:
            message = f"{message} (residual {residual:.3e}"
            if tolerance is not None:
                message += f", tolerance {tolerance:.3e}"
            message += ")"
        super().__init__(message)

    @classmethod
    def check(cls, residual: float, tolerance: float, message: str) -> float:
        """Return ``residual`` when it is within ``tolerance``, else raise (NaN too)."""
        if not residual <= tolerance:
            raise cls(message, residual=residual, tolerance=tolerance)
        return residual


class ShapeError(SungeoError):
    code = "shape"


class NotFiniteError(SungeoError):
    code = "not_finite"


class ZeroInputError(SungeoError):
    code = "zero_input"


class NotUnitaryError(SungeoError):
    code = "not_unitary"


class DeterminantError(SungeoError):
    code = "det_not_one"


class NotSkewHermitianError(SungeoError):
    code = "not_skew_hermitian"


class TraceNotZeroError(SungeoError):
    code = "trace_not_zero"


class EigenFailedError(SungeoError):
    code = "eig_failed"
    exit_code = 3


class ResidualExceededError(SungeoError):
    code = "residual_exceeded"
    exit_code = 3


class ZetaNotIntegerError(SungeoError):
    code = "zeta_not_integer"
    exit_code = 3


class NonFiniteResultError(SungeoError):
    code = "non_finite_result"
    exit_code = 3


class InfeasibleError(SungeoError):
    code = "infeasible"


class SingletonThetaError(SungeoError):
    code = "singleton_theta"


class UnsupportedOrderError(SungeoError):
    code = "unsupported_n"


class ParseError(SungeoError):
    code = "parse"
