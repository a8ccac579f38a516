"""Bi-invariant Frobenius geometry of the special unitary group SU(n).

Distance, minimizing logarithms and their Grassmannian families,
generalized principal logarithms, diameter and diametral pairs, all
cross-checked against an independent brute-force integer-lattice oracle.
"""

from .errors import (
    DeterminantError,
    EigenFailedError,
    InfeasibleError,
    NotFiniteError,
    NotSkewHermitianError,
    NotUnitaryError,
    ParseError,
    ResidualExceededError,
    ShapeError,
    SingletonThetaError,
    SungeoError,
    TraceNotZeroError,
    UnsupportedOrderError,
    ZetaNotIntegerError,
)
from .geometry import (
    GeodesicFamily,
    GeodesicSegment,
    diameter,
    diametral_points,
    distance,
    geodesic_eval,
    geodesic_family,
    log_map,
    relative_spectrum,
)
from .logmin import (
    PlogStatus,
    ThetaDescriptor,
    ThetaSamples,
    brute_force_m,
    canonical_log,
    grassmann_label,
    m_value,
    plog_status,
    theta_descriptor,
    theta_sample,
)
from .matrixcore import (
    SkewHermitianTraceless,
    SpecialUnitary,
    expm_skew,
    frobenius_inner,
    frobenius_norm,
    random_special_unitary,
    random_unitary,
    unitary_eig,
    unitary_product,
    validate_skew_traceless,
    validate_special_unitary,
)
from .spectral import (
    AdmissibleTuple,
    SpectralData,
    spectral_summary,
)
from .tolerances import Tolerances

__version__ = "0.1.0"
