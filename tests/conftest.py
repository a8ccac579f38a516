import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sungeo import validate_special_unitary

settings.register_profile(
    "sungeo",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("sungeo")


def random_skew_traceless(n: int, seed, scale: float = 1.0) -> np.ndarray:
    """Random element of su(n) with Frobenius norm equal to ``scale``."""
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = (z - z.conj().T) / 2.0
    x -= (np.trace(x) / n) * np.eye(n)
    norm = np.linalg.norm(x)
    if norm > 0:
        x *= scale / norm
    return x


def diag_su(args):
    """diag(e^{i args}) for the sorted arguments, validated at the default tolerances."""
    return validate_special_unitary(np.diag(np.exp(1j * np.sort(np.asarray(args, dtype=float)))))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
