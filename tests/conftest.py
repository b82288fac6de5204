import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pinvlab import generate

settings.register_profile(
    "default",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def near_identity_op(rng, n: int, scale: float) -> np.ndarray:
    """I + g, for the Ginibre draw g of ``generate.near_identity`` scaled to
    operator norm ``scale`` by its SVD, not to Frobenius norm ``scale``.

    For tests that must reach a fixed operator distance from I: the
    Frobenius scaling shrinks ||g|| by about 2 / sqrt(n).
    """
    g = generate.ginibre(rng, n, n)
    g *= scale / np.linalg.norm(g, 2)
    return np.eye(n, dtype=complex) + g
