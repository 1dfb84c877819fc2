import numpy as np
import pytest

from ballmoduli import Budget


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def coarse():
    """A coarse budget for tests that only need qualitative brackets."""
    return Budget(resolution=8e-3)
