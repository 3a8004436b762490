import numpy as np
import pytest

from vranphy.backends.emulated import make_emulated
from vranphy.backends.model import JitterSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20240521)


@pytest.fixture
def t2_quiet():
    """Calibrated emulated T2 without the contention tail."""
    return make_emulated("t2-emulated", spike=JitterSpec())
