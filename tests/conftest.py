from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 run is repeatable and reads no earlier failures.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240814))


@pytest.fixture(scope="session")
def demo_dir():
    return Path(__file__).resolve().parent.parent / "demo"
