import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("deterministic")

# scripts/<name>.py imports as the module <name>
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "scripts"))
import study as study_script  # noqa: E402


def pytest_report_header(config):
    """The numeric environment; acceptance test 05's outcome depends on it."""
    return study_script.environment_line()


@pytest.fixture
def study():
    return study_script


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
