import os

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


def pytest_report_header(config):
    """The BLAS library and its thread settings, which decide the bits of
    every matrix product; acceptance test 05's outcome depends on them."""
    from temporal_bc.cli import _numeric_environment

    env = _numeric_environment()
    threads = ["%s=%s" % item for item in env["threads"].items() if item[1] is not None]
    if not threads:
        threads = ["unset, so the BLAS picks its own count (%d CPUs)" % os.cpu_count()]
    return "numeric environment: BLAS %s; threads %s" % (env["blas"], ", ".join(threads))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
