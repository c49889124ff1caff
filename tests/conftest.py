import os
import random

import pytest
from hypothesis import HealthCheck, settings

from balmat import genfuzz
from balmat.core import TolerancePolicy, matrix_from_rows

settings.register_profile(
    "balmat",
    deadline=None,
    max_examples=int(os.environ.get("BALMAT_HYPOTHESIS_EXAMPLES", "60")),
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("balmat")


@pytest.fixture
def default_tol():
    return TolerancePolicy(rtol=1e-6, atol=1e-9)


@pytest.fixture
def loose_tol():
    return TolerancePolicy(rtol=0.05, atol=1e-9)


@pytest.fixture
def householder_builds(monkeypatch):
    """The n of every Householder kernel source built while the test runs.

    The recording builder is a new key of the one kernel cache,
    `_kernels._kernel`, so the first Householder draw of each n calls it.
    """
    built = []
    build = genfuzz._householder_source

    def recording(n):
        built.append(n)
        return build(n)

    monkeypatch.setattr(genfuzz, "_householder_source", recording)
    return built


def random_rows(rng: random.Random, n: int, m: int, low=-100.0, high=100.0):
    return [[rng.uniform(low, high) for _ in range(m)] for _ in range(n)]


def random_matrix(rng: random.Random, n: int, m: int, low=-100.0, high=100.0):
    return matrix_from_rows(random_rows(rng, n, m, low, high))
