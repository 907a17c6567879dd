"""Shared service-suite fixtures: the backend matrix knob.

The service tests run against the thread backend by default (fast,
in-process, the tier-1 shape).  Setting ``REPRO_SERVICE_BACKENDS`` to
a comma-separated subset of ``thread,process`` re-parametrizes
every test that takes the ``service_backend`` fixture -- CI's matrix
sets ``process`` to drive the same contracts through the worker-pool
path (coordinator-hosted tenant limits, pickled region units).
"""

import os

import pytest

SERVICE_BACKENDS = [
    backend.strip()
    for backend in os.environ.get(
        "REPRO_SERVICE_BACKENDS", "thread"
    ).split(",")
    if backend.strip()
]


@pytest.fixture(params=SERVICE_BACKENDS)
def service_backend(request):
    """Where the service under test crawls its region units."""
    return request.param
