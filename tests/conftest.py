"""Shared fixtures for the test suite.

Statistical tests use fixed seeds so the suite is deterministic; thresholds
are chosen so that a correct sampler fails with probability far below 1e-6
per test (the chi-square tests use alpha = 1e-4 on pre-seeded data, which
either passes always or fails always for a given code version).
"""

import numpy as np
import pytest

from repro.pro.backends import sharedmem
from repro.pro.backends.pool import clear_default_pools
from repro.pro.backends.process import ProcessBackend
from repro.pro.machine import PROMachine


@pytest.fixture
def rng():
    """A fresh, deterministically seeded NumPy generator."""
    return np.random.default_rng(20030607)


@pytest.fixture
def machine2():
    """A 2-processor PRO machine with a fixed seed."""
    return PROMachine(2, seed=101)


@pytest.fixture
def machine3():
    """A 3-processor PRO machine with a fixed seed."""
    return PROMachine(3, seed=202)


@pytest.fixture
def machine4():
    """A 4-processor PRO machine with a fixed seed."""
    return PROMachine(4, seed=303)


@pytest.fixture
def machine5():
    """A 5-processor PRO machine (odd, non power of two) with a fixed seed."""
    return PROMachine(5, seed=404)


@pytest.fixture
def no_shared_memory(monkeypatch):
    """A host without ``/dev/shm``: the process backend's degrade path.

    Segment creation is unavailable in this process and in every process
    it forks afterwards, so the transport sends every array in-band and
    ``empty`` declines.  Warm default fleets are closed on both sides, so
    none forked with shared memory serves the test and none forked
    without it outlives it.
    """
    clear_default_pools()
    monkeypatch.setattr(sharedmem, "_shm_module", None)
    monkeypatch.setattr(sharedmem, "_PROBE", (None, False))
    yield
    clear_default_pools()


@pytest.fixture(params=["sharedmem", "degrade"])
def payload_path(request):
    """Each way the process backend's payloads cross: segments, or in-band."""
    if request.param == "degrade":
        request.getfixturevalue("no_shared_memory")
    return request.param


@pytest.fixture(params=["backend", "process"], ids=["private", "borrowed"])
def process_backend(request):
    """A process backend on each kind of standing fleet.

    ``private`` owns its fleet (``pool_scope="backend"``); ``borrowed``
    takes one from the process-wide default pool cache, as the drivers do.
    A fleet only changes where the ranks live, so every test on this
    fixture must see the same results on both.  The backend is closed and
    the cache cleared on both sides of the test, so no fleet outlives it.
    """
    clear_default_pools()
    backend = ProcessBackend(pool_scope=request.param)
    yield backend
    backend.close()
    clear_default_pools()
