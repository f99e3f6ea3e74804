"""Shared grid builders, cached so repeated tests don't rebuild geometry.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, and no example fails for being slow on a busy machine.
``traced_peak`` measures the memory a call allocates.
"""

import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import settings

settings.register_profile("qclab", derandomize=True, deadline=None)
settings.load_profile("qclab")

from qclab.geometry import (
    AnnulusDomain,
    RectangleDomain,
    build_cartesian_grid,
    build_polar_grid,
)


@lru_cache(maxsize=32)
def polar(q: float, n_radial: int, n_angular: int, breaks: tuple = ()):
    return build_polar_grid(AnnulusDomain(q), n_radial, n_angular, breaks=breaks)


@lru_cache(maxsize=32)
def cartesian(width: float, n_x: int, n_y: int, breaks: tuple = ()):
    return build_cartesian_grid(RectangleDomain(width), n_x, n_y, breaks=breaks)


@pytest.fixture(scope="session")
def annulus_half():
    """Unit annulus with inner radius 1/2, 128x128, no breaks."""
    return polar(0.5, 128, 128)


@pytest.fixture(scope="session")
def unit_square():
    """Unit square, 128x128, no breaks."""
    return cartesian(1.0, 128, 128)


@pytest.fixture(scope="session")
def unit_square_split():
    """Unit square with the mid-line break the piecewise stretches need."""
    return cartesian(1.0, 128, 128, breaks=(0.5,))


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the result and the call's peak traced bytes.

    The peak counts what the call allocated above what was traced when it
    began, numpy's array data included; it is measured by ``tracemalloc``,
    which is started for the call unless it is already tracing.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - base
