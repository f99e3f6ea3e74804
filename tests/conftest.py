"""Shared grid builders, cached so repeated tests don't rebuild geometry.

Property tests run under a derandomized hypothesis profile: every run draws
the same examples, and no example fails for being slow on a busy machine.
"""

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
