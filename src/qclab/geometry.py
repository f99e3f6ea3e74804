"""Domains and midpoint quadrature grids.

Grids are tensor products of midpoint cells.  The primary axis (radius on an
annulus, the horizontal coordinate on a rectangle) is partitioned uniformly
and then *mandatory break points* — radii or abscissae where an integrand is
allowed to be non-smooth — are spliced into the partition, so no cell ever
straddles a break.  The secondary axis (angle, vertical coordinate) is always
uniform.

A grid is its partition: the primary edges and the secondary cell count.
The rest is derived on first use.  Cell weights are exact areas,
``r_mid * dr * dtheta`` on polar grids (exact for any radial partition, since
``r_mid * dr = (r_hi^2 - r_lo^2)/2``) and ``dx * dy`` on cartesian grids, one
per primary line.  Cells are ordered primary-axis slow, secondary-axis fast.
All reductions use the fixed-order kernels in ``qclab._kernels``, so every
integral is reproducible to the bit.  ``integrate_rings`` integrates a
polar-grid integrand given once per ring (at the midpoint radii
``primary_mid``), for integrands that do not depend on the angle, and reads
only the partition.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import ordered_dot, ordered_sum
from .errors import InputError, NonFiniteSampleError, require_real

__all__ = [
    "AnnulusDomain",
    "QuadratureGrid",
    "RectangleDomain",
    "build_cartesian_grid",
    "build_polar_grid",
    "half_resolution_shape",
    "integrate",
    "integrate_complex",
    "integrate_rings",
]

_SNAP_REL = 1e-12


@dataclass(frozen=True)
class AnnulusDomain:
    """The annulus ``inner_radius <= |w| <= 1``."""

    inner_radius: float

    def __post_init__(self) -> None:
        require_real(
            self.inner_radius, "inner_radius must be in (0, 1)", lambda v: 0.0 < v < 1.0
        )

    @property
    def area(self) -> float:
        return math.pi * (1.0 - self.inner_radius**2)

    @property
    def primary_bounds(self) -> tuple[float, float]:
        """The radial interval a grid's primary edges must span."""
        return self.inner_radius, 1.0


@dataclass(frozen=True)
class RectangleDomain:
    """The axis-aligned rectangle ``[0, width] x [0, height]``."""

    width: float
    height: float = 1.0

    def __post_init__(self) -> None:
        for name in ("width", "height"):
            require_real(
                getattr(self, name),
                f"{name} must be a positive finite number",
                lambda v: v > 0.0,
            )

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def primary_bounds(self) -> tuple[float, float]:
        """The horizontal interval a grid's primary edges must span."""
        return 0.0, self.width


def _partition_with_breaks(
    lo: float, hi: float, n: int, breaks: tuple[float, ...], axis: str
) -> np.ndarray:
    """Uniform ``n``-interval partition of ``[lo, hi]`` with sorted breaks spliced in.

    A break within ``1e-12 * (hi - lo)`` of an existing interior edge replaces
    that edge; otherwise it is inserted.  Breaks must lie strictly inside the
    interval.
    """
    require_real(
        n, f"number of {axis} cells must be an integer >= 1", lambda v: v >= 1, integer=True
    )
    edges = np.linspace(lo, hi, n + 1)
    tol = _SNAP_REL * (hi - lo)
    for b in breaks:
        if not math.isfinite(b) or b <= lo + tol or b >= hi - tol:
            raise InputError(
                f"break {b!r} must lie strictly inside the {axis} interval "
                f"({lo!r}, {hi!r})"
            )
        nearest = int(np.argmin(np.abs(edges - b)))
        if abs(edges[nearest] - b) <= tol:
            edges[nearest] = b
        else:
            edges = np.insert(edges, np.searchsorted(edges, b), b)
    return edges


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Midpoint tensor-product quadrature rule over a domain, held as its partition.

    ``primary_edges`` partitions the domain's ``primary_bounds`` (breaks
    spliced in); the secondary axis has ``n_secondary`` uniform cells.  The
    per-line ``primary_mid`` and ``line_weights`` and the per-cell ``centers``
    and ``weights`` (primary-slow/secondary-fast) are derived on first use.
    The domain sets the coordinates: polar on an annulus, cartesian on a
    rectangle.
    """

    domain: AnnulusDomain | RectangleDomain
    primary_edges: np.ndarray
    n_secondary: int
    mandatory_breaks: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.domain, (AnnulusDomain, RectangleDomain)):
            raise InputError("a grid needs an AnnulusDomain or a RectangleDomain")
        axis = "angular" if self.coordinate_kind == "polar" else "vertical"
        message = f"number of {axis} cells must be an integer >= 1"
        require_real(self.n_secondary, message, lambda v: v >= 1, integer=True)
        if np.any(self.line_weights <= 0.0):
            raise InputError("all quadrature weights must be positive")
        total = ordered_sum(self.line_weights) * self.n_secondary
        if not math.isclose(total, self.domain.area, rel_tol=1e-12):
            raise InputError(
                f"weights sum to {total!r}, expected domain area {self.domain.area!r}"
            )
        lo, hi = self.domain.primary_bounds
        first, last = float(self.primary_edges[0]), float(self.primary_edges[-1])
        tol = _SNAP_REL * (hi - lo)
        if abs(first - lo) > tol or abs(last - hi) > tol:
            raise InputError(
                f"primary edges span [{first!r}, {last!r}], expected the "
                f"domain's [{lo!r}, {hi!r}]"
            )

    @property
    def coordinate_kind(self) -> str:
        """``"polar"`` on an annulus, ``"cartesian"`` on a rectangle."""
        return "polar" if isinstance(self.domain, AnnulusDomain) else "cartesian"

    @property
    def n_primary(self) -> int:
        return len(self.primary_edges) - 1

    @property
    def n_cells(self) -> int:
        return self.n_primary * self.n_secondary

    @property
    def secondary_span(self) -> float:
        if self.coordinate_kind == "polar":
            return 2.0 * math.pi
        return self.domain.height

    @property
    def secondary_step(self) -> float:
        return self.secondary_span / self.n_secondary

    @cached_property
    def primary_mid(self) -> np.ndarray:
        """Midpoint of each primary interval: ``r_mid`` or ``x_mid``."""
        return 0.5 * (self.primary_edges[:-1] + self.primary_edges[1:])

    @cached_property
    def line_weights(self) -> np.ndarray:
        """Weight of the cells on each primary line (all equal), one value per line."""
        width = np.diff(self.primary_edges)
        if self.coordinate_kind == "polar":
            width = self.primary_mid * width
        return width * self.secondary_step

    def _centers(self, lines: slice, cells: np.ndarray) -> np.ndarray:
        """Complex midpoints of secondary ``cells`` on primary ``lines``, one row per line."""
        sec = (cells + 0.5) * self.secondary_step
        mid = self.primary_mid[lines, None]
        if self.coordinate_kind == "polar":
            return mid * np.exp(1j * sec)[None, :]
        return mid + 1j * sec[None, :]

    @cached_property
    def centers(self) -> np.ndarray:
        """Complex midpoint of every cell."""
        return self._centers(slice(None), np.arange(self.n_secondary)).ravel()

    def center(self, index: int) -> complex:
        """Complex midpoint of cell ``index``: ``centers[index]``, without building ``centers``."""
        i, j = divmod(index, self.n_secondary)
        return complex(self._centers(slice(i, i + 1), np.arange(j, j + 1))[0, 0])

    @cached_property
    def weights(self) -> np.ndarray:
        """Exact area of every cell."""
        return np.repeat(self.line_weights, self.n_secondary)


def build_polar_grid(
    domain: AnnulusDomain,
    n_radial: int,
    n_angular: int,
    breaks: Iterable[float] = (),
) -> QuadratureGrid:
    """Polar midpoint grid on an annulus, honoring radial break points."""
    if not isinstance(domain, AnnulusDomain):
        raise InputError("build_polar_grid requires an AnnulusDomain")
    breaks = tuple(sorted(float(b) for b in breaks))
    edges = _partition_with_breaks(*domain.primary_bounds, n_radial, breaks, "radial")
    return QuadratureGrid(domain, edges, n_angular, breaks)


def build_cartesian_grid(
    domain: RectangleDomain,
    n_x: int,
    n_y: int,
    breaks: Iterable[float] = (),
) -> QuadratureGrid:
    """Cartesian midpoint grid on a rectangle, honoring abscissa break points."""
    if not isinstance(domain, RectangleDomain):
        raise InputError("build_cartesian_grid requires a RectangleDomain")
    breaks = tuple(sorted(float(b) for b in breaks))
    edges = _partition_with_breaks(*domain.primary_bounds, n_x, breaks, "horizontal")
    return QuadratureGrid(domain, edges, n_y, breaks)


def half_resolution_shape(n_primary: int, n_secondary: int) -> tuple[int, int]:
    """Shape of the grid that estimates the quadrature error of a finer one.

    Each axis is halved, keeping at least 2 primary and 1 secondary cells.
    Raises ``InputError`` when that grid is no coarser than the full grid:
    comparing a grid with itself would make the error estimate read 0.
    """
    half = (max(2, n_primary // 2), max(1, n_secondary // 2))
    if half[0] >= n_primary and half[1] >= n_secondary:
        raise InputError(
            f"grid {n_primary}x{n_secondary} is too coarse: its half-resolution "
            f"grid {half[0]}x{half[1]} is no coarser, so the quadrature error "
            "estimate would read 0"
        )
    return half


def _check_finite(grid: QuadratureGrid, values: np.ndarray, stride: int = 1) -> None:
    """Refuse non-finite samples, naming the first offending cell.

    ``values[i]`` stands for the cells ``i * stride`` to ``i * stride +
    stride - 1``; the first of them is reported.
    """
    bad = ~np.isfinite(values)  # a complex value needs both parts finite
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        idx = i * stride
        center = grid.center(idx)
        raise NonFiniteSampleError(
            f"non-finite sample {values[i]!r} at cell {idx} (center {center!r})",
            cell_index=idx,
            center=center,
        )


def _cell_samples(grid: QuadratureGrid, v: np.ndarray) -> np.ndarray:
    """``v``, after checking it holds one finite sample per cell."""
    if v.shape != (grid.n_cells,):
        raise InputError(
            f"expected {grid.n_cells} samples, got array of shape {v.shape}"
        )
    _check_finite(grid, v)
    return v


def _real(values) -> np.ndarray:
    """``values`` as float64; complex ones are refused, not cut to real parts."""
    v = np.asarray(values)
    if np.iscomplexobj(v):
        raise InputError("complex samples in a real integral; use integrate_complex")
    return v.astype(np.float64, copy=False)


def integrate(grid: QuadratureGrid, values: np.ndarray) -> float:
    """Deterministic ``sum(weights * values)`` for real samples."""
    return ordered_dot(grid.weights, _cell_samples(grid, _real(values)))


def integrate_complex(grid: QuadratureGrid, values: np.ndarray) -> complex:
    """Deterministic ``sum(weights * values)`` for complex samples."""
    v = _cell_samples(grid, np.asarray(values, dtype=np.complex128))
    re = ordered_dot(grid.weights, np.ascontiguousarray(v.real))
    im = ordered_dot(grid.weights, np.ascontiguousarray(v.imag))
    return complex(re, im)


def integrate_rings(grid: QuadratureGrid, values: np.ndarray) -> float:
    """``integrate`` for a polar-grid integrand that is constant on each ring.

    ``values[i]`` is the integrand on ring ``i``; it is weighted by the ring's
    area, ``n_secondary`` times its cell weight.  The midpoint rule in angle
    integrates such an integrand exactly, so this equals ``integrate`` on the
    broadcast values up to the order of the reduction.  It reads only the
    grid's partition.  A non-finite value is reported at the first cell of
    its ring.
    """
    v = _real(values)
    if grid.coordinate_kind != "polar" or v.shape != (grid.n_primary,):
        raise InputError(
            f"expected {grid.n_primary} ring samples on a polar grid, got array "
            f"of shape {v.shape}"
        )
    _check_finite(grid, v, grid.n_secondary)
    return ordered_dot(grid.line_weights * grid.n_secondary, v)
