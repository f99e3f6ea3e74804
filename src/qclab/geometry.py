"""Domains and midpoint quadrature grids.

Grids are tensor products of midpoint cells.  The primary axis (radius on an
annulus, the horizontal coordinate on a rectangle) is partitioned uniformly
and then *mandatory break points* — radii or abscissae where an integrand is
allowed to be non-smooth — are spliced into the partition, so no cell ever
straddles a break.  The secondary axis (angle, vertical coordinate) is always
uniform.

The domain picks the chart, polar on an annulus and cartesian on a
rectangle, and callers never do: ``grid_for`` builds a map's grid on a
domain, and a grid's ``point``, ``chart`` and ``breaks_of`` convert points and
pick a map's break set.  ``coordinate_kind`` is left for maths that holds on
one chart only (the ring path, the ``1/|w|^2`` density, the periodic angle).

A grid is its partition: the primary edges and the secondary cell count.
The rest is derived on first use.  Cell weights are exact areas,
``r_mid * dr * dtheta`` on polar grids (exact for any radial partition, since
``r_mid * dr = (r_hi^2 - r_lo^2)/2``) and ``dx * dy`` on cartesian grids, one
per primary line.  Cells are ordered primary-axis slow, secondary-axis fast.
All reductions use the fixed-order kernels in ``qclab._kernels``, so every
integral is reproducible to the bit.  ``integrate`` is the one grid integral,
one ``ordered_dot`` call.  It reads its samples by their length: one per
cell, weighted by the cell weights, or on a polar grid one per ring (at the
midpoint radii ``primary_mid``), weighted by the ring areas, for integrands
that do not depend on the angle; ring samples read only the partition.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import ordered_dot
from .errors import InputError, NonFiniteSampleError, require_real

__all__ = [
    "AnnulusDomain",
    "QuadratureGrid",
    "RectangleDomain",
    "build_cartesian_grid",
    "build_polar_grid",
    "grid_for",
    "half_resolution_shape",
    "image_annulus",
    "integrate",
    "integrate_complex",
]

_SNAP_REL = 1e-12

# A point this close to a break (a radius or an abscissa) is on it: a map
# refuses its derivative there, and a grid honours a break with an edge this
# close.  A grid snaps a break onto an edge within 4x this, so a break spliced
# in as a new edge leaves every cell midpoint at least 2x this away.  Each
# tolerance is scaled to the break by ``_break_tol``.
_BREAK_ATOL = 1e-12


def _break_tol(b: float, tol: float = _BREAK_ATOL) -> float:
    """``tol`` scaled by ``min(1, |b|)``: never wider than a break below 1 itself."""
    return tol * min(1.0, abs(b))


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
        # (1 - r)(1 + r), not 1 - r**2, which cancels for thin annuli: at
        # r = 0.999999 it is about 5e-11 relative off, past the grid's check
        return math.pi * (1.0 - self.inner_radius) * (1.0 + self.inner_radius)

    @property
    def primary_bounds(self) -> tuple[float, float]:
        """The radial interval a grid's primary edges must span."""
        return self.inner_radius, 1.0


def image_annulus(q: float, k: float) -> AnnulusDomain:
    """The image annulus ``[q**k, 1]`` of a stretch by ``k`` of ``[q, 1]``.

    ``q`` and ``k`` are checked as a stretch checks them, and an inner radius
    that underflows is refused by name rather than as an ``inner_radius``.
    """
    require_real(q, "q must be in (0, 1)", lambda v: 0.0 < v < 1.0)
    require_real(k, "k must be >= 1", lambda v: v >= 1.0)
    inner = q**k
    if inner < sys.float_info.min:
        raise InputError(
            f"the inner radius q**k = {inner!r} underflows at q = {q!r}, k = {k!r}; "
            "use a smaller k or a larger q"
        )
    return AnnulusDomain(inner)


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

    A break within ``max(1e-12 * (hi - lo), 4 * _BREAK_ATOL)``, scaled by
    ``_break_tol``, of an existing interior edge replaces that edge;
    otherwise it is inserted.  Breaks must lie strictly inside the interval.
    """
    require_real(
        n, f"number of {axis} cells must be an integer >= 1", lambda v: v >= 1, integer=True
    )
    edges = np.linspace(lo, hi, n + 1)
    for b in breaks:
        tol = _break_tol(b, max(_SNAP_REL * (hi - lo), 4.0 * _BREAK_ATOL))
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
        # a check, not a result: fsum is exactly rounded and cheaper here
        # than the canonical ordered_sum
        total = math.fsum(self.line_weights.tolist()) * self.n_secondary
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

    def point(self, primary, secondary) -> np.ndarray:
        """Complex points at chart coordinates ``(primary, secondary)``, broadcast.

        ``primary * exp(i * secondary)`` on polar grids, ``primary + i *
        secondary`` on cartesian ones.
        """
        if self.coordinate_kind == "polar":
            return primary * np.exp(1j * secondary)
        return primary + 1j * secondary

    def chart(self, w) -> tuple[np.ndarray, np.ndarray]:
        """Chart coordinates of the points ``w``: the inverse of ``point``.

        ``(|w|, arg w mod 2*pi)`` on polar grids, ``(Re w, Im w)`` on
        cartesian ones, each shaped as ``w``.
        """
        w = np.asarray(w, dtype=np.complex128)
        if self.coordinate_kind == "polar":
            return np.abs(w), np.arctan2(w.imag, w.real) % (2.0 * math.pi)
        return w.real, w.imag

    def breaks_of(self, family) -> tuple[float, ...]:
        """``family``'s break set on this grid's primary axis: radii or abscissae."""
        if self.coordinate_kind == "polar":
            return family.break_radii()
        return family.break_abscissae()

    @cached_property
    def centers(self) -> np.ndarray:
        """Complex midpoint of every cell."""
        sec = (np.arange(self.n_secondary) + 0.5) * self.secondary_step
        return self.point(self.primary_mid[:, None], sec[None, :]).ravel()

    def center(self, index: int) -> complex:
        """Complex midpoint of cell ``index``: ``centers[index]``, without building ``centers``."""
        i, j = divmod(index, self.n_secondary)
        return complex(self.point(self.primary_mid[i], (j + 0.5) * self.secondary_step))

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


def grid_for(
    family, domain: AnnulusDomain | RectangleDomain, n_primary: int, n_secondary: int
) -> QuadratureGrid:
    """Midpoint grid on ``domain`` with ``family``'s breaks spliced in.

    Polar on an annulus, honouring ``family.break_radii()``; cartesian on a
    rectangle, honouring ``family.break_abscissae()``.
    """
    if isinstance(domain, AnnulusDomain):
        return build_polar_grid(domain, n_primary, n_secondary, family.break_radii())
    breaks = family.break_abscissae()
    return build_cartesian_grid(domain, n_primary, n_secondary, breaks)


def half_resolution_shape(n_primary: int, n_secondary: int) -> tuple[int, int]:
    """Shape of the grid that estimates the quadrature error of a finer one.

    Each axis is halved, keeping at least 2 primary and 1 secondary cells.
    Raises ``InputError`` when that grid has as many primary cells as the
    full grid: every integrand the estimate is used for is constant along
    the secondary axis (rings on an annulus, ``x`` alone on a rectangle), so
    halving that axis alone would make the error estimate read 0.
    """
    half = (max(2, n_primary // 2), max(1, n_secondary // 2))
    if half[0] >= n_primary:
        raise InputError(
            f"grid {n_primary}x{n_secondary} is too coarse: its half-resolution "
            f"grid {half[0]}x{half[1]} has as many primary cells, so the "
            "quadrature error estimate would read 0"
        )
    return half


def integrate(grid: QuadratureGrid, values) -> float | np.ndarray:
    """Deterministic ``sum(weights * values)`` for real samples.

    The length of the last axis says what the samples are: ``n_cells``
    values are one per cell; on a polar grid, ``n_primary`` values are one
    per ring, each weighted by the ring's area, ``n_secondary`` times its
    cell weight.  The midpoint rule in angle integrates an integrand that is
    constant on each ring exactly, so both forms agree up to the order of the
    reduction.  Leading axes are rows (one per rung): the result is a float
    for a single row and one integral per row otherwise, each with the bits
    of its own one-row call.  A non-finite sample is refused at the first
    cell it stands for, in the first row that has one; complex samples are
    refused, not cut to their real parts.
    """
    v = np.asarray(values)
    if np.iscomplexobj(v):
        raise InputError("complex samples in a real integral; use integrate_complex")
    v = v.astype(np.float64, copy=False)
    n = v.shape[-1] if v.ndim else None
    if n == grid.n_cells:
        stride = 1
    elif n == grid.n_primary and grid.coordinate_kind == "polar":
        stride = grid.n_secondary
    else:
        raise InputError(
            f"expected {grid.n_cells} cell samples or, on a polar grid, "
            f"{grid.n_primary} ring samples, got array of shape {v.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:  # in row order, so the first bad sample of the first bad row
        idx = int(bad[0]) % n * stride
        center = grid.center(idx)
        raise NonFiniteSampleError(
            f"non-finite sample {float(v.flat[bad[0]])!r} at cell {idx} (center {center!r})",
            cell_index=idx,
            center=center,
        )
    weights = grid.weights if stride == 1 else grid.line_weights * grid.n_secondary
    return ordered_dot(weights, v)


def integrate_complex(grid: QuadratureGrid, values) -> complex:
    """Deterministic ``sum(weights * values)`` for complex cell or ring samples.

    ``integrate`` of the real and the imaginary rows of ``values``, read in
    place, so a non-finite sample is reported by its first non-finite part,
    in the real row first.
    """
    v = np.ascontiguousarray(values, dtype=np.complex128)
    if v.ndim != 1:
        raise InputError(f"expected one row of complex samples, got array of shape {v.shape}")
    re, im = integrate(grid, v.view(np.float64).reshape(-1, 2).T)
    return complex(re, im)
