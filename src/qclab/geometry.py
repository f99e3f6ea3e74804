"""Domains and midpoint quadrature grids.

Grids are tensor products of midpoint cells.  The primary axis (radius on an
annulus, the horizontal coordinate on a rectangle) is partitioned uniformly
and then *mandatory break points* — radii or abscissae where an integrand is
allowed to be non-smooth — are spliced into the partition, so no cell ever
straddles a break.  The secondary axis (angle, vertical coordinate) is always
uniform.

Cell weights are exact areas: ``r_mid * dr * dtheta`` on polar grids (exact
for any radial partition, since ``r_mid * dr = (r_hi^2 - r_lo^2)/2``) and
``dx * dy`` on cartesian grids.  Cells are ordered primary-axis slow,
secondary-axis fast, and all reductions use the deterministic kernel lane, so
every integral is reproducible to the bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._kernels import ordered_dot, ordered_sum
from .errors import InputError, NonFiniteSampleError, require_real

__all__ = [
    "AnnulusDomain",
    "Cell",
    "ParallelogramDomain",
    "QuadratureGrid",
    "RectangleDomain",
    "build_cartesian_grid",
    "build_polar_grid",
    "integrate",
    "integrate_complex",
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
    def outer_radius(self) -> float:
        return 1.0

    @property
    def area(self) -> float:
        return math.pi * (1.0 - self.inner_radius**2)


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


@dataclass(frozen=True)
class ParallelogramDomain:
    """Parallelogram with vertices ``0, base, base + 1j, 1j``.

    The slanted side is ``base`` (complex, ``Re base > 0``); the other side is
    the unit vertical segment.  No grid builder targets this domain directly —
    integrals over it are done in a source chart — but it records the exact
    geometry, and its area ``Re base`` is the Jacobian factor such transfers
    need.
    """

    base: complex

    def __post_init__(self) -> None:
        b = complex(self.base)
        if not (math.isfinite(b.real) and math.isfinite(b.imag) and b.real > 0.0):
            raise InputError("base must have positive finite real part")

    @property
    def area(self) -> float:
        return complex(self.base).real


class Cell(NamedTuple):
    index: int
    center: complex
    weight: float


def _partition_with_breaks(
    lo: float, hi: float, n: int, breaks: Iterable[float], axis: str
) -> np.ndarray:
    """Uniform ``n``-interval partition of ``[lo, hi]`` with breaks spliced in.

    A break within ``1e-12 * (hi - lo)`` of an existing interior edge replaces
    that edge; otherwise it is inserted.  Breaks must lie strictly inside the
    interval.
    """
    if n < 1:
        raise InputError(f"number of {axis} cells must be >= 1")
    edges = list(np.linspace(lo, hi, n + 1))
    span = hi - lo
    tol = _SNAP_REL * span
    for b in sorted(float(x) for x in breaks):
        if not math.isfinite(b) or b <= lo + tol or b >= hi - tol:
            raise InputError(
                f"break {b!r} must lie strictly inside the {axis} interval "
                f"({lo!r}, {hi!r})"
            )
        nearest = min(range(len(edges)), key=lambda i: abs(edges[i] - b))
        if abs(edges[nearest] - b) <= tol:
            edges[nearest] = b
        else:
            edges.append(b)
            edges.sort()
    return np.asarray(edges, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Midpoint tensor-product quadrature rule over a domain.

    ``centers`` are the complex cell midpoints, ``weights`` the exact cell
    areas, both flat in primary-slow/secondary-fast order.  ``primary_edges``
    is the (break-adjusted) partition of the primary axis.
    """

    domain: AnnulusDomain | RectangleDomain
    coordinate_kind: str
    primary_edges: np.ndarray
    n_secondary: int
    mandatory_breaks: tuple[float, ...]
    centers: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.coordinate_kind not in ("polar", "cartesian"):
            raise InputError("coordinate_kind must be 'polar' or 'cartesian'")
        if self.centers.shape != self.weights.shape or self.centers.ndim != 1:
            raise InputError("centers and weights must be equal-length vectors")
        if np.any(self.weights <= 0.0):
            raise InputError("all quadrature weights must be positive")
        total = ordered_sum(self.weights)
        if not math.isclose(total, self.domain.area, rel_tol=1e-12):
            raise InputError(
                f"weights sum to {total!r}, expected domain area {self.domain.area!r}"
            )

    @property
    def n_primary(self) -> int:
        return len(self.primary_edges) - 1

    @property
    def n_cells(self) -> int:
        return self.centers.shape[0]

    @property
    def secondary_span(self) -> float:
        if self.coordinate_kind == "polar":
            return 2.0 * math.pi
        return self.domain.height

    @property
    def secondary_step(self) -> float:
        return self.secondary_span / self.n_secondary

    @property
    def cells(self) -> Iterator[Cell]:
        for i in range(self.n_cells):
            yield Cell(i, complex(self.centers[i]), float(self.weights[i]))

    def locate(self, point: complex) -> tuple[int, int]:
        """Return the (primary, secondary) indices of the cell holding ``point``."""
        w = complex(point)
        if self.coordinate_kind == "polar":
            p, s = abs(w), math.atan2(w.imag, w.real) % (2.0 * math.pi)
        else:
            p, s = w.real, w.imag
        i = int(np.searchsorted(self.primary_edges, p, side="right")) - 1
        i = min(max(i, 0), self.n_primary - 1)
        j = int(s // self.secondary_step)
        j = min(max(j, 0), self.n_secondary - 1)
        return i, j


def build_polar_grid(
    domain: AnnulusDomain,
    n_radial: int,
    n_angular: int,
    breaks: Iterable[float] = (),
) -> QuadratureGrid:
    """Polar midpoint grid on an annulus, honoring radial break points."""
    if not isinstance(domain, AnnulusDomain):
        raise InputError("build_polar_grid requires an AnnulusDomain")
    if n_angular < 1:
        raise InputError("number of angular cells must be >= 1")
    r_edges = _partition_with_breaks(
        domain.inner_radius, 1.0, n_radial, breaks, "radial"
    )
    r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
    dr = np.diff(r_edges)
    dtheta = 2.0 * math.pi / n_angular
    theta_mid = (np.arange(n_angular) + 0.5) * dtheta
    centers = (r_mid[:, None] * np.exp(1j * theta_mid)[None, :]).ravel()
    weights = np.broadcast_to(
        (r_mid * dr * dtheta)[:, None], (r_mid.size, n_angular)
    ).ravel()
    return QuadratureGrid(
        domain=domain,
        coordinate_kind="polar",
        primary_edges=r_edges,
        n_secondary=n_angular,
        mandatory_breaks=tuple(sorted(float(b) for b in breaks)),
        centers=np.ascontiguousarray(centers),
        weights=np.ascontiguousarray(weights, dtype=np.float64),
    )


def build_cartesian_grid(
    domain: RectangleDomain,
    n_x: int,
    n_y: int,
    breaks: Iterable[float] = (),
) -> QuadratureGrid:
    """Cartesian midpoint grid on a rectangle, honoring abscissa break points."""
    if not isinstance(domain, RectangleDomain):
        raise InputError("build_cartesian_grid requires a RectangleDomain")
    if n_y < 1:
        raise InputError("number of vertical cells must be >= 1")
    x_edges = _partition_with_breaks(0.0, domain.width, n_x, breaks, "horizontal")
    x_mid = 0.5 * (x_edges[:-1] + x_edges[1:])
    dx = np.diff(x_edges)
    dy = domain.height / n_y
    y_mid = (np.arange(n_y) + 0.5) * dy
    centers = (x_mid[:, None] + 1j * y_mid[None, :]).ravel()
    weights = np.broadcast_to((dx * dy)[:, None], (x_mid.size, n_y)).ravel()
    return QuadratureGrid(
        domain=domain,
        coordinate_kind="cartesian",
        primary_edges=x_edges,
        n_secondary=n_y,
        mandatory_breaks=tuple(sorted(float(b) for b in breaks)),
        centers=np.ascontiguousarray(centers),
        weights=np.ascontiguousarray(weights, dtype=np.float64),
    )


def _check_finite(grid: QuadratureGrid, values: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if values.dtype.kind == "c":
        bad = ~(np.isfinite(values.real) & np.isfinite(values.imag))
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        center = complex(grid.centers[idx])
        raise NonFiniteSampleError(
            f"non-finite sample {values[idx]!r} at cell {idx} (center {center!r})",
            cell_index=idx,
            center=center,
        )


def integrate(grid: QuadratureGrid, values: np.ndarray) -> float:
    """Deterministic ``sum(weights * values)`` for real samples."""
    v = np.asarray(values, dtype=np.float64)
    if v.shape != grid.weights.shape:
        raise InputError(
            f"expected {grid.n_cells} samples, got array of shape {v.shape}"
        )
    _check_finite(grid, v)
    return ordered_dot(grid.weights, v)


def integrate_complex(grid: QuadratureGrid, values: np.ndarray) -> complex:
    """Deterministic ``sum(weights * values)`` for complex samples."""
    v = np.asarray(values, dtype=np.complex128)
    if v.shape != grid.weights.shape:
        raise InputError(
            f"expected {grid.n_cells} samples, got array of shape {v.shape}"
        )
    _check_finite(grid, v)
    re = ordered_dot(grid.weights, np.ascontiguousarray(v.real))
    im = ordered_dot(grid.weights, np.ascontiguousarray(v.imag))
    return complex(re, im)
