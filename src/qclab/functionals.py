"""Distortion functionals over quadrature grids.

``mean_distortion`` integrates a gauged pointwise distortion against either
the uniform density or the conformally natural ``1/|w|^2`` density (polar
grids only).  ``deficit`` compares a candidate map against a reference spiral
stretch on the same grid, so the quadrature bias largely cancels.
``conformal_transfer_check`` verifies the chart identity that moves the
weighted annulus integral to an unweighted rectangle integral, on a map and
its strip twin.  ``distortion_many`` is the one pointwise rule
``(f_z, f_zbar) -> K`` that all of them use.

Grids must honor a map's break set: integrating a map whose derivative jumps
inside a cell is refused rather than silently degraded.

On a polar grid the integrands of rotation-equivariant maps depend only on
``|w|``, so ``mean_distortion``, ``l1_distance`` and ``phi_dbar_mass``
evaluate them once per ring rather than once per cell (the ring path, chosen
by ``_sampling``; nothing a caller sets selects it).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateExperimentError, InputError, UnsupportedVariantError
from .gauges import ConvexGauge
from .geometry import (
    QuadratureGrid,
    RectangleDomain,
    integrate,
    integrate_rings,
)
from .maps import (
    LinearStretch,
    MapFamily,
    PiecewiseLinearStretch,
    PiecewiseRadialStretch,
    SpiralStretch,
)

__all__ = [
    "Density",
    "DeficitResult",
    "MeanDistortionResult",
    "TransferCheckResult",
    "conformal_transfer_check",
    "deficit",
    "distortion_many",
    "l1_distance",
    "mean_distortion",
]


class Density(enum.Enum):
    """Integration density: uniform area or ``1/|w|^2`` (polar grids only)."""

    UNIFORM = "uniform"
    INVERSE_SQUARE = "invsq"

    @classmethod
    def parse(cls, token: str) -> "Density":
        tok = token.strip().lower()
        for member in cls:
            if member.value == tok:
                return member
        raise InputError(f"unknown density token {token!r}")


# Conditioning guard of ``distortion_many``: ``c * u`` with ``c = 2**10`` and
# the unit roundoff ``u = 2**-53``.
_ILL_CONDITIONED = 2.0**10 * 2.0**-53


def distortion_many(
    family: MapFamily, pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized distortion: returns ``(K, degenerate_mask)`` arrays.

    ``degenerate_mask`` marks orientation reversal (``|f_zbar| > |f_z|``),
    where ``K`` is clamped to 1.0.  A reversal with a well-separated
    difference (the conjugation map, ``f_z = 0``) stays degenerate.

    A cell is undefined (``K = NaN``, not marked degenerate) when ``|f_z|``
    or ``|f_zbar|`` is not finite, or when ``abs(|f_z| - |f_zbar|) <=
    c*u*(|f_z| + |f_zbar|)`` with ``u = 2**-53`` (the unit roundoff) and
    ``c = 2**10``.  ``K = (|f_z| + |f_zbar|) / (|f_z| - |f_zbar|)`` carries a
    relative error of about ``u*K`` times the error of the moduli in ulps
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 1.7), so past
    the ceiling ``K = 1/(c*u) = 2**43`` (about 8.8e12) fewer than three
    significant digits would remain and even the sign of the difference,
    that is the orientation, is not certain.  The guard also covers both
    moduli underflowing to 0.
    """
    fz, fzb = family.wirtinger_many(np.asarray(pts, dtype=np.complex128))
    afz = np.abs(fz)
    afzb = np.abs(fzb)
    den = afz - afzb
    undefined = ~(np.isfinite(afz) & np.isfinite(afzb)) | (
        np.abs(den) <= _ILL_CONDITIONED * (afz + afzb)
    )
    degenerate = (den < 0.0) & ~undefined
    K = np.where(degenerate, 1.0, (afz + afzb) / np.where(degenerate | undefined, 1.0, den))
    K[undefined] = np.nan
    return K, degenerate


def _check_breaks_honored(family: MapFamily, grid: QuadratureGrid) -> None:
    if grid.coordinate_kind == "polar":
        breaks = family.break_radii()
    else:
        breaks = family.break_abscissae()
    for b in breaks:
        if np.min(np.abs(grid.primary_edges - b)) > 1e-12:
            raise InputError(
                f"grid does not honor the mandatory break at {b!r}; rebuild it "
                f"with this break in its partition"
            )


@dataclass(frozen=True)
class MeanDistortionResult:
    """Value and diagnostics of a gauged mean-distortion integral."""

    value: float
    degenerate_cells: int
    warning: str | None


def _sampling(grid: QuadratureGrid, *families: MapFamily):
    """Where to evaluate an integrand built from ``families``, and how to sum it.

    Returns ``(points, integrator, cells_per_point)``.  On a polar grid where
    every family is rotation-equivariant, the integrand depends only on
    ``|w|``: it is evaluated once per ring at the midpoint radius
    ``grid.primary_mid + 0j`` (not ``|center|``, which rounds differently in
    the last bits) and summed by ``integrate_rings`` (the ring path).  The
    angular midpoint sum of such an integrand is exact, so this changes the
    reduction order, not the quadrature.  Every other grid and family is
    evaluated at each cell center and summed by ``integrate``.
    """
    if grid.coordinate_kind == "polar" and all(f.rotation_equivariant for f in families):
        return grid.primary_mid + 0j, integrate_rings, grid.n_secondary
    return grid.centers, integrate, 1


def mean_distortion(
    family: MapFamily,
    gauge: ConvexGauge,
    grid: QuadratureGrid,
    density: Density = Density.UNIFORM,
) -> MeanDistortionResult:
    """Integrate ``phi(K(., family))`` over the grid against a density.

    Orientation-reversing cells count as ``K = 1`` and are reported in
    ``degenerate_cells``; cells where ``K`` is undefined raise
    :class:`DegenerateExperimentError`.  Rotation-equivariant families on a
    polar grid take the ring path (see ``_sampling``); counts are in cells
    either way.
    """
    if not isinstance(density, Density):
        raise InputError(f"density {density!r} is not a Density; use Density.parse")
    if density is Density.INVERSE_SQUARE and grid.coordinate_kind != "polar":
        raise InputError("inverse-square density requires a polar grid")
    _check_breaks_honored(family, grid)
    pts, integrator, cells_per_point = _sampling(grid, family)
    K, degenerate = distortion_many(family, pts)
    n_undefined = int(np.count_nonzero(np.isnan(K))) * cells_per_point
    if n_undefined:
        raise DegenerateExperimentError(
            f"{n_undefined} of {grid.n_cells} cells have no defined distortion: "
            "f_z or f_zbar is not finite, or |f_z| and |f_zbar| agree to within "
            "rounding (both underflow to 0, or K exceeds 2**43)"
        )
    values = np.asarray(gauge.evaluate(K), dtype=np.float64)
    if density is Density.INVERSE_SQUARE:
        values = values / np.abs(pts) ** 2
    value = integrator(grid, values)
    n_deg = int(np.count_nonzero(degenerate)) * cells_per_point
    warning = None
    if n_deg > 0.01 * grid.n_cells:
        warning = (
            f"{n_deg} of {grid.n_cells} cells are orientation-degenerate; "
            "the mean distortion there was clamped to the identity value"
        )
    return MeanDistortionResult(
        value=float(value),
        degenerate_cells=n_deg,
        warning=warning,
    )


@dataclass(frozen=True)
class DeficitResult:
    """Relative gauged excess of a candidate over the reference stretch."""

    value: float
    below_tolerance: bool


def deficit(
    candidate: MapFamily,
    reference: SpiralStretch,
    gauge: ConvexGauge,
    grid: QuadratureGrid,
) -> DeficitResult:
    """``(I[candidate] - I[reference]) / I[reference]`` on one shared grid.

    ``I`` is the mean distortion against the ``1/|w|^2`` density.  Both terms
    use the same quadrature rule, so the leading discretization bias cancels
    in the difference.  ``below_tolerance`` flags values below ``-1e-8`` — a
    candidate that beats the reference by more than rounding, which for a
    correctly posed experiment signals a modeling error (or a genuinely
    non-convex gauge).
    """
    if not isinstance(reference, SpiralStretch) or reference.winding != 0:
        raise InputError("reference must be a SpiralStretch with winding 0")
    num_cand = mean_distortion(candidate, gauge, grid, Density.INVERSE_SQUARE).value
    num_ref = mean_distortion(reference, gauge, grid, Density.INVERSE_SQUARE).value
    return _relative_excess(num_cand, num_ref)


def _relative_excess(num_cand: float, num_ref: float) -> DeficitResult:
    """``(num_cand - num_ref) / num_ref`` as a :class:`DeficitResult`.

    Shared by ``deficit`` and ``run_ladder``, which integrates its fixed
    reference once per grid rather than once per rung.
    """
    if num_ref == 0.0:
        raise InputError("reference mean distortion is zero; deficit undefined")
    value = (num_cand - num_ref) / num_ref
    return DeficitResult(
        value=float(value),
        below_tolerance=bool(value < -1e-8),
    )


def l1_distance(a: MapFamily, b: MapFamily, grid: QuadratureGrid) -> float:
    """``integral |a - b|`` over the grid (uniform density).

    Two rotation-equivariant maps on a polar grid take the ring path (see
    ``_sampling``).
    """
    pts, integrator, _ = _sampling(grid, a, b)
    return integrator(grid, np.abs(a.eval_many(pts) - b.eval_many(pts)))


@dataclass(frozen=True)
class TransferCheckResult:
    """Both sides of the chart identity and their relative gap."""

    annulus_value: float
    rectangle_value: float
    rel_gap: float


def conformal_transfer_check(
    g: MapFamily,
    f: MapFamily,
    gauge: ConvexGauge,
    annulus_grid: QuadratureGrid,
    rectangle_grid: QuadratureGrid,
) -> TransferCheckResult:
    """Check ``integral phi(K(., g)) / |w|^2 == 4*pi^2 * integral phi(K(., f))``.

    The left side lives on the annulus ``[q, 1]``; the right side lives on the
    rectangle ``[0, ell] x [0, 1]`` with ``ell = log(1/q) / (2*pi)``, the
    conformal chart of the annulus.  The identity holds when ``f`` is the
    chart-side twin of ``g`` — the supported pairs are (spiral stretch, linear
    stretch with matching shear) and (piecewise radial stretch, piecewise
    linear stretch on the unit square, which requires ``ell = 1``).
    """
    if not math.isclose(
        annulus_grid.domain.inner_radius, g.q, rel_tol=1e-12
    ):
        raise InputError("annulus grid inner radius does not match the map's q")
    ell = math.log(1.0 / g.q) / (2.0 * math.pi)
    dom = rectangle_grid.domain
    if not isinstance(dom, RectangleDomain):
        raise InputError("rectangle_grid must cover a RectangleDomain")
    if not (
        math.isclose(dom.width, ell, rel_tol=1e-12)
        and math.isclose(dom.height, 1.0, rel_tol=1e-12)
    ):
        raise InputError(
            f"rectangle grid must cover [0, {ell!r}] x [0, 1] for q = {g.q!r}"
        )
    if isinstance(g, SpiralStretch) and isinstance(f, LinearStretch):
        if not math.isclose(f.k, g.k, rel_tol=1e-12):
            raise InputError("stretch exponents k of the pair must match")
        expected_n = -(g.theta + 2.0 * math.pi * g.winding) / (2.0 * math.pi * ell)
        if abs(f.n - expected_n) > 1e-12 * max(1.0, abs(expected_n)):
            raise InputError(
                f"shear n = {f.n!r} does not match the chart twin of the spiral "
                f"stretch (expected {expected_n!r})"
            )
    elif isinstance(g, PiecewiseRadialStretch) and isinstance(
        f, PiecewiseLinearStretch
    ):
        if not math.isclose(f.k, g.k, rel_tol=1e-12):
            raise InputError("stretch exponents k of the pair must match")
        if not math.isclose(f.eps, g.eps, rel_tol=1e-12):
            raise InputError("perturbation sizes eps of the pair must match")
        if not math.isclose(ell, 1.0, rel_tol=1e-12):
            raise InputError(
                "q must equal exp(-2*pi) for the unit-square piecewise family"
            )
    else:
        raise UnsupportedVariantError(
            "unsupported transfer pair; use (spiral, linear) or "
            "(piecewise radial, piecewise linear)"
        )
    lhs = mean_distortion(g, gauge, annulus_grid, Density.INVERSE_SQUARE).value
    rhs = (
        4.0
        * math.pi**2
        * mean_distortion(f, gauge, rectangle_grid, Density.UNIFORM).value
    )
    rel_gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), np.finfo(float).tiny)
    return TransferCheckResult(
        annulus_value=float(lhs), rectangle_value=float(rhs), rel_gap=float(rel_gap)
    )
