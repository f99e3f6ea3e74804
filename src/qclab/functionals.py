"""Distortion functionals over quadrature grids.

``mean_distortion`` integrates a gauged pointwise distortion against either
the uniform density or the conformally natural ``1/|w|^2`` density (polar
grids only).  ``deficit`` compares a candidate map against a reference spiral
stretch on the same grid, so the quadrature bias largely cancels.
``conformal_transfer_check`` verifies the chart identity that moves the
weighted annulus integral to an unweighted rectangle integral, on a map and
its strip twin.  ``_distortion`` is the one pointwise rule
``(f_z, f_zbar) -> K`` that all of them use; ``distortion_many`` applies it
to a map at given points.

``_sampled`` is the one evaluator of maps on grids: every functional, field
and audit here, in ``qclab.pompeiu`` and in ``qclab.stability`` samples its
maps through it.  It refuses a grid that does not honour a map's break set
(integrating a map whose derivative jumps inside a cell would silently
degrade the sum), picks the points, and takes each map's jet once over the
points of every grid it is given, a fixed number of points at a time.  On a
polar grid the integrands of rotation-equivariant maps depend only on
``|w|``, so it samples them once per ring rather than once per cell (the
ring path; ``pompeiu.dbar_field`` takes it too and turns each ring by
``exp(2i*phi)``, and only the alignment audit and the dbar field of a
non-equivariant map, whose samples depend on more than ``|w|``, keep cell
centres), and ``integrate`` reads the ring samples by their count.
``l1_distance``, ``pompeiu.phi_dbar_mass`` and ``_mean_distortions`` also
take a family with a leading rung axis, as the epsilon ladder builds it, and
give one value per rung, as ``integrate`` gives one integral per row.
``_mean_distortions`` also takes several families and several grids.  Every
gauged mean distortion (``mean_distortion``, ``distortion``'s value and
error estimate, the ladder's deficits) is a call of it; ``mean_distortion``
and ``deficit`` return one record each, and refuse a family of several rungs.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import BLOCK
from .errors import (
    DegenerateExperimentError,
    GaugeOverflowError,
    InputError,
    NonFiniteSampleError,
    UnsupportedVariantError,
)
from .gauges import ConvexGauge
from .geometry import QuadratureGrid, RectangleDomain, _break_tol, integrate
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
    return _distortion(*family.jet_many(pts)[1:])


def _distortion(fz: np.ndarray, fzb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``distortion_many``'s rule on a Wirtinger pair: ``(K, degenerate_mask)``."""
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


@dataclass(frozen=True)
class MeanDistortionResult:
    """Value and diagnostics of a gauged mean-distortion integral."""

    value: float
    degenerate_cells: int
    warning: str | None


# Points per step of ``_sampled``: whole ``BLOCK``s, so a step's scratch is
# fixed however many cells a grid has.  ``dbar_field`` of the
# non-equivariant ``SpiralStretch(0.5, 2, 0.7)`` after conjugation on a
# 512x512 grid, median of 15 (2-core x86-64 VM, numpy 2.4): 0.030-0.050 s at
# 512 points, 0.016-0.024 at 2,048, 0.012-0.014 at 8,192, 0.013-0.014 at
# 16,384 and 0.018-0.021 at 65,536, against 0.032-0.036 s in one call; its
# traced peak is 5.4 MB at 8,192, of which 4.2 MB is the result, and 40 MB
# in one call.  ``audit --lemma alignment --grid 512x512`` reads 0.027-0.036
# s from 2,048 points up, one call included, and 0.046-0.048 s at 512; its
# traced peak is 24 MB at every step.
_CELL_STEP = 128 * BLOCK


def _sampled(
    families: tuple[MapFamily, ...], grids: tuple[QuadratureGrid, ...], fn, cells: bool = False
) -> list[tuple[np.ndarray, np.ndarray | tuple[np.ndarray, ...]]]:
    """``(points, fn(*jets))`` on each grid: the one evaluator of maps on grids.

    A grid that splits a family's break is refused first, each family on
    each grid in order: a midpoint sum across a jump of the derivative would
    be silently degraded.  On a polar grid where every family is
    rotation-equivariant, an integrand built from them depends only on
    ``|w|``; unless ``cells`` is set (for samples that depend on more), it is
    sampled once per ring at the midpoint radius ``grid.primary_mid + 0j``
    (not ``|center|``, which rounds differently in the last bits), and
    ``integrate`` reads the ring samples by their count (the ring path).  The
    angular midpoint sum of such an integrand is exact, so this changes the
    reduction order, not the quadrature.  Other grids are sampled at their
    cell centres.

    The grids' points are joined and, ``_CELL_STEP`` points at a time, each
    family's ``jet_many`` (with its point checks) is taken once and ``fn``
    applied.  ``fn`` returns an array, or a tuple of arrays, with one value
    per point on the last axis (a rung axis may lead), written into one
    preallocated output each, so beside the outputs one step's scratch is
    live.  A map's values do not depend on how many points share a call, so
    each grid's samples have the bits of one call on its own points.  A
    point check fails at the first offending step, family by family within
    it.
    """
    for grid, b in ((g, b) for f in families for g in grids for b in g.breaks_of(f)):
        if np.min(np.abs(grid.primary_edges - b)) > _break_tol(b):
            raise InputError(
                f"grid does not honor the mandatory break at {b!r}; rebuild it "
                f"with this break in its partition"
            )
    rings = not cells and all(f.rotation_equivariant for f in families)
    pts = [g.primary_mid + 0j if rings and g.coordinate_kind == "polar" else g.centers
           for g in grids]
    joined = pts[0] if len(pts) == 1 else np.concatenate(pts)
    outs = None
    for lo in range(0, len(joined), _CELL_STEP):
        got = fn(*(f.jet_many(joined[lo : lo + _CELL_STEP]) for f in families))
        parts = (got,) if isinstance(got, np.ndarray) else got
        if len(joined) <= _CELL_STEP:  # one step: its arrays are the outputs
            outs = parts
            break
        if outs is None:
            outs = [np.empty((*p.shape[:-1], len(joined)), dtype=p.dtype) for p in parts]
        for out, part in zip(outs, parts):
            out[..., lo : lo + _CELL_STEP] = part
    ends = itertools.accumulate(len(p) for p in pts)
    cuts = [tuple(out[..., hi - len(p) : hi] for out in outs) for p, hi in zip(pts, ends)]
    return [(p, cut[0] if isinstance(got, np.ndarray) else cut) for p, cut in zip(pts, cuts)]


def _one_rung(values):
    """The one value of a one-rung evaluation; a family of several rungs is refused."""
    if len(values) != 1:
        raise InputError(
            f"expected a one-rung family, got {len(values)} rungs; a ladder "
            "of rungs is evaluated by run_ladder"
        )
    return values[0]


def _rows(arrays: tuple[np.ndarray, ...]) -> np.ndarray:
    """The rows of ``arrays`` stacked in order: one row per plain family or rung."""
    rows = [a.reshape(-1, a.shape[-1]) for a in arrays]
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def _integrate_gauged(
    grid: QuadratureGrid,
    K: np.ndarray,
    gauge: ConvexGauge,
    weight: np.ndarray | None = None,
) -> np.ndarray:
    """``integral phi(K) / weight`` over ``grid``, one integral per row of ``K``.

    ``K`` holds cell or ring samples, as ``integrate`` reads them.  A row
    with undefined ``K`` is refused, then a ``K`` outside the gauge's
    domain, then a ``phi(K)`` that overflows (``GaugeOverflowError``, naming
    its first cell and centre); each check names the first offending row.
    """
    cells_per_sample = grid.n_cells // K.shape[-1]
    for n_undefined in np.count_nonzero(np.isnan(K), axis=-1):
        if n_undefined:
            raise DegenerateExperimentError(
                f"{n_undefined * cells_per_sample} of {grid.n_cells} cells have "
                "no defined distortion: f_z or f_zbar is not finite, or |f_z| "
                "and |f_zbar| agree to within rounding (both underflow to 0, "
                "or K exceeds 2**43)"
            )
    values = np.asarray(gauge.evaluate(K), dtype=np.float64)
    if weight is not None:
        values = values / weight
    try:
        return integrate(grid, values)
    except NonFiniteSampleError as exc:  # K is defined: phi(K) overflowed
        message = f"the gauged distortion overflows a float under gauge {gauge.label}"
        raise GaugeOverflowError(f"{message}: {exc}", exc.cell_index, exc.center) from None


def _mean_distortions(
    families: tuple[MapFamily, ...],
    gauge: ConvexGauge,
    grids: tuple[QuadratureGrid, ...],
    density: Density,
) -> list[list[MeanDistortionResult]]:
    """``mean_distortion`` of every row of ``families`` on each of ``grids``.

    Returns one list per grid, in grid order, with one result per row: a
    plain family is one row, and a family with a rung axis (a
    ``PiecewiseRadialStretch`` with a tuple of ``eps``, or a ``Composition``
    over one) is one row per rung, in rung order.  Each family is evaluated
    once over the points of every grid (see ``_sampled``), and on each grid
    the rows of all the families are one ``integrate`` call.

    The checks run in this order: the density on every grid, then those of
    ``_sampled`` (every family's breaks on every grid, then the families'
    point checks step by step), and then, grid by grid, those of
    ``_integrate_gauged``.  A ``1/|w|^2`` grid with a radial cell wider than
    its inner radius is refused: the midpoint rule is far from its
    asymptotic regime there, and the half-grid error estimate errs with it
    (``g*`` at ``q = 1e-5`` on 256 rings is off by 18 times its estimate).
    """
    if not isinstance(density, Density):
        raise InputError(f"density {density!r} is not a Density; use Density.parse")
    if density is Density.INVERSE_SQUARE:
        if any(g.coordinate_kind != "polar" for g in grids):
            raise InputError("inverse-square density requires a polar grid")
        for edges in (g.primary_edges for g in grids):
            wide = np.flatnonzero(np.diff(edges) > edges[:-1])
            if wide.size:
                i = int(wide[0])
                raise InputError(
                    f"the 1/|w|^2 density is under-resolved: radial cell {i} is "
                    f"{float(edges[i + 1] - edges[i])!r} wide at inner radius "
                    f"{float(edges[i])!r}; refine the grid until no radial cell "
                    "is wider than its inner radius, or use a larger --q"
                )

    def distortions(*jets):
        return tuple(map(_rows, zip(*(_distortion(*jet[1:]) for jet in jets))))

    results = []
    for grid, (grid_pts, (K, degenerate)) in zip(grids, _sampled(families, grids, distortions)):
        weight = np.abs(grid_pts) ** 2 if density is Density.INVERSE_SQUARE else None
        totals = _integrate_gauged(grid, K, gauge, weight)
        cells_per_sample = grid.n_cells // K.shape[-1]
        n_degenerate = np.count_nonzero(degenerate, axis=-1) * cells_per_sample
        rows = []
        for value, n_deg in zip(totals, n_degenerate):
            warning = None
            if n_deg > 0.01 * grid.n_cells:
                warning = (
                    f"{n_deg} of {grid.n_cells} cells are orientation-degenerate; "
                    "the mean distortion there was clamped to the identity value"
                )
            rows.append(MeanDistortionResult(float(value), int(n_deg), warning))
        results.append(rows)
    return results


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
    polar grid take the ring path (see ``_sampled``); counts are in cells
    either way.
    """
    (results,) = _mean_distortions((family,), gauge, (grid,), density)
    return _one_rung(results)


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
    families = (candidate, reference)
    ((*cand, ref),) = _mean_distortions(families, gauge, (grid,), Density.INVERSE_SQUARE)
    return _relative_excess(_one_rung(cand).value, ref.value)


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


def l1_distance(a: MapFamily, b: MapFamily, grid: QuadratureGrid) -> float | np.ndarray:
    """``integral |a - b|`` over the grid (uniform density).

    The grid must honour both maps' breaks, as ``mean_distortion``'s does.
    Two rotation-equivariant maps on a polar grid take the ring path (see
    ``_sampled``).  A float for a plain ``a``; for an ``a`` with a rung
    axis, one distance per rung in rung order, with ``a`` and ``b`` each
    evaluated once.
    """
    ((_, values),) = _sampled((a, b), (grid,), lambda ja, jb: np.abs(ja[0] - jb[0]))
    return integrate(grid, values)


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
