"""Cauchy-Pompeiu transforms on annuli.

For a map ``f`` smooth off a break set, the representation

    f(w) = (1/(2*pi*i)) * boundary integral of f(xi)/(xi - w) d(xi)
         - (1/pi) * area integral of f_zbar(zeta)/(zeta - w) dA(zeta)

recovers interior values from the boundary trace and the ``dbar`` field.  The
boundary trace uses trapezoid nodes on both circles (spectrally accurate for
smooth data); the area term uses the midpoint grid with a 3x3 cell patch
around the target excluded, which keeps the singular kernel integrable at the
cost of an O(h log 1/h) hole error.

Both terms are batched across targets: ``reconstruct_many`` finds every
target's excluded patch (as at most a few cell indices), then makes one
``pompeiu_sum_many`` kernel call for the area term and one
``cauchy_boundary`` call for the boundary term.  ``pompeiu_area`` and
``reconstruct`` are its one-target case, so each target's sums have the
same bits whichever entry point computed them.

``psi_dbar_mass`` and ``phi_dbar_mass`` are the scalar ``dbar`` functionals of
a candidate map measured against its reference stretch: ``Psi`` by the
chain rule on the source square, ``Phi`` as a composition on the image
annulus.  A non-finite target point is an ``InputError`` that names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import ordered_sum, ordered_sums, pompeiu_sum_many
from .errors import AccuracyError, InputError, UnsupportedVariantError, require_real
from .functionals import _sampling
from .geometry import (
    AnnulusDomain,
    QuadratureGrid,
    RectangleDomain,
    build_cartesian_grid,
    build_polar_grid,
    integrate,
)
from .maps import (
    Composition,
    InverseSpiralStretch,
    LinearStretch,
    MapFamily,
    SpiralStretch,
)

__all__ = [
    "BoundaryTrace",
    "DbarField",
    "ReconstructionResult",
    "TraceComponent",
    "annulus_trace",
    "cauchy_boundary",
    "dbar_field",
    "kernel_mass",
    "offset_targets",
    "phi_dbar_mass",
    "pompeiu_area",
    "psi_dbar_mass",
    "reconstruct",
    "reconstruct_many",
]


@dataclass(frozen=True)
class TraceComponent:
    """One boundary circle: nodes, map values, and complex ``d(xi)`` weights."""

    radius: float
    nodes: np.ndarray
    values: np.ndarray
    dweights: np.ndarray

    @property
    def spacing(self) -> float:
        """Arc length between adjacent nodes."""
        return 2.0 * math.pi * self.radius / self.nodes.shape[0]


@dataclass(frozen=True)
class BoundaryTrace:
    """Oriented boundary data of an annulus: outer circle ccw, inner cw."""

    domain: AnnulusDomain
    components: tuple[TraceComponent, ...]


def annulus_trace(
    family: MapFamily, domain: AnnulusDomain, n_nodes: int
) -> BoundaryTrace:
    """Sample a map on the oriented boundary of an annulus.

    ``n_nodes`` trapezoid nodes per circle; the outer unit circle runs
    counterclockwise, the inner circle clockwise, so together they bound the
    annulus positively.
    """
    require_real(n_nodes, "n_nodes must be an integer >= 8", lambda v: v >= 8, integer=True)
    j = np.arange(n_nodes)
    unit = np.exp(2j * math.pi * j / n_nodes)
    step = 2.0 * math.pi / n_nodes
    comps = []
    for radius, turn in ((1.0, 1j), (domain.inner_radius, -1j)):
        nodes = radius * unit
        comps.append(
            TraceComponent(
                radius=radius,
                nodes=nodes,
                values=np.asarray(family.eval_many(nodes), dtype=np.complex128),
                dweights=turn * nodes * step,
            )
        )
    return BoundaryTrace(domain=domain, components=tuple(comps))


def _targets(targets) -> np.ndarray:
    """Target points as a 1-d complex array; a non-finite one is an ``InputError``."""
    pts = np.atleast_1d(np.asarray(targets, dtype=np.complex128))
    bad = ~np.isfinite(pts)
    if np.any(bad):
        raise InputError(f"target {complex(pts[np.argmax(bad)])!r} is not finite")
    return pts


# Targets per pass of cauchy_boundary: its scratch is (step, n_nodes) complex,
# so memory stays fixed however many targets are asked for.
_CAUCHY_STEP = 64


def cauchy_boundary(trace: BoundaryTrace, targets) -> np.ndarray:
    """``(1/(2*pi*i)) * sum values * dweights / (nodes - w)`` per target.

    Raises :class:`AccuracyError` when a target sits closer to a boundary
    circle than twice that circle's node spacing — inside that collar the
    trapezoid sum loses its spectral accuracy and the result would be junk.
    The circles are checked in order and, within a circle, the targets in
    order; the first offending pair is reported.
    """
    pts = _targets(targets)
    out = np.zeros(pts.shape, dtype=np.complex128)
    for comp in trace.components:
        guard = 2.0 * comp.spacing
        numer = comp.values * comp.dweights
        for lo in range(0, pts.size, _CAUCHY_STEP):
            chunk = pts[lo : lo + _CAUCHY_STEP]
            diff = comp.nodes[None, :] - chunk[:, None]
            near = np.min(np.abs(diff), axis=1) < guard
            if np.any(near):
                w = chunk[np.argmax(near)]
                raise AccuracyError(
                    f"target {w!r} is within {guard!r} of the boundary nodes "
                    f"on the circle |xi| = {comp.radius!r}; refine the trace "
                    "or move the target"
                )
            term = numer / diff
            # (T, 2, n) view: the real and imaginary rows of every target
            parts = np.moveaxis(term.view(np.float64).reshape(*term.shape, 2), -1, -2)
            sums = ordered_sums(parts)
            out.real[lo : lo + _CAUCHY_STEP] += sums[:, 0]
            out.imag[lo : lo + _CAUCHY_STEP] += sums[:, 1]
    return out / (2j * math.pi)


@dataclass(frozen=True)
class DbarField:
    """``f_zbar`` sampled on a quadrature grid, with the sampled map."""

    family: MapFamily
    grid: QuadratureGrid
    values: np.ndarray


def dbar_field(family: MapFamily, grid: QuadratureGrid) -> DbarField:
    """Sample the ``dbar`` derivative of a map on all grid cells."""
    _, fzb = family.wirtinger_many(grid.centers)
    return DbarField(family=family, grid=grid, values=np.asarray(fzb))


_SNAP_CELLS = 1e-9


def _exclusion_cells(grid: QuadratureGrid, w: complex) -> np.ndarray:
    """Indices of the patch of cells around the target, ascending.

    A cell is excluded when its center lies strictly within 1.5 cell-widths
    of the target in each axis (measured in index space, so uneven primary
    spacing from mandatory breaks is handled per cell).  For a target in the
    interior of a cell this is exactly that cell plus its 8 neighbors.  For a
    target on a cell edge or corner — where "the containing cell" is
    ambiguous — it degrades to the symmetric 2-cell-wide block instead, which
    keeps the patch centered on the target; the omitted-patch term only
    vanishes to leading order when that symmetry holds.  The secondary axis
    wraps on polar grids (angle is periodic) and clamps on cartesian grids;
    the primary axis always clamps.
    """
    wc = complex(w)
    edges = grid.primary_edges
    nsec = grid.n_secondary
    if grid.coordinate_kind == "polar":
        prim = abs(wc)
        sec = math.atan2(wc.imag, wc.real) % (2.0 * math.pi)
    else:
        prim = wc.real
        sec = wc.imag
    u = float(np.interp(prim, edges, np.arange(edges.size, dtype=np.float64)))
    s = sec / grid.secondary_step
    if abs(u - round(u)) <= _SNAP_CELLS:
        u = float(round(u))
    if abs(s - round(s)) <= _SNAP_CELLS:
        s = float(round(s))
    d_prim = np.abs(np.arange(grid.n_primary) + 0.5 - u)
    d_sec = np.arange(nsec) + 0.5 - s
    if grid.coordinate_kind == "polar":
        d_sec = np.abs((d_sec + nsec / 2.0) % nsec - nsec / 2.0)
    else:
        d_sec = np.abs(d_sec)
    rows = np.flatnonzero(d_prim < 1.5)
    cols = np.flatnonzero(d_sec < 1.5)
    return (rows[:, None] * nsec + cols[None, :]).ravel()


def _area_many(field: DbarField, targets) -> list[complex]:
    """``pompeiu_area`` at every target, in one kernel call."""
    pts = _targets(targets)
    grid = field.grid
    v = np.asarray(field.values, dtype=np.complex128)
    re, im = pompeiu_sum_many(
        grid.centers.real,
        grid.centers.imag,
        grid.weights,
        v.real,
        v.imag,
        pts.real,
        pts.imag,
        [_exclusion_cells(grid, w) for w in pts],
    )
    return [complex(a, b) / math.pi for a, b in zip(re.tolist(), im.tolist())]


def pompeiu_area(field: DbarField, w: complex) -> complex:
    """``(1/pi) * sum f_zbar * weight / (center - w)`` off the 3x3 patch."""
    return _area_many(field, w)[0]


@dataclass(frozen=True)
class ReconstructionResult:
    """Interior value recovered from boundary + area data, with its residual."""

    target: complex
    value: complex
    exact: complex
    residual: float
    near_break: bool


def _near_break(field: DbarField, w: complex) -> bool:
    grid = field.grid
    h = float(np.max(np.diff(grid.primary_edges)))
    breaks = set(grid.mandatory_breaks)
    if grid.coordinate_kind == "polar":
        breaks.update(field.family.break_radii())
        coord = abs(w)
    else:
        breaks.update(field.family.break_abscissae())
        coord = complex(w).real
    return any(abs(coord - b) <= 2.0 * h for b in breaks)


def reconstruct(
    trace: BoundaryTrace, field: DbarField, w: complex
) -> ReconstructionResult:
    """Recover ``family(w)`` from its boundary trace and ``dbar`` field."""
    return reconstruct_many(trace, field, [w])[0]


def reconstruct_many(
    trace: BoundaryTrace, field: DbarField, targets
) -> list[ReconstructionResult]:
    """``reconstruct`` at every target, with the sums batched across targets."""
    pts = _targets(targets)
    boundary = cauchy_boundary(trace, pts)
    area = _area_many(field, pts)
    results = []
    for w, b, a in zip(pts, boundary, area):
        w = complex(w)
        value = complex(b) - a
        exact = field.family.eval(w)
        results.append(
            ReconstructionResult(
                target=w,
                value=value,
                exact=exact,
                residual=abs(value - exact),
                near_break=_near_break(field, w),
            )
        )
    return results


def kernel_mass(grid: QuadratureGrid, xi: complex) -> float:
    """``sum weights / |centers - xi|`` — the discrete 1/r kernel mass.

    For any domain inside the unit disk this is bounded by ``4*pi``
    independently of the grid resolution, so its stability across refinements
    is a direct check that the singular kernel is being integrated sanely.
    """
    (xi,) = _targets(xi)
    d = np.abs(grid.centers - xi)
    if np.any(d == 0.0):
        raise InputError(f"kernel target {xi!r} coincides with a cell center")
    return ordered_sum(grid.weights / d)


def offset_targets(
    grid: QuadratureGrid,
    count: int,
    seed: int,
    margin: float = 0.1,
) -> np.ndarray:
    """Pick target points on cell corners, away from the domain boundary.

    Corners of the grid cells are the points farthest from all cell centers,
    which keeps both the excluded-patch error and the kernel mass behaved.
    Only corners at least ``margin`` (fraction of the primary span) away from
    the primary-axis boundary are eligible; the choice is seeded and
    reproducible.
    """
    require_real(count, "count must be an integer >= 1", lambda v: v >= 1, integer=True)
    if not (0.0 <= margin < 0.5):
        raise InputError("margin must be in [0, 0.5)")
    edges = grid.primary_edges
    lo, hi = float(edges[0]), float(edges[-1])
    pad = margin * (hi - lo)
    inner = edges[(edges >= lo + pad) & (edges <= hi - pad)]
    sec = (np.arange(grid.n_secondary)) * grid.secondary_step
    if grid.coordinate_kind == "polar":
        corners = (inner[:, None] * np.exp(1j * sec)[None, :]).ravel()
    else:
        corners = (inner[:, None] + 1j * sec[None, :]).ravel()
    if corners.size < count:
        raise InputError(
            f"only {corners.size} eligible corner targets, fewer than {count}"
        )
    rng = np.random.default_rng(seed)
    pick = rng.choice(corners.size, size=count, replace=False)
    return corners[np.sort(pick)]


def psi_dbar_mass(
    f: MapFamily,
    fstar: LinearStretch,
    n_x: int = 256,
    n_y: int = 256,
) -> float:
    """``dbar`` mass of ``Psi = f after fstar^{-1}``, over the source square.

    The integral of ``|Psi_wbar(fstar(z))|`` over the unit square (equal to
    that of ``|Psi_wbar|`` over the image, over the Jacobian ``k``).  With
    ``(a, b) = (fstar.fz, fstar.fzb)`` the inverse has ``h_w = conj(a)/k``
    and ``h_wbar = -b/k``, so the chain rule gives ``Psi_wbar(fstar(z)) =
    (a*f_zbar(z) - b*f_z(z)) / k`` for any shear, and ``Psi`` is never built.
    The grid honours ``f``'s break lines.
    """
    if not isinstance(fstar, LinearStretch):
        raise InputError("fstar must be a LinearStretch")
    grid = build_cartesian_grid(
        RectangleDomain(width=1.0), n_x, n_y, breaks=f.break_abscissae()
    )
    fz, fzb = f.wirtinger_many(grid.centers)
    return integrate(grid, np.abs(fstar.fz * fzb - fstar.fzb * fz)) / fstar.k


def phi_dbar_mass(
    g: MapFamily,
    gstar: SpiralStretch,
    n_radial: int = 512,
    n_angular: int = 256,
) -> float:
    """``dbar`` mass of ``Phi = g after gstar^{-1}`` on the image annulus.

    ``Phi`` compares a candidate annulus map with its reference spiral stretch
    on the image annulus ``[q**k, 1]``; the mass is the plain integral of
    ``|Phi_wbar|`` there.  Exactly zero when ``g`` is the reference itself.
    A rotation-equivariant ``g`` takes the ring path of ``mean_distortion``.
    """
    if not isinstance(gstar, SpiralStretch):
        raise InputError("gstar must be a SpiralStretch")
    if gstar.winding != 0:
        raise UnsupportedVariantError(
            "phi_dbar_mass requires a winding = 0 reference"
        )
    phi = Composition(g, InverseSpiralStretch(gstar.q, gstar.k, gstar.theta))
    domain = AnnulusDomain(inner_radius=gstar.q**gstar.k)
    grid = build_polar_grid(domain, n_radial, n_angular, breaks=phi.break_radii())
    pts, integrator, _ = _sampling(grid, phi)
    _, fzb = phi.wirtinger_many(pts)
    return integrator(grid, np.abs(fzb))
