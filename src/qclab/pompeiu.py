"""Cauchy-Pompeiu transforms on annuli.

For a map ``f`` smooth off a break set, the representation

    f(w) = (1/(2*pi*i)) * boundary integral of f(xi)/(xi - w) d(xi)
         - (1/pi) * area integral of f_zbar(zeta)/(zeta - w) dA(zeta)

recovers interior values from the boundary trace and the ``dbar`` field.  The
boundary trace uses trapezoid nodes on both circles (spectrally accurate for
smooth data); the area term uses the midpoint grid with a patch of cells
around the target excluded, which keeps the singular kernel integrable.  The
patch is symmetric about a target on a cell corner (see ``offset_targets``),
so the leading term of the hole error cancels and the error is second order:
at each doubling of a ``conj`` grid from 64x64 to 256x256 the median residual
falls about fourfold.

Both terms are batched across targets: ``reconstruct`` makes one
``cauchy_boundary`` call for the boundary term and one ``pompeiu_area`` call
for the area term.  Each takes a scalar target, giving one value or result,
or a sequence, giving a list; a target's sums have the same bits either way,
and in any batch.  The area is summed on annulus grids only.  With ``M``
angular cells it splits each target's rings at ``c = 2**(-53/M)``.  Its near
zone, the rings with ``c < rho/|w| < 1/c`` and those of its excluded patch,
is one run of cells, found for every target in one pass (``_near_zones``)
and summed term by term by one ``pompeiu_sum`` kernel call per target,
over that run only.  The rings beyond are summed as Laurent series from one
``numpy.fft`` of the field (``_far_sums``); their bits follow numpy's FFT
build as well as its arithmetic.  ``reconstruct`` refuses a field and a
trace on different domains or of different maps, and a target outside the
annulus, where the representation fails.

``psi_dbar_mass`` and ``phi_dbar_mass`` are the ``dbar`` functionals of a
candidate map measured against its reference stretch: ``Psi`` by the chain
rule on the source square, ``Phi`` as a composition on the image annulus.
``phi_dbar_mass`` gives one mass per rung for a candidate with a rung axis,
as the epsilon ladder builds it.  These and ``dbar_field`` sample their maps
through ``functionals._sampled``, the one evaluator of maps on grids; the
boundary trace and the exact values at the targets, which lie off the grid,
are ``eval_many`` calls.  The ``dbar`` field of a rotation-equivariant map
is one angular mode, ``f_zbar(rho*exp(i*phi)) = exp(2i*phi)*f_zbar(rho)``,
so on a polar grid ``dbar_field`` samples it once per ring and turns each
ring to the cell angles; other fields are sampled at the cell centres.  A
non-finite target point is an ``InputError`` that names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import ordered_sum, ordered_sums
from .errors import AccuracyError, InputError, UnsupportedVariantError, require_real
from .functionals import _sampled
from .geometry import (
    AnnulusDomain,
    QuadratureGrid,
    RectangleDomain,
    grid_for,
    image_annulus,
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
    """Oriented boundary data of an annulus: outer circle ccw, inner cw.

    ``family`` is the map whose values the circles hold.
    """

    family: MapFamily
    domain: AnnulusDomain
    components: tuple[TraceComponent, ...]


def annulus_trace(
    family: MapFamily, domain: AnnulusDomain, nodes: int
) -> BoundaryTrace:
    """Sample a map on the oriented boundary of an annulus.

    ``nodes`` trapezoid nodes per circle; the outer unit circle runs
    counterclockwise, the inner circle clockwise, so together they bound the
    annulus positively.
    """
    require_real(nodes, "nodes must be an integer >= 8", lambda v: v >= 8, integer=True)
    j = np.arange(nodes)
    unit = np.exp(2j * math.pi * j / nodes)
    step = 2.0 * math.pi / nodes
    comps = []
    for radius, turn in ((1.0, 1j), (domain.inner_radius, -1j)):
        circle = radius * unit
        comps.append(
            TraceComponent(
                radius=radius,
                nodes=circle,
                values=np.asarray(family.eval_many(circle), dtype=np.complex128),
                dweights=turn * circle * step,
            )
        )
    return BoundaryTrace(family=family, domain=domain, components=tuple(comps))


def _targets(targets) -> np.ndarray:
    """Target points as a 1-d complex array; a non-finite one is an ``InputError``."""
    pts = np.atleast_1d(np.asarray(targets, dtype=np.complex128))
    bad = ~np.isfinite(pts)
    if np.any(bad):
        raise InputError(f"target {complex(pts[np.argmax(bad)])!r} is not finite")
    return pts


# Targets per pass of cauchy_boundary: its scratch is (step, nodes) complex,
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
                w = complex(chunk[np.argmax(near)])
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
    """Sample the ``dbar`` derivative of a map on all grid cells.

    The grid must honour the map's break set, as ``mean_distortion``'s does.
    A rotation-equivariant map, ``f(exp(i*t)*w) = exp(i*t)*f(w)``, has
    ``f_zbar(rho*exp(i*phi)) = exp(2i*phi)*f_zbar(rho)``: on a polar grid it
    is sampled once per ring, at ``primary_mid + 0j`` (``_sampled``'s ring
    path), and each ring's value is turned to the cell angles ``(j + 0.5) *
    secondary_step`` that ``centers`` uses.  Other maps and grids are
    sampled at the cell centres.
    """
    rings = family.rotation_equivariant and grid.coordinate_kind == "polar"
    ((_, values),) = _sampled((family,), (grid,), lambda jet: jet[2], cells=not rings)
    if rings:
        angles = (np.arange(grid.n_secondary) + 0.5) * grid.secondary_step
        values = (values[..., None] * np.exp(2j * angles)).reshape(*values.shape[:-1], -1)
    return DbarField(family=family, grid=grid, values=values)


_SNAP_CELLS = 1e-9


def _near_zones(grid: QuadratureGrid, pts: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Each target's excluded patch ``dead[t]``, ascending, and its near run ``rings[t]``.

    A target's index-space coordinates are its radius interpolated over the
    ring edges' indices (clamped to the rings) and its angle in angular
    cells, each snapped to a whole number within ``1e-9``.  Its patch is the
    cells whose centres lie strictly within 1.5 cells of it on both axes,
    the angle wrapping: inside a cell, the cell and its 8 neighbours; on an
    edge or a corner, the symmetric 2-cell-wide block, since the
    omitted-patch term vanishes to leading order only when the patch is
    centred on the target.  Its run ``lo:hi`` is the rings of radius ``c *
    |w| < rho < |w| / c``, ``c = 2**(-53/M)`` with ``M`` angular cells, and
    those of its patch; beyond them a ring's series converges in ``M`` terms.
    """
    n, m = grid.n_primary, grid.n_secondary
    radius, angle = grid.chart(pts)
    x = np.stack([np.interp(radius, grid.primary_edges, np.arange(n + 1.0)),
                  angle / grid.secondary_step])
    whole = np.round(x)
    x = np.where(np.abs(x - whole) <= _SNAP_CELLS, whole, x)
    # the cells j whose centres j + 0.5 lie within 1.5 of x: floor(x) - 1 <= j <= ceil(x)
    first = np.floor(x).astype(np.intp) - 1
    last = np.ceil(x).astype(np.intp)
    first[0], last[0] = np.maximum(first[0], 0), np.minimum(last[0], n - 1)
    span = first[..., None] + np.arange(3)
    live = span <= last[..., None]
    # the angle wraps mod M, so with M < 3 a cell can come twice: unique keeps one
    dead = [np.unique(rows[ok_rows, None] * m + cols[ok_cols] % m)
            for rows, cols, ok_rows, ok_cols in zip(*span, *live)]
    c = 2.0 ** (-53.0 / m)
    lo = np.searchsorted(grid.primary_mid, c * radius, side="right")
    hi = np.searchsorted(grid.primary_mid, radius / c, side="left")
    return dead, np.stack([np.minimum(lo, first[0]), np.maximum(hi, last[0] + 1)], axis=1)


# Rings per table of ratio powers in _ring_sweep.  At 512x512, of 4, 8, 16,
# 32 and 64, sixteen (a 66 KB table) ran _far_sums fastest, and with 64 the
# benchmark's peak RSS read about 0.5 MB higher.
_SWEEP_RINGS = 16


def _ring_sweep(spec, ratio, order, keep, kn, shift: int) -> dict:
    """One side's series coefficients, summed over the rings in ``order``.

    Over the rings ``i`` in ``order``, ``coef = spec[i] + ratio[i]**e *
    coef``, with exponent ``e = n + shift`` at index ``kn[n]`` of the ring's
    DFT; ``ratio[i]``, the radius of the farther ring over that of the
    nearer, is at most 1.  Returns ``{i: coef[kn]}`` for the rings in
    ``keep``, the coefficients in series order ``n``.  The powers of a run
    of ratios are one sequential ``multiply.accumulate``.
    """
    m = spec.shape[1]
    exps = np.empty(m, dtype=np.intp)
    exps[kn] = np.arange(m) + shift
    coef = np.zeros(m, dtype=np.complex128)
    kept = {}
    for a in range(0, len(order), _SWEEP_RINGS):
        run = order[a : a + _SWEEP_RINGS]
        table = np.empty((len(run), m + 1))
        table[:, 0] = 1.0
        table[:, 1:] = ratio[run, None]
        np.multiply.accumulate(table, axis=1, out=table)
        # complex with zero imaginary parts: numpy's fastest product here
        for i, pw in zip(run.tolist(), table[:, exps].astype(np.complex128)):
            coef *= pw
            coef += spec[i]
            if i in keep:
                kept[i] = coef[kn]
    return kept


def _far_sums(field: DbarField, pts: np.ndarray, rings: np.ndarray) -> np.ndarray:
    """``sum a / (center - w)`` over the rings outside each target's near run.

    ``a = f_zbar * weight``.  Turned by the half cell, ``w' = w *
    exp(-i*pi/M)``, ring ``rho`` with DFT ``F`` (one ``fft`` over the
    ``(N, M)`` field, index mod ``M``) contributes ``exp(-i*pi/M)`` times
    ``sum_n w'**n rho**(-n-1) F[n+1]`` outside ``|w|`` and ``-sum_n rho**n
    w'**(-n-1) F[-n]`` inside it, ``n < M``.  Each side's coefficients are
    summed over rings by a recursion scaled to the nearest ring, whose
    factors ``(rho_i / rho_j)**n`` never exceed 1, so no power overflows:
    ``T_i = F_i[n+1] + (rho_i/rho_{i+1})**(n+1) T_{i+1}`` outside and ``U_i =
    F_i[-n] + (rho_{i-1}/rho_i)**n U_{i-1}`` inside (``_ring_sweep``).  Only
    the rows a target starts from are kept.  Each target then takes two
    length-``M`` series, its powers by one sequential ``multiply.accumulate``
    and its sum by ``ordered_sums``, so its bits do not depend on the other
    targets.
    """
    from numpy import fft  # numpy.fft is imported on first use, not with qclab

    grid = field.grid
    n_rings, m = grid.n_primary, grid.n_secondary
    rho = grid.primary_mid
    spec = np.asarray(field.values, dtype=np.complex128).reshape(n_rings, m)
    spec = spec * grid.line_weights[:, None]
    fft.fft(spec, axis=1, out=spec)
    lo, hi = rings[:, 0], rings[:, 1]
    n = np.arange(m)
    ratio = np.ones(n_rings)
    ratio[:-1] = rho[:-1] / rho[1:]
    keep = set(hi[hi < n_rings].tolist())
    order = np.arange(n_rings - 1, min(keep, default=n_rings) - 1, -1)
    outer = _ring_sweep(spec, ratio, order, keep, (n + 1) % m, 1)
    ratio = np.roll(ratio, 1)
    keep = set((lo[lo > 0] - 1).tolist())
    order = np.arange(max(keep, default=-1) + 1)
    inner = _ring_sweep(spec, ratio, order, keep, -n % m, 0)
    del spec
    turn = complex(np.exp(-1j * math.pi / m))
    # per target and side: the first power (the scale), the ratio, the row
    powers = np.zeros((pts.size, 2, m), dtype=np.complex128)
    rows = np.zeros((pts.size, 2, m), dtype=np.complex128)
    for t, w in enumerate(pts.tolist()):
        w = w * turn
        if hi[t] < n_rings:
            r = float(rho[hi[t]])
            powers[t, 0, 0], powers[t, 0, 1:] = turn / r, w / r
            rows[t, 0] = outer[hi[t]]
        if lo[t] > 0:
            r = float(rho[lo[t] - 1])
            powers[t, 1, 0], powers[t, 1, 1:] = -turn / w, r / w
            rows[t, 1] = inner[lo[t] - 1]
    np.multiply.accumulate(powers, axis=2, out=powers)
    # the products in real arithmetic, whose rounding numpy fixes per element
    pr, pi_, cr, ci = powers.real, powers.imag, rows.real, rows.imag
    terms = np.empty((pts.size, 2, 2, m))
    tmp = np.empty((pts.size, 2, m))
    np.multiply(pr, cr, out=terms[:, 0])
    terms[:, 0] -= np.multiply(pi_, ci, out=tmp)
    np.multiply(pr, ci, out=terms[:, 1])
    terms[:, 1] += np.multiply(pi_, cr, out=tmp)
    sums = ordered_sums(terms.reshape(pts.size, 2, 2 * m))
    return sums[:, 0] + 1j * sums[:, 1]


def pompeiu_area(field: DbarField, targets) -> complex | list[complex]:
    """``(1/pi) * sum f_zbar * weight / (center - w)`` off each target's 3x3 patch.

    One value for a scalar target, a list for a sequence; a field on a
    rectangle grid is an ``InputError``.  The rings near each target
    (``_near_zones``) go through one ``pompeiu_sum`` call over its run of
    cells, and the rings beyond through ``_far_sums``: each target's value
    is the direct sum plus the far sum.
    """
    grid = field.grid
    if grid.coordinate_kind != "polar":
        raise InputError(
            f"the Pompeiu area is summed on annulus grids only, not on {grid.domain!r}"
        )
    pts = _targets(targets)
    v = np.asarray(field.values, dtype=np.complex128)
    cells = (grid.centers.real, grid.centers.imag, grid.weights, v.real, v.imag)
    dead, rings = _near_zones(grid, pts)
    far = _far_sums(field, pts, rings).tolist()
    runs = (rings * grid.n_secondary).tolist()
    values = []
    for w, d, f, (lo, hi) in zip(pts.tolist(), dead, far, runs):
        # the patch lies in the run, so no index wraps round
        mask = np.zeros(hi - lo, dtype=np.uint8)
        mask[d - lo] = 1
        run = (x[lo:hi] for x in cells)
        re, im = _kernels.pompeiu_sum(*run, w.real, w.imag, mask, lo, grid.n_cells)
        values.append(complex(re + f.real, im + f.imag) / math.pi)
    return values if np.ndim(targets) else values[0]


@dataclass(frozen=True)
class ReconstructionResult:
    """Interior value recovered from boundary + area data, with its residual.

    ``masked_cells`` counts the cells of the target's patch and
    ``direct_cells`` the other cells its area sum takes term by term (the
    rest are summed by ring series).
    """

    target: complex
    value: complex
    exact: complex
    residual: float
    near_break: bool
    masked_cells: int
    direct_cells: int


def reconstruct(
    trace: BoundaryTrace, field: DbarField, targets
) -> ReconstructionResult | list[ReconstructionResult]:
    """Recover ``family(w)`` from its boundary trace and ``dbar`` field.

    One result for a scalar target, a list for a sequence; the boundary and
    the area sums are each batched across the targets.  The representation
    holds for one map inside the trace's annulus only, so a field on another
    domain or of another map, or a target outside ``[inner, 1]``, is an
    ``InputError`` that names them, raised before any sum.
    """
    pts = _targets(targets)
    grid = field.grid
    if grid.domain != trace.domain:
        raise InputError(
            f"the field is sampled on {grid.domain!r}, but the trace bounds {trace.domain!r}"
        )
    if field.family != trace.family:
        a, b = field.family.label, trace.family.label
        if a == b:
            a, b = repr(field.family), repr(trace.family)
        raise InputError(f"the field is sampled from {a}, but the trace from {b}")
    inner = trace.domain.inner_radius
    radius = np.abs(pts)
    outside = (radius < inner) | (radius > 1.0)
    if np.any(outside):
        w = complex(pts[np.argmax(outside)])
        raise InputError(f"target {w!r} lies outside the annulus |w| in [{inner!r}, 1]")
    boundary = cauchy_boundary(trace, pts).tolist()
    area = pompeiu_area(field, pts)
    exact = field.family.eval_many(pts).tolist()
    dead, rings = _near_zones(grid, pts)
    masked = [d.size for d in dead]
    spans = (rings[:, 1] - rings[:, 0]) * grid.n_secondary
    breaks = np.array(grid.mandatory_breaks + grid.breaks_of(field.family))
    h = float(np.max(np.diff(grid.primary_edges)))
    near = np.any(np.abs(radius[:, None] - breaks) <= 2.0 * h, axis=1)
    results = [
        ReconstructionResult(
            target=w,
            value=b - a,
            exact=e,
            residual=abs(b - a - e),
            near_break=nb,
            masked_cells=m,
            direct_cells=span - m,
        )
        for w, b, a, e, nb, m, span in zip(
            pts.tolist(), boundary, area, exact, near.tolist(), masked, spans.tolist()
        )
    ]
    return results if np.ndim(targets) else results[0]


def kernel_mass(grid: QuadratureGrid, xi: complex) -> float:
    """``sum weights / |centers - xi|`` — the discrete 1/r kernel mass.

    For any domain inside the unit disk this is bounded by ``4*pi``
    independently of the grid resolution, so its stability across refinements
    is a direct check that the singular kernel is being integrated sanely.
    """
    xi = complex(_targets(xi)[0])
    d = np.abs(grid.centers - xi)
    if np.any(d == 0.0):
        raise InputError(f"kernel target {xi!r} coincides with a cell center")
    return ordered_sum(grid.weights / d)


def offset_targets(
    grid: QuadratureGrid,
    points: int,
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
    require_real(points, "points must be an integer >= 1", lambda v: v >= 1, integer=True)
    if not (0.0 <= margin < 0.5):
        raise InputError("margin must be in [0, 0.5)")
    edges = grid.primary_edges
    lo, hi = float(edges[0]), float(edges[-1])
    pad = margin * (hi - lo)
    inner = edges[(edges >= lo + pad) & (edges <= hi - pad)]
    m = grid.n_secondary
    if inner.size * m < points:
        raise InputError(
            f"only {inner.size * m} eligible corner targets, fewer than {points}"
        )
    rng = np.random.default_rng(seed)
    # corner j * M + k is ring edge inner[j] at angle k * step
    pick = np.sort(rng.choice(inner.size * m, size=points, replace=False))
    return grid.point(inner[pick // m], (pick % m) * grid.secondary_step)


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
    grid = grid_for(f, RectangleDomain(width=1.0), n_x, n_y)
    ((_, mass),) = _sampled(
        (f,), (grid,), lambda jet: np.abs(fstar.fz * jet[2] - fstar.fzb * jet[1])
    )
    return integrate(grid, mass) / fstar.k


def phi_dbar_mass(
    g: MapFamily,
    gstar: SpiralStretch,
    n_radial: int = 512,
    n_angular: int = 256,
) -> float | np.ndarray:
    """``dbar`` mass of ``Phi = g after gstar^{-1}`` on the image annulus.

    ``Phi`` compares a candidate annulus map with its reference spiral stretch
    on the image annulus ``[q**k, 1]``; the mass is the plain integral of
    ``|Phi_wbar|`` there.  Exactly zero when ``g`` is the reference itself.
    A rotation-equivariant ``g`` takes the ring path of ``mean_distortion``.
    A float for a plain ``g``; for a ``g`` with a rung axis, one mass per
    rung in rung order, from one grid and one evaluation of the inverse
    reference (the grid's break is the pullback of ``g``'s break circle,
    which no rung moves).
    """
    if not isinstance(gstar, SpiralStretch):
        raise InputError("gstar must be a SpiralStretch")
    if gstar.winding != 0:
        raise UnsupportedVariantError(
            "phi_dbar_mass requires a winding = 0 reference"
        )
    phi = Composition(g, InverseSpiralStretch(gstar.q, gstar.k, gstar.theta))
    grid = grid_for(phi, image_annulus(gstar.q, gstar.k), n_radial, n_angular)
    ((_, values),) = _sampled((phi,), (grid,), lambda jet: np.abs(jet[2]))
    return integrate(grid, values)
