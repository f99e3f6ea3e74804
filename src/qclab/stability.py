"""Stability experiments: alignment, lemma audits, and epsilon ladders.

The central experiment drives the perturbation size ``eps`` of a candidate
map down a ladder and fits the log-log slope of the L1 map distance against
the gauged mean-distortion deficit.  For the quadratic (square-gauge) theory
the distance scales like the square root of the deficit, so the fitted slope
is 1/2.  The audits check, one lemma at a time, the inequalities that the
sharp stability exponent rests on.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateExperimentError,
    InputError,
    UnsupportedVariantError,
    require_real,
)
from .gauges import ConvexGauge, theta_check_many
from .geometry import (
    AnnulusDomain,
    QuadratureGrid,
    grid_for,
    half_resolution_shape,
    image_annulus,
    integrate,
    integrate_complex,
)
from .functionals import (
    Density,
    _distortion,
    _integrate_gauged,
    _mean_distortions,
    _relative_excess,
    _sampled,
    l1_distance,
)
from .maps import Composition, LinearStretch, MapFamily, PiecewiseRadialStretch, SpiralStretch
from .pompeiu import phi_dbar_mass

__all__ = [
    "AlignmentReport",
    "AuditReport",
    "FitReport",
    "FlatLadderReport",
    "FlatRow",
    "LadderConfig",
    "LadderRow",
    "audit_alignment",
    "audit_gn_gap",
    "audit_k_l2",
    "audit_k_mean",
    "audit_taylor",
    "audit_theta",
    "run_flat_gauge_ladder",
    "run_ladder",
]


# --------------------------------------------------------------------------
# alignment
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AlignmentReport:
    """Decomposition of the alignment integrand against the reference.

    ``alpha`` and ``r`` solve ``integral I == r * exp(-i*alpha)`` for the
    integrand ``I = mu*/|mu*| f_z + f_zbar``: ``alpha`` is the rotation that
    best aligns the candidate with the reference stretch, 0 for the reference
    itself and ``-beta`` for the reference post-rotated by ``beta``,
    normalized to ``(-pi, pi]``.  When ``r`` vanishes (below ``1e-13 *``
    domain area) the angle is meaningless and ``alpha`` is 0.
    ``real_part_gap = integral (|I| - Re(exp(i*alpha) I))`` is non-negative
    pointwise; ``imag_part_mass = integral |Im(exp(i*alpha) I)|`` measures the
    angular spread; ``absdiff_mass = integral |f_zbar - mu* f_z|`` is the
    deviation of the candidate's Beltrami data from the reference's.
    """

    alpha: float
    r: float
    real_part_gap: float
    imag_part_mass: float
    absdiff_mass: float
    passed: bool


def audit_alignment(
    f: MapFamily, fstar: LinearStretch, grid: QuadratureGrid
) -> AlignmentReport:
    mu = fstar.mu
    if mu == 0:
        raise InputError(
            "reference has zero Beltrami coefficient; the alignment direction "
            "is undefined (use k > 1)"
        )
    ((_, (fz, fzb)),) = _sampled((f,), (grid,), lambda jet: jet[1:], cells=True)
    integrand = mu / abs(mu) * fz + fzb
    total = integrate_complex(grid, integrand)
    r = abs(total)
    alpha = 0.0
    if r >= 1e-13 * grid.domain.area:
        alpha = -math.atan2(total.imag, total.real)
        if alpha <= -math.pi:
            alpha += 2.0 * math.pi
    rotated = np.exp(1j * alpha) * integrand
    real_part_gap = integrate(grid, np.abs(integrand) - rotated.real)
    imag_part_mass = integrate(grid, np.abs(rotated.imag))
    absdiff_mass = integrate(grid, np.abs(fzb - mu * fz))
    return AlignmentReport(
        alpha=alpha,
        r=r,
        real_part_gap=float(real_part_gap),
        imag_part_mass=float(imag_part_mass),
        absdiff_mass=float(absdiff_mass),
        passed=bool(real_part_gap >= -1e-12),
    )


# --------------------------------------------------------------------------
# lemma audits
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one lemma audit: the two sides and a pass flag."""

    lemma: str
    lhs: float
    rhs: float
    ratio: float
    constants: dict[str, float]
    passed: bool


def _report(lemma: str, lhs: float, rhs: float, constants: dict, passed: bool) -> AuditReport:
    """An ``AuditReport`` with ``ratio = lhs / rhs``, or for ``rhs == 0``
    ``inf`` when ``lhs > 0`` and 0 otherwise."""
    if rhs == 0.0:
        ratio = math.inf if lhs > 0.0 else 0.0
    else:
        ratio = lhs / rhs
    return AuditReport(lemma, float(lhs), float(rhs), ratio, constants, bool(passed))


def _bound_report(lemma: str, lhs: float, rhs: float, constants: dict) -> AuditReport:
    """The audit of ``lhs <= rhs``, up to a relative 1e-8 and an absolute 1e-15."""
    return _report(lemma, lhs, rhs, constants, lhs <= rhs * (1.0 + 1e-8) + 1e-15)


def _gauged_excess(f: MapFamily, fstar: LinearStretch, gauge: ConvexGauge, grid: QuadratureGrid):
    """``(K, K*, integral phi(K), integral phi(K*))``: ``K`` at the grid's
    points (``functionals._sampled``: once per ring for a rotation-equivariant
    ``f`` on a polar grid), and the affine reference's one distortion ``K*``.

    The grid must honour ``f``'s break set, and ``integral phi(K)`` runs the
    checks of every gauged mean distortion (``functionals._integrate_gauged``):
    undefined ``K`` and an overflowing ``phi(K)`` are degenerate experiments."""
    if not isinstance(fstar, LinearStretch):
        raise InputError(
            f"reference must be a LinearStretch, got {type(fstar).__name__}; "
            "these audits require a constant-distortion reference"
        )
    (k_star,), _ = _distortion(np.array([fstar.fz]), np.array([fstar.fzb]))
    k_star = float(k_star)
    ((_, K),) = _sampled((f,), (grid,), lambda jet: _distortion(*jet[1:])[0])
    (i_phi,) = _integrate_gauged(grid, K[None], gauge).tolist()
    i_star = integrate(grid, np.full(grid.n_cells, gauge.evaluate(k_star)))
    return K, k_star, i_phi, i_star


def audit_k_l2(
    f: MapFamily,
    fstar: LinearStretch,
    gauge: ConvexGauge,
    grid: QuadratureGrid,
) -> AuditReport:
    """Quadratic distortion control: ``integral (K - K*)^2 <= (2/c) * excess``.

    ``excess = integral phi(K) - integral phi(K*)`` and ``c`` is the gauge's
    curvature floor; the inequality is the integrated second-order Taylor
    bound, so it needs ``c > 0``.
    """
    c = gauge.curvature_floor
    if c <= 0.0:
        raise UnsupportedVariantError(
            f"gauge {gauge.label!r} has zero curvature floor; the quadratic "
            "audit needs a strictly convex gauge"
        )
    K, k_star, i_phi, i_star = _gauged_excess(f, fstar, gauge, grid)
    lhs = integrate(grid, (K - k_star) ** 2)
    constants = {"c": c, "K_star": k_star, "eps_measured": float((i_phi - i_star) / i_star)}
    return _bound_report("k-l2", lhs, (2.0 / c) * (i_phi - i_star), constants)


def audit_k_mean(
    f: MapFamily,
    fstar: LinearStretch,
    gauge: ConvexGauge,
    grid: QuadratureGrid,
) -> AuditReport:
    """First-order distortion control via convexity of the gauge.

    ``integral K <= (1 + C*delta) * integral K*`` with the supporting-line
    constant ``C = phi(K*) / (K* * phi'(K*))`` (1/2 for the square gauge at
    k=2, 1 for the linear one) and ``delta`` the measured deficit on the same
    grid.  Every gauge is increasing on ``[1, inf)``, so ``phi'(K*) > 0``.
    """
    K, k_star, i_phi, i_star = _gauged_excess(f, fstar, gauge, grid)
    phi_prime = float(gauge.right_derivative(k_star))
    big_c = float(gauge.evaluate(k_star)) / (k_star * phi_prime)
    delta = (i_phi - i_star) / i_star
    rhs = (1.0 + big_c * delta) * integrate(grid, np.full(grid.n_cells, k_star))
    constants = {"C": big_c, "K_star": k_star, "phi_prime": phi_prime, "deficit": float(delta)}
    return _bound_report("k-mean", integrate(grid, K), rhs, constants)


def audit_taylor(
    gauge: ConvexGauge,
    samples: int = 10000,
    seed: int = 0,
    c: float | None = None,
) -> AuditReport:
    """Sample the quadratic Taylor gap of a gauge on random pairs.

    Draws ``samples`` pairs ``(s, t)`` uniformly from ``[1, 50]^2`` and
    reports the most negative ``gauge.taylor_gap(s, t, c)``.  Passing means
    the gauge really does dominate its quadratic model at curvature ``c`` on
    the sampled box.  ``c`` defaults to the gauge's own floor and may be
    lowered but never raised above it.
    """
    require_real(samples, "samples must be an integer >= 1", lambda v: v >= 1, integer=True)
    require_real(seed, "seed must be an integer >= 0", lambda v: v >= 0, integer=True)
    floor = gauge.curvature_floor
    c_used = floor if c is None else c
    if isinstance(c_used, numbers.Real) and c_used > floor + 1e-15:  # +inf included
        raise InputError(
            f"declared curvature c = {c!r} exceeds the floor {floor!r} of "
            f"gauge {gauge.label!r}"
        )
    require_real(c_used, f"declared curvature c must be a finite number, got {c!r}")
    c_used = float(c_used)
    rng = np.random.default_rng(seed)
    s = rng.uniform(1.0, 50.0, size=samples)
    t = rng.uniform(1.0, 50.0, size=samples)
    gaps = gauge.taylor_gap(s, t, c_used)
    if not np.isfinite(gaps).all():
        raise DegenerateExperimentError(
            f"the Taylor gap of gauge {gauge.label} is not finite on the sampled "
            "box [1, 50]^2: the gauge overflows a float there"
        )
    min_gap = float(np.min(gaps))
    worst = int(np.argmin(gaps))
    constants = {
        "c": c_used,
        "n_pairs": float(samples),
        "seed": float(seed),
        "worst_s": float(s[worst]),
        "worst_t": float(t[worst]),
    }
    return _report("taylor", min_gap, -1e-12, constants, min_gap >= -1e-12)


def audit_theta(samples: int = 10000, seed: int = 0) -> AuditReport:
    """Sample the pointwise angle-defect inequalities on random points.

    The ``samples`` points are ``10 * (x + iy)`` with ``x`` and ``y``
    standard normal.  Checks ``(|z| - Re z) - theta(z) >= -1e-12`` on every
    sample and that the definitional identity ``2*theta*|z| - (Im z)^2``
    vanishes to rounding.
    """
    require_real(samples, "samples must be an integer >= 1", lambda v: v >= 1, integer=True)
    require_real(seed, "seed must be an integer >= 0", lambda v: v >= 0, integer=True)
    rng = np.random.default_rng(seed)
    z = 10.0 * (rng.standard_normal(samples) + 1j * rng.standard_normal(samples))
    _, gap1, gap2 = theta_check_many(z)
    min_gap1 = float(np.min(gap1))
    max_identity = float(np.max(np.abs(gap2) / (1.0 + z.imag**2)))
    passed = min_gap1 >= -1e-12 and max_identity <= 1e-12
    constants = {
        "n_samples": float(samples),
        "seed": float(seed),
        "scale": 10.0,
        "max_identity_defect": max_identity,
    }
    return _report("theta", min_gap1, -1e-12, constants, passed)


def audit_gn_gap(
    q: float,
    k: float,
    theta: float,
    winding: int,
    gauge: ConvexGauge,
    grid: QuadratureGrid,
) -> AuditReport:
    """Mean-distortion gap of the winding spiral over the plain stretch.

    ``lhs`` is the weighted mean distortion of the winding-``N`` spiral
    stretch, ``rhs`` that of the winding-0 one; the audit passes when the gap
    exceeds ``1e-6``, i.e. extra winding strictly costs distortion.
    """
    require_real(
        winding,
        "winding must be an integer >= 1 for the gap audit",
        lambda v: v >= 1,
        integer=True,
    )
    g_n = SpiralStretch(q, k, theta, winding)
    g_0 = SpiralStretch(q, k, theta, 0)
    ((n_row, zero_row),) = _mean_distortions((g_n, g_0), gauge, (grid,), Density.INVERSE_SQUARE)
    lhs, rhs = n_row.value, zero_row.value
    gap = lhs - rhs
    constants = {
        "gap": float(gap),
        "K_n": g_n.distortion,
        "K_0": g_0.distortion,
        "winding": float(winding),
    }
    return _report("gn-gap", lhs, rhs, constants, gap > 1e-6)


# --------------------------------------------------------------------------
# epsilon ladders
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderConfig:
    """Parameters of the square-gauge epsilon ladder."""

    q: float = 0.5
    k: float = 2.0
    theta: float = 0.0
    eps_values: tuple[float, ...] = (
        1e-4,
        3.1622776601683794e-4,
        1e-3,
        3.1622776601683795e-3,
        1e-2,
    )
    gauge: ConvexGauge = field(default_factory=ConvexGauge.square)
    n_radial: int = 512
    n_angular: int = 512


@dataclass(frozen=True)
class LadderRow:
    """One rung: perturbation size, deficit, L1 distance, dbar mass."""

    eps: float
    deficit: float
    l1: float
    dbar_mass: float
    noise: float
    included: bool


@dataclass(frozen=True)
class FitReport:
    """Ladder rows plus the log-log OLS fit of l1 against the deficit."""

    rows: tuple[LadderRow, ...]
    slope: float
    intercept: float
    max_residual: float


def _check_ladder_eps(eps_values: tuple[float, ...], k: float) -> None:
    """At least two distinct rungs, each inside ``(0, min(0.1, (k-1)^2 / 2))``."""
    # past k - 1 = 1 the cap is 0.1, and the square of a huge k overflows
    eps_cap = min(0.1, 0.5 * min(k - 1.0, 1.0) ** 2)
    for eps in eps_values:
        require_real(
            eps,
            f"eps {eps!r} outside the supported ladder range (0, {eps_cap!r})",
            lambda v: 0.0 < v < eps_cap,
        )
    if len(eps_values) < 2:
        raise InputError("the ladder needs at least two eps values")
    if len(set(eps_values)) < len(eps_values):
        raise InputError(f"eps values must be distinct, got {list(eps_values)!r}")


def _loglog_fit(xs, ys) -> tuple[float, float, float]:
    """Least-squares line through ``(log x, log y)``: ``(slope, intercept,
    max_residual)``, the residual the largest ``|log y - line(log x)|``."""
    x, y = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept), float(np.max(np.abs(y - (slope * x + intercept))))


def run_ladder(config: LadderConfig = LadderConfig()) -> FitReport:
    """Run the epsilon ladder and fit the stability exponent.

    For each ``eps`` the candidate is the piecewise radial stretch (twisted by
    ``theta`` when nonzero); the deficit is measured against the reference
    spiral stretch with the square of the resolution used to estimate
    quadrature noise, and rows whose deficit is non-positive or within 10x the
    noise floor are excluded from the fit, which needs two distinct deficits.
    Needs a strictly convex gauge — with a linear one every deficit vanishes
    identically and the experiment is vacuous.

    Every parameter, the image annulus ``[q**k, 1]`` included, is checked
    before any map is evaluated.  The rungs are one family with a leading
    rung axis, so each quantity is one evaluation and one row reduction per
    grid, whatever the number of rungs.  The deficit evaluates the reference
    and the rungs once each over the full and the half grid together, and
    reduces the reference row with the rung rows, once per grid.  Every row
    has the bits of its own one-rung ``deficit``, ``l1_distance`` and
    ``phi_dbar_mass`` calls.
    """
    if config.gauge.curvature_floor <= 0.0:
        raise DegenerateExperimentError(
            "gauge yields zero deficit; use a strictly convex gauge"
        )
    _check_ladder_eps(config.eps_values, config.k)

    domain = AnnulusDomain(config.q)
    reference = SpiralStretch(config.q, config.k, config.theta, 0)
    # Every rung breaks where the two-speed base does, whatever its eps.
    base = PiecewiseRadialStretch(config.q, config.k, tuple(config.eps_values))
    grid = grid_for(base, domain, config.n_radial, config.n_angular)
    half_shape = half_resolution_shape(config.n_radial, config.n_angular)
    half_grid = grid_for(base, domain, *half_shape)
    image = image_annulus(config.q, config.k)
    rungs: MapFamily = base
    if config.theta != 0.0:
        rungs = Composition(SpiralStretch(image.inner_radius, 1.0, config.theta, 0), base)

    # The reference is the same on every rung: its row leads each grid's
    # reduction, and the rung rows follow it.
    d_full, d_half = (
        [_relative_excess(r.value, ref.value).value for r in rows]
        for ref, *rows in _mean_distortions(
            (reference, rungs), config.gauge, (grid, half_grid), Density.INVERSE_SQUARE
        )
    )
    l1 = l1_distance(rungs, reference, grid)
    mass = phi_dbar_mass(rungs, reference, config.n_radial, config.n_angular)
    rows = []
    for eps, full, half, dist, dbar in zip(config.eps_values, d_full, d_half, l1, mass):
        noise = abs(full - half) / 3.0
        rows.append(
            LadderRow(
                eps=float(eps),
                deficit=float(full),
                l1=float(dist),
                dbar_mass=float(dbar),
                noise=float(noise),
                included=bool(full > 0.0 and full > 10.0 * noise),
            )
        )

    usable = [r for r in rows if r.included]
    if len({r.deficit for r in usable}) < 2:
        raise DegenerateExperimentError(
            "fewer than two distinct deficits rise above the quadrature noise "
            "floor to fit a slope; refine the grid or use larger, wider-spaced eps"
        )
    slope, intercept, max_residual = _loglog_fit(
        [r.deficit for r in usable], [r.l1 for r in usable]
    )
    return FitReport(tuple(rows), slope, intercept, max_residual)


@dataclass(frozen=True)
class FlatRow:
    """One rung of the flat-gauge ladder."""

    eps: float
    eta: float
    flat_deficit: float
    square_deficit: float
    l1: float
    l1_floor: float
    l1_exceeds: bool
    regime_ok: bool


@dataclass(frozen=True)
class FlatLadderReport:
    """Flat-gauge ladder rows plus the log-log slope of l1 against eps."""

    rows: tuple[FlatRow, ...]
    slope: float
    intercept: float


def _two_speed_deficit(gauge: ConvexGauge, k: float, root: float) -> float:
    """Closed-form deficit ``(phi(k+r) + phi(k-r) - 2*phi(k)) / (2*phi(k))``.

    The two-speed map spends half its ``1/|w|^2`` mass at distortion ``k + r``
    and half at ``k - r`` (``r = sqrt(eps)``).
    """
    return (
        gauge.evaluate(k + root) + gauge.evaluate(k - root) - 2.0 * gauge.evaluate(k)
    ) / (2.0 * gauge.evaluate(k))


def run_flat_gauge_ladder(
    alpha: float,
    q: float = 0.5,
    k: float = 2.0,
    eps_values: tuple[float, ...] = (1e-4, 3e-4, 1e-3, 3e-3),
    n_radial: int = 512,
    n_angular: int = 256,
) -> FlatLadderReport:
    """Show the flat gauge cannot certify any polynomial stability exponent.

    For a hoped-for exponent ``alpha`` in ``(0, 0.5)`` and each ``eps``, set
    ``eta = eps**(1/alpha)``.  The flat-gauge deficit of the perturbed map is
    computed analytically (signed); ``regime_ok`` records that it stays at or
    below ``eta``, i.e. the gauge genuinely reports a tiny deficit.  Yet the
    measured L1 distance exceeds ``eta**alpha`` (= ``eps``) on every rung, so
    no bound of the form ``l1 <= deficit**alpha`` can hold — the distance
    scales like ``sqrt(eps)`` (the fitted slope) while the deficit collapses.
    """
    require_real(
        alpha, "alpha must lie strictly between 0 and 0.5", lambda v: 0.0 < v < 0.5
    )
    alpha = float(alpha)  # keep eta in double precision for numpy scalar input
    _check_ladder_eps(eps_values, k)
    flat = ConvexGauge.flat()
    square = ConvexGauge.square()
    domain = AnnulusDomain(q)
    reference = SpiralStretch(q, k, 0.0, 0)
    rungs = PiecewiseRadialStretch(q, k, tuple(eps_values))
    grid = grid_for(rungs, domain, n_radial, n_angular)
    l1 = l1_distance(rungs, reference, grid)

    rows = []
    for eps, dist in zip(eps_values, l1):
        root = math.sqrt(eps)
        eta = eps ** (1.0 / alpha)
        flat_deficit = _two_speed_deficit(flat, k, root)
        square_deficit = _two_speed_deficit(square, k, root)
        l1_floor = eta**alpha
        rows.append(
            FlatRow(
                eps=float(eps),
                eta=float(eta),
                flat_deficit=float(flat_deficit),
                square_deficit=float(square_deficit),
                l1=float(dist),
                l1_floor=float(l1_floor),
                l1_exceeds=bool(dist > l1_floor),
                regime_ok=bool(flat_deficit <= eta),
            )
        )

    slope, intercept, _ = _loglog_fit([r.eps for r in rows], [r.l1 for r in rows])
    return FlatLadderReport(tuple(rows), slope, intercept)
