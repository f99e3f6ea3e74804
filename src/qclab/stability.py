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
    build_polar_grid,
    half_resolution_shape,
    integrate,
    integrate_complex,
)
from .functionals import (
    Density,
    _relative_excess,
    distortion_many,
    l1_distance,
    mean_distortion,
)
from .maps import Composition, LinearStretch, MapFamily, PiecewiseRadialStretch, SpiralStretch
from .pompeiu import phi_dbar_mass

__all__ = [
    "AlignmentReport",
    "AlphaStar",
    "AuditReport",
    "FitReport",
    "FlatLadderReport",
    "FlatRow",
    "LadderConfig",
    "LadderRow",
    "alpha_star",
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
class AlphaStar:
    """Optimal rotation angle of a candidate against its reference."""

    alpha: float
    r: float
    degenerate: bool


def _alignment_integrand(
    fz: np.ndarray, fzb: np.ndarray, fstar: LinearStretch
) -> np.ndarray:
    mu = fstar.mu
    if mu == 0:
        raise InputError(
            "reference has zero Beltrami coefficient; the alignment direction "
            "is undefined (use k > 1)"
        )
    return mu / abs(mu) * fz + fzb


def _alpha_from(integrand: np.ndarray, grid: QuadratureGrid) -> AlphaStar:
    total = integrate_complex(grid, integrand)
    r = abs(total)
    if r < 1e-13 * grid.domain.area:
        return AlphaStar(alpha=0.0, r=float(r), degenerate=True)
    alpha = -math.atan2(total.imag, total.real)
    if alpha <= -math.pi:
        alpha += 2.0 * math.pi
    return AlphaStar(alpha=float(alpha), r=float(r), degenerate=False)


def alpha_star(f: MapFamily, fstar: LinearStretch, grid: QuadratureGrid) -> AlphaStar:
    """Solve ``integral (mu*/|mu*| f_z + f_zbar) == R * exp(-i*alpha)``.

    ``alpha`` is the rotation that best aligns the candidate with the
    reference stretch; it is 0 for the reference itself and ``-beta`` for the
    reference post-rotated by ``beta``.  Normalized to ``(-pi, pi]``.  When
    ``R`` vanishes (below ``1e-13 *`` domain area) the angle is meaningless
    and the result is flagged degenerate.
    """
    fz, fzb = f.wirtinger_many(grid.centers)
    return _alpha_from(_alignment_integrand(fz, fzb, fstar), grid)


@dataclass(frozen=True)
class AlignmentReport:
    """Decomposition of the alignment integrand against the reference.

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
    fz, fzb = f.wirtinger_many(grid.centers)
    integrand = _alignment_integrand(fz, fzb, fstar)
    star = _alpha_from(integrand, grid)
    rotated = np.exp(1j * star.alpha) * integrand
    real_part_gap = integrate(grid, np.abs(integrand) - rotated.real)
    imag_part_mass = integrate(grid, np.abs(rotated.imag))
    absdiff_mass = integrate(grid, np.abs(fzb - fstar.mu * fz))
    return AlignmentReport(
        alpha=star.alpha,
        r=star.r,
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


def _safe_ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return math.inf if lhs > 0.0 else 0.0
    return lhs / rhs


def _constant_reference_distortion(
    fstar: MapFamily, grid: QuadratureGrid
) -> float:
    k_star, _ = distortion_many(fstar, grid.centers)
    spread = float(np.max(k_star) - np.min(k_star))
    if spread > 1e-12:
        raise InputError(
            f"reference distortion varies by {spread!r} across the grid; "
            "these audits require a constant-distortion reference"
        )
    return float(k_star[0])


def audit_k_l2(
    f: MapFamily,
    fstar: MapFamily,
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
    k_star_val = _constant_reference_distortion(fstar, grid)
    K, _ = distortion_many(f, grid.centers)
    lhs = integrate(grid, (K - k_star_val) ** 2)
    i_phi = integrate(grid, np.asarray(gauge.evaluate(K), dtype=np.float64))
    i_star = integrate(grid, np.full(grid.n_cells, gauge.evaluate(k_star_val)))
    eps_measured = (i_phi - i_star) / i_star
    rhs = (2.0 / c) * (i_phi - i_star)
    return AuditReport(
        lemma="k-l2",
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=_safe_ratio(lhs, rhs),
        constants={"c": c, "K_star": k_star_val, "eps_measured": float(eps_measured)},
        passed=bool(lhs <= rhs * (1.0 + 1e-8) + 1e-15),
    )


def audit_k_mean(
    f: MapFamily,
    fstar: MapFamily,
    gauge: ConvexGauge,
    grid: QuadratureGrid,
) -> AuditReport:
    """First-order distortion control via convexity of the gauge.

    ``integral K <= (1 + C*delta) * integral K*`` with the supporting-line
    constant ``C = phi(K*) / (K* * phi'(K*))`` (1/2 for the square gauge at
    k=2, 1 for the linear one) and ``delta`` the measured deficit on the same
    grid.
    """
    k_star_val = _constant_reference_distortion(fstar, grid)
    phi_prime = float(gauge.right_derivative(k_star_val))
    if phi_prime <= 0.0:
        raise UnsupportedVariantError(
            f"gauge {gauge.label!r} has non-increasing phi at K*; audit undefined"
        )
    K, _ = distortion_many(f, grid.centers)
    lhs = integrate(grid, K)
    i_k_star = integrate(grid, np.full(grid.n_cells, k_star_val))
    i_phi = integrate(grid, np.asarray(gauge.evaluate(K), dtype=np.float64))
    i_star = integrate(grid, np.full(grid.n_cells, gauge.evaluate(k_star_val)))
    big_c = float(gauge.evaluate(k_star_val)) / (k_star_val * phi_prime)
    delta = (i_phi - i_star) / i_star
    rhs = (1.0 + big_c * delta) * i_k_star
    return AuditReport(
        lemma="k-mean",
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=_safe_ratio(lhs, rhs),
        constants={
            "C": big_c,
            "K_star": k_star_val,
            "phi_prime": phi_prime,
            "deficit": float(delta),
        },
        passed=bool(lhs <= rhs * (1.0 + 1e-8) + 1e-15),
    )


def audit_taylor(
    gauge: ConvexGauge,
    n_pairs: int = 10000,
    seed: int = 0,
    c: float | None = None,
) -> AuditReport:
    """Sample the quadratic Taylor gap of a gauge on random pairs.

    Draws ``(s, t)`` uniformly from ``[1, 50]^2`` and reports the most
    negative ``gauge.taylor_gap(s, t, c)``.  Passing means the gauge really
    does dominate its quadratic model at curvature ``c`` on the sampled box.
    ``c`` defaults to the gauge's own floor and may be lowered but never
    raised above it.
    """
    if n_pairs < 1:
        raise InputError("n_pairs must be >= 1")
    floor = gauge.curvature_floor
    if c is None:
        c_used = floor
    elif c > floor + 1e-15:
        raise InputError(
            f"declared curvature c = {c!r} exceeds the floor {floor!r} of "
            f"gauge {gauge.label!r}"
        )
    else:
        c_used = float(c)
    rng = np.random.default_rng(seed)
    s = rng.uniform(1.0, 50.0, size=n_pairs)
    t = rng.uniform(1.0, 50.0, size=n_pairs)
    gaps = gauge.taylor_gap(s, t, c_used)
    min_gap = float(np.min(gaps))
    worst = int(np.argmin(gaps))
    return AuditReport(
        lemma="taylor",
        lhs=min_gap,
        rhs=-1e-12,
        ratio=_safe_ratio(min_gap, -1e-12),
        constants={
            "c": c_used,
            "n_pairs": float(n_pairs),
            "seed": float(seed),
            "worst_s": float(s[worst]),
            "worst_t": float(t[worst]),
        },
        passed=bool(min_gap >= -1e-12),
    )


def audit_theta(n_samples: int = 10000, seed: int = 0) -> AuditReport:
    """Sample the pointwise angle-defect inequalities on random points.

    The points are ``10 * (x + iy)`` with ``x`` and ``y`` standard normal.
    Checks ``(|z| - Re z) - theta(z) >= -1e-12`` on every sample and that the
    definitional identity ``2*theta*|z| - (Im z)^2`` vanishes to rounding.
    """
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    z = 10.0 * (rng.standard_normal(n_samples) + 1j * rng.standard_normal(n_samples))
    _, gap1, gap2 = theta_check_many(z)
    min_gap1 = float(np.min(gap1))
    max_identity = float(np.max(np.abs(gap2) / (1.0 + z.imag**2)))
    passed = min_gap1 >= -1e-12 and max_identity <= 1e-12
    return AuditReport(
        lemma="theta",
        lhs=min_gap1,
        rhs=-1e-12,
        ratio=_safe_ratio(min_gap1, -1e-12),
        constants={
            "n_samples": float(n_samples),
            "seed": float(seed),
            "scale": 10.0,
            "max_identity_defect": max_identity,
        },
        passed=bool(passed),
    )


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
    lhs = mean_distortion(g_n, gauge, grid, Density.INVERSE_SQUARE).value
    rhs = mean_distortion(g_0, gauge, grid, Density.INVERSE_SQUARE).value
    gap = lhs - rhs
    return AuditReport(
        lemma="gn-gap",
        lhs=float(lhs),
        rhs=float(rhs),
        ratio=_safe_ratio(lhs, rhs),
        constants={
            "gap": float(gap),
            "K_n": g_n.distortion,
            "K_0": g_0.distortion,
            "winding": float(winding),
        },
        passed=bool(gap > 1e-6),
    )


# --------------------------------------------------------------------------
# epsilon ladders
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LadderConfig:
    """Parameters of the square-gauge epsilon ladder.

    The dbar-mass grid ``mass_n_radial x mass_n_angular`` defaults to
    ``n_radial x max(1, n_angular // 2)``: 512x256 at the default grid.
    """

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
    mass_n_radial: int | None = None
    mass_n_angular: int | None = None


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
    eps_cap = min(0.1, 0.5 * (k - 1.0) ** 2)
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


def _ladder_candidate(config: LadderConfig, eps: float) -> MapFamily:
    base = PiecewiseRadialStretch(config.q, config.k, eps)
    if config.theta == 0.0:
        return base
    twist = SpiralStretch(config.q**config.k, 1.0, config.theta, 0)
    return Composition(twist, base)


def run_ladder(config: LadderConfig = LadderConfig()) -> FitReport:
    """Run the epsilon ladder and fit the stability exponent.

    For each ``eps`` the candidate is the piecewise radial stretch (twisted by
    ``theta`` when nonzero); the deficit is measured against the reference
    spiral stretch with the square of the resolution used to estimate
    quadrature noise, and rows whose deficit is non-positive or within 10x the
    noise floor are excluded from the fit, which needs two distinct deficits.
    Needs a strictly convex gauge — with a linear one every deficit vanishes
    identically and the experiment is vacuous.
    """
    if config.gauge.curvature_floor <= 0.0:
        raise DegenerateExperimentError(
            "gauge yields zero deficit; use a strictly convex gauge"
        )
    _check_ladder_eps(config.eps_values, config.k)

    domain = AnnulusDomain(config.q)
    break_radius = math.sqrt(config.q)
    grid = build_polar_grid(
        domain, config.n_radial, config.n_angular, breaks=[break_radius]
    )
    half_shape = half_resolution_shape(config.n_radial, config.n_angular)
    half_grid = build_polar_grid(domain, *half_shape, breaks=[break_radius])
    reference = SpiralStretch(config.q, config.k, config.theta, 0)
    mass_n_radial, mass_n_angular = config.mass_n_radial, config.mass_n_angular
    if mass_n_radial is None:
        mass_n_radial = config.n_radial
    if mass_n_angular is None:
        mass_n_angular = max(1, config.n_angular // 2)

    def weighted(family: MapFamily, on: QuadratureGrid) -> float:
        return mean_distortion(family, config.gauge, on, Density.INVERSE_SQUARE).value

    # The reference is the same on every rung: integrate it once per grid.
    ref_full = weighted(reference, grid)
    ref_half = weighted(reference, half_grid)
    rows = []
    for eps in config.eps_values:
        candidate = _ladder_candidate(config, eps)
        d_full = _relative_excess(weighted(candidate, grid), ref_full).value
        d_half = _relative_excess(weighted(candidate, half_grid), ref_half).value
        noise = abs(d_full - d_half) / 3.0
        l1 = l1_distance(candidate, reference, grid)
        mass = phi_dbar_mass(
            candidate,
            reference,
            n_radial=mass_n_radial,
            n_angular=mass_n_angular,
        )
        included = d_full > 0.0 and d_full > 10.0 * noise
        rows.append(
            LadderRow(
                eps=float(eps),
                deficit=float(d_full),
                l1=float(l1),
                dbar_mass=float(mass),
                noise=float(noise),
                included=bool(included),
            )
        )

    usable = [r for r in rows if r.included]
    if len({r.deficit for r in usable}) < 2:
        raise DegenerateExperimentError(
            "fewer than two distinct deficits rise above the quadrature noise "
            "floor to fit a slope; refine the grid or use larger, wider-spaced eps"
        )
    x = np.log([r.deficit for r in usable])
    y = np.log([r.l1 for r in usable])
    slope, intercept = np.polyfit(x, y, 1)
    max_residual = float(np.max(np.abs(y - (slope * x + intercept))))
    return FitReport(
        rows=tuple(rows),
        slope=float(slope),
        intercept=float(intercept),
        max_residual=max_residual,
    )


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
    grid = build_polar_grid(domain, n_radial, n_angular, breaks=[math.sqrt(q)])
    reference = SpiralStretch(q, k, 0.0, 0)

    rows = []
    for eps in eps_values:
        root = math.sqrt(eps)
        eta = eps ** (1.0 / alpha)
        flat_deficit = _two_speed_deficit(flat, k, root)
        square_deficit = _two_speed_deficit(square, k, root)
        candidate = PiecewiseRadialStretch(q, k, eps)
        l1 = l1_distance(candidate, reference, grid)
        l1_floor = eta**alpha
        rows.append(
            FlatRow(
                eps=float(eps),
                eta=float(eta),
                flat_deficit=float(flat_deficit),
                square_deficit=float(square_deficit),
                l1=float(l1),
                l1_floor=float(l1_floor),
                l1_exceeds=bool(l1 > l1_floor),
                regime_ok=bool(flat_deficit <= eta),
            )
        )

    x = np.log([r.eps for r in rows])
    y = np.log([r.l1 for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    return FlatLadderReport(
        rows=tuple(rows), slope=float(slope), intercept=float(intercept)
    )
