"""End-to-end acceptance checks, one numbered line of output per criterion.

Every test prints ``acceptance NN PASS|FAIL: detail`` before asserting, so a
plain ``pytest -s`` run reads as a checklist.  Criterion 6's flat-gauge
sub-case is a known violation of the convexity premise and is kept as a
strict xfail — see the flat-gauge notes in the gauge module.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import cartesian, polar
from qclab.functionals import (
    Density,
    conformal_transfer_check,
    deficit,
    mean_distortion,
)
from qclab.gauges import ConvexGauge
from qclab.maps import (
    ConjugationMap,
    IdentityMap,
    LinearStretch,
    PiecewiseLinearStretch,
    PiecewiseRadialStretch,
    SpiralStretch,
)
from qclab.geometry import AnnulusDomain
from qclab.pompeiu import (
    annulus_trace,
    dbar_field,
    kernel_mass,
    offset_targets,
    psi_dbar_mass,
    reconstruct,
)
from qclab.stability import (
    LadderConfig,
    audit_gn_gap,
    audit_k_l2,
    audit_k_mean,
    audit_taylor,
    audit_theta,
    run_flat_gauge_ladder,
    run_ladder,
)

LINEAR = ConvexGauge.parse("linear")
SQUARE = ConvexGauge.parse("square")
GSTAR = SpiralStretch(0.5, 2.0)
FSTAR = LinearStretch(2.0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_01_reference_mean_distortion():
    grid = polar(0.5, 512, 512)
    t0 = time.perf_counter()
    got = mean_distortion(GSTAR, LINEAR, grid, Density.INVERSE_SQUARE).value
    elapsed = time.perf_counter() - t0
    want = 4.0 * math.pi * math.log(2.0)
    rel = abs(got - want) / want
    ok = rel < 1e-6 and elapsed < 2.0
    report(1, ok, f"value={got:.9f} rel_err={rel:.2e} time={elapsed:.2f}s")


def test_02_linear_gauge_sees_no_deficit():
    worst = 0.0
    for eps in (1e-4, 1e-3, 1e-2):
        g = PiecewiseRadialStretch(0.5, 2.0, eps)
        grid = polar(0.5, 512, 512, breaks=g.break_radii())
        worst = max(worst, abs(deficit(g, GSTAR, LINEAR, grid).value))
    ok = worst < 1e-8
    report(2, ok, f"max |deficit| = {worst:.2e} over three eps rungs")


def test_03_square_gauge_distortion_and_deficit():
    q, k, eps = 0.5, 2.0, 1e-2
    g = PiecewiseRadialStretch(q, k, eps)
    grid = polar(q, 512, 512, breaks=g.break_radii())
    got = mean_distortion(g, SQUARE, grid, Density.INVERSE_SQUARE).value
    want = 2.0 * math.pi * math.log(1.0 / q) * (k**2 + eps)
    rel = abs(got - want) / want
    d = deficit(g, GSTAR, SQUARE, grid).value
    d_err = abs(d - eps / k**2)
    ok = rel < 1e-6 and d_err < 1e-6
    report(3, ok, f"distortion rel_err={rel:.2e} deficit_abs_err={d_err:.2e}")


def test_04_strip_dbar_mass():
    worst = 0.0
    for eps in (1e-4, 1e-2, 4e-2):
        got = psi_dbar_mass(PiecewiseLinearStretch(2.0, eps), FSTAR)
        worst = max(worst, abs(got - math.sqrt(eps) / 4.0))
    ok = worst < 1e-8
    report(4, ok, f"max |mass - sqrt(eps)/4| = {worst:.2e}")


def test_05_stability_exponent_ladder():
    t0 = time.perf_counter()
    fit = run_ladder(LadderConfig())
    elapsed = time.perf_counter() - t0
    band = [r.l1 / math.sqrt(r.deficit) for r in fit.rows]
    ratio = max(band) / min(band)
    ok = abs(fit.slope - 0.5) <= 0.05 and ratio < 3.0 and elapsed < 30.0
    report(
        5, ok, f"slope={fit.slope:.4f} band_ratio={ratio:.3f} time={elapsed:.1f}s"
    )


def test_06_lemma_audits():
    taylor_ok = all(
        audit_taylor(ConvexGauge.parse(name)).passed
        for name in ("linear", "square", "power:3")
    )
    l2_worst = 0.0
    for eps in (1e-4, 1e-3, 1e-2):
        f = PiecewiseLinearStretch(2.0, eps)
        grid = cartesian(1.0, 256, 32, breaks=(0.5,))
        rep = audit_k_l2(f, FSTAR, SQUARE, grid)
        l2_worst = max(l2_worst, abs(rep.lhs - eps))
    kmean = audit_k_mean(
        PiecewiseLinearStretch(2.0, 1e-2),
        FSTAR,
        SQUARE,
        cartesian(1.0, 256, 32, breaks=(0.5,)),
    )
    theta = audit_theta()
    ok = (
        taylor_ok
        and l2_worst < 1e-12
        and kmean.passed
        and kmean.constants["C"] == pytest.approx(0.5)
        and theta.passed
    )
    report(
        6,
        ok,
        f"taylor={taylor_ok} k_l2_worst={l2_worst:.2e} "
        f"k_mean_C={kmean.constants['C']:.2f} theta_min={theta.lhs:.2e}",
    )


@pytest.mark.xfail(strict=True, reason="the flat gauge is not convex on [1, inf)")
def test_06_lemma_audits_flat_gauge():
    rep = audit_taylor(ConvexGauge.parse("flat"))
    report(6, rep.passed, f"flat gauge taylor min gap = {rep.lhs:.3f}")


def test_07_winding_gap():
    gaps = []
    for q, k, theta in ((0.5, 1.0, 0.0), (0.5, 2.0, 0.0), (0.5, 2.0, math.pi / 2)):
        grid = polar(q, 256, 256)
        for winding in (1, 2):
            rep = audit_gn_gap(q, k, theta, winding, SQUARE, grid)
            gaps.append(rep.constants["gap"])
    ok = all(g > 0 for g in gaps)
    report(7, ok, f"min gap = {min(gaps):.1f} over six configurations")


def test_08_reconstruction_and_kernel_mass():
    dom = AnnulusDomain(0.25)
    g_small = polar(0.25, 128, 128)
    trace = annulus_trace(IdentityMap(), dom, 1024)
    ident = reconstruct(
        trace, dbar_field(IdentityMap(), g_small), offset_targets(g_small, 8, seed=1)
    )
    ident_max = max(r.residual for r in ident)

    g_big = polar(0.25, 512, 512)
    trace_c = annulus_trace(ConjugationMap(), dom, 1024)
    conj = reconstruct(
        trace_c,
        dbar_field(ConjugationMap(), g_big),
        offset_targets(g_big, 32, seed=0, margin=0.1),
    )
    conj_median = float(np.median([r.residual for r in conj]))

    masses = [
        kernel_mass(polar(0.25, n, n), w)
        for n in (128, 256, 512)
        for w in (0.61 + 0.13j, -0.4 + 0.33j)
    ]
    mass_ok = max(masses) <= 4.0 * math.pi

    ok = ident_max < 1e-10 and conj_median < 1e-3 and mass_ok
    report(
        8,
        ok,
        f"identity_max={ident_max:.2e} conj_median={conj_median:.2e} "
        f"mass_max={max(masses):.3f} (cap {4 * math.pi:.3f})",
    )


def test_09_conformal_transfer():
    q = math.exp(-2.0 * math.pi)
    k = 2.0
    gstar = SpiralStretch(q, k)
    fstar = LinearStretch(k)
    ann = polar(q, 32768, 8)
    rect = cartesian(1.0, 16, 16)
    rel_star = conformal_transfer_check(gstar, fstar, SQUARE, ann, rect).rel_gap

    eps = 1e-2
    geps = PiecewiseRadialStretch(q, k, eps)
    feps = PiecewiseLinearStretch(k, eps)
    ann_b = polar(q, 32768, 8, breaks=geps.break_radii())
    rect_b = cartesian(1.0, 16, 16, breaks=(0.5,))
    rel_eps = conformal_transfer_check(geps, feps, SQUARE, ann_b, rect_b).rel_gap

    ok = rel_star < 1e-5 and rel_eps < 1e-5
    report(9, ok, f"reference rel_gap={rel_star:.2e} perturbed rel_gap={rel_eps:.2e}")


def test_10_flat_gauge_regime():
    ok = True
    details = []
    for alpha in (0.3, 0.4, 0.49):
        rep = run_flat_gauge_ladder(alpha)
        floor_ok = all(r.l1_exceeds for r in rep.rows)
        regime_ok = all(
            r.flat_deficit < 1e-6
            for r in rep.rows
            if r.square_deficit > 1e-4
        )
        tested = [r for r in rep.rows if r.square_deficit > 1e-4]
        ok = ok and floor_ok and regime_ok and tested
        details.append(f"alpha={alpha}: floor={floor_ok} regime={regime_ok}")
    report(10, bool(ok), "; ".join(details))


def test_11_cli_determinism(tmp_path):
    cmd = [
        sys.executable, "-m", "qclab", "fit",
        "--grid", "128x128", "--eps", "1e-4,1e-3,1e-2", "--format", "csv",
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.startswith(b"eps,deficit,l1,dbar_mass")
    )
    report(11, ok, f"{len(first.stdout)} bytes, reruns identical={ok}")
