"""Boundary Cauchy transform, area transform, and the dbar-mass functionals.

Residue oracles used below (derived by hand before writing the tests):
with values xi-bar on the circle |xi| = R, the Cauchy integral over that
single circle is, for an annulus target w with R < |w| < 1 (outer) or
|w| > R (inner):

  * outer unit circle (counterclockwise): xi-bar = 1/xi there, and the two
    residues at 0 and w cancel — the contribution is exactly 0;
  * inner circle of radius a (clockwise): xi-bar = a^2/xi there, only the
    pole at 0 is enclosed — the contribution is a^2 / w.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cartesian, polar
from qclab.errors import AccuracyError, InputError, UnsupportedVariantError
from qclab.geometry import AnnulusDomain
from qclab.maps import (
    Composition,
    ConjugationMap,
    IdentityMap,
    InverseSpiralStretch,
    LinearStretch,
    PiecewiseLinearStretch,
    PiecewiseRadialStretch,
    SpiralStretch,
)
from qclab.stability import audit_alignment
from qclab.pompeiu import (
    BoundaryTrace,
    annulus_trace,
    cauchy_boundary,
    dbar_field,
    kernel_mass,
    offset_targets,
    phi_dbar_mass,
    pompeiu_area,
    psi_dbar_mass,
    reconstruct,
    reconstruct_many,
    _exclusion_cells,
)

DOM = AnnulusDomain(0.25)
TARGETS = np.array([0.7 + 0.0j, -0.3 + 0.45j, 0.31 - 0.52j])


class TestBoundaryTransform:
    def test_identity_values_reproduce_targets(self):
        trace = annulus_trace(IdentityMap(), DOM, 1024)
        out = cauchy_boundary(trace, TARGETS)
        assert np.allclose(out, TARGETS, atol=1e-10)

    def test_constant_values_give_winding_sum(self):
        trace = annulus_trace(IdentityMap(), DOM, 512)
        import dataclasses

        const = BoundaryTrace(
            domain=trace.domain,
            components=tuple(
                dataclasses.replace(c, values=np.ones_like(c.values))
                for c in trace.components
            ),
        )
        out = cauchy_boundary(const, TARGETS)
        assert np.allclose(out, 1.0, atol=1e-12)

    def test_outer_only_conjugate_trace_cancels(self):
        trace = annulus_trace(ConjugationMap(), DOM, 1024)
        outer = BoundaryTrace(domain=trace.domain, components=(trace.components[0],))
        out = cauchy_boundary(outer, TARGETS)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_inner_only_conjugate_trace_is_residue_at_zero(self):
        trace = annulus_trace(ConjugationMap(), DOM, 1024)
        inner = BoundaryTrace(domain=trace.domain, components=(trace.components[1],))
        out = cauchy_boundary(inner, TARGETS)
        want = 0.25**2 / TARGETS
        assert np.allclose(out, want, atol=1e-12)

    def test_target_too_close_to_boundary(self):
        trace = annulus_trace(IdentityMap(), DOM, 64)
        with pytest.raises(AccuracyError):
            cauchy_boundary(trace, [0.999 + 0j])

    def test_first_offending_target_is_reported(self):
        # circles in the outer loop, targets in the inner loop: the target
        # near the outer circle is reported although one near the inner
        # circle comes first in the list
        trace = annulus_trace(IdentityMap(), DOM, 64)
        pts = np.array([0.6, 0.26, -0.95, 0.97j, -0.26j], dtype=np.complex128)
        # with many targets the offending ones also fall in different passes
        fine = 0.6 * np.exp(1j * np.linspace(0.0, 6.0, 70))
        pts = np.concatenate([pts[:2], fine, pts[2:]])
        expected = None
        for comp in trace.components:
            for w in pts:
                if expected is None and np.min(np.abs(comp.nodes - w)) < 2.0 * comp.spacing:
                    expected = (w, comp.radius)
        assert expected[0] == -0.95 and expected[1] == 1.0
        with pytest.raises(AccuracyError) as err:
            cauchy_boundary(trace, pts)
        assert f"target {expected[0]!r} " in str(err.value)
        assert f"|xi| = {expected[1]!r};" in str(err.value)
        with pytest.raises(AccuracyError, match=r"\|xi\| = 0\.25"):
            cauchy_boundary(trace, pts[[0, -1, 1]])

    def test_batched_targets_match_one_at_a_time(self):
        trace = annulus_trace(ConjugationMap(), DOM, 256)
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.35, 0.85, 150) * np.exp(2j * math.pi * rng.uniform(size=150))
        many = cauchy_boundary(trace, pts)
        for i, w in enumerate(pts):
            one = cauchy_boundary(trace, [w])
            assert many[i].real.hex() == one[0].real.hex()
            assert many[i].imag.hex() == one[0].imag.hex()

    def test_node_count_floor(self):
        with pytest.raises(InputError):
            annulus_trace(IdentityMap(), DOM, 4)


def _exclusion_mask(grid, w):
    mask = np.zeros(grid.n_cells, dtype=np.uint8)
    mask[_exclusion_cells(grid, w)] = 1
    return mask


class TestExclusionMask:
    def test_interior_point_excludes_nine_cells(self):
        g = polar(0.25, 64, 64)
        assert int(_exclusion_mask(g, complex(g.centers[70])).sum()) == 9

    def test_corner_target_excludes_four_cells(self):
        g = polar(0.25, 64, 64)
        corner = g.primary_edges[10] * np.exp(1j * 3 * g.secondary_step)
        assert int(_exclusion_mask(g, complex(corner)).sum()) == 4

    def test_edge_target_excludes_six_cells(self):
        g = polar(0.25, 64, 64)
        r_mid = 0.5 * (g.primary_edges[10] + g.primary_edges[11])
        on_angular_edge = r_mid * np.exp(1j * 3 * g.secondary_step)
        assert int(_exclusion_mask(g, complex(on_angular_edge)).sum()) == 6

    def test_angular_wrap(self):
        g = polar(0.25, 16, 16)
        corner = complex(g.primary_edges[8])  # angle exactly 0
        mask = _exclusion_mask(g, corner).reshape(16, 16)
        assert mask[:, 0].sum() == 2 and mask[:, 15].sum() == 2
        assert mask.sum() == 4

    def test_radial_clamp(self):
        g = polar(0.25, 16, 16)
        near_inner = complex(g.centers[3])  # first radial row
        mask = _exclusion_mask(g, near_inner).reshape(16, 16)
        assert mask.sum() == 6  # only rows 0 and 1 exist

    def test_cartesian_no_wrap(self):
        g = cartesian(1.0, 16, 16)
        corner_cell = complex(g.centers[0])
        mask = _exclusion_mask(g, corner_cell).reshape(16, 16)
        assert mask.sum() == 4  # clamped at both low edges


class TestReconstruction:
    def test_one_target_entry_points_share_the_batched_path(self):
        g = polar(0.25, 32, 32)
        trace = annulus_trace(ConjugationMap(), DOM, 512)
        field = dbar_field(ConjugationMap(), g)
        pts = offset_targets(g, 4, seed=2)
        many = reconstruct_many(trace, field, pts)
        for w, r in zip(pts, many):
            one = reconstruct(trace, field, w)
            assert one == r
            area = pompeiu_area(field, w)
            assert r.value == complex(cauchy_boundary(trace, [w])[0]) - area

    def test_identity_is_exact(self):
        g = polar(0.25, 128, 128)
        trace = annulus_trace(IdentityMap(), DOM, 1024)
        field = dbar_field(IdentityMap(), g)
        results = reconstruct_many(trace, field, offset_targets(g, 8, seed=1))
        assert max(r.residual for r in results) < 1e-10

    def test_conjugation_residual_scale(self):
        g = polar(0.25, 128, 128)
        trace = annulus_trace(ConjugationMap(), DOM, 1024)
        field = dbar_field(ConjugationMap(), g)
        results = reconstruct_many(trace, field, offset_targets(g, 16, seed=3))
        med = float(np.median([r.residual for r in results]))
        assert med < 1e-4

    def test_exact_value_is_reported(self):
        g = polar(0.25, 64, 64)
        trace = annulus_trace(ConjugationMap(), DOM, 512)
        field = dbar_field(ConjugationMap(), g)
        w = complex(offset_targets(g, 1, seed=0)[0])
        rec = reconstruct(trace, field, w)
        assert rec.exact == np.conj(w)
        assert rec.residual == abs(rec.value - rec.exact)

    def test_near_break_flag(self):
        q, k, eps = 0.5, 2.0, 0.01
        phi = Composition(
            PiecewiseRadialStretch(q, k, eps), InverseSpiralStretch(q, k)
        )
        dom = AnnulusDomain(q**k)
        g = polar(q**k, 64, 64, breaks=phi.break_radii())
        trace = annulus_trace(phi, dom, 512)
        field = dbar_field(phi, g)
        b = phi.break_radii()[0]
        on_edge = complex(
            g.primary_edges[np.argmin(np.abs(g.primary_edges - b))]
            * np.exp(1j * 5 * g.secondary_step)
        )
        rec = reconstruct(trace, field, on_edge)
        assert rec.near_break

    def test_perturbed_conformal_factor_reconstructs(self):
        q, k, eps = 0.5, 2.0, 0.01
        phi = Composition(
            PiecewiseRadialStretch(q, k, eps), InverseSpiralStretch(q, k)
        )
        dom = AnnulusDomain(q**k)
        g = polar(q**k, 256, 256, breaks=phi.break_radii())
        trace = annulus_trace(phi, dom, 1024)
        field = dbar_field(phi, g)
        results = reconstruct_many(trace, field, offset_targets(g, 32, seed=5))
        med = float(np.median([r.residual for r in results]))
        assert med < 1e-2  # comfortably: measured ~3e-6


class TestKernelMass:
    def test_bounded_by_4pi_across_resolutions(self):
        for n in (64, 128, 256):
            g = polar(0.25, n, n)
            for w in offset_targets(g, 4, seed=11):
                assert kernel_mass(g, complex(w)) <= 4.0 * math.pi

    def test_stable_under_refinement(self):
        w = 0.61 + 0.13j
        masses = [kernel_mass(polar(0.25, n, n), w) for n in (64, 128, 256)]
        spread = max(masses) - min(masses)
        assert spread / masses[-1] < 0.05

    def test_center_coincidence_is_rejected(self):
        g = polar(0.25, 16, 16)
        with pytest.raises(InputError):
            kernel_mass(g, complex(g.centers[40]))


@pytest.mark.parametrize("bad", [math.nan, complex(0.5, math.inf)])
@pytest.mark.parametrize(
    "entry",
    [
        lambda w: kernel_mass(polar(0.25, 16, 16), w),
        lambda w: cauchy_boundary(annulus_trace(IdentityMap(), DOM, 64), [0.5, w]),
        lambda w: pompeiu_area(dbar_field(ConjugationMap(), polar(0.25, 16, 16)), w),
        lambda w: reconstruct_many(
            annulus_trace(ConjugationMap(), DOM, 64),
            dbar_field(ConjugationMap(), polar(0.25, 16, 16)),
            [0.5, w],
        ),
    ],
    ids=["kernel_mass", "cauchy_boundary", "pompeiu_area", "reconstruct_many"],
)
def test_nonfinite_target_is_refused_by_name(entry, bad):
    message = re.escape(f"target {complex(bad)!r} is not finite")
    with pytest.raises(InputError, match=message):
        entry(bad)


class TestOffsetTargets:
    def test_deterministic(self):
        g = polar(0.25, 64, 64)
        a = offset_targets(g, 8, seed=42)
        b = offset_targets(g, 8, seed=42)
        assert np.array_equal(a, b)
        c = offset_targets(g, 8, seed=43)
        assert not np.array_equal(a, c)

    def test_targets_sit_on_cell_corners(self):
        g = polar(0.25, 32, 32)
        for w in offset_targets(g, 8, seed=2):
            r, t = abs(w), math.atan2(w.imag, w.real) % (2 * math.pi)
            assert np.isclose(g.primary_edges, r, rtol=1e-12).any()
            steps = t / g.secondary_step
            assert abs(steps - round(steps)) < 1e-9

    def test_margin_is_respected(self):
        g = polar(0.25, 64, 64)
        pad = 0.2 * 0.75
        for w in offset_targets(g, 16, seed=9, margin=0.2):
            assert 0.25 + pad - 1e-12 <= abs(w) <= 1.0 - pad + 1e-12

    def test_count_validation(self):
        g = polar(0.25, 8, 8)
        with pytest.raises(InputError):
            offset_targets(g, 0, seed=1)
        with pytest.raises(InputError):
            offset_targets(g, 10_000, seed=1)


class TestDbarMasses:
    def test_psi_mass_vanishes_for_reference(self):
        assert psi_dbar_mass(LinearStretch(2.0), LinearStretch(2.0), 32, 8) == 0.0

    @pytest.mark.parametrize(
        "eps,want", [(1e-4, 0.0025), (1e-2, 0.025), (4e-2, 0.05)]
    )
    def test_psi_mass_piecewise_exact(self, eps, want):
        # the integrand is piecewise constant, so small grids are exact
        got = psi_dbar_mass(
            PiecewiseLinearStretch(2.0, eps), LinearStretch(2.0), 64, 8
        )
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize(
        "k, n, eps",
        [(2.0, 0.5, 0.01), (3.0, -1.3, 1e-4), (1.5, 0.0, 0.04), (4.0, 2.0, 0.5)],
    )
    def test_psi_mass_closed_form_with_shear(self, k, n, eps):
        # Psi_wbar = (a*f_zbar - b*f_z)/k = (s - k - i*n)/(2k) on the piece of
        # slope s = k -/+ sqrt(eps), so |Psi_wbar| = sqrt(eps + n^2)/(2k)
        got = psi_dbar_mass(PiecewiseLinearStretch(k, eps), LinearStretch(k, n), 16, 4)
        assert got == pytest.approx(math.sqrt(eps + n * n) / (2.0 * k), abs=1e-12)

    @given(
        k=st.floats(1.2, 4.0),
        n=st.floats(-2.0, 2.0),
        depth=st.floats(0.05, 3.0),
    )
    def test_psi_mass_is_the_scaled_alignment_mass(self, k, n, depth):
        # |a*f_zbar - b*f_z| = |a| * |f_zbar - mu*f_z| with mu = b/a: the
        # same integrand as audit_alignment's absdiff_mass, scaled by |a|/k
        eps = (k - 1.0) ** 2 * 10.0**-depth
        f, fstar = PiecewiseLinearStretch(k, eps), LinearStretch(k, n)
        got = psi_dbar_mass(f, fstar, 16, 4)
        aligned = audit_alignment(f, fstar, cartesian(1.0, 16, 4, (0.5,)))
        want = abs(fstar.fz) / k * aligned.absdiff_mass
        assert got == pytest.approx(want, rel=1e-12)

    def test_phi_mass_vanishes_for_reference(self):
        got = phi_dbar_mass(
            SpiralStretch(0.5, 2.0), SpiralStretch(0.5, 2.0), 128, 64
        )
        assert got <= 1e-12

    def test_phi_mass_scales_like_sqrt_eps(self):
        ratios = []
        for eps in (1e-4, 1e-3, 1e-2):
            m = phi_dbar_mass(
                PiecewiseRadialStretch(0.5, 2.0, eps),
                SpiralStretch(0.5, 2.0),
                256,
                128,
            )
            ratios.append(m / math.sqrt(eps))
        assert max(ratios) / min(ratios) < 2.0

    def test_phi_mass_rejects_winding_reference(self):
        with pytest.raises(UnsupportedVariantError):
            phi_dbar_mass(
                PiecewiseRadialStretch(0.5, 2.0, 0.01),
                SpiralStretch(0.5, 2.0, winding=1),
                64,
                32,
            )


class TestPompeiuArea:
    def test_zero_field_gives_zero(self):
        g = polar(0.25, 32, 32)
        field = dbar_field(IdentityMap(), g)
        assert pompeiu_area(field, 0.6 + 0.1j) == 0.0
