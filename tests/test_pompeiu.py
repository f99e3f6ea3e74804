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

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cartesian, polar, traced_peak
from qclab.errors import AccuracyError, InputError, UnsupportedVariantError
from qclab.geometry import AnnulusDomain, build_polar_grid, image_annulus
from qclab.maps import (
    Composition,
    ConjugationMap,
    IdentityMap,
    InverseSpiralStretch,
    LinearStretch,
    MapFamily,
    PiecewiseLinearStretch,
    PiecewiseRadialStretch,
    Rotation,
    SpiralStretch,
)
from qclab.stability import LadderConfig, audit_alignment, run_ladder
from qclab.pompeiu import (
    DbarField,
    ReconstructionResult,
    annulus_trace,
    cauchy_boundary,
    dbar_field,
    kernel_mass,
    offset_targets,
    phi_dbar_mass,
    pompeiu_area,
    psi_dbar_mass,
    reconstruct,
    _far_sums,
    _near_zones,
)
from qclab._kernels import pompeiu_sum
from test_kernels import _pompeiu_reference

DOM = AnnulusDomain(0.25)
TARGETS = np.array([0.7 + 0.0j, -0.3 + 0.45j, 0.31 - 0.52j])


def _phi_eps(k, eps=1e-3):
    return Composition(PiecewiseRadialStretch(0.5, k, eps), InverseSpiralStretch(0.5, k, 0.0))


class TestBoundaryTransform:
    def test_identity_values_reproduce_targets(self):
        trace = annulus_trace(IdentityMap(), DOM, 1024)
        out = cauchy_boundary(trace, TARGETS)
        assert np.allclose(out, TARGETS, atol=1e-10)

    def test_constant_values_give_winding_sum(self):
        trace = annulus_trace(IdentityMap(), DOM, 512)
        const = dataclasses.replace(
            trace,
            components=tuple(
                dataclasses.replace(c, values=np.ones_like(c.values))
                for c in trace.components
            ),
        )
        out = cauchy_boundary(const, TARGETS)
        assert np.allclose(out, 1.0, atol=1e-12)

    def test_outer_only_conjugate_trace_cancels(self):
        trace = annulus_trace(ConjugationMap(), DOM, 1024)
        outer = dataclasses.replace(trace, components=(trace.components[0],))
        out = cauchy_boundary(outer, TARGETS)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_inner_only_conjugate_trace_is_residue_at_zero(self):
        trace = annulus_trace(ConjugationMap(), DOM, 1024)
        inner = dataclasses.replace(trace, components=(trace.components[1],))
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
        assert f"target {complex(expected[0])!r} " in str(err.value)
        assert "np." not in str(err.value)
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
    mask[_near_zones(grid, np.array([w]))[0][0]] = 1
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


def _brute_zones(grid, pts):
    """Each target's patch and near run by their definitions, cell by cell."""
    n, m = grid.n_primary, grid.n_secondary
    c = 2.0 ** (-53.0 / m)
    dead, rings = [], []
    for w in pts.tolist():
        radius = abs(w)
        u = float(np.interp(radius, grid.primary_edges, np.arange(n + 1.0)))
        s = (math.atan2(w.imag, w.real) % (2.0 * math.pi)) / grid.secondary_step
        u, s = (float(round(x)) if abs(x - round(x)) <= 1e-9 else x for x in (u, s))
        rows = [i for i in range(n) if abs(i + 0.5 - u) < 1.5]
        cols = [j for j in range(m) if abs((j + 0.5 - s + m / 2.0) % m - m / 2.0) < 1.5]
        dead.append([i * m + j for i in rows for j in cols])
        lo = int(np.searchsorted(grid.primary_mid, c * radius, side="right"))
        hi = int(np.searchsorted(grid.primary_mid, radius / c, side="left"))
        rings.append([min(lo, rows[0]), max(hi, rows[-1] + 1)])
    return dead, rings


class TestNearZones:
    # (inner radius, rings, angular cells, breaks): M = 1, 2 and 3, where the
    # patch takes every angular cell or wraps onto itself, and larger grids,
    # one with a break spliced in (uneven ring widths)
    GRIDS = {
        "M1": (0.25, 16, 1, ()),
        "M2": (0.25, 16, 2, ()),
        "M3": (0.25, 16, 3, ()),
        "64x64": (0.25, 64, 64, ()),
        "37x129-break": (0.25, 37, 129, (0.5,)),
        "16x4096": (0.25, 16, 4096, ()),
    }

    @staticmethod
    def _targets(g):
        e, n, step = g.primary_edges, g.n_primary, g.secondary_step
        rng = np.random.default_rng(3)
        i = np.r_[0, 1, n - 1, n, rng.integers(0, n + 1, 12)]
        j = np.r_[0, g.n_secondary - 1, rng.integers(0, g.n_secondary, 14)]
        return np.concatenate([
            g.point(e[i], j * step),                      # corners
            g.point(g.primary_mid[i % n], j * step),      # edge midpoints
            g.point(e[i], (j + 0.5) * step),
            g.point(g.primary_mid[i % n], (j + 0.5) * step),  # centres
            e + 0j,                                       # angle 0
            e * np.exp(-1e-17j),                          # angle 0 from below
            rng.uniform(0.2, 1.1, 16) * np.exp(2j * math.pi * rng.uniform(size=16)),
            [0.1 + 0j, 1.5j],                             # clamped to the first, last ring
        ])

    @pytest.mark.parametrize("case", sorted(GRIDS))
    def test_patch_and_run_follow_their_definitions(self, case):
        inner, n, m, breaks = self.GRIDS[case]
        g = polar(inner, n, m, breaks=breaks)
        pts = self._targets(g)
        dead, rings = _near_zones(g, pts)
        want_dead, want_rings = _brute_zones(g, pts)
        assert [d.tolist() for d in dead] == want_dead
        assert rings.tolist() == want_rings

    @pytest.mark.parametrize("case", sorted(GRIDS))
    def test_each_patch_lies_in_its_run(self, case):
        # pompeiu_area masks a patch cell at its place in the run, d - lo: a
        # cell outside the run would wrap round, since numpy reads negative
        # indices from the end.  The targets include the first and last ring
        # edges, and M = 1, 2 and 3, where the patch wraps onto itself.
        inner, n, m, breaks = self.GRIDS[case]
        g = polar(inner, n, m, breaks=breaks)
        dead, rings = _near_zones(g, self._targets(g))
        for d, (lo, hi) in zip(dead, (rings * m).tolist()):
            assert d.size and lo <= d[0] and d[-1] < hi

    def test_no_targets_give_no_zones(self):
        dead, rings = _near_zones(polar(0.25, 16, 16), np.zeros(0, dtype=np.complex128))
        assert dead == [] and rings.shape == (0, 2)


class TestReconstruction:
    def test_one_target_entry_points_share_the_batched_path(self):
        g = polar(0.25, 32, 32)
        trace = annulus_trace(ConjugationMap(), DOM, 512)
        field = dbar_field(ConjugationMap(), g)
        pts = offset_targets(g, 4, seed=2)
        many = reconstruct(trace, field, pts)
        for w, r in zip(pts, many):
            one = reconstruct(trace, field, w)
            assert one == r
            area = pompeiu_area(field, w)
            assert r.value == complex(cauchy_boundary(trace, [w])[0]) - area

    def test_a_scalar_target_gives_one_value_and_a_sequence_a_list(self):
        g = polar(0.25, 32, 32)
        trace = annulus_trace(ConjugationMap(), DOM, 512)
        field = dbar_field(ConjugationMap(), g)
        w = complex(offset_targets(g, 1, seed=4)[0])

        def bits(z):
            return z.real.hex(), z.imag.hex()

        area, listed = pompeiu_area(field, w), pompeiu_area(field, [w])
        assert isinstance(area, complex) and isinstance(listed, list)
        assert [bits(a) for a in listed] == [bits(area)]
        one, listed = reconstruct(trace, field, w), reconstruct(trace, field, [w])
        assert isinstance(one, ReconstructionResult) and isinstance(listed, list)
        assert [(bits(r.value), r.residual.hex()) for r in listed] == [
            (bits(one.value), one.residual.hex())
        ]
        assert listed == [one]

    def test_identity_is_exact(self):
        g = polar(0.25, 128, 128)
        trace = annulus_trace(IdentityMap(), DOM, 1024)
        field = dbar_field(IdentityMap(), g)
        results = reconstruct(trace, field, offset_targets(g, 8, seed=1))
        assert max(r.residual for r in results) < 1e-10

    def test_conjugation_residual_scale(self):
        g = polar(0.25, 128, 128)
        trace = annulus_trace(ConjugationMap(), DOM, 1024)
        field = dbar_field(ConjugationMap(), g)
        results = reconstruct(trace, field, offset_targets(g, 16, seed=3))
        med = float(np.median([r.residual for r in results]))
        assert med < 1e-4

    def test_corner_target_residual_is_second_order(self):
        # ``qclab reconstruct --field conj`` at its defaults but the grid: the
        # patch around a corner target is symmetric, so the hole error falls
        # like h**2 (measured ratios 3.96 and 4.00), not like h*log(1/h).
        trace = annulus_trace(ConjugationMap(), DOM, 1024)
        medians = []
        for n in (64, 128, 256):
            g = polar(0.25, n, n)
            results = reconstruct(
                trace, dbar_field(ConjugationMap(), g), offset_targets(g, 32, seed=0)
            )
            medians.append(float(np.median([r.residual for r in results])))
        for coarse, fine in zip(medians, medians[1:]):
            assert 3.5 <= coarse / fine <= 4.5

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
        results = reconstruct(trace, field, offset_targets(g, 32, seed=5))
        med = float(np.median([r.residual for r in results]))
        assert med < 1e-2  # comfortably: measured ~3e-6

    @settings(max_examples=30)
    @given(
        st.sampled_from(["identity", "conj", "phi-eps"]),
        st.sampled_from([64, 100]),
        st.integers(1, 63),
        st.integers(0, 2**16),
    )
    def test_rotating_the_targets_by_whole_cells_rotates_the_values(
        self, name, n_a, shift, seed
    ):
        # A turn by alpha = 2*pi*shift/M maps the grid's cells onto cells and
        # f(exp(i*alpha)*w) = exp(+-i*alpha)*f(w): + for the equivariant
        # fields, - for conj.  Over 120 turns on these grids the values
        # agreed within 6.7e-16, with the field per ring or per cell alike.
        family, sign = {
            "identity": (IdentityMap(), 1.0),
            "conj": (ConjugationMap(), -1.0),
            "phi-eps": (_phi_eps(2.0), 1.0),
        }[name]
        grid = polar(0.25, 64, n_a, breaks=family.break_radii())
        trace = annulus_trace(family, DOM, 1024)
        field = dbar_field(family, grid)
        pts = offset_targets(grid, 4, seed)
        alpha = 2.0 * math.pi * shift / n_a
        turned = reconstruct(trace, field, pts * np.exp(1j * alpha))
        for r, t in zip(reconstruct(trace, field, pts), turned):
            assert abs(t.value - r.value * complex(np.exp(sign * 1j * alpha))) <= 4e-15


class TestDbarField:
    # The fields of ``qclab reconstruct`` at its defaults (q = 0.5, k = 2).
    FIELDS = {
        "identity": IdentityMap(),
        "conj": ConjugationMap(),
        "phi-eps": _phi_eps(2.0),
    }

    @staticmethod
    def _default_grid(family):
        # The CLI's 512x512 grid; phi-eps splices its break circle in, so it
        # has 513 rings and 262,656 cells.
        grid = build_polar_grid(DOM, 512, 512, breaks=family.break_radii())
        grid.centers  # the input, built before the measurement
        return grid

    @pytest.mark.parametrize("name", ["conj"])
    def test_default_grid_is_evaluated_in_steps(self, name):
        # conj is not rotation-equivariant, so its cells end in a ragged step
        family = self.FIELDS[name]
        grid = self._default_grid(family)
        field, peak = traced_peak(dbar_field, family, grid)
        assert peak <= field.values.nbytes + 8 * 2**20
        assert field.values.tobytes() == family.jet_many(grid.centers)[2].tobytes()

    @pytest.mark.parametrize("name", ["identity", "phi-eps"])
    def test_equivariant_default_grid_is_sampled_per_ring(self, name):
        # f_zbar(rho*exp(i*phi)) = exp(2i*phi) * f_zbar(rho): one value per
        # ring, turned to the cell angles.  Beside the field, the traced peak
        # was 293 KB, of which 263 KB is numpy's buffer for the broadcast
        # product (numpy 2.4).
        family = self.FIELDS[name]
        grid = self._default_grid(family)
        field, peak = traced_peak(dbar_field, family, grid)
        assert peak <= field.values.nbytes + 2**19
        ring = family.jet_many(grid.primary_mid + 0j)[2]
        angles = (np.arange(grid.n_secondary) + 0.5) * grid.secondary_step
        want = (ring[:, None] * np.exp(2j * angles)).ravel()
        assert field.values.tobytes() == want.tobytes()
        if name == "identity":
            assert np.all(field.values == 0)

    def test_ring_path_evaluates_the_map_once_per_ring(self, monkeypatch):
        family = self.FIELDS["phi-eps"]
        grid = build_polar_grid(DOM, 64, 48, breaks=family.break_radii())
        counts = []
        jet_many = MapFamily.jet_many

        def counted(self, z):
            counts.append(np.size(z))
            return jet_many(self, z)

        monkeypatch.setattr(MapFamily, "jet_many", counted)
        field = dbar_field(family, grid)
        assert counts == [grid.n_primary] == [65]
        assert field.values.shape == (grid.n_cells,)

    @settings(max_examples=60)
    @given(
        st.sampled_from(["spiral", "inverse", "piecewise", "rotation", "identity",
                         "twisted", "phi"]),
        st.floats(0.1, 0.9),
        st.floats(1.1, 4.0),
        st.floats(0.01, 0.99),
        st.floats(-math.pi, math.pi),
        st.integers(0, 2),
        st.integers(4, 40),
        st.integers(1, 40),
    )
    def test_ring_path_matches_the_cell_centres(
        self, kind, q, k, eps_frac, theta, winding, n_r, n_a
    ):
        # The paths differ in the radius they see: primary_mid against
        # |center|, which rounds in the last bit.  A phase c*log|w| turns
        # that into an error of |c| ulps, so the bound grows with the twist
        # |c| of the map's phase per unit of log|w|.  Over 2000 draws of this
        # space the gap was at most 5.6*(1 + |c|) * 2**-53 * (|f_z| + |f_zbar|).
        eps = eps_frac * min(0.1, (k - 1.0) ** 2)
        domain = AnnulusDomain(q)
        if kind == "spiral":
            family = SpiralStretch(q, k, theta, winding)
            twist = family.c
        elif kind == "inverse":
            family, domain = InverseSpiralStretch(q, k, theta), image_annulus(q, k)
            twist = family.c
        elif kind == "piecewise":
            family, twist = PiecewiseRadialStretch(q, k, eps), 0.0
        elif kind == "rotation":
            family, twist = Rotation(theta), 0.0
        elif kind == "identity":
            family, twist = IdentityMap(), 0.0
        elif kind == "twisted":
            outer = SpiralStretch(q**k, 1.0, theta, winding)
            family = Composition(outer, PiecewiseRadialStretch(q, k, eps))
            twist = outer.c * (k + math.sqrt(eps))
        else:
            inverse = InverseSpiralStretch(q, k, theta)
            family = Composition(PiecewiseRadialStretch(q, k, eps), inverse)
            domain, twist = image_annulus(q, k), inverse.c
        assert family.rotation_equivariant
        grid = build_polar_grid(domain, n_r, n_a, breaks=family.break_radii())
        got = dbar_field(family, grid).values
        _, fz, fzb = family.jet_many(grid.centers)
        bound = 16.0 * (1.0 + abs(twist)) * 2.0**-53 * (np.abs(fz) + np.abs(fzb))
        assert np.all(np.abs(got - fzb) <= bound)

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2])
    def test_phi_eps_field_matches_its_closed_form(self, eps):
        # Phi(w) = amp * w * |w|**t with t = +-sqrt(eps)/k outside/inside the
        # pulled-back break, amp = 1 outside and q**sqrt(eps) inside, so
        # Phi_wbar = (t/2) * amp * |w|**t * w / conj(w).  On the CLI's grid
        # both paths were within 2.7 * 2**-53 * (|f_z| + |f_zbar|) of it
        # (the ring path within 1.8).
        q, k = 0.5, 2.0
        family = _phi_eps(k, eps)
        grid = self._default_grid(family)
        w = grid.centers
        outer = np.repeat(grid.primary_mid > family.break_radii()[0], grid.n_secondary)
        t = np.where(outer, 1.0, -1.0) * math.sqrt(eps) / k
        amp = np.where(outer, 1.0, q ** math.sqrt(eps))
        closed = t / 2 * amp * np.abs(w) ** t * w / np.conj(w)
        _, fz, cells = family.jet_many(w)
        bound = 8.0 * 2.0**-53 * (np.abs(fz) + np.abs(cells))
        assert np.all(np.abs(dbar_field(family, grid).values - closed) <= bound)
        assert np.all(np.abs(cells - closed) <= bound)

    def test_a_grid_that_splits_the_break_is_refused(self):
        # unrefused, phi-eps:0.01 reconstructs from such a 256x256 grid with
        # a residual about 15 times that on the grid that honours its break
        family = Composition(
            PiecewiseRadialStretch(0.5, 2.0, 1e-2), InverseSpiralStretch(0.5, 2.0, 0.0)
        )
        grid = build_polar_grid(image_annulus(0.5, 2.0), 64, 64)
        with pytest.raises(InputError, match="does not honor the mandatory break at 0.5"):
            dbar_field(family, grid)


class TestLadderScratch:
    # ``run_ladder``'s traced peak at its defaults (512x512, five rungs):
    # 516,411-519,848 bytes at theta 0 and 705,073-705,537 at theta 0.7,
    # three calls in each of two processes (numpy 2.4, the first call of a
    # process the highest).  The bound allows 15% above the highest.
    @pytest.mark.parametrize("theta, measured", [(0.0, 519_848), (0.7, 705_537)])
    def test_peak_is_bounded(self, theta, measured):
        _, peak = traced_peak(run_ladder, LadderConfig(theta=theta))
        assert peak <= 1.15 * measured


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

    def test_center_coincidence_names_the_target_as_a_plain_number(self):
        g = polar(0.25, 16, 16)
        xi = complex(g.centers[40])
        with pytest.raises(InputError) as err:
            kernel_mass(g, xi)
        assert str(err.value) == f"kernel target {xi!r} coincides with a cell center"


@pytest.mark.parametrize("bad", [math.nan, complex(0.5, math.inf)])
@pytest.mark.parametrize(
    "entry",
    [
        lambda w: kernel_mass(polar(0.25, 16, 16), w),
        lambda w: cauchy_boundary(annulus_trace(IdentityMap(), DOM, 64), [0.5, w]),
        lambda w: pompeiu_area(dbar_field(ConjugationMap(), polar(0.25, 16, 16)), w),
        lambda w: reconstruct(
            annulus_trace(ConjugationMap(), DOM, 64),
            dbar_field(ConjugationMap(), polar(0.25, 16, 16)),
            [0.5, w],
        ),
    ],
    ids=["kernel_mass", "cauchy_boundary", "pompeiu_area", "reconstruct"],
)
def test_nonfinite_target_is_refused_by_name(entry, bad):
    message = re.escape(f"target {complex(bad)!r} is not finite")
    with pytest.raises(InputError, match=message):
        entry(bad)


@pytest.mark.parametrize("outside", [0.1, 1.5])
def test_target_outside_the_annulus_is_refused_before_any_sum(outside, monkeypatch):
    # unrefused, these read residuals 0.099 and 1.50 on this grid: the
    # representation holds inside the annulus only
    import qclab.pompeiu as pompeiu

    trace = annulus_trace(ConjugationMap(), DOM, 1024)
    field = dbar_field(ConjugationMap(), polar(0.25, 64, 64))

    def no_sum(*args):
        raise AssertionError("summed before the refusal")

    monkeypatch.setattr(pompeiu, "cauchy_boundary", no_sum)
    monkeypatch.setattr(pompeiu, "pompeiu_area", no_sum)
    message = re.escape(f"target {complex(outside)!r} lies outside the annulus |w| in [0.25, 1]")
    with pytest.raises(InputError, match=message):
        reconstruct(trace, field, [0.5, outside])
    # the non-finite check comes first
    with pytest.raises(InputError, match="is not finite"):
        reconstruct(trace, field, [outside, math.nan])


@pytest.mark.parametrize(
    "grid", [polar(0.5, 64, 64), cartesian(1.0, 64, 64)], ids=["annulus-0.5", "rectangle"]
)
def test_field_on_another_domain_is_refused_before_any_sum(grid, monkeypatch):
    # unrefused, these read residuals 0.268 and 0.671 at 0.7+0.1j, against
    # 0.0139 with the field on the trace's annulus
    import qclab.pompeiu as pompeiu

    trace = annulus_trace(ConjugationMap(), DOM, 512)
    field = dbar_field(ConjugationMap(), grid)

    def no_sum(*args):
        raise AssertionError("summed before the refusal")

    monkeypatch.setattr(pompeiu, "cauchy_boundary", no_sum)
    monkeypatch.setattr(pompeiu, "pompeiu_area", no_sum)
    message = re.escape(
        f"the field is sampled on {grid.domain!r}, but the trace bounds {DOM!r}"
    )
    with pytest.raises(InputError, match=message):
        reconstruct(trace, field, 0.7 + 0.1j)


@pytest.mark.parametrize(
    "traced, sampled, names",
    [
        (ConjugationMap(), IdentityMap(), ("identity", "conjugation")),
        # one label, two maps: their reprs tell them apart
        (_phi_eps(2.0), _phi_eps(2.0, 2e-3), (repr(_phi_eps(2.0, 2e-3)), repr(_phi_eps(2.0)))),
    ],
    ids=["identity-conj", "phi-eps"],
)
def test_field_of_another_map_is_refused_before_any_sum(traced, sampled, names, monkeypatch):
    # unrefused, the identity field with a conj trace reads residual 0.623 at
    # 0.7+0.1j, against 0.0139 with the conj field
    import qclab.pompeiu as pompeiu

    trace = annulus_trace(traced, DOM, 512)
    field = dbar_field(sampled, polar(0.25, 64, 64, breaks=sampled.break_radii()))

    def no_sum(*args):
        raise AssertionError("summed before the refusal")

    monkeypatch.setattr(pompeiu, "cauchy_boundary", no_sum)
    monkeypatch.setattr(pompeiu, "pompeiu_area", no_sum)
    message = re.escape(f"the field is sampled from {names[0]}, but the trace from {names[1]}")
    with pytest.raises(InputError, match=message):
        reconstruct(trace, field, 0.7 + 0.1j)


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

    @pytest.mark.parametrize(
        "grid",
        [polar(0.25, 64, 64), polar(0.25, 37, 129, breaks=(0.5,)), polar(0.0625, 16, 4096)],
        ids=["64x64", "37x129-break", "16x4096"],
    )
    def test_targets_are_the_picked_corners_of_all_of_them(self, grid):
        # offset_targets builds only the corners it picks; these are the bits
        # of picking from every eligible corner, built at once
        edges = grid.primary_edges
        pad = 0.1 * (edges[-1] - edges[0])
        inner = edges[(edges >= edges[0] + pad) & (edges <= edges[-1] - pad)]
        sec = np.arange(grid.n_secondary) * grid.secondary_step
        corners = grid.point(inner[:, None], sec[None, :]).ravel()
        for seed in range(4):
            for points in (1, 12, 32):
                pick = np.random.default_rng(seed).choice(corners.size, points, replace=False)
                want = corners[np.sort(pick)]
                assert offset_targets(grid, points, seed).tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("k", [1.5, 2.0, 3.0, 5.0, 10.0])
    @pytest.mark.parametrize("eps", [1e-8, 1e-6, 1e-4, 1e-2])
    def test_psi_mass_rounding_is_bounded(self, k, eps):
        # a*f_zbar - b*f_z cancels terms of size k^2/4 down to sqrt(eps)/2, so
        # the relative error may reach (k^2/sqrt(eps)) ulps; the worst ratio to
        # that bound over this table is 0.48
        assert eps < (k - 1.0) ** 2
        got = psi_dbar_mass(PiecewiseLinearStretch(k, eps), LinearStretch(k))
        want = math.sqrt(eps) / (2.0 * k)
        assert abs(got - want) <= want * k**2 / math.sqrt(eps) * 2.0**-53

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

    def test_a_rectangle_grid_is_refused(self):
        field = dbar_field(ConjugationMap(), cartesian(1.0, 64, 64))
        message = "annulus grids only, not on RectangleDomain(width=1.0, height=1.0)"
        with pytest.raises(InputError, match=re.escape(message)):
            pompeiu_area(field, [0.3 + 0.4j, 0.5 + 0.5j])

    @pytest.mark.parametrize("shape", [(40, 64), (40, 100)], ids=["aligned", "unaligned"])
    def test_near_run_is_summed_as_a_row_of_its_own(self, shape):
        # each target's value is the reference sum of its near run's masked
        # terms plus its far sum, over pi.  With 100 angular cells most runs
        # start mid-block; on both grids, placing a run's block totals in the
        # tree of the whole row would move the bits of most targets
        g = polar(0.25, *shape)
        re_, im_ = np.random.default_rng(2).normal(size=(2, g.n_cells))
        field = DbarField(ConjugationMap(), g, re_ + 1j * im_)
        pts = offset_targets(g, 12, seed=4)
        got = pompeiu_area(field, pts)
        dead, rings = _near_zones(g, pts)
        far = _far_sums(field, pts, rings)
        cells = (g.centers.real, g.centers.imag, g.weights, re_, im_)
        for t, (w, (lo, hi)) in enumerate(zip(pts, rings * g.n_secondary)):
            run = [x[lo:hi] for x in cells]
            re, im = _pompeiu_reference(*run, w.real, w.imag, dead[t] - lo)
            want = complex(re + far[t].real, im + far[t].imag) / math.pi
            assert (got[t].real.hex(), got[t].imag.hex()) == (want.real.hex(), want.imag.hex())
        assert np.all(rings[:, 1] - rings[:, 0] < g.n_primary)  # the far rings are in use


def _direct_area(field, pts):
    """The area at each target with every cell but its patch summed term by term."""
    g = field.grid
    v = field.values
    out = []
    for w, dead in zip(pts, _near_zones(g, pts)[0]):
        mask = np.zeros(g.n_cells, dtype=np.uint8)
        mask[dead] = 1
        re, im = pompeiu_sum(
            g.centers.real, g.centers.imag, g.weights, v.real, v.imag, w.real, w.imag, mask
        )
        out.append(complex(re, im))
    return np.array(out)


class TestFarRings:
    # (family, inner radius, grid): the CLI's fields at 128^2 and 512^2, a
    # thin inner ring (q = 0.5, k = 4), 1024 angular cells, whose plain
    # powers rho**(-n-1) overflow, and 16x4096, where the rings of each
    # target's patch lie outside the ratio band and must be added to it
    CASES = {
        "conj-128": (ConjugationMap(), 0.25, 128, 128),
        "phi-eps-128": (_phi_eps(2.0), 0.25, 128, 128),
        "conj-512": (ConjugationMap(), 0.25, 512, 512),
        "phi-eps-512": (_phi_eps(2.0), 0.25, 512, 512),
        "phi-eps-k4-512": (_phi_eps(4.0), 0.0625, 512, 512),
        "conj-1024-angular": (ConjugationMap(), 0.25, 64, 1024),
        "conj-16x4096": (ConjugationMap(), 0.25, 16, 4096),
    }

    @pytest.mark.parametrize("noise", [False, True], ids=["field", "noise"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_series_match_the_direct_sum(self, case, noise):
        # measured at most 2**-51.1 of the scale, phi-eps at 512^2.  The
        # fields hold angular modes 0 and 2 only, so seeded noise on the
        # same grid, which holds every mode, checks the others
        family, inner, n_radial, n_angular = self.CASES[case]
        g = polar(inner, n_radial, n_angular, breaks=family.break_radii())
        field = dbar_field(family, g)
        if noise:
            re_, im_ = np.random.default_rng(0).normal(size=(2, g.n_cells))
            field = DbarField(family, g, re_ + 1j * im_)
        pts = offset_targets(g, 12, seed=7)
        got = np.asarray(pompeiu_area(field, pts)) * math.pi
        want = _direct_area(field, pts)
        a = np.abs(field.values * g.weights)
        dead, rings = _near_zones(g, pts)
        for t, w in enumerate(pts):
            live = np.ones(g.n_cells, dtype=bool)
            live[dead[t]] = False
            scale = np.sum(a[live] / np.abs(g.centers[live] - w))
            assert abs(got[t] - want[t]) <= 2.0**-48 * scale
        # the far rings are in use: most pairs are summed by series
        spans = np.diff(rings, axis=1)
        assert spans.sum() < 0.5 * pts.size * n_radial

    def test_each_target_has_its_bits_in_any_batch(self):
        family = _phi_eps(2.0)
        g = polar(0.25, 128, 128, breaks=family.break_radii())
        field = dbar_field(family, g)
        trace = annulus_trace(family, DOM, 1024)
        pts = offset_targets(g, 12, seed=3)

        def bits(batch):
            area = pompeiu_area(field, batch)
            rec = reconstruct(trace, field, batch)
            return [(a.real.hex(), a.imag.hex(), r.value.real.hex(), r.value.imag.hex())
                    for a, r in zip(area, rec)]

        whole = bits(pts)
        assert [bits([w])[0] for w in pts] == whole
        assert bits(pts[::-1])[::-1] == whole
        assert bits(pts[:6]) + bits(pts[6:]) == whole

    @pytest.mark.parametrize("shape", [(512, 512), (64, 4096)])
    def test_one_ring_transforms_as_its_row_of_the_field(self, shape):
        rng = np.random.default_rng(1)
        field = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        whole = np.fft.fft(field, axis=1)
        in_place = field.copy()
        np.fft.fft(in_place, axis=1, out=in_place)
        assert in_place.tobytes() == whole.tobytes()
        for i in (0, 1, shape[0] // 2, shape[0] - 1):
            assert np.fft.fft(field[i]).tobytes() == whole[i].tobytes()
