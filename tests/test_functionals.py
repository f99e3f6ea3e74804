"""Mean distortion, deficit, l1 distance, and the chart-transfer identity.

Frozen oracle values (computed before these tests were written, by
independent 1-D quadrature -- see the helper at the bottom which re-derives
them when run as a script):

  * l1 between the two-slope radial stretch (q=0.25, k=2, eps=0.01) and its
    reference: 2*pi * integral_q^1 (r^k - rho(r)) r dr over one million
    radial panels = 0.033886557607767716 (stable to 13 digits at 2x panels).
  * l1 between the two-slope strip stretch and its reference (k=2, eps=0.01):
    the difference is a tent of height sqrt(eps)/2 over [0,1], so the mass
    is sqrt(eps)/4 = 0.025 exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import cartesian, polar
from qclab.errors import (
    DegenerateExperimentError,
    InputError,
    NonFiniteSampleError,
    UnsupportedVariantError,
)
from qclab.functionals import (
    Density,
    _mean_distortions,
    conformal_transfer_check,
    deficit,
    distortion_many,
    l1_distance,
    mean_distortion,
)
from qclab.gauges import ConvexGauge
from qclab.geometry import AnnulusDomain, build_polar_grid, integrate
from qclab.maps import (
    Composition,
    ConjugationMap,
    InverseSpiralStretch,
    LinearStretch,
    PiecewiseLinearStretch,
    PiecewiseRadialStretch,
    Rotation,
    SpiralStretch,
)
from qclab.pompeiu import phi_dbar_mass

L1_RADIAL_ORACLE = 0.033886557607767716
FOUR_PI_LOG2 = 4.0 * math.pi * math.log(2.0)
SPIRAL = SpiralStretch(0.5, 2.0, 0.3, 1)
LINEAR = LinearStretch(3.0, 0.7)
LINEAR_K = (abs(LINEAR.fz) + abs(LINEAR.fzb)) / (abs(LINEAR.fz) - abs(LINEAR.fzb))


class TestPointwise:
    def test_reference_distortion_is_constant(self):
        g = polar(0.5, 16, 16)
        K, degenerate = distortion_many(SpiralStretch(0.5, 2.0), g.centers)
        assert np.allclose(K, 2.0, atol=1e-12)
        assert not degenerate.any()

    def test_conjugation_is_degenerate(self):
        # f_z = 0 everywhere: every sample is flagged and K is pinned to 1
        g = polar(0.5, 8, 8)
        K, degenerate = distortion_many(ConjugationMap(), g.centers)
        assert degenerate.all()
        assert (K == 1.0).all()

    def test_beltrami_of_reference(self):
        f = LinearStretch(2.0)
        assert f.mu == pytest.approx(1.0 / 3.0)
        # psi_dbar_mass divides by k as the Jacobian |f_z|^2 - |f_zbar|^2
        for n in (0.0, 0.7):
            g = LinearStretch(2.0, n)
            assert abs(g.fz) ** 2 - abs(g.fzb) ** 2 == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize(
        "family, z, want_K, want_degenerate",
        [
            (SPIRAL, 0.6 + 0.2j, SPIRAL.distortion, False),
            (ConjugationMap(), 0.5 + 0.2j, 1.0, True),
            (LINEAR, 0.1 + 0.4j, LINEAR_K, False),
            (SpiralStretch(0.5, 1e308), 0.75, math.nan, False),  # f_z and f_zbar underflow to 0
            (LinearStretch(1e17), 0.1 + 0.4j, math.nan, False),  # |f_z| - |f_zbar| rounds to 0
        ],
        ids=["spiral", "conjugation", "linear", "underflow", "ill-conditioned"],
    )
    def test_distortion_at_one_point(self, family, z, want_K, want_degenerate):
        K, degenerate = distortion_many(family, np.array([z]))
        assert K[0] == pytest.approx(want_K, rel=1e-12, nan_ok=True)
        assert bool(degenerate[0]) is want_degenerate


class TestConditioningGuard:
    PTS = np.array([0.1 + 0.4j, 0.7 + 0.2j])

    @pytest.mark.parametrize("k", [1e16, 1e17])
    def test_cancelled_difference_is_undefined_not_reversed(self, k):
        K, degenerate = distortion_many(LinearStretch(k), self.PTS)
        assert np.isnan(K).all()
        assert not degenerate.any()

    def test_large_but_resolved_distortion_is_exact(self):
        K, degenerate = distortion_many(LinearStretch(1e8), self.PTS)
        assert K.tolist() == [1e8, 1e8]
        assert not degenerate.any()

    def test_guard_sits_at_two_to_the_43(self):
        # |f_z| - |f_zbar| = 1 exactly for these k; K = k - 1 + 1 = k
        below, above = 2.0**42, 2.0**44
        assert distortion_many(LinearStretch(below), self.PTS)[0].tolist() == [below] * 2
        assert np.isnan(distortion_many(LinearStretch(above), self.PTS)[0]).all()

    def test_conjugation_stays_degenerate(self):
        K, degenerate = distortion_many(ConjugationMap(), self.PTS)
        assert K.tolist() == [1.0, 1.0]
        assert degenerate.all()


class TestMeanDistortion:
    def test_reference_value_inverse_square(self):
        g = polar(0.5, 256, 256)
        res = mean_distortion(
            SpiralStretch(0.5, 2.0),
            ConvexGauge.linear(),
            g,
            density=Density.INVERSE_SQUARE,
        )
        assert res.value == pytest.approx(FOUR_PI_LOG2, rel=1e-6)
        assert res.degenerate_cells == 0

    def test_square_gauge_value(self):
        g = polar(0.5, 256, 256, breaks=(math.sqrt(0.5),))
        res = mean_distortion(
            PiecewiseRadialStretch(0.5, 2.0, 0.01),
            ConvexGauge.square(),
            g,
            density=Density.INVERSE_SQUARE,
        )
        want = 2.0 * math.pi * math.log(2.0) * (4.0 + 0.01)
        assert res.value == pytest.approx(want, rel=1e-6)

    def test_richardson_ratio_is_quadratic(self):
        errs = []
        for n in (64, 128, 256):
            g = polar(0.5, n, n)
            res = mean_distortion(
                SpiralStretch(0.5, 2.0),
                ConvexGauge.linear(),
                g,
                density=Density.INVERSE_SQUARE,
            )
            errs.append(abs(res.value - FOUR_PI_LOG2))
        assert 3.5 <= errs[0] / errs[1] <= 4.5
        assert 3.5 <= errs[1] / errs[2] <= 4.5

    def test_inverse_square_requires_polar(self):
        g = cartesian(1.0, 16, 16)
        with pytest.raises(InputError):
            mean_distortion(
                LinearStretch(2.0),
                ConvexGauge.linear(),
                g,
                density=Density.INVERSE_SQUARE,
            )

    def test_density_must_be_a_member(self):
        # the token "invsq" is not Density.INVERSE_SQUARE: it used to be
        # integrated as the uniform density (4.712 instead of 8.710)
        g = polar(0.5, 32, 32)
        with pytest.raises(InputError, match="Density.parse"):
            mean_distortion(SpiralStretch(0.5, 2.0), ConvexGauge.linear(), g, "invsq")
        res = mean_distortion(
            SpiralStretch(0.5, 2.0), ConvexGauge.linear(), g, Density.parse("invsq")
        )
        assert res.value == pytest.approx(FOUR_PI_LOG2, rel=1e-3)

    def test_grid_must_honor_breaks(self):
        g = polar(0.5, 64, 64)  # no break at sqrt(q)
        with pytest.raises(InputError, match="mandatory break"):
            mean_distortion(
                PiecewiseRadialStretch(0.5, 2.0, 0.01),
                ConvexGauge.linear(),
                g,
            )

    def test_density_parse(self):
        assert Density.parse("uniform") is Density.UNIFORM
        assert Density.parse("invsq") is Density.INVERSE_SQUARE
        with pytest.raises(InputError):
            Density.parse("gaussian")

    def test_degenerate_fraction_warning(self):
        g = polar(0.5, 8, 8)
        res = mean_distortion(ConjugationMap(), ConvexGauge.linear(), g)
        assert res.degenerate_cells == g.n_cells
        assert res.warning is not None

    def test_underflow_is_not_orientation_reversal(self):
        g = polar(0.5, 8, 8)
        K, degenerate = distortion_many(SpiralStretch(0.5, 1e308), g.centers)
        assert np.isnan(K).all()
        assert not degenerate.any()
        with pytest.raises(DegenerateExperimentError, match="64 of 64 cells"):
            mean_distortion(SpiralStretch(0.5, 1e308), ConvexGauge.square(), g)

    @settings(max_examples=30)
    @given(
        st.booleans(),
        st.floats(0.05, 0.95),
        st.floats(1.1, 6.0),
        st.floats(-math.pi, math.pi),
        st.floats(0.01, 0.99),
        st.floats(-math.pi, math.pi),
        st.sampled_from(["linear", "square"]),
        st.sampled_from([Density.UNIFORM, Density.INVERSE_SQUARE]),
    )
    def test_pre_rotation_leaves_mean_distortion_unchanged(
        self, spiral, q, k, theta, eps_frac, beta, gauge, density
    ):
        if spiral:
            family = SpiralStretch(q, k, theta)
        else:
            family = PiecewiseRadialStretch(q, k, eps_frac * (k - 1.0) ** 2)
        rotated = Composition(family, Rotation(beta))
        g = polar(q, 32, 16, breaks=rotated.break_radii())
        gauge = ConvexGauge.parse(gauge)
        want = mean_distortion(family, gauge, g, density).value
        got = mean_distortion(rotated, gauge, g, density).value
        assert got == pytest.approx(want, rel=1e-12)


class TestDeficit:
    def test_self_deficit_vanishes(self):
        g = polar(0.5, 128, 128)
        ref = SpiralStretch(0.5, 2.0)
        d = deficit(ref, ref, ConvexGauge.square(), g)
        assert abs(d.value) < 1e-10
        assert not d.below_tolerance

    @settings(max_examples=25)
    @given(
        st.floats(0.05, 0.95),
        st.floats(1.0, 6.0),
        st.floats(-math.pi, math.pi),
    )
    def test_self_deficit_is_exactly_zero(self, q, k, theta):
        ref = SpiralStretch(q, k, theta)
        grid = polar(q, 16, 16)
        if _under_resolves_inverse_square(grid):  # q below 1/17
            with pytest.raises(InputError, match="density is under-resolved"):
                deficit(ref, ref, ConvexGauge.square(), grid)
            return
        d = deficit(ref, ref, ConvexGauge.square(), grid)
        assert d.value == 0.0

    def test_quadratic_regime_value(self):
        g = polar(0.5, 256, 256, breaks=(math.sqrt(0.5),))
        d = deficit(
            PiecewiseRadialStretch(0.5, 2.0, 0.01),
            SpiralStretch(0.5, 2.0),
            ConvexGauge.square(),
            g,
        )
        assert d.value == pytest.approx(0.0025, abs=1e-6)

    def test_equality_regime_linear_gauge(self):
        g = polar(0.5, 256, 256, breaks=(math.sqrt(0.5),))
        d = deficit(
            PiecewiseRadialStretch(0.5, 2.0, 0.001),
            SpiralStretch(0.5, 2.0),
            ConvexGauge.linear(),
            g,
        )
        assert abs(d.value) < 1e-8

    def test_reference_must_be_plain_spiral(self):
        g = polar(0.5, 16, 16)
        cand = SpiralStretch(0.5, 2.0)
        with pytest.raises(InputError):
            deficit(cand, SpiralStretch(0.5, 2.0, winding=1), ConvexGauge.square(), g)


class TestL1Distance:
    def test_self_distance_zero(self):
        g = polar(0.5, 64, 64)
        ref = SpiralStretch(0.5, 2.0)
        assert l1_distance(ref, ref, g) == 0.0

    def test_radial_oracle(self):
        g = polar(0.25, 512, 256, breaks=(0.5,))
        val = l1_distance(
            PiecewiseRadialStretch(0.25, 2.0, 0.01),
            SpiralStretch(0.25, 2.0),
            g,
        )
        assert val == pytest.approx(L1_RADIAL_ORACLE, rel=1e-5)

    def test_strip_tent_oracle(self):
        # midpoint quadrature is exact for the piecewise-linear tent once the
        # break is on a cell edge, so this should hold to rounding
        g = cartesian(1.0, 64, 8, breaks=(0.5,))
        val = l1_distance(
            PiecewiseLinearStretch(2.0, 0.01), LinearStretch(2.0), g
        )
        assert val == pytest.approx(0.025, abs=1e-14)

    def test_a_grid_that_splits_the_break_is_refused(self):
        # unrefused, this grid read 0.0218521 where grid_for's reads 0.0218519
        f = PiecewiseRadialStretch(0.5, 2.0, 0.01)
        grid = build_polar_grid(AnnulusDomain(0.5), 63, 8)  # no edge at sqrt(q)
        with pytest.raises(InputError) as want:
            mean_distortion(f, ConvexGauge.square(), grid)
        with pytest.raises(InputError, match="does not honor the mandatory break") as err:
            l1_distance(f, SpiralStretch(0.5, 2.0), grid)
        assert str(err.value) == str(want.value)


def _under_resolves_inverse_square(grid):
    """Whether some radial cell is wider than its inner radius."""
    return bool(np.any(np.diff(grid.primary_edges) > grid.primary_edges[:-1]))


def _cell_mean(family, gauge, grid, density):
    """Per-cell oracle: evaluate at every cell center, weight, integrate."""
    K, degenerate = distortion_many(family, grid.centers)
    values = np.asarray(gauge.evaluate(K), dtype=np.float64)
    if density is Density.INVERSE_SQUARE:
        values = values / np.abs(grid.centers) ** 2
    return integrate(grid, values), int(np.count_nonzero(degenerate))


def _cell_l1(a, b, grid):
    return integrate(grid, np.abs(a.eval_many(grid.centers) - b.eval_many(grid.centers)))


def _cell_dbar_mass(g, gstar, n_radial, n_angular):
    phi = Composition(g, InverseSpiralStretch(gstar.q, gstar.k, gstar.theta))
    domain = AnnulusDomain(gstar.q**gstar.k)
    grid = build_polar_grid(domain, n_radial, n_angular, breaks=phi.break_radii())
    return integrate(grid, np.abs(phi.jet_many(grid.centers)[2]))


class TestRingPath:
    """Rotation-equivariant maps on polar grids are integrated once per ring.

    The ring path must agree with the per-cell oracle above to rounding: the
    angular midpoint sum of a rotation-invariant integrand is exact, so the
    two differ only in evaluation points (``r_mid`` vs ``|center|``, one ulp)
    and reduction order.
    """

    @settings(max_examples=60)
    @given(
        st.sampled_from(["spiral", "piecewise", "twisted"]),
        st.floats(0.1, 0.9),
        st.floats(1.1, 4.0),
        st.floats(0.01, 0.99),
        st.floats(-math.pi, math.pi),
        st.integers(0, 2),
        st.sampled_from(["linear", "square", "power:1.5", "power:3"]),
        st.sampled_from([Density.UNIFORM, Density.INVERSE_SQUARE]),
        st.integers(8, 40),
        st.integers(4, 24),
    )
    def test_ring_path_matches_per_cell_oracle(
        self, kind, q, k, eps_frac, theta, winding, gauge, density, n_r, n_a
    ):
        eps = eps_frac * min(0.1, (k - 1.0) ** 2)
        # The two paths round K differently by about u*K per cell, so every
        # bound below is drawn for K <= 50.  Over 1500 random draws of this
        # space the worst gaps were 4.1e-15 (mean distortion), 4.3e-15
        # (deficit), 1.8e-14 (L1) and 6.9e-15 (dbar mass).  Winding or
        # strongly twisted spirals on thin annuli reach K ~ 1e3, where the
        # paths sit ~u*K apart.
        if kind == "spiral":
            # near the reference, |a - b| cancels and no relative bound holds
            assume(winding > 0 or abs(theta) >= 0.05)
            family = SpiralStretch(q, k, theta, winding)
            assume(family.distortion <= 50.0)
        elif kind == "piecewise":
            family = PiecewiseRadialStretch(q, k, eps)
        else:
            twist = SpiralStretch(q**k, 1.0, theta, 0)
            assume(twist.distortion * (k + math.sqrt(eps)) <= 50.0)
            family = Composition(twist, PiecewiseRadialStretch(q, k, eps))
        reference = SpiralStretch(q, k)
        assert family.rotation_equivariant
        gauge = ConvexGauge.parse(gauge)
        grid = build_polar_grid(
            AnnulusDomain(q), n_r, n_a, breaks=family.break_radii()
        )

        # q = 0.1 at 8 rings: the first ring is wider than its inner radius,
        # and every 1/|w|^2 integral is refused
        refused = _under_resolves_inverse_square(grid)
        if refused and density is Density.INVERSE_SQUARE:
            with pytest.raises(InputError, match="density is under-resolved"):
                mean_distortion(family, gauge, grid, density)
        else:
            got = mean_distortion(family, gauge, grid, density)
            want, want_degenerate = _cell_mean(family, gauge, grid, density)
            assert got.value == pytest.approx(want, rel=1e-13)
            assert got.degenerate_cells == want_degenerate

        if refused:
            with pytest.raises(InputError, match="density is under-resolved"):
                deficit(family, reference, gauge, grid)
        else:
            ref = _cell_mean(reference, gauge, grid, Density.INVERSE_SQUARE)[0]
            cand = _cell_mean(family, gauge, grid, Density.INVERSE_SQUARE)[0]
            d = deficit(family, reference, gauge, grid).value
            want_d = (cand - ref) / ref
            # absolute for every ladder-sized deficit; winding spirals and steep
            # gauges reach deficits of 1e4 and more, where it is taken relative
            assert abs(d - want_d) <= 1e-14 * max(1.0, abs(want_d))

        assert l1_distance(family, reference, grid) == pytest.approx(
            _cell_l1(family, reference, grid), rel=1e-13
        )
        assert phi_dbar_mass(family, reference, n_r, n_a) == pytest.approx(
            _cell_dbar_mass(family, reference, n_r, n_a), rel=1e-13
        )

    def test_undefined_cells_are_counted_in_cells(self):
        g = polar(0.5, 8, 8)
        with pytest.raises(DegenerateExperimentError, match="64 of 64 cells"):
            mean_distortion(SpiralStretch(0.5, 1e308), ConvexGauge.square(), g)

    def test_nonfinite_integrand_names_the_first_cell_of_its_ring(self):
        # phi(K) = K**800 overflows on every ring; ring 0 starts at cell 0
        g = polar(0.5, 8, 4)
        with pytest.raises(NonFiniteSampleError) as err, np.errstate(over="ignore"):
            mean_distortion(SpiralStretch(0.5, 3.0), ConvexGauge.power(800.0), g)
        assert err.value.cell_index == 0
        assert err.value.center == complex(g.centers[0])

    @pytest.mark.parametrize("family, grid", [
        (SpiralStretch(0.5, 3.0), polar(0.5, 8, 4)),
        (LinearStretch(3.0), cartesian(1.0, 8, 4)),
    ], ids=["ring", "cell"])
    def test_overflowing_gauge_is_a_degenerate_experiment(self, family, grid):
        # K is defined, phi(K) = K**800 is not: exit 3, not a bad input
        with pytest.raises(DegenerateExperimentError, match="under gauge power:800: non-finite"):
            mean_distortion(family, ConvexGauge.power(800.0), grid)

    def test_non_equivariant_family_keeps_its_per_cell_bits(self):
        # float.hex values computed with the per-cell path before the ring
        # path existed; g o conj is not rotation-equivariant, so it stays there
        g = SpiralStretch(0.5, 2.0, 0.3)
        family = Composition(g, ConjugationMap())
        assert not family.rotation_equivariant
        grid = polar(0.5, 16, 8)
        res = mean_distortion(family, ConvexGauge.square(), grid, Density.INVERSE_SQUARE)
        assert res.value.hex() == "0x1.16ae95d9937ccp+2"
        assert res.degenerate_cells == 128
        assert l1_distance(family, g, grid).hex() == "0x1.ec5ec72417a07p+0"
        assert phi_dbar_mass(family, g, 16, 8).hex() == "0x1.81b7af5b547fbp+1"


class TestRungAxis:
    """A family with a rung axis: one evaluation, each rung checked alone."""

    def test_one_rung_functionals_refuse_a_stacked_family(self):
        stacked = PiecewiseRadialStretch(0.5, 2.0, (1e-3, 1e-2))
        reference = SpiralStretch(0.5, 2.0)
        grid = polar(0.5, 16, 4, breaks=stacked.break_radii())
        calls = (
            lambda: mean_distortion(stacked, ConvexGauge.square(), grid),
            lambda: deficit(stacked, reference, ConvexGauge.square(), grid),
        )
        for call in calls:
            with pytest.raises(InputError, match="one-rung family, got 2 rungs"):
                call()

    @pytest.mark.parametrize("eps", [(1e-3, 1e-2), (1e-4, 3e-3, 1e-2), (1e-3,)])
    def test_stacked_distances_and_masses_have_their_one_rung_bits(self, eps):
        # one value per rung, as integrate gives one integral per row; a
        # one-rung tuple keeps its rung axis
        stacked = PiecewiseRadialStretch(0.5, 2.0, eps)
        reference = SpiralStretch(0.5, 2.0)
        grid = polar(0.5, 16, 4, breaks=stacked.break_radii())
        l1 = l1_distance(stacked, reference, grid)
        mass = phi_dbar_mass(stacked, reference, 16, 4)
        assert isinstance(l1, np.ndarray) and l1.shape == (len(eps),)
        assert isinstance(mass, np.ndarray) and mass.shape == (len(eps),)
        for i, e in enumerate(eps):
            one = PiecewiseRadialStretch(0.5, 2.0, e)
            one_l1 = l1_distance(one, reference, grid)
            one_mass = phi_dbar_mass(one, reference, 16, 4)
            assert isinstance(one_l1, float) and isinstance(one_mass, float)
            assert l1[i].hex() == one_l1.hex()
            assert mass[i].hex() == one_mass.hex()

    def test_rings_past_one_step_keep_their_bits(self):
        # 9,001 rings reach _sampled's outputs in two steps, under the rung axis
        eps = (1e-3, 1e-2)
        gauge, density = ConvexGauge.square(), Density.INVERSE_SQUARE
        stacked = PiecewiseRadialStretch(0.5, 2.0, eps)
        reference = SpiralStretch(0.5, 2.0)
        grid = polar(0.5, 9000, 1, breaks=stacked.break_radii())
        l1 = l1_distance(stacked, reference, grid)
        (means,) = _mean_distortions((stacked,), gauge, (grid,), density)
        for i, e in enumerate(eps):
            one = PiecewiseRadialStretch(0.5, 2.0, e)
            assert l1[i].hex() == l1_distance(one, reference, grid).hex()
            assert means[i] == mean_distortion(one, gauge, grid, density)

    def test_families_on_several_grids_keep_their_one_grid_bits(self):
        # one evaluation per family over the rings of both grids, one
        # reduction per grid; each row equals its one-family, one-grid
        # mean_distortion as computed before the grids were joined
        plain, stacked = SpiralStretch(0.5, 2.0), PiecewiseRadialStretch(0.5, 2.0, (1e-3, 1e-2))
        grids = tuple(polar(0.5, n, m, breaks=stacked.break_radii()) for n, m in ((40, 8), (20, 4)))
        got = _mean_distortions((plain, stacked), ConvexGauge.power(3.0), grids, Density.INVERSE_SQUARE)
        assert [[r.value.hex() for r in rows] for rows in got] == [
            ["0x1.16b92a66455efp+5", "0x1.16eeb651c219ep+5", "0x1.18d06a263c266p+5"],
            ["0x1.16b354b32561ep+5", "0x1.16e8f83cf1953p+5", "0x1.18cad7893fa9ap+5"],
        ]
        assert all(r.degenerate_cells == 0 and r.warning is None for rows in got for r in rows)

    def test_several_grids_are_joined_on_the_per_cell_path(self):
        # the joined centres of a grid and its half grid, 8,192 + 2,048
        # cells, are evaluated in two steps; each grid's slice has the bits
        # of its own one-grid call
        family = PiecewiseLinearStretch(2.0, 0.01)
        grids = tuple(cartesian(1.0, n, m, breaks=(0.5,)) for n, m in ((128, 64), (64, 32)))
        for gauge in map(ConvexGauge.parse, ("square", "power:3", "flat")):
            got = _mean_distortions((LINEAR, family), gauge, grids, Density.UNIFORM)
            for grid, rows in zip(grids, got):
                assert rows == [mean_distortion(f, gauge, grid) for f in (LINEAR, family)]

    @pytest.mark.parametrize("eps", [(9e4, 1.0), (1.0, 9e4)])
    def test_undefined_cells_are_counted_for_the_first_offending_rung(self, eps):
        # at k = 1500 both rungs underflow on some rings, 72 and 56 cells of
        # 260: the stacked refusal is the first rung's own
        gauge, density = ConvexGauge.square(), Density.INVERSE_SQUARE
        stacked = PiecewiseRadialStretch(0.5, 1500.0, eps)
        grid = polar(0.5, 64, 4, breaks=stacked.break_radii())
        with pytest.raises(DegenerateExperimentError) as first:
            mean_distortion(PiecewiseRadialStretch(0.5, 1500.0, eps[0]), gauge, grid, density)
        with pytest.raises(DegenerateExperimentError) as got:
            _mean_distortions((stacked,), gauge, (grid,), density)
        assert str(got.value) == str(first.value)
        assert str(got.value).startswith(("72 of 260", "56 of 260")[eps[0] == 1.0])


class TestConformalTransfer:
    Q = math.exp(-2.0 * math.pi)

    def test_reference_pair(self):
        g = polar(self.Q, 8192, 8)
        r = cartesian(1.0, 8, 8)
        rep = conformal_transfer_check(
            SpiralStretch(self.Q, 2.0), LinearStretch(2.0), ConvexGauge.square(), g, r
        )
        assert rep.rel_gap < 5e-5
        want = 4.0 * math.pi**2 * 4.0  # 4*pi^2 * phi(k) with ell = 1
        assert rep.rectangle_value == pytest.approx(want, rel=1e-12)

    def test_piecewise_pair(self):
        g = polar(self.Q, 8192, 8, breaks=(math.sqrt(self.Q),))
        r = cartesian(1.0, 8, 8, breaks=(0.5,))
        rep = conformal_transfer_check(
            PiecewiseRadialStretch(self.Q, 2.0, 0.01),
            PiecewiseLinearStretch(2.0, 0.01),
            ConvexGauge.square(),
            g,
            r,
        )
        assert rep.rel_gap < 5e-5

    @settings(max_examples=30)
    @given(
        st.floats(0.2, 0.8),
        st.floats(1.0, 3.0),
        st.floats(-3.0, 3.0),
        st.integers(0, 2),
        st.sampled_from(["linear", "square"]),
    )
    def test_gap_is_second_order_quadrature_error(self, q, k, theta, winding, gauge):
        # the spiral stretch and its linear chart twin; doubling the radial
        # cells must cut the gap to about a quarter
        ell = math.log(1.0 / q) / (2.0 * math.pi)
        g = SpiralStretch(q, k, theta, winding)
        f = LinearStretch(k, -(theta + 2.0 * math.pi * winding) / (2.0 * math.pi * ell))
        gauge = ConvexGauge.parse(gauge)
        rect = cartesian(ell, 8, 8)
        coarse, fine = (
            conformal_transfer_check(g, f, gauge, polar(q, n, 16), rect).rel_gap
            for n in (32, 64)
        )
        assert fine <= 0.3 * coarse

    def test_mismatched_q_is_rejected(self):
        g = polar(0.5, 64, 8)
        r = cartesian(math.log(2.0) / (2 * math.pi), 8, 8)
        with pytest.raises(InputError):
            conformal_transfer_check(
                SpiralStretch(0.25, 2.0),
                LinearStretch(2.0),
                ConvexGauge.square(),
                g,
                r,
            )

    def test_mismatched_k_is_rejected(self):
        ell = math.log(2.0) / (2 * math.pi)
        g = polar(0.5, 64, 8)
        r = cartesian(ell, 8, 8)
        with pytest.raises(InputError):
            conformal_transfer_check(
                SpiralStretch(0.5, 2.0),
                LinearStretch(3.0),
                ConvexGauge.square(),
                g,
                r,
            )

    def test_piecewise_pair_needs_unit_rectangle(self):
        # the piecewise strip map lives on the unit square, so q != e^{-2pi}
        # cannot be transferred
        ell = math.log(2.0) / (2 * math.pi)
        g = polar(0.5, 64, 8, breaks=(math.sqrt(0.5),))
        r = cartesian(ell, 8, 8)
        with pytest.raises(InputError, match=r"exp\(-2\*pi\)"):
            conformal_transfer_check(
                PiecewiseRadialStretch(0.5, 2.0, 0.01),
                PiecewiseLinearStretch(2.0, 0.01),
                ConvexGauge.square(),
                g,
                r,
            )

    def test_unsupported_pair(self):
        g = polar(self.Q, 64, 8)
        r = cartesian(1.0, 8, 8)
        with pytest.raises(UnsupportedVariantError):
            conformal_transfer_check(
                SpiralStretch(self.Q, 2.0),
                PiecewiseLinearStretch(2.0, 0.01),
                ConvexGauge.square(),
                g,
                r,
            )


def _rederive_oracles():  # pragma: no cover - manual check utility
    q, k, eps = 0.25, 2.0, 0.01
    se = math.sqrt(eps)
    edges = np.linspace(q, 1.0, 1_000_001)
    r = 0.5 * (edges[1:] + edges[:-1])
    dr = np.diff(edges)
    rho = np.where(r <= math.sqrt(q), q**se * r ** (k - se), r ** (k + se))
    print("radial l1:", repr(2.0 * math.pi * np.sum((r**k - rho) * r * dr)))
    print("strip l1 :", repr(se / 4.0))


if __name__ == "__main__":  # pragma: no cover
    _rederive_oracles()
