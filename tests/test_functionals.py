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
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cartesian, polar
from qclab.errors import DegenerateExperimentError, InputError, UnsupportedVariantError
from qclab.functionals import (
    Density,
    conformal_transfer_check,
    deficit,
    distortion_many,
    l1_distance,
    mean_distortion,
    pointwise_analysis,
)
from qclab.gauges import ConvexGauge
from qclab.maps import (
    Composition,
    ConjugationMap,
    LinearStretch,
    PiecewiseLinearStretch,
    PiecewiseRadialStretch,
    Rotation,
    SpiralStretch,
)

L1_RADIAL_ORACLE = 0.033886557607767716
FOUR_PI_LOG2 = 4.0 * math.pi * math.log(2.0)


class TestPointwise:
    def test_reference_distortion_is_constant(self):
        g = polar(0.5, 16, 16)
        K, degenerate = distortion_many(SpiralStretch(0.5, 2.0), g.centers)
        assert np.allclose(K, 2.0, atol=1e-12)
        assert not degenerate.any()

    def test_conjugation_is_degenerate(self):
        sample = pointwise_analysis(ConjugationMap(), 0.5 + 0.2j)
        assert sample.degenerate
        assert sample.distortion == 1.0

    def test_beltrami_of_reference(self):
        sample = pointwise_analysis(LinearStretch(2.0), 0.5 + 0.5j)
        assert sample.mu == pytest.approx(1.0 / 3.0)
        assert sample.jacobian == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "family, z",
        [
            (SpiralStretch(0.5, 2.0, 0.3, 1), 0.6 + 0.2j),
            (ConjugationMap(), 0.5 + 0.2j),
            (LinearStretch(3.0, 0.7), 0.1 + 0.4j),
            (SpiralStretch(0.5, 1e308), 0.75),  # f_z and f_zbar underflow to 0
        ],
        ids=["spiral", "conjugation", "linear", "underflow"],
    )
    def test_pointwise_matches_distortion_many(self, family, z):
        sample = pointwise_analysis(family, z)
        K, degenerate = distortion_many(family, np.array([z]))
        assert float(K[0]).hex() == sample.distortion.hex()
        assert sample.degenerate == bool(degenerate[0])


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
        d = deficit(ref, ref, ConvexGauge.square(), polar(q, 16, 16))
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
