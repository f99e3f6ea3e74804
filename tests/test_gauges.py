"""Gauge functions, curvature floors, the Taylor gap, and the theta identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclab.errors import DomainError, InputError
from qclab.gauges import ConvexGauge, theta_check_many


class TestConstruction:
    def test_parse(self):
        assert ConvexGauge.parse("linear") == ConvexGauge.linear()
        assert ConvexGauge.parse("square") == ConvexGauge.square()
        assert ConvexGauge.parse("power:3") == ConvexGauge.power(3.0)
        assert ConvexGauge.parse("flat") == ConvexGauge.flat()

    @pytest.mark.parametrize("bad", ["cubic", "power", "power:1", "power:0.5", ""])
    def test_parse_rejects(self, bad):
        with pytest.raises(InputError):
            ConvexGauge.parse(bad)

    def test_power_needs_p_above_one(self):
        with pytest.raises(InputError):
            ConvexGauge.power(1.0)
        with pytest.raises(InputError):
            ConvexGauge.power(float("nan"))

    def test_curvature_floors(self):
        assert ConvexGauge.linear().curvature_floor == 0.0
        assert ConvexGauge.square().curvature_floor == 2.0
        assert ConvexGauge.power(3.0).curvature_floor == 6.0
        assert ConvexGauge.power(1.5).curvature_floor == 0.0  # p < 2: no floor
        assert ConvexGauge.flat().curvature_floor == 0.0


class TestEvaluate:
    def test_values_at_one(self):
        for g in (
            ConvexGauge.linear(),
            ConvexGauge.square(),
            ConvexGauge.power(3.0),
            ConvexGauge.flat(),
        ):
            assert g.evaluate(1.0) == 1.0

    def test_closed_forms(self):
        assert ConvexGauge.linear().evaluate(3.7) == pytest.approx(3.7)
        assert ConvexGauge.square().evaluate(3.0) == pytest.approx(9.0)
        assert ConvexGauge.power(3.0).evaluate(2.0) == pytest.approx(8.0)
        assert ConvexGauge.flat().evaluate(2.0) == pytest.approx(
            2.0 + math.exp(-1.0)
        )

    def test_vectorized(self):
        t = np.array([1.0, 2.0, 5.0])
        out = ConvexGauge.square().evaluate(t)
        assert np.allclose(out, t**2)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            ConvexGauge.square().evaluate(0.5)
        with pytest.raises(DomainError):
            ConvexGauge.flat().evaluate(np.array([2.0, 0.99]))

    def test_right_derivative(self):
        assert ConvexGauge.square().right_derivative(3.0) == pytest.approx(6.0)
        assert ConvexGauge.linear().right_derivative(9.0) == 1.0
        assert ConvexGauge.flat().right_derivative(1.0) == 1.0
        want = 1.0 + math.exp(-1.0) * 2.0
        assert ConvexGauge.flat().right_derivative(2.0) == pytest.approx(want)

    def test_flat_derivative_is_not_monotone(self):
        g = ConvexGauge.flat()
        assert g.right_derivative(2.0) > g.right_derivative(3.0)


class TestTaylorGap:
    def test_square_gap_vanishes_identically(self):
        g = ConvexGauge.square()
        for s, t in [(1.0, 4.0), (3.0, 2.0), (10.0, 10.0)]:
            assert g.taylor_gap(s, t, g.curvature_floor) == pytest.approx(0.0, abs=1e-10)

    def test_linear_gap_vanishes(self):
        g = ConvexGauge.linear()
        assert g.taylor_gap(2.0, 7.0, g.curvature_floor) == pytest.approx(0.0)

    def test_power_gap_positive(self):
        g = ConvexGauge.power(3.0)
        assert g.taylor_gap(2.0, 5.0, g.curvature_floor) > 0.0

    def test_flat_gap_small_arguments_positive(self):
        g = ConvexGauge.flat()
        assert g.taylor_gap(1.5, 2.5, g.curvature_floor) > 0.0

    def test_flat_gap_goes_negative_at_larger_arguments(self):
        # the bump is concave out here, so even the c=0 bound fails:
        # this gauge does not satisfy a uniform convexity inequality
        g = ConvexGauge.flat()
        gap = g.taylor_gap(3.0, 5.0, g.curvature_floor)
        assert gap == pytest.approx(-0.22884, abs=5e-4)
        assert gap < 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=1.0, max_value=50.0),
    )
    def test_square_and_power_gaps_never_negative(self, s, t):
        for g in (ConvexGauge.square(), ConvexGauge.power(2.5)):
            assert g.taylor_gap(s, t, g.curvature_floor) >= -1e-9


class TestTheta:
    def test_at_one(self):
        theta, gap1, gap2 = theta_check_many([1.0 + 0j])
        assert theta.tolist() == gap1.tolist() == gap2.tolist() == [0.0]

    def test_at_i(self):
        theta, gap1, gap2 = theta_check_many([1j])
        assert theta[0] == pytest.approx(0.5)
        # |z| - Re z = 1, theta = 1/2: slack of exactly 1/2
        assert gap1[0] == pytest.approx(0.5)
        assert gap2[0] == pytest.approx(0.0, abs=1e-15)

    def test_three_four_five(self):
        theta, gap1, gap2 = theta_check_many([3.0 + 4.0j])
        assert theta[0] == pytest.approx(1.6)
        assert gap1[0] == pytest.approx((5.0 - 3.0) - 1.6)
        assert gap2[0] == pytest.approx(0.0, abs=1e-12)

    def test_zero_is_defined(self):
        theta, _, _ = theta_check_many([0j])
        assert theta.tolist() == [0.0]

    def test_bulk_right_half_plane(self):
        rng = np.random.default_rng(7)
        z = np.abs(rng.normal(size=500) * 5) + 1j * rng.normal(size=500) * 5
        theta, gap1, gap2 = theta_check_many(z)
        assert (gap1 >= -1e-12).all()
        scale = 1.0 + np.abs(z) ** 2
        assert (np.abs(gap2) / scale <= 1e-12).all()
        assert (theta >= 0.0).all()

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_first_inequality_property(self, x, y):
        _, gap1, _ = theta_check_many([complex(x, y)])
        assert gap1[0] >= -1e-9
