"""Alignment functionals, lemma audits, and the two perturbation ladders."""

import math

import numpy as np
import pytest

from conftest import cartesian, polar
from qclab.errors import DegenerateExperimentError, InputError, UnsupportedVariantError
from qclab.functionals import deficit
from qclab.gauges import ConvexGauge
from qclab.maps import (
    Composition,
    LinearStretch,
    PiecewiseLinearStretch,
    PiecewiseRadialStretch,
    Rotation,
    SpiralStretch,
)
from qclab.stability import (
    LadderConfig,
    alpha_star,
    audit_alignment,
    audit_gn_gap,
    audit_k_l2,
    audit_k_mean,
    audit_taylor,
    audit_theta,
    run_flat_gauge_ladder,
    run_ladder,
)

SQUARE = ConvexGauge.parse("square")
LINEAR = ConvexGauge.parse("linear")
FLAT = ConvexGauge.parse("flat")
FSTAR = LinearStretch(2.0)


def strip_grid(n=128, breaks=()):
    return cartesian(1.0, n, max(n // 8, 8), breaks=breaks)


class TestAlphaStar:
    def test_reference_map_aligns_at_zero(self):
        rep = alpha_star(FSTAR, FSTAR, strip_grid())
        assert abs(rep.alpha) < 1e-12
        assert rep.r == pytest.approx(2.0, rel=1e-12)
        assert not rep.degenerate

    def test_piecewise_perturbation_keeps_zero_angle(self):
        f = PiecewiseLinearStretch(2.0, 1e-2)
        rep = alpha_star(f, FSTAR, strip_grid(breaks=(0.5,)))
        assert abs(rep.alpha) < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_rotation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        beta = float(rng.uniform(-math.pi, math.pi))
        rotated = Composition(Rotation(beta), FSTAR)
        rep = alpha_star(rotated, FSTAR, strip_grid())
        gap = (rep.alpha + beta + math.pi) % (2 * math.pi) - math.pi
        assert abs(gap) < 1e-10

    def test_unstretched_reference_is_degenerate(self):
        flat_ref = LinearStretch(1.0)
        with pytest.raises(InputError):
            alpha_star(flat_ref, flat_ref, strip_grid())


class TestAlignment:
    def test_reference_is_fully_aligned(self):
        rep = audit_alignment(FSTAR, FSTAR, strip_grid())
        assert rep.passed
        assert rep.real_part_gap <= 1e-10
        assert rep.imag_part_mass <= 1e-10
        assert rep.absdiff_mass <= 1e-10

    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2])
    def test_perturbed_absdiff_mass(self, eps):
        f = PiecewiseLinearStretch(2.0, eps)
        rep = audit_alignment(f, FSTAR, strip_grid(breaks=(0.5,)))
        want = math.sqrt(eps) / 3.0  # sqrt(eps) / (k + 1) at k = 2
        assert rep.absdiff_mass == pytest.approx(want, rel=1e-10)
        assert rep.real_part_gap <= 1e-10
        assert rep.imag_part_mass <= 1e-10
        assert rep.passed

    # float.hex of (alpha, r, real_part_gap, imag_part_mass, absdiff_mass),
    # computed when the audit still evaluated the Wirtinger pair three times
    GOLDEN = {
        "fstar o feps": (
            Composition(LinearStretch(1.5, 0.7), PiecewiseLinearStretch(2.0, 0.04)),
            ("-0x1.df80fac914a11p-2", "0x1.a8fac370f60fap+1", "0x1.9b8bf33400000p-21",
             "0x1.263eebf71e31ap-9", "0x1.3c61494596bccp-2"),
        ),
        "rotation o feps": (
            Composition(Rotation(-1.1), PiecewiseLinearStretch(3.0, 0.25)),
            ("0x1.111da05761cfep+0", "0x1.7fe502c0401b6p+1", "0x1.8ad6eda780000p-19",
             "0x1.0f726f4544518p-8", "0x1.13605de097509p-3"),
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_report_bits_are_pinned(self, name, monkeypatch):
        family, want = self.GOLDEN[name]
        calls = []
        wirtinger_many = Composition.wirtinger_many

        def counted(self, z):
            calls.append(self)
            return wirtinger_many(self, z)

        monkeypatch.setattr(Composition, "wirtinger_many", counted)
        grid = cartesian(1.0, 32, 16, breaks=(0.5,))
        rep = audit_alignment(family, LinearStretch(3.0, 0.2), grid)
        got = (rep.alpha, rep.r, rep.real_part_gap, rep.imag_part_mass, rep.absdiff_mass)
        assert tuple(v.hex() for v in got) == want
        assert rep.passed
        assert calls == [family]  # the Wirtinger pair is evaluated once


class TestKL2:
    @pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2])
    def test_lhs_equals_eps(self, eps):
        f = PiecewiseLinearStretch(2.0, eps)
        rep = audit_k_l2(f, FSTAR, SQUARE, strip_grid(breaks=(0.5,)))
        assert rep.lhs == pytest.approx(eps, abs=1e-12)
        assert rep.passed

    def test_reference_gives_zero(self):
        rep = audit_k_l2(FSTAR, FSTAR, SQUARE, strip_grid())
        assert rep.lhs == pytest.approx(0.0, abs=1e-14)

    def test_linear_gauge_lacks_curvature(self):
        f = PiecewiseLinearStretch(2.0, 1e-2)
        with pytest.raises(UnsupportedVariantError):
            audit_k_l2(f, FSTAR, LINEAR, strip_grid(breaks=(0.5,)))


class TestKMean:
    def test_raw_form_at_standard_parameters(self):
        f = PiecewiseLinearStretch(2.0, 1e-2)
        rep = audit_k_mean(f, FSTAR, SQUARE, strip_grid(breaks=(0.5,)))
        assert rep.passed
        assert rep.lhs == pytest.approx(2.0, rel=1e-12)
        assert rep.constants["C"] == pytest.approx(0.5, rel=1e-12)
        assert rep.constants["deficit"] == pytest.approx(0.0025, abs=1e-6)
        assert rep.rhs == pytest.approx(
            (1.0 + 0.5 * rep.constants["deficit"]) * 2.0, rel=1e-12
        )

    def test_linear_gauge_reduces_to_equality(self):
        f = PiecewiseLinearStretch(2.0, 1e-2)
        rep = audit_k_mean(f, FSTAR, LINEAR, strip_grid(breaks=(0.5,)))
        assert rep.passed


class TestTaylor:
    @pytest.mark.parametrize("name", ["linear", "square", "power:3", "power:1.5"])
    def test_convex_gauges_pass(self, name):
        rep = audit_taylor(ConvexGauge.parse(name))
        assert rep.passed
        assert rep.lhs >= -1e-12

    def test_flat_gauge_fails_honestly(self):
        rep = audit_taylor(FLAT)
        assert not rep.passed
        assert rep.lhs < -30.0  # deep violation, not a rounding artifact

    def test_declared_curvature_must_respect_floor(self):
        with pytest.raises(InputError):
            audit_taylor(FLAT, c=1.0)

    def test_smaller_declared_curvature_weakens_the_bound(self):
        strict = audit_taylor(SQUARE)
        relaxed = audit_taylor(SQUARE, c=1.0)
        assert relaxed.passed
        assert relaxed.lhs >= strict.lhs


class TestTheta:
    def test_default_audit_passes(self):
        rep = audit_theta()
        assert rep.passed
        assert rep.lhs >= -1e-12


class TestGnGap:
    @pytest.mark.parametrize(
        "q,k,theta",
        [(0.5, 1.0, 0.0), (0.5, 2.0, 0.0), (0.5, 2.0, math.pi / 2)],
    )
    @pytest.mark.parametrize("winding", [1, 2])
    def test_gap_is_positive(self, q, k, theta, winding):
        grid = polar(q, 128, 128)
        rep = audit_gn_gap(q, k, theta, winding, SQUARE, grid)
        assert rep.passed
        assert rep.lhs > 0.0

    def test_zero_winding_is_refused(self):
        grid = polar(0.25, 32, 32)
        with pytest.raises(InputError):
            audit_gn_gap(0.5, 2.0, 0.0, 0, SQUARE, grid)


@pytest.fixture(scope="module")
def small_fit():
    cfg = LadderConfig(
        n_radial=128, n_angular=128, mass_n_radial=128, mass_n_angular=64
    )
    return run_ladder(cfg)


class TestLadder:
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_rows_equal_per_rung_deficits(self, theta):
        # run_ladder integrates the reference once per grid; every row must
        # still carry the bits of a per-rung deficit() call
        cfg = LadderConfig(theta=theta, n_radial=64, n_angular=32,
                           mass_n_radial=32, mass_n_angular=16)
        fit = run_ladder(cfg)
        breaks = [math.sqrt(cfg.q)]
        grid = polar(cfg.q, 64, 32, breaks=tuple(breaks))
        half = polar(cfg.q, 32, 16, breaks=tuple(breaks))
        reference = SpiralStretch(cfg.q, cfg.k, theta, 0)
        for row in fit.rows:
            candidate = PiecewiseRadialStretch(cfg.q, cfg.k, row.eps)
            if theta:
                twist = SpiralStretch(cfg.q**cfg.k, 1.0, theta, 0)
                candidate = Composition(twist, candidate)
            d_full = deficit(candidate, reference, cfg.gauge, grid).value
            d_half = deficit(candidate, reference, cfg.gauge, half).value
            assert row.deficit.hex() == d_full.hex()
            assert row.noise.hex() == (abs(d_full - d_half) / 3.0).hex()

    def test_slope_is_one_half(self, small_fit):
        assert small_fit.slope == pytest.approx(0.5, abs=0.05)

    def test_rows_follow_config(self, small_fit):
        assert [r.eps for r in small_fit.rows] == pytest.approx(
            list(np.geomspace(1e-4, 1e-2, 5))
        )
        assert all(r.included for r in small_fit.rows)
        assert all(r.deficit > 0 for r in small_fit.rows)

    def test_band_is_narrow(self, small_fit):
        band = [r.l1 / math.sqrt(r.deficit) for r in small_fit.rows]
        assert max(band) / min(band) < 3.0

    def test_doubling_the_grid_leaves_slope_alone(self, small_fit):
        cfg = LadderConfig(
            n_radial=256, n_angular=256, mass_n_radial=128, mass_n_angular=64
        )
        finer = run_ladder(cfg)
        assert abs(finer.slope - small_fit.slope) <= 0.01

    def test_linear_gauge_is_degenerate(self):
        cfg = LadderConfig(gauge=LINEAR, n_radial=64, n_angular=64,
                           mass_n_radial=64, mass_n_angular=32)
        with pytest.raises(DegenerateExperimentError):
            run_ladder(cfg)

    def test_rows_sharing_one_deficit_are_degenerate(self):
        # 1e-3 and the next float give equal deficits: a slope through them
        # means nothing (np.polyfit only warns that it is ill-posed)
        cfg = LadderConfig(eps_values=(1e-3, math.nextafter(1e-3, 1.0)),
                           n_radial=64, n_angular=64, mass_n_radial=64,
                           mass_n_angular=32)
        with pytest.raises(DegenerateExperimentError, match="two distinct deficits"):
            run_ladder(cfg)

    def test_eps_range_validation(self):
        with pytest.raises(InputError):
            run_ladder(LadderConfig(eps_values=(1e-3,)))
        with pytest.raises(InputError):
            run_ladder(LadderConfig(eps_values=(1e-4, 1e-3, 1e-2, 0.1, 0.9)))
        with pytest.raises(InputError):
            run_ladder(LadderConfig(eps_values=(0.0, 1e-3)))


class TestFlatLadder:
    def test_alpha_domain_is_open(self):
        for bad in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(InputError):
                run_flat_gauge_ladder(bad, n_radial=32, n_angular=16)

    @pytest.mark.parametrize("alpha", [0.3, 0.49])
    def test_default_ladder_rows(self, alpha):
        rep = run_flat_gauge_ladder(alpha, n_radial=256, n_angular=128)
        for row in rep.rows:
            assert row.eta == pytest.approx(row.eps ** (1.0 / alpha), rel=1e-12)
            assert row.l1_floor == pytest.approx(row.eta**alpha, rel=1e-12)
            assert row.l1_exceeds and row.l1 > row.l1_floor
            assert row.regime_ok
            # the bump's concave window makes the flat deficit negative here
            assert row.flat_deficit < 0.0
            assert row.square_deficit > 0.0
