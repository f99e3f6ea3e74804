"""Alignment functionals, lemma audits, and the two perturbation ladders."""

import collections
import math

import numpy as np
import pytest

from conftest import cartesian, polar
from qclab import functionals, geometry, pompeiu
from qclab.errors import DegenerateExperimentError, InputError, UnsupportedVariantError
from qclab.functionals import deficit, mean_distortion
from qclab.gauges import ConvexGauge
from qclab.maps import (
    Composition,
    InverseSpiralStretch,
    LinearStretch,
    MapFamily,
    PiecewiseLinearStretch,
    PiecewiseRadialStretch,
    Rotation,
    SpiralStretch,
)
from qclab.stability import (
    LadderConfig,
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


def refuse_evaluation(monkeypatch):
    """Make every evaluation of a map, on a grid or off it, fail the test."""

    def evaluated(*args):
        raise AssertionError("a map was evaluated")

    for method in ("jet_many", "eval_many"):
        monkeypatch.setattr(MapFamily, method, evaluated)


class TestAlphaStar:
    """The optimal rotation angle alpha*, as ``audit_alignment`` reports it."""

    def test_reference_map_aligns_at_zero(self):
        grid = strip_grid()
        rep = audit_alignment(FSTAR, FSTAR, grid)
        assert abs(rep.alpha) < 1e-12
        assert rep.r == pytest.approx(2.0, rel=1e-12)
        assert rep.r >= 1e-13 * grid.domain.area  # the angle is defined

    def test_piecewise_perturbation_keeps_zero_angle(self):
        f = PiecewiseLinearStretch(2.0, 1e-2)
        rep = audit_alignment(f, FSTAR, strip_grid(breaks=(0.5,)))
        assert abs(rep.alpha) < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_rotation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        beta = float(rng.uniform(-math.pi, math.pi))
        rotated = Composition(Rotation(beta), FSTAR)
        rep = audit_alignment(rotated, FSTAR, strip_grid())
        gap = (rep.alpha + beta + math.pi) % (2 * math.pi) - math.pi
        assert abs(gap) < 1e-10

    def test_unstretched_reference_is_degenerate(self):
        flat_ref = LinearStretch(1.0)
        with pytest.raises(InputError):
            audit_alignment(flat_ref, flat_ref, strip_grid())

    def test_vanishing_integral_aligns_at_zero(self):
        # f(z) = z - conj(z): f_z = 1 and f_zbar = -1 cancel in the integrand
        # mu*/|mu*| f_z + f_zbar, so r is 0 and the angle is left at 0
        class Collapse(MapFamily):
            label = "collapse"

            def _jet(self, pts):
                return pts - np.conj(pts), np.ones_like(pts), -np.ones_like(pts)

        rep = audit_alignment(Collapse(), FSTAR, strip_grid())
        assert rep.r < 1e-13 and rep.alpha == 0.0


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
        jet_many = Composition.jet_many

        def counted(self, z):
            calls.append(self)
            return jet_many(self, z)

        monkeypatch.setattr(Composition, "jet_many", counted)
        grid = cartesian(1.0, 32, 16, breaks=(0.5,))
        rep = audit_alignment(family, LinearStretch(3.0, 0.2), grid)
        got = (rep.alpha, rep.r, rep.real_part_gap, rep.imag_part_mass, rep.absdiff_mass)
        assert tuple(v.hex() for v in got) == want
        assert rep.passed
        assert calls == [family]  # the jet is taken once


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


class TestReferenceIsAffine:
    """``audit_k_l2`` and ``audit_k_mean`` read ``K*`` from one Wirtinger pair,
    so a reference whose distortion could vary is refused before any map runs."""

    @pytest.mark.parametrize("audit", [audit_k_l2, audit_k_mean])
    @pytest.mark.parametrize("reference", [PiecewiseLinearStretch(2.0, 1e-2), SpiralStretch(0.5, 2.0)])
    def test_refused_before_f_is_evaluated(self, audit, reference, monkeypatch):
        refuse_evaluation(monkeypatch)
        f = PiecewiseLinearStretch(2.0, 1e-2)
        with pytest.raises(InputError, match="reference must be a LinearStretch, got"):
            audit(f, reference, SQUARE, strip_grid(breaks=(0.5,)))


class TestReportTypes:
    @pytest.mark.parametrize("audit", [audit_k_l2, audit_k_mean])
    def test_numbers_are_python_floats(self, audit):
        # the CSV writer prints a numpy scalar as its repr, np.float64(...)
        rep = audit(PiecewiseLinearStretch(2.0, 1e-2), FSTAR, SQUARE, strip_grid(breaks=(0.5,)))
        numbers = [rep.lhs, rep.rhs, rep.ratio, *rep.constants.values()]
        assert [type(x) for x in numbers] == [float] * len(numbers)


class TestBreakContract:
    """Every audit that differentiates ``f`` on the caller's grid refuses a grid
    that splits ``f``'s break, with ``mean_distortion``'s refusal, before any
    map is evaluated."""

    @pytest.mark.parametrize("audit", [
        lambda f, grid: audit_k_l2(f, FSTAR, SQUARE, grid),
        lambda f, grid: audit_k_mean(f, FSTAR, SQUARE, grid),
        lambda f, grid: audit_alignment(f, FSTAR, grid),
    ], ids=["k-l2", "k-mean", "alignment"])
    def test_a_grid_that_splits_the_break_is_refused(self, audit, monkeypatch):
        f = PiecewiseLinearStretch(2.0, 0.01)
        grid = cartesian(1.0, 63, 16)  # no edge at the break x = 0.5
        with pytest.raises(InputError) as want:
            mean_distortion(f, SQUARE, grid)

        def evaluated(*args):
            raise AssertionError("a map was evaluated")

        monkeypatch.setattr(PiecewiseLinearStretch, "_jet", evaluated)
        with pytest.raises(InputError, match="does not honor the mandatory break") as err:
            audit(f, grid)
        assert str(err.value) == str(want.value)


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

    @pytest.mark.parametrize("c", [-math.inf, math.nan, "1.0"])
    def test_declared_curvature_must_be_a_finite_number(self, c):
        with pytest.raises(InputError, match="curvature c must be a finite number"):
            audit_taylor(SQUARE, samples=10, c=c)

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
    cfg = LadderConfig(n_radial=128, n_angular=128)
    return run_ladder(cfg)


class TestLadder:
    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_rows_equal_per_rung_deficits(self, theta):
        # run_ladder integrates the reference once per grid; every row must
        # still carry the bits of a per-rung deficit() call
        cfg = LadderConfig(theta=theta, n_radial=64, n_angular=32)
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
        cfg = LadderConfig(n_radial=256, n_angular=256)
        finer = run_ladder(cfg)
        assert abs(finer.slope - small_fit.slope) <= 0.01

    def test_linear_gauge_is_degenerate(self):
        cfg = LadderConfig(gauge=LINEAR, n_radial=64, n_angular=64)
        with pytest.raises(DegenerateExperimentError):
            run_ladder(cfg)

    def test_rows_sharing_one_deficit_are_degenerate(self):
        # 1e-3 and the next float give equal deficits: a slope through them
        # means nothing (np.polyfit only warns that it is ill-posed)
        cfg = LadderConfig(eps_values=(1e-3, math.nextafter(1e-3, 1.0)),
                           n_radial=64, n_angular=64)
        with pytest.raises(DegenerateExperimentError, match="two distinct deficits"):
            run_ladder(cfg)

    def test_eps_range_validation(self):
        with pytest.raises(InputError):
            run_ladder(LadderConfig(eps_values=(1e-3,)))
        with pytest.raises(InputError):
            run_ladder(LadderConfig(eps_values=(1e-4, 1e-3, 1e-2, 0.1, 0.9)))
        with pytest.raises(InputError):
            run_ladder(LadderConfig(eps_values=(0.0, 1e-3)))


def _row_hex(row):
    return tuple(getattr(row, f).hex() for f in ("eps", "deficit", "l1", "dbar_mass", "noise"))


class TestLadderRungs:
    """The rungs are evaluated together; every row keeps its one-rung bits."""

    # float.hex of the default 512x512 FitReport: (eps, deficit, l1,
    # dbar_mass, noise) per row, then (slope, intercept, max_residual);
    # computed while run_ladder still evaluated one rung at a time
    PINS = {
        0.0: (
            (
                ("0x1.a36e2eb1c432dp-14", "0x1.a370a539ca479p-16", "0x1.2137105c1728fp-9",
                 "0x1.e1d35a21e8793p-8", "0x1.3b484d5ad8000p-31"),
                ("0x1.4b96be9c2da2cp-12", "0x1.4b97d6ece5e9ep-14", "0x1.00ef7fc60c77bp-8",
                 "0x1.abe9301b6d5d0p-7", "0x1.185485907aaabp-30"),
                ("0x1.0624dd2f1a9fcp-10", "0x1.062559cdbecd2p-12", "0x1.c837cc8fc7ed5p-8",
                 "0x1.7baf5105f0f08p-6", "0x1.f2816031c0000p-30"),
                ("0x1.9e7c6e43390b7p-9", "0x1.9e7cdd1120e74p-11", "0x1.948fc298b270ap-7",
                 "0x1.505a3f23a9d66p-5", "0x1.bb3dac1a40000p-29"),
                ("0x1.47ae147ae147bp-7", "0x1.47ae45bd81dc1p-9", "0x1.6603929aa304dp-6",
                 "0x1.291e22fff223ap-4", "0x1.8a1a63ca80000p-28"),
            ),
            ("0x1.fde60a61ab421p-2", "-0x1.ad60af7372a71p-1", "0x1.7570024ea1000p-10"),
        ),
        0.7: (
            (
                ("0x1.a36e2eb1c432dp-14", "0x1.98218355bc9f2p-16", "0x1.43fe82482e3b2p-9",
                 "0x1.0de22554b42d7p-7", "0x1.19b871fc8d555p-31"),
                ("0x1.4b96be9c2da2cp-12", "0x1.42a7d4aee68e1p-14", "0x1.1fd536acc325dp-8",
                 "0x1.df5e5ec51f028p-7", "0x1.f4f9ec1e4aaabp-31"),
                ("0x1.0624dd2f1a9fcp-10", "0x1.fe2ca4843a945p-13", "0x1.ff1455c7b55cbp-8",
                 "0x1.a957dd9b31b08p-6", "0x1.bd6eff72c0000p-30"),
                ("0x1.9e7c6e43390b7p-9", "0x1.935c8c4122949p-11", "0x1.c535ec69a4d23p-7",
                 "0x1.78ccd0faa517fp-5", "0x1.8c0a6ac1c0000p-29"),
                ("0x1.47ae147ae147bp-7", "0x1.3ef8a26c6d5d1p-9", "0x1.9110644a4acffp-6",
                 "0x1.4cd8de31c9771p-4", "0x1.6019fe8055555p-28"),
            ),
            ("0x1.fddb86cd3dea1p-2", "-0x1.6c783449eb1b4p-1", "0x1.8302ce7098000p-10"),
        ),
    }

    @pytest.mark.parametrize("theta", sorted(PINS))
    def test_default_report_bits_are_pinned(self, theta):
        rows, fit = self.PINS[theta]
        rep = run_ladder(LadderConfig(theta=theta))
        assert tuple(_row_hex(r) for r in rep.rows) == rows
        assert all(r.included for r in rep.rows)
        assert (rep.slope.hex(), rep.intercept.hex(), rep.max_residual.hex()) == fit

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_row_bits_do_not_depend_on_the_number_of_rungs(self, theta):
        # 40 rungs over 1,025 rings make stacked complex arrays of 656 KB,
        # past the 256 KiB at which numpy would compute a product of
        # temporaries in place, with other last bits
        eps = tuple(np.geomspace(1e-5, 5e-2, 40).tolist())
        shape = dict(theta=theta, n_radial=1024, n_angular=8)
        many = run_ladder(LadderConfig(eps_values=eps, **shape))
        for i in range(len(eps) - 1):
            two = run_ladder(LadderConfig(eps_values=(eps[i], eps[-1]), **shape))
            assert _row_hex(two.rows[0]) == _row_hex(many.rows[i]), i
        assert _row_hex(two.rows[1]) == _row_hex(many.rows[-1])

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_map_and_reduction_calls_do_not_grow_with_rungs(self, theta, monkeypatch):
        counts = collections.Counter()

        def count(owner, attr, key):
            original = getattr(owner, attr)

            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counted)

        families = (Composition, InverseSpiralStretch, PiecewiseRadialStretch, SpiralStretch)
        for cls in families:
            count(cls, "_jet", cls.__name__)
        for module in (geometry, functionals, pompeiu):
            count(module, "integrate", "integrate")

        def calls(n_rungs):
            counts.clear()
            run_ladder(LadderConfig(theta=theta, eps_values=tuple(np.geomspace(1e-4, 1e-2, n_rungs)),
                                    n_radial=64, n_angular=32))
            return dict(counts)

        two = calls(2)
        assert calls(6) == two
        # the reference and rung rows on each grid, then l1 and the dbar mass
        assert two["integrate"] == 4
        # each map is evaluated once per quantity, value and Wirtinger pair
        # together: the rungs once each in the deficit (over both grids), in
        # l1 and in the mass, and the inverse reference once, in the mass.
        # At theta 0.7 the rungs are the Composition of a SpiralStretch twist
        # after them, which Phi composes again with the inverse reference.
        if theta == 0.0:
            want = {"Composition": 1, "SpiralStretch": 2}
        else:
            want = {"Composition": 4, "SpiralStretch": 5}
        assert {cls.__name__: two[cls.__name__] for cls in families} == {
            **want, "InverseSpiralStretch": 1, "PiecewiseRadialStretch": 3
        }

    @pytest.mark.parametrize("k, theta, error, message", [
        # q**k underflows: the image annulus [q**k, 1] is refused by name,
        # at every theta, before the reference or the twist is evaluated
        # (at k = 1e13 the reference's K would also exceed 2**43)
        (1e13, 0.7, InputError, "underflows at q = 0.5, k = 10000000000000.0"),
        (1100.0, 0.5, InputError, "underflows at q = 0.5, k = 1100.0"),
        (1e13, 0.0, InputError, "underflows at q = 0.5, k = 10000000000000.0"),
        (1100.0, 0.0, InputError, "underflows at q = 0.5, k = 1100.0"),
    ])
    def test_reference_refusals_precede_the_twist(self, k, theta, error, message):
        config = LadderConfig(k=k, theta=theta, n_radial=16, n_angular=16)
        with pytest.raises(error, match=message):
            run_ladder(config)

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_refused_image_annulus_evaluates_no_map(self, theta, monkeypatch):
        refuse_evaluation(monkeypatch)
        config = LadderConfig(k=1100.0, theta=theta, n_radial=16, n_angular=16)
        with pytest.raises(InputError, match="underflows"):
            run_ladder(config)


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
