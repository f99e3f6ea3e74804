"""Map families: analytic derivatives vs finite differences, inverses, breaks."""

import math

import numpy as np
import pytest

from qclab.errors import (
    BreakSetError,
    DomainError,
    InputError,
    UnsupportedVariantError,
)
from qclab.maps import (
    Composition,
    ConjugationMap,
    ExpCoordinates,
    ExpCoordinatesF,
    IdentityMap,
    InverseLinearStretch,
    InverseSpiralStretch,
    LinearStretch,
    LogCoordinatesG,
    PiecewiseLinearStretch,
    PiecewiseRadialStretch,
    Rotation,
    SpiralStretch,
    wirtinger_fd,
)
from qclab.geometry import RectangleDomain
from qclab.stability import run_flat_gauge_ladder

RNG = np.random.default_rng(20260815)


def annulus_points(q, n=6, pad=0.05):
    r = RNG.uniform(q * (1 + pad), 1 - pad, size=n)
    t = RNG.uniform(0.05, 2 * math.pi - 0.05, size=n)
    return r * np.exp(1j * t)


def square_points(width=1.0, n=6, pad=0.05):
    x = RNG.uniform(pad, width - pad, size=n)
    y = RNG.uniform(pad, 1 - pad, size=n)
    return x + 1j * y


def assert_fd_agrees(family, pts, h=1e-6, tol=5e-6):
    """Analytic Wirtinger pair vs the 5-point stencil, pointwise."""
    for z in np.atleast_1d(pts):
        fz, fzb = family.wirtinger(complex(z))
        gz, gzb = wirtinger_fd(family, complex(z), h=h)
        scale = max(1.0, abs(fz), abs(fzb))
        assert abs(fz - gz) <= tol * scale, f"{family.label} f_z at {z}"
        assert abs(fzb - gzb) <= tol * scale, f"{family.label} f_zbar at {z}"


class TestSpiralStretch:
    def test_reference_label_and_distortion(self):
        g = SpiralStretch(0.5, 2.0)
        assert g.label == "gstar"
        assert g.distortion == pytest.approx(2.0, rel=1e-14)
        assert g.image_inner_radius == pytest.approx(0.25)

    def test_boundary_values_fix_the_circles(self):
        g = SpiralStretch(0.5, 2.0, theta=0.7, winding=1)
        # |g| = |w|^k, and the twist keeps both boundary circles invariant
        w = np.exp(1j * RNG.uniform(0, 2 * math.pi, 8))
        assert np.allclose(np.abs(g.eval_many(w)), 1.0, atol=1e-12)
        wq = 0.5 * np.exp(1j * RNG.uniform(0, 2 * math.pi, 8))
        assert np.allclose(np.abs(g.eval_many(wq)), 0.25, atol=1e-12)

    @pytest.mark.parametrize(
        "q,k,theta,winding",
        [
            (0.5, 2.0, 0.0, 0),
            (0.5, 2.0, 0.9, 0),
            (0.25, 3.0, -0.4, 1),
            (0.7, 1.0, 2.0, 2),
        ],
    )
    def test_fd_cross_check(self, q, k, theta, winding):
        g = SpiralStretch(q, k, theta=theta, winding=winding)
        assert_fd_agrees(g, annulus_points(q))

    def test_invert_roundtrip(self):
        g = SpiralStretch(0.5, 2.0, theta=0.9)
        w = annulus_points(0.5)
        assert np.allclose(g.invert_many(g.eval_many(w)), w, atol=1e-12)

    def test_invert_refused_for_winding(self):
        g = SpiralStretch(0.5, 2.0, winding=1)
        with pytest.raises(UnsupportedVariantError):
            g.invert(0.5)

    def test_validation_messages(self):
        with pytest.raises(InputError, match=r"q must be in \(0, 1\)"):
            SpiralStretch(1.0, 2.0)
        with pytest.raises(InputError, match="k must be >= 1"):
            SpiralStretch(0.5, 0.5)
        with pytest.raises(InputError, match="winding"):
            SpiralStretch(0.5, 2.0, winding=-1)
        with pytest.raises(InputError, match="winding"):
            SpiralStretch(0.5, 2.0, winding=1.5)

    def test_domain_guard(self):
        g = SpiralStretch(0.5, 2.0)
        with pytest.raises(DomainError):
            g.eval(0.25)  # inside the hole
        with pytest.raises(DomainError):
            g.eval(1.2)

    def test_winding_label(self):
        assert SpiralStretch(0.5, 2.0, winding=2).label == "g2"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SpiralStretch(0.5, 2.0, 0.0, True), "winding"),
        (lambda: LinearStretch(True, 0.0), "k must be >= 1"),
        (lambda: RectangleDomain(True, True), "width"),
        (lambda: SpiralStretch(0.5, 2.0, math.inf), "theta"),
        (lambda: PiecewiseLinearStretch(2.0, math.nan), "eps must be > 0"),
        (lambda: SpiralStretch(0.5, np.int64(2)), None),
        (lambda: SpiralStretch(0.5, 2.0, 0.0, np.int64(2)), None),
        (lambda: SpiralStretch(np.float32(0.5), 2.0), None),
        (
            lambda: run_flat_gauge_ladder(
                np.float32(0.25), eps_values=(1e-3, 3e-3), n_radial=16, n_angular=8
            ),
            None,
        ),
    ],
    ids=[
        "bool-winding",
        "bool-k",
        "bool-rectangle",
        "inf-theta",
        "nan-eps",
        "numpy-int-k",
        "numpy-int-winding",
        "numpy-float32-q",
        "numpy-float32-alpha",
    ],
)
def test_scalar_parameter_validation(build, message):
    """Bools and non-finite values are refused; numpy scalars are accepted."""
    if message is None:
        assert build() is not None
    else:
        with pytest.raises(InputError, match=message):
            build()


class TestInverseSpiralStretch:
    def test_is_two_sided_inverse(self):
        g = SpiralStretch(0.5, 2.0, theta=1.1)
        h = InverseSpiralStretch(0.5, 2.0, theta=1.1)
        w = annulus_points(0.5)
        assert np.allclose(h.eval_many(g.eval_many(w)), w, atol=1e-12)
        u = annulus_points(0.25)
        assert np.allclose(g.eval_many(h.eval_many(u)), u, atol=1e-12)

    def test_fd_cross_check(self):
        h = InverseSpiralStretch(0.5, 2.0, theta=0.8)
        assert_fd_agrees(h, annulus_points(0.25))

    def test_distortion_matches_forward(self):
        g = SpiralStretch(0.5, 3.0, theta=0.4)
        h = InverseSpiralStretch(0.5, 3.0, theta=0.4)
        assert h.distortion == pytest.approx(g.distortion, rel=1e-12)


class TestPiecewiseRadialStretch:
    def test_validation(self):
        with pytest.raises(InputError, match="k must be > 1"):
            PiecewiseRadialStretch(0.5, 1.0, 0.01)
        with pytest.raises(InputError, match="eps must be > 0"):
            PiecewiseRadialStretch(0.5, 2.0, 0.0)
        with pytest.raises(InputError, match=r"eps must be < \(k-1\)\^2"):
            PiecewiseRadialStretch(0.5, 2.0, 1.0)

    def test_break_radii(self):
        g = PiecewiseRadialStretch(0.5, 2.0, 0.01)
        assert g.break_radius == pytest.approx(math.sqrt(0.5))
        assert g.break_radii() == (math.sqrt(0.5),)
        se = math.sqrt(0.01)
        assert g.image_break_radius == pytest.approx(0.5 ** ((2.0 + se) / 2.0))

    def test_continuity_at_break(self):
        g = PiecewiseRadialStretch(0.5, 2.0, 0.04)
        b = g.break_radius
        t = 0.77
        lo = g.eval(complex((b - 1e-11) * np.exp(1j * t)))
        hi = g.eval(complex((b + 1e-11) * np.exp(1j * t)))
        assert abs(lo - hi) < 1e-9

    def test_boundary_values_match_reference(self):
        g = PiecewiseRadialStretch(0.5, 2.0, 0.01)
        gstar = SpiralStretch(0.5, 2.0)
        for w in (np.exp(0.3j), 0.5 * np.exp(2.1j)):
            assert g.eval(complex(w)) == pytest.approx(
                gstar.eval(complex(w)), abs=1e-12
            )

    def test_fd_cross_check_both_pieces(self):
        g = PiecewiseRadialStretch(0.5, 2.0, 0.01)
        b = g.break_radius
        inner = np.array([0.55, 0.65]) * np.exp(1j * np.array([0.3, 4.0]))
        outer = np.array([0.75, 0.95]) * np.exp(1j * np.array([1.0, 5.5]))
        assert (np.abs(inner) < b).all() and (np.abs(outer) > b).all()
        assert_fd_agrees(g, inner)
        assert_fd_agrees(g, outer)

    def test_wirtinger_on_break_is_refused(self):
        g = PiecewiseRadialStretch(0.5, 2.0, 0.01)
        with pytest.raises(BreakSetError):
            g.wirtinger(complex(g.break_radius * np.exp(0.5j)))

    def test_distortion_by_piece(self):
        eps = 0.04
        g = PiecewiseRadialStretch(0.5, 2.0, eps)
        se = math.sqrt(eps)
        Kin, _ = g.wirtinger(complex(0.6 * np.exp(1j)))
        fz, fzb = g.wirtinger(complex(0.6 * np.exp(1j)))
        K_inner = (abs(fz) + abs(fzb)) / (abs(fz) - abs(fzb))
        assert K_inner == pytest.approx(2.0 - se, rel=1e-12)
        fz, fzb = g.wirtinger(complex(0.9 * np.exp(1j)))
        K_outer = (abs(fz) + abs(fzb)) / (abs(fz) - abs(fzb))
        assert K_outer == pytest.approx(2.0 + se, rel=1e-12)

    def test_invert_roundtrip(self):
        g = PiecewiseRadialStretch(0.5, 2.0, 0.01)
        w = annulus_points(0.5, n=10)
        assert np.allclose(g.invert_many(g.eval_many(w)), w, atol=1e-11)


class TestLinearFamilies:
    def test_fstar_constants(self):
        f = LinearStretch(2.0)
        assert f.label == "fstar"
        assert f.fz == (3.0 + 0.0j) / 2
        assert f.fzb == (1.0 + 0.0j) / 2
        assert f.mu == pytest.approx(1.0 / 3.0)
        assert f.jacobian == pytest.approx(2.0)

    def test_fstar_with_shear(self):
        f = LinearStretch(2.0, n=0.5)
        assert_fd_agrees(f, square_points())
        z = 0.3 + 0.4j
        assert f.eval(z) == pytest.approx(2.0 * 0.3 + 1j * (0.5 * 0.3 + 0.4))

    def test_inverse_linear(self):
        f = LinearStretch(2.0, n=0.7)
        h = InverseLinearStretch(2.0, n=0.7)
        z = square_points()
        assert np.allclose(h.eval_many(f.eval_many(z)), z, atol=1e-13)
        assert_fd_agrees(h, f.eval_many(z))

    def test_piecewise_linear(self):
        eps = 0.01
        f = PiecewiseLinearStretch(2.0, eps)
        assert f.label == "feps"
        assert f.break_abscissae() == (0.5,)
        se = math.sqrt(eps)
        # slope k+sqrt(eps) on the left, k-sqrt(eps) on the right
        assert f.eval(0.25 + 0.1j).real == pytest.approx((2 + se) * 0.25)
        left = f.eval(0.5 - 1e-12 + 0j)
        right = f.eval(0.5 + 1e-12 + 0j)
        assert abs(left - right) < 1e-10
        assert_fd_agrees(f, np.array([0.2 + 0.3j, 0.8 + 0.6j]))

    def test_piecewise_linear_invert(self):
        f = PiecewiseLinearStretch(2.0, 0.04)
        z = square_points(n=10)
        assert np.allclose(f.invert_many(f.eval_many(z)), z, atol=1e-12)

    def test_piecewise_linear_break_guard(self):
        f = PiecewiseLinearStretch(2.0, 0.01)
        with pytest.raises(BreakSetError):
            f.wirtinger(0.5 + 0.25j)

    def test_strip_domain_guard(self):
        # the affine reference map is global; only the piecewise family
        # is tied to the strip 0 <= x <= 1 where its break layout lives
        LinearStretch(2.0).eval(1.5 + 0.2j)
        f = PiecewiseLinearStretch(2.0, 0.01)
        with pytest.raises(DomainError):
            f.eval(1.5 + 0.2j)
        f.eval(0.5 + 3.7j - 0.25)  # y is unconstrained inside the strip


class TestCharts:
    def test_exp_chart_fd(self):
        e = ExpCoordinates(0.5)
        pts = square_points(width=e.ell, n=4)
        assert_fd_agrees(e, pts)

    def test_exp_chart_maps_strip_to_annulus(self):
        e = ExpCoordinates(0.5)
        z = square_points(width=e.ell, n=8)
        w = e.eval_many(z)
        r = np.abs(w)
        assert (r > 0.5 - 1e-12).all() and (r < 1 + 1e-12).all()

    def test_exp_invert_roundtrip(self):
        e = ExpCoordinates(0.5)
        z = square_points(width=e.ell, n=8)
        assert np.allclose(e.invert_many(e.eval_many(z)), z, atol=1e-12)

    def test_log_chart_roundtrip_when_winding_is_integral(self):
        # ell = 1 makes n*ell an integer for integer n, so F(G(w)) = w exactly
        q = math.exp(-2 * math.pi)
        gmap = LogCoordinatesG(q, 2.0, n=1.0)
        fmap = ExpCoordinatesF(q, 2.0)
        assert gmap.ell == pytest.approx(1.0)
        w = annulus_points(q**2, n=8)
        assert np.allclose(fmap.eval_many(gmap.eval_many(w)), w, atol=1e-10)

    def test_log_chart_roundtrip_breaks_without_integral_winding(self):
        q = math.exp(-2 * math.pi)
        gmap = LogCoordinatesG(q, 2.0, n=0.5)
        fmap = ExpCoordinatesF(q, 2.0)
        w = 0.3 * np.exp(0.8j)
        back = fmap.eval(complex(gmap.eval(complex(w))))
        # off by the phase exp(2*pi*i*n*ell) = exp(pi*i) = -1
        assert back == pytest.approx(-w, rel=1e-10)

    def test_log_chart_cut(self):
        q = 0.5
        gmap = LogCoordinatesG(q, 2.0)
        assert gmap.has_positive_real_cut
        with pytest.raises(BreakSetError):
            gmap.wirtinger(0.7 + 0j)
        # just off the cut is fine
        fz, fzb = gmap.wirtinger(0.7 + 1e-6j)
        assert fzb == 0.0
        assert fz == pytest.approx(1.0 / (2 * math.pi * (0.7 + 1e-6j)), rel=1e-9)

    def test_log_chart_ell_validation(self):
        with pytest.raises(InputError):
            LogCoordinatesG(0.5, 2.0, ell=0.3)  # inconsistent with q
        ok = LogCoordinatesG(0.5, 2.0, ell=math.log(2.0) / (2 * math.pi))
        assert ok.ell == pytest.approx(math.log(2.0) / (2 * math.pi))


class TestSmallMaps:
    def test_identity(self):
        m = IdentityMap()
        fz, fzb = m.wirtinger(0.3 + 0.2j)
        assert (fz, fzb) == (1.0 + 0j, 0.0 + 0j)
        assert m.eval(0.3 + 0.2j) == 0.3 + 0.2j

    def test_conjugation(self):
        m = ConjugationMap()
        fz, fzb = m.wirtinger(0.3 + 0.2j)
        assert (fz, fzb) == (0.0 + 0j, 1.0 + 0j)
        assert m.eval(1j) == -1j

    def test_rotation(self):
        r = Rotation(0.5)
        assert r.factor == pytest.approx(np.exp(0.5j))
        assert_fd_agrees(r, annulus_points(0.3))
        with pytest.raises(InputError):
            Rotation(float("inf"))


class TestComposition:
    def test_chain_rule_against_fd(self):
        inner = InverseSpiralStretch(0.5, 2.0)
        outer = PiecewiseRadialStretch(0.5, 2.0, 0.01)
        comp = Composition(outer, inner)
        pts = annulus_points(0.25, n=8)
        b = comp.break_radii()[0]
        pts = pts[np.abs(np.abs(pts) - b) > 1e-3]
        assert_fd_agrees(comp, pts)

    def test_break_pullback_through_inner(self):
        comp = Composition(
            PiecewiseRadialStretch(0.5, 2.0, 0.01),
            InverseSpiralStretch(0.5, 2.0),
        )
        # the inner map sends radius q^{k/2} to the outer map's break sqrt(q)
        assert comp.break_radii() == pytest.approx((0.5,))

    def test_label(self):
        comp = Composition(Rotation(0.3), LinearStretch(2.0))
        assert "fstar" in comp.label and "o" in comp.label

    def test_outer_cut_is_refused(self):
        with pytest.raises(UnsupportedVariantError, match="branch cut"):
            Composition(LogCoordinatesG(0.5, 2.0), IdentityMap())

    def test_invert_chains(self):
        comp = Composition(Rotation(0.4), SpiralStretch(0.5, 2.0))
        w = annulus_points(0.5)
        assert np.allclose(comp.invert_many(comp.eval_many(w)), w, atol=1e-12)

    def test_power_core_composition_collapses(self):
        # spiral(k1) then spiral-like scaling compose to the product exponent
        g1 = SpiralStretch(0.5, 2.0)
        g2 = Composition(ConjugationMap(), g1)
        w = annulus_points(0.5, n=4)
        assert np.allclose(g2.eval_many(w), np.conj(g1.eval_many(w)), atol=1e-13)


class TestFiniteDifferenceHelper:
    def test_rejects_bad_step(self):
        with pytest.raises(InputError):
            wirtinger_fd(IdentityMap(), 0.1 + 0.1j, h=0.0)

    def test_exact_on_identity(self):
        fz, fzb = wirtinger_fd(IdentityMap(), 0.2 + 0.7j)
        assert fz == pytest.approx(1.0, abs=1e-10)
        assert fzb == pytest.approx(0.0, abs=1e-10)
