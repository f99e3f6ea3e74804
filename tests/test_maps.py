"""Map families: analytic derivatives vs finite differences, inverses, breaks."""

import math

import numpy as np
import pytest

from qclab.errors import (
    BreakSetError,
    DomainError,
    InputError,
    UnsupportedVariantError,
    require_real,
)
from qclab.maps import (
    Composition,
    ConjugationMap,
    IdentityMap,
    InverseSpiralStretch,
    LinearStretch,
    PiecewiseLinearStretch,
    PiecewiseRadialStretch,
    Rotation,
    SpiralStretch,
)
from qclab.geometry import RectangleDomain
from qclab.stability import run_flat_gauge_ladder

# Each draw seeds its own generator, so a test's points do not depend on
# which tests ran before it.
SEED = 20260815


def annulus_points(q, n=6, pad=0.05):
    rng = np.random.default_rng(SEED)
    r = rng.uniform(q * (1 + pad), 1 - pad, size=n)
    t = rng.uniform(0.05, 2 * math.pi - 0.05, size=n)
    return r * np.exp(1j * t)


def square_points(width=1.0, n=6, pad=0.05):
    rng = np.random.default_rng(SEED)
    x = rng.uniform(pad, width - pad, size=n)
    y = rng.uniform(pad, 1 - pad, size=n)
    return x + 1j * y


def wirtinger_fd(family, z, h=1e-5):
    """Central-difference Wirtinger pair: the oracle for the closed forms.

    Refuses stencils that straddle a break circle or a break line, since a
    difference quotient across a discontinuity of the derivative estimates
    nothing.
    """
    require_real(h, "step h must be in (0, 1)", lambda v: 0.0 < v < 1.0)
    z = complex(z)
    stencil = [z + h, z - h, z + 1j * h, z - 1j * h, z]
    for breaks, coords, noun in (
        (family.break_radii(), [abs(p) for p in stencil], "circle |w|"),
        (family.break_abscissae(), [p.real for p in stencil], "line Re z"),
    ):
        for b in breaks:
            sides = [c - b for c in coords]
            if min(abs(s) for s in sides) <= 1e-12 or max(sides) > 0.0 > min(sides):
                raise BreakSetError(
                    f"finite-difference stencil at {z!r} straddles the break "
                    f"{noun} = {b!r}"
                )
    fx = (family.eval(z + h) - family.eval(z - h)) / (2.0 * h)
    fy = (family.eval(z + 1j * h) - family.eval(z - 1j * h)) / (2.0 * h)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def assert_fd_agrees(family, pts, h=1e-6, tol=5e-6):
    """Analytic Wirtinger pair vs the 5-point stencil, pointwise."""
    pts = np.atleast_1d(pts)
    for z, fz, fzb in zip(pts, *family.wirtinger_many(pts)):
        gz, gzb = wirtinger_fd(family, complex(z), h=h)
        scale = max(1.0, abs(fz), abs(fzb))
        assert abs(fz - gz) <= tol * scale, f"{family.label} f_z at {z}"
        assert abs(fzb - gzb) <= tol * scale, f"{family.label} f_zbar at {z}"


class TestSpiralStretch:
    def test_reference_label_and_distortion(self):
        g = SpiralStretch(0.5, 2.0)
        assert g.label == "gstar"
        assert g.distortion == pytest.approx(2.0, rel=1e-14)

    def test_boundary_values_fix_the_circles(self):
        g = SpiralStretch(0.5, 2.0, theta=0.7, winding=1)
        # |g| = |w|^k, and the twist keeps both boundary circles invariant
        rng = np.random.default_rng(SEED)
        w = np.exp(1j * rng.uniform(0, 2 * math.pi, 8))
        assert np.allclose(np.abs(g.eval_many(w)), 1.0, atol=1e-12)
        wq = 0.5 * np.exp(1j * rng.uniform(0, 2 * math.pi, 8))
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
            g.wirtinger_many(g.break_radius * np.exp(0.5j))

    def test_distortion_by_piece(self):
        eps = 0.04
        g = PiecewiseRadialStretch(0.5, 2.0, eps)
        se = math.sqrt(eps)
        (fz,), (fzb,) = g.wirtinger_many(0.6 * np.exp(1j))
        K_inner = (abs(fz) + abs(fzb)) / (abs(fz) - abs(fzb))
        assert K_inner == pytest.approx(2.0 - se, rel=1e-12)
        (fz,), (fzb,) = g.wirtinger_many(0.9 * np.exp(1j))
        K_outer = (abs(fz) + abs(fzb)) / (abs(fz) - abs(fzb))
        assert K_outer == pytest.approx(2.0 + se, rel=1e-12)



class TestLinearFamilies:
    def test_fstar_constants(self):
        f = LinearStretch(2.0)
        assert f.label == "fstar"
        assert f.fz == (3.0 + 0.0j) / 2
        assert f.fzb == (1.0 + 0.0j) / 2
        assert f.mu == pytest.approx(1.0 / 3.0)

    def test_fstar_with_shear(self):
        f = LinearStretch(2.0, n=0.5)
        assert_fd_agrees(f, square_points())
        z = 0.3 + 0.4j
        assert f.eval(z) == pytest.approx(2.0 * 0.3 + 1j * (0.5 * 0.3 + 0.4))

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

    def test_piecewise_linear_break_guard(self):
        f = PiecewiseLinearStretch(2.0, 0.01)
        with pytest.raises(BreakSetError):
            f.wirtinger_many(0.5 + 0.25j)

    def test_strip_domain_guard(self):
        # the affine reference map is global; only the piecewise family
        # is tied to the strip 0 <= x <= 1 where its break layout lives
        LinearStretch(2.0).eval(1.5 + 0.2j)
        f = PiecewiseLinearStretch(2.0, 0.01)
        with pytest.raises(DomainError):
            f.eval(1.5 + 0.2j)
        f.eval(0.5 + 3.7j - 0.25)  # y is unconstrained inside the strip


@pytest.mark.parametrize(
    "family, top",
    [
        (PiecewiseLinearStretch(2.0, 0.01), 1.0 + 1e-9),
    ],
    ids=["feps"],
)
def test_strip_accepts_its_closed_interval_with_tolerance(family, top):
    for x in (-1e-9, top):
        family.eval(complex(x, 0.5))
    for x in (np.nextafter(-1e-9, -1.0), np.nextafter(top, 2.0)):
        with pytest.raises(DomainError, match="outside the strip"):
            family.eval(complex(x, 0.5))


class TestSmallMaps:
    def test_identity(self):
        m = IdentityMap()
        (fz,), (fzb,) = m.wirtinger_many(0.3 + 0.2j)
        assert (fz, fzb) == (1.0 + 0j, 0.0 + 0j)
        assert m.eval(0.3 + 0.2j) == 0.3 + 0.2j

    def test_conjugation(self):
        m = ConjugationMap()
        (fz,), (fzb,) = m.wirtinger_many(0.3 + 0.2j)
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

    @pytest.mark.parametrize(
        "outer, inner",
        [
            (PiecewiseLinearStretch(2.0, 0.01), LinearStretch(2.0)),
            (PiecewiseRadialStretch(0.5, 2.0, 0.01), SpiralStretch(0.5, 2.0)),
        ],
        ids=["break-line", "break-circle"],
    )
    def test_unpullable_outer_breaks_are_refused(self, outer, inner):
        # only InverseSpiralStretch and Rotation pull break radii back, and
        # no family pulls break lines back
        with pytest.raises(UnsupportedVariantError, match="cannot pull back"):
            Composition(outer, inner)

    def test_inner_break_lines_are_kept(self):
        comp = Composition(Rotation(-1.1), PiecewiseLinearStretch(3.0, 0.25))
        assert comp.break_abscissae() == (0.5,)

    def test_label(self):
        comp = Composition(Rotation(0.3), LinearStretch(2.0))
        assert "fstar" in comp.label and "o" in comp.label

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

    def test_refuses_stencils_across_a_break(self):
        g = PiecewiseRadialStretch(0.5, 2.0, 0.01)
        with pytest.raises(BreakSetError, match="break circle"):
            wirtinger_fd(g, g.break_radius + 1e-7)


# Bits of every exported family on fixed points, as ``float.hex`` strings
# ("re im" per point).
ANNULUS = (0.55 + 0.3j, -0.4 + 0.75j, 0.2 - 0.9j)  # radii 0.63, 0.85, 0.92
WIDE = (0.3 + 0.2j, -0.55 - 0.3j, 0.1 + 0.95j)  # radii 0.36, 0.63, 0.96
SQUARE = (0.05 + 0.3j, 0.3 + 0.9j, 0.8 + 0.1j)
PLANE = (0.3 + 0.2j, -1.7 + 0.4j, 2.5 - 3.0j)
GOLDEN_CASES = {
    # name: (family, eval/wirtinger points)
    "spiral": (SpiralStretch(0.5, 2.0, 0.7, 0), ANNULUS),
    "spiral-winding": (SpiralStretch(0.4, 1.5, -0.3, 2), (0.5 + 0.3j,) + ANNULUS[1:]),
    "inverse-spiral": (InverseSpiralStretch(0.5, 2.0, 0.7), WIDE),
    "piecewise-radial": (PiecewiseRadialStretch(0.5, 2.0, 0.01), ANNULUS),
    "linear": (LinearStretch(2.0, 0.3), PLANE),
    "piecewise-linear": (PiecewiseLinearStretch(2.0, 0.01), SQUARE),
    "rotation": (Rotation(0.5), PLANE),
    "identity": (IdentityMap(), PLANE),
    "conjugation": (ConjugationMap(), PLANE),
    "composition": (
        Composition(PiecewiseRadialStretch(0.5, 2.0, 1e-3), InverseSpiralStretch(0.5, 2.0, 0.0)),
        WIDE,
    ),
}
GOLDEN_MAPS = {
    "spiral": {
        "eval": ('0x1.c55cdbc214e48p-3 0x1.4be57cf607e1bp-2', '-0x1.c224646bb1f4bp-2 0x1.2592201945981p-1', '0x1.01d447817eb98p-2 -0x1.9fab100c9adb3p-1'),
        "fz": ('0x1.f62abb5763bcfp-1 0x1.2a7c117595a3bp-3', '0x1.53f75d30727d3p+0 -0x1.b88c9ef195b96p-3', '0x1.6a9badc68669fp+0 -0x1.6705cd971af68p-2'),
        "fzb": ('0x1.624e5ea9023c3p-2 0x1.1ededfb6fbf7dp-2', '-0x1.221c8c2a29c4dp-1 -0x1.ac7fb88f59da8p-3', '-0x1.4333d6444c15ep-1 0x1.671246b055d5dp-3'),
    },
    "spiral-winding": {
        "eval": ('0x1.511ff61ed5200p-5 0x1.c5fd6ae6b9e3ap-2', '-0x1.6fb60e5d5efc5p-2 -0x1.64a1c408c87cap-1', '0x1.b581ab55107cdp-1 -0x1.d9a0761e6b7bcp-3'),
        "fz": ('0x1.2be18b69a545ep+2 -0x1.20809a2919fbcp+1', '0x1.1af146a74c639p+2 0x1.1d40b46d78248p+2', '0x1.8ff3c6ce0bef2p+2 -0x1.ebff44020b3a2p+0'),
        "fzb": ('0x1.21905d8255fb9p+2 0x1.3155890531d9cp+1', '0x1.4436c03f798d3p-2 -0x1.8ab4a7d665fbap+2', '-0x1.9b9990c142873p+2 0x1.b5a71d59d48edp-5'),
    },
    "inverse-spiral": {
        "eval": ('0x1.329ebea801778p-1 0x1.664cc40b85ec1p-5', '-0x1.874c0f4901e2ap-1 -0x1.a5caef50e46f9p-3', '0x1.ff013420db471p-4 0x1.f051ae34616c2p-1'),
        "fz": ('0x1.4b49de63607b3p+0 -0x1.fec35ec28ada8p-3', '0x1.fde334aed012dp-1 0x1.6a589c380e104p-4', '0x1.8bd81a6224218p-1 0x1.ec90a9b32c406p-3'),
        "fzb": ('-0x1.2c6d5a5807534p-1 0x1.38c608b63e7d4p-4', '-0x1.cb7d141ccc605p-2 0x1.97fb22cc3148fp-7', '0x1.83a0f4948e1f2p-3 -0x1.3dd2c833b4c1bp-2'),
    },
    "piecewise-radial": {
        "eval": ('0x1.58f992deef0d6p-2 0x1.785614961c0e9p-3', '-0x1.568c27191ae30p-2 0x1.412364a78934dp-1', '0x1.76938be1d26d8p-3 -0x1.a565fd5e0cbb3p-1'),
        "fz": ('0x1.c6bd58e00c91bp-1 0x0.0p+0', '0x1.4bd7c5e0520bfp+0 0x0.0p+0', '0x1.6adeef82c3da1p+0 -0x1.0f0f0f0f0f0f1p-54'),
        "fzb": ('0x1.319f966cdc15bp-3 0x1.da9d7a2a8f007p-3', '-0x1.06647e0f5ae82p-2 -0x1.8724e86feede0p-2', '-0x1.d29161cfde93cp-2 -0x1.b44572bbb8d9fp-3'),
    },
    "linear": {
        "eval": ('0x1.3333333333333p-1 0x1.28f5c28f5c290p-2', '-0x1.b333333333333p+1 -0x1.c28f5c28f5c28p-4', '0x1.4000000000000p+2 -0x1.2000000000000p+1'),
        "fz": ('0x1.8000000000000p+0 0x1.3333333333333p-3', '0x1.8000000000000p+0 0x1.3333333333333p-3', '0x1.8000000000000p+0 0x1.3333333333333p-3'),
        "fzb": ('0x1.0000000000000p-1 0x1.3333333333333p-3', '0x1.0000000000000p-1 0x1.3333333333333p-3', '0x1.0000000000000p-1 0x1.3333333333333p-3'),
    },
    "piecewise-linear": {
        "eval": ('0x1.ae147ae147ae2p-4 0x1.3333333333333p-2', '0x1.428f5c28f5c29p-1 0x1.ccccccccccccdp-1', '0x1.9eb851eb851ecp+0 0x1.999999999999ap-4'),
        "fz": ('0x1.8cccccccccccdp+0 0x0.0p+0', '0x1.8cccccccccccdp+0 0x0.0p+0', '0x1.7333333333333p+0 0x0.0p+0'),
        "fzb": ('0x1.199999999999ap-1 0x0.0p+0', '0x1.199999999999ap-1 0x0.0p+0', '0x1.cccccccccccccp-2 0x0.0p+0'),
    },
    "rotation": {
        "eval": ('0x1.56d063f82fa66p-3 0x1.470228bd4b3e8p-2', '-0x1.af046110877e9p+0 -0x1.db204c09cbf71p-2', '0x1.d0ed02f95508cp+1 -0x1.6f26ac0da5842p+0'),
        "fz": ('0x1.c1528065b7d50p-1 0x1.eaee8744b05f0p-2', '0x1.c1528065b7d50p-1 0x1.eaee8744b05f0p-2', '0x1.c1528065b7d50p-1 0x1.eaee8744b05f0p-2'),
        "fzb": ('0x0.0p+0 0x0.0p+0', '0x0.0p+0 0x0.0p+0', '0x0.0p+0 0x0.0p+0'),
    },
    "identity": {
        "eval": ('0x1.3333333333333p-2 0x1.999999999999ap-3', '-0x1.b333333333333p+0 0x1.999999999999ap-2', '0x1.4000000000000p+1 -0x1.8000000000000p+1'),
        "fz": ('0x1.0000000000000p+0 0x0.0p+0', '0x1.0000000000000p+0 0x0.0p+0', '0x1.0000000000000p+0 0x0.0p+0'),
        "fzb": ('0x0.0p+0 0x0.0p+0', '0x0.0p+0 0x0.0p+0', '0x0.0p+0 0x0.0p+0'),
    },
    "conjugation": {
        "eval": ('0x1.3333333333333p-2 -0x1.999999999999ap-3', '-0x1.b333333333333p+0 -0x1.999999999999ap-2', '0x1.4000000000000p+1 0x1.8000000000000p+1'),
        "fz": ('0x0.0p+0 0x0.0p+0', '0x0.0p+0 0x0.0p+0', '0x0.0p+0 0x0.0p+0'),
        "fzb": ('0x1.0000000000000p+0 0x0.0p+0', '0x1.0000000000000p+0 0x0.0p+0', '0x1.0000000000000p+0 0x0.0p+0'),
    },
    "composition": {
        "eval": ('0x1.316d2e6358804p-2 0x1.973c3dd9cb55bp-3', '-0x1.17869135b9ee0p-1 -0x1.30efe43a9c496p-2', '0x1.994db88783c8dp-4 0x1.e60c4b20ec7e6p-1'),
        "fz": ('0x1.f90511af8bfdap-1 -0x1.c8a6123de5f4ap-55', '0x1.001f88b29413bp+0 -0x1.edc129c86f2f4p-55', '0x1.01d64ee389c72p+0 -0x1.a85b754360792p-56'),
        "fzb": ('-0x1.8c3e517f9b580p-9 -0x1.db7dfb65ed980p-8', '0x1.167015527d520p-8 0x1.b065c6c25c340p-8', '-0x1.fa6294d418280p-8 0x1.af351c7e1bb80p-10'),
    },
}


def _hex(values):
    return tuple(f"{float(v.real).hex()} {float(v.imag).hex()}" for v in values)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_map_bits_are_pinned(name):
    family, pts = GOLDEN_CASES[name]
    pts = np.asarray(pts, dtype=np.complex128)
    fz, fzb = family.wirtinger_many(pts)
    got = {"eval": _hex(family.eval_many(pts)), "fz": _hex(fz), "fzb": _hex(fzb)}
    assert got == GOLDEN_MAPS[name]


def test_every_exported_family_is_pinned():
    from qclab import maps

    pinned = {type(family).__name__ for family, _ in GOLDEN_CASES.values()}
    families = {
        name
        for name in maps.__all__
        if isinstance(getattr(maps, name), type)
        and issubclass(getattr(maps, name), maps.MapFamily)
        and name != "MapFamily"
    }
    assert families <= pinned


ROTATION_EQUIVARIANT = {
    "spiral",
    "spiral-winding",
    "inverse-spiral",
    "piecewise-radial",
    "rotation",
    "identity",
    "composition",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_rotation_equivariant_flag(name):
    family, pts = GOLDEN_CASES[name]
    assert family.rotation_equivariant is (name in ROTATION_EQUIVARIANT)
    if family.rotation_equivariant:
        pts = np.asarray(pts, dtype=np.complex128)
        turn = np.exp(0.9j)
        np.testing.assert_allclose(
            family.eval_many(turn * pts), turn * family.eval_many(pts), rtol=1e-13
        )


def test_composition_is_equivariant_when_both_parts_are():
    spiral = SpiralStretch(0.5, 2.0, 0.3)
    assert Composition(spiral, Rotation(0.4)).rotation_equivariant
    assert Composition(Rotation(0.4), spiral).rotation_equivariant
    assert not Composition(spiral, ConjugationMap()).rotation_equivariant
    assert not Composition(ConjugationMap(), spiral).rotation_equivariant
