"""Domains, break-aware partitions, and the deterministic quadrature grid."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import cartesian, polar
from qclab._kernels import ordered_dot, ordered_sums
from qclab.errors import InputError, NonFiniteSampleError
from qclab.functionals import Density, _sampled, mean_distortion
from qclab.gauges import ConvexGauge
from qclab.geometry import (
    AnnulusDomain,
    QuadratureGrid,
    RectangleDomain,
    build_cartesian_grid,
    build_polar_grid,
    integrate,
    integrate_complex,
)
from qclab.maps import IdentityMap, SpiralStretch
from qclab.pompeiu import annulus_trace, offset_targets
from qclab.stability import audit_taylor, audit_theta


class TestDomains:
    def test_annulus_area(self):
        dom = AnnulusDomain(0.5)
        assert dom.area == pytest.approx(math.pi * 0.75, rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_annulus_rejects_bad_radius(self, bad):
        with pytest.raises(InputError):
            AnnulusDomain(bad)

    def test_rectangle_area(self):
        assert RectangleDomain(2.0).area == pytest.approx(2.0)
        assert RectangleDomain(2.0, height=0.5).area == pytest.approx(1.0)

    def test_rectangle_rejects_nonpositive(self):
        with pytest.raises(InputError):
            RectangleDomain(0.0)
        with pytest.raises(InputError):
            RectangleDomain(1.0, height=-1.0)


class TestBreakHandling:
    def test_break_on_existing_edge_is_snapped(self):
        # 0.625 is an edge of the uniform 4-cell partition of [0.25, 1]
        g = build_polar_grid(AnnulusDomain(0.25), 4, 8, breaks=(0.625,))
        assert g.n_primary == 4
        assert 0.625 in g.primary_edges

    def test_interior_break_is_inserted(self):
        b = math.sqrt(0.5)
        g = build_polar_grid(AnnulusDomain(0.5), 8, 8, breaks=(b,))
        assert g.n_primary == 9
        assert np.isclose(g.primary_edges, b).any()
        assert g.mandatory_breaks == (b,)

    def test_breaks_may_come_from_a_generator(self):
        # read once: the partition and mandatory_breaks see the same breaks
        g = build_polar_grid(AnnulusDomain(0.5), 8, 8, breaks=(b for b in [0.7]))
        assert g.n_primary == 9
        assert g.mandatory_breaks == (0.7,)

    def test_nearly_on_edge_break_replaces_the_edge(self):
        edge = 0.25 + 3 * (0.75 / 4)  # third interior edge of [0.25, 1] / 4
        shifted = edge * (1.0 + 1e-14)
        g = build_polar_grid(AnnulusDomain(0.25), 4, 8, breaks=(shifted,))
        assert g.n_primary == 4
        assert shifted in g.primary_edges

    @pytest.mark.parametrize("bad", [0.25, 1.0, 0.1, 1.3])
    def test_break_must_be_strictly_inside(self, bad):
        with pytest.raises(InputError):
            build_polar_grid(AnnulusDomain(0.25), 8, 8, breaks=(bad,))

    def test_cartesian_break(self):
        g = build_cartesian_grid(RectangleDomain(1.0), 5, 4, breaks=(0.5,))
        assert g.n_primary == 6
        assert np.isclose(g.primary_edges, 0.5).any()


class TestGridInvariants:
    def test_polar_weights_sum_to_area(self):
        for n_r, n_t in [(7, 5), (64, 64), (13, 128)]:
            g = build_polar_grid(AnnulusDomain(0.3), n_r, n_t)
            assert math.fsum(g.weights.tolist()) == pytest.approx(
                g.domain.area, rel=1e-12
            )

    def test_cartesian_weights_sum_to_area(self):
        g = build_cartesian_grid(RectangleDomain(2.0, height=0.7), 11, 9)
        assert math.fsum(g.weights.tolist()) == pytest.approx(1.4, rel=1e-12)

    def test_area_exact_with_breaks(self):
        g = build_polar_grid(AnnulusDomain(0.5), 16, 32, breaks=(math.sqrt(0.5),))
        assert math.fsum(g.weights.tolist()) == pytest.approx(
            g.domain.area, rel=1e-12
        )

    def test_primary_slow_secondary_fast_ordering(self):
        g = build_polar_grid(AnnulusDomain(0.5), 3, 4)
        radii = np.abs(g.centers).reshape(3, 4)
        # constant radius along each secondary row
        assert np.allclose(radii, radii[:, :1])

    def test_secondary_span(self):
        assert polar(0.5, 4, 4).secondary_span == pytest.approx(2 * math.pi)
        assert cartesian(2.0, 4, 4).secondary_span == pytest.approx(1.0)

    def test_all_weights_positive(self):
        g = polar(0.25, 32, 32)
        assert (g.weights > 0).all()


class TestGridPartition:
    """A grid stores only its partition; centers and weights are derived."""

    # 0.625 snaps onto an edge of the uniform partition of [0.25, 1] / 4;
    # sqrt(1/2) is inserted between two edges
    SNAPPED = 0.625 * (1.0 + 1e-14)
    BREAKS = (math.sqrt(0.5), SNAPPED)

    def test_partition_bits_with_snapped_and_inserted_breaks(self):
        g = polar(0.25, 4, 8, self.BREAKS)
        assert [x.hex() for x in g.primary_edges.tolist()] == [
            "0x1.0000000000000p-2", "0x1.c000000000000p-2",
            "0x1.4000000000038p-1", "0x1.6a09e667f3bcdp-1",
            "0x1.a000000000000p-1", "0x1.0000000000000p+0",
        ]
        assert g.mandatory_breaks == (self.SNAPPED, math.sqrt(0.5))

    @pytest.mark.parametrize("kind,cases", [
        ("polar", {
            0: ("0x1.4534a1e72c120p-2", "0x1.0d68bd2981474p-3", "0x1.9eb0b2ee64e81p-5"),
            13: ("-0x1.a05c0d119942fp-3", "-0x1.f69728c25b64cp-2", "0x1.40714472654cbp-4"),
            27: ("-0x1.6768314cf01e2p-1", "0x1.29be151a4911cp-2", "0x1.019c501fbace1p-4"),
            39: ("0x1.acae1b3c5d006p-1", "-0x1.63215670e498cp-2", "0x1.11518d34656a6p-3"),
        }),
        ("cartesian", {
            0: ("0x1.999999999999ap-3", "0x1.dddddddddddddp-4", "0x1.7e4b17e4b17e4p-4"),
            7: ("0x1.b333333333334p-1", "0x1.6666666666666p-2", "0x1.7e4b17e4b17e3p-6"),
            17: ("0x1.ccccccccccccdp+0", "0x1.2aaaaaaaaaaaap-1", "0x1.7e4b17e4b17e3p-4"),
        }),
    ])
    def test_centers_and_weights_bits_are_pinned(self, kind, cases):
        # (center.real, center.imag, weight) per cell, as built when grids
        # stored them
        if kind == "polar":
            g = polar(0.25, 4, 8, self.BREAKS)
        else:
            g = build_cartesian_grid(RectangleDomain(2.0, 0.7), 5, 3, breaks=(0.9,))
        assert g.centers.shape == g.weights.shape == (g.n_cells,)
        for i, (re, im, w) in cases.items():
            c = complex(g.centers[i])
            assert (c.real.hex(), c.imag.hex(), float(g.weights[i]).hex()) == (re, im, w)

    def test_edges_must_span_the_domain(self):
        with pytest.raises(InputError, match="weights sum to"):
            QuadratureGrid(AnnulusDomain(0.5), np.linspace(0.5, 0.9, 5), 4, ())
        with pytest.raises(InputError, match="weights sum to"):
            QuadratureGrid(RectangleDomain(2.0), np.linspace(0.0, 1.0, 3), 4, ())

    def test_edges_off_the_domain_are_refused_at_the_right_area(self):
        # rings from 0.25 to 0.90 cover pi * (0.8125 - 0.0625) = pi * (1 - 0.25),
        # and abscissae from 0.25 to 1.25 cover 1: each weight sum matches the
        # area, so only the edge check can refuse them
        with pytest.raises(InputError, match="primary edges span"):
            QuadratureGrid(AnnulusDomain(0.5), np.linspace(0.25, math.sqrt(0.8125), 9), 8, ())
        with pytest.raises(InputError, match="primary edges span"):
            QuadratureGrid(RectangleDomain(1.0), np.linspace(0.25, 1.25, 5), 4, ())

    def test_edges_must_increase(self):
        edges = np.array([0.5, 0.8, 0.7, 1.0])
        with pytest.raises(InputError, match="must be positive"):
            QuadratureGrid(AnnulusDomain(0.5), edges, 4, ())

    def test_domain_sets_the_coordinate_kind(self):
        assert polar(0.5, 4, 4).coordinate_kind == "polar"
        assert cartesian(1.0, 4, 4).coordinate_kind == "cartesian"
        # radial edges on a rectangle whose area a polar rule would match
        # are read as abscissae, and their cartesian weights miss the area
        with pytest.raises(InputError, match="weights sum to"):
            QuadratureGrid(RectangleDomain(0.75 * math.pi), np.linspace(0.5, 1.0, 5), 4, ())
        with pytest.raises(InputError, match="AnnulusDomain or a RectangleDomain"):
            QuadratureGrid(object(), np.linspace(0.0, 1.0, 5), 4, ())

    def test_ring_path_allocates_no_per_cell_array(self):
        # a 1024x1024 grid's centers and weights alone are 25 MB
        gauge = ConvexGauge.square()
        family = SpiralStretch(0.5, 2.0, 0.3)
        tracemalloc.start()
        try:
            g = build_polar_grid(AnnulusDomain(0.5), 1024, 1024)
            mean_distortion(family, gauge, g, Density.INVERSE_SQUARE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestIntegration:
    def test_integrate_constant_returns_area(self):
        g = polar(0.5, 64, 64)
        ones = np.ones(g.n_cells)
        assert integrate(g, ones) == pytest.approx(g.domain.area, rel=1e-12)

    def test_integrate_complex(self):
        g = cartesian(1.0, 32, 32)
        vals = np.full(g.n_cells, 1.0 + 2.0j)
        out = integrate_complex(g, vals)
        assert out == pytest.approx(1.0 + 2.0j, rel=1e-12)

    def test_integrate_refuses_complex_samples(self):
        # numpy would keep only the real parts (area 0.75*pi -> 2.356)
        g = polar(0.5, 32, 32)
        with pytest.raises(InputError, match="integrate_complex"):
            integrate(g, np.full(g.n_cells, 1.0 + 2.0j))

    def test_integrate_shape_mismatch(self):
        g = polar(0.5, 4, 4)
        with pytest.raises(InputError):
            integrate(g, np.ones(5))

    def test_polar_moment_matches_closed_form(self):
        # integral of |w|^2 over the annulus = 2*pi*(1 - q^4)/4
        q = 0.5
        g = polar(q, 256, 16)
        vals = np.abs(g.centers) ** 2
        want = 2 * math.pi * (1 - q**4) / 4
        assert integrate(g, vals) == pytest.approx(want, rel=1e-5)


class TestRings:
    def test_ring_points_are_the_built_midpoints(self):
        g = polar(0.5, 9, 8, breaks=(math.sqrt(0.5),))
        r = g.primary_mid
        edges = g.primary_edges
        assert r.tolist() == (0.5 * (edges[:-1] + edges[1:])).tolist()
        ((pts, _),) = _sampled((SpiralStretch(0.5, 2.0),), (g,), lambda jet: jet[1])
        assert pts.tolist() == (r + 0j).tolist()
        np.testing.assert_allclose(
            np.abs(g.centers).reshape(g.n_primary, g.n_secondary),
            np.broadcast_to(r[:, None], (g.n_primary, g.n_secondary)),
            rtol=4e-16,
        )

    def test_integrate_rings_matches_broadcast_integrate(self):
        g = polar(0.3, 13, 6, breaks=(0.55,))
        ring_values = np.cos(g.primary_mid) + 2.0
        want = integrate(g, np.repeat(ring_values, g.n_secondary))
        assert integrate(g, ring_values) == pytest.approx(want, rel=1e-15)

    def test_nonfinite_ring_is_reported_at_its_first_cell(self):
        g = polar(0.5, 4, 8)
        vals = np.ones(g.n_primary)
        vals[2] = np.nan
        with pytest.raises(NonFiniteSampleError) as err:
            integrate(g, vals)
        assert err.value.cell_index == 16
        assert err.value.center == complex(g.centers[16])
        assert "at cell 16 " in str(err.value)

    def test_nonfinite_ring_error_builds_no_cell_centres(self):
        # the ring path names the offending cell from its ring alone; the
        # grid's 1024x1024 centres would be 16 MB
        g = build_polar_grid(AnnulusDomain(0.5), 1024, 1024)
        vals = np.ones(g.n_primary)
        vals[700] = np.inf
        tracemalloc.start()
        try:
            with pytest.raises(NonFiniteSampleError) as err:
                integrate(g, vals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert err.value.cell_index == 700 * 1024
        assert "centers" not in g.__dict__
        assert err.value.center == complex(g.centers[700 * 1024])

    def test_rung_rows_have_their_one_rung_bits(self):
        g = polar(0.3, 13, 6, breaks=(0.55,))
        rng = np.random.default_rng(7)
        rows = rng.uniform(0.5, 2.0, size=(5, g.n_primary))
        got = integrate(g, rows)
        assert got.shape == (5,)
        assert [v.hex() for v in got.tolist()] == [integrate(g, r).hex() for r in rows]

    def test_nonfinite_ring_is_reported_for_the_first_offending_rung(self):
        g = polar(0.5, 4, 8)
        vals = np.ones((3, g.n_primary))
        vals[1, 3] = np.nan
        vals[2, 0] = np.inf
        with pytest.raises(NonFiniteSampleError) as err:
            integrate(g, vals)
        assert err.value.cell_index == 3 * 8
        assert "nan" in str(err.value)

    def test_integrate_rings_refuses_complex_samples(self):
        g = polar(0.5, 32, 32)
        with pytest.raises(InputError, match="integrate_complex"):
            integrate(g, np.full(g.n_primary, 1.0 + 2.0j))

    def test_rings_need_a_polar_grid_and_one_value_per_ring(self):
        with pytest.raises(InputError):
            integrate(cartesian(1.0, 4, 4), np.ones(4))
        with pytest.raises(InputError):
            integrate(polar(0.5, 4, 4), np.ones(8))


class TestShapeRule:
    """``integrate`` reads cell or ring samples by the length of the last axis."""

    def test_one_angular_cell_reads_cells_and_rings_alike(self):
        # n_cells == n_primary: either reading gives the same bits
        g = polar(0.3, 13, 1, breaks=(0.55,))
        v = np.random.default_rng(3).uniform(0.5, 2.0, g.n_cells)
        cells = ordered_dot(g.weights, v)
        rings = float(ordered_sums(g.line_weights * g.n_secondary * v))
        assert integrate(g, v).hex() == cells.hex() == rings.hex()

    @pytest.mark.parametrize("grid", [polar(0.5, 4, 3), cartesian(1.0, 4, 3)],
                             ids=["polar", "cartesian"])
    @pytest.mark.parametrize("n", [0, 5, 11, 13])
    def test_a_length_of_neither_count_is_refused(self, grid, n):
        message = r"expected 12 cell samples or, on a polar grid, 4 ring samples"
        with pytest.raises(InputError, match=message):
            integrate(grid, np.ones(n))
        with pytest.raises(InputError, match=message):
            integrate(grid, np.ones((2, n)))
        with pytest.raises(InputError, match=message):
            integrate(grid, 1.0)

    def test_stacked_cell_rows_have_their_one_row_bits(self):
        # the stack is past the kernels' along/across crossover, each row is not
        g = polar(0.5, 128, 128)
        rows = np.random.default_rng(11).uniform(-1.0, 2.0, size=(3, g.n_cells))
        got = integrate(g, rows)
        assert got.shape == (3,)
        assert [v.hex() for v in got.tolist()] == [integrate(g, r).hex() for r in rows]

    def test_nonfinite_cell_is_reported_for_the_first_offending_row(self):
        g = cartesian(1.0, 4, 4)
        rows = np.ones((3, g.n_cells))
        rows[1, 9] = np.nan
        rows[2, 2] = np.inf
        with pytest.raises(NonFiniteSampleError) as err:
            integrate(g, rows)
        assert err.value.cell_index == 9
        assert "nan" in str(err.value)

    @pytest.mark.parametrize("grid", [polar(0.25, 37, 129), cartesian(2.0, 512, 512)],
                             ids=["polar", "cartesian-512"])
    def test_integrate_complex_has_the_bits_of_two_dot_products(self, grid):
        rng = np.random.default_rng(5)
        v = rng.normal(size=grid.n_cells) + 1j * rng.normal(size=grid.n_cells)
        re = ordered_dot(grid.weights, np.ascontiguousarray(v.real))
        im = ordered_dot(grid.weights, np.ascontiguousarray(v.imag))
        got = integrate_complex(grid, v)
        assert (got.real.hex(), got.imag.hex()) == (re.hex(), im.hex())

    def test_integrate_complex_takes_one_row(self):
        # two rows of 6 cells must not be read as the 12 cells of this grid
        g = polar(0.5, 4, 3)
        with pytest.raises(InputError, match="one row of complex samples"):
            integrate_complex(g, np.ones((2, 6), dtype=complex))


class TestSampling:
    @pytest.mark.parametrize(
        "grid",
        [
            polar(0.25, 37, 129),
            polar(0.5, 16, 1000, breaks=(0.7,)),
            cartesian(2.0, 41, 77),
            cartesian(0.5, 9, 3, breaks=(0.125,)),
        ],
        ids=["polar", "polar-breaks", "cartesian", "cartesian-breaks"],
    )
    def test_one_center_has_the_bits_of_centers(self, grid):
        idx = [0, 1, grid.n_secondary - 1, grid.n_secondary, grid.n_cells // 2 + 3,
               grid.n_cells - 2, grid.n_cells - 1]
        want = grid.centers
        for i in idx:
            got = grid.center(i)
            assert (got.real.hex(), got.imag.hex()) == (want[i].real.hex(), want[i].imag.hex())
        for i in idx[:3]:  # the message and the error carry the same centre
            vals = np.ones(grid.n_cells)
            vals[i] = np.nan
            with pytest.raises(NonFiniteSampleError) as err:
                integrate(grid, vals)
            assert err.value.center == complex(want[i])
            assert f"(center {complex(want[i])!r})" in str(err.value)

    def test_nonfinite_sample_is_reported_with_location(self):
        g = cartesian(1.0, 4, 4)
        vals = np.ones(g.n_cells)
        vals[9] = np.inf
        with pytest.raises(NonFiniteSampleError) as err:
            integrate(g, vals)
        assert err.value.cell_index == 9
        assert err.value.center == complex(g.centers[9])

    def test_nonfinite_complex_sample_is_caught(self):
        g = cartesian(1.0, 4, 4)
        vals = np.ones(g.n_cells, dtype=np.complex128)
        vals[3] = 1.0 + 1j * np.nan
        with pytest.raises(NonFiniteSampleError):
            integrate_complex(g, vals)


class TestBuilderValidation:
    def test_polar_needs_annulus(self):
        with pytest.raises(InputError):
            build_polar_grid(RectangleDomain(1.0), 4, 4)

    def test_cartesian_needs_rectangle(self):
        with pytest.raises(InputError):
            build_cartesian_grid(AnnulusDomain(0.5), 4, 4)

    @pytest.mark.parametrize("n_r,n_t", [(0, 4), (4, 0), (-1, 4)])
    def test_positive_cell_counts(self, n_r, n_t):
        with pytest.raises(InputError):
            build_polar_grid(AnnulusDomain(0.5), n_r, n_t)


# Each entry point that takes a count, called with that count, keyed by the
# name its refusal gives the count (the CLI option that sets it, where one
# does) and, in brackets, the entry point when two share that name.
COUNTED = {
    "radial cells": lambda n: build_polar_grid(AnnulusDomain(0.5), n, 4),
    "horizontal cells": lambda n: build_cartesian_grid(RectangleDomain(1.0), n, 4),
    "angular cells": lambda n: build_polar_grid(AnnulusDomain(0.5), 4, n),
    "vertical cells": lambda n: build_cartesian_grid(RectangleDomain(1.0), 4, n),
    "nodes": lambda n: annulus_trace(IdentityMap(), AnnulusDomain(0.25), n),
    "points": lambda n: offset_targets(polar(0.5, 8, 8), n, 0),
    "samples (taylor)": lambda n: audit_taylor(ConvexGauge.parse("square"), samples=n),
    "samples (theta)": lambda n: audit_theta(samples=n),
}


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_counts_must_be_integers(name):
    # a float count once built a grid with a fractional cell count, or a trace
    # with one node more than asked for, without an error
    call = COUNTED[name]
    noun = name.split(" (")[0]
    call(np.int64(8))  # numpy integers are counts too
    for bad in (8.0, 8.5, True, math.nan):
        with pytest.raises(InputError, match=rf"\b{noun} must be an integer"):
            call(bad)


@pytest.mark.parametrize(
    "grid",
    [
        build_polar_grid(AnnulusDomain(0.5), 6, 8, breaks=[0.7]),
        build_cartesian_grid(RectangleDomain(1.0, 2.0), 6, 8, breaks=[0.3]),
    ],
    ids=["polar", "cartesian"],
)
def test_chart_inverts_point(grid):
    # the patches ``pompeiu._near_zones`` finds rest on this round trip, one
    # call for every target; a single point gives its entry of the array
    primary, secondary = grid.chart(grid.centers)
    for i, w in enumerate(grid.centers):
        line, cell = divmod(i, grid.n_secondary)
        assert primary[i] == pytest.approx(grid.primary_mid[line], rel=1e-12)
        assert secondary[i] == pytest.approx((cell + 0.5) * grid.secondary_step, rel=1e-12)
        assert grid.chart(w) == (primary[i], secondary[i])
