"""Domains, break-aware partitions, and the deterministic quadrature grid."""

import math

import numpy as np
import pytest

from conftest import cartesian, polar
from qclab.errors import InputError, NonFiniteSampleError
from qclab.geometry import (
    AnnulusDomain,
    ParallelogramDomain,
    RectangleDomain,
    build_cartesian_grid,
    build_polar_grid,
    integrate,
    integrate_complex,
)


class TestDomains:
    def test_annulus_area(self):
        dom = AnnulusDomain(0.5)
        assert dom.area == pytest.approx(math.pi * 0.75, rel=1e-15)
        assert dom.outer_radius == 1.0

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

    def test_parallelogram_base_validation(self):
        dom = ParallelogramDomain(2.0 + 0.5j)
        assert dom.area == pytest.approx(2.0)
        with pytest.raises(InputError):
            ParallelogramDomain(-1.0 + 0.5j)


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

    def test_locate_roundtrips_cell_centers(self):
        g = polar(0.5, 16, 16)
        for m in [0, 5, 16, 100, 255]:
            i, j = g.locate(complex(g.centers[m]))
            assert (i, j) == divmod(m, g.n_secondary)

    def test_secondary_span(self):
        assert polar(0.5, 4, 4).secondary_span == pytest.approx(2 * math.pi)
        assert cartesian(2.0, 4, 4).secondary_span == pytest.approx(1.0)

    def test_all_weights_positive(self):
        g = polar(0.25, 32, 32)
        assert (g.weights > 0).all()

    def test_cells_iterator_agrees_with_arrays(self):
        g = polar(0.5, 4, 4)
        cells = list(g.cells)
        assert len(cells) == g.n_cells
        assert cells[7].center == complex(g.centers[7])
        assert cells[7].weight == float(g.weights[7])


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


class TestSampling:
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
