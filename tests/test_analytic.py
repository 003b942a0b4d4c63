"""Exact solution families: values, sampling, band limits, consistency."""

import math

import numpy as np
import pytest

from psmaxwell import (
    DomainSpec,
    MediumParams,
    StandingWave,
    TravelingWave,
    build_grid,
    dft3_forward,
    divergences,
    sample_initial,
    spectral_time_derivative,
)
from psmaxwell.analytic import sample_exact

from oracle import standing_wave_samples, traveling_wave_e_x, traveling_wave_e_x_longdouble

EPS = np.finfo(float).eps


def sparse_points(grid):
    """(z, y, x) collocation coordinates as broadcasting axes."""
    return np.meshgrid(grid.points_z, grid.points_y, grid.points_x, indexing="ij", sparse=True)


class TestStandingWave:
    def test_default_parameters(self):
        case = StandingWave()
        assert (case.k_x, case.k_y, case.k_z) == (1, 2, -3)
        assert case.omega == pytest.approx(math.sqrt(14.0), rel=1e-15)
        # omega^2 * eps * mu equals |k|^2 exactly by construction
        assert case.omega**2 * case.medium.eps * case.medium.mu == pytest.approx(
            14.0, rel=1e-15
        )

    def test_amplitudes_at_a_point(self):
        case = StandingWave()
        # A grid point where none of the axis factors vanishes.
        grid = build_grid(case.default_domain, 16, 16, 16)
        x, y, z = grid.points_x[3], grid.points_y[1], grid.points_z[5]
        point = sample_exact(case, grid, 0.0).reshape((6,) + grid.shape)[:, 5, 1, 3]
        e_x, e_y, e_z = point[:3]
        pre = 1.0 / math.sqrt(14.0)
        assert e_x == pytest.approx(
            5 * pre * np.cos(np.pi * x) * np.sin(2 * np.pi * y) * np.sin(-3 * np.pi * z),
            rel=1e-14,
        )
        assert e_y == pytest.approx(
            -4 * pre * np.sin(np.pi * x) * np.cos(2 * np.pi * y) * np.sin(-3 * np.pi * z),
            rel=1e-14,
        )
        assert e_z == pytest.approx(
            -1 * pre * np.sin(np.pi * x) * np.sin(2 * np.pi * y) * np.cos(-3 * np.pi * z),
            rel=1e-14,
        )

    def test_magnetic_field_vanishes_at_t0(self):
        case = StandingWave()
        h = sample_exact(case, build_grid(case.default_domain, 8, 8, 8), 0.0)[3:]
        np.testing.assert_array_equal(h, 0.0)

    def test_rejects_zero_wavevector(self):
        with pytest.raises(ValueError, match="nonzero"):
            StandingWave(0, 0, 0)

    @pytest.mark.parametrize(
        "k", [(math.inf, -math.inf, 0.0), (math.nan, 1, -1), (0.5, -0.5, 0)]
    )
    def test_rejects_non_integer_wavevector(self, k):
        # inf and NaN have no int(); they fail like any other non-integer.
        with pytest.raises(ValueError, match="finite integers"):
            StandingWave(*k)

    def test_rejects_unbalanced_wavevector(self):
        # Without a zero component sum the printed amplitudes do not solve
        # the curl equations.
        with pytest.raises(ValueError, match="sum to zero"):
            StandingWave(1, 2, 3)

    def test_rejects_mu_away_from_one(self):
        with pytest.raises(ValueError, match="mu"):
            StandingWave(medium=MediumParams(mu=2.0, eps=1.0))

    def test_allows_general_eps(self):
        case = StandingWave(medium=MediumParams(mu=1.0, eps=4.0))
        assert case.omega == pytest.approx(math.sqrt(14.0 / 4.0), rel=1e-15)


class TestTravelingWave:
    def test_values_at_origin(self):
        case = TravelingWave()
        values = sample_exact(case, build_grid(case.default_domain, 4, 4, 4), 0.0)[:, 0]
        expected = (1.0, -2.0, 1.0, math.sqrt(3.0), 0.0, -math.sqrt(3.0))
        assert values == pytest.approx(expected, rel=1e-15)

    def test_requires_unit_medium(self):
        with pytest.raises(ValueError, match="eps = mu = 1"):
            TravelingWave(medium=MediumParams(mu=1.0, eps=2.0))


class TestFactoredSamples:
    """Plane factors times z factors against the unfactored formulas."""

    @pytest.mark.parametrize("t", [0.0, 0.7, -3.3, 1e3])
    @pytest.mark.parametrize(
        "case",
        [StandingWave(), StandingWave(2, -1, -1, MediumParams(eps=0.5)),
         StandingWave(-4, 1, 3, MediumParams(eps=4.0))],
        ids=["default", "eps0.5", "eps4"],
    )
    def test_standing_samples_bitwise_component_products(self, case, t):
        domains = [
            (DomainSpec.cube(0.0, 2.0), (8, 8, 8)),
            (DomainSpec(0.0, 2.0, 0.0, 4.0, 0.0, 6.0), (12, 10, 16)),
            (DomainSpec.cube(0.0, 2.0), (32, 32, 32)),
        ]
        for domain, counts in domains:
            grid = build_grid(domain, *counts)
            z, y, x = sparse_points(grid)
            expected = standing_wave_samples(case, x, y, z, t).reshape(6, -1)
            got = sample_exact(case, grid, t)
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    # The other five rows are fixed multiples of e_x on both forms.  At
    # t >= 1e3 the float64 time phase dominates both errors; the rounding of
    # B = 2 pi z - 2 sqrt(3) pi t, which the factored form carries exactly,
    # is about half of the single cosine's error there.
    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= EPS, reason="long double is no wider than float64"
    )
    @pytest.mark.parametrize("t", [0.0, 0.7, 1e3, 1e4])
    @pytest.mark.parametrize(
        "counts", [(8, 8, 8), (16, 16, 16), (12, 10, 14), (64, 64, 64)],
        ids=lambda c: "x".join(map(str, c)),
    )
    def test_traveling_samples_no_further_than_single_cosine(self, counts, t):
        case = TravelingWave()
        grid = build_grid(case.default_domain, *counts)
        z, y, x = sparse_points(grid)
        reference = traveling_wave_e_x_longdouble(x, y, z, t).ravel()
        factored = float(np.max(np.abs(sample_exact(case, grid, t)[0] - reference)))
        single = float(np.max(np.abs(traveling_wave_e_x(x, y, z, t).ravel() - reference)))
        assert factored <= single + 4 * EPS
        if t >= 1e3:
            assert factored <= 0.6 * single


class TestSampleInitial:
    def test_traveling_shape_and_zero_component(self):
        case = TravelingWave()
        grid = build_grid(case.default_domain, 4, 4, 4)
        state = sample_initial(case, grid)
        assert state.data.shape == (6, 64)
        np.testing.assert_array_equal(state.data[4], 0.0)  # h_y
        assert state.time == 0.0

    def test_standing_initial_divergence_free(self):
        case = StandingWave()
        grid = build_grid(case.default_domain, 8, 8, 8)
        state = sample_initial(case, grid)
        _, _, div_e_norm, div_h_norm = divergences(state)
        assert div_e_norm <= 1e-12
        assert div_h_norm <= 1e-12

    def test_traveling_initial_divergence_free(self):
        case = TravelingWave()
        grid = build_grid(case.default_domain, 8, 8, 8)
        state = sample_initial(case, grid)
        _, _, div_e_norm, div_h_norm = divergences(state)
        assert div_e_norm <= 1e-12
        assert div_h_norm <= 1e-12

    def test_spectrum_confined_to_analytic_band(self):
        case = StandingWave()
        grid = build_grid(case.default_domain, 8, 8, 8)
        state = sample_initial(case, grid)
        allowed = {
            (mx % 8, my % 8, mz % 8)
            for mx in (1, -1)
            for my in (2, -2)
            for mz in (3, -3)
        }
        for spec in dft3_forward(grid, state.data).reshape((6,) + grid.spectral_shape):
            peak = np.max(np.abs(spec))
            if peak == 0.0:  # H components vanish at t = 0
                continue
            for mz in range(8):
                for my in range(8):
                    for mx in range(5):  # the half spectrum's kx >= 0 columns
                        if (mx, my, mz) not in allowed:
                            assert abs(spec[mz, my, mx]) <= 1e-12 * peak

    def test_under_resolved_grid_rejected(self):
        case = StandingWave()  # |k_z| = 3 needs n_z >= 8
        grid = build_grid(case.default_domain, 8, 8, 6)
        with pytest.raises(ValueError, match="alias"):
            sample_initial(case, grid)

    def test_traveling_needs_at_least_four_points(self):
        case = TravelingWave()
        grid = build_grid(case.default_domain, 4, 2, 4)
        with pytest.raises(ValueError, match="alias"):
            sample_initial(case, grid)

    def test_incommensurate_domain_rejected(self):
        case = TravelingWave()
        grid = build_grid(DomainSpec.cube(0.0, 1.5), 8, 8, 8)
        with pytest.raises(ValueError, match="not periodic"):
            sample_initial(case, grid)

    def test_commensurate_double_domain_accepted(self):
        # On [0, 2]^3 the traveling mode sits at index 2; n = 8 resolves it.
        case = TravelingWave()
        grid = build_grid(DomainSpec.cube(0.0, 2.0), 8, 8, 8)
        state = sample_initial(case, grid)
        _, _, div_e_norm, _ = divergences(state)
        assert div_e_norm <= 1e-11


class TestSemiDiscreteConsistency:
    """The sampled exact solutions satisfy the spectral ODE system."""

    def test_standing_time_derivative(self):
        case = StandingWave()
        grid = build_grid(case.default_domain, 8, 8, 8)
        state = sample_initial(case, grid)
        deriv = spectral_time_derivative(state)
        z, y, x = np.meshgrid(
            grid.points_z, grid.points_y, grid.points_x, indexing="ij"
        )
        omega = case.omega
        # d/dt at t = 0: E-rate vanishes, H-rate has amplitude omega*pi and
        # the spatial factors of H evaluated with k_z = -3 (sin is odd).
        expected_h = [
            omega * np.pi * np.sin(np.pi * x) * np.cos(2 * np.pi * y) * np.cos(3 * np.pi * z),
            omega * np.pi * np.cos(np.pi * x) * np.sin(2 * np.pi * y) * np.cos(3 * np.pi * z),
            -omega * np.pi * np.cos(np.pi * x) * np.cos(2 * np.pi * y) * np.sin(3 * np.pi * z),
        ]
        scale = omega * np.pi
        for got, ref in zip(deriv.data[3:], expected_h):
            assert np.max(np.abs(got - ref.ravel())) <= 1e-11 * scale
        for got in deriv.data[:3]:
            assert np.max(np.abs(got)) <= 1e-11 * scale

    def test_traveling_time_derivative(self):
        case = TravelingWave()
        grid = build_grid(case.default_domain, 8, 8, 8)
        state = sample_initial(case, grid)
        deriv = spectral_time_derivative(state)
        z, y, x = np.meshgrid(
            grid.points_z, grid.points_y, grid.points_x, indexing="ij"
        )
        rate = 2.0 * math.sqrt(3.0) * np.pi
        s = np.sin(2.0 * np.pi * (x + y + z)).ravel()
        sqrt3 = math.sqrt(3.0)
        expected = {
            "e": [rate * s, -2.0 * rate * s, rate * s],
            "h": [sqrt3 * rate * s, np.zeros_like(s), -sqrt3 * rate * s],
        }
        for got, ref in zip(deriv.data[:3], expected["e"]):
            assert np.max(np.abs(got - ref)) <= 1e-11 * rate
        for got, ref in zip(deriv.data[3:], expected["h"]):
            assert np.max(np.abs(got - ref)) <= 1e-11 * rate
