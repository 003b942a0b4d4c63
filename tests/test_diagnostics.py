"""Inner products, invariants, drifts, and error metrics."""

import tracemalloc

import numpy as np
import pytest

from psmaxwell import (
    DomainSpec,
    FieldState,
    ImaginaryResidueError,
    InvariantReport,
    MediumParams,
    StandingWave,
    TravelingWave,
    apply_derivative,
    build_grid,
    dft3_forward,
    dft3_inverse,
    divergences,
    energies,
    error_norms,
    helicities,
    invariant_report,
    momenta,
    propagate,
    relative_change,
    sample_initial,
    spectral,
    spectral_time_derivative,
    to_spectral,
)
from psmaxwell.analytic import sample_exact
from psmaxwell.diagnostics import NEAR_ZERO_ABS

from conftest import random_band_limited_state, zero_state
from oracle import dense_curl, inner_product_N, standing_wave_samples, whole_array_error_norms


def _axis_coordinate(grid, axis):
    shape = [1, 1, 1]
    shape[2 - axis] = -1
    pts = (grid.points_x, grid.points_y, grid.points_z)[axis]
    return np.broadcast_to(pts.reshape(shape), grid.shape).ravel()


def _spectral_derivative(grid, values, axis):
    return dft3_inverse(grid, apply_derivative(grid, dft3_forward(grid, values), axis))


class TestInnerProduct:
    def test_normalization(self, grid8):
        ones = np.ones(grid8.n_total)
        assert inner_product_N(ones, ones) == pytest.approx(1.0, rel=1e-15)

    def test_discrete_orthogonality(self, grid8):
        x = _axis_coordinate(grid8, 0)
        u = np.sin(grid8.nu_x * x)
        v = np.cos(grid8.nu_x * x)
        assert abs(inner_product_N(u, v)) <= 1e-14

    def test_matches_brute_force_loop(self, grid4, rng):
        u = rng.standard_normal(grid4.n_total)
        v = rng.standard_normal(grid4.n_total)
        brute = 0.0
        for p in range(grid4.n_total):
            brute += u[p] * v[p]
        brute /= grid4.n_total
        got = inner_product_N(u, v)
        assert got == pytest.approx(brute, rel=1e-13)

    def test_grid_mismatch(self, grid4, grid8):
        u = np.zeros(grid4.n_total)
        v = np.zeros(grid8.n_total)
        with pytest.raises(ValueError, match="equal shapes"):
            inner_product_N(u, v)

    def test_conjugates_second_argument(self, grid4):
        u = np.full(grid4.n_total, 1.0 + 1.0j)
        v = np.full(grid4.n_total, 0.0 + 1.0j)
        assert inner_product_N(u, v) == pytest.approx(1.0 - 1.0j)


class TestTimeDerivative:
    def test_zero_state(self, grid4):
        deriv = spectral_time_derivative(zero_state(grid4))
        for arr in deriv.component_arrays():
            assert np.all(arr == 0.0)

    def test_divergence_of_rate_vanishes(self, grid4, rng):
        # dE/dt is a curl, and spectral derivatives commute, so its
        # divergence vanishes discretely for any state.
        state = random_band_limited_state(grid4, rng)
        deriv = spectral_time_derivative(state)
        _, _, div_e_norm, div_h_norm = divergences(deriv)
        assert div_e_norm <= 1e-12
        assert div_h_norm <= 1e-12

    def test_representation_follows_input(self, grid4, rng):
        state = random_band_limited_state(grid4, rng)
        assert spectral_time_derivative(state).representation == "physical"


class TestEnergies:
    def test_zero_state(self, grid4):
        e1, e2, e3, e4, e5, e6 = energies(zero_state(grid4))
        assert e1 == e2 == 0.0
        assert e3 == e4 == e5 == e6 == (0.0, 0.0, 0.0)

    def test_standing_wave_closed_forms(self):
        # Discrete means of squared single-harmonic factors are exactly 1/2,
        # giving E1 = 3/16, E2 = 21*pi^2/8, E3_k = 3*(k_w*pi)^2/16 summed with
        # the amplitude identity sum(a^2) = 3, E4_k = k_w^2 * 21*pi^4/8.
        case = StandingWave()
        grid = build_grid(case.default_domain, 8, 8, 8)
        state = sample_initial(case, grid)
        e1, e2, e3, e4, e5, e6 = energies(state)
        assert e1 == pytest.approx(3.0 / 16.0, rel=1e-13)
        assert e2 == pytest.approx(21.0 * np.pi**2 / 8.0, rel=1e-13)
        expected_e3 = tuple(3.0 * (k * np.pi) ** 2 / 16.0 for k in (1, 2, 3))
        expected_e4 = tuple(k**2 * 21.0 * np.pi**4 / 8.0 for k in (1, 2, 3))
        assert e3 == pytest.approx(expected_e3, rel=1e-12)
        assert e4 == pytest.approx(expected_e4, rel=1e-12)
        # Mixed forms <u, D_k u> vanish identically for real fields.
        assert max(abs(v) for v in e5) <= 1e-12
        assert max(abs(v) for v in e6) <= 1e-10

    def test_standing_e1_matches_brute_force_sum(self):
        case = StandingWave()
        grid = build_grid(case.default_domain, 8, 8, 8)
        state = sample_initial(case, grid)
        e1, *_ = energies(state)
        brute = 0.0
        for zc in grid.points_z:
            for yc in grid.points_y:
                for xc in grid.points_x:
                    vals = standing_wave_samples(case, xc, yc, zc, 0.0)
                    brute += 0.5 * sum(v * v for v in vals[:3])  # eps part
                    brute += 0.5 * sum(v * v for v in vals[3:])  # mu part
        brute /= grid.n_total
        assert e1 == pytest.approx(brute, rel=1e-13)

    def test_traveling_wave_closed_forms(self):
        case = TravelingWave()
        grid = build_grid(case.default_domain, 8, 8, 8)
        e1, e2, e3, e4, _, _ = energies(sample_initial(case, grid))
        assert e1 == pytest.approx(3.0, rel=1e-13)
        assert e2 == pytest.approx(36.0 * np.pi**2, rel=1e-13)
        assert e3 == pytest.approx((12 * np.pi**2,) * 3, rel=1e-12)
        assert e4 == pytest.approx((144 * np.pi**4,) * 3, rel=1e-12)

    def test_energy_drift_table_row(self):
        case = StandingWave()
        grid = build_grid(case.default_domain, 8, 8, 8)
        state = sample_initial(case, grid)
        before = invariant_report(state)
        after = invariant_report(propagate(state, 10.0))
        drifts = relative_change(before, after)
        assert drifts.e1.value <= 1e-13 and not drifts.e1.absolute
        assert drifts.e2.value <= 1e-13
        assert all(d.value <= 1e-13 for d in drifts.e3)
        assert all(d.value <= 1e-13 for d in drifts.e4)

    def test_n16_energy_drifts_at_roundoff_scale(self):
        case = StandingWave()
        grid = build_grid(case.default_domain, 16, 16, 16)
        state = sample_initial(case, grid)
        before = invariant_report(state)
        after = invariant_report(propagate(state, 10.0))
        drifts = relative_change(before, after)
        for d in (drifts.e1, drifts.e2, *drifts.e3, *drifts.e4):
            assert d.value <= 5e-15


class TestConservationSuite:
    """All invariants drift only at roundoff under propagation."""

    @pytest.mark.parametrize("case_cls", [StandingWave, TravelingWave])
    @pytest.mark.parametrize("t_end", [5.0, 20.0])
    def test_all_invariants(self, case_cls, t_end):
        case = case_cls()
        grid = build_grid(case.default_domain, 8, 8, 8)
        state = sample_initial(case, grid)
        before = invariant_report(state)
        after = invariant_report(propagate(state, t_end))
        d = relative_change(before, after)
        for drift in (d.e1, d.e2, *d.e3, *d.e4):
            assert not drift.absolute
            assert drift.value <= 1e-12
        # e5/e6, helicities, and momenta are identically zero for these
        # cases; their drifts are reported as absolute roundoff.
        for drift in (*d.e5, *d.e6, d.h1, d.h2, *d.m1, *d.m2):
            if drift.absolute:
                assert drift.value <= 1e-10
            else:
                assert drift.value <= 1e-6
        assert after.div_e_norm <= 1e-12
        assert after.div_h_norm <= 1e-12


class TestHelicities:
    def test_zero_state(self, grid4):
        assert helicities(zero_state(grid4)) == (0.0, 0.0)

    def test_traveling_helicity_drift(self):
        case = TravelingWave()
        grid = build_grid(case.default_domain, 8, 8, 8)
        state = sample_initial(case, grid)
        before = invariant_report(state)
        after = invariant_report(propagate(state, 5.0))
        drifts = relative_change(before, after)
        # Both helicities are identically zero for this wave; drifts are
        # reported as (tiny) absolute values.
        assert drifts.h1.absolute and drifts.h1.value <= 1e-13
        assert drifts.h2.absolute and drifts.h2.value <= 1e-12

    def test_matches_dense_curl_quadrature(self, grid4, rng):
        # Oracle: helicity from the dense curl matrix on a random state.
        state = random_band_limited_state(grid4, rng, MediumParams(mu=1.25, eps=0.8))
        h1, _ = helicities(state)
        arrays = state.component_arrays()
        e = np.concatenate(arrays[:3])
        h = np.concatenate(arrays[3:])
        d = dense_curl(grid4)
        n = grid4.n_total
        mu, eps = state.medium.mu, state.medium.eps
        oracle = float(h @ (d @ h)) / n / (2 * eps) + float(e @ (d @ e)) / n / (2 * mu)
        assert h1 == pytest.approx(oracle, rel=1e-11, abs=1e-12)

    def test_traveling_helicity_value_vs_dense_curl(self):
        case = TravelingWave()
        grid = build_grid(case.default_domain, 4, 4, 4)
        state = sample_initial(case, grid)
        h1, _ = helicities(state)
        arrays = state.component_arrays()
        e = np.concatenate(arrays[:3])
        h = np.concatenate(arrays[3:])
        d = dense_curl(grid)
        n = grid.n_total
        oracle = float(h @ (d @ h)) / n / 2 + float(e @ (d @ e)) / n / 2
        assert h1 == pytest.approx(oracle, abs=1e-12)


class TestMomenta:
    def test_zero_state(self, grid4):
        m1, m2 = momenta(zero_state(grid4))
        assert m1 == m2 == (0.0, 0.0, 0.0)

    def test_derivative_skew_symmetry_under_inner_product(self, grid4, rng):
        u = rng.standard_normal(grid4.n_total)
        v = rng.standard_normal(grid4.n_total)
        for axis in range(3):
            du = _spectral_derivative(grid4, u, axis)
            dv = _spectral_derivative(grid4, v, axis)
            lhs = inner_product_N(du, v)
            rhs = -inner_product_N(u, dv)
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_m2_is_minus_m1(self, grid4, rng):
        # Follows from the skew symmetry checked above.
        state = random_band_limited_state(grid4, rng)
        m1, m2 = momenta(state)
        for a, b in zip(m1, m2):
            assert a == pytest.approx(-b, rel=1e-12, abs=1e-14)

    def test_standing_momentum_drift(self):
        case = StandingWave()
        grid = build_grid(case.default_domain, 8, 8, 8)
        state = sample_initial(case, grid)
        before = invariant_report(state)
        after = invariant_report(propagate(state, 10.0))
        drifts = relative_change(before, after)
        for d in drifts.m1 + drifts.m2:
            assert d.value <= 1e-9


class TestDivergences:
    def test_zero_state(self, grid4):
        _, _, div_e, div_h = divergences(zero_state(grid4))
        assert div_e == div_h == 0.0

    def test_scaling_by_medium(self, grid4, rng):
        state = random_band_limited_state(grid4, rng, MediumParams(mu=2.0, eps=3.0))
        div_e_field, div_h_field, _, _ = divergences(state)
        # eps/mu scaling: recompute with a unit medium on identical arrays
        base = type(state)(state.grid, MediumParams(), state.data)
        base_e, base_h, _, _ = divergences(base)
        np.testing.assert_allclose(div_e_field, 3.0 * base_e, rtol=1e-12)
        np.testing.assert_allclose(div_h_field, 2.0 * base_h, rtol=1e-12)

    def test_divergence_of_curl_vanishes(self, grid4, rng):
        comps = random_band_limited_state(grid4, rng)
        deriv = spectral_time_derivative(comps)  # curls of the components
        _, _, div_e, div_h = divergences(deriv)
        assert div_e <= 1e-12
        assert div_h <= 1e-12

    def test_traveling_after_propagation(self):
        case = TravelingWave()
        grid = build_grid(case.default_domain, 16, 16, 16)
        final = propagate(sample_initial(case, grid), 10.0)
        _, _, div_e, div_h = divergences(final)
        assert div_e <= 1e-12
        assert div_h <= 1e-12


def row_error_norms(state, case) -> tuple[float, float, tuple]:
    """(l2, linf, component_linf) from one row per (z-plane, component).

    Each row's squared errors are summed over its contiguous samples, and
    ``l2`` adds the row sums in plane order, the components of a plane in
    turn.
    """
    grid = state.grid
    errors = np.abs(sample_exact(case, grid, state.time) - state.data)
    rows = np.sum(np.square(errors).reshape(6, grid.n_z, -1), axis=-1)
    per_row = np.max(errors, axis=1)
    l2 = float(np.sqrt(np.sum(rows.T.ravel()) / grid.n_total))
    return l2, float(np.max(per_row)), tuple(float(v) for v in per_row)


ERROR_COUNTS = pytest.mark.parametrize(
    "counts", [(2, 4, 6), (32, 32, 32), (128, 64, 4)], ids=lambda c: "x".join(map(str, c))
)
ERROR_CASES = pytest.mark.parametrize(
    "case", [StandingWave(medium=MediumParams(eps=0.5)), TravelingWave()],
    ids=["standing", "traveling"],
)


def error_state(counts, rng) -> FieldState:
    grid = build_grid(DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0), *counts)
    state = random_band_limited_state(grid, rng, MediumParams(mu=2.0, eps=0.5))
    return FieldState(grid, state.medium, state.data, time=0.7)


class TestErrorNorms:
    @ERROR_COUNTS
    @ERROR_CASES
    def test_blocks_match_whole_array_formula(self, case, counts, rng):
        # Sampled and subtracted block by block of z-planes into a scratch,
        # one maximum and one sum of squares per (plane, component) row: the
        # bits of the row formula over the whole array.
        state = error_state(counts, rng)
        report = error_norms(state, case)
        assert (report.l2, report.linf, report.component_linf) == row_error_norms(
            state, case
        )

    @ERROR_COUNTS
    @ERROR_CASES
    def test_close_to_one_sum_over_the_buffer(self, case, counts, rng):
        # Only the order of the l2 sum differs from one sum over a buffer
        # of every squared error; the maxima do not depend on it.
        state = error_state(counts, rng)
        report = error_norms(state, case)
        l2, linf, component_linf = whole_array_error_norms(
            sample_exact(case, state.grid, state.time), state.data
        )
        assert report.l2 == pytest.approx(l2, rel=1e-15, abs=0.0)
        assert (report.linf, report.component_linf) == (linf, component_linf)

    def test_exact_state_has_zero_error(self):
        case = StandingWave()
        grid = build_grid(case.default_domain, 8, 8, 8)
        state = sample_initial(case, grid)
        report = error_norms(state, case)
        assert report.l2 == 0.0
        assert report.linf == 0.0

    def test_standing_table_row_t20(self):
        case = StandingWave()
        grid = build_grid(case.default_domain, 8, 8, 8)
        final = propagate(sample_initial(case, grid), 20.0)
        report = error_norms(final, case)
        assert report.linf <= 1e-9
        assert len(report.component_linf) == 6
        assert report.linf == max(report.component_linf)

    def test_traveling_table_row_t1(self):
        case = TravelingWave()
        grid = build_grid(case.default_domain, 8, 8, 8)
        final = propagate(sample_initial(case, grid), 1.0)
        report = error_norms(final, case)
        assert report.l2 <= 1e-10

    def test_requires_physical_state(self, grid8, rng):
        case = StandingWave()
        state = to_spectral(random_band_limited_state(grid8, rng))
        with pytest.raises(ValueError, match="physical"):
            error_norms(state, case)


class TestPeakMemory:
    """One pass over blocks of z-planes: no rate spectrum, curl, |.|^2 or error field."""

    @staticmethod
    def peak_in_states(measure, state: FieldState) -> float:
        """Tracemalloc peak of ``measure(state)``, in real six-component states."""
        tracemalloc.start()
        try:
            measure(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (6 * state.grid.n_total * 8)

    # At 32^3 a physical input holds its forward spectrum (1.06 states),
    # the two divergence spectra and their fields (0.69) and the block
    # temporaries: 1.92 states.  A spectral input holds the last two: 0.86.
    def test_peak_memory_from_physical_input(self, rng):
        grid = build_grid(DomainSpec.cube(0.0, 1.0), 32, 32, 32)
        state = random_band_limited_state(grid, rng)
        assert self.peak_in_states(invariant_report, state) <= 2.25

    def test_peak_memory_from_spectral_input(self, rng):
        grid = build_grid(DomainSpec.cube(0.0, 1.0), 32, 32, 32)
        state = to_spectral(random_band_limited_state(grid, rng))
        assert self.peak_in_states(invariant_report, state) <= 1.25

    # One block-sized scratch of 16384 samples per component (0.0625 states
    # at 64^3) and the case's plane factors, a few (n_y, n_x) planes: the
    # standing wave peaks at 0.079 states, the traveling one at 0.069.
    # Pinned to one worker, so that one scratch is live at a time.
    @pytest.mark.parametrize("case", [StandingWave(), TravelingWave()], ids=["standing", "traveling"])
    def test_error_norms_peak_memory(self, case, monkeypatch):
        monkeypatch.setattr(spectral, "_WORKERS", 1)
        grid = build_grid(case.default_domain, 64, 64, 64)
        state = propagate(sample_initial(case, grid), 0.7)
        assert self.peak_in_states(lambda s: error_norms(s, case), state) <= 0.0625 + 0.02


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "measure",
        [invariant_report, energies, helicities, momenta, divergences,
         lambda state: error_norms(state, StandingWave())],
        ids=["invariant_report", "energies", "helicities", "momenta", "divergences",
             "error_norms"],
    )
    def test_non_finite_sample_raises(self, measure, bad):
        case = StandingWave()
        state = sample_initial(case, build_grid(case.default_domain, 8, 8, 8))
        state.data[4, 17] = bad
        with pytest.raises(ImaginaryResidueError, match="non-finite"):
            measure(state)

    # Finite samples whose squared modes overflow: without the check the
    # sums give inf and nan invariants.  At 64^3 the pass runs on the
    # thread pool when there is more than one CPU.
    @pytest.mark.parametrize("n", [8, 64])
    def test_overflowing_squares_raise(self, rng, n):
        grid = build_grid(DomainSpec.cube(0.0, 1.0), n, n, n)
        state = FieldState(grid, MediumParams(), 1e155 * rng.standard_normal((6, grid.n_total)))
        with pytest.raises(ImaginaryResidueError, match="non-finite invariant"):
            invariant_report(state)

    # Finite samples whose errors overflow when squared: without the check
    # l2 is inf.  At 64^3 the pass runs on the thread pool when there is
    # more than one CPU.
    @pytest.mark.parametrize("n", [8, 64])
    def test_overflowing_errors_raise(self, n):
        case = StandingWave()
        grid = build_grid(case.default_domain, n, n, n)
        state = FieldState(grid, case.medium, np.full((6, grid.n_total), 1e200))
        with pytest.raises(ImaginaryResidueError, match="non-finite solution error"):
            error_norms(state, case)


def _report_with(**overrides) -> InvariantReport:
    base = dict(
        time=0.0,
        e1=1.0,
        e2=1.0,
        e3=(1.0, 1.0, 1.0),
        e4=(1.0, 1.0, 1.0),
        e5=(0.0, 0.0, 0.0),
        e6=(0.0, 0.0, 0.0),
        h1=1.0,
        h2=1.0,
        m1=(1.0, 1.0, 1.0),
        m2=(1.0, 1.0, 1.0),
        div_e_norm=0.0,
        div_h_norm=0.0,
    )
    base.update(overrides)
    return InvariantReport(**base)


def _physical_space_report(state) -> dict:
    """Every invariant from derivatives inverse-transformed to the grid.

    Reference for the spectral (Parseval) evaluation in ``invariant_report``:
    each D_k is ``apply_derivative`` -> ``dft3_inverse`` and every form is a
    grid inner product.
    """
    grid = state.grid
    mu, eps = state.medium.mu, state.medium.eps

    def d(values, axis):
        return _spectral_derivative(grid, values, axis)

    ip = inner_product_N

    def curl(f):
        fx, fy, fz = f
        return (d(fz, 1) - d(fy, 2), d(fx, 2) - d(fz, 0), d(fy, 0) - d(fx, 1))

    def pair(f, g):
        """0.5 eps <E_f, E_g> + 0.5 mu <H_f, H_g> for six-component tuples."""
        e_part = sum(ip(a, b) for a, b in zip(f[:3], g[:3]))
        h_part = sum(ip(a, b) for a, b in zip(f[3:], g[3:]))
        return 0.5 * eps * e_part + 0.5 * mu * h_part

    def helicity(f):
        e, h = f[:3], f[3:]
        return (
            sum(ip(a, b) for a, b in zip(h, curl(h))) / (2 * eps)
            + sum(ip(a, b) for a, b in zip(e, curl(e))) / (2 * mu)
        )

    def axis_derivative(f, k):
        return tuple(d(c, k) for c in f)

    comps = state.component_arrays()
    rate = tuple(c / eps for c in curl(comps[3:])) + tuple(-c / mu for c in curl(comps[:3]))
    div_e = eps * (d(comps[0], 0) + d(comps[1], 1) + d(comps[2], 2))
    div_h = mu * (d(comps[3], 0) + d(comps[4], 1) + d(comps[5], 2))
    axes = range(3)
    return dict(
        time=state.time,
        e1=pair(comps, comps),
        e2=pair(rate, rate),
        e3=tuple(pair(axis_derivative(comps, k), axis_derivative(comps, k)) for k in axes),
        e4=tuple(pair(axis_derivative(rate, k), axis_derivative(rate, k)) for k in axes),
        e5=tuple(pair(comps, axis_derivative(comps, k)) for k in axes),
        e6=tuple(pair(rate, axis_derivative(rate, k)) for k in axes),
        h1=helicity(comps),
        h2=helicity(rate),
        m1=tuple(sum(ip(h, d(e, k)) for e, h in zip(comps[:3], comps[3:])) for k in axes),
        m2=tuple(sum(ip(e, d(h, k)) for e, h in zip(comps[:3], comps[3:])) for k in axes),
        div_e_norm=float(np.max(np.abs(div_e))),
        div_h_norm=float(np.max(np.abs(div_h))),
    )


class TestSpectralEvaluation:
    """The Parseval forms agree with the physical-space definitions."""

    def test_matches_physical_space_reference(self, rng):
        # 2x4x6 has only the two self-conjugate half-spectrum columns, 6x8x4
        # an odd number n_x/2 = 3 of x-columns ahead of the Nyquist one; a
        # state with Nyquist content also weighs the kx = n_x/2 column.
        domain = DomainSpec(0.0, 2.0, -1.0, 2.5, 0.5, 1.7)
        medium = MediumParams(mu=2.0, eps=0.5)
        for counts in ((8, 6, 10), (2, 4, 6), (6, 8, 4)):
            grid = build_grid(domain, *counts)
            for state in (
                random_band_limited_state(grid, rng, medium),
                FieldState(grid, medium, rng.standard_normal((6, grid.n_total))),
            ):
                report = invariant_report(state)
                reference = _physical_space_report(state)
                for name, ref in reference.items():
                    got = getattr(report, name)
                    if name in ("e5", "e6"):
                        # <u, D_k u> of a real field: zero exactly in spectral
                        # space, roundoff on the grid.
                        assert got == (0.0, 0.0, 0.0)
                        assert max(abs(v) for v in ref) <= 1e-10
                        continue
                    np.testing.assert_allclose(
                        got, ref, rtol=1e-12, atol=0.0, err_msg=f"{name} on {counts}"
                    )

    def test_m2_is_exactly_minus_m1(self, grid4, rng):
        m1, m2 = momenta(random_band_limited_state(grid4, rng))
        assert m2 == tuple(-m for m in m1)


class TestRelativeChange:
    def test_identical_reports_give_zero(self):
        rep = _report_with()
        drifts = relative_change(rep, rep)
        assert drifts.e1.value == 0.0
        assert all(d.value == 0.0 for d in drifts.e3)
        assert drifts.h1.value == 0.0

    def test_small_relative_change(self):
        before = _report_with(e1=2.0)
        after = _report_with(e1=2.0 + 4e-16)
        drifts = relative_change(before, after)
        assert drifts.e1.value == pytest.approx(2e-16, rel=1e-6)
        assert not drifts.e1.absolute

    def test_near_zero_switches_to_absolute(self):
        before = _report_with(h1=1e-15)
        after = _report_with(h1=5e-14)
        drifts = relative_change(before, after)
        assert drifts.h1.absolute
        assert drifts.h1.value == pytest.approx(4.9e-14, rel=1e-6)

    def test_threshold_boundary(self):
        before = _report_with(h1=2.0 * NEAR_ZERO_ABS)
        after = _report_with(h1=3.0 * NEAR_ZERO_ABS)
        drifts = relative_change(before, after)
        assert not drifts.h1.absolute
        assert drifts.h1.value == pytest.approx(0.5, rel=1e-12)
