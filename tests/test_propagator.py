"""Closed-form flow coefficients and the one-shot evolution map."""

import tracemalloc

import numpy as np
import pytest

from psmaxwell import (
    DomainSpec,
    FieldState,
    MediumParams,
    StandingWave,
    TravelingWave,
    broadcast_wavenumbers,
    build_coefficients,
    build_grid,
    error_norms,
    propagate,
    sample_initial,
    step,
    to_physical,
    to_spectral,
)
from psmaxwell.grid import flatten_index, unflatten_index
from psmaxwell.spectral import ImaginaryResidueError

from conftest import (
    perturb_plane,
    random_band_limited_state,
    state_norm,
    zero_state,
)
from oracle import dense_curl, dense_expm


def scaled_flat_vector(state: FieldState) -> np.ndarray:
    """(sqrt(mu) H; sqrt(eps) E) stacked for the grid-level dense operator."""
    mu, eps = state.medium.mu, state.medium.eps
    arrays = state.component_arrays()
    return np.concatenate(
        [np.sqrt(mu) * a for a in arrays[3:]] + [np.sqrt(eps) * a for a in arrays[:3]]
    )


def dense_evolution(state: FieldState, t: float) -> list[np.ndarray]:
    """Oracle evolution: dense expm of the grid-level operator, unscaled."""
    grid = state.grid
    mu, eps = state.medium.mu, state.medium.eps
    d = dense_curl(grid)
    z = np.zeros_like(d)
    a = np.block([[z, -d], [d, z]]) / np.sqrt(mu * eps)
    out = dense_expm(a, t) @ scaled_flat_vector(state)
    n = grid.n_total
    h = [out[i * n:(i + 1) * n] / np.sqrt(mu) for i in range(3)]
    e = [out[(3 + i) * n:(4 + i) * n] / np.sqrt(eps) for i in range(3)]
    return e + h


class TestBroadcastWavenumbers:
    def test_pattern_on_two_pi_cube(self, grid4):
        b_x, b_y, b_z = broadcast_wavenumbers(grid4)
        np.testing.assert_array_equal(b_x, np.tile([0.0, 1.0, 0.0, -1.0], 16))
        # b_y constant over each x-run of length n_x
        np.testing.assert_array_equal(b_y[:4], 0.0)
        np.testing.assert_array_equal(b_y[4:8], 1.0)

    def test_b_z_constant_per_slab(self, grid4):
        _, _, b_z = broadcast_wavenumbers(grid4)
        slab = grid4.n_x * grid4.n_y
        for l in range(4):
            chunk = b_z[l * slab:(l + 1) * slab]
            assert np.all(chunk == grid4.kvec_z[l])

    def test_positions_match_flatten(self, grid4):
        b_x, b_y, b_z = broadcast_wavenumbers(grid4)
        for flat in range(grid4.n_total):
            j, k, l = unflatten_index(flat, grid4)
            assert b_x[flat] == grid4.kvec_x[j]
            assert b_y[flat] == grid4.kvec_y[k]
            assert b_z[flat] == grid4.kvec_z[l]

    def test_sum_of_squares_matches_brute_force(self, grid4):
        b_x, b_y, b_z = broadcast_wavenumbers(grid4)
        total = np.sum(b_x**2 + b_y**2 + b_z**2)
        brute = 0.0
        for l in range(4):
            for k in range(4):
                for j in range(4):
                    brute += (
                        grid4.kvec_x[j] ** 2
                        + grid4.kvec_y[k] ** 2
                        + grid4.kvec_z[l] ** 2
                    )
        assert total == pytest.approx(brute, rel=1e-14)


class TestBuildCoefficients:
    def test_zero_time_is_identity(self, grid4):
        c = build_coefficients(grid4, MediumParams(), 0.0)
        np.testing.assert_array_equal(c.r1, -0.5)
        np.testing.assert_array_equal(c.r2, 1.0)
        np.testing.assert_array_equal(c.c11, 1.0)
        np.testing.assert_array_equal(c.c22, 1.0)
        np.testing.assert_array_equal(c.c33, 1.0)
        for arr in (c.c12, c.c13, c.c23, c.s12, c.s13, c.s23):
            np.testing.assert_array_equal(arr, 0.0)

    def test_theta_pi_mode(self, grid4):
        # Mode b = (1, 0, 0) with kappa = pi: theta = pi, sin(pi) = 0.
        c = build_coefficients(grid4, MediumParams(), np.pi)
        m = flatten_index(1, 0, 0, grid4)
        assert abs(c.s12[m]) < 1e-15
        assert abs(c.s13[m]) < 1e-15
        assert abs(c.s23[m]) < 1e-15
        assert c.r1[m] == pytest.approx(-2.0 / np.pi**2, rel=1e-14)

    def test_zero_wavenumber_modes_get_identity_block(self, grid4):
        c = build_coefficients(grid4, MediumParams(), 3.7)
        b_sq = c.b_x**2 + c.b_y**2 + c.b_z**2
        # Eight such modes at N=4: indices in {0, 2} per axis.
        zero_modes = np.flatnonzero(b_sq == 0.0)
        assert len(zero_modes) == 8
        for m in zero_modes:
            np.testing.assert_allclose(c.cos_block(m), np.eye(3), rtol=0, atol=0)
            np.testing.assert_array_equal(c.sin_block(m), np.zeros((3, 3)))

    def test_blocks_match_dense_matrix_functions(self, grid4):
        # Per-mode cosine/sine blocks vs cos/sin of the per-mode generator
        # computed by the series exponential (kappa = 0.7).
        kappa = 0.7
        c = build_coefficients(grid4, MediumParams(), 0.7)
        b_x, b_y, b_z = c.b_x, c.b_y, c.b_z
        for m in range(grid4.n_total):
            k_cross = np.array(
                [
                    [0.0, -b_z[m], b_y[m]],
                    [b_z[m], 0.0, -b_x[m]],
                    [-b_y[m], b_x[m], 0.0],
                ]
            )
            lam = 1j * k_cross
            u_plus = dense_expm(1j * kappa * lam)
            u_minus = dense_expm(-1j * kappa * lam)
            cos_ref = (u_plus + u_minus) / 2.0
            sin_ref = (u_plus - u_minus) / 2j
            np.testing.assert_allclose(c.cos_block(m), cos_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(c.sin_block(m), sin_ref, rtol=0, atol=1e-12)

    def test_half_layout_matches_full_accessors(self):
        # r1/r2 cover the half spectrum; the accessors the full mode layout.
        grid = build_grid(DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0), 6, 4, 2)
        c = build_coefficients(grid, MediumParams(mu=2.0, eps=0.5), 0.9)
        assert c.r1.shape == c.r2.shape == (grid.n_spectral,)
        r1 = c.r1.reshape(grid.spectral_shape)
        r2 = c.r2.reshape(grid.spectral_shape)
        for half in range(grid.n_spectral):
            l, k, j = np.unravel_index(half, grid.spectral_shape)
            m = flatten_index(j, k, l, grid)
            b = np.array([c.b_x[m], c.b_y[m], c.b_z[m]])
            k_cross = np.array([[0.0, -b[2], b[1]], [b[2], 0.0, -b[0]], [-b[1], b[0], 0.0]])
            cos_ref = np.eye(3) - c.kappa**2 * r1[l, k, j] * (k_cross @ k_cross)
            np.testing.assert_allclose(c.cos_block(m), cos_ref, rtol=0, atol=1e-15)
            np.testing.assert_allclose(
                c.sin_block(m), 1j * c.kappa * r2[l, k, j] * k_cross, rtol=0, atol=1e-15
            )
            assert c.s23[m] == pytest.approx(c.kappa * b[0] * r2[l, k, j], abs=1e-15)

    def test_non_finite_time_rejected(self, grid4):
        with pytest.raises(ValueError, match="finite"):
            build_coefficients(grid4, MediumParams(), np.inf)
        with pytest.raises(ValueError, match="finite"):
            build_coefficients(grid4, MediumParams(), np.nan)

    def test_negative_time_allowed(self, grid4):
        c = build_coefficients(grid4, MediumParams(), -2.0)
        assert c.kappa == -2.0

    def test_medium_validation(self):
        with pytest.raises(ValueError):
            MediumParams(mu=0.0)
        with pytest.raises(ValueError):
            MediumParams(eps=-1.0)
        with pytest.raises(ValueError):
            MediumParams(mu=np.inf)

    def test_per_mode_block_unitarity(self, grid4):
        coeffs = build_coefficients(grid4, MediumParams(mu=2.0, eps=0.5), 1.3)
        worst_norm = 0.0
        worst_commute = 0.0
        for m in range(grid4.n_total):
            c = coeffs.cos_block(m)
            s = coeffs.sin_block(m)
            worst_norm = max(
                worst_norm,
                np.max(np.abs(c.conj().T @ c + s.conj().T @ s - np.eye(3))),
            )
            worst_commute = max(
                worst_commute, np.max(np.abs(c.conj().T @ s - s.conj().T @ c))
            )
        assert worst_norm <= 1e-12
        assert worst_commute <= 1e-12

    def test_corrected_divergence_identities(self, grid4):
        # The cosine rows contract against the wavenumbers back to the
        # wavenumbers themselves, and the sine combinations cancel; this is
        # what propagates the divergence constraint exactly.
        c = build_coefficients(grid4, MediumParams(), 0.9)
        bx, by, bz = c.b_x, c.b_y, c.b_z
        scale = max(np.max(np.abs(bx)), np.max(np.abs(by)), np.max(np.abs(bz)))
        tol = 1e-13 * max(scale, 1.0)
        assert np.max(np.abs(bx * c.c11 + by * c.c12 + bz * c.c13 - bx)) <= tol
        assert np.max(np.abs(bx * c.c12 + by * c.c22 + bz * c.c23 - by)) <= tol
        assert np.max(np.abs(bx * c.c13 + by * c.c23 + bz * c.c33 - bz)) <= tol
        assert np.max(np.abs(-bx * c.s12 + bz * c.s23)) <= tol
        assert np.max(np.abs(by * c.s12 - bz * c.s13)) <= tol
        assert np.max(np.abs(bx * c.s13 - by * c.s23)) <= tol


class TestStep:
    def test_zero_time_is_bitwise_identity(self, grid4, rng):
        # Bitwise for a non-unit medium too: step applies the flow unscaled.
        for medium in (MediumParams(), MediumParams(mu=2.0, eps=0.5)):
            state = to_spectral(random_band_limited_state(grid4, rng, medium))
            coeffs = build_coefficients(grid4, state.medium, 0.0)
            out = step(state, coeffs)
            for before, after in zip(state.component_arrays(), out.component_arrays()):
                np.testing.assert_array_equal(before, after)
            assert out.time == state.time

    def test_requires_spectral_representation(self, grid4, rng):
        state = random_band_limited_state(grid4, rng)
        coeffs = build_coefficients(grid4, state.medium, 1.0)
        with pytest.raises(ValueError, match="spectral"):
            step(state, coeffs)

    def test_grid_mismatch_rejected(self, grid4, grid8, rng):
        state = to_spectral(random_band_limited_state(grid4, rng))
        coeffs = build_coefficients(grid8, state.medium, 1.0)
        with pytest.raises(ValueError, match="grid"):
            step(state, coeffs)

    def test_medium_mismatch_rejected(self, grid4, rng):
        state = to_spectral(random_band_limited_state(grid4, rng))
        coeffs = build_coefficients(grid4, MediumParams(mu=2.0), 1.0)
        with pytest.raises(ValueError, match="medi"):
            step(state, coeffs)

    def test_standing_wave_one_step(self):
        case = StandingWave()
        grid = build_grid(case.default_domain, 8, 8, 8)
        final = propagate(sample_initial(case, grid), 1.0)
        errors = error_norms(final, case)
        assert errors.linf <= 1e-10

    def test_random_spectral_state_matches_dense_expm(self, grid4, rng):
        t = 0.3
        # The 4^3 cube, and anisotropic 6x4x4 and 2x4x6 boxes with a non-unit
        # medium (6 * 96 = 576 and 6 * 48 = 288 dense dimensions, within the
        # oracle's size guard); n_x = 2 leaves no doubled half-spectrum column.
        domain = DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0)
        for grid, medium in (
            (grid4, MediumParams(mu=1.5, eps=0.7)),
            (build_grid(domain, 6, 4, 4), MediumParams(mu=2.0, eps=0.5)),
            (build_grid(domain, 2, 4, 6), MediumParams(mu=2.0, eps=0.5)),
        ):
            state = random_band_limited_state(grid, rng, medium)
            spectral = to_spectral(state)
            coeffs = build_coefficients(grid, state.medium, t)
            fast = to_physical(step(spectral, coeffs))
            oracle = dense_evolution(state, t)
            scale = state_norm(state)
            for got, ref in zip(fast.component_arrays(), oracle):
                assert np.max(np.abs(got - ref)) <= 1e-11 * scale

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0, 1000.0])
    def test_unitarity_of_scaled_norm(self, grid4, rng, t):
        medium = MediumParams(mu=2.0, eps=0.25)
        state = to_spectral(random_band_limited_state(grid4, rng, medium))
        coeffs = build_coefficients(grid4, medium, t)
        out = step(state, coeffs)

        def energy(s):
            arrays = s.component_arrays()
            e = sum(np.sum(np.abs(a) ** 2) for a in arrays[:3])
            h = sum(np.sum(np.abs(a) ** 2) for a in arrays[3:])
            return medium.eps * e + medium.mu * h

        before, after = energy(state), energy(out)
        assert abs(after - before) <= 1e-13 * before


class TestPropagate:
    def test_zero_state_stays_zero(self, grid4):
        out = propagate(zero_state(grid4), 17.3)
        for arr in out.component_arrays():
            assert np.all(arr == 0.0)
        assert out.time == 17.3

    def test_requires_physical_representation(self, grid4, rng):
        spectral = to_spectral(random_band_limited_state(grid4, rng))
        with pytest.raises(ValueError, match="physical"):
            propagate(spectral, 1.0)

    def test_traveling_wave_example(self):
        case = TravelingWave()
        grid = build_grid(case.default_domain, 16, 16, 16)
        final = propagate(sample_initial(case, grid), 10.0)
        errors = error_norms(final, case)
        assert errors.linf <= 1e-8

    def test_non_unit_permittivity(self):
        # The impedance scaling sqrt(mu)/sqrt(eps) inside step must be right
        # for the eps != 1 member of the standing family to track its
        # analytic solution.
        case = StandingWave(medium=MediumParams(mu=1.0, eps=2.0))
        grid = build_grid(case.default_domain, 8, 8, 8)
        final = propagate(sample_initial(case, grid), 7.0)
        assert error_norms(final, case).linf <= 1e-12

    def test_group_property(self, grid4, rng):
        state = random_band_limited_state(grid4, rng)
        t1, t2 = 0.37, 1.94
        composed = propagate(propagate(state, t1), t2)
        direct = propagate(state, t1 + t2)
        scale = state_norm(state)
        for a, b in zip(composed.component_arrays(), direct.component_arrays()):
            assert np.max(np.abs(a - b)) <= 1e-11 * scale
        assert composed.time == pytest.approx(direct.time)

    def test_reversibility(self, grid4, rng):
        state = random_band_limited_state(grid4, rng)
        back = propagate(propagate(state, 2.6), -2.6)
        scale = state_norm(state)
        for a, b in zip(back.component_arrays(), state.component_arrays()):
            assert np.max(np.abs(a - b)) <= 1e-12 * scale

    def test_nan_sample_raises(self, grid4, rng):
        state = random_band_limited_state(grid4, rng)
        state.data[1, 5] = np.nan  # e_y
        with pytest.raises(ImaginaryResidueError, match="non-finite"):
            propagate(state, 1.0)

    def test_peak_memory_within_four_states(self, rng):
        # Half spectra, one batched transform each way and a step that writes
        # into a single output stack keep the transient memory of a
        # propagation within four real six-component states (3.6 at 32^3).
        grid = build_grid(DomainSpec.cube(0.0, 1.0), 32, 32, 32)
        state = random_band_limited_state(grid, rng)
        tracemalloc.start()
        try:
            propagate(state, 1.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * state.data.nbytes

    def test_real_input_gives_tiny_residue(self, grid8, rng):
        box = DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0)
        for grid, medium in (
            (grid8, MediumParams()),
            (build_grid(box, 2, 4, 6), MediumParams(mu=2.0, eps=0.5)),
            (build_grid(box, 6, 8, 4), MediumParams(mu=2.0, eps=0.5)),
        ):
            state = random_band_limited_state(grid, rng, medium)
            out = propagate(state, 5.0)
            assert out.imag_residue <= 1e-12 * state_norm(out)
            for arr in out.component_arrays():
                assert not np.iscomplexobj(arr)

    @pytest.mark.parametrize("plane", ["kx=0", "kx=n/2"])
    @pytest.mark.parametrize("counts", [(8, 8, 8), (2, 4, 6), (6, 8, 4)])
    def test_off_hermitian_plane_raises(self, counts, plane, rng):
        # irfftn would drop the anti-Hermitian part of a self-conjugate
        # plane; to_physical refuses such a spectrum instead.
        grid = build_grid(DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0), *counts)
        spectral = to_spectral(random_band_limited_state(grid, rng))
        column = 0 if plane == "kx=0" else grid.n_x // 2
        size = 1e-6 * np.max(np.abs(spectral.data))
        data = perturb_plane(spectral.data, grid, column, size)
        with pytest.raises(ImaginaryResidueError, match="Hermitian"):
            to_physical(FieldState(grid, spectral.medium, data))


class TestSymplecticity:
    def test_flow_matrix_preserves_canonical_pairing(self, grid4):
        # Assemble the dense real linear map (E, H) -> (E^t, H^t) by
        # propagating every canonical basis state, then check M^T J M = J
        # for the pairing J that couples E_w(p) with H_w(p).
        medium = MediumParams()
        n = grid4.n_total
        dim = 6 * n
        t = 0.7
        coeffs = build_coefficients(grid4, medium, t)
        m = np.zeros((dim, dim))
        zeros = np.zeros(n)
        for col in range(dim):
            comps = [zeros.copy() for _ in range(6)]
            comps[col // n][col % n] = 1.0
            state = FieldState(grid4, medium, np.stack(comps))
            out = to_physical(step(to_spectral(state), coeffs))
            arrays = out.component_arrays()
            m[:, col] = np.concatenate(arrays)
        eye = np.eye(3 * n)
        z = np.zeros_like(eye)
        j = np.block([[z, eye], [-eye, z]])
        assert np.max(np.abs(m.T @ j @ m - j)) <= 1e-10


class TestFieldState:
    def test_other_dtypes_rejected(self, grid4):
        # The dtype is the representation tag: only float64 and complex128.
        for dtype in (np.float32, np.int64, np.complex64, object):
            with pytest.raises(ValueError, match="float64 .physical. or complex128"):
                FieldState(grid4, MediumParams(), np.zeros((6, grid4.n_total), dtype=dtype))
        with pytest.raises(ValueError, match="float64 .physical. or complex128"):
            FieldState(grid4, MediumParams(), [[0.0] * grid4.n_total] * 6)

    def test_wrong_grid_rejected(self, grid4, grid8, rng):
        phys = random_band_limited_state(grid4, rng)
        with pytest.raises(ValueError, match="grid"):
            FieldState(grid8, phys.medium, phys.data)

    def test_wrong_shape_rejected(self, grid4):
        for shape in ((3, 64), (6, 4, 4, 4), (384,), (7, 64)):
            with pytest.raises(ValueError, match="grid needs"):
                FieldState(grid4, MediumParams(), np.zeros(shape))
        # A spectral state holds the half spectrum, (6, n_spectral).
        assert grid4.n_spectral == 48
        with pytest.raises(ValueError, match=r"grid needs \(6, 48\)"):
            FieldState(grid4, MediumParams(), np.zeros((6, 64), dtype=complex))
        FieldState(grid4, MediumParams(), np.zeros((6, 48), dtype=complex))

    def test_components_are_views(self, grid4, rng):
        state = random_band_limited_state(grid4, rng)
        assert len(state.component_arrays()) == 6
        for row, arr in zip(state.data, state.component_arrays()):
            assert np.shares_memory(row, arr)

    def test_representation_tag(self, grid4, rng):
        phys = random_band_limited_state(grid4, rng)
        assert phys.representation == "physical"
        assert to_spectral(phys).representation == "spectral"
