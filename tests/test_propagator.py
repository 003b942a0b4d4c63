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
    build_coefficients,
    build_grid,
    divergences,
    error_norms,
    propagate,
    sample_initial,
    step,
    to_physical,
    to_spectral,
)
from psmaxwell import propagator, spectral
from psmaxwell.spectral import ImaginaryResidueError, cross, wavenumbers

from conftest import (
    handed_out_blocks,
    perturb_plane,
    random_band_limited_state,
    state_norm,
    zero_state,
)
from oracle import (
    broadcast_wavenumbers,
    dense_curl,
    dense_expm,
    direct_flow_factors,
    flow_blocks,
    full_flow_factors,
    table_flow_factors,
)


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


# Unit roundoff: half an ulp of 1.
_U = 2.0**-53

# A box, so the tables are keyed by octant position, and a cube, keyed by
# the integer M = mx^2 + my^2 + mz^2.
_BOX = DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0)
_CUBE = DomainSpec.cube(0.0, 1.0)


class TestBuildCoefficients:
    @pytest.mark.parametrize("domain", [_BOX, _CUBE], ids=["box", "cube"])
    @pytest.mark.parametrize(
        "counts", [(2, 4, 6), (32, 32, 32), (128, 64, 4)], ids=lambda c: "x".join(map(str, c))
    )
    def test_table_factors_match_whole_array_formula(self, domain, counts):
        # Every mode's factors from the table against the closed form on
        # the mode itself.  On a box the table holds the formula's bits.  On
        # a cube theta is rounded from nu^2 M instead of the sum of three
        # squares: the direct |b|^2 is within 5 ulps (each wavenumber and
        # its square rounded, two additions), the table's within 2 (nu^2,
        # times M), so with kappa^2 the same bits psi differs by at most 9
        # ulps and theta = sqrt(psi) by 4.5 + 2 = 6.5.  np.sinc rounds its
        # argument's scaling twice per path, so sin's argument y differs by
        # at most 11 ulps of theta, sin(y) by 11 u theta, and sin(y) / y by
        # 11 u + 11 u (y itself) + 2 u (sin and the division): 24 u, with
        # |sinc| <= 1.  Then r1 = -sinc^2 / 2 is within 24 u + 2 u, rho =
        # -kappa^2 r1 within 27 u kappa^2 and t r2 within 25 u |t|.
        grid = build_grid(domain, *counts)
        medium = MediumParams(mu=2.0, eps=0.5)
        for t in (0.0, 1.3, -2.6, 6130.0, -3e5):
            c = build_coefficients(grid, medium, t)
            rho, sine = table_flow_factors(c)
            rho_ref, sine_ref = direct_flow_factors(c)
            assert rho.dtype == np.complex128 and sine.dtype == np.float64
            if domain is _BOX:
                np.testing.assert_array_equal(rho, rho_ref)
                np.testing.assert_array_equal(sine, sine_ref)
            else:
                assert np.max(np.abs(rho - rho_ref)) <= 27 * _U * c.kappa**2
                assert np.max(np.abs(sine - sine_ref)) <= 25 * _U * abs(t)

    def test_cube_table_has_one_entry_per_norm(self):
        # 3 (n/2 - 1)^2 + 1 entries at 32^3, the Nyquist modes keyed to 0.
        grid = build_grid(_CUBE, 32, 32, 32)
        key_xy, key_z, rho, sine = propagator._flow_tables(
            build_coefficients(grid, MediumParams(), 1.3)
        )
        assert rho.shape == sine.shape == (3 * 15**2 + 1,)
        assert key_xy[grid.n_y // 2, grid.n_x // 2] == key_z[grid.n_z // 2] == 0

    def test_zero_time_is_identity(self, grid4):
        c = build_coefficients(grid4, MediumParams(), 0.0)
        rho, sine = table_flow_factors(c)
        np.testing.assert_array_equal(rho, 0.0)
        np.testing.assert_array_equal(sine, 0.0)
        cos, sin = flow_blocks(c)
        np.testing.assert_array_equal(cos[:, 0, 0], 1.0)
        np.testing.assert_array_equal(cos[:, 1, 1], 1.0)
        np.testing.assert_array_equal(cos[:, 2, 2], 1.0)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            np.testing.assert_array_equal(cos[:, i, j], 0.0)
            np.testing.assert_array_equal(sin[:, i, j], 0.0)

    def test_theta_pi_mode(self, grid4):
        # Mode b = (1, 0, 0) with kappa = pi: theta = pi, sin(pi) = 0, and
        # rho = -kappa^2 r1 = 2.  rho lives on the half spectrum, the sine
        # blocks on the full layout.
        c = build_coefficients(grid4, MediumParams(), np.pi)
        m = np.ravel_multi_index((0, 0, 1), grid4.shape)
        half = np.ravel_multi_index((0, 0, 1), grid4.spectral_shape)
        _, sin = flow_blocks(c)
        assert abs(sin[m, 0, 1]) < 1e-15
        assert abs(sin[m, 0, 2]) < 1e-15
        assert abs(sin[m, 1, 2]) < 1e-15
        assert table_flow_factors(c)[0][half] == pytest.approx(2.0, rel=1e-14)

    def test_zero_wavenumber_modes_get_identity_block(self, grid4):
        c = build_coefficients(grid4, MediumParams(), 3.7)
        b_x, b_y, b_z = broadcast_wavenumbers(c.grid)
        b_sq = b_x**2 + b_y**2 + b_z**2
        cos, sin = flow_blocks(c)
        # Eight such modes at N=4: indices in {0, 2} per axis.
        zero_modes = np.flatnonzero(b_sq == 0.0)
        assert len(zero_modes) == 8
        for m in zero_modes:
            np.testing.assert_allclose(cos[m], np.eye(3), rtol=0, atol=0)
            np.testing.assert_array_equal(sin[m], np.zeros((3, 3)))

    def test_blocks_match_dense_matrix_functions(self, grid4):
        # Per-mode cosine/sine blocks vs cos/sin of the per-mode generator
        # computed by the series exponential (kappa = 0.7).
        kappa = 0.7
        c = build_coefficients(grid4, MediumParams(), 0.7)
        b_x, b_y, b_z = broadcast_wavenumbers(c.grid)
        cos, sin = flow_blocks(c)
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
            np.testing.assert_allclose(cos[m], cos_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(sin[m], sin_ref, rtol=0, atol=1e-12)

    def test_half_layout_matches_full_accessors(self):
        # rho and t r2 cover the half spectrum; mirrored to the full mode
        # layout they equal the closed forms evaluated there directly.
        grid = build_grid(_BOX, 6, 4, 2)
        c = build_coefficients(grid, MediumParams(mu=2.0, eps=0.5), 0.9)
        rho, sine = table_flow_factors(c)
        assert rho.shape == sine.shape == (grid.n_spectral,)
        b_x, b_y, b_z = broadcast_wavenumbers(grid)
        theta = np.sqrt(c.kappa**2 * (b_x**2 + b_y**2 + b_z**2))
        rho, sine = full_flow_factors(c)
        r1_ref = -0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2
        np.testing.assert_allclose(rho, -c.kappa**2 * r1_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(sine, c.t * np.sinc(theta / np.pi), rtol=0, atol=1e-15)

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
        cos, sin = flow_blocks(coeffs)
        worst_norm = 0.0
        worst_commute = 0.0
        for m in range(grid4.n_total):
            c = cos[m]
            s = sin[m]
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
        cos, sin = flow_blocks(build_coefficients(grid4, MediumParams(), 0.9))
        c11, c12, c13 = cos[:, 0].T
        c22, c23, c33 = cos[:, 1, 1], cos[:, 1, 2], cos[:, 2, 2]
        # The sine magnitudes s12 = kappa b_z r2 and cyclic: S = i kappa r2 [b]x.
        s12, s13, s23 = -sin[:, 0, 1].imag, sin[:, 0, 2].imag, -sin[:, 1, 2].imag
        bx, by, bz = broadcast_wavenumbers(grid4)
        scale = max(np.max(np.abs(bx)), np.max(np.abs(by)), np.max(np.abs(bz)))
        tol = 1e-13 * max(scale, 1.0)
        assert np.max(np.abs(bx * c11 + by * c12 + bz * c13 - bx)) <= tol
        assert np.max(np.abs(bx * c12 + by * c22 + bz * c23 - by)) <= tol
        assert np.max(np.abs(bx * c13 + by * c23 + bz * c33 - bz)) <= tol
        assert np.max(np.abs(-bx * s12 + bz * s23)) <= tol
        assert np.max(np.abs(by * s12 - bz * s13)) <= tol
        assert np.max(np.abs(bx * s13 - by * s23)) <= tol


def whole_array_step(state: FieldState, coeffs, factors=table_flow_factors) -> np.ndarray:
    """The flow of ``step`` as one whole-array formula, in the same operation order.

    ``factors(coeffs)`` gives ``rho`` and ``t r2`` on the flat half
    spectrum: by default the package's table, gathered onto every mode.
    """
    shape = state.grid.spectral_shape
    b = wavenumbers(state.grid)
    fields = state.data.reshape((6,) + shape)
    curls = np.empty_like(fields)
    cross(b, fields[:3], curls[:3])
    cross(b, fields[3:], curls[3:])
    out = np.empty_like(fields)
    cross(b, curls[:3], out[:3])
    cross(b, curls[3:], out[3:])
    rho, sine = (f.reshape(shape) for f in factors(coeffs))
    out *= rho
    out += fields
    curls *= sine
    curls[:3] *= -1j / state.medium.mu
    curls[3:] *= 1j / state.medium.eps
    out[:3] += curls[3:]
    out[3:] += curls[:3]
    return out.reshape(6, -1)


class TestStep:
    @pytest.mark.parametrize("counts", [(32, 32, 32), (128, 64, 4)])
    def test_blocks_match_whole_array_formula(self, counts, rng):
        # step walks all n_z planes in order.  32^3 has 544 modes per
        # z-plane: several planes per block and a ragged last block.
        # 128 x 64 x 4 has 4160 modes per plane, more than one block holds,
        # so each block is a single plane.
        grid = build_grid(DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0), *counts)
        plane = grid.n_y * grid.spectral_shape[-1]
        planes = max(1, spectral._BLOCK_MODES // plane)
        if counts == (32, 32, 32):
            assert 1 < planes < grid.n_z and grid.n_z % planes != 0
        else:
            assert plane > spectral._BLOCK_MODES
        medium = MediumParams(mu=2.0, eps=0.5)
        state = to_spectral(random_band_limited_state(grid, rng, medium))
        kept = state.data.copy()
        coeffs = build_coefficients(grid, medium, 1.3)
        out = step(state, coeffs)
        np.testing.assert_array_equal(out.data, whole_array_step(state, coeffs))
        np.testing.assert_array_equal(state.data, kept)
        assert out.time == state.time + 1.3

    @pytest.mark.parametrize("t", [0.0, 1.3, -7.9])
    @pytest.mark.parametrize("counts", [(32, 32, 32), (128, 64, 4), (2, 4, 6)])
    def test_in_place_matches_copy_bitwise(self, counts, t, rng):
        grid = build_grid(DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0), *counts)
        medium = MediumParams(mu=2.0, eps=0.5)
        state = to_spectral(random_band_limited_state(grid, rng, medium))
        coeffs = build_coefficients(grid, medium, t)
        out = step(state, coeffs)
        owned = FieldState(grid, medium, state.data.copy(), time=state.time)
        in_place = step(owned, coeffs, overwrite=True)
        np.testing.assert_array_equal(in_place.data, out.data)
        assert in_place.time == out.time
        assert in_place.data.ctypes.data == owned.data.ctypes.data

    @pytest.mark.parametrize("overwrite", [False, True])
    @pytest.mark.parametrize("t", [0.0, 1.3, -7.9])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_pooled_blocks_match_whole_array_formula(self, workers, rng, n, t, overwrite):
        # An anisotropic box of 1000 modes per plane and 36 planes, in
        # blocks of 4 planes on the calling thread and of up to 16 in each
        # of the pool's slabs: two blocks in each 18-plane slab of 2
        # workers, one in each shorter slab of 4, against the formula's
        # bits, signed zeros included.
        grid = build_grid(DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0), 48, 40, 36)
        medium = MediumParams(mu=2.0, eps=0.5)
        state = to_spectral(random_band_limited_state(grid, rng, medium))
        coeffs = build_coefficients(grid, medium, t)
        expected = whole_array_step(state, coeffs)
        workers(n)
        bounds = spectral._slab_bounds(grid.n_z, state.data.size)
        assert len(bounds) == n + 1
        if overwrite:
            state = FieldState(grid, medium, state.data.copy())
        out, blocks = handed_out_blocks(
            propagator, lambda: step(state, coeffs, overwrite=overwrite)
        )
        if n == 1:
            assert blocks == [(q, q + 4) for q in range(0, 36, 4)]
        else:
            slabs = zip(bounds, bounds[1:])
            assert blocks == [(q, min(q + 16, hi)) for lo, hi in slabs for q in range(lo, hi, 16)]
        np.testing.assert_array_equal(out.data.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize(
        "domain, counts",
        [(_CUBE, (8, 8, 8)), (_CUBE, (64, 64, 64)), (_CUBE, (32, 16, 8)),
         (_BOX, (8, 8, 8)), (_BOX, (64, 48, 32))],
        ids=["cube-8", "cube-64", "cube-32x16x8", "box-8", "box-64x48x32"],
    )
    def test_matches_direct_factors_within_theta_roundoff(self, workers, rng, domain, counts, n):
        # Against the whole-array formula with the factors evaluated on
        # every mode directly.  On a box the table holds those bits.  On a
        # cube the two paths round theta differently, so they differ by
        # what theta's roundoff moves, not by a few ulps of F.  In the
        # impedance-scaled fields (sqrt(eps) E, sqrt(mu) H) the flow
        # rotates each mode by theta, and step's factors are rotations by
        # the argument np.sinc passes to sin.  By the count in
        # test_table_factors_match_whole_array_formula: |Delta sinc| <= 24 u
        # and |sinc(theta/2)| <= 2/theta give |Delta r1| theta^2 <= 52 u theta
        # for the cosine part, |Delta r2| theta <= 25 u theta for the sine
        # part; both parts then round their product and sum (<= 10 u |F|).
        # So each mode's scaled change is at most u (77 theta + 10) times
        # its scaled norm: the scale 2^-53 theta |F| of theta's roundoff,
        # with the constant of this count.
        grid = build_grid(domain, *counts)
        workers(n)
        for medium in (MediumParams(), MediumParams(mu=2.0, eps=0.5)):
            state = to_spectral(random_band_limited_state(grid, rng, medium))
            for t in (1.3, -3e5):
                coeffs = build_coefficients(grid, medium, t)
                out = step(state, coeffs).data
                expected = whole_array_step(state, coeffs, direct_flow_factors)
                if domain is _BOX:
                    np.testing.assert_array_equal(out, expected)
                    continue
                kx, ky, kz = wavenumbers(grid)
                theta = abs(coeffs.kappa) * np.sqrt(kx * kx + ky * ky + kz * kz).ravel()
                scale = np.sqrt([medium.eps, medium.mu]).reshape(2, 1, 1)

                def scaled_norm(data):
                    return np.linalg.norm(scale * data.reshape(2, 3, -1), axis=(0, 1))

                bound = _U * (77 * theta + 10) * scaled_norm(state.data)
                assert np.all(scaled_norm(out - expected) <= bound)

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

    def test_coefficients_on_an_equal_grid_accepted(self, grid4, rng):
        state = to_spectral(random_band_limited_state(grid4, rng))
        twin = build_grid(DomainSpec.cube(0.0, 2.0 * np.pi), 4, 4, 4)
        assert twin is not grid4
        out = step(state, build_coefficients(twin, state.medium, 1.0))
        expected = step(state, build_coefficients(grid4, state.medium, 1.0))
        np.testing.assert_array_equal(out.data, expected.data)

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

    def test_spectral_input_matches_physical(self, grid8, rng):
        # A spectral initial state skips the forward transform and is stepped
        # into a new spectrum, which is returned as it is: bitwise step's
        # result.  Transformed back, it is bitwise what a physical input,
        # stepped in place in its own spectrum, gives, and the caller's
        # spectrum is not touched.
        medium = MediumParams(mu=2.0, eps=0.5)
        state = random_band_limited_state(grid8, rng, medium)
        spectral = to_spectral(state)
        kept = spectral.data.copy()
        from_physical = propagate(state, 3.7)
        from_spectral = propagate(spectral, 3.7)
        assert from_spectral.representation == "spectral"
        stepped = step(spectral, build_coefficients(grid8, medium, 3.7))
        np.testing.assert_array_equal(from_spectral.data, stepped.data)
        assert from_spectral.time == stepped.time == 3.7
        final = to_physical(from_spectral, overwrite=True)
        np.testing.assert_array_equal(final.data, from_physical.data)
        assert final.time == from_physical.time
        assert final.imag_residue == from_physical.imag_residue
        np.testing.assert_array_equal(spectral.data, kept)

    def test_spectral_input_is_never_transformed_back(self, grid8, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("propagate transformed a spectral input back")

        spectral = to_spectral(random_band_limited_state(grid8, rng))
        monkeypatch.setattr(propagator, "realize", refuse)
        monkeypatch.setattr(propagator, "dft3_inverse", refuse)
        assert propagate(spectral, 2.9).representation == "spectral"

    def test_traveling_wave_example(self):
        case = TravelingWave()
        grid = build_grid(case.default_domain, 16, 16, 16)
        final = propagate(sample_initial(case, grid), 10.0)
        errors = error_norms(final, case)
        assert errors.linf <= 1e-8

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize(
        "case",
        [
            TravelingWave(),
            StandingWave(),
            StandingWave(medium=MediumParams(eps=2.0)),
            StandingWave(medium=MediumParams(eps=0.3)),
        ],
        ids=["traveling", "standing", "standing-eps2", "standing-eps0.3"],
    )
    def test_long_time_error_model(self, case, n):
        # The field error grows only through the rounding of each mode's
        # angle theta and of the reference's time phase, so with C = 1
        # linf <= C 2^-53 theta_max max|u(0)| + 1e-13 at any time.  Round
        # times can cancel the two roundings, which leaves some far below.
        grid = build_grid(case.default_domain, n, n, n)
        initial = sample_initial(case, grid)
        for t in (1.0, 1.2345e3, 1e6 + 0.37, 1.2345e9, 3.3e10, 1.2345e12):
            bound = 2.0**-53 * theta_max(grid, case.medium, t) * state_norm(initial) + 1e-13
            assert error_norms(propagate(initial, t), case).linf <= bound, t

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

    @staticmethod
    def propagation_peak_in_states(state: FieldState) -> float:
        """Tracemalloc peak of reaching the physical state at t = 1.3 the way
        the CLI does, inverse included, in real six-component states."""
        tracemalloc.start()
        try:
            to_physical(propagate(state, 1.3), overwrite=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (6 * state.grid.n_total * 8)

    # Half spectra, factors built block by block inside step, and one
    # batched transform each way, the inverse writing its samples over the
    # stepped spectrum: a physical input is stepped in place in the
    # spectrum propagate made for it, and a spectral input into one new
    # spectrum, which propagate returns and to_physical overwrites, so
    # either peaks in step, with one spectrum and the block temporaries
    # alive (1.67 states at 32^3).
    def test_peak_memory_within_two_states(self, rng):
        grid = build_grid(DomainSpec.cube(0.0, 1.0), 32, 32, 32)
        state = random_band_limited_state(grid, rng)
        assert self.propagation_peak_in_states(state) <= 1.75

    def test_peak_memory_from_spectrum_within_two_states(self, rng):
        grid = build_grid(DomainSpec.cube(0.0, 1.0), 32, 32, 32)
        state = to_spectral(random_band_limited_state(grid, rng))
        assert self.propagation_peak_in_states(state) <= 1.75

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_from_spectrum_allocates_one_spectrum(self, workers, rng, n):
        # The stepped spectrum, which propagate returns and to_physical
        # writes its samples over, is the only spectrum-sized array, inverse
        # included.  Besides it each of step's slabs holds one block's
        # temporaries, for E and H together: the curls scratch (6 complex
        # per mode), the complex cosine factor (1 complex), the scaled sine
        # factor (1 real), and a product of one component of both fields,
        # subtracted from another formed in the output (2 complex).  The
        # buffer term has room for numpy's ufunc buffers, which step keeps
        # no longer than a plane, and with the last term for what the slabs
        # share: the two complex wavenumber planes (66 KiB here) and the
        # factor tables with their keys (84 KiB: 24 B for each of 2884
        # distinct norms, and a plane of int keys).  The gathers' int index
        # is dropped before a block's flow runs.
        grid = build_grid(DomainSpec.cube(0.0, 1.0), 64, 64, 64)
        state = to_spectral(random_band_limited_state(grid, rng))
        workers(n)
        # The warm-up call starts any pool first.
        _, blocks = handed_out_blocks(
            propagator, lambda: to_physical(propagate(state, 1.3), overwrite=True)
        )
        planes = max(stop - start for start, stop in blocks)
        modes = planes * grid.n_y * grid.spectral_shape[-1]
        per_worker = modes * (9 * 16 + 8) + np.getbufsize() * 16
        slabs = len(spectral._slab_bounds(grid.n_z, state.data.size)) - 1
        bound = state.data.nbytes + slabs * per_worker + (64 << 10)
        tracemalloc.start()
        try:
            to_physical(propagate(state, 1.3), overwrite=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)

    def test_to_physical_keeps_its_input_unless_told(self, grid8, rng):
        spectral_state = to_spectral(random_band_limited_state(grid8, rng))
        kept = spectral_state.data.copy()
        default = to_physical(spectral_state)
        np.testing.assert_array_equal(spectral_state.data, kept)
        owned = FieldState(grid8, spectral_state.medium, kept.copy())
        in_place = to_physical(owned, overwrite=True)
        np.testing.assert_array_equal(in_place.data, default.data)
        assert in_place.imag_residue == default.imag_residue

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


def random_setup(rng: np.random.Generator, max_total: int = 512):
    """A random anisotropic grid (n <= 8 per axis, random box) and medium."""
    while True:
        counts = [int(n) for n in rng.choice([2, 4, 6, 8], size=3)]
        if np.prod(counts) <= max_total:
            break
    lo = rng.uniform(-2.0, 2.0, size=3)
    hi = lo + rng.uniform(0.5, 4.0, size=3)
    domain = DomainSpec(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
    mu, eps = (float(v) for v in rng.uniform(0.25, 4.0, size=2))
    return build_grid(domain, *counts), MediumParams(mu=mu, eps=eps)


def random_time(rng: np.random.Generator, max_exponent: float) -> float:
    """A time of either sign with magnitude log-uniform in [0.1, 10**max_exponent]."""
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, max_exponent))


def theta_max(grid, medium: MediumParams, t: float) -> float:
    """Largest per-mode flow angle |kappa| |b| on the grid."""
    b_sq = sum(
        (nu * (n // 2 - 1)) ** 2
        for nu, n in zip((grid.nu_x, grid.nu_y, grid.nu_z), grid.counts())
    )
    return abs(t) / np.sqrt(medium.mu * medium.eps) * np.sqrt(b_sq)


class TestSeededProperties:
    """Flow properties on random anisotropic grids, media and times up to 1e6."""

    TRIALS = 20

    def test_group_law(self):
        # Each mode's angle theta is rounded once per coefficient build, so
        # composed and direct flows differ by about eps * theta_max.
        rng = np.random.default_rng(101)
        for _ in range(self.TRIALS):
            grid, medium = random_setup(rng)
            state = random_band_limited_state(grid, rng, medium)
            t1, t2 = random_time(rng, 6.0), random_time(rng, 6.0)
            composed = propagate(propagate(state, t1), t2)
            direct = propagate(state, t1 + t2)
            theta = max(theta_max(grid, medium, t) for t in (t1, t2, t1 + t2))
            tol = (1e-13 + 4.0 * np.finfo(float).eps * theta) * state_norm(state)
            assert np.max(np.abs(composed.data - direct.data)) <= tol
            assert composed.time == t1 + t2

    def test_reversibility(self):
        # r1, r2 are even in t, so the backward flow reuses the same rounded
        # angles and undoes the forward one to roundoff at any |t|.
        rng = np.random.default_rng(102)
        for _ in range(self.TRIALS):
            grid, medium = random_setup(rng)
            state = random_band_limited_state(grid, rng, medium)
            t = random_time(rng, 6.0)
            back = propagate(propagate(state, t), -t)
            assert np.max(np.abs(back.data - state.data)) <= 1e-12 * state_norm(state)

    def test_energy_unitarity(self):
        rng = np.random.default_rng(103)
        for _ in range(self.TRIALS):
            grid, medium = random_setup(rng)
            state = random_band_limited_state(grid, rng, medium)
            out = propagate(state, random_time(rng, 6.0))

            def energy(s):
                e, h = s.data[:3], s.data[3:]
                return medium.eps * np.sum(e * e) + medium.mu * np.sum(h * h)

            assert abs(energy(out) - energy(state)) <= 1e-13 * energy(state)

    def test_divergence_preserved(self):
        # Random states are not divergence-free; the flow keeps their
        # divergence fields as they are.
        rng = np.random.default_rng(104)
        for _ in range(self.TRIALS):
            grid, medium = random_setup(rng)
            state = random_band_limited_state(grid, rng, medium)
            out = propagate(state, random_time(rng, 6.0))
            div_e, div_h, _, _ = divergences(state)
            out_e, out_h, _, _ = divergences(out)
            assert np.max(np.abs(out_e - div_e)) <= 1e-13 * np.max(np.abs(div_e))
            assert np.max(np.abs(out_h - div_h)) <= 1e-13 * np.max(np.abs(div_h))

    def test_matches_dense_expm(self):
        # 6 * n_total <= 600 keeps the dense operator within the oracle's guard.
        rng = np.random.default_rng(105)
        for _ in range(12):
            grid, medium = random_setup(rng, max_total=100)
            state = random_band_limited_state(grid, rng, medium)
            t = random_time(rng, 2.0)
            fast = propagate(state, t)
            oracle = dense_evolution(state, t)
            scale = state_norm(state)
            for got, ref in zip(fast.component_arrays(), oracle):
                assert np.max(np.abs(got - ref)) <= 1e-11 * scale


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
