"""The dense reference implementations are themselves checked here."""

import numpy as np
import pytest

from psmaxwell import (
    DomainSpec,
    MediumParams,
    apply_derivative,
    build_grid,
    dft3_forward,
    dft3_inverse,
)

from conftest import random_band_limited_field
from oracle import (
    broadcast_wavenumbers,
    dense_curl,
    dense_dft_matrix,
    dense_diff_matrix,
    dense_diff_operator,
    dense_expm,
    naive_dft3,
)


class TestDenseDiffMatrix:
    def test_n2_is_zero(self):
        grid = build_grid(DomainSpec.cube(0.0, 2.0 * np.pi), 2, 2, 2)
        # Single off-diagonal pair: 0.5*nu*(-1)*cot(nu*h/2) with nu*h = pi,
        # and cot(pi/2) = 0.  Floating point puts cot(pi/2) at ~6e-17, so the
        # direct evaluation of the formula is zero only to roundoff.
        d = dense_diff_matrix(grid, 0)
        assert np.all(np.diag(d) == 0.0)
        assert np.max(np.abs(d)) < 1e-15

    @pytest.mark.parametrize("n", [4, 8])
    def test_antisymmetry_exact(self, n):
        grid = build_grid(DomainSpec.cube(0.0, 2.0), n, n, n)
        d = dense_diff_matrix(grid, 0)
        np.testing.assert_array_equal(d, -d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_equals_dft_diagonalization_1d(self):
        # Compose the 1D DFT matrices with the diagonal i*kvec by hand.
        n = 8
        grid = build_grid(DomainSpec.cube(0.0, 2.0), n, n, n)
        j = np.arange(n)
        f = np.exp(-2j * np.pi * np.outer(j, j) / n)
        f_inv = np.exp(2j * np.pi * np.outer(j, j) / n) / n
        lam = np.diag(1j * grid.kvec_x)
        composed = f_inv @ lam @ f
        dense = dense_diff_matrix(grid, 0)
        assert np.max(np.abs(composed.imag)) < 1e-12
        assert np.max(np.abs(composed.real - dense)) < 1e-11

    def test_size_guard(self):
        grid = build_grid(DomainSpec.cube(0.0, 1.0), 32, 4, 4)
        with pytest.raises(ValueError, match="test-only"):
            dense_diff_matrix(grid, 0)


class TestDenseCurl:
    def test_symmetric_as_a_block_matrix(self, grid4):
        d = dense_curl(grid4)
        np.testing.assert_array_equal(d, d.T)

    def test_matches_spectral_curl_on_band_limited_field(self, grid4, rng):
        comps = [random_band_limited_field(grid4, rng) for _ in range(3)]
        stacked = np.concatenate(comps)
        dense = dense_curl(grid4) @ stacked

        def d(axis, values):
            return dft3_inverse(grid4, apply_derivative(grid4, dft3_forward(grid4, values), axis))

        spectral = np.concatenate([
            d(1, comps[2]) - d(2, comps[1]),
            d(2, comps[0]) - d(0, comps[2]),
            d(0, comps[1]) - d(1, comps[0]),
        ])
        scale = max(np.max(np.abs(dense)), 1.0)
        assert np.max(np.abs(dense - spectral)) < 1e-11 * scale

    def test_commutes_with_axis_blocks(self, grid4):
        d = dense_curl(grid4)
        for axis in range(3):
            dk = dense_diff_operator(grid4, axis)
            bk = np.kron(np.eye(3), dk)
            assert np.max(np.abs(bk @ d - d @ bk)) < 1e-12

    def test_size_guard(self):
        grid = build_grid(DomainSpec.cube(0.0, 1.0), 16, 4, 4)
        with pytest.raises(ValueError, match="test-only"):
            dense_curl(grid)


class TestDenseExpm:
    def test_zero_exponent_is_identity(self, rng):
        a = rng.standard_normal((6, 6))
        np.testing.assert_array_equal(dense_expm(a, 0.0), np.eye(6))

    def test_group_inverse(self, rng):
        a = rng.standard_normal((12, 12))
        a = a - a.T  # skew, bounded spectrum
        prod = dense_expm(a, 0.8) @ dense_expm(a, -0.8)
        assert np.max(np.abs(prod - np.eye(12))) < 1e-11

    def test_block_cos_sin_structure_of_maxwell_operator(self, grid4):
        # The grid-level evolution operator has the closed form
        # [[cos(kappa*D), -sin(kappa*D)], [sin(kappa*D), cos(kappa*D)]]
        # with D the dense curl; compare against the plain series expm.
        medium = MediumParams()
        t = 0.6
        kappa = t / np.sqrt(medium.mu * medium.eps)
        d = dense_curl(grid4)
        n = d.shape[0]
        a = np.block([[np.zeros_like(d), -d], [d, np.zeros_like(d)]]) / np.sqrt(
            medium.mu * medium.eps
        )
        full = dense_expm(a, t)
        # cos/sin of the symmetric matrix via one unitary exponential.
        u = dense_expm(1j * kappa * d)
        cos_d, sin_d = u.real, u.imag
        expected = np.block([[cos_d, -sin_d], [sin_d, cos_d]])
        assert np.max(np.abs(full - expected)) < 1e-11

    def test_orthogonality_for_skew_input(self, grid4):
        d = dense_curl(grid4)
        a = np.block([[np.zeros_like(d), -d], [d, np.zeros_like(d)]])
        e = dense_expm(a, 0.35)
        assert np.max(np.abs(e.T @ e - np.eye(e.shape[0]))) < 1e-12

    def test_size_guard(self):
        with pytest.raises(ValueError, match="test-only"):
            dense_expm(np.zeros((601, 601)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            dense_expm(np.zeros((3, 4)))


class TestNaiveDft:
    def test_constant_is_dc_only(self, grid4):
        spec = naive_dft3(grid4, np.full(grid4.n_total, -1.25))
        assert spec[0] == pytest.approx(-1.25 * grid4.n_total, rel=1e-13)
        assert np.max(np.abs(spec[1:])) < 1e-12 * grid4.n_total

    def test_single_harmonic_two_modes(self, grid4):
        x = np.broadcast_to(grid4.points_x.reshape(1, 1, -1), grid4.shape).ravel()
        spec = naive_dft3(grid4, np.cos(grid4.nu_x * x))
        nonzero = np.flatnonzero(np.abs(spec) > 1e-10)
        assert set(nonzero) == {1, 3}

    def test_agrees_with_fast_transform(self, grid4, rng):
        data = rng.standard_normal(grid4.n_total)
        slow = naive_dft3(grid4, data).reshape(grid4.shape)[..., : grid4.n_x // 2 + 1].ravel()
        fast = dft3_forward(grid4, data)
        assert np.max(np.abs(slow - fast)) <= 1e-12 * np.max(np.abs(data)) * grid4.n_total

    def test_dense_matrix_is_unitary_up_to_scale(self, grid4):
        w = dense_dft_matrix(grid4)
        gram = w.conj().T @ w / grid4.n_total
        assert np.max(np.abs(gram - np.eye(grid4.n_total))) < 1e-11

    def test_size_guard(self):
        grid = build_grid(DomainSpec.cube(0.0, 1.0), 16, 4, 4)
        with pytest.raises(ValueError, match="test-only"):
            naive_dft3(grid, np.zeros(grid.n_total))


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
            l, k, j = np.unravel_index(flat, grid4.shape)
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
