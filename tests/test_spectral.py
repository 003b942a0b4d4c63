"""Transforms, normalization contract, derivatives, and realization."""

import numpy as np
import pytest

from psmaxwell import (
    DomainSpec,
    ImaginaryResidueError,
    PhysicalField,
    SpectralField,
    apply_derivative,
    build_grid,
    dft3_forward,
    dft3_inverse,
    realize,
)
from psmaxwell.grid import flatten_index
from psmaxwell.oracle import dense_diff_operator, naive_dft3

from conftest import random_band_limited_field


class TestForward:
    def test_constant_field_is_dc_only(self, grid4):
        f = PhysicalField(grid4, np.full(grid4.n_total, 2.5))
        spec = dft3_forward(f).data
        assert spec[0] == pytest.approx(2.5 * grid4.n_total, rel=1e-14)
        assert np.max(np.abs(spec[1:])) < 1e-12 * grid4.n_total

    def test_single_harmonic(self, grid4):
        x = np.broadcast_to(
            grid4.points_x.reshape(1, 1, -1), grid4.shape
        ).ravel()
        f = PhysicalField(grid4, np.cos(grid4.nu_x * x))
        spec = dft3_forward(f).data
        n_s = grid4.n_total
        plus = flatten_index(1, 0, 0, grid4)
        minus = flatten_index(3, 0, 0, grid4)
        assert spec[plus] == pytest.approx(n_s / 2, abs=1e-11)
        assert spec[minus] == pytest.approx(n_s / 2, abs=1e-11)
        rest = np.delete(np.abs(spec), [plus, minus])
        assert np.max(rest) < 1e-12 * n_s

    def test_matches_naive_dft(self, grid4, rng):
        f = PhysicalField(grid4, rng.standard_normal(grid4.n_total))
        fast = dft3_forward(f).data
        slow = naive_dft3(f).data
        scale = np.max(np.abs(slow))
        assert np.max(np.abs(fast - slow)) < 1e-12 * scale

    def test_size_mismatch_rejected(self, grid4):
        with pytest.raises(ValueError, match="does not match"):
            PhysicalField(grid4, np.zeros(10))


class TestInverse:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_round_trip(self, n, rng):
        grid = build_grid(DomainSpec.cube(0.0, 1.0), n, n, n)
        data = rng.standard_normal(grid.n_total)
        back = dft3_inverse(dft3_forward(PhysicalField(grid, data))).data
        assert np.max(np.abs(back - data)) <= 1e-13 * np.max(np.abs(data))

    def test_zero_spectrum(self, grid4):
        out = dft3_inverse(SpectralField(grid4, np.zeros(grid4.n_total))).data
        assert np.all(out == 0.0)

    def test_dc_spectrum_gives_constant_one(self, grid4):
        spec = np.zeros(grid4.n_total, dtype=complex)
        spec[0] = grid4.n_total
        out = dft3_inverse(SpectralField(grid4, spec)).data
        np.testing.assert_allclose(out.real, 1.0, rtol=0, atol=1e-14)


class TestRealize:
    def test_real_input_passthrough(self, grid4):
        f = PhysicalField(grid4, np.ones(grid4.n_total))
        out, residue = realize(f)
        assert residue == 0.0
        assert not np.iscomplexobj(out.data)

    def test_records_small_residue(self, grid4):
        data = np.ones(grid4.n_total, dtype=complex)
        data += 1e-14j
        out, residue = realize(PhysicalField(grid4, data))
        assert residue == pytest.approx(1e-14)
        np.testing.assert_array_equal(out.data, 1.0)

    def test_flags_large_residue(self, grid4):
        data = np.ones(grid4.n_total, dtype=complex) + 1e-3j
        with pytest.raises(ImaginaryResidueError):
            realize(PhysicalField(grid4, data))

    def test_stack_magnitude_allows_zero_component(self, grid4):
        # Roundoff-level junk in an essentially zero component is fine when
        # judged against the magnitude of the full stacked state.
        data = np.full(grid4.n_total, 1e-16 + 1e-16j)
        with pytest.raises(ImaginaryResidueError):
            realize(PhysicalField(grid4, data))
        stack = np.stack([np.ones(grid4.n_total, dtype=complex), data])
        out, residue = realize(PhysicalField(grid4, stack))
        assert residue == pytest.approx(1e-16)
        assert out.data.shape == (2, grid4.n_total)
        np.testing.assert_array_equal(out.data, stack.real)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_flags_non_finite_magnitude(self, grid4, bad):
        data = np.ones(grid4.n_total, dtype=complex)
        data[3] = bad
        with pytest.raises(ImaginaryResidueError, match="non-finite"):
            realize(PhysicalField(grid4, data))
        # A non-finite sample in any row of a stack, not only the first.
        stack = np.ones((3, grid4.n_total), dtype=complex)
        stack[2, 3] = bad
        with pytest.raises(ImaginaryResidueError, match="non-finite"):
            realize(PhysicalField(grid4, stack))


class TestDerivative:
    def test_sin_becomes_cos(self, grid8):
        x = np.broadcast_to(grid8.points_x.reshape(1, 1, -1), grid8.shape).ravel()
        f = PhysicalField(grid8, np.sin(grid8.nu_x * x))
        dspec = apply_derivative(dft3_forward(f), "x")
        df, _ = realize(dft3_inverse(dspec))
        expected = grid8.nu_x * np.cos(grid8.nu_x * x)
        assert np.max(np.abs(df.data - expected)) <= 1e-12 * grid8.nu_x

    def test_constant_derivative_is_zero(self, grid4):
        f = PhysicalField(grid4, np.full(grid4.n_total, 3.0))
        for axis in ("x", "y", "z"):
            dspec = apply_derivative(dft3_forward(f), axis)
            out = dft3_inverse(dspec).data
            assert np.max(np.abs(out)) < 1e-13

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_matches_dense_cotangent_matrix(self, grid8, rng, axis):
        data = rng.standard_normal(grid8.n_total)
        dense = dense_diff_operator(grid8, axis) @ data
        spec = apply_derivative(dft3_forward(PhysicalField(grid8, data)), axis)
        fast, _ = realize(dft3_inverse(spec))
        assert np.max(np.abs(fast.data - dense)) <= 1e-11 * max(np.max(np.abs(dense)), 1.0)

    def test_nyquist_mode_annihilated(self, grid4):
        # Pure Nyquist sawtooth along x: derivative must be exactly zero.
        cube = np.zeros(grid4.shape, dtype=complex)
        cube[:, :, grid4.n_x // 2] = 1.0
        dspec = apply_derivative(SpectralField(grid4, cube.ravel()), "x")
        assert np.all(dspec.data == 0.0)

    def test_invalid_axis(self, grid4):
        f = SpectralField(grid4, np.zeros(grid4.n_total, dtype=complex))
        with pytest.raises(ValueError, match="axis"):
            apply_derivative(f, "w")


class TestBatch:
    def test_stack_matches_row_by_row(self, rng):
        # Leading batch axes transform each row exactly as on its own.
        grid = build_grid(DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0), 6, 4, 8)
        data = rng.standard_normal((2, 3, grid.n_total))
        spec = dft3_forward(PhysicalField(grid, data)).data
        deriv = apply_derivative(SpectralField(grid, spec), "y").data
        back = dft3_inverse(SpectralField(grid, spec)).data
        assert spec.shape == deriv.shape == back.shape == data.shape
        for i in range(2):
            for j in range(3):
                row = dft3_forward(PhysicalField(grid, data[i, j])).data
                np.testing.assert_array_equal(spec[i, j], row)
                np.testing.assert_array_equal(
                    deriv[i, j], apply_derivative(SpectralField(grid, row), "y").data
                )
                np.testing.assert_array_equal(
                    back[i, j], dft3_inverse(SpectralField(grid, row)).data
                )


class TestProperties:
    def test_linearity(self, grid4, rng):
        f = rng.standard_normal(grid4.n_total)
        g = rng.standard_normal(grid4.n_total)
        a, b = 1.7, -0.3
        lhs = dft3_forward(PhysicalField(grid4, a * f + b * g)).data
        rhs = a * dft3_forward(PhysicalField(grid4, f)).data + b * dft3_forward(
            PhysicalField(grid4, g)
        ).data
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))

    def test_parseval(self, grid8, rng):
        data = rng.standard_normal(grid8.n_total)
        spec = dft3_forward(PhysicalField(grid8, data)).data
        n_s = grid8.n_total
        physical = np.sum(data**2) / n_s
        spectral = np.sum(np.abs(spec) ** 2) / n_s**2
        assert spectral == pytest.approx(physical, rel=1e-12)

    def test_derivatives_commute(self, grid4, rng):
        spec = SpectralField(
            grid4, rng.standard_normal(grid4.n_total) + 1j * rng.standard_normal(grid4.n_total)
        )
        xy = apply_derivative(apply_derivative(spec, "x"), "y").data
        yx = apply_derivative(apply_derivative(spec, "y"), "x").data
        scale = max(np.max(np.abs(xy)), 1e-300)
        assert np.max(np.abs(xy - yx)) <= 1e-13 * scale

    def test_conjugate_symmetry_of_real_transform(self, grid4, rng):
        spec = dft3_forward(
            PhysicalField(grid4, rng.standard_normal(grid4.n_total))
        ).data.reshape(grid4.shape)
        n = 4
        for mz in range(n):
            for my in range(n):
                for mx in range(n):
                    a = spec[mz, my, mx]
                    b = spec[(-mz) % n, (-my) % n, (-mx) % n]
                    assert abs(a - np.conj(b)) < 1e-12 * grid4.n_total

    def test_band_limited_helper_round_trips(self, grid4, rng):
        data = random_band_limited_field(grid4, rng)
        spec = dft3_forward(PhysicalField(grid4, data)).data.reshape(grid4.shape)
        assert np.max(np.abs(spec[:, :, 2])) < 1e-10
        assert np.max(np.abs(spec[:, 2, :])) < 1e-10
        assert np.max(np.abs(spec[2, :, :])) < 1e-10
