"""Half-spectrum transforms, normalization contract, derivatives, and the
Hermitian-plane guard."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from psmaxwell import (
    DomainSpec,
    ImaginaryResidueError,
    apply_derivative,
    build_grid,
    dft3_forward,
    dft3_inverse,
    realize,
    spectral,
)

from conftest import handed_out_blocks, perturb_plane, random_band_limited_field
from oracle import dense_diff_operator, naive_dft3


def _read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


def _half(grid, full_flat):
    """The kx >= 0 columns of a full flat spectrum, flat again."""
    return full_flat.reshape(grid.shape)[..., : grid.n_x // 2 + 1].ravel()


class TestForward:
    def test_constant_field_is_dc_only(self, grid4):
        spec = dft3_forward(grid4, np.full(grid4.n_total, 2.5))
        assert spec[0] == pytest.approx(2.5 * grid4.n_total, rel=1e-14)
        assert np.max(np.abs(spec[1:])) < 1e-12 * grid4.n_total

    def test_single_harmonic(self, grid4):
        # cos(nu x) has modes +-1 along x; the half spectrum keeps mode +1,
        # at flat position 1, and drops its conjugate partner -1.
        x = np.broadcast_to(
            grid4.points_x.reshape(1, 1, -1), grid4.shape
        ).ravel()
        spec = dft3_forward(grid4, np.cos(grid4.nu_x * x))
        n_s = grid4.n_total
        assert spec.shape == (grid4.n_spectral,)
        assert spec[1] == pytest.approx(n_s / 2, abs=1e-11)
        rest = np.delete(np.abs(spec), [1])
        assert np.max(rest) < 1e-12 * n_s

    def test_matches_naive_dft(self, rng):
        for counts in ((4, 4, 4), (2, 4, 6), (6, 8, 4)):
            grid = build_grid(DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0), *counts)
            f = rng.standard_normal(grid.n_total)
            fast = dft3_forward(grid, f)
            slow = _half(grid, naive_dft3(grid, f))
            scale = np.max(np.abs(slow))
            assert np.max(np.abs(fast - slow)) < 1e-12 * scale


class TestInverse:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_round_trip(self, n, rng):
        grid = build_grid(DomainSpec.cube(0.0, 1.0), n, n, n)
        data = rng.standard_normal(grid.n_total)
        back = dft3_inverse(grid, dft3_forward(grid, data))
        assert np.max(np.abs(back - data)) <= 1e-13 * np.max(np.abs(data))

    def test_zero_spectrum(self, grid4):
        out = dft3_inverse(grid4, np.zeros(grid4.n_spectral, dtype=complex))
        assert np.all(out == 0.0)

    def test_dc_spectrum_gives_constant_one(self, grid4):
        spec = np.zeros(grid4.n_spectral, dtype=complex)
        spec[0] = grid4.n_total
        out = dft3_inverse(grid4, spec)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("counts", [(2, 4, 6), (6, 8, 4)])
    def test_round_trip_anisotropic(self, counts, rng):
        grid = build_grid(DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0), *counts)
        data = rng.standard_normal((2, grid.n_total))
        spec = dft3_forward(grid, data)
        assert spec.shape == (2, grid.n_spectral)
        back = dft3_inverse(grid, spec)
        assert np.max(np.abs(back - data)) <= 1e-13 * np.max(np.abs(data))


    @pytest.mark.parametrize("counts", [(32, 32, 32), (2, 4, 6), (6, 8, 4)])
    def test_matches_irfftn_bitwise(self, counts, rng):
        # Arbitrary half spectra, Hermitian planes or not: the passes are
        # irfftn's own, out of place or in place.  By default the input is
        # left as it was; with overwrite it is the buffer the passes ran in.
        grid = build_grid(DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0), *counts)
        shape = (6, grid.n_spectral)
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        kept = spec.copy()
        out = dft3_inverse(grid, spec)
        ref = np.fft.irfftn(
            spec.reshape((6,) + grid.spectral_shape), s=grid.shape, axes=(-3, -2, -1)
        )
        np.testing.assert_array_equal(out, ref.reshape(6, grid.n_total))
        np.testing.assert_array_equal(spec, kept)
        in_place = dft3_inverse(grid, spec, overwrite=True)
        np.testing.assert_array_equal(in_place, out)
        assert not np.array_equal(spec, kept)

    @pytest.mark.parametrize("rows", [1, 2, 6])
    @pytest.mark.parametrize(
        "counts", [(32, 32, 32), (2, 4, 6), (6, 8, 4), (5, 4, 6), (7, 6, 2), (1, 2, 4)]
    )
    def test_samples_written_over_the_spectrum(self, counts, rows, rng):
        # Odd n_x leaves one spare float per x-line instead of two; the
        # transforms take any n_x, though the grid itself needs even counts.
        n_x, n_y, n_z = counts
        grid = SimpleNamespace(
            n_x=n_x,
            shape=(n_z, n_y, n_x),
            spectral_shape=(n_z, n_y, n_x // 2 + 1),
            n_total=n_x * n_y * n_z,
        )
        shape = (rows, n_z * n_y * (n_x // 2 + 1))
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = dft3_inverse(grid, spec)
        ref = np.fft.irfftn(
            spec.reshape((rows,) + grid.spectral_shape), s=grid.shape, axes=(-3, -2, -1)
        )
        np.testing.assert_array_equal(out, ref.reshape(rows, grid.n_total))
        in_place = dft3_inverse(grid, spec, overwrite=True)
        np.testing.assert_array_equal(in_place, out)
        # Each row's samples are the front of its own spectrum row.
        assert in_place.dtype == np.float64 and np.shares_memory(in_place, spec)
        for r in range(rows):
            assert in_place[r].flags.c_contiguous
            assert in_place[r].ctypes.data == spec[r].ctypes.data
        if rows == 1:
            assert in_place.flags.c_contiguous

    @pytest.mark.parametrize(
        "make",
        [
            lambda spec: np.asfortranarray(spec),
            lambda spec: spec.astype(np.complex64),
            lambda spec: spec.real.copy(),
            lambda spec: spec.tolist(),
            _read_only,
        ],
        ids=["fortran-order", "complex64", "float64", "list", "read-only"],
    )
    def test_overwrite_refuses_what_it_cannot_overwrite(self, grid4, rng, make):
        # Writing the samples into a converted copy would leave the caller's
        # array as it was and return samples that live nowhere it expects.
        shape = (6, grid4.n_spectral)
        F = make(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        kept = np.array(F)
        with pytest.raises(ValueError, match="C-contiguous complex128"):
            dft3_inverse(grid4, F, overwrite=True)
        np.testing.assert_array_equal(np.array(F), kept)


class TestRealize:
    def test_real_input_passthrough(self, grid4, rng):
        # The half spectrum of real samples passes, returned as it is.
        spec = dft3_forward(grid4, rng.standard_normal(grid4.n_total))
        out, residue = realize(grid4, spec)
        assert out is spec
        assert residue <= 1e-15 * np.max(np.abs(spec)) / grid4.n_total

    def test_records_small_residue(self, grid4):
        spec = np.zeros(grid4.n_spectral, dtype=complex)
        spec[0] = 1.0
        for column in (0, grid4.n_x // 2):  # kx = 0 and kx = n_x/2
            bad = perturb_plane(spec, grid4, column, 2e-14)
            _, residue = realize(grid4, bad)
            assert residue == pytest.approx(1e-14 / grid4.n_total)

    def test_flags_large_residue(self, grid4, rng):
        spec = dft3_forward(grid4, rng.standard_normal(grid4.n_total))
        for column in (0, grid4.n_x // 2):  # kx = 0 and kx = n_x/2
            bad = perturb_plane(spec, grid4, column, 1e-6 * np.max(np.abs(spec)))
            with pytest.raises(ImaginaryResidueError, match="Hermitian"):
                realize(grid4, bad)

    def test_magnitude_decides_beyond_the_largest_part(self, grid4):
        # The largest real or imaginary part is 1 and the magnitude sqrt(2):
        # a defect between 1e-10 and 1.41e-10 passes on the magnitude alone.
        spec = np.zeros(grid4.n_spectral, dtype=complex)
        spec[1] = 1.0 + 1.0j  # kx = 1, off the self-conjugate planes
        _, residue = realize(grid4, perturb_plane(spec, grid4, 0, 2.4e-10))
        assert residue == pytest.approx(1.2e-10 / grid4.n_total)
        with pytest.raises(ImaginaryResidueError, match="Hermitian"):
            realize(grid4, perturb_plane(spec, grid4, 0, 3e-10))

    def test_strided_input(self, grid4, rng):
        spec = dft3_forward(grid4, rng.standard_normal((2, grid4.n_total)))
        wide = np.zeros((2, 2 * grid4.n_spectral), dtype=complex)
        wide[:, ::2] = spec
        out, residue = realize(grid4, wide[:, ::2])
        assert out.base is wide and residue == realize(grid4, spec)[1]

    def test_other_columns_may_carry_any_phase(self, grid4):
        # Off the two self-conjugate planes every mode is free.
        spec = np.zeros(grid4.n_spectral, dtype=complex)
        spec[1] = 1.0j
        assert realize(grid4, spec)[1] == 0.0

    def test_stack_magnitude_allows_zero_component(self, grid4):
        # Roundoff-level defect in an essentially zero component is fine when
        # judged against the magnitude of the full stacked state.
        tiny = perturb_plane(np.zeros(grid4.n_spectral, dtype=complex), grid4, 0, 2e-16)
        with pytest.raises(ImaginaryResidueError):
            realize(grid4, tiny)
        big = np.zeros(grid4.n_spectral, dtype=complex)
        big[0] = 1.0
        out, residue = realize(grid4, np.stack([big, tiny]))
        assert residue == pytest.approx(1e-16 / grid4.n_total)
        assert out.shape == (2, grid4.n_spectral)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_flags_non_finite_magnitude(self, grid4, bad):
        data = np.ones(grid4.n_spectral, dtype=complex)
        data[3] = bad
        with pytest.raises(ImaginaryResidueError, match="non-finite"):
            realize(grid4, data)
        # A non-finite mode in any row of a stack, not only the first.
        stack = np.ones((3, grid4.n_spectral), dtype=complex)
        stack[2, 3] = bad
        with pytest.raises(ImaginaryResidueError, match="non-finite"):
            realize(grid4, stack)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("points", [8, 64])
    @pytest.mark.parametrize("n", [1, 2])
    def test_flags_non_finite_self_conjugate_planes(self, workers, n, points, bad):
        # The planes are compared with their mirrors only after the magnitude
        # check: at a mode that is its own mirror, such as (kz, ky) = (0, 0),
        # inf - inf would warn there instead of raising.
        grid = build_grid(DomainSpec.cube(0.0, 1.0), points, points, points)
        workers(n)
        for column in (0, points // 2):  # kx = 0 and kx = n_x/2
            for mode in ((0, 0), (1, 2)):  # its own mirror, and not
                data = np.ones((6, grid.n_spectral), dtype=complex)
                data.reshape((6,) + grid.spectral_shape)[(4,) + mode + (column,)] = bad
                with pytest.raises(ImaginaryResidueError, match="non-finite"):
                    realize(grid, data)

    @pytest.mark.parametrize("n", [1, 2])
    def test_allocates_block_sized_temporaries(self, workers, rng, n):
        # One pass block by block of z-planes.  The larger temporary per
        # worker is the block's |F| over the six rows (one real per row and
        # mode), with a numpy ufunc buffer for its strided operand; it is
        # freed before the mirror comparison, which touches two columns.
        grid = build_grid(DomainSpec.cube(0.0, 1.0), 64, 64, 64)
        spectrum = dft3_forward(grid, rng.standard_normal((6, grid.n_total)))
        workers(n)
        # The warm-up call starts any pool first.
        _, blocks = handed_out_blocks(spectral, lambda: realize(grid, spectrum))
        planes = max(stop - start for start, stop in blocks)
        modes = planes * grid.n_y * grid.spectral_shape[-1]
        per_worker = 6 * modes * 8 + np.getbufsize() * 16
        slabs = len(spectral._slab_bounds(grid.n_z, spectrum.size)) - 1
        bound = slabs * per_worker + (64 << 10)
        tracemalloc.start()
        try:
            realize(grid, spectrum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_flags_non_finite_real_input(self, grid4, bad):
        # Real-valued data passed through the guard is checked as well.
        data = np.ones((2, grid4.n_spectral))
        data[1, 5] = bad
        with pytest.raises(ImaginaryResidueError, match="non-finite"):
            realize(grid4, data)


class TestDerivative:
    def test_sin_becomes_cos(self, grid8):
        x = np.broadcast_to(grid8.points_x.reshape(1, 1, -1), grid8.shape).ravel()
        dspec = apply_derivative(grid8, dft3_forward(grid8, np.sin(grid8.nu_x * x)), 0)
        df = dft3_inverse(grid8, dspec)
        expected = grid8.nu_x * np.cos(grid8.nu_x * x)
        assert np.max(np.abs(df - expected)) <= 1e-12 * grid8.nu_x

    def test_constant_derivative_is_zero(self, grid4):
        spec = dft3_forward(grid4, np.full(grid4.n_total, 3.0))
        for axis in (0, 1, 2):
            out = dft3_inverse(grid4, apply_derivative(grid4, spec, axis))
            assert np.max(np.abs(out)) < 1e-13

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_matches_dense_cotangent_matrix(self, grid8, rng, axis):
        data = rng.standard_normal(grid8.n_total)
        dense = dense_diff_operator(grid8, axis) @ data
        spec = apply_derivative(grid8, dft3_forward(grid8, data), axis)
        fast = dft3_inverse(grid8, spec)
        assert np.max(np.abs(fast - dense)) <= 1e-11 * max(np.max(np.abs(dense)), 1.0)

    def test_nyquist_mode_annihilated(self, grid4):
        # Pure Nyquist sawtooth along x: derivative must be exactly zero.
        cube = np.zeros(grid4.spectral_shape, dtype=complex)
        cube[:, :, grid4.n_x // 2] = 1.0
        dspec = apply_derivative(grid4, cube.ravel(), 0)
        assert np.all(dspec == 0.0)

    def test_invalid_axis(self, grid4):
        f = np.zeros(grid4.n_spectral, dtype=complex)
        # Axes are integers only; a letter is refused like any other value.
        for axis in ("x", 3, -1):
            with pytest.raises(ValueError, match="axis must be 0, 1 or 2"):
                apply_derivative(grid4, f, axis)


class TestBatch:
    def test_stack_matches_row_by_row(self, rng):
        # Leading batch axes transform each row exactly as on its own.
        grid = build_grid(DomainSpec(0.0, 1.0, 0.0, 2.0, 0.0, 3.0), 6, 4, 8)
        data = rng.standard_normal((2, 3, grid.n_total))
        spec = dft3_forward(grid, data)
        deriv = apply_derivative(grid, spec, 1)
        back = dft3_inverse(grid, spec)
        assert spec.shape == deriv.shape == (2, 3, grid.n_spectral)
        assert back.shape == data.shape
        for i in range(2):
            for j in range(3):
                row = dft3_forward(grid, data[i, j])
                np.testing.assert_array_equal(spec[i, j], row)
                np.testing.assert_array_equal(deriv[i, j], apply_derivative(grid, row, 1))
                np.testing.assert_array_equal(back[i, j], dft3_inverse(grid, row))


    @pytest.mark.parametrize("n", [1, 3])
    def test_empty_batch(self, workers, grid4, n):
        # No rows make no slabs and no work, on the pool too.
        workers(n)
        forward = dft3_forward(grid4, np.empty((0, grid4.n_total)))
        inverse = dft3_inverse(grid4, np.empty((0, grid4.n_spectral), np.complex128))
        assert (forward.shape, forward.dtype) == ((0, grid4.n_spectral), np.complex128)
        assert (inverse.shape, inverse.dtype) == ((0, grid4.n_total), np.float64)


class TestProperties:
    def test_linearity(self, grid4, rng):
        f = rng.standard_normal(grid4.n_total)
        g = rng.standard_normal(grid4.n_total)
        a, b = 1.7, -0.3
        lhs = dft3_forward(grid4, a * f + b * g)
        rhs = a * dft3_forward(grid4, f) + b * dft3_forward(grid4, g)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))

    def test_parseval(self, grid8, rng):
        data = rng.standard_normal(grid8.n_total)
        spec = dft3_forward(grid8, data).reshape(grid8.spectral_shape)
        n_s = grid8.n_total
        physical = np.sum(data**2) / n_s
        # Interior x-columns stand for themselves and their conjugates.
        weights = np.array([1.0, 2.0, 2.0, 2.0, 1.0])
        spectral = np.sum(weights * np.abs(spec) ** 2) / n_s**2
        assert spectral == pytest.approx(physical, rel=1e-12)

    def test_derivatives_commute(self, grid4, rng):
        spec = rng.standard_normal(grid4.n_spectral) + 1j * rng.standard_normal(grid4.n_spectral)
        xy = apply_derivative(grid4, apply_derivative(grid4, spec, 0), 1)
        yx = apply_derivative(grid4, apply_derivative(grid4, spec, 1), 0)
        scale = max(np.max(np.abs(xy)), 1e-300)
        assert np.max(np.abs(xy - yx)) <= 1e-13 * scale

    def test_conjugate_symmetry_of_real_transform(self, grid4, rng):
        # Inside the half spectrum only the kx = 0 and kx = n/2 columns hold
        # conjugate pairs (m and -m mod n fall in the same column there).
        spec = dft3_forward(grid4, rng.standard_normal(grid4.n_total)).reshape(
            grid4.spectral_shape
        )
        n = 4
        for mz in range(n):
            for my in range(n):
                for mx in (0, n // 2):
                    a = spec[mz, my, mx]
                    b = spec[(-mz) % n, (-my) % n, mx]
                    assert abs(a - np.conj(b)) < 1e-12 * grid4.n_total

    def test_band_limited_helper_round_trips(self, grid4, rng):
        data = random_band_limited_field(grid4, rng)
        spec = dft3_forward(grid4, data).reshape(grid4.spectral_shape)
        assert np.max(np.abs(spec[:, :, 2])) < 1e-10
        assert np.max(np.abs(spec[:, 2, :])) < 1e-10
        assert np.max(np.abs(spec[2, :, :])) < 1e-10


@pytest.mark.parametrize(
    "call",
    [
        lambda grid: dft3_forward(grid, np.zeros(grid.n_spectral)),
        lambda grid: dft3_inverse(grid, np.zeros((6, grid.n_total), dtype=complex)),
        lambda grid: apply_derivative(grid, np.zeros(grid.n_total, dtype=complex), 0),
        lambda grid: realize(grid, np.zeros(10, dtype=complex)),
    ],
    ids=["dft3_forward", "dft3_inverse", "apply_derivative", "realize"],
)
def test_wrong_length_rejected(grid4, call):
    # Each function checks the last axis against the grid, batched or not.
    with pytest.raises(ValueError, match="does not match grid size"):
        call(grid4)


def test_import_leaves_scipy_out():
    # The transforms are numpy only; importing the package loads no scipy.
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, psmaxwell; sys.exit('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, timeout=60
    )
    assert result.returncode == 0
