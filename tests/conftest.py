"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from psmaxwell import (
    DomainSpec,
    FieldState,
    GridSpec,
    MediumParams,
    build_grid,
    spectral,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def workers(monkeypatch):
    """Set the worker count with every array above the size threshold."""
    monkeypatch.setattr(spectral, "_PARALLEL_MIN_SIZE", 0)
    monkeypatch.setattr(spectral, "_pool", None)

    def set_workers(n: int) -> None:
        monkeypatch.setattr(spectral, "_WORKERS", n)

    yield set_workers
    if spectral._pool is not None:
        spectral._pool.shutdown()


def handed_out_blocks(module, call):
    """``call()``'s result, and the sorted ``(start, stop)`` of every block
    handed to a stage meanwhile by the ``_for_slabs`` that ``module`` calls."""
    blocks = []
    run_slabs = spectral._for_slabs

    def spy(fn, *args):
        def record(block, *rest):
            blocks.append((block.start, block.stop))
            fn(block, *rest)

        run_slabs(record, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "_for_slabs", spy)
        result = call()
    return result, sorted(blocks)


@pytest.fixture
def grid4() -> GridSpec:
    """[0, 2*pi]^3 with N=4: kvec is exactly (0, 1, 0, -1) per axis."""
    return build_grid(DomainSpec.cube(0.0, 2.0 * np.pi), 4, 4, 4)


@pytest.fixture
def grid8() -> GridSpec:
    return build_grid(DomainSpec.cube(0.0, 2.0), 8, 8, 8)


def zero_nyquist(grid: GridSpec, flat: np.ndarray) -> np.ndarray:
    """Zero the three Nyquist planes of a flat spectral array."""
    cube = flat.reshape(grid.shape).copy()
    cube[grid.n_z // 2, :, :] = 0.0
    cube[:, grid.n_y // 2, :] = 0.0
    cube[:, :, grid.n_x // 2] = 0.0
    return cube.ravel()


def random_band_limited_field(grid: GridSpec, rng: np.random.Generator) -> np.ndarray:
    """Random real flat field with no Nyquist content."""
    raw = rng.standard_normal(grid.n_total)
    spec = zero_nyquist(grid, np.fft.fftn(raw.reshape(grid.shape)).ravel())
    return np.fft.ifftn(spec.reshape(grid.shape)).real.ravel()


def random_band_limited_state(
    grid: GridSpec,
    rng: np.random.Generator,
    medium: MediumParams | None = None,
) -> FieldState:
    """Random real physical state with Nyquist-free components."""
    medium = medium or MediumParams()
    comps = [random_band_limited_field(grid, rng) for _ in range(6)]
    return FieldState(grid, medium, np.stack(comps))


def zero_state(grid: GridSpec, medium: MediumParams | None = None) -> FieldState:
    medium = medium or MediumParams()
    return FieldState(grid, medium, np.zeros((6, grid.n_total)))


def perturb_plane(spec: np.ndarray, grid: GridSpec, column: int, size: float) -> np.ndarray:
    """Copy of flat half spectra with one off-Hermitian mode in x-column ``column``.

    Adds ``size`` to the (ky, kz) = (1, 0) entry of the column's plane in
    every row; its mirror (-1, 0) is a different entry when n_y > 2, so the
    plane's anti-Hermitian part is ``size / 2``.
    """
    out = spec.copy()
    out.reshape(spec.shape[:-1] + grid.spectral_shape)[..., 0, 1, column] += size
    return out


def state_norm(state: FieldState) -> float:
    return float(np.max(np.abs(state.data)))
