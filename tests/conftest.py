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
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


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


def state_norm(state: FieldState) -> float:
    return max(float(np.max(np.abs(c.data))) for c in state.e + state.h)
