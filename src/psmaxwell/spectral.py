"""Three-dimensional discrete Fourier transforms and spectral derivatives.

Normalization contract: the forward transform is the plain unnormalized DFT,

    coef(m) = sum_jkl f(j,k,l) * exp(-2*pi*i*(m_x j/n_x + m_y k/n_y + m_z l/n_z)),

and the inverse carries the full ``1/(n_x n_y n_z)`` factor, so that
``inverse(forward(f)) == f`` up to roundoff.  Derivatives multiply each
coefficient by ``i * kvec[axis]``; the Nyquist modes are annihilated because
the grid stores a zero wavenumber there.

Fields are flat vectors in the x-fastest layout of :mod:`psmaxwell.grid`,
optionally stacked along leading batch axes: a field of shape
``(..., n_total)`` is transformed over its last axis viewed as the
``(n_z, n_y, n_x)`` cube, so the six components of a state go through one
batched transform each way.  Complex intermediates are kept through the whole
spectral pipeline; :func:`realize` converts back to real data at output
boundaries and refuses to silently drop a suspiciously large imaginary part
or pass on non-finite samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec

__all__ = [
    "PhysicalField",
    "SpectralField",
    "ImaginaryResidueError",
    "IMAG_RESIDUE_RTOL",
    "dft3_forward",
    "dft3_inverse",
    "apply_derivative",
    "realize",
    "wavenumbers",
    "cross",
]

# Imaginary content above this fraction of the field magnitude signals broken
# conjugate symmetry somewhere upstream.
IMAG_RESIDUE_RTOL = 1e-10

_AXIS_NAMES = {"x": 0, "y": 1, "z": 2}

# The (n_z, n_y, n_x) cube is the last three axes of a batched field.
_CUBE_AXES = (-3, -2, -1)


class ImaginaryResidueError(RuntimeError):
    """A nominally real field came back non-finite or with excess imaginary content."""


def _check_length(grid: GridSpec, data: np.ndarray) -> None:
    if data.ndim < 1 or data.shape[-1] != grid.n_total:
        raise ValueError(
            f"field length {data.shape} does not match grid size {grid.n_total}"
        )


@dataclass(frozen=True, eq=False)
class PhysicalField:
    """Scalar samples at the collocation points (flat layout, batch axes first).

    ``data`` is normally real; a complex dtype is allowed as the intermediate
    produced by :func:`dft3_inverse` before :func:`realize`.
    """

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        _check_length(self.grid, data)
        object.__setattr__(self, "data", data)


@dataclass(frozen=True, eq=False)
class SpectralField:
    """DFT coefficients, same flat layout and batch axes as physical."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.complex128)
        _check_length(self.grid, data)
        object.__setattr__(self, "data", data)


def _cube(grid: GridSpec, data: np.ndarray) -> np.ndarray:
    """View of flat ``(..., n_total)`` data as ``(..., n_z, n_y, n_x)``."""
    return data.reshape(data.shape[:-1] + grid.shape)


def wavenumbers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis wavenumbers shaped to broadcast over the (n_z, n_y, n_x) modes."""
    return grid.kvec_x, grid.kvec_y[:, None], grid.kvec_z[:, None, None]


def cross(b: tuple, f: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-mode cross product ``b x f`` written into ``out``.

    ``b`` is a :func:`wavenumbers` triple and ``f`` a stacked
    ``(3, n_z, n_y, n_x)`` vector field; ``out`` must not overlap ``f``.
    """
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(b[j], f[k], out=out[i])
        out[i] -= b[k] * f[j]
    return out


def dft3_forward(f: PhysicalField) -> SpectralField:
    """Unnormalized forward 3D DFT of a flat field (batch axes first)."""
    cube = _cube(f.grid, f.data)
    out = np.fft.fftn(cube, axes=_CUBE_AXES, out=np.empty(cube.shape, np.complex128))
    return SpectralField(f.grid, out.reshape(f.data.shape))


def dft3_inverse(F: SpectralField) -> PhysicalField:
    """Inverse 3D DFT; carries the full 1/n_total normalization.

    The result keeps its complex dtype (roundoff-level imaginary parts for
    conjugate-symmetric input); use :func:`realize` to obtain real samples.
    """
    cube = _cube(F.grid, F.data)
    out = np.fft.ifftn(cube, axes=_CUBE_AXES, out=np.empty_like(cube))
    return PhysicalField(F.grid, out.reshape(F.data.shape))


def apply_derivative(F: SpectralField, axis: int | str) -> SpectralField:
    """Directional derivative in spectral space: multiply by ``i * kvec[axis]``."""
    if isinstance(axis, str):
        try:
            axis = _AXIS_NAMES[axis]
        except KeyError:
            raise ValueError(f"axis must be one of x, y, z or 0..2, got {axis!r}")
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be one of x, y, z or 0..2, got {axis!r}")
    derivative = 1j * wavenumbers(F.grid)[axis] * _cube(F.grid, F.data)
    return SpectralField(F.grid, derivative.reshape(F.data.shape))


def realize(
    f: PhysicalField, rtol: float = IMAG_RESIDUE_RTOL
) -> tuple[PhysicalField, float]:
    """Strip a complex intermediate down to its real part.

    Returns the real field together with the maximum absolute imaginary
    residue.  Raises :class:`ImaginaryResidueError` when the residue exceeds
    ``rtol`` times the field magnitude, which signals broken conjugate
    symmetry upstream rather than ordinary roundoff.

    The magnitude is taken over the whole field, batch axes included, so a
    component of a stacked state which happens to be identically zero is not
    flagged for its own roundoff.  A non-finite magnitude (an overflow or a
    NaN upstream) raises the same error: such a field carries no usable
    samples.
    """
    data = f.data
    if not np.iscomplexobj(data):
        return PhysicalField(f.grid, np.asarray(data, dtype=np.float64)), 0.0
    scale = float(np.max(np.abs(data), initial=0.0))
    if not np.isfinite(scale):
        raise ImaginaryResidueError(f"non-finite field magnitude {scale}")
    residue = float(np.max(np.abs(data.imag), initial=0.0))
    if scale > 0.0 and residue > rtol * scale:
        raise ImaginaryResidueError(
            f"imaginary residue {residue:.3e} exceeds {rtol:.1e} x field "
            f"magnitude {scale:.3e}"
        )
    return PhysicalField(f.grid, np.ascontiguousarray(data.real)), residue
