"""Three-dimensional discrete Fourier transforms and spectral derivatives.

Normalization contract: the forward transform is the plain unnormalized DFT,

    coef(m) = sum_jkl f(j,k,l) * exp(-2*pi*i*(m_x j/n_x + m_y k/n_y + m_z l/n_z)),

and the inverse carries the full ``1/(n_x n_y n_z)`` factor, so that
``inverse(forward(f)) == f`` up to roundoff.  Derivatives multiply each
coefficient by ``i * kvec[axis]``; the Nyquist modes are annihilated because
the grid stores a zero wavenumber there.

Fields are flat vectors in the x-fastest layout of :mod:`psmaxwell.grid`.
Complex intermediates are kept through the whole spectral pipeline;
:func:`realize` converts back to real data at output boundaries and refuses
to silently drop a suspiciously large imaginary part or pass on non-finite
samples.
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
]

# Imaginary content above this fraction of the field magnitude signals broken
# conjugate symmetry somewhere upstream.
IMAG_RESIDUE_RTOL = 1e-10

_AXIS_NAMES = {"x": 0, "y": 1, "z": 2}


class ImaginaryResidueError(RuntimeError):
    """A nominally real field came back non-finite or with excess imaginary content."""


def _check_length(grid: GridSpec, data: np.ndarray) -> None:
    if data.ndim != 1 or data.shape[0] != grid.n_total:
        raise ValueError(
            f"field length {data.shape} does not match grid size {grid.n_total}"
        )


@dataclass(frozen=True, eq=False)
class PhysicalField:
    """One scalar component sampled at the collocation points (flat layout).

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
    """DFT coefficients of one scalar component, same flat layout as physical."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.complex128)
        _check_length(self.grid, data)
        object.__setattr__(self, "data", data)


def dft3_forward(f: PhysicalField) -> SpectralField:
    """Unnormalized forward 3D DFT of a flat field."""
    cube = f.data.reshape(f.grid.shape)
    return SpectralField(f.grid, np.fft.fftn(cube).ravel())


def dft3_inverse(F: SpectralField) -> PhysicalField:
    """Inverse 3D DFT; carries the full 1/n_total normalization.

    The result keeps its complex dtype (roundoff-level imaginary parts for
    conjugate-symmetric input); use :func:`realize` to obtain real samples.
    """
    cube = F.data.reshape(F.grid.shape)
    return PhysicalField(F.grid, np.fft.ifftn(cube).ravel())


def apply_derivative(F: SpectralField, axis: int | str) -> SpectralField:
    """Directional derivative in spectral space: multiply by ``i * kvec[axis]``."""
    if isinstance(axis, str):
        try:
            axis = _AXIS_NAMES[axis]
        except KeyError:
            raise ValueError(f"axis must be one of x, y, z or 0..2, got {axis!r}")
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be one of x, y, z or 0..2, got {axis!r}")
    grid = F.grid
    cube = F.data.reshape(grid.shape)
    k = grid.kvec(axis)
    # shape (n_z, n_y, n_x): axis 0 <-> z, 1 <-> y, 2 <-> x
    expand = ((1, 1, -1), (1, -1, 1), (-1, 1, 1))[axis]
    return SpectralField(grid, (1j * k.reshape(expand) * cube).ravel())


def realize(
    f: PhysicalField,
    rtol: float = IMAG_RESIDUE_RTOL,
    scale: float | None = None,
) -> tuple[PhysicalField, float]:
    """Strip a complex intermediate down to its real part.

    Returns the real field together with the maximum absolute imaginary
    residue.  Raises :class:`ImaginaryResidueError` when the residue exceeds
    ``rtol`` times the field magnitude, which signals broken conjugate
    symmetry upstream rather than ordinary roundoff.

    ``scale`` overrides the magnitude the residue is compared against; pass
    the overall magnitude of a multi-component state so that a component
    which happens to be identically zero is not flagged for its own roundoff.
    A non-finite ``scale`` (an overflow or a NaN upstream) raises the same
    error: such a field carries no usable samples.
    """
    data = f.data
    if not np.iscomplexobj(data):
        return PhysicalField(f.grid, np.asarray(data, dtype=np.float64)), 0.0
    residue = float(np.max(np.abs(data.imag))) if data.size else 0.0
    if scale is None:
        scale = float(np.max(np.abs(data))) if data.size else 0.0
    if not np.isfinite(scale):
        raise ImaginaryResidueError(f"non-finite field magnitude {scale}")
    if scale > 0.0 and residue > rtol * scale:
        raise ImaginaryResidueError(
            f"imaginary residue {residue:.3e} exceeds {rtol:.1e} x field "
            f"magnitude {scale:.3e}"
        )
    return PhysicalField(f.grid, np.ascontiguousarray(data.real)), residue
