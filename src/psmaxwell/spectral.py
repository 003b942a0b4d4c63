"""Three-dimensional real-to-complex transforms and spectral derivatives.

Normalization contract: the forward transform is the plain unnormalized DFT,

    coef(m) = sum_jkl f(j,k,l) * exp(-2*pi*i*(m_x j/n_x + m_y k/n_y + m_z l/n_z)),

and the inverse carries the full ``1/(n_x n_y n_z)`` factor, so that
``inverse(forward(f)) == f`` up to roundoff.  Derivatives multiply each
coefficient by ``i * kvec[axis]``; the Nyquist modes are annihilated because
the grid stores a zero wavenumber there.

Fields are real, so their spectra are conjugate-symmetric and only the half
spectrum is kept: the ``kx >= 0`` columns, ``n_x//2 + 1`` of them, over the
``(n_z, n_y, n_x//2 + 1)`` box of :attr:`GridSpec.spectral_shape` (numpy's
``rfftn`` layout).  The forward transform is one ``numpy.fft.rfftn`` and the
inverse the three passes of ``irfftn`` (two complex ``ifft`` and one
``irfft``) with real output.  Every function takes the grid and plain
arrays: physical fields are flat vectors of length ``n_total`` in the
x-fastest layout of :mod:`psmaxwell.grid`, spectra flat vectors of length
``n_spectral``; both may be stacked along leading batch axes, so the six
components of a state go through one batched transform each way.  An array
whose last axis has another length raises ``ValueError``.

Inside the two self-conjugate planes ``kx = 0`` and ``kx = n_x/2`` a half
spectrum can still carry content no real field has, which ``irfftn`` would
drop without a trace.  :func:`realize` is the one guard against that: it
rejects a non-finite spectrum or one whose planes are not Hermitian beyond
roundoff.  Only numpy is used.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import GridSpec

__all__ = [
    "ImaginaryResidueError",
    "IMAG_RESIDUE_RTOL",
    "dft3_forward",
    "dft3_inverse",
    "apply_derivative",
    "realize",
    "wavenumbers",
    "cross",
]

# A Hermitian defect above this fraction of the spectrum magnitude signals
# broken conjugate symmetry somewhere upstream.
IMAG_RESIDUE_RTOL = 1e-10

_AXIS_NAMES = {"x": 0, "y": 1, "z": 2}

# The (n_z, n_y, n_x) cube is the last three axes of a batched field.
_CUBE_AXES = (-3, -2, -1)


class ImaginaryResidueError(RuntimeError):
    """A spectrum came back non-finite or with content no real field has."""


def _cube(data: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """View of flat ``(..., n)`` data as ``(...,) + shape``; ``n`` must be its size."""
    data = np.asarray(data)
    n = math.prod(shape)
    if data.ndim < 1 or data.shape[-1] != n:
        raise ValueError(f"field length {data.shape} does not match grid size {n}")
    return data.reshape(data.shape[:-1] + shape)


def wavenumbers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis wavenumbers shaped to broadcast over the half-spectrum modes.

    The x entry keeps the ``kx >= 0`` columns of ``kvec_x``; its last one is
    the Nyquist column, whose wavenumber is already 0.
    """
    kx = grid.kvec_x[: grid.spectral_shape[-1]]
    return kx, grid.kvec_y[:, None], grid.kvec_z[:, None, None]


def cross(b: tuple, f: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-mode cross product ``b x f`` written into ``out``.

    ``b`` is a :func:`wavenumbers` triple and ``f`` a stacked
    ``(3, n_z, n_y, n_x//2 + 1)`` vector field; ``out`` must not overlap ``f``.
    """
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(b[j], f[k], out=out[i])
        out[i] -= b[k] * f[j]
    return out


def dft3_forward(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    """Unnormalized forward 3D DFT of real flat fields: their half spectra."""
    cube = _cube(f, grid.shape)
    out = np.empty(cube.shape[:-3] + grid.spectral_shape, np.complex128)
    np.fft.rfftn(cube, axes=_CUBE_AXES, out=out)
    return out.reshape(cube.shape[:-3] + (grid.n_spectral,))


def dft3_inverse(grid: GridSpec, F: np.ndarray) -> np.ndarray:
    """Inverse 3D DFT of a half spectrum to real samples; carries 1/n_total.

    Anti-Hermitian content of the ``kx = 0`` and ``kx = n_x/2`` planes is
    dropped; :func:`realize` checks that there is none beyond roundoff.
    The passes are those of ``irfftn`` in its order (z, y, then the real x
    pass), so the result is bitwise the same, but ``F`` is left untouched
    and only one intermediate spectrum is allocated: the z pass writes a new
    buffer and the y pass overwrites it.
    """
    cube = _cube(F, grid.spectral_shape)
    work = np.fft.ifft(cube, axis=-3)
    np.fft.ifft(work, axis=-2, out=work)
    out = np.fft.irfft(work, n=grid.n_x, axis=-1)
    return out.reshape(cube.shape[:-3] + (grid.n_total,))


def apply_derivative(grid: GridSpec, F: np.ndarray, axis: int | str) -> np.ndarray:
    """Directional derivative in spectral space: multiply by ``i * kvec[axis]``."""
    if isinstance(axis, str):
        try:
            axis = _AXIS_NAMES[axis]
        except KeyError:
            raise ValueError(f"axis must be one of x, y, z or 0..2, got {axis!r}")
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be one of x, y, z or 0..2, got {axis!r}")
    derivative = 1j * wavenumbers(grid)[axis] * _cube(F, grid.spectral_shape)
    return derivative.reshape(derivative.shape[:-3] + (grid.n_spectral,))


def realize(
    grid: GridSpec, F: np.ndarray, rtol: float = IMAG_RESIDUE_RTOL
) -> tuple[np.ndarray, float]:
    """Check that a half spectrum is the spectrum of finite real fields.

    Returns ``F`` unchanged together with its imaginary residue: the largest
    anti-Hermitian part of the self-conjugate planes ``kx = 0`` and
    ``kx = n_x/2``, divided by ``n_total``, i.e. the physical amplitude of the
    largest mode that :func:`dft3_inverse` drops.  Each plane must equal its
    own conjugate under ``(ky, kz) -> (-ky, -kz)``.  Raises
    :class:`ImaginaryResidueError` when the spectrum is not finite, or when
    the anti-Hermitian part exceeds ``rtol`` times the spectrum magnitude,
    which signals broken conjugate symmetry upstream rather than roundoff.

    The magnitude is taken over the whole field, batch axes included, so a
    component of a stacked state which happens to be identically zero is not
    flagged for its own roundoff.
    """
    cube = _cube(F, grid.spectral_shape)
    scale = float(np.max(np.abs(cube), initial=0.0))
    if not np.isfinite(scale):
        raise ImaginaryResidueError(f"non-finite spectrum magnitude {scale}")
    planes = cube[..., :: grid.n_x // 2]  # the kx = 0 and kx = n_x/2 columns
    # Flipping and rolling by one maps index m to -m mod n along y and z.
    mirror = np.roll(np.flip(planes, axis=(-3, -2)), 1, axis=(-3, -2))
    defect = 0.5 * float(np.max(np.abs(planes - mirror.conj()), initial=0.0))
    if defect > rtol * scale:
        raise ImaginaryResidueError(
            f"kx = 0 / n_x/2 planes off Hermitian by {defect:.3e}, over "
            f"{rtol:.1e} x spectrum magnitude {scale:.3e}"
        )
    return F, defect / grid.n_total
