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

Large arrays are worked on by one thread per CPU in the process's affinity
mask (:func:`_for_slabs`): the transforms split the batch into row groups,
the other stages split the z-planes into slabs.  Every slab goes through
the same elementwise operations and FFT lines as the whole array would, so
the results are bitwise those of one thread, whatever the worker count.
"""

from __future__ import annotations

import math
import os

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

# Arrays with fewer elements than this stay on the calling thread.  On two
# CPUs the forward transform of six 32^3 fields (196608 samples) took 0.62 ms
# on one thread and 0.68 ms on two; at 64^3 it took 5.4 ms and 2.5 ms.
_PARALLEL_MIN_SIZE = 1 << 18

# Modes per block of z-planes where a stage works block by block: the
# block's temporaries stay in cache, and one-plane blocks on small grids
# cost more in loop overhead.
_BLOCK_MODES = 4096

try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity masks on this platform
    _WORKERS = os.cpu_count() or 1

_pool = None


def _forget_pool() -> None:
    # A forked child has none of the pool's threads; it makes its own.
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _for_slabs(fn, n: int, size: int, block: int | None = None) -> None:
    """Call ``fn(slab)`` over contiguous slices ``slab`` that cover ``range(n)``.

    When ``size``, the element count of the array being worked on, is below
    ``_PARALLEL_MIN_SIZE`` or there is one CPU, this runs on the calling
    thread; otherwise ``range(n)`` is cut into one slab per worker and the
    slabs run on a thread pool, created on first use with one thread per
    CPU.  Within its slab, or within ``range(n)`` on the calling thread,
    ``fn`` is called on one slice, or in order on slices ``block`` long.
    ``fn`` must only write its own slab of any array.  An exception raised
    by ``fn`` reaches the caller once every slab has finished.
    """
    global _pool
    workers = 1 if size < _PARALLEL_MIN_SIZE else min(_WORKERS, n)

    def run(start: int, stop: int) -> None:
        width = block or max(1, stop - start)
        for first in range(start, stop, width):
            fn(slice(first, min(first + width, stop)))

    if workers <= 1:
        run(0, n)
        return
    import concurrent.futures

    if _pool is None:
        _pool = concurrent.futures.ThreadPoolExecutor(_WORKERS, "psmaxwell-slab")
    bounds = [n * i // workers for i in range(workers + 1)]
    futures = [_pool.submit(run, *pair) for pair in zip(bounds, bounds[1:])]
    concurrent.futures.wait(futures)
    for future in futures:
        future.result()


def _planes_per_block(grid: GridSpec) -> int:
    """Whole half-spectrum z-planes in a block of about ``_BLOCK_MODES`` modes."""
    n_z, n_y, n_xh = grid.spectral_shape
    return max(1, _BLOCK_MODES // (n_y * n_xh))


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


def _rows(cube: np.ndarray) -> np.ndarray:
    """A batched cube with its batch axes merged into one leading row axis."""
    return cube.reshape((-1,) + cube.shape[-3:])


def dft3_forward(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    """Unnormalized forward 3D DFT of real flat fields: their half spectra."""
    cube = _cube(f, grid.shape)
    out = np.empty(cube.shape[:-3] + grid.spectral_shape, np.complex128)
    src, dst = _rows(cube), _rows(out)

    def forward(rows: slice) -> None:
        np.fft.rfftn(src[rows], axes=_CUBE_AXES, out=dst[rows])

    _for_slabs(forward, len(src), cube.size)
    return out.reshape(cube.shape[:-3] + (grid.n_spectral,))


def dft3_inverse(grid: GridSpec, F: np.ndarray) -> np.ndarray:
    """Inverse 3D DFT of a half spectrum to real samples; carries 1/n_total.

    Anti-Hermitian content of the ``kx = 0`` and ``kx = n_x/2`` planes is
    dropped; :func:`realize` checks that there is none beyond roundoff.
    The passes are those of ``irfftn`` in its order (z, y, then the real x
    pass), so the result is bitwise the same, but ``F`` is left untouched
    and only one intermediate spectrum is allocated, one piece per row
    group: the z pass writes a new buffer and the y pass overwrites it.
    """
    cube = _cube(F, grid.spectral_shape)
    out = np.empty(cube.shape[:-3] + grid.shape)
    src, dst = _rows(cube), _rows(out)

    def inverse(rows: slice) -> None:
        work = np.fft.ifft(src[rows], axis=-3)
        np.fft.ifft(work, axis=-2, out=work)
        np.fft.irfft(work, n=grid.n_x, axis=-1, out=dst[rows])

    _for_slabs(inverse, len(src), cube.size)
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
    # The magnitude block by block: a max does not depend on the order.
    maxima = np.zeros(grid.n_z)

    def magnitude(planes: slice) -> None:
        maxima[planes] = np.max(np.abs(cube[..., planes, :, :]), initial=0.0)

    _for_slabs(magnitude, grid.n_z, cube.size, _planes_per_block(grid))
    scale = float(np.max(maxima, initial=0.0))
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
