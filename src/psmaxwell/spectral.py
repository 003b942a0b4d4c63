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
the other stages split the z-planes into slabs, each with its own scratch.
:func:`_for_slabs` alone turns a stage's plane size into its block length
and its ufunc buffer size.  Every slab goes through the same elementwise
operations and FFT lines as the whole array would, under the caller's
numpy error state, so the results are bitwise those of one thread, and
warn or raise as on one thread, whatever the worker count or buffer size.
"""

from __future__ import annotations

import contextvars
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

# The (n_z, n_y, n_x) cube is the last three axes of a batched field.
_CUBE_AXES = (-3, -2, -1)

# Arrays with fewer elements than this stay on the calling thread: below
# it the pool's hand-off costs more than the second CPU saves.
_PARALLEL_MIN_SIZE = 1 << 18

# Elements per block where a stage works block by block (:func:`_for_slabs`):
# on the calling thread ``_BLOCK_MODES``, small enough for the block's
# temporaries to stay in cache; on the thread pool ``_POOLED_BLOCK_MODES``,
# larger because there every thread pays the per-block overhead, yet small
# enough that the temporaries pool threads allocate do not stay resident.
# The inverse's real pass takes the pooled block on either path, because
# numpy copies each block once where its samples overlap its coefficients.
_BLOCK_MODES = 4096
_POOLED_BLOCK_MODES = 16384

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


def _for_slabs(fn, n: int, size: int, plane: int = 0, scratch: int = 0) -> None:
    """Call ``fn(slab)`` over contiguous slices ``slab`` that cover ``range(n)``.

    When ``size``, the element count of the array being worked on, is below
    ``_PARALLEL_MIN_SIZE`` or there is one CPU, this runs on the calling
    thread; otherwise ``range(n)`` is cut into one slab per worker
    (:func:`_slab_bounds`) and the slabs run on a thread pool, created on
    first use with one thread per CPU.  ``fn`` must only write its own slab
    of any array.  An exception raised by ``fn`` reaches the caller once
    every slab has finished.  Each slab runs in a copy of the caller's
    context, so it sees the caller's numpy error state and ufunc buffer
    size, which numpy keeps in a context variable, and the caller's are
    the same afterwards.

    Without ``plane``, ``fn`` gets one call per slab.  ``plane`` is the
    number of elements one index holds in one field; given it, each slab is
    cut in order into blocks of ``max(1, M // plane)`` indices, with ``M``
    ``_POOLED_BLOCK_MODES`` on the pool and ``_BLOCK_MODES`` otherwise, and
    ``fn`` gets one call per block.  The blocks run with numpy's ufunc
    buffer no longer than a plane (nor than the caller's): numpy 2.4 copies
    an operand broadcast over planes, and the others with it, into its
    buffers to lengthen the inner loop, while with buffers no longer than a
    plane it loops over the planes.  A multiple of 16, as older numpy
    releases require.

    With ``scratch``, each call is ``fn(block, buffer)``, where ``buffer``
    is the slab's own float64 array of ``scratch`` elements per element of
    its longest block's planes.  Every buffer is made on the calling thread
    before any slab runs: one a pool thread allocates stays resident in
    that thread's malloc arena.
    """
    global _pool
    bounds = _slab_bounds(n, size)
    modes = _POOLED_BLOCK_MODES if _pooled(size) else _BLOCK_MODES
    width = max(1, modes // plane if plane else n)
    slabs = [
        (lo, hi, (np.empty(scratch * plane * min(width, hi - lo)),) if scratch else ())
        for lo, hi in zip(bounds, bounds[1:])
    ]

    def run(start: int, stop: int, args: tuple) -> None:
        if plane:
            np.setbufsize(min(np.getbufsize(), max(16, plane // 16 * 16)))
        for first in range(start, stop, width):
            fn(slice(first, min(first + width, stop)), *args)

    if len(slabs) == 1:
        contextvars.copy_context().run(run, *slabs[0])
        return
    import concurrent.futures

    if _pool is None:
        _pool = concurrent.futures.ThreadPoolExecutor(_WORKERS, "psmaxwell-slab")
    futures = [_pool.submit(contextvars.copy_context().run, run, *slab) for slab in slabs]
    concurrent.futures.wait(futures)
    for future in futures:
        future.result()


def _slab_bounds(n: int, size: int) -> list[int]:
    """The edges ``0 = s_0 < ... = n`` of :func:`_for_slabs`'s slabs: one per pool worker."""
    workers = max(1, min(_WORKERS, n)) if _pooled(size) else 1
    return [n * i // workers for i in range(workers + 1)]


def _pooled(size: int) -> bool:
    """Whether :func:`_for_slabs` runs an array of ``size`` elements on the pool."""
    return size >= _PARALLEL_MIN_SIZE and _WORKERS > 1


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

    ``b`` is a :func:`wavenumbers` triple, or arrays that broadcast like it,
    and ``f`` a ``(..., 3, n_z, n_y, n_x//2 + 1)`` stack of vector fields,
    whose components are its fourth axis from the end; ``out`` has ``f``'s
    shape and must not overlap it.
    """
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        comp = out[..., i, :, :, :]
        np.multiply(b[j], f[..., k, :, :, :], out=comp)
        comp -= b[k] * f[..., j, :, :, :]
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


def dft3_inverse(grid: GridSpec, F: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
    """Inverse 3D DFT of a half spectrum to real samples; carries 1/n_total.

    Anti-Hermitian content of the ``kx = 0`` and ``kx = n_x/2`` planes is
    dropped; :func:`realize` checks that there is none beyond roundoff.
    The passes are those of ``irfftn`` in its order (z, y, then the real x
    pass), so the result is bitwise the same.  They all run in one spectrum
    buffer, and the real samples are written over it: the returned
    ``(..., n_total)`` float64 array is a view of that buffer.  By default
    the buffer is a copy of ``F``, which is left untouched.  With
    ``overwrite`` it is ``F`` itself, which must then be a writeable
    C-contiguous complex128 array that the caller owns and no longer needs
    as a spectrum (``ValueError`` otherwise), and nothing spectrum-sized is
    allocated.

    Each row of the batch goes through all three passes on one worker, the
    x pass block by block of lines in increasing order: the ``n_x`` samples
    of the row's x-line ``l`` go to its floats ``[l n_x, (l+1) n_x)``,
    inside the ``2 (n_x//2 + 1)`` floats of its lines up to ``l``, so no row
    writes over another row's coefficients.  Each block is transformed
    straight from the spectrum: where its samples overlap its coefficients,
    numpy's rule for overlapping operands (the ``numpy.fft`` functions are
    gufuncs since numpy 2.0) copies the block's input first, so at most one
    block per worker is copied at a time.  Each row of the result is
    C-contiguous and starts at the first byte of its spectrum row, so rows
    lie ``2 n_spectral`` floats apart; a single field's result is
    C-contiguous.

    The buffer behind the result holds ``2 (n_x//2 + 1) / n_x`` times the
    samples' memory (1.6% more at ``n_x = 128``, twice at ``n_x = 2``) for
    as long as the result lives; ``.copy()`` it to keep exactly the samples.
    """
    if overwrite and not (
        isinstance(F, np.ndarray)
        and F.dtype == np.complex128
        and F.flags.c_contiguous
        and F.flags.writeable
    ):
        raise ValueError(
            "dft3_inverse(overwrite=True) writes the samples over F, which must be "
            "a writeable C-contiguous complex128 array"
        )
    cube = _cube(F, grid.spectral_shape)
    if not overwrite:
        cube = np.array(cube, np.complex128)
    rows = _rows(cube)
    n_x, n_xh = grid.n_x, grid.spectral_shape[-1]
    floats = rows.reshape(len(rows), math.prod(grid.spectral_shape)).view(np.float64)
    lines = max(1, _POOLED_BLOCK_MODES // n_xh)

    def inverse(batch: slice) -> None:
        for r in range(batch.start, batch.stop):
            np.fft.ifft(rows[r], axis=-3, out=rows[r])
            np.fft.ifft(rows[r], axis=-2, out=rows[r])
            coefs, samples = rows[r].reshape(-1, n_xh), floats[r]
            for first in range(0, len(coefs), lines):
                stop = min(first + lines, len(coefs))
                out = samples[first * n_x : stop * n_x].reshape(-1, n_x)
                np.fft.irfft(coefs[first:stop], n=n_x, axis=-1, out=out)

    _for_slabs(inverse, len(rows), cube.size)
    return floats[:, : grid.n_total].reshape(cube.shape[:-3] + (grid.n_total,))


def apply_derivative(grid: GridSpec, F: np.ndarray, axis: int) -> np.ndarray:
    """Directional derivative in spectral space: multiply by ``i * kvec[axis]``."""
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
    derivative = 1j * wavenumbers(grid)[axis] * _cube(F, grid.spectral_shape)
    return derivative.reshape(derivative.shape[:-3] + (grid.n_spectral,))


def realize(grid: GridSpec, F: np.ndarray) -> tuple[np.ndarray, float]:
    """Check that a half spectrum is the spectrum of finite real fields.

    Returns ``F`` unchanged together with its imaginary residue: the largest
    anti-Hermitian part of the self-conjugate planes ``kx = 0`` and
    ``kx = n_x/2``, divided by ``n_total``, i.e. the physical amplitude of the
    largest mode that :func:`dft3_inverse` drops.  Each plane must equal its
    own conjugate under ``(ky, kz) -> (-ky, -kz)``.  Raises
    :class:`ImaginaryResidueError` when the spectrum is not finite, or when
    the anti-Hermitian part exceeds ``IMAG_RESIDUE_RTOL`` times the spectrum
    magnitude, which signals broken conjugate symmetry upstream rather than
    roundoff.

    The magnitude is taken over the whole field, batch axes included, so a
    component of a stacked state which happens to be identically zero is not
    flagged for its own roundoff.

    Both go in one pass over blocks of z-planes (:func:`_for_slabs`):
    each block takes its largest real or imaginary part, then its two
    columns against their mirrors, gathered by index (``-kz mod n_z``,
    ``-ky mod n_y``).  The largest part ``L`` bounds the magnitude from
    below, and within a factor sqrt(2) from above, so when ``L`` is below
    half the largest float and the defect within ``IMAG_RESIDUE_RTOL L``,
    the spectrum passes without its magnitude; otherwise (including any
    non-finite mode) a second pass takes the magnitude, and its
    finiteness is checked first.  Only block-sized temporaries are
    allocated, and as a max does not depend on the order, the residue
    does not depend on the block size or the worker count.
    """
    # Contiguous, so that its floats have a view (a copy only for strided input).
    cube = _cube(np.ascontiguousarray(F), grid.spectral_shape)
    columns = slice(None, None, grid.n_x // 2)  # the kx = 0 and kx = n_x/2 columns
    mirror_y = -np.arange(grid.n_y) % grid.n_y
    maxima = np.zeros((2, grid.n_z))  # largest part (then magnitude) and defect per z-plane
    plane = grid.n_y * grid.spectral_shape[-1]

    def check(planes: slice) -> None:
        part = cube[..., planes, :, :]
        floats = part.view(part.real.dtype)  # real and imaginary parts side by side
        maxima[0, planes] = np.maximum(floats.max(), -floats.min())
        mirror_z = -np.arange(planes.start, planes.stop) % grid.n_z
        mirror = cube[..., mirror_z[:, None], mirror_y, columns]
        here = part[..., columns]
        maxima[1, planes] = np.max(np.abs(here - mirror.conj()), initial=0.0)

    def magnitude(planes: slice) -> None:
        maxima[0, planes] = np.max(np.abs(cube[..., planes, :, :]), initial=0.0)

    # inf - inf in a self-conjugate mode; the magnitude check below raises first.
    with np.errstate(invalid="ignore"):
        _for_slabs(check, grid.n_z, cube.size, plane)
    largest = float(np.max(maxima[0], initial=0.0))
    defect = 0.5 * float(np.max(maxima[1], initial=0.0))
    # False for a NaN bound or defect as well.
    if largest < np.finfo(np.float64).max / 2 and defect <= IMAG_RESIDUE_RTOL * largest:
        return F, defect / grid.n_total
    _for_slabs(magnitude, grid.n_z, cube.size, plane)
    scale = float(np.max(maxima[0], initial=0.0))
    if not np.isfinite(scale):
        raise ImaginaryResidueError(f"non-finite spectrum magnitude {scale}")
    if defect > IMAG_RESIDUE_RTOL * scale:
        raise ImaginaryResidueError(
            f"kx = 0 / n_x/2 planes off Hermitian by {defect:.3e}, over "
            f"{IMAG_RESIDUE_RTOL:.1e} x spectrum magnitude {scale:.3e}"
        )
    return F, defect / grid.n_total
