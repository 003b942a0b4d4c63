"""Exact one-shot time evolution of the semi-discrete Maxwell system.

The spatially discretized curl equations decouple per Fourier mode into 6x6
skew-Hermitian blocks, so the flow map for any time increment ``t`` is
available in closed form: a symmetric "cosine" 3x3
``C = I - kappa^2 r1 [b]x^2`` and an antisymmetric purely imaginary "sine"
3x3 ``S = i kappa r2 [b]x`` on the impedance-scaled fields
``(sqrt(mu) H, sqrt(eps) E)``, with ``[b]x`` the mode's cross-product matrix
and ``r1``, ``r2`` two real factors per mode.  One application reaches
any target time -- there is no time-step marching and no CFL restriction --
and the map is exactly unitary per mode, which is what makes every quadratic
invariant drift only at roundoff level.

A state is one ``(6, N)`` array, which the transforms of
:mod:`psmaxwell.spectral` take as it is, together with the grid.  A spectral
state holds the half spectrum (the ``kx >= 0`` columns).  ``r1``, ``r2``
depend on a mode only through ``|b|``, so :func:`step` evaluates them once
per call on a table over the distinct mode norms, and each block of z-planes
gathers its modes' factors from it.  :func:`propagate` returns its result in
the representation it was given.  On a spectral state it costs O(n_spectral)
elementwise work (two gathers from the tables, two per-mode cross products
per field, each numpy call covering E and H together) written into a new
spectrum, and no transform.  A physical state adds one batched real-to-complex
transform of the six components before, and after it the Hermitian-plane
check of :func:`psmaxwell.spectral.realize` and one batched complex-to-real
transform whose samples are written over the stepped spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridSpec
from .spectral import (
    ImaginaryResidueError,
    _for_slabs,
    cross,
    dft3_forward,
    dft3_inverse,
    realize,
    wavenumbers,
)

__all__ = [
    "MediumParams",
    "FieldState",
    "PropagatorCoefficients",
    "build_coefficients",
    "step",
    "propagate",
    "to_spectral",
    "to_physical",
]


@dataclass(frozen=True)
class MediumParams:
    """Constant material parameters of the lossless medium."""

    mu: float = 1.0
    eps: float = 1.0

    def __post_init__(self) -> None:
        for value, name in ((self.mu, "mu"), (self.eps, "eps")):
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


PHYSICAL = "physical"
SPECTRAL = "spectral"


@dataclass(frozen=True, eq=False)
class FieldState:
    """The six electromagnetic components on one grid at one instant.

    ``data`` is one array whose rows are e_x, e_y, e_z, h_x, h_y, h_z, so
    ``data[:3]`` is E and ``data[3:]`` is H.  Its dtype is the
    representation: float64 holds physical samples, shape ``(6, n_total)``
    in the flat layout of :mod:`psmaxwell.grid`, and complex128 holds
    half-spectrum DFT coefficients, shape ``(6, n_spectral)``.  ``imag_residue`` records the largest imaginary
    residue :func:`psmaxwell.spectral.realize` found when the state was last
    transformed back to physical samples.
    """

    grid: GridSpec
    medium: MediumParams
    data: np.ndarray
    time: float = 0.0
    imag_residue: float = 0.0

    def __post_init__(self) -> None:
        dtype = getattr(self.data, "dtype", type(self.data).__name__)
        if dtype not in (np.float64, np.complex128):
            raise ValueError(
                "state data must be a float64 (physical) or complex128 (spectral) "
                f"array, got {dtype}"
            )
        n = self.grid.n_spectral if dtype == np.complex128 else self.grid.n_total
        if self.data.shape != (6, n):
            raise ValueError(
                f"state data has shape {self.data.shape}; the grid needs (6, {n})"
            )

    @property
    def representation(self) -> str:
        return SPECTRAL if self.data.dtype == np.complex128 else PHYSICAL

    def component_arrays(self) -> tuple[np.ndarray, ...]:
        """(e_x, e_y, e_z, h_x, h_y, h_z) as row views of ``data``."""
        return tuple(self.data)


@dataclass(frozen=True)
class PropagatorCoefficients:
    """Per-mode closed-form flow coefficients for one time increment ``t``.

    With ``kappa = t / sqrt(mu*eps)``, ``b`` the mode's wavenumber triple
    and ``theta = |kappa| |b|``, two real factors per mode carry the whole
    flow:

    - ``r1 = (cos(theta) - 1) / theta^2``, computed as ``-sinc^2(theta/2)/2``
      so small angles lose no relative accuracy; ``-1/2`` at theta = 0.
    - ``r2 = sin(theta) / theta``; ``1`` at theta = 0.

    :func:`step` applies them as the cosine block
    ``C = I - kappa^2 r1 [b]x^2`` and the purely imaginary sine block
    ``S = i kappa r2 [b]x`` through per-mode cross products, without
    materializing either block.  It tabulates the factors once per call, so
    the coefficients hold no array and are reusable across any number of states.
    """

    grid: GridSpec
    medium: MediumParams
    t: float
    kappa: float


def build_coefficients(
    grid: GridSpec, medium: MediumParams, t: float
) -> PropagatorCoefficients:
    """Closed-form per-mode propagator coefficients for time increment ``t``.

    Any finite ``t`` is accepted, including 0 and negative values (the flow
    is a group), as long as ``psi = kappa^2 |b|^2`` stays finite on every
    mode; a larger ``t`` raises :class:`ImaginaryResidueError` here, before
    any factor is evaluated.  Modes whose wavenumber triple vanishes (the
    zero mode and Nyquist-zeroed corners) take the analytic limits
    ``r1 = -1/2, r2 = 1`` branch-free, and their 6x6 block degenerates to
    the identity.  No array is built: :func:`step` tabulates the factors.
    """
    if not math.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t}")
    kappa = float(t) / math.sqrt(medium.mu * medium.eps)
    b_sq_max = sum(float((k * k).max()) for k in (grid.kvec_x, grid.kvec_y, grid.kvec_z))
    if not math.isfinite(kappa * kappa * b_sq_max):
        raise ImaginaryResidueError(
            f"non-finite propagator coefficient psi = kappa^2 |b|^2 "
            f"= {kappa * kappa * b_sq_max} at t = {t}"
        )
    return PropagatorCoefficients(grid, medium, float(t), kappa)


def _flow_tables(coeffs: PropagatorCoefficients) -> tuple[np.ndarray, ...]:
    """Keys ``key_xy``, ``key_z`` and tables of ``rho = -kappa^2 r1`` (complex) and ``t r2``.

    Mode ``(q, row, col)`` takes entry ``key_xy[row, col] + key_z[q]``.  On a
    cube (``nu_x == nu_y == nu_z``) the key is ``M = mx^2 + my^2 + mz^2``,
    with ``|b|^2 = nu^2 M``; otherwise it is the octant position
    ``(|mz|, |my|, mx)``, with ``|b|^2`` formed as on the mode, whose ladders
    at ``-m`` are minus those at ``m`` bit for bit.  A Nyquist mode's zero
    wavenumber keys as ``m = 0``.
    """
    grid, kappa = coeffs.grid, coeffs.kappa
    b, nu = wavenumbers(grid), (grid.nu_x, grid.nu_y, grid.nu_z)
    mx, my, mz = (np.rint(np.abs(k) / n).astype(np.intp) for k, n in zip(b, nu))
    if nu[0] == nu[1] == nu[2]:
        key_xy, key_z = mx * mx + my * my, mz * mz
        b_sq = nu[0] * nu[0] * np.arange(key_xy.max() + key_z.max() + 1)
    else:
        n_xh, n_yh = mx.size, grid.n_y // 2 + 1
        key_xy, key_z = my * n_xh + mx, mz * (n_yh * n_xh)
        bx, by, bz = b[0], b[1][:n_yh], b[2][: grid.n_z // 2 + 1]
        b_sq = (bx * bx + by * by + bz * bz).ravel()
    theta = np.sqrt(kappa * kappa * b_sq)
    # np.sinc(x) = sin(pi x)/(pi x) with the removable singularity filled in.
    r1 = -0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2
    rho = ((-kappa * kappa) * r1).astype(np.complex128)
    return key_xy, key_z, rho, coeffs.t * np.sinc(theta / np.pi)


def step(
    state: FieldState, coeffs: PropagatorCoefficients, *, overwrite: bool = False
) -> FieldState:
    """Apply the per-mode flow to a spectral state.

    Computes ``E' = C E + (i t r2 / eps) b x H`` and
    ``H' = C H - (i t r2 / mu) b x E`` with ``C F = F - kappa^2 r1 b x (b x F)``
    elementwise over modes, and advances the state time by ``coeffs.t``.
    This is the cosine/sine block flow of :class:`PropagatorCoefficients`
    with the impedance scaling folded into the sine factors, so ``t = 0``
    returns the input bitwise.  The map is exactly unitary in the energy
    norm ``eps |E|^2 + mu |H|^2``, up to roundoff.

    The factors are evaluated once per call on tables over the distinct
    mode norms.  The spectrum is worked on in blocks of z-planes that
    :func:`psmaxwell.spectral._for_slabs` cuts, each of which gathers its
    modes' factors from the tables.  The per-mode operations are those of
    the whole-array formula in the same order, so the result does not
    depend on the block size or on which thread runs the block.

    A block of E and H is one ``(2, 3, planes, n_y, n_x//2 + 1)`` view, so
    every cross product, double-curl component, factor and sine call covers
    both fields at once: 27 numpy calls per block, each twice as long as one
    field's, which is fewer hand-offs of the interpreter lock between the
    pool's workers.  No strided stack is multiplied by an operand numpy must
    cast: the x and y wavenumbers are complex planes built once per step,
    and the z ladder and the cosine factor's table are complex; only the
    real sine factor is cast, in one call per block on the contiguous curls.
    ``_for_slabs`` runs the blocks with numpy's ufunc buffers no longer than
    a plane, and gives each slab's blocks one scratch of a block's size,
    viewed as complex, for their curls ``b x E`` and ``b x H``.  The double
    curl is formed one component of both fields at a time, in the output's
    own component, or with ``overwrite`` in two more complex per mode of the
    slab's scratch, so a worker's other temporaries are the two factors and
    one product of a component of both fields.

    Each block is read from the input's spectrum and its result written to
    the output's.  By default the output is a new spectrum and the input is
    left unmodified.  With ``overwrite`` the output is the input's spectrum,
    which is then the returned state's, so the input state must not be used
    again; the result is bitwise the same.
    """
    if state.representation != SPECTRAL:
        raise ValueError("step requires a state in spectral representation")
    if state.grid != coeffs.grid:
        raise ValueError("state and coefficients use different grids")
    if state.medium != coeffs.medium:
        raise ValueError("state and coefficients use different media")
    grid, medium = coeffs.grid, coeffs.medium
    kx, ky, kz = wavenumbers(grid)
    n_z, n_y, n_xh = grid.spectral_shape
    # E, then H: each call below works on both fields at once.
    source = state.data.reshape((2, 3) + grid.spectral_shape)
    fields = source if overwrite else np.empty(source.shape, np.complex128)
    # Complex operands, so that no call on a strided stack casts one, and
    # (b + 0j) z has the bits of b z.  The x and y wavenumbers are whole
    # planes in C order (astype keeps a broadcast's layout otherwise), so
    # that each call runs over whole planes.
    b_xy = [np.broadcast_to(k, (n_y, n_xh)).astype(np.complex128, order="C") for k in (kx, ky)]
    b_z = kz.astype(np.complex128)
    sine_units = np.array([-1j / medium.mu, 1j / medium.eps]).reshape(2, 1, 1, 1, 1)
    key_xy, key_z, rho_table, sine_table = _flow_tables(coeffs)

    def flow(block: slice, scratch: np.ndarray) -> None:
        index = key_xy + key_z[block]
        rho, sine = rho_table.take(index), sine_table.take(index)
        del index  # the slab's peak comes later, without it
        s, f = source[:, :, block], fields[:, :, block]
        b = (*b_xy, b_z[block])
        scratch = scratch.view(np.complex128)
        curls = scratch[: s.size].reshape(s.shape)
        cross(b, s, curls)
        # C F = F + rho b x (b x F), one component at a time, formed in the
        # output's own component unless that is the input's.
        spare = scratch[s.size : s.size * 4 // 3].reshape(f[:, 0].shape) if overwrite else None
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            term = spare if overwrite else f[:, i]
            np.multiply(b[j], curls[:, k], out=term)
            term -= b[k] * curls[:, j]
            term *= rho
            np.add(s[:, i], term, out=f[:, i])
        curls *= sine
        curls *= sine_units
        f += curls[::-1]  # each field gets the other's scaled curl

    # Floats per mode of a block for the complex curls b x E, b x H and,
    # over the input, a double-curl component.
    _for_slabs(flow, n_z, fields.size, n_y * n_xh, 16 if overwrite else 12)
    return replace(state, data=fields.reshape(6, -1), time=state.time + coeffs.t)


def to_spectral(state: FieldState) -> FieldState:
    """Forward-transform all six components to half spectra in one batch."""
    if state.representation == SPECTRAL:
        return state
    return replace(state, data=dft3_forward(state.grid, state.data))


def to_physical(state: FieldState, *, overwrite: bool = False) -> FieldState:
    """Check, then inverse-transform all six components to real samples in one batch.

    Raises :class:`psmaxwell.spectral.ImaginaryResidueError` if the spectrum
    is non-finite or its ``kx = 0`` / ``kx = n_x/2`` planes are off Hermitian
    beyond roundoff (:func:`psmaxwell.spectral.realize`).  The defect is
    judged against the whole state's magnitude, so an identically zero
    component is not flagged for its own roundoff.  The returned samples
    are a view into the buffer the inverse ran in
    (:func:`psmaxwell.spectral.dft3_inverse`).  By default that is a copy
    and the spectrum is left untouched.  With ``overwrite`` it is the
    spectrum itself, which the samples are written over after the check,
    and ``state`` must not be used again.  Either way the returned state
    keeps the whole buffer, ``2 (n_x//2 + 1) / n_x`` times its samples'
    memory, for as long as it lives; ``data.copy()`` keeps just the samples.
    """
    if state.representation == PHYSICAL:
        return state
    spectrum, residue = realize(state.grid, state.data)
    real = dft3_inverse(state.grid, spectrum, overwrite=overwrite)
    return replace(state, data=real, imag_residue=max(state.imag_residue, residue))


def propagate(initial: FieldState, t_end: float) -> FieldState:
    """Evolve a state by the time increment ``t_end`` in one shot.

    The result is in ``initial``'s representation.  A spectral input is
    stepped into one new spectrum, which is returned, and is left
    unmodified, so a caller that reaches many times from one state
    transforms it once and can measure each result in spectral space
    before it calls :func:`to_physical`.  A physical input is transformed,
    stepped in place in the spectrum made for it, checked and transformed
    back: the inverse writes its samples over the stepped spectrum, so the
    returned data is a view into that spectrum's buffer.  Either way the
    coefficients hold no array, and besides ``initial`` one spectrum and
    block-sized temporaries are alive at a time.  A physical result keeps
    its buffer, ``2 (n_x//2 + 1) / n_x`` times its samples' memory, for as
    long as it lives; a caller that holds many results can keep
    ``dataclasses.replace(result, data=result.data.copy())`` instead.
    """
    coeffs = build_coefficients(initial.grid, initial.medium, t_end)
    spectrum = to_spectral(initial)
    if spectrum is initial:
        return step(spectrum, coeffs)
    return to_physical(step(spectrum, coeffs, overwrite=True), overwrite=True)
