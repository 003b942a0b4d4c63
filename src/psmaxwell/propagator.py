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
depend on a mode only through ``|b|``, so :func:`step` evaluates them block
by block on the z-planes with ``kz >= 0`` and reuses each block's factors
on the mirror planes ``kz < 0``; no array of them is kept.
:func:`propagate` returns its result in the representation it was given.
On a spectral state it costs O(n_spectral) elementwise work (the factors
on about half the modes, two per-mode cross products per field) written
into a new spectrum, and no transform.  A physical state adds one batched
real-to-complex transform of the six components before, and after it the
Hermitian-plane check of :func:`psmaxwell.spectral.realize` and one
batched complex-to-real transform whose samples are written over the
stepped spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridSpec
from .spectral import (
    ImaginaryResidueError,
    _for_slabs,
    _planes_per_block,
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


def _plane_factors(
    kappa: float, grid: GridSpec, planes: slice
) -> tuple[np.ndarray, np.ndarray]:
    """``r1``, ``r2`` at ``theta = |kappa| |b|`` on the half-spectrum z-planes ``planes``.

    The wavenumber ladders at ``-m`` are bitwise minus those at ``m``, and
    ``theta`` sees them only squared, so the formula runs on the y-rows with
    ``ky >= 0`` and row ``n_y - m`` is gathered from row ``m``.  For the same
    reason plane ``n_z - q`` gets the bits of plane ``q``.
    """
    n_y = grid.n_y
    bx, by, bz = wavenumbers(grid)
    by = by[: n_y // 2 + 1]
    theta = np.sqrt(kappa * kappa * (bx * bx + by * by + bz[planes] * bz[planes]))
    rows = np.minimum(np.arange(n_y), n_y - np.arange(n_y))
    # np.sinc(x) = sin(pi x)/(pi x) with the removable singularity filled in.
    r1 = -0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2
    return r1[:, rows], np.sinc(theta / np.pi)[:, rows]


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
    materializing either block.  It builds the factors block by block of
    z-planes as it goes, so the coefficients hold no array and are reusable
    across any number of states.
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
    the identity.  No array is built: :func:`step` evaluates the factors.
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

    The spectrum is worked on block by block of the z-planes ``q`` with
    ``kz >= 0`` (:func:`psmaxwell.spectral._planes_per_block` of them).
    Each block evaluates ``r1``, ``r2`` on its planes once and applies them
    there, then, reversed, to the mirror planes ``n_z - q`` for
    ``0 < q < n_z/2``, which have the same factors bit for bit.  The
    per-mode operations are those of the whole-array formula in the same
    order, so the result does not depend on the block size or on which
    thread runs the block.  Each slab gets one six-field scratch of a
    block's size from :func:`psmaxwell.spectral._for_slabs` for its blocks'
    curls ``b x E`` and ``b x H``; the double curl is formed one component
    at a time, so the workers' other temporaries are one component or one
    real factor block each.
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
    source = state.data.reshape((6,) + grid.spectral_shape)
    fields = source if overwrite else np.empty(source.shape, np.complex128)
    n_z = grid.n_z
    hz = n_z // 2 + 1
    block_planes = min(_planes_per_block(grid, fields.size), hz)

    def curls_scratch(start: int, stop: int) -> tuple[np.ndarray]:
        return (np.empty(6 * block_planes * grid.n_spectral // n_z, np.complex128),)

    def flow(block: slice, r1: np.ndarray, r2: np.ndarray, scratch: np.ndarray) -> None:
        s, f = source[:, block], fields[:, block]
        b = (kx, ky, kz[block])
        curls = scratch[: s.size].reshape(s.shape)  # b x E, then b x H
        cross(b, s[:3], curls[:3])
        cross(b, s[3:], curls[3:])
        # C F = F + rho b x (b x F), one component at a time as in cross.
        rho = (-coeffs.kappa * coeffs.kappa) * r1
        term = np.empty(s.shape[1:], np.complex128)
        for c in (0, 3):
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                np.multiply(b[j], curls[c + k], out=term)
                term -= b[k] * curls[c + j]
                term *= rho
                np.add(s[c + i], term, out=f[c + i])
        curls *= coeffs.t * r2
        curls[:3] *= -1j / medium.mu
        curls[3:] *= 1j / medium.eps
        # One component at a time: the sums of stacked, strided blocks
        # would go through numpy's iterator buffers.
        for i in range(3):
            f[i] += curls[3 + i]
            f[3 + i] += curls[i]

    def mirror_pair(planes: slice, scratch: np.ndarray) -> None:
        r1, r2 = _plane_factors(coeffs.kappa, grid, planes)
        flow(planes, r1, r2, scratch)
        # Planes 0 and n_z/2 are their own mirrors.
        first, last = max(planes.start, 1), min(planes.stop, n_z // 2)
        if first < last:
            cut = slice(first - planes.start, last - planes.start)
            mirror = slice(n_z - last + 1, n_z - first + 1)
            flow(mirror, r1[cut][::-1], r2[cut][::-1], scratch)

    _for_slabs(mirror_pair, hz, fields.size, block_planes, curls_scratch)
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
