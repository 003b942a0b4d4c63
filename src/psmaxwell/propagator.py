"""Exact one-shot time evolution of the semi-discrete Maxwell system.

The spatially discretized curl equations decouple per Fourier mode into 6x6
skew-Hermitian blocks, so the flow map for any time increment ``t`` is
available in closed form: a symmetric "cosine" 3x3
``C = I - kappa^2 r1 [b]x^2`` and an antisymmetric purely imaginary "sine"
3x3 ``S = i kappa r2 [b]x`` on the impedance-scaled fields
``(sqrt(mu) H, sqrt(eps) E)``, with ``[b]x`` the mode's cross-product matrix
and ``r1``, ``r2`` two real arrays over the modes.  One application reaches
any target time -- there is no time-step marching and no CFL restriction --
and the map is exactly unitary per mode, which is what makes every quadratic
invariant drift only at roundoff level.

A state is one ``(6, N)`` array, which the transforms of
:mod:`psmaxwell.spectral` take as it is, together with the grid.  A spectral
state holds the half spectrum (the ``kx >= 0`` columns), and ``r1``, ``r2``
are stored on that layout.  Total cost of :func:`propagate` is one batched
real-to-complex transform of the six components (none when the state is
already spectral), one copy of the spectrum with O(n_spectral) elementwise
work on it (two per-mode cross products per field), the Hermitian-plane
check of :func:`psmaxwell.spectral.realize`, and one batched complex-to-real
transform.
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


def _flow_factors(kappa: float, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """``r1``, ``r2`` at ``theta = |kappa| |b|`` over the half-spectrum modes."""
    bx, by, bz = wavenumbers(grid)
    b_xy = bx * bx + by * by
    r1 = np.empty(grid.spectral_shape)
    r2 = np.empty(grid.spectral_shape)

    def factors(planes: slice) -> None:
        theta = np.sqrt(kappa * kappa * (b_xy + bz[planes] * bz[planes]))
        # np.sinc(x) = sin(pi x)/(pi x) with the removable singularity filled in.
        np.multiply(-0.5, np.sinc(theta / (2.0 * np.pi)) ** 2, out=r1[planes])
        r2[planes] = np.sinc(theta / np.pi)

    _for_slabs(factors, grid.spectral_shape[0], r1.size, _planes_per_block(grid))
    return r1, r2


@dataclass(frozen=True)
class PropagatorCoefficients:
    """Per-mode closed-form flow coefficients for one time increment ``t``.

    With ``kappa = t / sqrt(mu*eps)``, ``b`` the mode's wavenumber triple
    and ``theta = |kappa| |b|``, two real arrays in the flat half-spectrum
    layout (``n_spectral`` modes) carry the whole flow:

    - ``r1 = (cos(theta) - 1) / theta^2``, computed as ``-sinc^2(theta/2)/2``
      so small angles lose no relative accuracy; ``-1/2`` at theta = 0.
    - ``r2 = sin(theta) / theta``; ``1`` at theta = 0.

    :func:`step` applies them as the cosine block
    ``C = I - kappa^2 r1 [b]x^2`` and the purely imaginary sine block
    ``S = i kappa r2 [b]x`` through per-mode cross products, without
    materializing either block.  ``r1`` and ``r2`` are immutable and
    reusable across any number of states.
    """

    grid: GridSpec
    medium: MediumParams
    t: float
    kappa: float
    r1: np.ndarray
    r2: np.ndarray


def build_coefficients(
    grid: GridSpec, medium: MediumParams, t: float
) -> PropagatorCoefficients:
    """Closed-form per-mode propagator coefficients for time increment ``t``.

    Any finite ``t`` is accepted, including 0 and negative values (the flow
    is a group), as long as ``psi = kappa^2 |b|^2`` stays finite on every
    mode; a larger ``t`` raises :class:`ImaginaryResidueError` before any
    array is built.  Modes whose wavenumber triple vanishes (the zero mode
    and Nyquist-zeroed corners) take the analytic limits ``r1 = -1/2,
    r2 = 1`` branch-free, and their 6x6 block degenerates to the identity.
    """
    if not math.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t}")
    kappa = float(t) / math.sqrt(medium.mu * medium.eps)
    # The largest |kvec| along an axis is nu * (n/2 - 1): the Nyquist entry is 0.
    b_sq_max = sum(
        (nu * (n // 2 - 1)) * (nu * (n // 2 - 1))
        for nu, n in zip((grid.nu_x, grid.nu_y, grid.nu_z), grid.counts())
    )
    if not math.isfinite(kappa * kappa * b_sq_max):
        raise ImaginaryResidueError(
            f"non-finite propagator coefficient psi = kappa^2 |b|^2 "
            f"= {kappa * kappa * b_sq_max} at t = {t}"
        )
    r1, r2 = (r.ravel() for r in _flow_factors(kappa, grid))
    r1.setflags(write=False)
    r2.setflags(write=False)
    return PropagatorCoefficients(grid, medium, float(t), kappa, r1, r2)


def step(state: FieldState, coeffs: PropagatorCoefficients) -> FieldState:
    """Apply the per-mode flow to a spectral state.

    Computes ``E' = C E + (i t r2 / eps) b x H`` and
    ``H' = C H - (i t r2 / mu) b x E`` with ``C F = F - kappa^2 r1 b x (b x F)``
    elementwise over modes, and advances the state time by ``coeffs.t``.
    This is the cosine/sine block flow of :class:`PropagatorCoefficients`
    with the impedance scaling folded into the sine factors, so ``t = 0``
    returns the input bitwise.  The map is exactly unitary in the energy
    norm ``eps |E|^2 + mu |H|^2``, up to roundoff.

    The input is left unmodified: each block of z-planes of its spectrum is
    copied into the output and updated there, so besides the output only
    block-sized temporaries are allocated.
    """
    if state.representation != SPECTRAL:
        raise ValueError("step requires a state in spectral representation")
    if state.grid != coeffs.grid:
        raise ValueError("state and coefficients use different grids")
    if state.medium != coeffs.medium:
        raise ValueError("state and coefficients use different media")
    spectrum = np.empty_like(state.data)
    _evolve(state.data, coeffs, spectrum)
    return replace(state, data=spectrum, time=state.time + coeffs.t)


def _evolve(
    spectrum: np.ndarray, coeffs: PropagatorCoefficients, dest: np.ndarray
) -> None:
    """Write the flow of :func:`step` of a ``(6, n_spectral)`` spectrum into ``dest``.

    Works on blocks of whole z-planes of about ``_BLOCK_MODES`` modes (never
    less than one plane), each copied into ``dest`` and updated there; each
    block's per-mode operations are those of the whole-array formula in the
    same order, so the result does not depend on the block size or on
    which thread runs the block.
    """
    grid, medium = coeffs.grid, coeffs.medium
    kx, ky, kz = wavenumbers(grid)
    source = spectrum.reshape((6,) + grid.spectral_shape)
    fields = dest.reshape((6,) + grid.spectral_shape)
    r1 = coeffs.r1.reshape(grid.spectral_shape)
    r2 = coeffs.r2.reshape(grid.spectral_shape)

    def flow(block: slice) -> None:
        f = fields[:, block]
        f[...] = source[:, block]
        b = (kx, ky, kz[block])
        curls = np.empty_like(f)  # b x E, then b x H
        cross(b, f[:3], curls[:3])
        cross(b, f[3:], curls[3:])
        out = np.empty_like(f)
        cross(b, curls[:3], out[:3])
        cross(b, curls[3:], out[3:])
        out *= (-coeffs.kappa * coeffs.kappa) * r1[block]
        f += out
        curls *= coeffs.t * r2[block]
        curls[:3] *= -1j / medium.mu
        curls[3:] *= 1j / medium.eps
        f[:3] += curls[3:]
        f[3:] += curls[:3]

    _for_slabs(flow, grid.spectral_shape[0], spectrum.size, _planes_per_block(grid))


def to_spectral(state: FieldState) -> FieldState:
    """Forward-transform all six components to half spectra in one batch."""
    if state.representation == SPECTRAL:
        return state
    return replace(state, data=dft3_forward(state.grid, state.data))


def to_physical(state: FieldState) -> FieldState:
    """Check, then inverse-transform all six components to real samples in one batch.

    Raises :class:`psmaxwell.spectral.ImaginaryResidueError` if the spectrum
    is non-finite or its ``kx = 0`` / ``kx = n_x/2`` planes are off Hermitian
    beyond roundoff (:func:`psmaxwell.spectral.realize`).  The defect is
    judged against the whole state's magnitude, so an identically zero
    component is not flagged for its own roundoff.
    """
    if state.representation == PHYSICAL:
        return state
    spectrum, residue = realize(state.grid, state.data)
    real = dft3_inverse(state.grid, spectrum)
    return replace(state, data=real, imag_residue=max(state.imag_residue, residue))


def propagate(initial: FieldState, t_end: float) -> FieldState:
    """Evolve a state by the time increment ``t_end`` in one shot.

    Transform, apply the closed-form flow once, check and transform back;
    the result is always physical.  ``initial`` may be in either
    representation: a spectral one is used as given and left unmodified, so
    a caller that reaches many times from one state transforms it once.
    """
    coeffs = build_coefficients(initial.grid, initial.medium, t_end)
    return to_physical(step(to_spectral(initial), coeffs))
