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

Total cost of :func:`propagate` is one batched forward transform of the six
components, O(n_total) elementwise work (two per-mode cross products per
field), and one batched inverse transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridSpec, unflatten_index
from .spectral import (
    ImaginaryResidueError,
    PhysicalField,
    SpectralField,
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
    "broadcast_wavenumbers",
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

    ``data`` is one ``(6, n_total)`` array whose rows are e_x, e_y, e_z, h_x,
    h_y, h_z in the flat layout of :mod:`psmaxwell.grid`.  Its dtype is the
    representation: float64 holds physical samples, complex128 holds DFT
    coefficients.  ``imag_residue`` records the largest imaginary part
    discarded when the state was last realized.
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
        if self.data.shape != (6, self.grid.n_total):
            raise ValueError(
                f"state data has shape {self.data.shape}; the grid needs "
                f"(6, {self.grid.n_total})"
            )

    @property
    def representation(self) -> str:
        return SPECTRAL if self.data.dtype == np.complex128 else PHYSICAL

    def _fields(self, rows: np.ndarray) -> tuple:
        kind = SpectralField if self.representation == SPECTRAL else PhysicalField
        return tuple(kind(self.grid, row) for row in rows)

    e = property(lambda self: self._fields(self.data[:3]), doc="E as fields viewing ``data``.")
    h = property(lambda self: self._fields(self.data[3:]), doc="H as fields viewing ``data``.")

    def component_arrays(self) -> tuple[np.ndarray, ...]:
        """(e_x, e_y, e_z, h_x, h_y, h_z) as row views of ``data``."""
        return tuple(self.data)


def broadcast_wavenumbers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis wavenumber ladders broadcast to the flat mode layout.

    ``b_x[flat(j,k,l)] = kvec_x[j]`` and likewise for y, z.
    """
    return tuple(np.broadcast_to(b, grid.shape).ravel() for b in wavenumbers(grid))


@dataclass(frozen=True)
class PropagatorCoefficients:
    """Per-mode closed-form flow coefficients for one time increment ``t``.

    With ``kappa = t / sqrt(mu*eps)``, ``b`` the mode's wavenumber triple
    and ``theta = |kappa| |b|`` (``psi = theta^2``), two real arrays in the
    flat mode layout carry the whole flow:

    - ``r1 = (cos(theta) - 1) / theta^2``, computed as ``-sinc^2(theta/2)/2``
      so small angles lose no relative accuracy; ``-1/2`` at theta = 0.
    - ``r2 = sin(theta) / theta``; ``1`` at theta = 0.

    On the impedance-scaled fields ``(sqrt(mu) H, sqrt(eps) E)`` the flow
    is the cosine block ``C = I - kappa^2 r1 [b]x^2`` and the purely
    imaginary sine block ``S = i kappa r2 [b]x``.  Their entries
    (``c11 = 1 + kappa^2 (b_y^2 + b_z^2) r1`` and cyclic analogues, and the
    sine magnitudes ``s12 = kappa b_z r2`` and cyclic, the factor ``i``
    applied where they are used), ``psi`` and the broadcast wavenumbers
    ``b_x``, ``b_y``, ``b_z`` are read-only properties derived on demand;
    :func:`step` never materializes them.  ``r1`` and ``r2`` are immutable
    and reusable across any number of states.
    """

    grid: GridSpec
    medium: MediumParams
    t: float
    kappa: float
    r1: np.ndarray
    r2: np.ndarray

    @property
    def _b(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return broadcast_wavenumbers(self.grid)

    def _cos(self, i: int, j: int) -> np.ndarray:
        b = self._b
        k2r1 = self.kappa * self.kappa * self.r1
        if i != j:
            return -b[i] * b[j] * k2r1
        o1, o2 = (b[a] for a in range(3) if a != i)
        return 1.0 + (o1 * o1 + o2 * o2) * k2r1

    def _sin(self, axis: int) -> np.ndarray:
        return self.kappa * self._b[axis] * self.r2

    b_x = property(lambda self: self._b[0])
    b_y = property(lambda self: self._b[1])
    b_z = property(lambda self: self._b[2])
    psi = property(lambda self: self.kappa * self.kappa * sum(b * b for b in self._b))
    c11 = property(lambda self: self._cos(0, 0))
    c12 = property(lambda self: self._cos(0, 1))
    c13 = property(lambda self: self._cos(0, 2))
    c22 = property(lambda self: self._cos(1, 1))
    c23 = property(lambda self: self._cos(1, 2))
    c33 = property(lambda self: self._cos(2, 2))
    s12 = property(lambda self: self._sin(2))
    s13 = property(lambda self: self._sin(1))
    s23 = property(lambda self: self._sin(0))

    def _cross_matrix(self, mode: int) -> np.ndarray:
        """``[b]x`` at one flat mode index."""
        j, k, l = unflatten_index(mode, self.grid)
        bx, by, bz = self.grid.kvec_x[j], self.grid.kvec_y[k], self.grid.kvec_z[l]
        return np.array([[0.0, -bz, by], [bz, 0.0, -bx], [-by, bx, 0.0]])

    def cos_block(self, mode: int) -> np.ndarray:
        """Symmetric 3x3 cosine block at one flat mode index."""
        k = self._cross_matrix(mode)
        return np.eye(3) - self.kappa * self.kappa * self.r1[mode] * (k @ k)

    def sin_block(self, mode: int) -> np.ndarray:
        """Antisymmetric purely imaginary 3x3 sine block at one mode."""
        return 1j * self.kappa * self.r2[mode] * self._cross_matrix(mode)


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
    bx, by, bz = wavenumbers(grid)
    theta = np.sqrt(kappa * kappa * (bx * bx + by * by + bz * bz)).ravel()
    # np.sinc(x) = sin(pi x)/(pi x) with the removable singularity filled in.
    r2 = np.sinc(theta / np.pi)
    r1 = -0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2
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
    """
    if state.representation != SPECTRAL:
        raise ValueError("step requires a state in spectral representation")
    if state.grid != coeffs.grid:
        raise ValueError("state and coefficients use different grids")
    if state.medium != coeffs.medium:
        raise ValueError("state and coefficients use different media")

    shape = state.grid.shape
    b = wavenumbers(state.grid)
    fields = state.data.reshape((6,) + shape)
    curls = np.empty_like(fields)  # b x E, then b x H
    cross(b, fields[:3], curls[:3])
    cross(b, fields[3:], curls[3:])
    out = np.empty_like(fields)
    cross(b, curls[:3], out[:3])
    cross(b, curls[3:], out[3:])
    out *= (-coeffs.kappa * coeffs.kappa) * coeffs.r1.reshape(shape)
    out += fields
    curls *= coeffs.t * coeffs.r2.reshape(shape)
    curls[:3] *= -1j / state.medium.mu
    curls[3:] *= 1j / state.medium.eps
    out[:3] += curls[3:]
    out[3:] += curls[:3]
    return replace(state, data=out.reshape(6, -1), time=state.time + coeffs.t)


def to_spectral(state: FieldState) -> FieldState:
    """Forward-transform all six components in one batched transform."""
    if state.representation == SPECTRAL:
        return state
    return replace(state, data=dft3_forward(PhysicalField(state.grid, state.data)).data)


def to_physical(state: FieldState) -> FieldState:
    """Inverse-transform and realize all six components in one batch.

    Raises :class:`psmaxwell.spectral.ImaginaryResidueError` if the state is
    non-finite or carries imaginary content beyond roundoff scale.  Residues
    are judged against the whole state's magnitude, so an identically zero
    component is not flagged for its own roundoff.
    """
    if state.representation == PHYSICAL:
        return state
    real, residue = realize(dft3_inverse(SpectralField(state.grid, state.data)))
    return replace(state, data=real.data, imag_residue=max(state.imag_residue, residue))


def propagate(initial: FieldState, t_end: float) -> FieldState:
    """Evolve a physical state by the time increment ``t_end`` in one shot.

    Transform, apply the closed-form flow once, transform back, realize.
    """
    if initial.representation != PHYSICAL:
        raise ValueError("propagate expects a state in physical representation")
    coeffs = build_coefficients(initial.grid, initial.medium, t_end)
    return to_physical(step(to_spectral(initial), coeffs))
