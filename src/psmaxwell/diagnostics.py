"""Discrete inner products, conserved quantities, and error metrics.

All quantities use the normalized grid inner product

    <u, v>_N = (1/(n_x n_y n_z)) * sum_p u(p) * conj(v(p)),

with derivatives taken spectrally, so the quadratic invariants below are
conserved by the propagator exactly up to roundoff:

- energies ``e1``/``e2``: field and time-derivative energy;
- ``e3``/``e4``: energy of the axis-k derivatives (per axis k);
- ``e5``/``e6``: mixed <u, D_k u> forms (identically zero for real fields,
  reported for completeness);
- helicities ``h1``/``h2``: <F, curl F> forms;
- momenta ``m1``/``m2``: <H, D_k E> and <E, D_k H> per axis;
- divergence fields of ``eps*E`` and ``mu*H`` with their max norms.

Every form has a diagonal Fourier symbol (``i b_k`` for D_k, ``i b x`` for
the curl, with ``b`` the per-axis wavenumbers), so by Parseval it is a sum
over the modes of the forward spectra of a closed-form scalar of
``(E, H, b)``, divided by ``N^2`` with ``N = n_x n_y n_z``.  With
``E = Er + i Ei`` and likewise ``H``, the per-mode scalars are

- ``w1 = eps |E|^2 / 2 + mu |H|^2 / 2``: ``e1`` sums it, ``e3_k`` sums
  ``b_k^2 w1``;
- ``w2 = (|b|^2 |H|^2 - |b.H|^2) / (2 eps) + (|b|^2 |E|^2 - |b.E|^2) / (2 mu)``,
  the ``w1`` of the rates ``dE/dt = (i/eps) b x H``, ``dH/dt = -(i/mu) b x E``:
  ``e2`` sums it, ``e4_k`` sums ``b_k^2 w2``;
- ``p = sum_c (Hi_c Er_c - Hr_c Ei_c)``: ``m1_k`` sums ``b_k p``;
- ``rho = b.(Hr x Hi) / eps + b.(Er x Ei) / mu``: ``h1`` sums it and ``h2``
  sums ``|b|^2 rho / (mu eps)``,

so no rate spectrum, curl or squared-magnitude field is ever formed.  The
spectra are half spectra (the ``kx >= 0`` columns of
:mod:`psmaxwell.spectral`); the symbols map the spectrum of a real field to
that of a real field, so the summand at ``-m`` equals the one at ``m`` and
the full sum is the half sum with every x-column counted twice, except the
self-conjugate columns ``kx = 0`` and ``kx = n_x/2``, which hold both
members of each pair and count once (for ``n_x = 2`` these are the only
two).  Two identities hold exactly rather than to roundoff: ``e5``/``e6``
are 0.0, because the symbol ``i b_k`` is imaginary and ``Re(i b_k |U|^2)``
vanishes mode by mode, and ``m2 = -m1``, because D_k is skew-adjoint.

A report forward-transforms the six components once, in one batched
transform (a state given in spectral representation is taken to be the
spectrum of real fields and used as it is), and makes one pass over blocks
of z-planes, on the thread pool for large grids
(:func:`psmaxwell.spectral._for_slabs`).  Each block writes one row of
partial sums per z-plane, and every invariant is one sum over those rows
in plane order; the rows do not depend on how the planes are cut into
blocks, so a report is bitwise the same for any worker count.  The same
pass writes the divergence spectra ``i eps b.E`` and ``i mu b.H`` into one
two-row buffer, which one batched inverse turns in place into the two
divergence fields, whose max norms need physical samples.
:func:`energies`, :func:`helicities`, :func:`momenta` and
:func:`divergences` are projections of that pass.

:func:`error_norms` is one pass of the same shape over the physical
samples: each block of z-planes samples the exact solution into a
block-sized scratch from the case's plane factors
(:func:`psmaxwell.analytic._plane_sampler`), takes its per-component
maxima and writes one sum of squared errors per (z-plane, component) row,
so no full-size error field is formed and the norms are bitwise the same
for any worker count.

A non-finite sample or mode raises :class:`ImaginaryResidueError` instead
of giving NaN invariants; so do finite modes whose squares overflow, and
finite errors whose ``l2`` or ``linf`` is not finite.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from . import spectral
from .analytic import AnalyticCase, _plane_sampler
from .propagator import PHYSICAL, FieldState, to_physical, to_spectral
from .spectral import (
    ImaginaryResidueError,
    _for_slabs,
    _planes_per_block,
    cross,
    dft3_inverse,
    wavenumbers,
)

__all__ = [
    "InvariantReport",
    "ErrorReport",
    "DriftValue",
    "InvariantDrifts",
    "NEAR_ZERO_ABS",
    "spectral_time_derivative",
    "energies",
    "helicities",
    "momenta",
    "divergences",
    "invariant_report",
    "error_norms",
    "relative_change",
]

# Invariants whose baseline magnitude falls below this are reported as
# absolute drifts: the relative error of a roundoff-scale quantity is noise.
NEAR_ZERO_ABS = 1e-12

def _parseval_weights(state: FieldState) -> np.ndarray:
    """Per-x-column multiplicity of the half spectrum in the full Parseval sum."""
    w = np.full(state.grid.spectral_shape[-1], 2.0)
    w[0] = w[-1] = 1.0  # kx = 0 and kx = n_x/2 are self-conjugate
    return w


def _abs_sq(f: np.ndarray) -> np.ndarray:
    """Squared magnitude of complex ``f``, elementwise."""
    return f.real * f.real + f.imag * f.imag


def spectral_time_derivative(state: FieldState) -> FieldState:
    """Time derivatives of all six components via the spectral curls.

    Computes ``dH/dt = -(1/mu) curl E`` and ``dE/dt = (1/eps) curl H`` with
    exact spectral derivatives and returns a state in the representation of
    the input.  The returned ``time`` matches the input state.
    """
    s = to_spectral(state).data.reshape((6,) + state.grid.spectral_shape)
    b = wavenumbers(state.grid)
    rates = np.empty_like(s)
    cross(b, s[3:], rates[:3])
    rates[:3] *= 1j / state.medium.eps
    cross(b, s[:3], rates[3:])
    rates[3:] *= -1j / state.medium.mu
    deriv = FieldState(state.grid, state.medium, rates.reshape(6, -1), time=state.time)
    if state.representation == PHYSICAL:
        return to_physical(deriv, overwrite=True)
    return deriv


@dataclass(frozen=True)
class InvariantReport:
    """All conserved quantities of one state; axis-indexed ones are 3-tuples."""

    time: float
    e1: float
    e2: float
    e3: tuple[float, float, float]
    e4: tuple[float, float, float]
    e5: tuple[float, float, float]
    e6: tuple[float, float, float]
    h1: float
    h2: float
    m1: tuple[float, float, float]
    m2: tuple[float, float, float]
    div_e_norm: float
    div_h_norm: float


@dataclass(frozen=True)
class ErrorReport:
    """Solution error of a state against its analytic case."""

    l2: float
    linf: float
    component_linf: tuple[float, float, float, float, float, float]


@dataclass(frozen=True)
class DriftValue:
    """Drift of one invariant; ``absolute`` marks a near-zero baseline."""

    value: float
    absolute: bool = False


@dataclass(frozen=True)
class InvariantDrifts:
    """Drift of every conserved invariant of :class:`InvariantReport`, in record order."""

    e1: DriftValue
    e2: DriftValue
    h1: DriftValue
    h2: DriftValue
    e3: tuple[DriftValue, DriftValue, DriftValue]
    e4: tuple[DriftValue, DriftValue, DriftValue]
    e5: tuple[DriftValue, DriftValue, DriftValue]
    e6: tuple[DriftValue, DriftValue, DriftValue]
    m1: tuple[DriftValue, DriftValue, DriftValue]
    m2: tuple[DriftValue, DriftValue, DriftValue]


def _report(state: FieldState) -> tuple[InvariantReport, np.ndarray]:
    """Every invariant of a state in one pass, and its two divergence fields.

    Block by block of z-planes, the per-mode closed forms of the module
    docstring are summed over each plane into one row of ``rows``, and the
    divergence spectra are written into the block's planes of ``div``.
    """
    grid = state.grid
    mu, eps = state.medium.mu, state.medium.eps
    s = to_spectral(state).data.reshape((6,) + grid.spectral_shape)
    bx, by, bz = wavenumbers(grid)
    w = _parseval_weights(state)
    # One row per z-plane; the columns are e1, e3 (3), e2, e4 (3), m1 (3),
    # h1 and mu eps h2.
    rows = np.empty((grid.n_z, 13))
    div = np.empty((2,) + grid.spectral_shape, np.complex128)

    def block(planes: slice) -> None:
        if not np.isfinite(s[:, planes]).all():
            raise ImaginaryResidueError("non-finite mode in the state's spectrum")
        # Squares of finite modes may overflow; the totals are checked below.
        # Pool threads do not inherit the caller's error state, so it is set here.
        with np.errstate(over="ignore", invalid="ignore"):
            e, h = s[:3, planes], s[3:, planes]
            b = (bx, by, bz[planes])
            b_sq = tuple(bk * bk for bk in b)
            bb = b_sq[0] + b_sq[1] + b_sq[2]
            be = b[0] * e[0] + b[1] * e[1] + b[2] * e[2]
            bh = b[0] * h[0] + b[1] * h[1] + b[2] * h[2]
            np.multiply(1j * eps, be, out=div[0, planes])
            np.multiply(1j * mu, bh, out=div[1, planes])
            e_sq, h_sq = np.sum(_abs_sq(e), axis=0), np.sum(_abs_sq(h), axis=0)
            w1 = w * (0.5 * eps * e_sq + 0.5 * mu * h_sq)
            w2 = w * (
                0.5 * (bb * h_sq - _abs_sq(bh)) / eps + 0.5 * (bb * e_sq - _abs_sq(be)) / mu
            )
            p = w * np.sum(h.imag * e.real - h.real * e.imag, axis=0)
            # b.(Fr x Fi) = Fi.(b x Fr) for each of F = E, H.
            work = np.empty(e.shape)
            rho = np.sum(cross(b, h.real, work) * h.imag, axis=0) / eps
            rho += np.sum(cross(b, e.real, work) * e.imag, axis=0) / mu
            rho *= w
            terms = chain(
                (w1,), (bk * w1 for bk in b_sq), (w2,), (bk * w2 for bk in b_sq),
                (bk * p for bk in b), (rho, bb * rho),
            )
            for column, term in enumerate(terms):
                rows[planes, column] = np.sum(term.reshape(len(term), -1), axis=1)

    _for_slabs(block, grid.n_z, s.size, _planes_per_block(grid, s.size))
    with np.errstate(over="ignore", invalid="ignore"):
        totals = np.sum(rows, axis=0) / grid.n_total ** 2
    if not np.isfinite(totals).all():
        raise ImaginaryResidueError("non-finite invariant: the state's squared modes overflow")
    totals = totals.tolist()
    div_fields = dft3_inverse(grid, div.reshape(2, -1), overwrite=True)
    m1 = tuple(totals[8:11])
    report = InvariantReport(
        time=state.time,
        e1=totals[0],
        e2=totals[4],
        e3=tuple(totals[1:4]),
        e4=tuple(totals[5:8]),
        e5=(0.0, 0.0, 0.0),
        e6=(0.0, 0.0, 0.0),
        h1=totals[11],
        h2=totals[12] / (mu * eps),
        m1=m1,
        # 0.0 - m rather than -m keeps an exactly zero momentum unsigned.
        m2=tuple(0.0 - m for m in m1),
        div_e_norm=float(np.max(np.abs(div_fields[0]))),
        div_h_norm=float(np.max(np.abs(div_fields[1]))),
    )
    return report, div_fields


def invariant_report(state: FieldState) -> InvariantReport:
    """Compute every invariant of a state in one pass over its spectrum."""
    return _report(state)[0]


def energies(state: FieldState) -> tuple[float, float, tuple, tuple, tuple, tuple]:
    """(e1, e2, e3, e4, e5, e6); axis-indexed entries are per-axis 3-tuples."""
    r = invariant_report(state)
    return r.e1, r.e2, r.e3, r.e4, r.e5, r.e6


def helicities(state: FieldState) -> tuple[float, float]:
    """(h1, h2): field and time-derivative helicity."""
    r = invariant_report(state)
    return r.h1, r.h2


def momenta(state: FieldState) -> tuple[tuple, tuple]:
    """(m1, m2) per axis: <H, D_k E> and <E, D_k H>."""
    r = invariant_report(state)
    return r.m1, r.m2


def divergences(
    state: FieldState,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Divergence fields of ``eps*E`` and ``mu*H`` plus their max norms."""
    r, (div_e, div_h) = _report(state)
    return div_e, div_h, r.div_e_norm, r.div_h_norm


def error_norms(state: FieldState, case: AnalyticCase) -> ErrorReport:
    """L2 and max-norm errors of a physical state against the exact solution.

    Block by block of z-planes, the exact solution is sampled into a
    block-sized scratch and the state subtracted there.  The block's
    per-component maxima of ``|error|`` are written to each of its planes,
    and each (z-plane, component) row gives one sum of squares, taken over
    the row's contiguous samples, so the sums do not depend on how the
    planes are cut into blocks or slabs.  ``linf`` and ``component_linf``
    are maxima over the planes, and ``l2`` comes from the sum of the rows'
    squares in (plane, component) order: the same bits on any worker count.
    """
    if state.representation != PHYSICAL:
        raise ValueError("error_norms expects a state in physical representation")
    grid = state.grid
    data = state.data.reshape((6,) + grid.shape)
    sample = _plane_sampler(case, grid, state.time)
    maxima = np.empty((grid.n_z, 6))
    squares = np.empty((grid.n_z, 6))
    block_planes = max(1, spectral._POOLED_BLOCK_MODES // (grid.n_y * grid.n_x))

    def errors_scratch(start: int, stop: int) -> tuple[np.ndarray]:
        return (np.empty(6 * block_planes * grid.n_y * grid.n_x),)

    def block(planes: slice, scratch: np.ndarray) -> None:
        count = planes.stop - planes.start
        e = scratch[: 6 * count * grid.n_y * grid.n_x].reshape((6, count) + grid.shape[1:])
        rows = e.reshape(6, count, -1)
        sample(planes, e)
        # Errors of finite samples may overflow; the norms are checked below.
        # Pool threads do not inherit the caller's error state, so it is set here.
        with np.errstate(over="ignore", invalid="ignore"):
            # |exact - data| equals |data - exact| exactly.
            np.subtract(e, data[:, planes], out=e)
            np.abs(e, out=e)
            maxima[planes] = np.max(e.reshape(6, -1), axis=1)
            np.square(e, out=e)
            squares[planes] = np.sum(rows, axis=-1).T

    _for_slabs(block, grid.n_z, data.size, block_planes, errors_scratch)
    per_row = np.max(maxima, axis=0)
    linf = float(np.max(per_row))
    l2 = float(np.sqrt(np.sum(squares) / grid.n_total))
    if not (np.isfinite(linf) and np.isfinite(l2)):
        raise ImaginaryResidueError(f"non-finite solution error: l2 {l2}, linf {linf}")
    return ErrorReport(l2=l2, linf=linf, component_linf=tuple(float(v) for v in per_row))


def relative_change(before: InvariantReport, after: InvariantReport) -> InvariantDrifts:
    """Per-invariant drift |after - before| / |before|, element-wise for per-axis ones.

    Invariants whose baseline is below ``NEAR_ZERO_ABS`` in magnitude are
    reported as absolute drifts and flagged, since dividing one roundoff
    residual by another carries no information.
    """

    def drift(b: float, a: float) -> DriftValue:
        if abs(b) < NEAR_ZERO_ABS:
            return DriftValue(abs(a - b), absolute=True)
        return DriftValue(abs(a - b) / abs(b))

    drifts = {}
    for field in fields(InvariantDrifts):
        b, a = getattr(before, field.name), getattr(after, field.name)
        drifts[field.name] = tuple(map(drift, b, a)) if isinstance(b, tuple) else drift(b, a)
    return InvariantDrifts(**drifts)
