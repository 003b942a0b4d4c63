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

so no rate spectrum or curl field is ever formed.  The
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
(:func:`psmaxwell.spectral._for_slabs`).  Each block forms the four real
fields ``w1``, ``w2``, ``p`` and ``rho``, without the Parseval weight, in
its slab's scratch (12 reals per mode of a block), and reduces each to
five moments per z-plane, ``M(g) = sum w g f`` over the
plane for ``g = 1, b_x^2, b_x, b_y^2, b_y``: the field's sums over y
contracted with ``w``, ``w b_x^2`` and ``w b_x``, and its ``w``-weighted
sums over x contracted with ``b_y^2`` and ``b_y``.  ``b_z`` is constant
on a plane, so ``M(b_z^2) = b_z^2 M(1)`` and ``M(b_z) = b_z M(1)``, and
every invariant is a sum over the planes, in plane order, of one moment
(``e3 = (M(b_x^2), M(b_y^2), M(b_z^2))`` of ``w1``, ``m1`` those of
``b_k`` of ``p``) or of three (``mu eps h2`` the ``M(b_k^2)`` of ``rho``).
A plane's moments do not depend on how the planes are cut into blocks, so
a report is bitwise the same for any worker count.  The same pass writes
the divergence spectra ``i eps b.E`` and ``i mu b.H`` into one two-row
buffer, which one batched inverse turns in place into the two divergence
fields, whose max norms need physical samples.
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
finite errors whose ``l2`` or ``linf`` is not finite.  The report checks
its totals once, after the pass: ``e1`` weighs every mode by at least 1,
so a non-finite mode always makes it non-finite, and only then is the
spectrum scanned, to tell a non-finite mode from squares that overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .analytic import AnalyticCase, _plane_sampler
from .propagator import PHYSICAL, FieldState, to_physical, to_spectral
from .spectral import (
    ImaginaryResidueError,
    _for_slabs,
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

    Block by block of z-planes, the four per-mode fields of the module
    docstring are formed in the slab's scratch and reduced to five moments
    per plane each, and the divergence spectra are written into the block's
    planes of ``div``.
    """
    grid = state.grid
    mu, eps = state.medium.mu, state.medium.eps
    # Contiguous, so that its floats have a view (a copy only for strided input).
    s = np.ascontiguousarray(to_spectral(state).data).reshape((6,) + grid.spectral_shape)
    n_z, n_y, n_xh = grid.spectral_shape
    bx, by, bz = wavenumbers(grid)
    w = _parseval_weights(state)
    # Whole planes of b_x and b_y, so that products with a block coalesce,
    # and their values for each float (real and imaginary part) of a mode.
    b_x = np.broadcast_to(bx, (n_y, n_xh)).copy()
    b_y = np.broadcast_to(by, (n_y, n_xh)).copy()
    b_xy_sq = b_x * b_x + b_y * b_y
    b_x2, b_y2 = np.repeat(b_x, 2, axis=1), np.repeat(b_y, 2, axis=1)
    # Per (E, H): the divergence's factor, and the weights of rho and w2.
    scale = np.array([eps, mu]).reshape(2, 1, 1, 1)
    inverse = 1.0 / scale[::-1]
    half_inverse = 0.5 * inverse
    # Per z-plane and field (w1, w2, p, rho), the moments M(g) = sum of
    # w g f over the plane for g = 1, bx^2, bx, by^2, by: the first three
    # from the field's sums over y, the last two from its w-weighted sums
    # over x.
    x_weights = np.stack([w, w * bx * bx, w * bx])
    y_weights = np.stack([by * by, by])[..., 0]
    moments = np.empty((n_z, 4, 5))
    div = np.empty((2,) + grid.spectral_shape, np.complex128)

    def block(planes: slice, scratch: np.ndarray) -> None:
        shape = (planes.stop - planes.start, n_y, n_xh)
        m = math.prod(shape)
        fields, temps = scratch[: 4 * m].reshape((4,) + shape), scratch[4 * m : 12 * m]
        w1, w2, p, rho = fields
        # The block's components float by float, and as real and imaginary
        # parts.  Every product is real by real: numpy rounds a complex
        # product differently in its SIMD body than in its scalar tail,
        # which would tie a mode's bits to where it falls in the block.
        floats = s[:, planes].view(np.float64)
        re, im = s[:, planes].real, s[:, planes].imag
        bz_planes = bz[planes]
        # Float by float for E and H: the sum of squares, then b.F.
        pairs, t = temps.reshape((2, 2) + shape[:-1] + (2 * n_xh,))
        np.square(floats[0::3], out=pairs)
        np.square(floats[1::3], out=t)
        pairs += t
        np.square(floats[2::3], out=t)
        pairs += t
        sq = fields[1:3]  # |E|^2 and |H|^2, in the w2 and p slots for now
        np.add(pairs[..., 0::2], pairs[..., 1::2], out=sq)
        np.multiply(floats[0::3], b_x2, out=pairs)
        np.multiply(floats[1::3], b_y2, out=t)
        pairs += t
        np.multiply(floats[2::3], bz_planes, out=t)
        pairs += t
        d = div[:, planes].view(np.float64)  # i eps b.E and i mu b.H
        np.multiply(pairs[..., 1::2], -scale, out=d[..., 0::2])
        np.multiply(pairs[..., 0::2], scale, out=d[..., 1::2])
        np.square(pairs, out=pairs)
        temps = temps.reshape((8,) + shape)
        np.add(pairs[..., 0::2], pairs[..., 1::2], out=temps[4:6])  # |b.E|^2, |b.H|^2
        np.multiply(sq[0], 0.5 * eps, out=w1)
        np.multiply(sq[1], 0.5 * mu, out=temps[6])
        w1 += temps[6]
        np.add(b_xy_sq, bz_planes * bz_planes, out=temps[6])  # |b|^2
        sq *= temps[6]
        sq -= temps[4:6]
        sq *= half_inverse
        np.add(sq[0], sq[1], out=w2)
        # p: sum_c Hi_c Er_c - Hr_c Ei_c.
        np.multiply(im[3:], re[:3], out=temps[:3])
        np.multiply(re[3:], im[:3], out=temps[3:6])
        temps[:3] -= temps[3:6]
        np.add(temps[0], temps[1], out=p)
        p += temps[2]
        # rho: b.(Hr x Hi) / eps + b.(Er x Ei) / mu.
        cross_parts, t = temps[:6].reshape((3, 2) + shape), temps[6:8]
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.multiply(re[j::3], im[k::3], out=cross_parts[i])
            np.multiply(re[k::3], im[j::3], out=t)
            cross_parts[i] -= t
        cross_parts *= inverse
        q = cross_parts[:, 0]
        q += cross_parts[:, 1]
        np.multiply(q[0], b_x, out=rho)
        np.multiply(q[1], b_y, out=q[1])
        rho += q[1]
        np.multiply(q[2], bz_planes, out=q[2])
        rho += q[2]
        # einsum rather than matmul: its sums run along x or y within a
        # plane, whatever the block's length, and it needs no BLAS.
        y_sums = np.einsum("fpyx->fpx", fields)
        x_sums = np.einsum("fpyx,x->fpy", fields, w)
        moments[planes, :, :3] = np.einsum("fpx,kx->pfk", y_sums, x_weights)
        moments[planes, :, 3:] = np.einsum("fpy,ky->pfk", x_sums, y_weights)

    # Squares of finite modes may overflow; the totals are checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        _for_slabs(block, n_z, s.size, n_y * n_xh, 12)
        # Two more moments per plane, M(bz^2) and M(bz), then each moment
        # summed over the planes in plane order.
        bz = bz.reshape(n_z, 1, 1)
        z_moments = moments[..., :1] * bz * bz, moments[..., :1] * bz
        moments = np.concatenate([moments, *z_moments], axis=2)
        sums = (np.sum(moments, axis=0) / grid.n_total ** 2).tolist()
    # Per field, M(g) for g = 1, bx^2, bx, by^2, by, bz^2, bz.  In order:
    # e1, e3 (3), e2, e4 (3), m1 (3), h1 and mu eps h2.
    energy, rate_energy, momentum, helicity = sums
    totals = [
        energy[0], *energy[1::2], rate_energy[0], *rate_energy[1::2], *momentum[2::2],
        helicity[0], sum(helicity[1::2]),
    ]
    if not all(map(math.isfinite, totals)):
        # Every weight of e1 is at least 1, so a non-finite mode shows there.
        if not np.isfinite(s).all():
            raise ImaginaryResidueError("non-finite mode in the state's spectrum")
        raise ImaginaryResidueError("non-finite invariant: the state's squared modes overflow")
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

    Block by block of z-planes, cut by :func:`psmaxwell.spectral._for_slabs`
    from the plane's ``n_y n_x`` samples as every stage's blocks are, the
    exact solution is sampled into the slab's block-sized scratch and the
    state subtracted there.  The block's
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

    def block(planes: slice, scratch: np.ndarray) -> None:
        count = planes.stop - planes.start
        e = scratch[: 6 * count * grid.n_y * grid.n_x].reshape((6, count) + grid.shape[1:])
        rows = e.reshape(6, count, -1)
        sample(planes, e)
        # |exact - data| equals |data - exact| exactly.
        np.subtract(e, data[:, planes], out=e)
        np.abs(e, out=e)
        maxima[planes] = np.max(e.reshape(6, -1), axis=1)
        np.square(e, out=e)
        squares[planes] = np.sum(rows, axis=-1).T

    # Errors of finite samples may overflow; the norms are checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        _for_slabs(block, grid.n_z, data.size, grid.n_y * grid.n_x, 6)
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
