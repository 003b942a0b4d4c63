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
the curl, with ``b`` the per-axis wavenumbers), so by Parseval it is
evaluated directly on the forward spectra of real fields,

    <u, v>_N = (1/N^2) * Re sum_m U(m) * conj(V(m)),   N = n_x n_y n_z,

with the symbols applied per mode.  The spectra are half spectra (the
``kx >= 0`` columns of :mod:`psmaxwell.spectral`); the symbols map the
spectrum of a real field to that of a real field, so the summand at ``-m``
equals the one at ``m`` and the full sum is the half sum with every x-column
counted twice, except the self-conjugate columns ``kx = 0`` and
``kx = n_x/2``, which hold both members of each pair and count once (for
``n_x = 2`` these are the only two).  A report forward-transforms the six
components once, in one batched transform, and inverse-transforms only the
two divergence fields, whose max norms need physical samples, in a second
one.  Two identities hold exactly rather than to roundoff: ``e5``/``e6`` are
0.0, because the symbol ``i b_k`` is imaginary and ``Re(i b_k |U|^2)``
vanishes mode by mode, and ``m2 = -m1``, because D_k is skew-adjoint.  A
state given in spectral representation is taken to be the spectrum of real
fields.  The spectra are row views of the state's ``(6, n_spectral)`` array,
and :func:`inner_product_N` takes two plain flat arrays of equal shape.  A
non-finite sample or mode raises :class:`ImaginaryResidueError` instead of
giving NaN invariants; so does a non-finite :func:`error_norms`.

Grid reductions rely on numpy's pairwise summation, which keeps them
deterministic for a fixed build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticCase, _plane_sampler
from .propagator import PHYSICAL, FieldState, to_physical, to_spectral
from .spectral import ImaginaryResidueError, _for_slabs, cross, dft3_inverse, wavenumbers

__all__ = [
    "InvariantReport",
    "ErrorReport",
    "DriftValue",
    "InvariantDrifts",
    "NEAR_ZERO_ABS",
    "inner_product_N",
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

_AXES = (0, 1, 2)

# Samples per component in a block of error_norms, on either path.  Each
# block evaluates the case's per-axis factors again, which small blocks pay
# for: in the blocks of the spectral stages (about 4096 modes) the standing
# wave took about 1.5x as long at 32^3 and 64^3 as in one block per slab,
# and in 16384-sample blocks 1.6x as long at 128^3 as in these.
_ERROR_BLOCK_SAMPLES = 32768


def inner_product_N(u: np.ndarray, v: np.ndarray) -> float | complex:
    """Normalized grid inner product of two flat fields; conjugates the second."""
    if u.shape != v.shape:
        raise ValueError(f"inner product requires equal shapes, got {u.shape} and {v.shape}")
    value = np.sum(u * np.conj(v)) / u.size
    if np.iscomplexobj(u) or np.iscomplexobj(v):
        return complex(value)
    return float(value.real) if np.iscomplexobj(value) else float(value)


def _spectra(state: FieldState) -> np.ndarray:
    """The six component half spectra (E then H) as a (6, n_z, n_y, n_x//2+1) view."""
    s = to_spectral(state).data
    if not np.isfinite(s).all():
        raise ImaginaryResidueError("non-finite mode in the state's spectrum")
    return s.reshape((6,) + state.grid.spectral_shape)


def _parseval_weights(state: FieldState) -> np.ndarray:
    """Per-x-column multiplicity of the half spectrum in the full Parseval sum."""
    w = np.full(state.grid.spectral_shape[-1], 2.0)
    w[0] = w[-1] = 1.0  # kx = 0 and kx = n_x/2 are self-conjugate
    return w


def _curl(b: tuple, f: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """Spectrum of ``scale * curl F``: ``scale * i b x F`` for a stacked triple ``f``."""
    cross(b, f, out)
    out *= 1j * scale
    return out


def _rates(state: FieldState, s: np.ndarray) -> np.ndarray:
    """Spectra of dE/dt = (1/eps) curl H and dH/dt = -(1/mu) curl E."""
    b = wavenumbers(state.grid)
    medium = state.medium
    d = np.empty_like(s)
    _curl(b, s[3:], 1.0 / medium.eps, d[:3])
    _curl(b, s[:3], -1.0 / medium.mu, d[3:])
    return d


def _dot(state: FieldState, u: np.ndarray, v: np.ndarray) -> float:
    """``Re sum U * conj(V)`` over the full spectrum and all components (unnormalized)."""
    w = _parseval_weights(state)
    return sum(float(np.sum(w * (a.real * c.real + a.imag * c.imag))) for a, c in zip(u, v))


def spectral_time_derivative(state: FieldState) -> FieldState:
    """Time derivatives of all six components via the spectral curls.

    Computes ``dH/dt = -(1/mu) curl E`` and ``dE/dt = (1/eps) curl H`` with
    exact spectral derivatives and returns a state in the representation of
    the input.  The returned ``time`` matches the input state.
    """
    rates = _rates(state, _spectra(state)).reshape(6, -1)
    deriv = FieldState(state.grid, state.medium, rates, time=state.time)
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
    e1: DriftValue
    e2: DriftValue
    e3: tuple[DriftValue, DriftValue, DriftValue]
    e4: tuple[DriftValue, DriftValue, DriftValue]
    e5: tuple[DriftValue, DriftValue, DriftValue]
    e6: tuple[DriftValue, DriftValue, DriftValue]
    h1: DriftValue
    h2: DriftValue
    m1: tuple[DriftValue, DriftValue, DriftValue]
    m2: tuple[DriftValue, DriftValue, DriftValue]


def _energy(state: FieldState, s: np.ndarray) -> tuple[float, tuple]:
    """The energy of ``s`` and the energies of its axis-k derivatives."""
    norm = state.grid.n_total ** 2
    mu, eps = state.medium.mu, state.medium.eps
    sq = [c.real * c.real + c.imag * c.imag for c in s]
    # Per-mode energy density; the D_k symbol i b_k weights it by b_k^2.
    w = 0.5 * eps * (sq[0] + sq[1] + sq[2]) + 0.5 * mu * (sq[3] + sq[4] + sq[5])
    w *= _parseval_weights(state)
    per_axis = tuple(float(np.sum(bk * bk * w)) / norm for bk in wavenumbers(state.grid))
    return float(np.sum(w)) / norm, per_axis


def _energies(state: FieldState, s: np.ndarray, d: np.ndarray) -> tuple:
    e1, e3 = _energy(state, s)
    e2, e4 = _energy(state, d)
    # e5/e6 are exactly zero for real fields (module docstring).
    return e1, e2, e3, e4, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)


def energies(state: FieldState) -> tuple[float, float, tuple, tuple, tuple, tuple]:
    """(e1, e2, e3, e4, e5, e6); axis-indexed entries are per-axis 3-tuples."""
    s = _spectra(state)
    return _energies(state, s, _rates(state, s))


def _helicity(state: FieldState, s: np.ndarray) -> float:
    """<H, curl H>/(2 eps) + <E, curl E>/(2 mu) of the spectra ``s``."""
    b = wavenumbers(state.grid)
    mu, eps = state.medium.mu, state.medium.eps
    e, h = s[:3], s[3:]
    curl = np.empty_like(e)
    total = (
        _dot(state, h, _curl(b, h, 0.5 / eps, curl))
        + _dot(state, e, _curl(b, e, 0.5 / mu, curl))
    )
    return total / state.grid.n_total ** 2


def helicities(state: FieldState) -> tuple[float, float]:
    """(h1, h2): field and time-derivative helicity."""
    s = _spectra(state)
    return _helicity(state, s), _helicity(state, _rates(state, s))


def _momenta(state: FieldState, s: np.ndarray) -> tuple[tuple, tuple]:
    norm = state.grid.n_total ** 2
    # <H, D_k E> = Re sum H conj(i b_k E) = sum b_k Im(H conj E).
    p = sum(h.imag * e.real - h.real * e.imag for e, h in zip(s[:3], s[3:]))
    p *= _parseval_weights(state)
    m1 = tuple(float(np.sum(bk * p)) / norm for bk in wavenumbers(state.grid))
    # 0.0 - m rather than -m keeps an exactly zero momentum unsigned.
    return m1, tuple(0.0 - m for m in m1)


def momenta(state: FieldState) -> tuple[tuple, tuple]:
    """(m1, m2) per axis: <H, D_k E> and <E, D_k H>."""
    return _momenta(state, _spectra(state))


def _divergences(state: FieldState, s: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    grid = state.grid
    mu, eps = state.medium.mu, state.medium.eps
    bx, by, bz = wavenumbers(grid)
    ex, ey, ez, hx, hy, hz = s
    spectra = np.stack(
        (1j * eps * (bx * ex + by * ey + bz * ez), 1j * mu * (bx * hx + by * hy + bz * hz))
    )
    # The divergence spectra of real fields are Hermitian in the kx = 0 and
    # kx = n_x/2 planes up to roundoff, which the real inverse drops.  They
    # skip the Hermitian-plane check: a divergence-free field is legitimately
    # zero and must not trip the flag for its own roundoff.
    div_e, div_h = dft3_inverse(grid, spectra.reshape(2, -1), overwrite=True)
    return div_e, div_h, float(np.max(np.abs(div_e))), float(np.max(np.abs(div_h)))


def divergences(
    state: FieldState,
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Divergence fields of ``eps*E`` and ``mu*H`` plus their max norms."""
    return _divergences(state, _spectra(state))


def invariant_report(state: FieldState) -> InvariantReport:
    """Compute every invariant of a state from one set of spectra."""
    s = _spectra(state)
    d = _rates(state, s)
    e1, e2, e3, e4, e5, e6 = _energies(state, s, d)
    m1, m2 = _momenta(state, s)
    _, _, div_e_norm, div_h_norm = _divergences(state, s)
    return InvariantReport(
        time=state.time,
        e1=e1,
        e2=e2,
        e3=e3,
        e4=e4,
        e5=e5,
        e6=e6,
        h1=_helicity(state, s),
        h2=_helicity(state, d),
        m1=m1,
        m2=m2,
        div_e_norm=div_e_norm,
        div_h_norm=div_h_norm,
    )


def error_norms(state: FieldState, case: AnalyticCase) -> ErrorReport:
    """L2 and max-norm errors of a physical state against the exact solution.

    Block by block of z-planes, the exact solution is written into its slab
    of one full-size buffer and turned there into the squared error, after
    the block's per-component maxima are taken; the L2 norm is one sum over
    the whole buffer.
    """
    if state.representation != PHYSICAL:
        raise ValueError("error_norms expects a state in physical representation")
    grid = state.grid
    errors = np.empty((6, grid.n_total))
    cube = errors.reshape((6,) + grid.shape)
    data = state.data.reshape((6,) + grid.shape)
    sample = _plane_sampler(case, grid, state.time, cube)
    maxima = np.zeros((6, grid.n_z))

    def block(planes: slice) -> None:
        sample(planes)
        e = cube[:, planes]
        # |exact - data| equals |data - exact| exactly.
        np.subtract(e, data[:, planes], out=e)
        np.abs(e, out=e)
        maxima[:, planes] = np.max(e, axis=(1, 2, 3))[:, None]
        np.square(e, out=e)

    planes = max(1, _ERROR_BLOCK_SAMPLES // (grid.n_y * grid.n_x))
    _for_slabs(block, grid.n_z, errors.size, planes)
    per_row = np.max(maxima, axis=1)
    linf = float(np.max(per_row))
    if not np.isfinite(linf):
        raise ImaginaryResidueError(f"non-finite solution error {linf}")
    l2 = float(np.sqrt(np.sum(errors) / grid.n_total))
    return ErrorReport(l2=l2, linf=linf, component_linf=tuple(float(v) for v in per_row))


def _drift(before: float, after: float, near_zero: float) -> DriftValue:
    delta = abs(after - before)
    if abs(before) < near_zero:
        return DriftValue(delta, absolute=True)
    return DriftValue(delta / abs(before), absolute=False)


def relative_change(
    before: InvariantReport,
    after: InvariantReport,
    near_zero: float = NEAR_ZERO_ABS,
) -> InvariantDrifts:
    """Per-invariant drift |after - before| / |before|.

    Invariants whose baseline is below ``near_zero`` in magnitude are
    reported as absolute drifts and flagged, since dividing one roundoff
    residual by another carries no information.
    """

    def scalar(name: str) -> DriftValue:
        return _drift(getattr(before, name), getattr(after, name), near_zero)

    def triple(name: str) -> tuple[DriftValue, DriftValue, DriftValue]:
        b, a = getattr(before, name), getattr(after, name)
        return tuple(_drift(b[k], a[k], near_zero) for k in _AXES)

    return InvariantDrifts(
        e1=scalar("e1"),
        e2=scalar("e2"),
        e3=triple("e3"),
        e4=triple("e4"),
        e5=triple("e5"),
        e6=triple("e6"),
        h1=scalar("h1"),
        h2=scalar("h2"),
        m1=triple("m1"),
        m2=triple("m2"),
    )
