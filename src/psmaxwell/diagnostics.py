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

with the symbols applied per mode.  A report transforms the state once
(six forward FFTs) and inverse-transforms only the two divergence fields,
whose max norms need physical samples: 8 FFTs in all.  Two identities hold
exactly rather than to roundoff: ``e5``/``e6`` are 0.0, because the symbol
``i b_k`` is imaginary and ``Re(i b_k |U|^2)`` vanishes mode by mode, and
``m2 = -m1``, because D_k is skew-adjoint.  A state given in spectral
representation is taken to be the spectrum of real fields.

Grid reductions rely on numpy's pairwise summation, which keeps them
deterministic for a fixed build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticCase
from .grid import GridSpec
from .propagator import PHYSICAL, FieldState, to_physical, to_spectral
from .spectral import PhysicalField, SpectralField, dft3_inverse

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

_Spectra = tuple[np.ndarray, ...]


def inner_product_N(u: PhysicalField, v: PhysicalField) -> float | complex:
    """Normalized grid inner product; conjugates the second argument."""
    if u.grid != v.grid:
        raise ValueError("inner product requires fields on the same grid")
    value = np.sum(u.data * np.conj(v.data)) / u.grid.n_total
    if np.iscomplexobj(u.data) or np.iscomplexobj(v.data):
        return complex(value)
    return float(value.real) if np.iscomplexobj(value) else float(value)


def _norm_sq(values: np.ndarray, grid: GridSpec) -> float:
    return float(np.sum(np.abs(values) ** 2)) / grid.n_total


def _wavenumbers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis wavenumbers shaped to broadcast over the (n_z, n_y, n_x) modes."""
    return grid.kvec_x, grid.kvec_y[:, None], grid.kvec_z[:, None, None]


def _spectra(state: FieldState) -> _Spectra:
    """The six component spectra (E then H) as (n_z, n_y, n_x) mode cubes."""
    shape = state.grid.shape
    return tuple(c.reshape(shape) for c in to_spectral(state).component_arrays())


def _curl(b: tuple, f: _Spectra, scale: float) -> _Spectra:
    """Spectrum of ``scale * curl F``: ``scale * i b x F`` for a triple ``f``."""
    bx, by, bz = b
    fx, fy, fz = f
    out = (by * fz - bz * fy, bz * fx - bx * fz, bx * fy - by * fx)
    for c in out:
        c *= 1j * scale
    return out


def _rates(state: FieldState, s: _Spectra) -> _Spectra:
    """Spectra of dE/dt = (1/eps) curl H and dH/dt = -(1/mu) curl E."""
    b = _wavenumbers(state.grid)
    medium = state.medium
    return _curl(b, s[3:], 1.0 / medium.eps) + _curl(b, s[:3], -1.0 / medium.mu)


def _dot(u: _Spectra, v: _Spectra) -> float:
    """``Re sum U * conj(V)`` over all modes and components (unnormalized)."""
    return sum(float(np.sum(a.real * c.real + a.imag * c.imag)) for a, c in zip(u, v))


def spectral_time_derivative(state: FieldState) -> FieldState:
    """Time derivatives of all six components via the spectral curls.

    Computes ``dH/dt = -(1/mu) curl E`` and ``dE/dt = (1/eps) curl H`` with
    exact spectral derivatives and returns a state in the representation of
    the input.  The returned ``time`` matches the input state.
    """
    grid = state.grid
    rates = [SpectralField(grid, c.ravel()) for c in _rates(state, _spectra(state))]
    deriv = FieldState(
        grid=grid,
        medium=state.medium,
        e=tuple(rates[:3]),
        h=tuple(rates[3:]),
        time=state.time,
    )
    if state.representation == PHYSICAL:
        return to_physical(deriv)
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


def _energy(state: FieldState, s: _Spectra) -> tuple[float, tuple]:
    """The energy of ``s`` and the energies of its axis-k derivatives."""
    norm = state.grid.n_total ** 2
    mu, eps = state.medium.mu, state.medium.eps
    sq = [c.real * c.real + c.imag * c.imag for c in s]
    # Per-mode energy density; the D_k symbol i b_k weights it by b_k^2.
    w = 0.5 * eps * (sq[0] + sq[1] + sq[2]) + 0.5 * mu * (sq[3] + sq[4] + sq[5])
    per_axis = tuple(float(np.sum(bk * bk * w)) / norm for bk in _wavenumbers(state.grid))
    return float(np.sum(w)) / norm, per_axis


def _energies(state: FieldState, s: _Spectra, d: _Spectra) -> tuple:
    e1, e3 = _energy(state, s)
    e2, e4 = _energy(state, d)
    # e5/e6 are exactly zero for real fields (module docstring).
    return e1, e2, e3, e4, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)


def energies(state: FieldState) -> tuple[float, float, tuple, tuple, tuple, tuple]:
    """(e1, e2, e3, e4, e5, e6); axis-indexed entries are per-axis 3-tuples."""
    s = _spectra(state)
    return _energies(state, s, _rates(state, s))


def _helicity(state: FieldState, s: _Spectra) -> float:
    """<H, curl H>/(2 eps) + <E, curl E>/(2 mu) of the spectra ``s``."""
    b = _wavenumbers(state.grid)
    mu, eps = state.medium.mu, state.medium.eps
    e, h = s[:3], s[3:]
    total = _dot(h, _curl(b, h, 0.5 / eps)) + _dot(e, _curl(b, e, 0.5 / mu))
    return total / state.grid.n_total ** 2


def helicities(state: FieldState) -> tuple[float, float]:
    """(h1, h2): field and time-derivative helicity."""
    s = _spectra(state)
    return _helicity(state, s), _helicity(state, _rates(state, s))


def _momenta(state: FieldState, s: _Spectra) -> tuple[tuple, tuple]:
    norm = state.grid.n_total ** 2
    # <H, D_k E> = Re sum H conj(i b_k E) = sum b_k Im(H conj E).
    p = sum(h.imag * e.real - h.real * e.imag for e, h in zip(s[:3], s[3:]))
    m1 = tuple(float(np.sum(bk * p)) / norm for bk in _wavenumbers(state.grid))
    # 0.0 - m rather than -m keeps an exactly zero momentum unsigned.
    return m1, tuple(0.0 - m for m in m1)


def momenta(state: FieldState) -> tuple[tuple, tuple]:
    """(m1, m2) per axis: <H, D_k E> and <E, D_k H>."""
    return _momenta(state, _spectra(state))


def _divergences(state: FieldState, s: _Spectra) -> tuple[np.ndarray, np.ndarray, float, float]:
    grid = state.grid
    mu, eps = state.medium.mu, state.medium.eps
    bx, by, bz = _wavenumbers(grid)
    ex, ey, ez, hx, hy, hz = s
    # The divergence spectra of real fields are conjugate-symmetric, so the
    # imaginary part after inversion is pure roundoff.  It is dropped without
    # the residue check: a divergence-free field is legitimately zero and
    # must not trip the flag for its own roundoff.
    div_e, div_h = (
        np.ascontiguousarray(dft3_inverse(SpectralField(grid, d.ravel())).data.real)
        for d in (
            1j * eps * (bx * ex + by * ey + bz * ez),
            1j * mu * (bx * hx + by * hy + bz * hz),
        )
    )
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
    """L2 and max-norm errors of a physical state against the exact solution."""
    if state.representation != PHYSICAL:
        raise ValueError("error_norms expects a state in physical representation")
    grid = state.grid
    z, y, x = np.meshgrid(grid.points_z, grid.points_y, grid.points_x, indexing="ij")
    exact = [c.ravel() for c in case.evaluate(x, y, z, state.time)]
    comps = state.component_arrays()
    diffs = [comps[c] - exact[c] for c in range(6)]
    l2 = float(np.sqrt(sum(_norm_sq(d, grid) for d in diffs)))
    component_linf = tuple(float(np.max(np.abs(d))) for d in diffs)
    return ErrorReport(l2=l2, linf=max(component_linf), component_linf=component_linf)


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
