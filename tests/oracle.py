"""Slow dense reference implementations for the test suite.

Everything here is written directly from the defining formulas (naive DFT
sums, explicit cotangent differentiation matrices, Kronecker-assembled curl
blocks, Taylor-series matrix exponential) and shares no code with the fast
paths beyond the grid conventions.  Size guards reject anything bigger than
desk-test scale so these O(n^2)-O(n^3) routines cannot leak into production
use or benchmarks.  The normalized grid inner product ``inner_product_N``
defines the physical-space invariants the package's spectral sums are
checked against; only tests use it.

The flow-coefficient helpers at the end are the exception on purpose: they
take a :class:`psmaxwell.PropagatorCoefficients` and read the package's own
factors ``rho = -kappa^2 r1`` and ``t r2`` from its table, gathered onto the
half spectrum or mirrored to the full mode layout, so the per-mode blocks
checked against the series exponential are built from the package's
numbers rather than from an independent evaluation.  Beside them,
``direct_flow_factors`` evaluates the same factors by the closed form on
every mode, as the package did before its table, and is the reference the
table is checked against.

The sample formulas and the error norms near the end are the package's
earlier whole-array forms, kept as the references its factored, blocked
forms are checked against: the standing wave's component products, the
traveling wave's single-cosine ``e_x`` with its long-double counterpart,
and ``l2``/``linf`` from one buffer of squared errors.
"""

from __future__ import annotations

import numpy as np

from psmaxwell.grid import GridSpec
from psmaxwell.propagator import _flow_tables, to_spectral
from psmaxwell.spectral import cross, wavenumbers

__all__ = [
    "broadcast_wavenumbers",
    "direct_flow_factors",
    "table_flow_factors",
    "full_flow_factors",
    "flow_blocks",
    "dense_diff_matrix",
    "dense_diff_operator",
    "dense_curl",
    "dense_dft_matrix",
    "dense_expm",
    "naive_dft3",
    "inner_product_N",
    "standing_wave_samples",
    "traveling_wave_e_x",
    "traveling_wave_e_x_longdouble",
    "whole_array_error_norms",
    "column_sum_report",
]

_MAX_DIFF_N = 16
_MAX_CURL_N = 8
_MAX_DFT_N = 8
_MAX_EXPM_DIM = 600


def dense_diff_matrix(grid: GridSpec, axis: int) -> np.ndarray:
    """Dense cotangent differentiation matrix for one axis.

    Entries ``0.5 * nu * (-1)**(j+l) / tan(nu*(w_j - w_l)/2)`` off the
    diagonal, zero diagonal.  Antisymmetric by construction.
    """
    n = grid.counts()[axis]
    if n > _MAX_DIFF_N:
        raise ValueError(f"dense_diff_matrix is test-only; n={n} exceeds {_MAX_DIFF_N}")
    nu = (grid.nu_x, grid.nu_y, grid.nu_z)[axis]
    points = (grid.points_x, grid.points_y, grid.points_z)[axis]
    d = np.zeros((n, n))
    for j in range(n):
        for l in range(n):
            if j == l:
                continue
            d[j, l] = 0.5 * nu * (-1.0) ** (j + l) / np.tan(nu * (points[j] - points[l]) / 2.0)
    return d


def _axis_kron(grid: GridSpec, axis: int) -> np.ndarray:
    """Kronecker placement of the 1D matrix into the flat 3D layout."""
    dx = dense_diff_matrix(grid, axis)
    ix = np.eye(grid.n_x)
    iy = np.eye(grid.n_y)
    iz = np.eye(grid.n_z)
    if axis == 0:
        return np.kron(iz, np.kron(iy, dx))
    if axis == 1:
        return np.kron(iz, np.kron(dx, ix))
    return np.kron(dx, np.kron(iy, ix))


def dense_diff_operator(grid: GridSpec, axis: int) -> np.ndarray:
    """Dense n_total x n_total derivative along ``axis`` on flat fields."""
    if max(grid.counts()) > _MAX_CURL_N:
        raise ValueError("dense_diff_operator is test-only; grid too large")
    return _axis_kron(grid, axis)


def dense_curl(grid: GridSpec) -> np.ndarray:
    """Dense 3*n_total square curl matrix acting on stacked (Fx, Fy, Fz).

    Symmetric as a whole (antisymmetric blocks of antisymmetric matrices).
    """
    if max(grid.counts()) > _MAX_CURL_N:
        raise ValueError("dense_curl is test-only; grid too large")
    d1 = _axis_kron(grid, 0)
    d2 = _axis_kron(grid, 1)
    d3 = _axis_kron(grid, 2)
    z = np.zeros_like(d1)
    return np.block([
        [z, -d3, d2],
        [d3, z, -d1],
        [-d2, d1, z],
    ])


def dense_expm(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential of ``t*a`` by scaling-and-squaring Taylor series.

    Terms are accumulated until the next term's norm drops below 1e-18 times
    the partial sum's norm; a hard cap guards against non-convergence.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError("dense_expm expects a square matrix")
    if n > _MAX_EXPM_DIM:
        raise ValueError(f"dense_expm is test-only; dim={n} exceeds {_MAX_EXPM_DIM}")
    m = t * a
    norm = np.linalg.norm(m, np.inf)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    m = m / (2.0 ** squarings)

    result = np.eye(n, dtype=m.dtype)
    term = np.eye(n, dtype=m.dtype)
    for k in range(1, 200):
        term = term @ m / k
        result = result + term
        if np.linalg.norm(term, np.inf) < 1e-18 * np.linalg.norm(result, np.inf):
            break
    else:
        raise RuntimeError("dense_expm series failed to converge")
    for _ in range(squarings):
        result = result @ result
    return result


def dense_dft_matrix(grid: GridSpec) -> np.ndarray:
    """Full n_total x n_total forward DFT matrix over the flat layout."""
    nx, ny, nz = grid.counts()
    if max(nx, ny, nz) > _MAX_DFT_N:
        raise ValueError("dense_dft_matrix is test-only; grid too large")
    flat = np.arange(grid.n_total)
    jx = flat % nx
    ky = (flat // nx) % ny
    lz = flat // (nx * ny)
    # W[m, p] = exp(-2*pi*i*(mx*jx/nx + my*ky/ny + mz*lz/nz))
    phase = (
        np.outer(jx, jx) / nx + np.outer(ky, ky) / ny + np.outer(lz, lz) / nz
    )
    return np.exp(-2.0j * np.pi * phase)


def naive_dft3(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    """Direct O(n_total^2) evaluation of the forward DFT sum: the full spectrum.

    Returns all ``n_total`` modes in the flat layout; the half spectrum of
    :func:`psmaxwell.spectral.dft3_forward` is its first ``n_x//2 + 1``
    x-columns.
    """
    return dense_dft_matrix(grid) @ f


def inner_product_N(u: np.ndarray, v: np.ndarray) -> float | complex:
    """Normalized grid inner product of two flat fields; conjugates the second."""
    if u.shape != v.shape:
        raise ValueError(f"inner product requires equal shapes, got {u.shape} and {v.shape}")
    value = np.sum(u * np.conj(v)) / u.size
    if np.iscomplexobj(u) or np.iscomplexobj(v):
        return complex(value)
    return float(value.real) if np.iscomplexobj(value) else float(value)


def broadcast_wavenumbers(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis wavenumber ladders broadcast to the full flat mode layout.

    ``b_x[flat(j,k,l)] = kvec_x[j]`` and likewise for y, z, over all
    ``n_total`` modes.
    """
    ladders = (grid.kvec_x, grid.kvec_y[:, None], grid.kvec_z[:, None, None])
    return tuple(np.broadcast_to(b, grid.shape).ravel() for b in ladders)


def direct_flow_factors(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """``rho = -kappa^2 r1`` (complex) and ``t r2`` by the closed form on every half-spectrum mode.

    ``theta`` is formed from each mode's own wavenumbers, ``r1`` and ``r2``
    as in :class:`psmaxwell.PropagatorCoefficients`, and both are scaled
    and cast as ``step`` applies them: flat arrays of ``n_spectral``.
    """
    kappa = coeffs.kappa
    bx, by, bz = wavenumbers(coeffs.grid)
    theta = np.sqrt(kappa * kappa * (bx * bx + by * by + bz * bz))
    r1 = -0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2
    rho = ((-kappa * kappa) * r1).astype(np.complex128)
    return rho.ravel(), (coeffs.t * np.sinc(theta / np.pi)).ravel()


def table_flow_factors(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """The package's ``rho``, ``t r2``, gathered from its tables onto every half-spectrum mode."""
    key_xy, key_z, rho, sine = _flow_tables(coeffs)
    index = (key_xy + key_z).ravel()
    return rho[index], sine[index]


def full_flow_factors(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """The package's ``rho``, ``t r2`` mirrored to all ``n_total`` modes.

    They are :func:`table_flow_factors`.  Both depend on ``b_x`` only
    through ``b_x^2``, so full column ``n_x - j`` repeats half-spectrum
    column ``j``.
    """
    grid = coeffs.grid
    mirror = slice(grid.n_x // 2 - 1, 0, -1)
    halves = (h.reshape(grid.spectral_shape) for h in table_flow_factors(coeffs))
    return tuple(np.concatenate([h, h[..., mirror]], axis=-1).ravel() for h in halves)


def flow_blocks(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode cosine and sine blocks over the full flat mode layout.

    Returns ``C = I - kappa^2 r1 [b]x^2`` and ``S = i kappa r2 [b]x``, each
    of shape ``(n_total, 3, 3)``, built from :func:`full_flow_factors`:
    ``C = I + rho [b]x^2`` and ``kappa r2 = t r2 / sqrt(mu eps)``.
    """
    b = broadcast_wavenumbers(coeffs.grid)
    b_cross = np.zeros((coeffs.grid.n_total, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        b_cross[:, i, j] = -b[k]
        b_cross[:, j, i] = b[k]
    rho, sine = full_flow_factors(coeffs)
    kappa_r2 = sine / np.sqrt(coeffs.medium.mu * coeffs.medium.eps)
    cos = np.eye(3) + rho.real[:, None, None] * (b_cross @ b_cross)
    sin = 1j * kappa_r2[:, None, None] * b_cross
    return cos, sin


def standing_wave_samples(case, x, y, z, t: float) -> np.ndarray:
    """The six components of a :class:`psmaxwell.StandingWave`, product by product.

    Each component is the product of its amplitude and three axis factors,
    multiplied left to right with the z factor last; the result has the
    broadcast shape of the coordinates after its leading 6.
    """
    kx, ky, kz = case.k_x, case.k_y, case.k_z
    eps, mu = case.medium.eps, case.medium.mu
    omega = case.omega
    pre = 1.0 / (eps * np.sqrt(mu) * omega)
    cos_t, sin_t = np.cos(omega * np.pi * t), np.sin(omega * np.pi * t)
    cx, sx = np.cos(kx * np.pi * x), np.sin(kx * np.pi * x)
    cy, sy = np.cos(ky * np.pi * y), np.sin(ky * np.pi * y)
    cz, sz = np.cos(kz * np.pi * z), np.sin(kz * np.pi * z)
    return np.stack(np.broadcast_arrays(
        (ky - kz) * pre * cos_t * cx * sy * sz,
        (kz - kx) * pre * cos_t * sx * cy * sz,
        (kx - ky) * pre * cos_t * sx * sy * cz,
        sin_t * sx * cy * cz,
        sin_t * cx * sy * cz,
        sin_t * cx * cy * sz,
    ))


def traveling_wave_e_x(x, y, z, t: float) -> np.ndarray:
    """``e_x`` of :class:`psmaxwell.TravelingWave` as one cosine of the float64 phase."""
    return np.cos((x + y + z) * 2.0 * np.pi - 2.0 * np.sqrt(3.0) * np.pi * t)


def traveling_wave_e_x_longdouble(x, y, z, t: float) -> np.ndarray:
    """``e_x`` of :class:`psmaxwell.TravelingWave` with the phase and cosine in long double.

    The coordinates and ``t`` are the float64 values given; pi and sqrt(3)
    are taken in long double.
    """
    ld = np.longdouble
    pi, sqrt3 = 4 * np.arctan(ld(1)), np.sqrt(ld(3))
    return np.cos(2 * pi * (np.asarray(x, ld) + y + z) - 2 * sqrt3 * pi * ld(t))


def whole_array_error_norms(exact: np.ndarray, data: np.ndarray) -> tuple[float, float, tuple]:
    """(l2, linf, component_linf) of ``data`` against ``exact`` by whole-array operations.

    Both are ``(6, n_total)`` samples; ``l2`` is one sum over the buffer of
    squared errors.
    """
    errors = np.abs(exact - data)
    per_row = np.max(errors, axis=1)
    l2 = float(np.sqrt(np.sum(np.square(errors)) / errors.shape[1]))
    return l2, float(np.max(per_row)), tuple(float(v) for v in per_row)


def column_sum_report(state) -> tuple[dict, dict]:
    """Every invariant of a state from full-size per-mode column terms.

    The package's earlier report body, kept as the reference its moment
    sums are checked against.  Over the whole half spectrum at once it forms
    the per-mode forms ``w1``, ``w2``, ``p`` and ``rho`` (Parseval weight
    included), multiplies out the 13 column terms (e1, e3 per axis, e2, e4
    per axis, m1 per axis, h1 and ``mu eps h2``), sums each over every
    z-plane's modes and then over the planes in order.  The divergence
    norms come from ``numpy.fft.irfftn`` of ``i eps b.E`` and ``i mu b.H``.

    Returns the invariants by their :class:`psmaxwell.InvariantReport`
    names, and for each the same sums taken over the magnitudes of the
    terms: the scale any summation order's roundoff is relative to.  For
    e1-e4 it is the invariant itself; h1, h2 and m1 are sums of terms of
    either sign, which may cancel to far below it.
    """
    grid = state.grid
    mu, eps = state.medium.mu, state.medium.eps
    s = to_spectral(state).data.reshape((6,) + grid.spectral_shape)
    w = np.full(grid.spectral_shape[-1], 2.0)
    w[0] = w[-1] = 1.0  # kx = 0 and kx = n_x/2 are self-conjugate

    def abs_sq(f):
        return f.real * f.real + f.imag * f.imag

    e, h = s[:3], s[3:]
    b = wavenumbers(grid)
    b_sq = tuple(bk * bk for bk in b)
    bb = b_sq[0] + b_sq[1] + b_sq[2]
    be = b[0] * e[0] + b[1] * e[1] + b[2] * e[2]
    bh = b[0] * h[0] + b[1] * h[1] + b[2] * h[2]
    div = np.stack([1j * eps * be, 1j * mu * bh])
    e_sq, h_sq = np.sum(abs_sq(e), axis=0), np.sum(abs_sq(h), axis=0)
    w1 = w * (0.5 * eps * e_sq + 0.5 * mu * h_sq)
    w2 = w * (0.5 * (bb * h_sq - abs_sq(bh)) / eps + 0.5 * (bb * e_sq - abs_sq(be)) / mu)
    p = w * np.sum(h.imag * e.real - h.real * e.imag, axis=0)
    # b.(Fr x Fi) = Fi.(b x Fr) for each of F = E, H.
    work = np.empty(e.shape)
    rho = np.sum(cross(b, h.real, work) * h.imag, axis=0) / eps
    rho += np.sum(cross(b, e.real, work) * e.imag, axis=0) / mu
    rho *= w
    terms = [w1, *(bk * w1 for bk in b_sq), w2, *(bk * w2 for bk in b_sq)]
    terms += [*(bk * p for bk in b), rho, bb * rho]

    def invariants(terms) -> dict:
        rows = np.stack([np.sum(term.reshape(grid.n_z, -1), axis=1) for term in terms], axis=1)
        totals = (np.sum(rows, axis=0) / grid.n_total ** 2).tolist()
        return dict(
            e1=totals[0],
            e2=totals[4],
            e3=tuple(totals[1:4]),
            e4=tuple(totals[5:8]),
            h1=totals[11],
            h2=totals[12] / (mu * eps),
            m1=tuple(totals[8:11]),
        )

    div_fields = np.fft.irfftn(div, s=grid.shape, axes=(-3, -2, -1))
    reference = invariants(terms)
    reference["div_e_norm"] = float(np.max(np.abs(div_fields[0])))
    reference["div_h_norm"] = float(np.max(np.abs(div_fields[1])))
    return reference, invariants([np.abs(term) for term in terms])
