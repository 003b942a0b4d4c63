"""Closed-form reference solutions used as initial data and error baselines.

Two families are provided: a standing wave on a cube of side 2 driven by an
integer wavevector, and a fixed traveling plane wave on the unit cube.  Both
are trigonometric, hence band-limited: once the grid resolves their modes the
sampled fields are exact and the solver reproduces them to roundoff.

Every value of a case comes from one path, :meth:`plane_factors`: each
component is a product of (x, y) plane factors, computed once per call,
and z factors, so sampling a grid takes trigonometry on ``n_y n_x + n_z``
values and one product per point and component, slab of z-planes by slab.
:meth:`evaluate`, :func:`sample_exact`, :func:`sample_initial` and the
block-by-block sampling of :func:`psmaxwell.diagnostics.error_norms` all
go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import DomainSpec, GridSpec
from .propagator import FieldState, MediumParams
from .spectral import _for_slabs

__all__ = [
    "StandingWave",
    "TravelingWave",
    "AnalyticCase",
    "sample_exact",
    "sample_initial",
]


class _Case:
    """Evaluation of a case through its :meth:`plane_factors`."""

    def evaluate(self, x, y, z, t: float, out=None):
        """Six exact component values (e_x, e_y, e_z, h_x, h_y, h_z).

        They are the rows of one array over the broadcast shape of the
        coordinates: ``out`` when given, else a new one.
        """
        if out is None:
            out = np.empty((6,) + np.broadcast(x, y, z).shape)
        self.plane_factors(x, y, t)(z, out)
        return out


@dataclass(frozen=True)
class StandingWave(_Case):
    """Standing-wave solution family on ``[0, 2]^3`` (or compatible domains).

    Spatial factors use frequencies ``k_w * pi`` and the temporal frequency is
    ``omega * pi`` with ``omega = sqrt((k_x^2 + k_y^2 + k_z^2) / (eps * mu))``.
    The component amplitudes satisfy the curl equations only when the
    wavevector components sum to zero and ``mu == 1`` (any ``eps > 0`` works),
    so the constructor enforces both, as well as a finite ``omega``; the
    defaults are ``k = (1, 2, -3)`` with ``eps = mu = 1``.
    """

    k_x: int = 1
    k_y: int = 2
    k_z: int = -3
    medium: MediumParams = field(default_factory=MediumParams)

    def __post_init__(self) -> None:
        k = (self.k_x, self.k_y, self.k_z)
        try:
            integral = all(int(v) == v for v in k)
        except (OverflowError, ValueError):  # int() of an infinity or a NaN
            integral = False
        if not integral:
            raise ValueError(f"wavevector components must be finite integers, got {k}")
        if k == (0, 0, 0):
            raise ValueError("wavevector must be nonzero")
        if self.k_x + self.k_y + self.k_z != 0:
            raise ValueError(
                "standing-wave components must sum to zero to solve the curl "
                f"equations, got {k}"
            )
        if self.medium.mu != 1.0:
            raise ValueError(
                "the standing-wave amplitudes assume mu == 1; "
                f"got mu = {self.medium.mu}"
            )
        try:
            in_range = math.isfinite(self.omega)
        except OverflowError:
            in_range = False
        if not in_range:
            raise ValueError(
                "wavevector is out of the float range: "
                "omega = sqrt(|k|^2 / (eps * mu)) overflows"
            )

    @property
    def omega(self) -> float:
        k_sq = self.k_x**2 + self.k_y**2 + self.k_z**2
        return math.sqrt(k_sq / (self.medium.eps * self.medium.mu))

    @property
    def default_domain(self) -> DomainSpec:
        return DomainSpec.cube(0.0, 2.0)

    def frequencies(self) -> tuple[float, float, float]:
        """Angular spatial frequencies per axis."""
        return (abs(self.k_x) * np.pi, abs(self.k_y) * np.pi, abs(self.k_z) * np.pi)

    def plane_factors(self, x, y, t: float):
        """``fill(z, out)``: the six components at time ``t`` on the points ``(x, y, z)``.

        Each component is an (x, y) plane factor times a z factor.  The plane
        factors are computed here, once; ``fill`` multiplies them by the z
        factors of its points into the rows of ``out``, whose trailing shape
        is the broadcast shape of the coordinates.
        """
        kx, ky, kz = self.k_x, self.k_y, self.k_z
        eps, mu = self.medium.eps, self.medium.mu
        omega = self.omega
        pre = 1.0 / (eps * math.sqrt(mu) * omega)
        cos_t = np.cos(omega * np.pi * t)
        sin_t = np.sin(omega * np.pi * t)
        cx, sx = np.cos(kx * np.pi * x), np.sin(kx * np.pi * x)
        cy, sy = np.cos(ky * np.pi * y), np.sin(ky * np.pi * y)
        planes = (
            (ky - kz) * pre * cos_t * cx * sy,
            (kz - kx) * pre * cos_t * sx * cy,
            (kx - ky) * pre * cos_t * sx * sy,
            sin_t * sx * cy,
            sin_t * cx * sy,
            sin_t * cx * cy,
        )

        def fill(z, out) -> None:
            cz, sz = np.cos(kz * np.pi * z), np.sin(kz * np.pi * z)
            # A row is out[i, ...], which is a view even for scalar coordinates.
            for row, (plane, factor) in enumerate(zip(planes, (sz, sz, cz, cz, cz, sz))):
                np.multiply(plane, factor, out=out[row, ...])

        return fill


@dataclass(frozen=True)
class TravelingWave(_Case):
    """Fixed traveling plane wave on ``[0, 1]^3`` with ``eps = mu = 1``.

    ``e_x = cos(2*pi*(x + y + z) - 2*sqrt(3)*pi*t)`` with the remaining
    components proportional to it; the family has no free parameters.
    """

    medium: MediumParams = field(default_factory=MediumParams)

    def __post_init__(self) -> None:
        if self.medium.mu != 1.0 or self.medium.eps != 1.0:
            raise ValueError("the traveling-wave case is defined for eps = mu = 1")

    @property
    def default_domain(self) -> DomainSpec:
        return DomainSpec.cube(0.0, 1.0)

    def frequencies(self) -> tuple[float, float, float]:
        return (2.0 * np.pi, 2.0 * np.pi, 2.0 * np.pi)

    def plane_factors(self, x, y, t: float):
        """``fill(z, out)``: the six components at time ``t`` on the points ``(x, y, z)``.

        ``e_x = cos(A + B)`` with ``A = 2*pi*(x + y)`` and
        ``B = 2*pi*z - 2*sqrt(3)*pi*t`` is taken as
        ``cos(A) cos(B) - sin(A) sin(B)``: ``cos(A)`` and ``sin(A)`` are
        computed here, once, and ``fill`` takes the trigonometry of ``B`` on
        its z values alone.  ``B`` is carried as the exact sum ``b + b_lo``
        of its rounded value and the rounding error of the subtraction
        (Knuth's two-sum), so at large ``t`` the samples are not off by that
        rounding, half an ulp of the phase.  ``e_x`` goes into its row of
        ``out``, whose trailing shape is the broadcast shape of the
        coordinates, and the other rows are its multiples.
        """
        sqrt3 = math.sqrt(3.0)
        a = 2.0 * np.pi * (x + y)
        cos_a, sin_a = np.cos(a), np.sin(a)
        phase = 2.0 * sqrt3 * np.pi * t

        def fill(z, out) -> None:
            p = 2.0 * np.pi * z
            b = p - phase
            p_back = b + phase
            b_lo = (p - p_back) + (-phase - (b - p_back))
            # cos and sin of b + b_lo to first order: b_lo is below an ulp of b.
            cos_b, sin_b = np.cos(b), np.sin(b)
            cos_b, sin_b = cos_b - sin_b * b_lo, sin_b + cos_b * b_lo
            e_x = np.multiply(cos_a, cos_b, out=out[0, ...])
            # Row 1 holds sin(A) sin(B) until e_x is complete.
            e_x -= np.multiply(sin_a, sin_b, out=out[1, ...])
            np.multiply(-2.0, e_x, out=out[1, ...])
            out[2, ...] = e_x
            np.multiply(sqrt3, e_x, out=out[3, ...])
            out[4, ...] = 0.0
            np.multiply(-sqrt3, e_x, out=out[5, ...])

        return fill


AnalyticCase = StandingWave | TravelingWave


def _check_resolution(case: AnalyticCase, grid: GridSpec) -> None:
    """Reject grids that alias the case's spatial modes.

    Each case frequency must be an integer multiple ``m`` of the grid's base
    frequency with ``n >= 2|m| + 2``, keeping solution content strictly below
    the Nyquist mode (whose derivative is annihilated).
    """
    nus = (grid.nu_x, grid.nu_y, grid.nu_z)
    counts = grid.counts()
    for axis, (freq, nu, n) in enumerate(zip(case.frequencies(), nus, counts)):
        mode = freq / nu
        if abs(mode - round(mode)) > 1e-9:
            raise ValueError(
                f"axis {'xyz'[axis]}: case frequency {freq:.6g} is not periodic "
                f"on this domain (mode number {mode:.6g} is not an integer)"
            )
        mode = abs(int(round(mode)))
        if n < 2 * mode + 2:
            raise ValueError(
                f"axis {'xyz'[axis]}: n = {n} under-resolves mode {mode} "
                f"(need n >= {2 * mode + 2}); sampling would alias"
            )


def _plane_sampler(case: AnalyticCase, grid: GridSpec, t: float):
    """``sample(planes, out)``: write the case at time ``t`` on a slice of z-planes.

    ``out`` is a ``(6, len(planes), n_y, n_x)`` float64 array.  The case's
    plane factors on the grid are computed once, here, so each call only
    multiplies them by the z factors of its planes, and every point gets the
    same bits whatever the slices.
    """
    z, y, x = np.meshgrid(
        grid.points_z, grid.points_y, grid.points_x, indexing="ij", sparse=True
    )
    fill = case.plane_factors(x, y, t)

    def sample(planes: slice, out: np.ndarray) -> None:
        fill(z[planes], out)

    return sample


def sample_exact(case: AnalyticCase, grid: GridSpec, t: float) -> np.ndarray:
    """The case's six components at time ``t`` on every collocation point.

    Written slab of z-planes by slab straight into one ``(6, n_total)``
    float64 array in the layout of :class:`FieldState`.
    """
    out = np.empty((6,) + grid.shape)
    sample = _plane_sampler(case, grid, t)
    _for_slabs(lambda planes: sample(planes, out[:, planes]), grid.n_z, out.size)
    return out.reshape(6, grid.n_total)


def sample_initial(case: AnalyticCase, grid: GridSpec) -> FieldState:
    """Sample the case at every collocation point at t = 0."""
    _check_resolution(case, grid)
    return FieldState(grid, case.medium, sample_exact(case, grid, 0.0))
