"""Cuboid grid construction for the periodic pseudospectral discretization.

This module is the single authority for index conventions: fields live on a
uniform tensor grid over ``[x_lo, x_hi] x [y_lo, y_hi] x [z_lo, z_hi]`` and
are stored as flat vectors in x-fastest order, ``flat = nx*ny*l + nx*k + j``.
Spectra of these real fields keep only the ``kx >= 0`` columns: they are
flat vectors over the ``(n_z, n_y, n_x//2 + 1)`` half-spectrum box
(:attr:`GridSpec.spectral_shape`), x fastest as well.
Everything else in the package (transforms, propagator, diagnostics) inherits
these conventions rather than redefining them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainSpec",
    "GridSpec",
    "build_grid",
]

@dataclass(frozen=True)
class DomainSpec:
    """Axis-aligned cuboid domain with periodic boundaries.

    Each upper bound must be strictly greater than the matching lower bound.
    """

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    z_lo: float
    z_hi: float

    def __post_init__(self) -> None:
        for axis, name in enumerate("xyz"):
            lo, hi = self.bounds(axis)
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"domain bounds along {name} must be finite")
            if not hi > lo:
                raise ValueError(
                    f"degenerate domain along {name}: need hi > lo, got [{lo}, {hi}]"
                )

    @classmethod
    def cube(cls, lo: float, hi: float) -> "DomainSpec":
        """Cubic domain ``[lo, hi]^3``."""
        return cls(lo, hi, lo, hi, lo, hi)

    def extent(self, axis: int) -> float:
        """Side length along ``axis`` (0=x, 1=y, 2=z)."""
        lo, hi = self.bounds(axis)
        return hi - lo

    def bounds(self, axis: int) -> tuple[float, float]:
        return (
            (self.x_lo, self.x_hi),
            (self.y_lo, self.y_hi),
            (self.z_lo, self.z_hi),
        )[axis]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GridSpec:
    """Fully materialized discretization of a :class:`DomainSpec`.

    Attributes
    ----------
    domain : DomainSpec
    n_x, n_y, n_z : int
        Positive even point counts per axis.
    h_x, h_y, h_z : float
        Step sizes, ``(hi - lo) / n``.
    nu_x, nu_y, nu_z : float
        Base angular frequencies ``2*pi / (hi - lo)``.
    points_x, points_y, points_z : ndarray
        Collocation coordinates ``lo + j*h`` for ``j = 0 .. n-1``.
    kvec_x, kvec_y, kvec_z : ndarray
        Per-axis angular wavenumbers in FFT order with the Nyquist entry
        (index ``n/2``) forced to exactly 0.0 so discrete differentiation
        stays skew-symmetric.
    """

    domain: DomainSpec
    n_x: int
    n_y: int
    n_z: int
    h_x: float = field(init=False, compare=False)
    h_y: float = field(init=False, compare=False)
    h_z: float = field(init=False, compare=False)
    nu_x: float = field(init=False, compare=False)
    nu_y: float = field(init=False, compare=False)
    nu_z: float = field(init=False, compare=False)
    points_x: np.ndarray = field(init=False, repr=False, compare=False)
    points_y: np.ndarray = field(init=False, repr=False, compare=False)
    points_z: np.ndarray = field(init=False, repr=False, compare=False)
    kvec_x: np.ndarray = field(init=False, repr=False, compare=False)
    kvec_y: np.ndarray = field(init=False, repr=False, compare=False)
    kvec_z: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for n, name in ((self.n_x, "n_x"), (self.n_y, "n_y"), (self.n_z, "n_z")):
            if not isinstance(n, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {n!r}")
            if n < 2 or n % 2 != 0:
                raise ValueError(f"{name} must be an even integer >= 2, got {n}")
        for axis, name in enumerate("xyz"):
            n = getattr(self, f"n_{name}")
            lo, hi = self.domain.bounds(axis)
            h = (hi - lo) / n
            nu = 2.0 * np.pi / (hi - lo)
            points = lo + h * np.arange(n, dtype=np.float64)
            # Integer ladder 0, 1, ..., n/2-1, 0, -n/2+1, ..., -1 scaled by nu.
            ladder = np.fft.fftfreq(n, d=1.0 / n)
            ladder[n // 2] = 0.0
            object.__setattr__(self, f"h_{name}", h)
            object.__setattr__(self, f"nu_{name}", nu)
            object.__setattr__(self, f"points_{name}", _readonly(points))
            object.__setattr__(self, f"kvec_{name}", _readonly(nu * ladder))

    @property
    def shape(self) -> tuple[int, int, int]:
        """Array shape ``(n_z, n_y, n_x)`` matching x-fastest flat storage."""
        return (self.n_z, self.n_y, self.n_x)

    @property
    def n_total(self) -> int:
        return self.n_x * self.n_y * self.n_z

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        """Half-spectrum shape ``(n_z, n_y, n_x//2 + 1)``: the kx >= 0 columns."""
        return (self.n_z, self.n_y, self.n_x // 2 + 1)

    @property
    def n_spectral(self) -> int:
        """Number of modes in the half spectrum, ``n_z * n_y * (n_x//2 + 1)``."""
        return self.n_z * self.n_y * (self.n_x // 2 + 1)

    def counts(self) -> tuple[int, int, int]:
        return (self.n_x, self.n_y, self.n_z)


def build_grid(domain: DomainSpec, n_x: int, n_y: int, n_z: int) -> GridSpec:
    """Construct the grid for ``domain`` with even point counts per axis."""
    return GridSpec(domain=domain, n_x=n_x, n_y=n_y, n_z=n_z)
