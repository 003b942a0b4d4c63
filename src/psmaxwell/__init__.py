"""Structure-preserving pseudospectral solver for 3D Maxwell's equations.

Periodic cuboid domains are discretized with a Fourier collocation grid; the
semi-discrete curl equations are then integrated exactly by a closed-form
per-mode matrix exponential, reaching any target time in a single application
with no step-size restriction.  Diagnostics cover the discrete energy,
helicity, momentum, symplecticity, and divergence-free conservation laws.
"""

from .grid import DomainSpec, GridSpec, build_grid
from .spectral import (
    ImaginaryResidueError,
    apply_derivative,
    dft3_forward,
    dft3_inverse,
    realize,
)
from .propagator import (
    FieldState,
    MediumParams,
    PropagatorCoefficients,
    build_coefficients,
    propagate,
    step,
    to_physical,
    to_spectral,
)
from .analytic import AnalyticCase, StandingWave, TravelingWave, sample_initial
from .diagnostics import (
    DriftValue,
    ErrorReport,
    InvariantDrifts,
    InvariantReport,
    divergences,
    energies,
    error_norms,
    helicities,
    invariant_report,
    momenta,
    relative_change,
    spectral_time_derivative,
)

__version__ = "0.1.0"

__all__ = [
    "DomainSpec",
    "GridSpec",
    "build_grid",
    "ImaginaryResidueError",
    "dft3_forward",
    "dft3_inverse",
    "apply_derivative",
    "realize",
    "MediumParams",
    "FieldState",
    "PropagatorCoefficients",
    "build_coefficients",
    "step",
    "propagate",
    "to_spectral",
    "to_physical",
    "AnalyticCase",
    "StandingWave",
    "TravelingWave",
    "sample_initial",
    "InvariantReport",
    "ErrorReport",
    "DriftValue",
    "InvariantDrifts",
    "spectral_time_derivative",
    "energies",
    "helicities",
    "momenta",
    "divergences",
    "invariant_report",
    "error_norms",
    "relative_change",
]
