"""Pseudospectral b-family solver with analyticity-strip singularity tracking."""

from .core import (
    TYPE_I,
    TYPE_II,
    GridSpec,
    PeriodicField,
    Spectrum,
    forward_transform,
    initial_datum,
    inverse_transform,
)
from .integrator import BFamilyConfig, StopReason, Trajectory, simulate
from .norms import sobolev_norm
from .precision import DOUBLE, EXTENDED32, Precision
from .spectral import RhsOptions, dealias_cutoff, derivative, rhs
from .synthetic import SyntheticSpec, oracle_field, oracle_spectrum
from .tracker import (
    FitOptions,
    FitResult,
    SingularityTrace,
    fit_spectrum,
    local_fit,
    sliding_fit,
    strip_monitor,
    track,
    track_run,
    wynn_epsilon,
)

__version__ = "0.1.0"

__all__ = [
    "BFamilyConfig",
    "DOUBLE",
    "EXTENDED32",
    "FitOptions",
    "FitResult",
    "GridSpec",
    "PeriodicField",
    "Precision",
    "RhsOptions",
    "SingularityTrace",
    "Spectrum",
    "StopReason",
    "SyntheticSpec",
    "TYPE_I",
    "TYPE_II",
    "Trajectory",
    "dealias_cutoff",
    "derivative",
    "fit_spectrum",
    "forward_transform",
    "initial_datum",
    "inverse_transform",
    "local_fit",
    "oracle_field",
    "oracle_spectrum",
    "rhs",
    "simulate",
    "sliding_fit",
    "sobolev_norm",
    "strip_monitor",
    "track",
    "track_run",
    "wynn_epsilon",
    "__version__",
]
