"""Sobolev and Gevrey norms, and the analyticity-radius lower bound.

With the transform convention of the core module (coefficients of
e^{ikx} on [-pi, pi)), Parseval reads (1/K) sum_j u_j^2 = sum_k
|u_hat[k]|^2, so the continuum L^2 norm over the period corresponds to
2*pi times the coefficient sum.  The weighted norms here are

    sobolev:  ( 2*pi * sum_k (1+k^2)^order          * |u_hat[k]|^2 )^(1/2)
    gevrey:   ( 2*pi * sum_k e^(2*radius*|k|) (1+k^2)^order |u_hat[k]|^2 )^(1/2)

A Gevrey norm that overflows the floating range signals a weight radius
at or beyond the spectrum's analyticity-strip width: under grid
refinement the sum converges for radius < strip width and grows without
bound above it.

The radius lower bound integrates a decay model for the guaranteed
strip: radius(t) = radius0 * exp(-c2 * outer(t)) with

    outer(t)  = integral_0^t [ G0 + c1 * inner(t') ] dt',
    inner(t') = integral_0^t' sobolev_norm(u(t''), order)^3 dt'',
    G0        = gevrey_norm(u(0), order, radius0),

where c1 and c2 are model constants supplied by the caller; they tune
only the decay rate, so the bound is qualitative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Spectrum
from .errors import GevreyOverflowError
from .integrator import Trajectory
from .precision import working_context


@dataclass(frozen=True)
class GevreyParams:
    """Weight parameters: Sobolev order and exponential radius >= 0."""

    order: float
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.order) and math.isfinite(self.radius)):
            raise ValueError("Gevrey parameters must be finite")
        if self.radius < 0:
            raise ValueError(f"exponential radius must be >= 0, got {self.radius}")


def sobolev_norm(spectrum: Spectrum, order: float) -> float:
    """Weighted l2 norm (2*pi sum (1+k^2)^order |u_hat[k]|^2)^(1/2)."""
    return gevrey_norm(spectrum, GevreyParams(order=order, radius=0.0))


def gevrey_norm(spectrum: Spectrum, params: GevreyParams) -> float:
    """Exponentially weighted Sobolev norm of the spectrum.

    Raises GevreyOverflowError when a weighted term leaves the double
    range; with extended-precision spectra the arbitrary exponent range
    makes that practically unreachable.
    """
    coeffs = spectrum.coeffs
    with working_context(coeffs) as mode, np.errstate(over="ignore", invalid="ignore"):
        k = mode.real(spectrum.grid.wavenumbers())
        weights = (1 + k**2) ** params.order
        if params.radius:
            weights = weights * mode.exp_array(2 * params.radius * k)
        # the stored modes k = 0..K/2 stand for k and -k: weight 0 < k < K/2 twice
        weights[1:-1] *= 2
        total = np.sum(weights * np.abs(coeffs) ** 2)
        if not mode.isfinite(total):
            raise GevreyOverflowError(
                f"Gevrey sum overflows at radius {params.radius}; "
                "the weight radius reaches past the spectrum's decay"
            )
        return mode.sqrt(2 * mode.pi * total)


def _cumulative_trapezoid(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Running trapezoid integral, same length as the input, starting at 0."""
    out = np.zeros_like(values, dtype=np.float64)
    if len(values) > 1:
        steps = np.diff(times)
        out[1:] = np.cumsum(steps * 0.5 * (values[1:] + values[:-1]))
    return out


def radius_lower_bound(trajectory: Trajectory, order: float, initial_radius: float,
                       c1: float = 1.0, c2: float = 1.0) -> np.ndarray:
    """Guaranteed-analyticity-radius decay curve along a trajectory.

    Returns the modeled radius at every snapshot time.  Requires
    order > 3/2 (the model's validity range) and nonnegative model
    constants; c1 = c2 = 0 degenerates to the constant initial radius.
    Raises GevreyOverflowError when the initial datum cannot carry the
    requested initial radius.
    """
    if order <= 1.5:
        raise ValueError(f"Sobolev order must exceed 3/2, got {order}")
    if initial_radius <= 0:
        raise ValueError(f"initial radius must be positive, got {initial_radius}")
    if c1 < 0 or c2 < 0:
        raise ValueError("model constants must be nonnegative")
    times = np.asarray(trajectory.times, dtype=np.float64)
    g0 = float(gevrey_norm(trajectory.snapshots[0],
                              GevreyParams(order=order, radius=initial_radius)))
    cubes = np.array([float(sobolev_norm(s, order)) ** 3
                      for s in trajectory.snapshots])
    inner = _cumulative_trapezoid(cubes, times)
    outer = _cumulative_trapezoid(g0 + c1 * inner, times)
    return initial_radius * np.exp(-c2 * outer)
