"""Sobolev and Gevrey norms.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Spectrum
from .errors import GevreyOverflowError
from .precision import transforms_for


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
    mode = transforms_for(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
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

