"""Sobolev norms.

With the transform convention of the core module (coefficients of
e^{ikx} on [-pi, pi)), Parseval reads (1/K) sum_j u_j^2 = sum_k
|u_hat[k]|^2, so the continuum L^2 norm over the period corresponds to
2*pi times the coefficient sum.  The H^s norm here is

    ( 2*pi * sum_k (1+k^2)^order * |u_hat[k]|^2 )^(1/2)

and order 1 gives the H1 energy that the b-family conserves while the
solution stays smooth.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Spectrum
from .errors import BlowUpOverflowError
from .precision import transforms_for


def sobolev_norm(spectrum: Spectrum, order: float) -> float:
    """Weighted l2 norm (2*pi sum (1+k^2)^order |u_hat[k]|^2)^(1/2).

    Raises ValueError for a non-finite order, and BlowUpOverflowError
    when the weighted sum leaves the double range; with extended-precision
    spectra the arbitrary exponent range makes that practically
    unreachable.
    """
    if not math.isfinite(order):
        raise ValueError(f"Sobolev order must be finite, got {order}")
    coeffs = spectrum.coeffs
    mode = transforms_for(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        k = mode.real(spectrum.grid.wavenumbers())
        weights = (1 + k**2) ** order
        # the stored modes k = 0..K/2 stand for k and -k: weight 0 < k < K/2 twice
        weights[1:-1] *= 2
        total = np.sum(weights * np.abs(coeffs) ** 2)
        if not mode.isfinite(total):
            raise BlowUpOverflowError(f"the H^{order} sum overflows the floating range")
        return mode.sqrt(2 * mode.pi * total)
