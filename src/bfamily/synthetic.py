"""Oracle fields with an analytically known nearest complex singularity.

The family

    f(x) = amplitude * Re[ (1 - exp(-delta) * exp(i*(x - x_star)))**alpha ]

is periodic, real analytic in the strip |Im z| < delta, and its nearest
singularities are branch points of order alpha at z = x_star + i*delta
(and the conjugate).  Its Fourier coefficients are known in closed form
through the binomial series (1 - w)**alpha = sum_k binom(alpha, k) (-w)**k:

    u_hat[0] = amplitude,
    u_hat[k] = (amplitude/2) * binom(alpha, k) * (-1)**k
               * exp(-delta*k) * exp(-i*k*x_star),      k >= 1,

with u_hat[-k] the conjugate.  The coefficients are generated by the
stable product recurrence for the binomial term, never through Gamma
functions, so no cancellation enters at large k.  ``oracle_spectrum``
returns them for k = 0 .. K/2 - 1 on a grid of K modes, and its
inverse transform is the function on the grid's nodes, up to the
truncated tail.

Non-integer alpha gives a genuine branch point; a nonnegative integer
alpha truncates the series to a trigonometric polynomial (an entire
function with nothing to track), which is still permitted as a
degenerate member of the family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GridSpec, Spectrum, check_real
from .precision import DOUBLE, Precision


@dataclass(frozen=True)
class SyntheticSpec:
    """Branch-point parameters: character, strip width, abscissa, scale.

    Every field must be a finite real number (``check_real``), ``delta``
    and ``amplitude`` positive; anything else is a ConfigError.
    ``alpha`` may be any real number; nonnegative integers degenerate to
    trigonometric polynomials (binomial series truncates).
    """

    alpha: float
    delta: float
    x_star: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        for name, positive in (("alpha", False), ("delta", True), ("x_star", False),
                               ("amplitude", True)):
            check_real(name, getattr(self, name), positive)


def _coefficient_table(spec: SyntheticSpec, count: int, precision: Precision) -> np.ndarray:
    """One-sided coefficients u_hat[k] for k = 0 .. count-1."""
    alpha, delta, x_star = (precision.scalar(v) for v in (spec.alpha, spec.delta, spec.x_star))
    half = precision.scalar(spec.amplitude) / 2
    table = [precision.zero + spec.amplitude]
    signed = precision.scalar(1)  # (-1)**k * binom(alpha, k)
    for k in range(1, count):
        signed *= (k - 1 - alpha) / k
        table.append(half * signed * precision.exp(-delta * k)
                     * precision.exp_minus_i(k * x_star))
    return np.array(table)


def oracle_spectrum(spec: SyntheticSpec, grid: GridSpec,
                    precision: Precision = DOUBLE) -> Spectrum:
    """Assemble the truncated oracle spectrum directly from closed form.

    Slots 0 .. K/2-1 take the series coefficients; the unpaired
    half-mode slot is zeroed (its true coefficient is below round-off
    whenever delta*K/2 is large enough for the truncation to be
    meaningful).
    """
    table = _coefficient_table(spec, grid.n_modes // 2, precision)
    return Spectrum(grid, np.append(table, precision.zero))
