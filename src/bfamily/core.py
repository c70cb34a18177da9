"""Grid, field and spectrum value types with fixed transform conventions.

The domain is the periodic interval [-pi, pi) sampled at K equispaced
nodes x_j = -pi + j*(2*pi/K).  Fourier coefficients follow

    u_hat[k] = (1/K) * sum_j u(x_j) * exp(-i*k*x_j),

so that u(x_j) = sum_k u_hat[k] * exp(i*k*x_j) over k = -K/2 .. K/2-1.
Fields are real, so u_hat[-k] = conj(u_hat[k]) and the modes
k = 0 .. K/2 determine the field.  ``Spectrum`` stores exactly those
K/2 + 1 modes (numpy's rfft layout): slot k holds u_hat[k], and the
last slot is the unpaired Nyquist mode k = K/2.  Hermitian symmetry
therefore holds by construction; the only condition left to check is
that the two self-conjugate modes, k = 0 and k = K/2, are real.
``Spectrum`` checks that, within round-off, when it is built; only
``Spectrum.unchecked`` skips the check, for the RK4 step's result, whose
two self-conjugate modes keep the values of an already checked state.

The scalar mode is read once per function from ``precision``, the one
seam between double and extended arithmetic: ``forward_transform`` and
``inverse_transform`` run the mode's half-layout transform pair (numpy's
rfft/irfft, or a radix-2 mpmath FFT) and apply the grid's sign
(-1)**k = exp(-i*k*x_0) between its bins and the coefficients
(``grid_signs``); ``forward_transform`` also forces k = 0 and K/2 real.
``PeriodicField`` holds its samples finite (its mode's ``all_finite``)
and read-only, so ``forward_transform`` does not check them again.
``GridSpec.nodes`` and ``initial_datum`` build their arrays with the
mode's conversions and elementwise functions, ``initial_datum`` from a
profile name or a callable (``check_initial``).  Nothing here tests a
dtype, and nothing enters a precision context except ``initial_datum``
around a user callable, which may call global mpmath functions.
Extended coefficients from outside the package enter the mode's own
context, rounded to its 32 digits, when ``Spectrum`` is built
(``as_complex``).

Discrete Parseval identity under this normalisation:

    (1/K) * sum_j u_j**2 == sum_{k=-K/2}^{K/2-1} |u_hat[k]|**2
                         == |u_hat[0]|**2 + 2 * sum_{0<k<K/2} |u_hat[k]|**2
                            + |u_hat[K/2]|**2
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigError, NonFiniteFieldError, SymmetryError
from .precision import DOUBLE, Precision, transforms_for

MIN_MODES = 8

# Relative tolerance (in units of round-off) for the imaginary part of
# the self-conjugate modes k = 0 and k = K/2.  The transforms and the
# right-hand side keep those modes exactly real, so any measurable
# imaginary part signals corrupted input.
SYMMETRY_RTOL_ULPS = 1e3

TYPE_I = "type1"    # u0(x) = sin(x)
TYPE_II = "type2"   # u0(x) = 1 + sin(x)


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-pi, pi): ``n_modes`` an even integer, at least MIN_MODES."""

    n_modes: int

    def __post_init__(self) -> None:
        check_integer("n_modes", self.n_modes, minimum=MIN_MODES)
        if self.n_modes % 2 != 0:
            raise ConfigError(f"n_modes must be even, got {self.n_modes!r}")

    def nodes(self, precision: Precision = DOUBLE) -> np.ndarray:
        """Node positions x_j = -pi + j*2*pi/K in the requested scalar mode."""
        K = self.n_modes
        return -precision.pi + (2 * precision.pi / K) * precision.real(np.arange(K))

    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumber of each ``Spectrum`` slot: 0 .. K/2."""
        return np.arange(self.n_modes // 2 + 1)

    @property
    def resolution_limit(self) -> float:
        """Smallest analyticity-strip width the grid can distinguish, 2*pi/K."""
        return 2.0 * np.pi / self.n_modes


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PeriodicField:
    """Real samples of a periodic function on the grid nodes."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.shape != (self.grid.n_modes,):
            raise ValueError(
                f"expected {self.grid.n_modes} samples, got shape {values.shape}"
            )
        if not transforms_for(values).all_finite(values):
            raise NonFiniteFieldError("field samples must be finite")
        object.__setattr__(self, "values", _frozen_copy(values))


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients u_hat[k] of a real field for k = 0 .. K/2.

    The negative modes are the conjugates and are not stored.
    Construction checks the shape (K/2 + 1,) and raises SymmetryError
    when u_hat[0] or u_hat[K/2] has an imaginary part beyond round-off
    (for object arrays, the round-off of the extended mode, whose context
    each element enters, rounded to the mode's 32 digits).  Non-finite
    entries are left to the finiteness checks.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs)
        n_half = self.grid.n_modes // 2 + 1
        if coeffs.shape != (n_half,):
            raise ValueError(
                f"expected {n_half} coefficients (k = 0..K/2), got shape {coeffs.shape}"
            )
        mode = transforms_for(coeffs)
        coeffs = mode.as_complex(coeffs)
        scale = max(float(np.abs(coeffs).max()), 1e-300)
        tol = SYMMETRY_RTOL_ULPS * mode.ulp * scale
        if abs(coeffs[0].imag) > tol or abs(coeffs[-1].imag) > tol:
            raise SymmetryError(
                "the k = 0 and k = K/2 coefficients of a real field must be real; "
                "refusing a spectrum with an imaginary part beyond round-off there"
            )
        object.__setattr__(self, "coeffs", _frozen_copy(coeffs))

    @classmethod
    def unchecked(cls, grid: GridSpec, coeffs: np.ndarray) -> "Spectrum":
        """A spectrum that takes ownership of ``coeffs``, unchecked and uncopied.

        For arrays the package has just computed itself: ``coeffs`` must
        be freshly allocated, of shape (K/2 + 1,) in its mode's complex
        dtype, with u_hat[0] and u_hat[K/2] real by construction.  The
        array is frozen in place.  Data from outside the package goes
        through the checking constructor.
        """
        coeffs.setflags(write=False)
        spectrum = object.__new__(cls)
        object.__setattr__(spectrum, "grid", grid)
        object.__setattr__(spectrum, "coeffs", coeffs)
        return spectrum


@functools.lru_cache(maxsize=32)
def grid_signs(n_modes: int) -> np.ndarray:
    """(-1)**k for k = 0..K/2, read-only: u_hat[k] = (-1)**k * (bin k of rfft / K).

    The sign is exp(-i*k*x_0) for the first node x_0 = -pi.
    """
    signs = np.ones(n_modes // 2 + 1)
    signs[1::2] = -1.0
    signs.setflags(write=False)
    return signs


def forward_transform(field: PeriodicField) -> Spectrum:
    """DFT of a real field under the fixed convention.

    The k = 0 and k = K/2 coefficients come out exactly real.
    """
    values = field.values
    K = field.grid.n_modes
    coeffs = transforms_for(values).forward(values, K) * grid_signs(K)
    coeffs[0], coeffs[-1] = coeffs[0].real, coeffs[-1].real
    return Spectrum(field.grid, coeffs)


def inverse_transform(spectrum: Spectrum) -> PeriodicField:
    """Reconstruct the real field from the modes k = 0..K/2."""
    coeffs = spectrum.coeffs
    K = spectrum.grid.n_modes
    values = transforms_for(coeffs).inverse(coeffs * grid_signs(K), K)
    return PeriodicField(spectrum.grid, values)


InitialSpec = Union[str, Callable]


def check_real(name: str, value, positive: bool = False) -> None:
    """The one rule for a real setting: a finite real number, > 0 when ``positive``.

    ints, floats and numpy numbers pass; a bool, a str, None, NaN or an
    infinity raises ConfigError naming the setting.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the double range
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if positive and value <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")


def check_integer(name: str, value, minimum: Optional[int] = None) -> None:
    """The one rule for an integer setting: an integer, not a bool, at least ``minimum``.

    Python and numpy integers pass; a float (16.0 too), a str or None
    raises ConfigError naming the setting.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value!r}")


def check_initial(initial) -> None:
    """Raise ConfigError unless ``initial`` is ``type1``, ``type2`` or a callable."""
    if isinstance(initial, str) and initial not in (TYPE_I, TYPE_II):
        raise ConfigError(f"initial must be {TYPE_I!r} or {TYPE_II!r}, got {initial!r}")
    if not (isinstance(initial, str) or callable(initial)):
        raise ConfigError(f"initial must be a name or a callable, got a {type(initial).__name__}")


def initial_datum(
    initial: InitialSpec, grid: GridSpec, precision: Precision = DOUBLE
) -> PeriodicField:
    """Build the initial field in the requested scalar mode from a named profile or a callable.

    Recognised names: ``type1`` (sin x) and ``type2`` (1 + sin x).  A
    callable receives node coordinates in the requested scalar mode, and
    runs inside the mode's ``context()`` so that global mpmath functions
    it calls work at the mode's digits; its results are converted into
    the mode.  Any other value raises ConfigError (``check_initial``).
    """
    check_initial(initial)
    x = grid.nodes(precision)
    if callable(initial):
        with precision.context():
            values = precision.real([initial(xj) for xj in x])
    elif initial == TYPE_I:
        values = precision.sin_array(x)
    else:
        values = 1 + precision.sin_array(x)
    return PeriodicField(grid, values)
