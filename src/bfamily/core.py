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
``Spectrum`` checks that, within round-off, when it is built.

The transform pair on that layout is the only code here that depends
on the scalar mode: ``transforms_for`` picks numpy's rfft/irfft for
complex128 arrays and a radix-2 mpmath FFT for object arrays.
``forward_transform``, ``inverse_transform`` and the right-hand-side
kernel in ``spectral`` all run through it; the finiteness test they
share is ``precision.all_finite``.

Discrete Parseval identity under this normalisation:

    (1/K) * sum_j u_j**2 == sum_{k=-K/2}^{K/2-1} |u_hat[k]|**2
                         == |u_hat[0]|**2 + 2 * sum_{0<k<K/2} |u_hat[k]|**2
                            + |u_hat[K/2]|**2
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Union

import mpmath as mp
import numpy as np

from .errors import NonFiniteFieldError, OddResolutionError, SymmetryError
from .precision import (
    DOUBLE,
    Precision,
    all_finite,
    is_extended_array,
    ulp_for,
    working_context,
)

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
    """Uniform periodic grid on [-pi, pi) with an even number of modes."""

    n_modes: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_modes, (int, np.integer)):
            raise OddResolutionError(f"n_modes must be an integer, got {self.n_modes!r}")
        if self.n_modes % 2 != 0:
            raise OddResolutionError(f"n_modes must be even, got {self.n_modes}")
        if self.n_modes < MIN_MODES:
            raise OddResolutionError(f"n_modes must be at least {MIN_MODES}, got {self.n_modes}")

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n_modes

    def nodes(self, precision: Precision = DOUBLE) -> np.ndarray:
        """Node positions x_j = -pi + j*2*pi/K in the requested scalar mode."""
        K = self.n_modes
        if precision.is_double:
            return -np.pi + (2.0 * np.pi / K) * np.arange(K)
        with precision.context():
            return np.array([mp.pi * mp.mpf(2 * j - K) / K for j in range(K)], dtype=object)

    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumber of each ``Spectrum`` slot: 0 .. K/2."""
        return np.arange(self.n_modes // 2 + 1)

    @property
    def resolution_limit(self) -> float:
        """Smallest analyticity-strip width the grid can distinguish, 2*pi/K."""
        return 2.0 * np.pi / self.n_modes


def make_grid(n_modes: int) -> GridSpec:
    """Validated grid constructor."""
    return GridSpec(n_modes)


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
        if not all_finite(values):
            raise NonFiniteFieldError("field samples must be finite")
        object.__setattr__(self, "values", _frozen_copy(values))

    def nodes(self, precision: Precision = DOUBLE) -> np.ndarray:
        return self.grid.nodes(precision)


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients u_hat[k] of a real field for k = 0 .. K/2.

    The negative modes are the conjugates and are not stored.
    Construction checks the shape (K/2 + 1,) and raises SymmetryError
    when u_hat[0] or u_hat[K/2] has an imaginary part beyond round-off
    (for object arrays, the round-off of their working precision).
    Non-finite entries are left to the finiteness checks.
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
        if coeffs.dtype != object:
            coeffs = coeffs.astype(np.complex128, copy=False)
        with working_context(coeffs):
            scale = max(float(np.abs(coeffs).max()), 1e-300)
            tol = SYMMETRY_RTOL_ULPS * ulp_for(coeffs) * scale
        if abs(coeffs[0].imag) > tol or abs(coeffs[-1].imag) > tol:
            raise SymmetryError(
                "the k = 0 and k = K/2 coefficients of a real field must be real; "
                "refusing a spectrum with an imaginary part beyond round-off there"
            )
        object.__setattr__(self, "coeffs", _frozen_copy(coeffs))

    def magnitudes_nonnegative(self) -> np.ndarray:
        """|u_hat[k]| for k = 0 .. K/2 (Nyquist slot included last)."""
        return np.abs(self.coeffs)

    def max_magnitude(self):
        return np.abs(self.coeffs).max()


@functools.lru_cache(maxsize=32)
def _alternating_signs(n: int, scale_down: int = 1) -> np.ndarray:
    """(-1)**k / scale_down for k = 0..n-1, read-only."""
    signs = np.full(n, 1.0 / scale_down)
    signs[1::2] *= -1.0
    signs.setflags(write=False)
    return signs


@dataclass(frozen=True)
class DoubleTransforms:
    """Half-layout transform pair on complex128 arrays via numpy's rfft.

    Both directions act along the last axis, so a stack of fields or
    half spectra is transformed in one call.
    """

    def real(self, ints: np.ndarray) -> np.ndarray:
        """Integers as a real working-precision array (for symbol tables)."""
        return np.asarray(ints, dtype=np.float64)

    def scalar(self, x) -> float:
        return float(x)

    def forward(self, values: np.ndarray, n_modes: int) -> np.ndarray:
        """Modes k = 0..K/2 of real samples; k = 0 and K/2 are forced real."""
        # scaling by a precomputed +-1/K gives the values of dividing by K
        # without a complex division
        half = np.fft.rfft(values, axis=-1) * _alternating_signs(n_modes // 2 + 1, n_modes)
        half[..., 0] = half[..., 0].real
        half[..., -1] = half[..., -1].real
        return half

    def inverse(self, half: np.ndarray, n_modes: int) -> np.ndarray:
        """Real samples of the field whose modes k = 0..K/2 are ``half``."""
        signed = half * _alternating_signs(n_modes // 2 + 1)
        return np.fft.irfft(signed, n=n_modes, axis=-1) * n_modes


@dataclass(frozen=True)
class ExtendedTransforms:
    """Half-layout transform pair on mpmath object arrays at ``dps`` digits.

    Call inside a context that sets the mpmath precision to ``dps``.
    """

    dps: int

    def real(self, ints: np.ndarray) -> np.ndarray:
        return np.array([mp.mpf(int(v)) for v in ints], dtype=object)

    def scalar(self, x):
        return mp.mpf(x)

    def forward(self, values: np.ndarray, n_modes: int) -> np.ndarray:
        K = n_modes
        rows = values.reshape(-1, K)
        out = np.empty((len(rows), K // 2 + 1), dtype=object)
        for r, row in enumerate(rows):
            bins = _mp_fft([mp.mpc(v) for v in row])
            half = [bins[k] * ((-1) ** k) / K for k in range(K // 2 + 1)]
            half[0] = mp.mpc(mp.re(half[0]))
            half[K // 2] = mp.mpc(mp.re(half[K // 2]))
            out[r] = half
        return out.reshape(values.shape[:-1] + (K // 2 + 1,))

    def inverse(self, half: np.ndarray, n_modes: int) -> np.ndarray:
        K = n_modes
        rows = half.reshape(-1, K // 2 + 1)
        out = np.empty((len(rows), K), dtype=object)
        for r, row in enumerate(rows):
            full = list(row) + [mp.conj(v) for v in row[K // 2 - 1 : 0 : -1]]
            # (-1)**k per slot: k == m (mod 2) for even K, so (-1)**m works;
            # the exp(+...) transform is the forward FFT under conjugation
            bins = _mp_fft([mp.conj(v * ((-1) ** m)) for m, v in enumerate(full)])
            out[r] = [mp.re(mp.conj(v)) for v in bins]
        return out.reshape(half.shape[:-1] + (K,))


Transforms = Union[DoubleTransforms, ExtendedTransforms]

_DOUBLE_TRANSFORMS = DoubleTransforms()


def transforms_for(arr: np.ndarray) -> Transforms:
    """The transform pair matching an array's scalar mode.

    For object arrays it reads the ambient mpmath precision, so call it
    inside the relevant ``working_context``.
    """
    if is_extended_array(arr):
        return ExtendedTransforms(mp.mp.dps)
    return _DOUBLE_TRANSFORMS


def _mp_fft(a: list) -> list:
    """Radix-2 forward DFT, sum_j a_j exp(-2*pi*i*j*k/n), on mpmath scalars."""
    n = len(a)
    if n == 1:
        return list(a)
    if n % 2:
        return [
            sum(a[j] * mp.expjpi(mp.mpf(-2 * ((j * k) % n)) / n) for j in range(n))
            for k in range(n)
        ]
    even = _mp_fft(a[0::2])
    odd = _mp_fft(a[1::2])
    out = [None] * n
    for m in range(n // 2):
        tw = mp.expjpi(mp.mpf(-2 * m) / n) * odd[m]
        out[m] = even[m] + tw
        out[m + n // 2] = even[m] - tw
    return out


def forward_transform(field: PeriodicField) -> Spectrum:
    """DFT of a real field under the fixed convention.

    The k = 0 and k = K/2 coefficients come out exactly real.
    """
    values = field.values
    if not all_finite(values):
        raise NonFiniteFieldError("cannot transform a non-finite field")
    with working_context(values):
        half = transforms_for(values).forward(values, field.grid.n_modes)
        return Spectrum(field.grid, half)


def inverse_transform(spectrum: Spectrum) -> PeriodicField:
    """Reconstruct the real field from the modes k = 0..K/2."""
    coeffs = spectrum.coeffs
    with working_context(coeffs):
        values = transforms_for(coeffs).inverse(coeffs, spectrum.grid.n_modes)
        return PeriodicField(spectrum.grid, values)


InitialSpec = Union[str, PeriodicField, Callable]


def initial_datum(
    initial: InitialSpec, grid: GridSpec, precision: Precision = DOUBLE
) -> PeriodicField:
    """Build the initial field from a named profile, samples, or callable.

    Recognised names: ``type1`` (sin x) and ``type2`` (1 + sin x).  A
    callable receives node coordinates in the active scalar mode.
    """
    if isinstance(initial, PeriodicField):
        if initial.grid != grid:
            raise ValueError("supplied field lives on a different grid")
        return initial
    x = grid.nodes(precision)
    if callable(initial):
        with precision.context():
            if precision.is_double:
                values = np.asarray([float(initial(xj)) for xj in x])
            else:
                values = np.array([mp.mpf(initial(xj)) for xj in x], dtype=object)
        return PeriodicField(grid, values)
    if initial == TYPE_I:
        if precision.is_double:
            return PeriodicField(grid, np.sin(x))
        with precision.context():
            return PeriodicField(grid, np.array([mp.sin(xj) for xj in x], dtype=object))
    if initial == TYPE_II:
        if precision.is_double:
            return PeriodicField(grid, 1.0 + np.sin(x))
        with precision.context():
            return PeriodicField(grid, np.array([1 + mp.sin(xj) for xj in x], dtype=object))
    raise ValueError(f"unknown initial datum {initial!r}")
