"""Grid, field and spectrum value types with fixed transform conventions.

The domain is the periodic interval [-pi, pi) sampled at K equispaced
nodes x_j = -pi + j*(2*pi/K).  Fourier coefficients follow

    u_hat[k] = (1/K) * sum_j u(x_j) * exp(-i*k*x_j),   k = -K/2 .. K/2-1,

so that u(x_j) = sum_k u_hat[k] * exp(i*k*x_j).  Coefficients are stored
in FFT slot order (0 .. K/2-1, -K/2 .. -1); ``Spectrum.wavenumbers``
gives the integer wavenumber per slot and ``Spectrum.coeff`` indexes by
wavenumber.  Forward transforms of real fields mirror the negative modes
from the nonnegative half explicitly, so Hermitian symmetry holds
exactly, not just to round-off.

The modes k = 0 .. K/2 (``Spectrum.half``, the rfft layout) determine a
real field.  The transform pair on that layout is the only code here
that depends on the scalar mode: ``transforms_for`` picks numpy's
rfft/irfft for complex128 arrays and a radix-2 mpmath FFT for object
arrays.  ``forward_transform``, ``inverse_transform`` and the
right-hand-side kernel in ``spectral`` all run through it; the
finiteness test they share is ``precision.all_finite``.
``check_hermitian`` guards every inverse transform, and the RK4 step
runs it once on each step's input state (stage states are Hermitian by
construction).

Discrete Parseval identity under this normalisation:

    (1/K) * sum_j u_j**2 == sum_k |u_hat[k]|**2
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

# Relative tolerance (in units of round-off) for the Hermitian-symmetry
# check on inverse transforms and RK4 steps.  The pipeline maintains
# symmetry exactly, so any measurable violation signals corrupted input.
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
        """Integer wavenumbers in FFT slot order: 0..K/2-1, -K/2..-1."""
        K = self.n_modes
        return np.concatenate([np.arange(0, K // 2), np.arange(-K // 2, 0)])

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
    """Fourier coefficients in FFT slot order under the fixed convention.

    Construction checks only shape; Hermitian symmetry is guaranteed by
    the operations that produce spectra and re-verified (with a
    round-off tolerance) whenever a spectrum is pushed back to physical
    space, and once per RK4 step.
    """

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coeffs)
        if coeffs.shape != (self.grid.n_modes,):
            raise ValueError(
                f"expected {self.grid.n_modes} coefficients, got shape {coeffs.shape}"
            )
        if coeffs.dtype != object:
            coeffs = coeffs.astype(np.complex128, copy=False)
        object.__setattr__(self, "coeffs", _frozen_copy(coeffs))

    @classmethod
    def from_half(cls, grid: GridSpec, half: np.ndarray) -> "Spectrum":
        """Spectrum with modes k = 0..K/2 from ``half`` and k < 0 their conjugates.

        mpmath rounds a conjugate to the ambient precision, so object
        arrays are mirrored inside their ``working_context``.
        """
        K = grid.n_modes
        coeffs = np.empty(K, dtype=half.dtype)
        coeffs[: K // 2 + 1] = half
        with working_context(half):
            coeffs[K // 2 + 1 :] = np.conj(half[K // 2 - 1 : 0 : -1])
        return cls(grid, coeffs)

    def half(self) -> np.ndarray:
        """Read-only view of the modes k = 0 .. K/2 (the rfft layout)."""
        return self.coeffs[: self.grid.n_modes // 2 + 1]

    def wavenumbers(self) -> np.ndarray:
        return self.grid.wavenumbers()

    def coeff(self, k: int):
        """Coefficient for integer wavenumber k in [-K/2, K/2-1]."""
        K = self.grid.n_modes
        if not -K // 2 <= k <= K // 2 - 1:
            raise IndexError(f"wavenumber {k} outside [-{K // 2}, {K // 2 - 1}]")
        return self.coeffs[k % K]

    def magnitudes_nonnegative(self) -> np.ndarray:
        """|u_hat[k]| for k = 0 .. K/2 (Nyquist slot included last)."""
        return np.abs(self.half())

    def max_magnitude(self):
        return np.abs(self.coeffs).max()

    def symmetry_defect(self) -> float:
        """Largest violation of u_hat[-k] == conj(u_hat[k]), k=0 included."""
        K = self.grid.n_modes
        c = self.coeffs
        pos = c[1 : K // 2]
        neg = c[: K // 2 : -1]  # slots K-1 .. K/2+1, i.e. k = -1 .. -(K/2-1)
        mirror = np.abs(neg - np.conj(pos)).max()
        return float(max(abs(c[0].imag), abs(c[K // 2].imag), mirror))


def check_hermitian(spectrum: Spectrum) -> None:
    """Raise SymmetryError unless the spectrum is Hermitian within round-off.

    For object arrays the round-off unit is the ambient mpmath precision.
    """
    scale = spectrum.max_magnitude()
    tol = SYMMETRY_RTOL_ULPS * ulp_for(spectrum.coeffs) * max(float(scale), 1e-300)
    if not spectrum.symmetry_defect() <= tol:
        raise SymmetryError(
            "spectrum is not Hermitian within round-off; refusing to "
            "reconstruct a real field from corrupted coefficients"
        )


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

    Output symmetry is exact: the negative-k half is an explicit mirror
    of the nonnegative-k half.
    """
    values = field.values
    if not all_finite(values):
        raise NonFiniteFieldError("cannot transform a non-finite field")
    with working_context(values):
        half = transforms_for(values).forward(values, field.grid.n_modes)
        return Spectrum.from_half(field.grid, half)


def inverse_transform(spectrum: Spectrum) -> PeriodicField:
    """Reconstruct the real field from the modes k = 0..K/2.

    Rejects input that is not Hermitian within round-off.
    """
    check_hermitian(spectrum)
    coeffs = spectrum.coeffs
    with working_context(coeffs):
        values = transforms_for(coeffs).inverse(spectrum.half(), spectrum.grid.n_modes)
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
