"""Scalar precision modes: the one seam between double and extended arithmetic.

Every numerical routine in the package runs in one of two scalar modes:
IEEE double (numpy float64/complex128 arrays) or extended decimal
precision backed by mpmath (object arrays of mpf/mpc).  The modes are
the objects ``DOUBLE`` and ``EXTENDED32`` (``Precision`` is their type),
and each supplies every operation whose double and extended forms
differ:

- the half-layout transform pair ``forward``/``inverse`` (numpy's
  rfft/irfft, or a radix-2 mpmath FFT), which write into an ``out=``
  array when given one.  It is the plain pair in numpy's
  ``norm="forward"`` convention: ``forward`` returns the bins
  k = 0..K/2 of rfft(x) / K and ``inverse`` is the unscaled irfft.  The
  grid's sign (-1)**k that turns bins into coefficients, and forcing
  k = 0 and K/2 real, are left to the callers: ``core``'s transforms
  and the tables of ``spectral.RhsKernel``;
- scalar ``log``, ``log_ratio`` (log(num/den) of two integers), ``exp``,
  ``sqrt``, ``arg``, ``exp_minus_i`` (exp(-i*theta)) and ``isfinite``,
  and the constants ``pi`` and ``zero`` (a complex zero);
- elementwise array ``exp_array``, ``sin_array`` and ``real_part``, and
  the finiteness test ``all_finite``;
- conversions ``scalar``, ``real`` (to a real working-precision array)
  and ``as_complex``, and the array dtypes ``real_dtype`` and
  ``complex_dtype`` for preallocated buffers;
- the unit round-off ``ulp``, the decimal ``digits`` and ``label``, and
  the working ``context()``.

A function reads its mode once, from a ``Precision`` argument or from an
array (``transforms_for``, or ``working_context``, which enters the
mode's context and yields the mode), and then runs one code path.  The
dtype test in ``transforms_for`` is the only place that tells the two
modes apart.

The double mode binds scalar ``math`` functions for scalar operations
and numpy functions for array operations, and ``log_ratio`` takes
``math.log1p`` of the excess over the smaller integer where the
extended mode takes ``mp.log`` of the ratio.  Scalar ``math.log`` and
array ``np.log`` (likewise ``abs`` and ``np.abs``) differ in the last
bit on some inputs, so swapping one for the other changes double
results.

mpmath evaluates transcendentals at the *ambient* working precision, so
extended work runs inside ``context()``: ``mp.workdps`` at the mode's
digits.  For an object array, ``transforms_for`` picks at least
MIN_EXTENDED_DIGITS digits and honours an already-raised ambient
precision.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Union

import mpmath as mp
import numpy as np

# Extended mode guarantees at least this many significant decimal digits.
MIN_EXTENDED_DIGITS = 32


def _double_log_ratio(num: int, den: int) -> float:
    # log1p of the positive excess over the smaller integer: accurate near 1
    if num >= den:
        return math.log1p((num - den) / den)
    return -math.log1p((den - num) / num)


def _double_arg(z) -> float:
    return math.atan2(z.imag, z.real)


def _double_exp_minus_i(theta) -> complex:
    return complex(math.cos(theta), -math.sin(theta))


@dataclass(frozen=True)
class DoublePrecision:
    """IEEE double: complex128/float64 arrays, numpy's rfft, ``math`` scalars.

    Transforms act along the last axis, so a stack of fields or half
    spectra is transformed in one call.
    """

    digits = 15  # decimal digits a double always carries
    label = "double"
    real_dtype = np.dtype(np.float64)
    complex_dtype = np.dtype(np.complex128)
    ulp = float(np.finfo(np.float64).eps)
    pi = math.pi
    zero = 0j

    log = staticmethod(math.log)
    log_ratio = staticmethod(_double_log_ratio)
    exp = staticmethod(math.exp)
    sqrt = staticmethod(math.sqrt)
    isfinite = staticmethod(math.isfinite)
    arg = staticmethod(_double_arg)
    exp_minus_i = staticmethod(_double_exp_minus_i)
    scalar = staticmethod(float)

    exp_array = staticmethod(np.exp)
    sin_array = staticmethod(np.sin)
    real_part = staticmethod(np.real)

    def context(self):
        return contextlib.nullcontext(self)

    def real(self, values) -> np.ndarray:
        """Real numbers as a working-precision array (float64)."""
        return np.asarray(values, dtype=np.float64)

    def as_complex(self, arr: np.ndarray) -> np.ndarray:
        return arr.astype(np.complex128, copy=False)

    def all_finite(self, arr: np.ndarray) -> bool:
        return bool(np.isfinite(arr).all())

    def forward(self, values: np.ndarray, n_modes: int, out=None) -> np.ndarray:
        """rfft(values) / K: bins k = 0..K/2 of real samples."""
        return np.fft.rfft(values, axis=-1, norm="forward", out=out)

    def inverse(self, half: np.ndarray, n_modes: int, out=None) -> np.ndarray:
        """Unscaled irfft: the K real samples whose bins k = 0..K/2 are ``half``."""
        return np.fft.irfft(half, n=n_modes, axis=-1, norm="forward", out=out)


def _elementwise(func):
    """``func`` mapped over an object array, evaluated at the ambient precision."""
    return staticmethod(np.frompyfunc(func, 1, 1))


@dataclass(frozen=True)
class ExtendedPrecision:
    """mpmath at ``digits`` decimal digits: object arrays of mpf/mpc.

    Its operations read the ambient mpmath precision, so use them inside
    ``context()``.
    """

    digits: int

    def __post_init__(self) -> None:
        if self.digits < MIN_EXTENDED_DIGITS:
            raise ValueError(
                f"extended mode carries at least {MIN_EXTENDED_DIGITS} digits, "
                f"got {self.digits}"
            )

    pi = mp.pi
    zero = mp.mpc(0)
    real_dtype = complex_dtype = np.dtype(object)

    log = staticmethod(mp.log)
    exp = staticmethod(mp.exp)
    sqrt = staticmethod(mp.sqrt)
    isfinite = staticmethod(mp.isfinite)
    arg = staticmethod(mp.arg)
    scalar = staticmethod(mp.mpf)

    exp_array = _elementwise(mp.exp)
    sin_array = _elementwise(mp.sin)
    real_part = _elementwise(mp.re)

    @staticmethod
    def log_ratio(num: int, den: int):
        return mp.log(mp.mpf(num) / den)

    @staticmethod
    def exp_minus_i(theta):
        return mp.expj(-theta)

    @property
    def label(self) -> str:
        return f"extended{self.digits}"

    @property
    def ulp(self) -> float:
        return float(mp.eps)

    @contextlib.contextmanager
    def context(self):
        with mp.workdps(self.digits):
            yield self

    def real(self, values) -> np.ndarray:
        return np.array([mp.mpf(v) for v in np.asarray(values, dtype=object)], dtype=object)

    def as_complex(self, arr: np.ndarray) -> np.ndarray:
        return arr

    def all_finite(self, arr: np.ndarray) -> bool:
        return all(mp.isfinite(v) for v in arr.ravel())

    def forward(self, values: np.ndarray, n_modes: int, out=None) -> np.ndarray:
        """Bins k = 0..K/2 of the DFT of real samples, divided by K."""
        K = n_modes
        if out is None:
            out = np.empty(values.shape[:-1] + (K // 2 + 1,), dtype=object)
        for index in np.ndindex(values.shape[:-1]):
            bins = _mp_fft([mp.mpc(v) for v in values[index]])
            out[index] = [bins[k] / K for k in range(K // 2 + 1)]
        return out

    def inverse(self, half: np.ndarray, n_modes: int, out=None) -> np.ndarray:
        """Unscaled inverse DFT of the Hermitian spectrum whose bins k = 0..K/2 are ``half``."""
        K = n_modes
        if out is None:
            out = np.empty(half.shape[:-1] + (K,), dtype=object)
        for index in np.ndindex(half.shape[:-1]):
            row = half[index]
            # the exp(+...) transform is the forward FFT under conjugation:
            # the conjugated full spectrum is conj(row) then the mirrored row
            bins = _mp_fft([mp.conj(v) for v in row] + list(row[K // 2 - 1 : 0 : -1]))
            out[index] = [mp.re(mp.conj(v)) for v in bins]
        return out


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


Precision = Union[DoublePrecision, ExtendedPrecision]

DOUBLE = DoublePrecision()
EXTENDED32 = ExtendedPrecision(MIN_EXTENDED_DIGITS)


def transforms_for(arr: np.ndarray) -> Precision:
    """The scalar mode of an array: extended for object arrays, else double.

    An extended mode carries the ambient mpmath precision, raised to at
    least MIN_EXTENDED_DIGITS.
    """
    if arr.dtype == object:
        return ExtendedPrecision(max(mp.mp.dps, MIN_EXTENDED_DIGITS))
    return DOUBLE


def working_context(arr: np.ndarray):
    """Context of the array's scalar mode; entering it yields the mode."""
    return transforms_for(arr).context()


def all_finite(arr: np.ndarray) -> bool:
    """Finiteness check in the array's scalar mode."""
    return transforms_for(arr).all_finite(arr)
