"""Scalar precision modes: with ``_extended``, the one seam between double and extended arithmetic.

Every numerical routine in the package runs in one of two scalar modes:
IEEE double (numpy float64/complex128 arrays) or extended decimal
precision backed by mpmath (object arrays of mpf/mpc).  The modes are
the objects ``DOUBLE`` and ``EXTENDED32`` (``Precision`` is their type,
and ``MODES`` maps each mode's ``label`` to it), and each supplies
every operation whose double and extended forms differ:

- the half-layout transform pair ``forward``/``inverse`` (pocketfft's
  real-input gufuncs, or a radix-2 FFT on raw mpmath tuples with root
  tables cached per transform length, which mirrors half the
  butterflies of real input at power-of-two lengths), which write into
  an ``out=`` array when given one.  It is the plain pair in numpy's
  ``norm="forward"`` convention: ``forward`` returns the bins
  k = 0..K/2 of rfft(x) / K and ``inverse`` is the unscaled irfft.  The
  grid's sign (-1)**k that turns bins into coefficients, and forcing
  k = 0 and K/2 real, are left to the callers: ``core``'s transforms
  and the tables of ``spectral.RhsKernel``;
- scalar ``log``, ``log_ratio`` (log(num/den) of two integers), ``exp``,
  ``sqrt``, ``arg``, ``exp_minus_i`` (exp(-i*theta)) and ``isfinite``,
  and the constants ``pi`` and ``zero`` (a complex zero);
- the elementwise ``sin_array`` and the finiteness test ``all_finite``;
- ``text``, a scalar as result files print it: a float's ``repr``, or
  ``digits`` + 2 significant digits of the extended mode's own values;
- ``near_singular``, the Wynn epsilon table's test for a near-singular
  difference, one flag per row of a table whose rows are interleaved in
  one flat array: numpy's expression for doubles, and an exponent
  screen before the exact test for extended values;
- conversions ``scalar``, ``real`` (to a real working-precision array)
  and ``as_complex``, and the array dtypes ``real_dtype`` and
  ``complex_dtype`` for preallocated buffers;
- the unit round-off ``ulp``, the decimal ``digits`` and ``label``, the
  ``scalar_types`` of the mode's own scalars (empty for double), and a
  ``context()`` for code outside the package.

A function reads its mode once, from a ``Precision`` argument, from an
array (``transforms_for``) or from a label (``MODES``), and then runs
one code path.  The dtype test in ``transforms_for`` is the only place
that tells the two modes apart.  The seam is this module and its private
``_extended``, which holds the extended implementation; no other module
imports mpmath or ``_extended``, or names ``EXTENDED32`` or a mode's
class but to re-export it (a test checks).

The extended mode loads on first use.  ``EXTENDED32`` knows its
``label``, ``digits`` and dtypes without mpmath, so reading the mode,
building a config with it or parsing ``precision = extended32`` imports
nothing.  Its first other attribute read imports ``_extended`` (mpmath
and the mode's context) and binds every operation onto the object,
where later reads find them as instance attributes.  A double run never
imports mpmath.  Both modes pickle by reference, ``EXTENDED32`` before
and after that first use, so a sweep's tasks carry a mode to the
workers as the same object.

The double mode binds scalar ``math`` functions for scalar operations
and numpy functions for array operations, and ``log_ratio`` takes
``math.log1p`` of the excess over the smaller integer where the
extended mode takes the log of the ratio.  Scalar ``math.log`` and
array ``np.log`` (likewise ``abs`` and ``np.abs``) differ in the last
bit on some inputs, so swapping one for the other changes double
results.

The double transforms call the gufuncs ``rfft_n_even`` and ``irfft``
of numpy's private module ``numpy.fft._pocketfft_umath`` (numpy >= 2.0,
the floor in pyproject.toml), bound once at import.  They are what
``np.fft.rfft`` and ``np.fft.irfft`` call: the public wrappers only pick
the gufunc, work out the scale factor (1/K for the forward transform
and 1 for the inverse in the ``norm="forward"`` convention), normalise
the axis and check or allocate ``out``.  Skipping that per-call work
keeps every output bit and took 40-50% off each transform at K = 256
(numpy 2.4 on a 2-core x86-64 host), where the right-hand side's two
transforms per evaluation are mostly call overhead.

The extended mode owns a private mpmath context at 32 decimal digits
(``_extended._CTX``), whose values pickle bit for bit.
An mpmath value carries its context, so arithmetic and functions on
extended values run at 32 digits whatever the global mpmath precision
is, and no caller enters anything.  Object arrays from outside the
package enter that context where they become package values: in
``Spectrum`` (through ``as_complex``) and in the inputs of the extended
transforms.  Entry rounds each value to the context's precision, so a
value computed at 60 digits does not carry its extra bits into the
mode's arithmetic.  ``context()`` sets the *global* mpmath precision to
the mode's digits, for foreign code only: a user callable that calls
global ``mpmath`` functions, or a test's own reference.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.fft import _pocketfft_umath

# The gufuncs behind np.fft.rfft (even lengths) and np.fft.irfft, called directly.
_RFFT = _pocketfft_umath.rfft_n_even
_IRFFT = _pocketfft_umath.irfft


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
    """IEEE double: complex128/float64 arrays, pocketfft transforms, ``math`` scalars.

    Transforms act along the last axis, so a stack of fields or half
    spectra is transformed in one call.  They call the pocketfft gufuncs
    that ``np.fft.rfft``/``irfft`` call (``_RFFT``, ``_IRFFT``, from
    numpy's private ``numpy.fft._pocketfft_umath``, numpy >= 2.0) with
    the factors those wrappers pass: the same bits, without the
    wrappers' per-call work.  K is even (``GridSpec`` requires it), so
    the forward gufunc is the even-length one.  The object pickles by
    reference, as ``DOUBLE``.
    """

    digits = 15  # decimal digits a double always carries
    label = "double"
    real_dtype = np.dtype(np.float64)
    complex_dtype = np.dtype(np.complex128)
    ulp = float(np.finfo(np.float64).eps)
    pi = math.pi
    zero = 0j
    scalar_types = ()

    log = staticmethod(math.log)
    log_ratio = staticmethod(_double_log_ratio)
    exp = staticmethod(math.exp)
    sqrt = staticmethod(math.sqrt)
    isfinite = staticmethod(math.isfinite)
    arg = staticmethod(_double_arg)
    exp_minus_i = staticmethod(_double_exp_minus_i)
    scalar = staticmethod(float)

    sin_array = staticmethod(np.sin)

    def context(self):
        return contextlib.nullcontext(self)

    def __reduce__(self) -> str:
        return "DOUBLE"

    def real(self, values) -> np.ndarray:
        """Real numbers as a working-precision array (float64)."""
        return np.asarray(values, dtype=np.float64)

    def as_complex(self, arr: np.ndarray) -> np.ndarray:
        return arr.astype(np.complex128, copy=False)

    def text(self, value) -> str:
        return repr(float(value))

    def all_finite(self, arr: np.ndarray) -> bool:
        return bool(np.isfinite(arr).all())

    def forward(self, values: np.ndarray, n_modes: int, out=None) -> np.ndarray:
        """rfft(values) / K: bins k = 0..K/2 of real samples, for even K.

        ``np.fft.rfft(values, norm="forward")`` bit for bit: the same
        gufunc with the same factor 1/K.  The gufunc takes the number of
        bins from ``out``, so one of shape (..., K/2+1) is allocated
        when none is given.
        """
        if out is None:
            out = np.empty(values.shape[:-1] + (n_modes // 2 + 1,), np.complex128)
        return _RFFT(values, 1 / n_modes, out=out)

    def inverse(self, half: np.ndarray, n_modes: int, out=None) -> np.ndarray:
        """Unscaled irfft: the K real samples whose bins k = 0..K/2 are ``half``.

        ``np.fft.irfft(half, n=K, norm="forward")`` bit for bit: the
        same gufunc with the same factor 1.  The gufunc takes K from
        ``out``, so one of shape (..., K) is allocated when none is
        given.
        """
        if out is None:
            out = np.empty(half.shape[:-1] + (n_modes,), np.float64)
        return _IRFFT(half, 1.0, out=out)

    def near_singular(self, prev: np.ndarray, d: np.ndarray, width: int, rtol: float) -> list:
        """Per row: is any |d[i]| <= rtol * (|prev[i+w]| + |prev[i]|), with w = ``width``?

        ``prev`` holds ``width`` interleaved rows, entry n of row r at
        index n*w + r, and ``d`` is prev[w:] - prev[:-w], so d[i]
        belongs to row i mod w.  One flag array covers the whole table;
        it is reduced per row only when some flag is set.
        """
        mag = np.abs(prev)
        flags = np.abs(d) <= rtol * (mag[width:] + mag[:-width])
        if not np.count_nonzero(flags):
            return [False] * width
        return flags.reshape(-1, width).any(axis=0).tolist()


@dataclass(frozen=True)
class ExtendedPrecision:
    """mpmath at 32 decimal digits in a private context: object arrays of mpf/mpc.

    The label, digits and dtypes are known without mpmath.  Reading any
    other attribute loads ``_extended`` once and binds all of its
    operations onto the object (``_extended.operations``), where every
    later lookup finds them.  The object pickles by reference, as
    ``EXTENDED32``, before and after that first use.
    """

    digits = 32
    label = "extended32"
    real_dtype = complex_dtype = np.dtype(object)

    def __getattr__(self, name: str):
        # only reached for a name the object does not hold yet
        if name.startswith("_"):
            raise AttributeError(name)
        from . import _extended

        vars(self).update(_extended.operations(self))
        try:
            return vars(self)[name]
        except KeyError:
            raise AttributeError(name) from None

    def __reduce__(self) -> str:
        return "EXTENDED32"


Precision = Union[DoublePrecision, ExtendedPrecision]

DOUBLE = DoublePrecision()
EXTENDED32 = ExtendedPrecision()
MODES = {mode.label: mode for mode in (DOUBLE, EXTENDED32)}


def transforms_for(arr: np.ndarray) -> Precision:
    """The scalar mode of an array: extended for object arrays, else double."""
    return EXTENDED32 if arr.dtype == object else DOUBLE
