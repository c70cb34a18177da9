"""Scalar precision modes: the one seam between double and extended arithmetic.

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
- elementwise array ``exp_array``, ``sin_array`` and ``real_part``, and
  the finiteness test ``all_finite``;
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
that tells the two modes apart; no other module imports mpmath or names
``EXTENDED32`` or a mode's class but to re-export it (a test checks).

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

The extended mode owns a private mpmath context at 32 decimal digits.
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
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Union

import mpmath as mp
import numpy as np
from mpmath.libmp import (from_int, fzero, mpc_add, mpc_add_mpf, mpc_conjugate,
                           mpc_div_mpf, mpc_mul, mpc_sub, mpf_neg, mpf_pos)
from numpy.fft import _pocketfft_umath

# The extended mode's private mpmath context: its values compute at 32 digits.
_CTX = mp.MPContext()
_CTX.dps = 32


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
    the forward gufunc is the even-length one.
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


def _enter(value):
    """``value`` in the extended context, rounded to its precision; an mpf stays an mpf.

    ``convert`` keeps every digit of an mpmath value from another
    context, so a 60-digit value would carry 200 bits into 32-digit
    arithmetic; unary plus rounds it to the context's precision.  A
    package value is already rounded and keeps its bits.
    """
    return +_CTX.convert(value)


def _elementwise(func):
    """``func`` mapped over an object array."""
    return staticmethod(np.frompyfunc(func, 1, 1))


@dataclass(frozen=True)
class ExtendedPrecision:
    """mpmath at 32 decimal digits in a private context: object arrays of mpf/mpc."""

    digits = 32
    label = "extended32"
    real_dtype = complex_dtype = np.dtype(object)
    scalar_types = (_CTX.mpf, _CTX.mpc)
    ulp = float(_CTX.eps)
    pi = _CTX.pi
    zero = _CTX.mpc(0)

    log = staticmethod(_CTX.log)
    exp = staticmethod(_CTX.exp)
    sqrt = staticmethod(_CTX.sqrt)
    isfinite = staticmethod(_CTX.isfinite)
    arg = staticmethod(_CTX.arg)
    scalar = staticmethod(_CTX.mpf)

    exp_array = _elementwise(_CTX.exp)
    sin_array = _elementwise(_CTX.sin)
    real_part = _elementwise(_CTX.re)
    as_complex = _elementwise(_enter)

    @staticmethod
    def log_ratio(num: int, den: int):
        return _CTX.log(_CTX.mpf(num) / den)

    @staticmethod
    def exp_minus_i(theta):
        return _CTX.expj(-theta)

    @contextlib.contextmanager
    def context(self):
        """The global mpmath precision at the mode's digits, for foreign code."""
        with mp.workdps(self.digits):
            yield self

    def real(self, values) -> np.ndarray:
        return np.array([_CTX.mpf(v) for v in np.asarray(values, dtype=object)], dtype=object)

    def text(self, value) -> str:
        """An mpf or mpc to ``digits`` + 2 significant digits, anything else as a float."""
        if isinstance(value, self.scalar_types):
            return mp.nstr(value, self.digits + 2)
        return repr(float(value))

    def all_finite(self, arr: np.ndarray) -> bool:
        return all(_CTX.isfinite(v) for v in arr.ravel())

    def forward(self, values: np.ndarray, n_modes: int, out=None) -> np.ndarray:
        """Bins k = 0..K/2 of the DFT of real samples, divided by K.

        A row whose samples are all real takes ``_mp_fft``'s mirror at
        power-of-two K; a row holding a non-real value, or K = 3 * 2**p,
        takes the full butterflies.
        """
        K = n_modes
        if out is None:
            out = np.empty(values.shape[:-1] + (K // 2 + 1,), dtype=object)
        prec, rounding = _CTX._prec_rounding
        scale = from_int(K)
        power_of_two = K & (K - 1) == 0
        for index in np.ndindex(values.shape[:-1]):
            # what mpc(v) holds: a package mpf rounded, with a zero imaginary part
            row = [(mpf_pos(v._mpf_, prec, rounding), fzero) if type(v) is _CTX.mpf
                   else _CTX.mpc(v)._mpc_ for v in values[index]]
            real = power_of_two and all(z[1] == fzero for z in row)
            bins = _mp_fft(row, real)
            out[index] = [_CTX.make_mpc(mpc_div_mpf(bins[k], scale, prec, rounding))
                          for k in range(K // 2 + 1)]
        return out

    def inverse(self, half: np.ndarray, n_modes: int, out=None) -> np.ndarray:
        """Unscaled inverse DFT of the Hermitian spectrum whose bins k = 0..K/2 are ``half``."""
        K = n_modes
        if out is None:
            out = np.empty(half.shape[:-1] + (K,), dtype=object)
        prec, rounding = _CTX._prec_rounding
        for index in np.ndindex(half.shape[:-1]):
            row = [_complex_tuple(_enter(v)) for v in half[index]]
            # the exp(+...) transform is the forward FFT under conjugation:
            # the conjugated full spectrum is conj(row) then the mirrored row
            full = [mpc_conjugate(z, prec, rounding) for z in row] + row[K // 2 - 1 : 0 : -1]
            out[index] = [_CTX.make_mpf(z[0]) for z in _mp_fft(full)]
        return out

    def near_singular(self, prev: np.ndarray, d: np.ndarray, width: int, rtol: float) -> list:
        """Per row: is any |d[i]| <= rtol * (|prev[i+w]| + |prev[i]|), with w = ``width``?

        ``prev`` holds ``width`` interleaved rows, entry n of row r at
        index n*w + r, and ``d`` is prev[w:] - prev[:-w].  Each row
        walks its own neighbour pairs (i, i + w) and stops at its first
        singular one.  An exponent screen settles most entries without
        mpmath arithmetic.  With mag(x) = exp + bc of x's raw tuple, |x|
        lies in [2**(mag-1), 2**mag), so |a| + |b| < 2**(M+1) for M the
        larger mag of the operands, and rtol * (|a| + |b|), rounded, is
        at most 2**(M+e+1) where 2**(e-1) <= rtol < 2**e.  Hence
        mag(d) >= M + e + 3, that is M + floor(log2 rtol) + 4, means the
        test cannot hold.  A zero difference is singular.  Every other
        entry, inf and nan included (their mantissa is 0, as zero's is),
        and every value that is not an mpf, takes the exact test, the
        double mode's expression applied to the scalars: each operand
        computes at its own type and precision.
        """
        shift = math.frexp(rtol)[1] + 3 if math.isfinite(rtol) else math.inf
        values, diffs = prev.tolist(), d.tolist()
        mags = [_mag(v) for v in values]
        flags = []
        for row in range(width):
            singular = False
            for i in range(row, len(diffs), width):
                diff = diffs[i]
                t = getattr(diff, "_mpf_", None)
                if t is not None and t[1] and t[2] + t[3] >= max(mags[i], mags[i + width]) + shift:
                    continue
                if t == fzero or abs(diff) <= rtol * (abs(values[i + width]) + abs(values[i])):
                    singular = True
                    break
            flags.append(singular)
        return flags


def _complex_tuple(value) -> tuple:
    """The raw ``_mpc_`` tuple of an extended value; an mpf gets a zero imaginary part."""
    return value._mpc_ if hasattr(value, "_mpc_") else (value._mpf_, fzero)


def _mag(value):
    """An exponent m with |value| < 2**m: exp + bc of its raw mpf tuple.

    Zero gets -inf.  Inf, nan and values without a raw mpf tuple get
    +inf, so the screen never settles an entry from their magnitude.
    """
    t = getattr(value, "_mpf_", None)
    if t is None:
        return math.inf
    if t[1]:
        return t[2] + t[3]
    return -math.inf if t == fzero else math.inf


@functools.cache
def _root_tuples(n: int) -> tuple:
    """exp(-2*pi*i*r/n) for r = 0..n-1 as raw ``_mpc_`` tuples, built once per length n."""
    return tuple(_CTX.expjpi(_CTX.mpf(-2 * r) / n)._mpc_ for r in range(n))


def _mp_fft(a: list, real: bool = False) -> list:
    """Radix-2 forward DFT, sum_j a_j exp(-2*pi*i*j*k/n), on raw ``_mpc_`` tuples.

    The butterflies call libmp's ``mpc_add``, ``mpc_sub`` and ``mpc_mul``
    at the extended context's precision and rounding: the functions
    that mpc's operators call, with the operands in the same order, so
    every output bit is the one mpc arithmetic gives.  The twiddles come
    from the length's cached root table (``_root_tuples``): the same
    values that ``expjpi`` returns per butterfly, computed once.  The
    m = 0 butterfly of each radix-2 combine skips its multiply by the
    exact root 1; that multiply only rounds ``odd[0]`` to the context's
    precision, so the skip keeps every output bit as long as the inputs
    sit at that precision, which the transforms' entry rounding
    (``_enter``, or ``mpc`` of a real sample) guarantees.  Odd lengths,
    reached at K = 3 * 2**p, run the direct sum with the table indexed
    by (j*k) mod n, added up as Python's ``sum`` adds mpc values.

    ``real`` says that every input is real (imaginary part ``fzero``)
    and n is a power of two.  Each combine then computes its butterflies
    for m = 0..half/2 only and fills the other outputs as
    conj(out[n - k]).  The mirror keeps every bit: the sub-transforms of
    real input are bitwise Hermitian (by induction), the root tables of
    power-of-two lengths satisfy roots[half - m] == -conj(roots[m]) bit
    for bit, and round-to-nearest is symmetric in sign, so the
    butterfly at half - m computes exactly the conjugate of the one at
    m.  ``_root_tuples(3)`` breaks that identity, so lengths 3 * 2**p take
    the full path.
    """
    n = len(a)
    if n == 1:
        return list(a)
    prec, rounding = _CTX._prec_rounding
    roots = _root_tuples(n)
    if n % 2:
        out = []
        for k in range(n):
            total = mpc_add_mpf(mpc_mul(a[0], roots[0], prec, rounding), fzero, prec, rounding)
            for j in range(1, n):
                total = mpc_add(total, mpc_mul(a[j], roots[(j * k) % n], prec, rounding),
                                prec, rounding)
            out.append(total)
        return out
    half = n // 2
    even = _mp_fft(a[0::2], real)
    odd = _mp_fft(a[1::2], real)
    out = [None] * n
    out[0] = mpc_add(even[0], odd[0], prec, rounding)
    out[half] = mpc_sub(even[0], odd[0], prec, rounding)
    stop = half // 2 + 1 if real else half
    for m in range(1, stop):
        tw = mpc_mul(roots[m], odd[m], prec, rounding)
        out[m] = mpc_add(even[m], tw, prec, rounding)
        out[m + half] = mpc_sub(even[m], tw, prec, rounding)
    if real:
        for k in itertools.chain(range(stop, half), range(half + stop, n)):
            re, im = out[n - k]
            out[k] = re, mpf_neg(im)
    return out


Precision = Union[DoublePrecision, ExtendedPrecision]

DOUBLE = DoublePrecision()
EXTENDED32 = ExtendedPrecision()
MODES = {mode.label: mode for mode in (DOUBLE, EXTENDED32)}


def transforms_for(arr: np.ndarray) -> Precision:
    """The scalar mode of an array: extended for object arrays, else double."""
    return EXTENDED32 if arr.dtype == object else DOUBLE
