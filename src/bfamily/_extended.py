"""The extended32 mode's implementation, loaded on the mode's first use.

``precision.EXTENDED32`` knows its label, digits and dtypes without this
module.  Reading any other of its attributes imports this module, which
imports mpmath and builds the mode's private 32-digit context; the mode
then holds every attribute of ``ExtendedOperations`` (``operations``),
methods bound to the mode.  A double-precision run never imports it.  Only ``precision`` imports it: the two modules are
the one seam between double and extended arithmetic.

Extended values pickle: ``copyreg`` reducers rebuild an mpf or mpc of
the private context from its raw ``_mpf_``/``_mpc_`` tuple, bit for bit,
so a sweep's workers can return extended traces.
"""

from __future__ import annotations

import contextlib
import copyreg
import functools
import itertools
import math

import mpmath as mp
import numpy as np
from mpmath.libmp import (from_int, fzero, mpc_add, mpc_add_mpf, mpc_conjugate,
                           mpc_div_mpf, mpc_mul, mpc_sub, mpf_neg, mpf_pos)

# The extended mode's private mpmath context: its values compute at 32 digits.
_CTX = mp.MPContext()
_CTX.dps = 32


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


class ExtendedOperations:
    """mpmath at 32 decimal digits in a private context: object arrays of mpf/mpc.

    The attributes of ``precision.EXTENDED32`` that need mpmath; the
    methods are bound to that mode object, which holds ``digits``.
    """

    scalar_types = (_CTX.mpf, _CTX.mpc)
    ulp = float(_CTX.eps)
    pi = +_CTX.pi  # an mpf of the context, which pickles; the constant does not
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


def operations(mode) -> dict:
    """Every attribute of ``ExtendedOperations`` as ``mode`` holds it: methods bound to ``mode``."""
    return {name: value.__get__(mode) if hasattr(type(value), "__get__") else value
            for name, value in vars(ExtendedOperations).items() if not name.startswith("__")}


def _mpf_from_tuple(raw: tuple):
    return _CTX.make_mpf(raw)


def _mpc_from_tuple(raw: tuple):
    return _CTX.make_mpc(raw)


# An extended value's class belongs to the private context, which pickle cannot
# find by name; each value pickles as its raw tuple and is rebuilt in this context.
copyreg.pickle(_CTX.mpf, lambda value: (_mpf_from_tuple, (value._mpf_,)))
copyreg.pickle(_CTX.mpc, lambda value: (_mpc_from_tuple, (value._mpc_,)))
