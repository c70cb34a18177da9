"""Spectral operators and the b-family right-hand side.

The b-family on the periodic domain, written for the velocity field,

    u_t + u u_x = -(1 - d_xx)^{-1} d_x [ (b/2) u^2 + ((3-b)/2) u_x^2 ],

turns into one ODE per Fourier mode:

    d/dt u_hat[k] = -( (u u_x)_hat[k]
                       + (i k / (1 + k^2)) * ( (b/2) (u^2)_hat[k]
                                               + ((3-b)/2) (u_x^2)_hat[k] ) ).

Products are evaluated pointwise on the grid (pseudospectral).  The
unpaired Nyquist mode is annihilated by odd-symbol multipliers and
zeroed after every nonlinear evaluation; the k = 0 component of the
right-hand side vanishes identically (the advective product has zero
discrete mean and the multiplier vanishes at k = 0), so it is forced to
exact zero and the mean is conserved to the last bit.

``RhsKernel`` evaluates the right-hand side on the rfft half layout
(modes k = 0..K/2) with one batched inverse transform of (u_hat,
ik u_hat) and one batched forward transform of the three products.
The mode's transforms are the plain pair (rfft / K and an unscaled
irfft); the grid's sign (-1)**k, which turns their bins into
coefficients, sits in the kernel's tables together with ik and the
input zeroing, so entering and leaving spectral space cost one multiply
each.  The tables, the constants b/2 and (3-b)/2 and the scratch
buffers are built once per (K, b, dealias, scalar mode) and cached by
``rhs_kernel``.  One evaluation makes fifteen numpy calls, the two
transforms included, and no overflow guard: its callers enter one
``np.errstate`` and run one finiteness check around it.  ``rk4_step``
guards a whole step that way, and ``rhs`` its one evaluation.  A check
of the result sees every overflow of the evaluation: a non-finite value
in physical space reaches every bin of the forward transform, and a
multiply by zero keeps it NaN.  The nonlocal symbol ik / (1 + k^2), that is
(1 - d_xx)^{-1} d_x, exists only as the kernel's ``symbol`` table.
``Spectrum`` stores the same layout, so ``rhs`` and ``derivative`` act
on its coefficients directly.  The same code serves double and
extended precision; the transform pair, the tables and the buffer
dtypes come from the scalar mode (``precision.transforms_for``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import GridSpec, Spectrum, check_real, grid_signs
from .errors import BlowUpOverflowError, ConfigError
from .precision import Precision, transforms_for


@dataclass(frozen=True)
class RhsOptions:
    """Equation family parameter and evaluation switches.

    b selects the member of the family (2: Camassa-Holm, 3:
    Degasperis-Procesi).  With ``dealias`` the upper third of modes is
    zeroed before and after products (two-thirds rule); the default
    keeps the full spectrum.  ``b`` must be a finite real number
    (``check_real``) and ``dealias`` a bool; anything else is a
    ConfigError.
    """

    b: float
    dealias: bool = False

    def __post_init__(self) -> None:
        check_real("b", self.b)
        if not isinstance(self.dealias, bool):
            raise ConfigError(f"dealias must be a bool, got {self.dealias!r}")


def dealias_cutoff(n_modes: int) -> int:
    """Largest retained |k| under the two-thirds rule.

    Chosen as the largest integer with 3*cutoff < K, so quadratic
    aliases k1 + k2 - K of retained modes land strictly outside the
    retained band.
    """
    return (n_modes - 1) // 3


def _symbols(transforms: Precision, wavenumbers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symbols i*k and i*k / (1 + k^2) in the transforms' scalar mode."""
    k = transforms.real(wavenumbers)
    ik = 1j * k
    return ik, ik / (1 + k * k)


def derivative(spectrum: Spectrum) -> Spectrum:
    """First spectral derivative: u_hat[k] -> i k u_hat[k].

    The Nyquist slot is zeroed: the unpaired mode has no conjugate
    partner, and an imaginary multiple of it cannot belong to a real
    field.
    """
    ik, _ = _symbols(transforms_for(spectrum.coeffs), spectrum.grid.wavenumbers())
    coeffs = spectrum.coeffs * ik
    coeffs[-1] *= 0
    return Spectrum(spectrum.grid, coeffs)


class RhsKernel:
    """The right-hand side on half spectra (modes k = 0..K/2).

    Instances are shared through ``rhs_kernel``, one per grid, equation
    and scalar mode.  The last slot of a half spectrum is the unpaired
    Nyquist mode, so the slice ``[keep:]`` with ``keep = cutoff + 1`` is
    the upper third removed by dealiasing.

    The mode's transform pair is the plain one (bins = rfft / K, and an
    unscaled irfft back), and bin k is (-1)**k times the coefficient
    u_hat[k] (``core.grid_signs``).  Read-only tables, built once in the
    mode's scalar type, fold that sign, the derivative and the input
    zeroing into one multiply on the way in, and the sign into one
    multiply on the way back:

    - ``to_bins`` (2, K/2+1): rows (-1)**k and (-1)**k * ik, zero on the
      dealiased band; the second row is also zero in the Nyquist slot,
      where the odd symbol ik has no real counterpart.  One multiply
      turns the state into the bins of (u, u_x).
    - ``from_bins`` (K/2+1): (-1)**k, turning product bins back into
      coefficients.
    - ``symbol``: ik / (1 + k^2); ``weights``: the column (b/2, (3-b)/2).

    The Nyquist slot and the dealiased band of the products are then
    zeroed through a fixed view of the product buffer.  Zeroing is a
    multiply by 0 after the sign, not a zero in ``from_bins``: no single
    table reproduces the signed zeros of scaling and then zeroing, and
    the kernel keeps its results bit for bit.

    Besides its tables, an instance owns the scratch buffers of one
    evaluation: the bins of (u, u_x), their physical values, the three
    products in physical space and in spectral space, the two weighted
    products and the nonlocal term.  Each stage writes into them with
    ufunc ``out=``, through row views bound once here, and the zeroing
    multiplies by a 0-d zero of the mode's complex dtype: the same ufunc
    loops as indexing per call and a Python scalar zero, so the same
    bits.  Only the time derivative that ``__call__`` returns is freshly
    allocated, so it shares memory with no buffer and with no earlier
    result.  The buffers make an instance serve one evaluation at a
    time: it is not safe to evaluate from several threads at once.

    ``__call__`` is the kernel's one method, and it is bare arithmetic:
    it neither silences numpy's overflow warnings nor checks its result,
    so its callers do both (see the module docstring).
    """

    def __init__(self, n_modes: int, options: RhsOptions, transforms: Precision) -> None:
        self.n_modes = n_modes
        self.transforms = transforms
        n_half = n_modes // 2 + 1
        keep = dealias_cutoff(n_modes) + 1 if options.dealias else n_half
        signs = grid_signs(n_modes)
        kept = signs.copy()
        kept[keep:] = 0.0
        to_bins = transforms.as_complex(transforms.real(kept))
        ik, self.symbol = _symbols(transforms, np.arange(n_half))
        ik[-1] *= 0
        self.to_bins = np.stack([to_bins, to_bins * ik])
        self.from_bins = transforms.as_complex(transforms.real(signs))
        b = transforms.scalar(options.b)
        self.weights = np.array([[b / 2], [(3 - b) / 2]], dtype=transforms.complex_dtype)
        for table in (self.to_bins, self.from_bins, self.symbol, self.weights):
            table.setflags(write=False)
        spectral, physical = transforms.complex_dtype, transforms.real_dtype
        self._fields = np.empty((2, n_half), spectral)
        self._physical = np.empty((2, n_modes), physical)
        self._values = np.empty((3, n_modes), physical)
        self._products = np.empty((3, n_half), spectral)
        # the Nyquist slot, and with dealiasing the whole upper third
        self._zeroed = self._products[:, min(keep, n_half - 1) :]
        self._zero = np.array(transforms.zero, dtype=spectral)
        self._weighted = np.empty((2, n_half), spectral)
        self._nonlocal = np.empty(n_half, spectral)
        # row views: u and u_x; u u_x and (u^2, u_x^2) in physical and spectral space;
        # (b/2) u^2 and ((3-b)/2) u_x^2 in spectral space
        self._u, self._u_x = self._physical
        self._advective, self._squares = self._values[0], self._values[1:]
        self._advective_hat, self._squares_hat = self._products[0], self._products[1:]
        self._weighted_u2, self._weighted_u_x2 = self._weighted

    def __call__(self, half: np.ndarray) -> np.ndarray:
        """Time derivative of the half spectrum, in a fresh array; its k = 0 slot is exact zero.

        The half spectra of (u u_x, u^2, u_x^2) are formed in the
        product buffer, with the Nyquist slots (and, with dealiasing,
        the upper third) zeroed, then weighted and combined.  Unguarded:
        the caller silences overflow warnings and checks the result (or
        a later value that it reaches) for finiteness.
        """
        fields = np.multiply(half, self.to_bins, out=self._fields)
        physical = self.transforms.inverse(fields, self.n_modes, out=self._physical)
        np.multiply(self._u, self._u_x, out=self._advective)
        np.multiply(physical, physical, out=self._squares)
        products = self.transforms.forward(self._values, self.n_modes, out=self._products)
        products *= self.from_bins
        self._zeroed *= self._zero
        np.multiply(self._squares_hat, self.weights, out=self._weighted)
        nonlocal_part = np.add(self._weighted_u2, self._weighted_u_x2, out=self._nonlocal)
        nonlocal_part *= self.symbol
        nonlocal_part += self._advective_hat
        out = np.negative(nonlocal_part)
        out[0] *= 0
        return out


@functools.lru_cache(maxsize=32)
def _cached_kernel(n_modes: int, options: RhsOptions, transforms: Precision) -> RhsKernel:
    return RhsKernel(n_modes, options, transforms)


def rhs_kernel(grid: GridSpec, options: RhsOptions, coeffs: np.ndarray) -> RhsKernel:
    """The cached kernel for this grid, equation and the scalar mode of ``coeffs``."""
    return _cached_kernel(grid.n_modes, options, transforms_for(coeffs))


def rhs(spectrum: Spectrum, options: RhsOptions) -> Spectrum:
    """Time derivative of the spectrum under the b-family dynamics.

    The k = 0 component is set to exact zero: the advective product has
    zero discrete mean (its positive and negative wavenumber
    contributions cancel in exact arithmetic) and the nonlocal symbol
    vanishes at k = 0, so zeroing only removes round-off.  Raises
    BlowUpOverflowError when the result is not finite.
    """
    kernel = rhs_kernel(spectrum.grid, options, spectrum.coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        result = kernel(spectrum.coeffs)
    if not kernel.transforms.all_finite(result):
        raise BlowUpOverflowError("the right-hand side overflowed: its result is not finite")
    return Spectrum(spectrum.grid, result)
