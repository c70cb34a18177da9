"""Scalar precision modes.

Every numerical routine in the package runs in one of two scalar modes:
IEEE double (numpy float64/complex128 arrays) or extended decimal
precision backed by mpmath (object arrays of mpf/mpc).  The mode is
chosen when a field or spectrum is built; downstream arithmetic follows
the array dtype, so a single code path serves both.

mpmath evaluates transcendentals at the *ambient* working precision, so
extended-mode entry points must run inside a context that pins the digit
count.  ``working_context`` builds that context from the arrays at hand:
a no-op for float data, ``mp.workdps`` with at least MIN_EXTENDED_DIGITS
for object data (an already-raised ambient precision is honoured).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import mpmath as mp
import numpy as np

# Extended mode guarantees at least this many significant decimal digits.
MIN_EXTENDED_DIGITS = 32

_DOUBLE_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class Precision:
    """Scalar mode: ``digits=None`` means IEEE double, else decimal digits."""

    digits: int | None = None

    def __post_init__(self) -> None:
        if self.digits is not None and self.digits < MIN_EXTENDED_DIGITS:
            raise ValueError(
                f"extended mode carries at least {MIN_EXTENDED_DIGITS} digits, "
                f"got {self.digits}"
            )

    @property
    def is_double(self) -> bool:
        return self.digits is None

    @property
    def eps(self) -> float:
        """Unit round-off of the mode (decimal approximation for extended)."""
        if self.digits is None:
            return _DOUBLE_EPS
        return float(mp.mpf(10) ** (1 - self.digits))

    def context(self):
        """Context manager pinning the mpmath working precision."""
        if self.digits is None:
            return contextlib.nullcontext()
        return mp.workdps(self.digits)

    @property
    def label(self) -> str:
        return "double" if self.digits is None else f"extended{self.digits}"


DOUBLE = Precision()
EXTENDED32 = Precision(MIN_EXTENDED_DIGITS)


def is_extended_array(arr: np.ndarray) -> bool:
    return arr.dtype == object


def working_context(*arrays: np.ndarray):
    """Precision context inferred from array dtypes.

    Object arrays get an mpmath context with at least
    MIN_EXTENDED_DIGITS decimal digits; a caller that already raised the
    ambient precision keeps it.  Plain float/complex arrays get a no-op.
    """
    if any(is_extended_array(a) for a in arrays):
        return mp.workdps(max(mp.mp.dps, MIN_EXTENDED_DIGITS))
    return contextlib.nullcontext()


def ulp_for(arr: np.ndarray) -> float:
    """Unit round-off matching the array's scalar mode.

    For object arrays this reads the ambient mpmath precision, so call
    it inside the relevant ``working_context``.
    """
    if is_extended_array(arr):
        return float(mp.eps)
    return _DOUBLE_EPS


def all_finite(arr: np.ndarray) -> bool:
    """Finiteness check that also understands mpmath scalars."""
    if is_extended_array(arr):
        return all(mp.isfinite(v) for v in arr.ravel())
    return bool(np.isfinite(arr).all())
