"""Norm module: closed forms, order monotonicity, overflow and bit identity."""

import math

import mpmath as mp
import numpy as np
import pytest

from bfamily import EXTENDED32, GridSpec
from bfamily.core import PeriodicField, Spectrum, forward_transform
from bfamily.errors import BlowUpOverflowError
from bfamily.norms import sobolev_norm
from bfamily.precision import DOUBLE
from bfamily.synthetic import SyntheticSpec, oracle_spectrum

from oracles import random_hermitian_spectrum


def sin_spectrum(n_modes, precision=None):
    grid = GridSpec(n_modes)
    if precision is None:
        return forward_transform(PeriodicField(grid, np.sin(grid.nodes())))
    x = grid.nodes(precision)
    with precision.context():
        values = np.array([mp.sin(xj) for xj in x], dtype=object)
    return forward_transform(PeriodicField(grid, values))


def noise_spectrum(n_modes, seed):
    return random_hermitian_spectrum(GridSpec(n_modes), np.random.default_rng(seed))


class TestSobolevNorm:
    # Parseval with this transform convention: L2 norm over the period
    # equals sqrt(2*pi * sum |u_hat|^2).

    def test_sine_l2(self):
        assert abs(sobolev_norm(sin_spectrum(64), 0.0) - math.sqrt(math.pi)) < 1e-14

    def test_sine_h1(self):
        # (1+1) * (1/4 + 1/4) = 1
        assert abs(sobolev_norm(sin_spectrum(64), 1.0) - math.sqrt(2 * math.pi)) < 1e-14

    def test_zero_field(self):
        grid = GridSpec(32)
        spectrum = Spectrum(grid, np.zeros(17, dtype=complex))
        assert sobolev_norm(spectrum, 3.0) == 0.0

    def test_constant_field_order_free(self):
        # only the k = 0 slot carries energy, so the order cannot matter
        grid = GridSpec(32)
        coeffs = np.zeros(17, dtype=complex)
        coeffs[0] = 2.0
        spectrum = Spectrum(grid, coeffs)
        expected = 2.0 * math.sqrt(2.0 * math.pi)
        assert abs(sobolev_norm(spectrum, 0.0) - expected) < 1e-14
        assert abs(sobolev_norm(spectrum, 7.5) - expected) < 1e-14

    def test_monotone_in_order(self):
        spectrum = noise_spectrum(64, seed=11)
        norms = [sobolev_norm(spectrum, r) for r in (0.0, 1.0, 2.0)]
        assert norms[0] < norms[1] < norms[2]

    def test_extended_sine(self):
        spectrum = sin_spectrum(16, EXTENDED32)
        value = sobolev_norm(spectrum, 0.0)
        with mp.workdps(50):
            assert abs(value - mp.sqrt(mp.pi)) < mp.mpf("1e-30")

    def test_extended_reaches_past_double_range(self):
        # sin x alone, |u_hat| = 1/2 at k = +-1: the norm is sqrt(pi) * 2^(order/2)
        sine = sin_spectrum(16, EXTENDED32)
        coeffs = sine.coeffs.copy()
        coeffs[0] *= 0
        coeffs[2:] *= 0
        value = sobolev_norm(Spectrum(sine.grid, coeffs), 2100.0)
        assert value > mp.mpf("1e308")
        with mp.workdps(50):
            assert abs(value / (mp.sqrt(mp.pi) * mp.mpf(2) ** 1050) - 1) < mp.mpf("1e-30")

    def test_overflow_raises(self):
        # (1 + k^2)^200 passes 1e313 from k = 6 on, where |u_hat| is still about 1e-2
        spec = SyntheticSpec(alpha=1 / 3, delta=0.05, x_star=0.0, amplitude=1.0)
        spectrum = oracle_spectrum(spec, GridSpec(1024))
        with pytest.raises(BlowUpOverflowError):
            sobolev_norm(spectrum, 200.0)

    @pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf])
    def test_nonfinite_order_rejected(self, order):
        with pytest.raises(ValueError):
            sobolev_norm(sin_spectrum(16), order)

    @pytest.mark.parametrize("source", ["random", "oracle", "oracle-extended", "sine-extended"])
    def test_bits_equal_the_weighted_sum(self, source):
        # the norm is this sum, operation for operation: a reordering
        # shows in the last bit
        spec = SyntheticSpec(alpha=1 / 3, delta=0.2, x_star=0.7)
        spectrum = {
            "random": lambda: noise_spectrum(64, seed=23),
            "oracle": lambda: oracle_spectrum(spec, GridSpec(64)),
            "oracle-extended": lambda: oracle_spectrum(spec, GridSpec(64), EXTENDED32),
            "sine-extended": lambda: sin_spectrum(16, EXTENDED32),
        }[source]()
        precision = EXTENDED32 if source.endswith("extended") else DOUBLE
        k = precision.real(spectrum.grid.wavenumbers())
        for order in (0.0, 1.0, 1.5, 3.0):
            weights = (1 + k**2) ** order
            weights[1:-1] *= 2
            total = np.sum(weights * np.abs(spectrum.coeffs) ** 2)
            expected = precision.sqrt(2 * precision.pi * total)
            got = sobolev_norm(spectrum, order)
            if precision is DOUBLE:
                assert got.hex() == expected.hex()
            else:
                assert got._mpf_ == expected._mpf_
