"""Norm module: closed forms, weight monotonicity, refinement behavior."""

import math

import mpmath as mp
import numpy as np
import pytest

from bfamily import EXTENDED32, GridSpec
from bfamily.core import PeriodicField, Spectrum, forward_transform
from bfamily.errors import GevreyOverflowError
from bfamily.norms import GevreyParams, gevrey_norm, sobolev_norm
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


class TestParams:
    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            GevreyParams(order=1.0, radius=-0.1)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            GevreyParams(order=math.nan, radius=0.0)
        with pytest.raises(ValueError):
            GevreyParams(order=0.0, radius=math.inf)

    def test_zero_radius_allowed(self):
        assert GevreyParams(order=2.0, radius=0.0).radius == 0.0


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


class TestGevreyNorm:
    def test_zero_radius_reduces_to_sobolev(self):
        spectrum = noise_spectrum(64, seed=3)
        for order in (0.0, 1.5):
            assert gevrey_norm(spectrum, GevreyParams(order, 0.0)) == sobolev_norm(
                spectrum, order
            )

    def test_sine_unit_radius(self):
        # e^{2*1*1} * (1/4 + 1/4) = e^2 / 2, so the norm is e*sqrt(pi)
        grid = GridSpec(64)
        coeffs = np.zeros(33, dtype=complex)
        coeffs[1] = -0.5j  # and 0.5j at k = -1
        value = gevrey_norm(Spectrum(grid, coeffs), GevreyParams(0.0, 1.0))
        assert abs(value - math.e * math.sqrt(math.pi)) < 1e-14

    def test_sine_unit_radius_from_transform(self):
        # small grid keeps the weight from amplifying transform round-off
        value = gevrey_norm(sin_spectrum(16), GevreyParams(0.0, 1.0))
        assert abs(value - math.e * math.sqrt(math.pi)) < 1e-13

    def test_monotone_in_radius(self):
        spectrum = noise_spectrum(64, seed=5)
        norms = [
            gevrey_norm(spectrum, GevreyParams(1.0, rho)) for rho in (0.0, 0.05, 0.1)
        ]
        assert norms[0] < norms[1] < norms[2]

    def test_overflow_raises(self):
        spec = SyntheticSpec(alpha=1 / 3, delta=0.05, x_star=0.0, amplitude=1.0)
        spectrum = oracle_spectrum(spec, GridSpec(1024))
        with pytest.raises(GevreyOverflowError):
            gevrey_norm(spectrum, GevreyParams(0.0, 1.5))

    def test_refinement_stable_below_strip_width(self):
        # weight radius under the strip width: the sum converges under
        # grid refinement
        spec = SyntheticSpec(alpha=1 / 3, delta=0.3, x_star=0.7, amplitude=1.0)
        params = GevreyParams(0.0, 0.25)
        norms = [
            gevrey_norm(oracle_spectrum(spec, GridSpec(n)), params)
            for n in (128, 256, 512)
        ]
        assert abs(norms[1] / norms[0] - 1.0) < 1e-7
        assert abs(norms[2] / norms[1] - 1.0) < 1e-8

    def test_refinement_divergent_above_strip_width(self):
        # weight radius past the strip width: refinement exposes the
        # divergence instead of converging
        spec = SyntheticSpec(alpha=1 / 3, delta=0.3, x_star=0.7, amplitude=1.0)
        params = GevreyParams(0.0, 0.35)
        norms = [
            gevrey_norm(oracle_spectrum(spec, GridSpec(n)), params)
            for n in (128, 256, 512)
        ]
        assert norms[1] > 1.05 * norms[0]
        assert norms[2] > 50.0 * norms[1]

    def test_extended_reaches_past_double_range(self):
        spectrum = sin_spectrum(16, EXTENDED32)
        value = gevrey_norm(spectrum, GevreyParams(0.0, 400.0))
        assert mp.isfinite(value)
        assert value > mp.mpf("1e308")

    def test_extended_sine_unit_radius(self):
        spectrum = sin_spectrum(16, EXTENDED32)
        value = gevrey_norm(spectrum, GevreyParams(0.0, 1.0))
        with mp.workdps(50):
            assert abs(value - mp.e * mp.sqrt(mp.pi)) < mp.mpf("1e-29")

