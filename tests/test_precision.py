"""Extended results do not depend on the global mpmath precision."""

import mpmath as mp
import numpy as np

from bfamily import (EXTENDED32, TYPE_I, FitOptions, RhsOptions, SyntheticSpec,
                     fit_spectrum, forward_transform, initial_datum, make_grid,
                     oracle_field, oracle_spectrum, sobolev_norm)
from bfamily.integrator import rk4_step


def at_default_and_raised(compute):
    """``compute()`` at the default global precision and under 60 digits."""
    default = compute()
    with mp.workdps(60):
        raised = compute()
    return default, raised


def sine_state(K):
    return forward_transform(initial_datum(TYPE_I, make_grid(K), EXTENDED32))


class TestGlobalPrecisionIgnored:
    def test_rk4_step(self):
        opts = RhsOptions(b=3.0, dealias=True)
        default, raised = at_default_and_raised(lambda: rk4_step(sine_state(16), 1e-2, opts))
        assert all(a == b for a, b in zip(default.coeffs, raised.coeffs, strict=True))

    def test_fit_spectrum(self):
        spec = SyntheticSpec(alpha=0.4, delta=0.2, x_star=0.7)
        default, raised = at_default_and_raised(
            lambda: fit_spectrum(oracle_spectrum(spec, make_grid(256), EXTENDED32),
                                 FitOptions(k_min=16))
        )
        assert default == raised

    def test_sobolev_norm(self):
        default, raised = at_default_and_raised(lambda: sobolev_norm(sine_state(16), 1.5))
        assert default == raised

    def test_transforms_take_global_values_into_the_mode(self):
        # K = 24 reaches the FFT's odd-length branch, where an input is a left operand
        K = 24
        spec = SyntheticSpec(alpha=0.4, delta=0.2, x_star=0.7)
        samples = oracle_field(spec, make_grid(K), EXTENDED32).values
        bins = EXTENDED32.forward(samples, K)
        back = EXTENDED32.inverse(bins, K)
        with mp.workdps(60):
            global_samples = np.array([mp.mpf(v) for v in samples], dtype=object)
            global_bins = np.array([mp.mpc(v) for v in bins], dtype=object)
            forward, inverse = EXTENDED32.forward(global_samples, K), EXTENDED32.inverse(global_bins, K)
        assert all(a == b for a, b in zip(forward, bins, strict=True))
        assert all(a == b for a, b in zip(inverse, back, strict=True))
