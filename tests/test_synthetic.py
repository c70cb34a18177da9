"""Oracle-field module: closed-form coefficients against independent references."""

import math

import mpmath as mp
import numpy as np
import pytest

from bfamily import DOUBLE, EXTENDED32, GridSpec
from bfamily.core import forward_transform
from bfamily.errors import ConfigError
from bfamily.synthetic import SyntheticSpec, oracle_spectrum

from oracles import branch_point_series_coefficient, oracle_field


class TestSpecValidation:
    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(alpha=0.5, delta=0.0, x_star=0.0)
        with pytest.raises(ConfigError):
            SyntheticSpec(alpha=0.5, delta=-0.1, x_star=0.0)

    def test_nonpositive_amplitude_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(alpha=0.5, delta=0.2, x_star=0.0, amplitude=0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(alpha=math.nan, delta=0.2, x_star=0.0)

    @pytest.mark.parametrize("name", ["alpha", "delta", "x_star", "amplitude"])
    @pytest.mark.parametrize("value", ["0.5", None, True, 0.5j], ids=["str", "None", "bool", "complex"])
    def test_rejects_a_field_that_is_not_a_real_number(self, name, value):
        fields = {"alpha": 0.5, "delta": 0.2, "x_star": 0.0, "amplitude": 1.0, name: value}
        with pytest.raises(ConfigError, match=f"{name} must be a real number, got"):
            SyntheticSpec(**fields)

    def test_integer_alpha_permitted(self):
        # degenerate truncating member of the family, still constructible
        SyntheticSpec(alpha=1.0, delta=0.2, x_star=0.0)


class TestCoefficients:
    """Closed-form coefficients, read off the oracle spectrum of a grid whose K/2 exceeds k."""

    def test_recurrence_matches_gamma_reference(self):
        # independent reference computes binom(alpha, k) through Gamma
        # functions at 60 digits; the recurrence must agree
        for alpha in (1 / 3, 3 / 5, 2 / 3, -0.5, 0.41):
            for x_star in (0.0, 1.0, -math.pi / 2):
                spec = SyntheticSpec(alpha=alpha, delta=0.2, x_star=x_star, amplitude=2.5)
                coeffs = oracle_spectrum(spec, GridSpec(2048)).coeffs
                for k in (0, 1, 2, 3, 10, 50, 500, 1000):
                    got = complex(coeffs[k])
                    ref = complex(branch_point_series_coefficient(
                        alpha, 0.2, x_star, 2.5, k))
                    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_mean_coefficient_is_amplitude(self):
        spec = SyntheticSpec(alpha=1 / 3, delta=0.2, x_star=1.0, amplitude=2.5)
        assert oracle_spectrum(spec, GridSpec(16)).coeffs[0] == 2.5

    def test_alpha_one_truncates(self):
        # binomial series of (1-w)^1 ends at the linear term
        spec = SyntheticSpec(alpha=1.0, delta=0.3, x_star=0.4)
        coeffs = oracle_spectrum(spec, GridSpec(128)).coeffs
        for k in range(2, 40):
            assert coeffs[k] == 0.0

    def test_extended_matches_reference_to_32_digits(self):
        spec = SyntheticSpec(alpha=1 / 3, delta=0.2, x_star=1.0)
        coeffs = oracle_spectrum(spec, GridSpec(1024), EXTENDED32).coeffs
        for k in (1, 5, 50, 300):
            got = coeffs[k]
            ref = branch_point_series_coefficient(1 / 3, 0.2, 1.0, 1.0, k, dps=60)
            with mp.workdps(60):
                rel = abs(mp.mpc(got) - ref) / abs(ref)
                assert float(rel) < 1e-30


class TestField:
    def test_alpha_one_field_is_shifted_cosine(self):
        spec = SyntheticSpec(alpha=1.0, delta=0.3, x_star=0.4)
        grid = GridSpec(64)
        x = grid.nodes(DOUBLE)
        expected = 1.0 - math.exp(-0.3) * np.cos(x - 0.4)
        assert np.max(np.abs(oracle_field(spec, grid).values - expected)) < 1e-14

    def test_forward_transform_closure(self):
        # K large enough that the series truncation sits below round-off
        spec = SyntheticSpec(alpha=1 / 3, delta=0.2, x_star=1.0)
        grid = GridSpec(512)
        direct = oracle_spectrum(spec, grid)
        via_fft = forward_transform(oracle_field(spec, grid))
        scale = float(np.abs(direct.coeffs).max())
        tol = 1e3 * np.finfo(np.float64).eps * scale
        assert np.max(np.abs(direct.coeffs - via_fft.coeffs)) < tol

    def test_forward_transform_closure_extended(self):
        spec = SyntheticSpec(alpha=1 / 3, delta=0.8, x_star=0.5)
        grid = GridSpec(256)
        direct = oracle_spectrum(spec, grid, EXTENDED32)
        via_fft = forward_transform(oracle_field(spec, grid, EXTENDED32))
        with mp.workdps(40):
            worst = max(abs(a - b) for a, b in zip(direct.coeffs, via_fft.coeffs))
            assert float(worst) < 1e-29

    def test_large_delta_concentrates_lowest_modes(self):
        spec = SyntheticSpec(alpha=1 / 3, delta=8.0, x_star=0.0)
        grid = GridSpec(64)
        sp = oracle_spectrum(spec, grid)
        mags = np.abs(sp.coeffs)
        assert np.sum(mags[2:]) < 1e-3 * mags[1]


class TestSpectrumAssembly:
    def test_hermitian_by_construction(self):
        # the stored modes k = 0..K/2 fix the rest; k = 0 and K/2 are real
        spec = SyntheticSpec(alpha=2 / 3, delta=0.2, x_star=-1.2, amplitude=1.5)
        sp = oracle_spectrum(spec, GridSpec(128))
        assert sp.coeffs.shape == (65,)
        assert sp.coeffs[0] == 1.5
        assert sp.coeffs[64] == 0.0

    def test_tail_exponent_matches_gamma_asymptotics(self):
        # |binom(1/3,k)| ~ k^{-4/3}/|Gamma(-1/3)| for large k, so the
        # compensated magnitude approaches amplitude/(2|Gamma(-1/3)|)
        spec = SyntheticSpec(alpha=1 / 3, delta=0.2, x_star=0.0)
        k = 1000
        got = abs(complex(oracle_spectrum(spec, GridSpec(2048)).coeffs[k]))
        got *= math.exp(0.2 * k) * k ** (4 / 3)
        expected = 0.5 / abs(float(mp.gamma(mp.mpf(-1) / 3)))
        assert abs(got / expected - 1.0) < 1e-3

    def test_extended_assembly_matches_double(self):
        spec = SyntheticSpec(alpha=3 / 5, delta=0.4, x_star=0.7)
        grid = GridSpec(32)
        sp_d = oracle_spectrum(spec, grid)
        sp_x = oracle_spectrum(spec, grid, EXTENDED32)
        worst = max(float(abs(complex(a) - b)) for a, b in zip(sp_x.coeffs, sp_d.coeffs))
        assert worst < 1e-15
