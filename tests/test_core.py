"""Grid, field/spectrum types, and transform conventions."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfamily.core import (
    SYMMETRY_RTOL_ULPS,
    TYPE_I,
    TYPE_II,
    GridSpec,
    PeriodicField,
    Spectrum,
    forward_transform,
    initial_datum,
    inverse_transform,
)
from bfamily.errors import ConfigError, NonFiniteFieldError, SymmetryError
from bfamily.precision import DOUBLE, EXTENDED32

from oracles import signed_forward, signed_inverse


def random_field(grid: GridSpec, rng: np.random.Generator) -> PeriodicField:
    return PeriodicField(grid, rng.standard_normal(grid.n_modes))


def random_hermitian_spectrum(grid: GridSpec, rng: np.random.Generator) -> Spectrum:
    """Spectrum of a random real field; Hermitian exactly by construction."""
    return forward_transform(random_field(grid, rng))


@st.composite
def half_spectra(draw, sizes):
    """(grid, coefficients of k = 0..K/2) with real k = 0 and K/2 entries."""
    K = draw(st.sampled_from(sizes))
    n = K // 2 + 1
    parts = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=n, max_size=n)
    re, im = np.array(draw(parts)), np.array(draw(parts))
    im[0] = im[-1] = 0.0
    return GridSpec(K), re + 1j * im


class TestGridSpec:
    def test_odd_resolution_rejected(self):
        with pytest.raises(ConfigError, match=r"^n_modes must be even, got 17$"):
            GridSpec(17)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError, match=r"^n_modes must be at least 8, got 4$"):
            GridSpec(4)

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigError, match=r"^n_modes must be an integer, got 16\.0$"):
            GridSpec(16.0)

    def test_nodes_cover_half_open_interval(self):
        g = GridSpec(16)
        x = g.nodes()
        assert x[0] == pytest.approx(-np.pi)
        assert x[-1] == pytest.approx(np.pi - 2 * math.pi / g.n_modes)
        assert np.allclose(np.diff(x), 2 * math.pi / g.n_modes)

    def test_wavenumber_layout(self):
        g = GridSpec(8)
        assert list(g.wavenumbers()) == [0, 1, 2, 3, 4]

    def test_resolution_limit(self):
        assert GridSpec(1024).resolution_limit == pytest.approx(2 * np.pi / 1024)

    def test_extended_nodes_match_double(self):
        g = GridSpec(16)
        xd = g.nodes()
        xe = g.nodes(EXTENDED32)
        assert max(abs(float(a) - b) for a, b in zip(xe, xd)) < 1e-15


class TestFieldValidation:
    def test_rejects_nan(self):
        g = GridSpec(8)
        vals = np.zeros(8)
        vals[3] = np.nan
        with pytest.raises(NonFiniteFieldError):
            PeriodicField(g, vals)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PeriodicField(GridSpec(8), np.zeros(9))

    def test_values_are_read_only(self):
        f = PeriodicField(GridSpec(8), np.zeros(8))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestForwardTransform:
    def test_sine_coefficients(self):
        # sin x = -(i/2) e^{ix} + (i/2) e^{-ix}
        s = forward_transform(initial_datum(TYPE_I, GridSpec(32)))
        assert s.coeffs[1] == pytest.approx(-0.5j, abs=1e-15)
        others = [s.coeffs[k] for k in range(17) if k != 1]
        assert max(abs(c) for c in others) < 1e-15

    def test_type2_adds_mean(self):
        s = forward_transform(initial_datum(TYPE_II, GridSpec(32)))
        assert s.coeffs[0] == pytest.approx(1.0, abs=1e-15)
        assert s.coeffs[1] == pytest.approx(-0.5j, abs=1e-15)

    def test_cosine_coefficients(self):
        g = GridSpec(32)
        s = forward_transform(PeriodicField(g, np.cos(g.nodes())))
        assert s.coeffs[1] == pytest.approx(0.5, abs=1e-15)

    def test_hermitian_symmetry_is_exact(self):
        # the stored modes k = 0..K/2 fix the rest; k = 0 and K/2 are real
        rng = np.random.default_rng(7)
        for K in (8, 34, 128):
            s = random_hermitian_spectrum(GridSpec(K), rng)
            assert s.coeffs.shape == (K // 2 + 1,)
            assert s.coeffs[0].imag == 0.0 and s.coeffs[-1].imag == 0.0

    def test_parseval(self):
        rng = np.random.default_rng(11)
        for K in (16, 64, 250):
            u = random_field(GridSpec(K), rng)
            lhs = float(np.sum(u.values**2)) / K
            power = np.abs(forward_transform(u).coeffs) ** 2
            rhs = float(power[0] + 2 * np.sum(power[1:-1]) + power[-1])
            assert lhs == pytest.approx(rhs, rel=1e-13)


class TestInverseTransform:
    def test_roundtrip_field(self):
        rng = np.random.default_rng(3)
        for K in (8, 64, 222):
            u = random_field(GridSpec(K), rng)
            v = inverse_transform(forward_transform(u))
            assert np.abs(v.values - u.values).max() < 1e-13

    def test_roundtrip_spectrum(self):
        rng = np.random.default_rng(5)
        s = random_hermitian_spectrum(GridSpec(64), rng)
        s2 = forward_transform(inverse_transform(s))
        assert np.abs(s2.coeffs - s.coeffs).max() < 1e-14

    def test_rejects_imaginary_mean(self):
        g = GridSpec(16)
        c = np.zeros(9, dtype=complex)
        c[0] = 1.0j
        with pytest.raises(SymmetryError):
            inverse_transform(Spectrum(g, c))

    def test_nyquist_alternating_signal_roundtrip(self):
        g = GridSpec(16)
        u = PeriodicField(g, (-1.0) ** np.arange(16))
        v = inverse_transform(forward_transform(u))
        assert np.abs(v.values - u.values).max() < 1e-14


class TestHermitianRoundTrip:
    """forward_transform inverts inverse_transform on any half spectrum."""

    @settings(deadline=None)
    @given(half_spectra((8, 16, 34, 64)))
    def test_double_round_trip(self, drawn):
        grid, c = drawn
        back = forward_transform(inverse_transform(Spectrum(grid, c))).coeffs
        tol = SYMMETRY_RTOL_ULPS * np.finfo(np.float64).eps * np.abs(c).max()
        assert np.abs(back - c).max() <= max(tol, 1e-300)

    @settings(deadline=None, max_examples=20)
    @given(half_spectra((8, 16)))
    def test_extended_round_trip(self, drawn):
        grid, c = drawn
        with EXTENDED32.context():
            half = np.array([mp.mpc(v) for v in c], dtype=object)
            back = forward_transform(inverse_transform(Spectrum(grid, half))).coeffs
            tol = SYMMETRY_RTOL_ULPS * mp.eps * max(abs(v) for v in half)
            assert max(abs(a - b) for a, b in zip(back, half)) <= max(tol, mp.mpf("1e-300"))

    @settings(deadline=None)
    @given(half_spectra((8, 16, 64)), st.sampled_from([0, -1]),
           st.floats(min_value=1e-9, max_value=1.0))
    def test_imaginary_self_conjugate_mode_rejected(self, drawn, slot, rel):
        grid, c = drawn
        scale = np.abs(c).max()
        c[slot] += 1j * np.finfo(np.float64).eps * scale  # round-off passes
        Spectrum(grid, c)
        c[slot] += 1j * rel * max(scale, 1.0)
        with pytest.raises(SymmetryError):
            Spectrum(grid, c)

    @pytest.mark.parametrize("slot", [0, -1], ids=["mean", "nyquist"])
    def test_extended_imaginary_self_conjugate_mode_rejected(self, slot):
        s = forward_transform(initial_datum(TYPE_II, GridSpec(16), EXTENDED32))
        c = np.array(s.coeffs)
        with EXTENDED32.context():
            c[slot] += mp.mpc(0, "1e-20")
        with pytest.raises(SymmetryError):
            Spectrum(GridSpec(16), c)


class TestSpectrumAccess:
    def test_coeff_bounds(self):
        # exactly the K/2 + 1 modes k = 0..K/2: neither the full K slots
        # nor the K/2 slots without the Nyquist mode
        g = GridSpec(16)
        for n in (16, 8):
            with pytest.raises(ValueError):
                Spectrum(g, np.zeros(n, dtype=complex))
        assert Spectrum(g, np.zeros(9, dtype=complex)).coeffs.shape == (9,)


class TestInitialDatum:
    def test_custom_callable(self):
        g = GridSpec(16)
        f = initial_datum(lambda x: np.cos(2 * x), g)
        assert np.allclose(f.values, np.cos(2 * g.nodes()))
        fe = initial_datum(lambda x: mp.cos(2 * x), g, EXTENDED32)
        assert fe.values.dtype == object
        with EXTENDED32.context():
            for v, x in zip(fe.values, g.nodes(EXTENDED32)):
                assert isinstance(v, EXTENDED32.scalar_types[0])
                assert abs(v - mp.cos(2 * x)) < mp.mpf(10) ** -31

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match=r"^initial must be 'type1' or 'type2', got 'type3'$"):
            initial_datum("type3", GridSpec(16))

    @pytest.mark.parametrize("mode", [DOUBLE, EXTENDED32], ids=lambda m: m.label)
    @pytest.mark.parametrize("K", [16, 32])
    def test_field_rejected(self, mode, K):
        # a datum is a name or a callable, built in the mode it is asked for
        field = initial_datum(TYPE_I, GridSpec(K), mode)
        message = r"^initial must be a name or a callable, got a PeriodicField$"
        with pytest.raises(ConfigError, match=message):
            initial_datum(field, GridSpec(16), mode)


class TestExtendedPrecision:
    def test_sine_coefficients_at_32_digits(self):
        s = forward_transform(initial_datum(TYPE_I, GridSpec(16), EXTENDED32))
        with mp.workdps(32):
            assert abs(s.coeffs[1] + mp.mpc(0, 1) / 2) < mp.mpf("1e-30")

    def test_roundtrip_at_32_digits(self):
        g = GridSpec(16)
        u = initial_datum(TYPE_II, g, EXTENDED32)
        v = inverse_transform(forward_transform(u))
        with mp.workdps(32):
            err = max(abs(a - b) for a, b in zip(v.values, u.values))
            assert err < mp.mpf("1e-30")

    def test_matches_double_path(self):
        g = GridSpec(24)  # exercises the non-power-of-two direct summation
        sd = forward_transform(initial_datum(TYPE_I, g))
        se = forward_transform(initial_datum(TYPE_I, g, EXTENDED32))
        with mp.workdps(32):
            err = max(abs(mp.mpc(c) - ce) for c, ce in zip(sd.coeffs, se.coeffs))
            assert float(err) < 1e-14


class TestTransformConvention:
    """The modes' plain transform pair, and the signed transforms built on it."""

    SIZES = (8, 64, 1024)

    @pytest.mark.parametrize("K", SIZES)
    def test_forward_is_rfft_over_K(self, K):
        x = np.random.default_rng(K).standard_normal((3, K))
        assert DOUBLE.forward(x, K).tobytes() == (np.fft.rfft(x) / K).tobytes()

    @pytest.mark.parametrize("K", SIZES)
    def test_inverse_is_unscaled_irfft(self, K):
        rng = np.random.default_rng(K + 1)
        half = rng.standard_normal((2, K // 2 + 1)) + 1j * rng.standard_normal((2, K // 2 + 1))
        assert DOUBLE.inverse(half, K).tobytes() == (np.fft.irfft(half, n=K) * K).tobytes()

    # K = 6, 34 and 96 are not powers of two, so 1/K is inexact
    PINNED_SIZES = (6, 34, 96, 1024)
    LEADING_SHAPES = [(), (2,), (3,)]

    @pytest.mark.parametrize("K", PINNED_SIZES)
    @pytest.mark.parametrize("lead", LEADING_SHAPES, ids=["1d", "2-rows", "3-rows"])
    def test_forward_is_numpy_rfft_forward_norm(self, K, lead):
        x = np.random.default_rng(K + len(lead)).standard_normal(lead + (K,))
        want = np.fft.rfft(x, axis=-1, norm="forward")
        got = DOUBLE.forward(x, K)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        out = np.empty(lead + (K // 2 + 1,), np.complex128)
        assert DOUBLE.forward(x, K, out=out) is out
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("K", PINNED_SIZES)
    @pytest.mark.parametrize("lead", LEADING_SHAPES, ids=["1d", "2-rows", "3-rows"])
    def test_inverse_is_numpy_irfft_forward_norm(self, K, lead):
        rng = np.random.default_rng(K + len(lead) + 7)
        shape = lead + (K // 2 + 1,)
        half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = np.fft.irfft(half, n=K, axis=-1, norm="forward")
        got = DOUBLE.inverse(half, K)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        out = np.empty(lead + (K,))
        assert DOUBLE.inverse(half, K, out=out) is out
        assert out.tobytes() == want.tobytes()

    @staticmethod
    def fields(K):
        """Random samples, and data with exact zeros and symmetries."""
        grid = GridSpec(K)
        rng = np.random.default_rng(K + 2)
        return [random_field(grid, rng), initial_datum(TYPE_I, grid), initial_datum(TYPE_II, grid)]

    @pytest.mark.parametrize("K", [8, 34, 64, 1024])
    def test_forward_transform_bytes_unchanged(self, K):
        # K = 34 has an odd Nyquist index, where forcing k = K/2 real
        # clears a negative zero
        for field in self.fields(K):
            want = signed_forward(field.values, K)
            assert forward_transform(field).coeffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("K", SIZES)
    def test_inverse_transform_bytes_unchanged(self, K):
        for field in self.fields(K):
            spectrum = forward_transform(field)
            want = signed_inverse(spectrum.coeffs, K)
            assert inverse_transform(spectrum).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("K", [8, 16])
    def test_extended_signed_transforms_unchanged(self, K):
        field = initial_datum(TYPE_II, GridSpec(K), EXTENDED32)
        with mp.workdps(32):
            spectrum = forward_transform(field)
            assert all(a == b for a, b in zip(spectrum.coeffs, signed_forward(field.values, K)))
            back = inverse_transform(spectrum).values
            assert all(a == b for a, b in zip(back, signed_inverse(spectrum.coeffs, K)))
