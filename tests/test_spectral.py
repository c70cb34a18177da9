"""Spectral operators and the mode-system right-hand side."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from bfamily.core import (
    TYPE_I,
    GridSpec,
    PeriodicField,
    Spectrum,
    forward_transform,
    initial_datum,
)
from bfamily.errors import BlowUpOverflowError, ConfigError, SymmetryError
from bfamily.integrator import rk4_step
from bfamily.precision import EXTENDED32, transforms_for
from bfamily.spectral import (
    RhsOptions,
    dealias_cutoff,
    derivative,
    rhs,
    rhs_kernel,
)

from oracles import (
    ReferenceRhsKernel,
    convolution_rhs,
    full_layout,
    full_layout_rhs,
    random_hermitian_spectrum,
)


def sine_spectrum(K=32):
    return forward_transform(initial_datum(TYPE_I, GridSpec(K)))


def to_extended(spectrum):
    """The same coefficients as mpmath values (exact conversion)."""
    return Spectrum(spectrum.grid, np.array([mp.mpc(c) for c in spectrum.coeffs], dtype=object))


class TestDerivative:
    def test_sine_to_cosine(self):
        d = derivative(sine_spectrum())
        assert d.coeffs[1] == pytest.approx(0.5, abs=1e-15)

    def test_second_derivative_negates_sine(self):
        d2 = derivative(derivative(sine_spectrum()))
        assert d2.coeffs[1] == pytest.approx(0.5j, abs=1e-15)

    def test_zeroes_nyquist(self):
        g = GridSpec(16)
        c = np.zeros(9, dtype=complex)
        c[8] = 1.0  # unpaired mode k = K/2 = 8
        assert derivative(Spectrum(g, c)).coeffs[8] == 0.0


class TestDealiasCutoff:
    @pytest.mark.parametrize("K,expected", [(16, 5), (24, 7), (32, 10), (1024, 341)])
    def test_values(self, K, expected):
        assert dealias_cutoff(K) == expected

    def test_alias_images_excluded(self):
        # worst-case quadratic alias of retained modes stays outside the band
        for K in range(8, 130, 2):
            kc = dealias_cutoff(K)
            assert abs(2 * kc - K) > kc


def evaluated_products(spectrum, options):
    """Evaluate ``rhs`` and return the kernel's product stage, (u u_x, u^2, u_x^2) as Spectra.

    The cached kernel keeps the three products of its last evaluation in
    its product buffer; the returned Spectra hold copies of its rows.
    An overflowing evaluation still raises from ``rhs``, so overflow
    cases read the buffer through ``product_buffer`` instead.
    """
    rhs(spectrum, options)
    return tuple(Spectrum(spectrum.grid, row.copy()) for row in product_buffer(spectrum, options))


def product_buffer(spectrum, options):
    return rhs_kernel(spectrum.grid, options, spectrum.coeffs)._products


class TestNonlinearProducts:
    """The product stage of the right-hand-side kernel, read after an ``rhs`` evaluation."""

    def test_sine_products(self):
        # u u_x = sin(2x)/2, u^2 = (1 - cos 2x)/2, u_x^2 = (1 + cos 2x)/2;
        # the k = 0 products are the means that rhs itself zeroes
        adv, u_sq, ux_sq = evaluated_products(sine_spectrum(), RhsOptions(b=2.0))
        assert adv.coeffs[2] == pytest.approx(-0.25j, abs=1e-15)
        assert adv.coeffs[0] == pytest.approx(0.0, abs=1e-15)
        assert u_sq.coeffs[0] == pytest.approx(0.5, abs=1e-15)
        assert u_sq.coeffs[2] == pytest.approx(-0.25, abs=1e-15)
        assert ux_sq.coeffs[0] == pytest.approx(0.5, abs=1e-15)
        assert ux_sq.coeffs[2] == pytest.approx(0.25, abs=1e-15)

    def test_overflow_raises(self):
        # the overflow happens in the product stage: u^2 and u_x^2 overflow
        # on the nodes, and no product bin is left finite
        c = np.zeros(9, dtype=complex)
        c[1] = 1e200
        state, opts = Spectrum(GridSpec(16), c), RhsOptions(b=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpOverflowError):
                rhs(state, opts)
        assert not np.isfinite(product_buffer(state, opts)).any()


class TestOverflowGuard:
    """The kernel's guarded callers, ``rhs`` and ``rk4_step``, raise on overflow, never warn."""

    @pytest.mark.parametrize("dealias", [False, True])
    @pytest.mark.parametrize("entry", ["rk4_step", "rhs"])
    @pytest.mark.parametrize("slot,value", [(1, 1e200), (0, 1e154)], ids=["physical", "transform"])
    def test_overflow_raises(self, slot, value, entry, dealias):
        # physical: u^2 overflows on the nodes; transform: u^2 = 1e308 is
        # finite on every node, and its rfft's sum over 16 nodes is not
        c = np.zeros(9, dtype=complex)
        c[slot] = value
        state, opts = Spectrum(GridSpec(16), c), RhsOptions(b=3.0, dealias=dealias)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpOverflowError):
                if entry == "rhs":
                    rhs(state, opts)
                else:
                    rk4_step(state, 1e-3, opts)


class TestRhs:
    def test_constant_is_fixed_point(self):
        g = GridSpec(16)
        c = np.zeros(9, dtype=complex)
        c[0] = 2.5
        out = rhs(Spectrum(g, c), RhsOptions(b=3.0))
        assert np.abs(out.coeffs).max() == 0.0

    def test_mean_component_exactly_zero(self):
        rng = np.random.default_rng(23)
        for b in (-1.0, 0.0, 2.0, 3.0, 4.5):
            s = random_hermitian_spectrum(GridSpec(32), rng)
            assert rhs(s, RhsOptions(b=b)).coeffs[0] == 0.0

    def test_preserves_hermitian_symmetry_exactly(self):
        # the stored modes fix the negative ones; k = 0 and K/2 stay real
        rng = np.random.default_rng(29)
        for K in (16, 64):
            s = random_hermitian_spectrum(GridSpec(K), rng)
            out = rhs(s, RhsOptions(b=3.0))
            assert out.coeffs[0].imag == 0.0 and out.coeffs[-1].imag == 0.0

    def test_nyquist_zeroed(self):
        rng = np.random.default_rng(19)
        s = random_hermitian_spectrum(GridSpec(16), rng)
        assert rhs(s, RhsOptions(b=3.0)).coeffs[8] == 0.0

    def test_dealiased_rhs_zero_upper_third(self):
        rng = np.random.default_rng(37)
        s = random_hermitian_spectrum(GridSpec(32), rng)
        kc = dealias_cutoff(32)
        assert all(rhs(s, RhsOptions(b=3.0, dealias=True)).coeffs[kc + 1 :] == 0.0)

    def test_affine_in_b(self):
        # the b-dependence enters linearly through the stress term
        rng = np.random.default_rng(31)
        s = random_hermitian_spectrum(GridSpec(32), rng)
        r0 = rhs(s, RhsOptions(b=0.0)).coeffs
        r1 = rhs(s, RhsOptions(b=1.0)).coeffs
        r4 = rhs(s, RhsOptions(b=4.0)).coeffs
        np.testing.assert_allclose(r4, r0 + 4.0 * (r1 - r0), rtol=0, atol=1e-13)

    def test_sine_rhs_hand_value(self):
        # b = 2: rhs = -[uu_x + ik/(1+k^2)(u^2 + u_x^2/2)_k]
        # uu_x: -/+ i/4 at k = +/-2; (u^2)_2 = -1/4, (u_x^2)_2 = 1/4
        # k=2 symbol: 2i/5 -> rhs_2 = -(-i/4 + (2i/5)(-1/4 + 1/8)) = i/4 + i/20 = 3i/10
        out = rhs(sine_spectrum(), RhsOptions(b=2.0))
        assert out.coeffs[2] == pytest.approx(0.3j, abs=1e-15)


class TestConvolutionEquivalence:
    """Dealiased pseudospectral products equal exact truncated convolutions."""

    @pytest.mark.parametrize("K", [16, 32])
    def test_matches_brute_force(self, K):
        rng = np.random.default_rng(1234 + K)
        opts = RhsOptions(b=3.0, dealias=True)
        kc = dealias_cutoff(K)
        for _ in range(10):
            s = random_hermitian_spectrum(GridSpec(K), rng)
            got = rhs(s, opts).coeffs
            want = convolution_rhs(s, b=3.0, cutoff=kc)
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(got - want).max() <= 1e3 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("K", [16, 32])
    def test_matches_brute_force_extended(self, K):
        # the same spectra converted exactly to mpmath; the tolerance is
        # the double one, since the oracle sums in double precision
        rng = np.random.default_rng(1234 + K)
        opts = RhsOptions(b=3.0, dealias=True)
        kc = dealias_cutoff(K)
        for _ in range(10):
            s = random_hermitian_spectrum(GridSpec(K), rng)
            got = np.array([complex(c) for c in rhs(to_extended(s), opts).coeffs])
            want = convolution_rhs(s, b=3.0, cutoff=kc)
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(got - want).max() <= 1e3 * np.finfo(float).eps * scale

    def test_varied_b(self):
        rng = np.random.default_rng(77)
        K = 16
        kc = dealias_cutoff(K)
        s = random_hermitian_spectrum(GridSpec(K), rng)
        for b in (-0.5, 0.0, 2.0, 3.0):
            got = rhs(s, RhsOptions(b=b, dealias=True)).coeffs
            want = convolution_rhs(s, b=b, cutoff=kc)
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(got - want).max() <= 1e3 * np.finfo(float).eps * scale


class TestExtendedMode:
    def test_rhs_matches_double(self):
        g = GridSpec(16)
        sd = forward_transform(initial_datum(TYPE_I, g))
        se = forward_transform(initial_datum(TYPE_I, g, EXTENDED32))
        rd = rhs(sd, RhsOptions(b=3.0)).coeffs
        re_ = rhs(se, RhsOptions(b=3.0)).coeffs
        with mp.workdps(32):
            err = max(abs(mp.mpc(a) - b) for a, b in zip(rd, re_))
            assert float(err) < 1e-14

    def test_dealiased_rhs_matches_double(self):
        g = GridSpec(16)
        sd = forward_transform(initial_datum(TYPE_I, g))
        se = forward_transform(initial_datum(TYPE_I, g, EXTENDED32))
        rd = rhs(sd, RhsOptions(b=3.0, dealias=True)).coeffs
        re_ = rhs(se, RhsOptions(b=3.0, dealias=True)).coeffs
        with mp.workdps(32):
            err = max(abs(mp.mpc(a) - b) for a, b in zip(rd, re_))
            assert float(err) < 1e-14


class TestRhsOptions:
    @pytest.mark.parametrize("b", ["3", None, True, False, 3j])
    def test_rejects_b_that_is_not_a_real_number(self, b):
        with pytest.raises(ConfigError, match="b must be a real number, got"):
            RhsOptions(b=b)

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf, np.float64("nan")],
                             ids=["nan", "inf", "-inf", "numpy-nan"])
    def test_rejects_non_finite_b(self, b):
        with pytest.raises(ConfigError, match="b must be finite"):
            RhsOptions(b=b)

    @pytest.mark.parametrize("dealias", ["false", "true", 0, 1, None, np.bool_(True)],
                             ids=["str-false", "str-true", "0", "1", "None", "numpy-bool"])
    def test_rejects_dealias_that_is_not_a_bool(self, dealias):
        with pytest.raises(ConfigError, match="dealias must be a bool, got"):
            RhsOptions(b=3.0, dealias=dealias)

    @pytest.mark.parametrize("b", [3, 3.0, np.float64(3.0), np.int64(3), -1])
    def test_accepts_real_numbers(self, b):
        assert RhsOptions(b=b, dealias=True).b == b


class TestRhsKernel:
    def test_tables_cached_per_configuration(self):
        g = GridSpec(32)
        s = sine_spectrum()
        first = rhs_kernel(g, RhsOptions(b=3.0, dealias=True), s.coeffs)
        assert rhs_kernel(g, RhsOptions(b=3.0, dealias=True), s.coeffs) is first
        assert rhs_kernel(g, RhsOptions(b=2.0, dealias=True), s.coeffs) is not first
        assert rhs_kernel(g, RhsOptions(b=3.0), s.coeffs) is not first
        assert not first.symbol.flags.writeable

    @pytest.mark.parametrize("K,b,dealias", [(32, 3.0, True), (64, 0.0, False), (24, 2.0, True)])
    def test_rhs_equals_full_layout_pipeline(self, K, b, dealias):
        rng = np.random.default_rng(K)
        s = random_hermitian_spectrum(GridSpec(K), rng)
        got = rhs(s, RhsOptions(b=b, dealias=dealias)).coeffs
        want = full_layout_rhs(full_layout(s), b, dealias)
        np.testing.assert_array_equal(got, want[: K // 2 + 1])

    def test_rhs_rejects_non_hermitian(self):
        c = np.array(sine_spectrum(16).coeffs)
        c[0] = 1.0j
        with pytest.raises(SymmetryError):
            rhs(Spectrum(GridSpec(16), c), RhsOptions(b=3.0))


def held_arrays(kernel):
    """Every array a kernel holds: its symbol tables and scratch buffers."""
    return [value for value in vars(kernel).values() if isinstance(value, np.ndarray)]


class TestFreshResults:
    """The kernel reuses its scratch buffers; what it returns is fresh."""

    def test_consecutive_rhs_results_are_independent(self):
        rng = np.random.default_rng(41)
        opts = RhsOptions(b=3.0, dealias=True)
        first_in, second_in = (random_hermitian_spectrum(GridSpec(32), rng) for _ in range(2))
        first = rhs(first_in, opts).coeffs
        kept = first.tobytes()
        second = rhs(second_in, opts).coeffs
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept

    @pytest.mark.parametrize("dealias", [False, True])
    def test_kernel_results_share_no_memory(self, dealias):
        rng = np.random.default_rng(43)
        g = GridSpec(32)
        states = [random_hermitian_spectrum(g, rng).coeffs for _ in range(3)]
        kernel = rhs_kernel(g, RhsOptions(b=2.0, dealias=dealias), states[0])
        results = [kernel(c) for c in states]
        kept = [r.tobytes() for r in results]
        kernel(states[0])
        assert [r.tobytes() for r in results] == kept
        for i, result in enumerate(results):
            assert not any(np.shares_memory(result, other) for other in results[i + 1 :])
            assert not any(np.shares_memory(result, held) for held in held_arrays(kernel))

    def test_extended_kernel_results_share_no_memory(self):
        s = to_extended(sine_spectrum(16))
        kernel = rhs_kernel(s.grid, RhsOptions(b=3.0, dealias=True), s.coeffs)
        first, second = kernel(s.coeffs), kernel(s.coeffs)
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(first, held) for held in held_arrays(kernel))
        assert all(a == b for a, b in zip(first, second, strict=True))


class TestKernelPin:
    """The kernel against its frozen pre-table arithmetic, along real runs.

    ``tobytes`` also tells signed zeros apart, which ``np.array_equal``
    does not.  At power-of-two K the outputs agree byte for byte; at
    other K the unscaled inverse transform moves them by round-off.
    """

    @staticmethod
    def run(K, b, dealias, initial, dt, steps, precision=None):
        """Pairs of (kernel, reference) results on each state of an RK4 run."""
        grid = GridSpec(K)
        opts = RhsOptions(b=b, dealias=dealias)
        args = (initial, grid) if precision is None else (initial, grid, precision)
        state = forward_transform(initial_datum(*args))
        pairs = []
        # the reference calls global mpmath functions
        with transforms_for(state.coeffs).context():
            kernel = rhs_kernel(grid, opts, state.coeffs)
            reference = ReferenceRhsKernel(K, b, dealias, state.coeffs)
            for _ in range(steps):
                pairs.append((kernel(state.coeffs), reference(state.coeffs)))
                state = rk4_step(state, dt, opts)
        return pairs

    @pytest.mark.parametrize("K,b,dealias,initial,dt", [
        (1024, 3.0, True, "type1", 1e-4),
        (256, 0.0, True, "type1", 5e-4),
        (64, 2.0, False, "type2", 1e-3),
    ], ids=["deep-K1024-b3", "sweep-K256-b0", "K64-b2-type2"])
    def test_bytes_equal_reference_along_run(self, K, b, dealias, initial, dt):
        for step, (got, want) in enumerate(self.run(K, b, dealias, initial, dt, 200)):
            assert got.tobytes() == want.tobytes(), f"step {step}"

    def test_extended_equals_reference(self):
        for got, want in self.run(16, 3.0, True, "type1", 1e-2, 5, EXTENDED32):
            assert all(a == b for a, b in zip(got, want, strict=True))

    def test_non_power_of_two_within_round_off(self):
        eps = np.finfo(float).eps
        for got, want in self.run(96, 3.0, True, "type1", 1e-3, 50):
            assert np.abs(got - want).max() <= 4 * eps * np.abs(want).max()
