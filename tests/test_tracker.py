"""Singularity tracker: fit identities, extrapolation benchmarks, closure."""

import dataclasses
import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bfamily.integrator as integrator
import bfamily.tracker as tracker
from bfamily import DOUBLE, EXTENDED32, GridSpec
from bfamily.core import PeriodicField, Spectrum, forward_transform, inverse_transform
from bfamily.errors import ConfigError, EmptyWindowError, ExtrapolationError, NoiseFloorError
from bfamily.integrator import BFamilyConfig, StopReason, Trajectory, simulate
from bfamily.synthetic import SyntheticSpec, oracle_spectrum
from bfamily.tracker import (WYNN_RTOL, FitOptions, estimate_x_star,
                             extrapolate_blowup_time, fit_spectrum, local_fit,
                             sliding_fit, strip_monitor, track, track_run,
                             wynn_epsilon)

from oracles import (burgers_spectrum, burgers_strip_width, reference_wynn_epsilon,
                     shanks_table_limit, tracked_run)


def pure_model_spectrum(grid, amplitude, s, delta, x_star=0.0):
    """Exact decay-model spectrum C k^{-s} e^{-delta k} e^{-i k x*}."""
    K = grid.n_modes
    coeffs = np.zeros(K // 2 + 1, dtype=np.complex128)
    coeffs[0] = amplitude
    for k in range(1, K // 2):
        coeffs[k] = (amplitude * k ** (-s) * math.exp(-delta * k)
                     * np.exp(-1j * k * x_star))
    return Spectrum(grid=grid, coeffs=coeffs)


def pure_model_spectrum_extended(grid, amplitude, s, delta):
    K = grid.n_modes
    coeffs = np.empty(K // 2 + 1, dtype=object)
    with mp.workdps(32):
        coeffs[0] = mp.mpc(amplitude)
        for k in range(1, K // 2):
            v = amplitude * mp.mpf(k) ** (-mp.mpf(s)) * mp.exp(-mp.mpf(delta) * k)
            coeffs[k] = mp.mpc(v)
        coeffs[K // 2] = mp.mpc(0)
    return Spectrum(grid=grid, coeffs=coeffs)


class TestLocalFit:
    def test_exact_identity_on_pure_model(self):
        # the three-point formulas are algebraically exact on the model
        grid = GridSpec(256)
        sp = pure_model_spectrum(grid, 1.0, 1.6, 0.05)
        checked = 0
        for k in range(2, 127):
            try:
                s, d, c = local_fit(sp, k)
            except NoiseFloorError:
                break
            checked += 1
            assert abs(s - 1.6) / 1.6 < 1e-10
            assert abs(d - 0.05) / 0.05 < 1e-10
            assert abs(c) < 1e-10
        assert checked > 100

    def test_pure_exponential_gives_zero_exponent(self):
        grid = GridSpec(128)
        sp = pure_model_spectrum(grid, 1.0, 0.0, 0.3)
        for k in (2, 10, 30, 60):
            s, d, _ = local_fit(sp, k)
            assert abs(s) < 1e-10
            assert abs(d - 0.3) / 0.3 < 1e-10

    def test_cubic_root_character(self):
        # s = 4/3 corresponds to a branch point of order 1/3
        grid = GridSpec(128)
        sp = pure_model_spectrum(grid, 1.0, 4 / 3, 0.2)
        for k in (4, 16, 40, 62):
            s, d, _ = local_fit(sp, k)
            assert abs(s - 4 / 3) / (4 / 3) < 1e-10
            assert abs(d - 0.2) / 0.2 < 1e-10

    def test_identity_property_random_draws(self):
        rng = np.random.default_rng(42)
        grid = GridSpec(128)
        for _ in range(12):
            amplitude = rng.uniform(0.5, 2.0)
            s_true = rng.uniform(0.0, 4.0)
            d_true = rng.uniform(0.0, 1.0)
            sp = pure_model_spectrum(grid, amplitude, s_true, d_true)
            sl = sliding_fit(sp, FitOptions(k_min=2, k_max=62))
            log_c = math.log(amplitude)
            for s, d, c in zip(sl.s, sl.delta, sl.log_c):
                assert abs(s - s_true) / max(1.0, s_true) < 1e-10
                assert abs(d - d_true) / max(1.0, d_true) < 1e-10
                assert abs(c - log_c) / max(1.0, abs(log_c)) < 1e-10

    def test_extended_identity_to_thirty_digits(self):
        grid = GridSpec(64)
        sp = pure_model_spectrum_extended(grid, 1, 1.6, 0.05)
        with mp.workdps(32):
            s_true = mp.mpf(1.6)
            d_true = mp.mpf(0.05)
            for k in range(2, 31):
                s, d, c = local_fit(sp, k)
                assert float(abs(s - s_true) / s_true) < 1e-28
                assert float(abs(d - d_true) / d_true) < 1e-28
                assert float(abs(c)) < 1e-28

    def test_bitwise_equal_to_scalar_formulas(self):
        # double: scalar math.log and math.log1p near 1; extended: mp.log of
        # the exact integer ratios.  Array np.log differs in the last bit.
        spec = SyntheticSpec(alpha=0.4, delta=0.2, x_star=0.7)
        grid = GridSpec(256)
        sp, spx = oracle_spectrum(spec, grid), oracle_spectrum(spec, grid, EXTENDED32)
        for k in (2, 8, 15, 60):
            m0, m1, m2 = np.abs(sp.coeffs[k - 1 : k + 2])
            s = math.log((m0 / m1) * (m2 / m1)) / math.log1p(1 / ((k - 1) * (k + 1)))
            d = math.log(m1 / m2) + s * -math.log1p(1.0 / k)
            assert local_fit(sp, k) == (s, d, math.log(m1) + s * math.log(k) + k * d)
            with EXTENDED32.context():
                m0, m1, m2 = np.abs(spx.coeffs[k - 1 : k + 2])
                s = mp.log((m0 / m1) * (m2 / m1)) / mp.log(mp.mpf(k * k) / ((k - 1) * (k + 1)))
                d = mp.log(m1 / m2) + s * mp.log(mp.mpf(k) / (k + 1))
                expected = (s, d, mp.log(m1) + s * mp.log(k) + k * d)
            assert local_fit(spx, k) == expected

    def test_out_of_range_k_rejected(self):
        sp = pure_model_spectrum(GridSpec(64), 1.0, 1.0, 0.1)
        for bad in (0, 1, 31, 40):
            with pytest.raises(ValueError):
                local_fit(sp, bad)

    def test_noise_floor_raises(self):
        sp = pure_model_spectrum(GridSpec(256), 1.0, 1.0, 0.5)
        # e^{-0.5 k} reaches the floor well before k = 120
        with pytest.raises(NoiseFloorError):
            local_fit(sp, 120)


class TestSlidingFit:
    def test_constant_sequences_on_pure_model(self):
        sp = pure_model_spectrum(GridSpec(128), 1.0, 1.6, 0.05)
        sl = sliding_fit(sp, FitOptions(k_min=2, k_max=62))
        assert max(sl.s) - min(sl.s) < 1e-10
        assert max(sl.delta) - min(sl.delta) < 1e-11

    def test_two_mode_spectrum_has_empty_window(self):
        grid = GridSpec(64)
        field = PeriodicField(grid, np.sin(grid.nodes()))
        sp = forward_transform(field)
        with pytest.raises(EmptyWindowError):
            sliding_fit(sp, FitOptions(k_min=2, k_max=30))

    def test_window_truncates_at_noise_floor(self):
        sp = pure_model_spectrum(GridSpec(256), 1.0, 1.0, 0.5)
        sl = sliding_fit(sp, FitOptions(k_min=2, k_max=126))
        # e^{-0.5k} crosses 1e3*eps*max around k = 60
        assert sl.k[-1] < 70
        assert all(k2 - k1 == 1 for k1, k2 in zip(sl.k, sl.k[1:]))

    def test_walk_stops_at_first_triple_on_the_floor(self):
        # a zero mode at k = 20 ends the window at k = 18, although the
        # triples from k = 22 on lie above the floor again
        model = pure_model_spectrum(GridSpec(128), 1.0, 1.6, 0.05)
        coeffs = model.coeffs.copy()
        coeffs[20] = 0.0
        sp = Spectrum(grid=model.grid, coeffs=coeffs)
        sl = sliding_fit(sp, FitOptions(k_min=8))
        assert sl.k == tuple(range(8, 19))
        assert sl.log_magnitude == tuple(math.log(abs(sp.coeffs[k])) for k in sl.k)

    @pytest.mark.parametrize("precision, n_modes", [(DOUBLE, 4096), (EXTENDED32, 256)],
                             ids=["double-4096", "extended-256"])
    def test_rows_equal_local_fit_bit_for_bit(self, precision, n_modes):
        # every row is local_fit's formula with the logs read from the
        # window's table; the extended table is built under a global
        # precision of 60 digits, which its values must not see
        spec = SyntheticSpec(alpha=1 / 2, delta=0.02 if precision is DOUBLE else 0.2, x_star=0.7)
        sp = oracle_spectrum(spec, GridSpec(n_modes), precision)
        options = FitOptions(k_min=16)
        tracker._window_logs.cache_clear()
        with mp.workdps(60):
            built = sliding_fit(sp, options)
        mags = np.abs(sp.coeffs)
        for sl in (built, sliding_fit(sp, options)):
            assert len(sl.k) > 100 and sl.k == tuple(range(16, 16 + len(sl.k)))
            for k, *row in zip(sl.k, sl.s, sl.delta, sl.log_c, sl.log_magnitude):
                expected = (*local_fit(sp, k), precision.log(mags[k]))
                for got, value in zip(row, expected):
                    if precision is DOUBLE:
                        assert same_value(got, value), (k, got, value)
                    else:
                        assert got._mpf_ == value._mpf_, (k, got, value)

    def test_impossible_window_is_a_config_error(self):
        sp = pure_model_spectrum(GridSpec(64), 1.0, 1.6, 0.05)
        with pytest.raises(ConfigError, match=r"fit window \[40, 30\]"):
            sliding_fit(sp, FitOptions(k_min=40))

    def test_fit_spectrum_fits_through_sliding_fit(self, monkeypatch):
        # the module-level call is what a profiler's sliding_fit span sees
        calls = []
        real = tracker.sliding_fit

        def counting(spectrum, options):
            calls.append(options)
            return real(spectrum, options)

        monkeypatch.setattr(tracker, "sliding_fit", counting)
        options = FitOptions(k_min=10, k_max=40)
        fr = fit_spectrum(pure_model_spectrum(GridSpec(128), 1.0, 1.6, 0.05), options)
        assert calls == [options]
        assert fr.k_window == (10, 40)


class TestWynnEpsilon:
    def test_constant_sequence_returns_immediately(self):
        assert wynn_epsilon([5.0, 5.0, 5.0, 5.0]) == (5.0, 0)
        assert wynn_epsilon([0.0, 0.0, 0.0]) == (0.0, 0)

    def test_geometric_exact_after_one_even_column(self):
        seq = [2.0 + 0.3 * 0.5 ** n for n in range(8)]
        limit, depth = wynn_epsilon(seq)
        assert abs(limit - 2.0) < 1e-12
        assert depth >= 2

    def test_geometric_matches_reference_table(self):
        seq = [1.5 + 0.4 * 0.6 ** n for n in range(6)]
        limit, _ = wynn_epsilon(seq)
        ref = float(shanks_table_limit(seq, 2))
        assert abs(limit - ref) < 1e-12

    def test_alternating_harmonic_benchmark(self):
        # partial sums of the alternating harmonic series
        partial, seq = 0.0, []
        for n in range(1, 9):
            partial += (-1) ** (n + 1) / n
            seq.append(partial)
        limit, depth = wynn_epsilon(seq)
        # true deepest-even-column value, pinned by the 60-digit table
        ref = float(shanks_table_limit(seq, 6))
        assert abs(limit - ref) < 1e-14
        assert depth == 6
        assert abs(limit - math.log(2.0)) < 2e-6
        # one more partial sum sharpens the estimate below 1e-6
        seq9 = seq + [seq[-1] + 1 / 9.0]
        limit9, depth9 = wynn_epsilon(seq9)
        assert abs(limit9 - math.log(2.0)) < 1e-6
        assert depth9 == 8

    def test_leibniz_benchmark(self):
        partial, seq = 0.0, []
        for n in range(10):
            partial += (-1) ** n / (2 * n + 1)
            seq.append(partial)
        limit, _ = wynn_epsilon(seq)
        assert abs(limit - math.pi / 4) < 1e-7

    def test_noisy_constant_stays_at_face_value(self):
        rng = np.random.default_rng(7)
        seq = list(1.0 + 1e-13 * rng.standard_normal(8))
        limit, depth = wynn_epsilon(seq)
        assert abs(limit - 1.0) < 5e-13
        assert depth == 0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            wynn_epsilon([1.0, 2.0])


def same_value(a, b) -> bool:
    """Equal as values of one type, with NaN equal to NaN and -0.0 != 0.0."""
    if type(a) is not type(b):
        return False
    if a != a:
        return b != b
    if isinstance(a, float) and a == 0.0:
        return b == 0.0 and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def assert_matches_reference(seq):
    limit, depth = wynn_epsilon(seq)
    ref_limit, ref_depth = reference_wynn_epsilon(seq, WYNN_RTOL)
    assert depth == ref_depth
    assert same_value(limit, ref_limit), (limit, ref_limit)
    return depth


def sliding_sequences(spectrum, options):
    """The (s, delta, log C) sequences that fit_spectrum extrapolates."""
    k_lo, k_hi = fit_spectrum(spectrum, options).k_window
    sl = sliding_fit(spectrum, FitOptions(k_min=k_lo, k_max=k_hi))
    return sl.s, sl.delta, sl.log_c


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestWynnMatchesReference:
    """The column-array recursion against the scalar reference loop."""

    @pytest.mark.parametrize("delta, alpha", [
        (0.05, 1 / 3), (0.1, 1 / 2), (0.2, 3 / 5), (0.5, 2 / 3),
    ])
    def test_closure_sequences_double(self, delta, alpha):
        sp = oracle_spectrum(SyntheticSpec(alpha=alpha, delta=delta, x_star=0.7),
                             GridSpec(1024))
        depths = [assert_matches_reference(seq)
                  for seq in sliding_sequences(sp, FitOptions(k_min=16))]
        assert max(depths) >= 2

    @pytest.mark.parametrize("delta, alpha", [(0.2, 2 / 5), (0.5, 2 / 3)])
    def test_oracle_sequences_extended(self, delta, alpha):
        sp = oracle_spectrum(SyntheticSpec(alpha=alpha, delta=delta, x_star=0.7),
                             GridSpec(256), EXTENDED32)
        for seq in sliding_sequences(sp, FitOptions(k_min=16)):
            assert isinstance(seq[0], EXTENDED32.scalar_types[0])
            assert_matches_reference(seq)

    @settings(deadline=None)
    @given(limit=finite, amp=finite.filter(lambda a: a != 0.0),
           ratio=st.floats(min_value=-0.95, max_value=0.95).filter(lambda r: r != 0.0),
           n=st.integers(min_value=3, max_value=40))
    def test_geometric_sequences(self, limit, amp, ratio, n):
        assert_matches_reference([limit + amp * ratio ** k for k in range(n)])

    @settings(deadline=None)
    @given(value=finite, n=st.integers(min_value=3, max_value=30))
    def test_constant_runs_have_depth_zero(self, value, n):
        assert assert_matches_reference([value] * n) == 0

    @settings(deadline=None)
    @given(prefix=st.lists(finite, min_size=1, max_size=6),
           limit=finite, amp=finite.filter(lambda a: a != 0.0),
           ratio=st.floats(min_value=0.2, max_value=0.8),
           n=st.integers(min_value=4, max_value=12),
           suffix=st.lists(finite, max_size=4))
    def test_near_singular_entry_inside_a_column(self, prefix, limit, amp, ratio, n, suffix):
        # a geometric run makes the even column after it nearly constant
        # over that run only: the next column meets a near-singular
        # difference at some entries and not at others
        geometric = [limit + amp * ratio ** k for k in range(n)]
        assert_matches_reference(prefix + geometric + suffix)

    def test_early_break_mid_column(self):
        seq = [0.3, -1.2, 2.9] + [2.0 + 0.5 * 0.5 ** k for k in range(8)]
        # column 2 is constant to round-off along the geometric run only,
        # so column 3 meets its first near-singular difference mid-column
        col0 = np.array(seq)
        col1 = 1 / np.diff(col0)
        col2 = col0[1:-1] + 1 / np.diff(col1)
        d = np.diff(col2)
        singular = np.abs(d) <= WYNN_RTOL * (np.abs(col2[1:]) + np.abs(col2[:-1]))
        assert singular.any() and not singular[0]
        assert assert_matches_reference(seq) == 2
        assert wynn_epsilon(seq) == (2.0, 2)

    @settings(deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=3, max_size=20))
    def test_inf_and_nan_entries_raise_no_warning(self, seq):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_reference(seq)

    @pytest.mark.parametrize("seq", [
        [1.0, math.inf, 2.0, 3.0, 5.0],
        [math.nan, 1.0, 2.0, 4.0],
        [1.0, 2.0, 4.0, -math.inf, 8.0, math.nan],
        [math.inf] * 5,
    ])
    def test_nonfinite_examples(self, seq):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_reference(seq)

    def test_double_limit_is_builtin_float(self):
        limit, depth = wynn_epsilon(np.array([2.0 + 0.3 * 0.5 ** n for n in range(8)]))
        assert type(limit) is float and depth >= 2
        assert type(wynn_epsilon((1.0, 1.0, 1.0))[0]) is float


class TestWynnRows:
    """A stack of sequences runs through one column loop, row by row as if alone."""

    def assert_rows_match(self, rows):
        results = wynn_epsilon(rows)
        assert len(results) == len(rows)
        for row, (limit, depth) in zip(rows, results):
            alone = wynn_epsilon(row)
            ref_limit, ref_depth = reference_wynn_epsilon(row, WYNN_RTOL)
            assert depth == alone[1] == ref_depth
            assert same_value(limit, alone[0]) and same_value(limit, ref_limit)
        return [depth for _, depth in results]

    def test_rows_stop_at_their_own_columns(self):
        harmonic = np.cumsum([(-1) ** (n + 1) / n for n in range(1, 12)]).tolist()
        early = [0.3, -1.2, 2.9] + [2.0 + 0.5 * 0.5 ** k for k in range(8)]
        constant = [5.0] * 11
        depths = self.assert_rows_match([harmonic, early, constant])
        assert depths[0] > 2 and depths[1] == 2 and depths[2] == 0
        # the order of the rows does not matter
        assert self.assert_rows_match([constant, early, harmonic]) == depths[::-1]

    def test_fit_sequences_double_and_extended(self):
        spec = SyntheticSpec(alpha=1 / 2, delta=0.1, x_star=0.7)
        sp = oracle_spectrum(spec, GridSpec(512))
        assert max(self.assert_rows_match(list(sliding_sequences(sp, FitOptions(k_min=16))))) >= 2
        sp = oracle_spectrum(spec, GridSpec(256), EXTENDED32)
        self.assert_rows_match(list(sliding_sequences(sp, FitOptions(k_min=16))))

    @pytest.mark.parametrize("precision, n_modes", [(DOUBLE, 4096), (EXTENDED32, 256)],
                             ids=["double-4096", "extended-256"])
    def test_fit_result_carries_the_depths(self, precision, n_modes):
        sp = oracle_spectrum(SyntheticSpec(alpha=1 / 2, delta=0.1, x_star=0.7),
                             GridSpec(n_modes), precision)
        options = FitOptions(k_min=16)
        sl = sliding_fit(sp, options)
        depths = tuple(depth for _, depth in wynn_epsilon([sl.s, sl.delta, sl.log_c]))
        assert fit_spectrum(sp, options).wynn_depth == depths
        assert min(depths) >= 2

    def test_one_row_stack_is_a_list(self):
        seq = [2.0 + 0.3 * 0.5 ** n for n in range(8)]
        assert wynn_epsilon([seq]) == [wynn_epsilon(seq)]

    # Rows that leave the loop at known columns.  HARMONIC runs to the end
    # of its 11-term table, at column 10.  EARLY (one geometric run) makes
    # column 2 constant along that run, so building column 3 meets a
    # near-singular difference; TWO (two geometric runs) does the same at
    # column 5, and CONSTANT at column 1.
    HARMONIC = np.cumsum([(-1) ** (n + 1) / n for n in range(1, 12)]).tolist()
    EARLY = [0.3, -1.2, 2.9] + [2.0 + 0.5 * 0.5 ** k for k in range(8)]
    TWO = [0.3, -1.2, 2.9, 0.7] + [1.0 + 0.5 * 0.5 ** k - 0.25 * 0.2 ** k for k in range(7)]
    CONSTANT = [5.0] * 11

    def live_rows_per_column(self, monkeypatch, rows):
        """The depths of ``assert_rows_match(rows)``, and the live rows at each column step."""
        widths = []
        real = type(DOUBLE).near_singular

        def spy(mode, prev, d, width, rtol):
            widths.append(width)
            return real(mode, prev, d, width, rtol)

        monkeypatch.setattr(type(DOUBLE), "near_singular", spy)
        wynn_epsilon(rows)
        monkeypatch.undo()
        return self.assert_rows_match(rows), widths

    def test_middle_row_leaves_first(self, monkeypatch):
        depths, widths = self.live_rows_per_column(
            monkeypatch, [self.HARMONIC, self.EARLY, self.TWO])
        assert depths == [10, 2, 4]
        assert widths == [3, 3, 3, 2, 2] + [1] * 5

    def test_two_row_stack(self, monkeypatch):
        depths, widths = self.live_rows_per_column(monkeypatch, [self.EARLY, self.HARMONIC])
        assert depths == [2, 10]
        assert widths == [2, 2, 2] + [1] * 7

    def test_row_singular_at_column_zero_while_others_run_on(self, monkeypatch):
        depths, widths = self.live_rows_per_column(
            monkeypatch, [self.HARMONIC, self.CONSTANT, self.TWO, self.EARLY])
        assert depths == [10, 0, 4, 2]
        assert widths == [4, 3, 3, 2, 2] + [1] * 5

    @settings(deadline=None)
    @given(n=st.integers(min_value=3, max_value=20), data=st.data())
    def test_random_rows(self, n, data):
        row = st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=n, max_size=n)
        rows = data.draw(st.lists(row, min_size=1, max_size=4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_rows_match(rows)


def assert_rows_pinned(rows):
    """``wynn_epsilon`` of a stack: each row's raw (limit, depth) equals the frozen reference's."""
    results = wynn_epsilon(rows)
    for row, (limit, depth) in zip(rows, results):
        ref_limit, ref_depth = reference_wynn_epsilon(row, WYNN_RTOL)
        assert depth == ref_depth
        if isinstance(ref_limit, EXTENDED32.scalar_types[0]):
            assert limit._mpf_ == ref_limit._mpf_
        else:
            assert same_value(limit, ref_limit)
    return [depth for _, depth in results]


def ext(num, den=1):
    return EXTENDED32.scalar(num) / den


class TestWynnScreen:
    """The extended near-singular test, screened on exponents, against the exact formula."""

    def test_closure_sequences_double_and_extended(self):
        spec = SyntheticSpec(alpha=2 / 3, delta=0.35, x_star=0.7)
        options = FitOptions(k_min=16)
        double = sliding_sequences(oracle_spectrum(spec, GridSpec(1024)), options)
        assert max(assert_rows_pinned(list(double))) >= 2
        extended = sliding_sequences(oracle_spectrum(spec, GridSpec(256), EXTENDED32), options)
        assert max(assert_rows_pinned(list(extended))) >= 2

    def test_equal_neighbours_are_singular_at_depth_zero(self):
        seq = [ext(1, 3), ext(2, 3), ext(2, 3), ext(5, 7), ext(1)]
        stack = [seq, [ext(n * n) for n in range(5)]]
        (limit, depth), _ = wynn_epsilon(stack)
        assert (limit._mpf_, depth) == (seq[-1]._mpf_, 0)
        assert_rows_pinned(stack)
        assert_rows_pinned([[float(v) for v in seq]])

    @pytest.mark.parametrize("factor, singular", [(1 - 2.0 ** -20, True), (1 + 2.0 ** -20, False)],
                             ids=["below", "above"])
    @pytest.mark.parametrize("a", [ext(3, 7), 1 - ext(2) ** -60], ids=["3/7", "top-of-binade"])
    def test_relative_gap_at_the_tolerance(self, a, factor, singular):
        # |b - a| against WYNN_RTOL * (|a| + |b|): a relative gap of about
        # 2 * WYNN_RTOL, near 2**-39, which the screen leaves to the exact
        # test; just under a power of two, |a| makes that gap widest
        b = a * (1 + EXTENDED32.scalar(2 * WYNN_RTOL * factor))
        seq = [a, b, ext(1), ext(2, 3), ext(5), ext(9, 4)]
        prev = np.array(seq, dtype=object)
        flags = EXTENDED32.near_singular(prev, prev[1:] - prev[:-1], 1, WYNN_RTOL)
        assert flags == [singular]
        assert (assert_rows_pinned([seq]) == [0]) == singular

    def test_rows_with_inf_or_nan(self):
        inf, nan = ext(math.inf), ext(math.nan)
        base = [ext(1) - ext(1, (n + 2) ** 2) for n in range(7)]
        rows = [base[:2] + [inf] + base[3:], base[:4] + [nan] + base[5:], base,
                [inf] * 7, [-inf, inf] + base[2:]]
        assert_rows_pinned(rows)

    def test_screened_entries_cost_no_mpmath_operation(self, monkeypatch):
        # two rows interleaved: entry n of row r at index 2*n + r
        prev = np.array([[ext(2) ** n for n in range(6)], [ext(1, n + 1) for n in range(6)]],
                        dtype=object).T.ravel()
        d = prev[2:] - prev[:-2]

        def forbidden(value):
            raise AssertionError("the exact test was reached")

        monkeypatch.setattr(EXTENDED32.scalar_types[0], "__abs__", forbidden)
        assert EXTENDED32.near_singular(prev, d, 2, WYNN_RTOL) == [False, False]

    @settings(deadline=None, max_examples=300)
    @given(mantissa=st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
           exponent=st.integers(min_value=-300, max_value=300),
           negative=st.booleans(),
           gap_log2=st.floats(min_value=-50.0, max_value=-30.0),
           shrink=st.booleans(),
           rtol=st.sampled_from([WYNN_RTOL, 2.0 ** -40, 3 * 2.0 ** -41]))
    def test_screen_equals_exact_formula(self, mantissa, exponent, negative, gap_log2, shrink,
                                         rtol):
        a = EXTENDED32.scalar(math.ldexp(-mantissa if negative else mantissa, exponent))
        gap = EXTENDED32.scalar(2.0 ** gap_log2)
        b = a * (1 - gap if shrink else 1 + gap)
        d = b - a
        exact = abs(d) <= rtol * (abs(b) + abs(a))
        flags = EXTENDED32.near_singular(np.array([a, b], dtype=object),
                                         np.array([d], dtype=object), 1, rtol)
        assert flags == [exact]


class TestNonFiniteExtrapolation:
    """A non-finite Wynn limit is an ExtrapolationError, and the snapshot is skipped."""

    @staticmethod
    def poison(monkeypatch, row, value):
        real = tracker.wynn_epsilon

        def poisoned(rows):
            results = real(rows)
            results[row] = (value, results[row][1])
            return results

        monkeypatch.setattr(tracker, "wynn_epsilon", poisoned)

    @pytest.mark.parametrize("row", [0, 1, 2], ids=["s", "delta", "log_c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_double(self, monkeypatch, row, value):
        sp = oracle_spectrum(SyntheticSpec(alpha=1 / 2, delta=0.2, x_star=0.7), GridSpec(256))
        options = FitOptions(k_min=16)
        assert fit_spectrum(sp, options).residual < 0.15
        self.poison(monkeypatch, row, value)
        with pytest.raises(ExtrapolationError):
            fit_spectrum(sp, options)
        assert strip_monitor(options)(0.0, sp) is False

    def test_extended(self, monkeypatch):
        sp = oracle_spectrum(SyntheticSpec(alpha=1 / 2, delta=0.2, x_star=0.7),
                             GridSpec(256), EXTENDED32)
        self.poison(monkeypatch, 1, mp.nan)
        with pytest.raises(ExtrapolationError):
            fit_spectrum(sp, FitOptions(k_min=16))


class TestEstimateXStar:
    @pytest.mark.parametrize("x_star", [0.0, 1.0, -math.pi / 2, 3.0, -3.0])
    def test_oracle_abscissa_recovery(self, x_star):
        spec = SyntheticSpec(alpha=0.5, delta=0.1, x_star=x_star)
        for precision in (DOUBLE, EXTENDED32):
            sp = oracle_spectrum(spec, GridSpec(512), precision)
            est = estimate_x_star(sp, list(range(16, 100)))
            assert abs(est - x_star) < 1e-12

    def test_even_real_data_gives_exact_zero(self):
        for sp in (pure_model_spectrum(GridSpec(128), 1.0, 1.5, 0.1, x_star=0.0),
                   pure_model_spectrum_extended(GridSpec(128), 1.0, 1.5, 0.1)):
            assert estimate_x_star(sp, list(range(8, 40))) == 0.0

    def test_result_reduced_to_principal_interval(self):
        spec = SyntheticSpec(alpha=0.5, delta=0.1, x_star=math.pi + 0.5)
        for precision in (DOUBLE, EXTENDED32):
            sp = oracle_spectrum(spec, GridSpec(512), precision)
            est = estimate_x_star(sp, list(range(16, 100)))
            assert -math.pi <= est < math.pi
            assert abs(est - (math.pi + 0.5 - 2 * math.pi)) < 1e-12

    def test_unreduced_slope_past_pi_is_wrapped(self):
        # x* = -pi + eps with a cubic phase term: the circular-mean
        # increment wraps past pi while the least-squares slope does not,
        # so the negated slope lands just above pi before the reduction
        K, eps, k0 = 512, 0.05, 56
        ks = list(range(16, 97))
        k = np.arange(K // 2 + 1)
        phase = k * (math.pi - eps) + 1.5 * eps / 40**2 * (k - k0) ** 3
        coeffs = np.maximum(k, 1) ** -1.5 * np.exp(-0.1 * k) * np.exp(1j * phase)
        coeffs[0] = coeffs[-1] = 1.0
        est = estimate_x_star(Spectrum(grid=GridSpec(K), coeffs=coeffs), ks)
        slope = np.polyfit(np.array(ks, dtype=float), phase[ks], 1)[0]
        wrapped = (-slope + math.pi) % (2 * math.pi) - math.pi
        assert -math.pi <= est < math.pi
        assert abs(est - wrapped) < 1e-12

    def test_too_few_wavenumbers_rejected(self):
        for sp in (pure_model_spectrum(GridSpec(64), 1.0, 1.0, 0.1),
                   pure_model_spectrum_extended(GridSpec(64), 1.0, 1.0, 0.1)):
            with pytest.raises(EmptyWindowError):
                estimate_x_star(sp, [5])


class TestFitSpectrum:
    def test_exact_model_example(self):
        # (C, s, delta) = (1, 1.6, 0.05): constant sliding sequences
        fr = fit_spectrum(pure_model_spectrum(GridSpec(64), 1.0, 1.6, 0.05))
        assert abs(fr.alpha - 0.6) < 1e-12
        assert abs(fr.delta - 0.05) < 1e-12
        assert abs(fr.amplitude - 1.0) < 1e-12
        assert fr.x_star == 0.0
        assert fr.residual < 1e-10
        assert fr.k_window == (8, 30)
        assert not fr.delta_clamped

    def test_default_window_lower_edge(self):
        assert FitOptions().window(64)[0] == 8
        assert FitOptions().window(256)[0] == 16
        assert FitOptions().window(2048)[0] == 128

    def test_oracle_closure_module_scale(self):
        spec = SyntheticSpec(alpha=3 / 5, delta=0.2, x_star=1.0)
        sp = oracle_spectrum(spec, GridSpec(1024))
        fr = fit_spectrum(sp, FitOptions(k_min=16))
        assert abs(fr.delta - 0.2) < 1e-4
        assert abs(fr.alpha - 3 / 5) < 0.02
        assert abs(fr.x_star - 1.0) < 1e-6

    def test_scale_equivariance_power_of_two(self):
        base = pure_model_spectrum(GridSpec(256), 1.0, 1.6, 0.05, x_star=0.7)
        fr1 = fit_spectrum(base)
        fr2 = fit_spectrum(Spectrum(grid=base.grid, coeffs=base.coeffs * 2.0))
        assert fr2.alpha == fr1.alpha
        assert fr2.delta == fr1.delta
        assert fr2.x_star == fr1.x_star
        assert fr2.amplitude / fr1.amplitude == pytest.approx(2.0, rel=1e-9)

    def test_scale_equivariance_general_factor(self):
        base = pure_model_spectrum(GridSpec(256), 1.0, 1.6, 0.05)
        fr1 = fit_spectrum(base)
        fr3 = fit_spectrum(Spectrum(grid=base.grid, coeffs=base.coeffs * 3.0))
        assert abs(fr3.alpha - fr1.alpha) < 1e-12
        assert abs(fr3.delta - fr1.delta) < 1e-12

    def test_negative_width_clamped_and_flagged(self):
        K = 128
        coeffs = np.zeros(K // 2 + 1, dtype=np.complex128)
        coeffs[0] = 1.0
        for k in range(1, K // 2):
            coeffs[k] = k ** (-2.0) * math.exp(1e-6 * k)
        fr = fit_spectrum(Spectrum(grid=GridSpec(K), coeffs=coeffs))
        assert fr.delta_clamped
        assert fr.delta == 0.0
        assert abs(fr.alpha - 1.0) < 1e-9

    def test_window_too_narrow_raises(self):
        # default k_min = 128 at K = 2048 sits past the noise-floor index
        # when delta = 0.2; an explicit lower edge is required there
        spec = SyntheticSpec(alpha=1 / 3, delta=0.2, x_star=0.0)
        sp = oracle_spectrum(spec, GridSpec(2048))
        with pytest.raises(EmptyWindowError):
            fit_spectrum(sp)

    def test_extended_fit(self):
        fr = fit_spectrum(pure_model_spectrum_extended(GridSpec(64), 1, 1.6, 0.05))
        assert float(abs(fr.alpha - mp.mpf(1.6) + 1)) < 1e-25
        assert float(abs(fr.delta - mp.mpf(0.05))) < 1e-25
        assert float(abs(fr.amplitude - 1)) < 1e-25


def _trajectory_from_spectra(times, spectra, grid):
    cfg = BFamilyConfig(b=3.0, grid=grid, dt=1e-3, t_end=max(times) + 1.0)
    return Trajectory(config=cfg, times=tuple(times), snapshots=tuple(spectra),
                      stop_reason=StopReason.REACHED_T_END)


class TestBlowupExtrapolation:
    def test_linear_width_history(self):
        # delta(t) = 0.5 - 0.4 t crosses zero at t_s = 1.25
        grid = GridSpec(1024)
        times = [0.1 + 0.05 * i for i in range(9)]
        spectra = [oracle_spectrum(
            SyntheticSpec(alpha=1 / 3, delta=0.5 - 0.4 * t, x_star=1.0), grid)
            for t in times]
        trace = track(_trajectory_from_spectra(times, spectra, grid),
                      FitOptions(k_min=16))
        assert abs(trace.t_s_estimate - 1.25) < 1e-3
        assert 0.0 < trace.t_s_stderr < 1e-3
        assert trace.t_s_estimate > trace.times[-1]
        assert all(abs(float(f.alpha) - 1 / 3) < 0.02 for f in trace.fits)
        assert len(trace.times) == 9

    def test_constant_width_gives_no_blowup_time(self):
        grid = GridSpec(1024)
        times = [0.1 * i for i in range(6)]
        spectra = [oracle_spectrum(
            SyntheticSpec(alpha=1 / 3, delta=0.3, x_star=0.0), grid)
            for _ in times]
        trace = track(_trajectory_from_spectra(times, spectra, grid),
                      FitOptions(k_min=16))
        assert trace.t_s_estimate is None
        assert trace.t_s_stderr is None

    def test_widening_strip_gives_none(self):
        t_s, stderr = extrapolate_blowup_time([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])
        assert t_s is None and stderr is None

    def test_single_sample_rejected(self):
        # no sample, or one, gives no slope: no blow-up time, and no exception
        for n in range(2):
            assert extrapolate_blowup_time([0.0][:n], [0.4][:n]) == (None, None)

    def test_two_sample_secant(self):
        # a falling width, but two samples leave no residual to test the
        # secant's slope, so no time is given until a third sample arrives
        times, deltas = [0.0, 1.0, 2.0], [0.4, 0.3, 0.2]
        assert extrapolate_blowup_time(times[:2], deltas[:2]) == (None, None)
        assert extrapolate_blowup_time(times, deltas)[0] == pytest.approx(4.0, rel=1e-12)

    def test_insignificant_slope_gives_none(self):
        # jitter at 1e-12 around a constant: slope indistinguishable from 0
        rng = np.random.default_rng(3)
        times = list(np.linspace(0.0, 1.0, 8))
        deltas = list(0.25 + 1e-12 * rng.standard_normal(8))
        t_s, stderr = extrapolate_blowup_time(times, deltas)
        assert t_s is None and stderr is None


class TestTrack:
    def test_unfittable_snapshots_are_skipped(self):
        grid = GridSpec(1024)
        sin_spectrum = forward_transform(
            PeriodicField(grid, np.sin(grid.nodes())))
        times = [0.0, 0.1, 0.2, 0.3]
        spectra = [sin_spectrum] + [oracle_spectrum(
            SyntheticSpec(alpha=1 / 3, delta=0.4 - 0.2 * t, x_star=0.0), grid)
            for t in times[1:]]
        trace = track(_trajectory_from_spectra(times, spectra, grid),
                      FitOptions(k_min=16))
        assert trace.times == (0.1, 0.2, 0.3)

    def test_all_unfittable_gives_an_empty_trace(self):
        grid = GridSpec(256)
        sin_spectrum = forward_transform(
            PeriodicField(grid, np.sin(grid.nodes())))
        trace = track(_trajectory_from_spectra([0.0, 0.1, 0.2],
                                               [sin_spectrum] * 3, grid))
        assert trace.times == () and trace.fits == ()
        assert trace.t_s_estimate is None and trace.t_s_stderr is None
        assert trace.t_s_reason == "under-resolved"

    def width_history(self, slope=-0.4):
        grid = GridSpec(1024)
        times = [0.1 + 0.05 * i for i in range(6)]
        spectra = [oracle_spectrum(
            SyntheticSpec(alpha=1 / 3, delta=0.5 + slope * t, x_star=1.0), grid)
            for t in times]
        return _trajectory_from_spectra(times, spectra, grid)

    def test_clean_fits_need_no_fallback(self):
        trace = track(self.width_history(), FitOptions(k_min=16))
        assert trace.t_s_reason is None
        assert abs(trace.t_s_estimate - 1.25) < 1e-3

    def test_no_gated_fit_is_under_resolved(self, monkeypatch):
        # no fit passes a zero residual gate: the six fits give no t_s
        monkeypatch.setattr(tracker, "MAX_RESIDUAL", 0.0)
        trace = track(self.width_history(), FitOptions(k_min=16))
        assert len(trace.fits) == 6
        assert trace.t_s_estimate is None and trace.t_s_stderr is None
        assert trace.t_s_reason == "under-resolved"
        assert trace.late_alpha is None

    def test_rising_width_has_no_finite_time_collapse(self):
        # six clean fits whose width grows: enough samples, no zero crossing ahead
        trace = track(self.width_history(slope=0.4), FitOptions(k_min=16))
        assert len(trace.fits) == 6
        assert all(f.residual < tracker.MAX_RESIDUAL for f in trace.fits)
        assert trace.t_s_estimate is None and trace.t_s_stderr is None
        assert trace.t_s_reason == "no finite-time collapse"
        # the late character is still reported
        assert abs(trace.late_alpha - 1 / 3) < 0.01

    def small_run(self):
        config = BFamilyConfig(b=3.0, grid=GridSpec(128), dt=1e-3, t_end=0.4,
                               dealias=True, sample_every=40)
        return config, FitOptions(k_min=10, k_max=40)

    def test_recorded_fits_are_reused(self, monkeypatch):
        config, fit = self.small_run()
        calls = []
        real_fit = tracker.fit_spectrum

        def counting(spectrum, options):
            calls.append(spectrum)
            return real_fit(spectrum, options)

        monkeypatch.setattr(tracker, "fit_spectrum", counting)
        trajectory, trace = track_run(config, fit)
        # the monitor fits every snapshot once, in snapshot order, t = 0 first
        assert [id(s) for s in calls] == [id(s) for s in trajectory.snapshots]
        assert trace == track(trajectory, fit)

    def test_impossible_window_raises_before_the_first_step(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(integrator, "rk4_step", no_step)
        config, _ = self.small_run()
        # default k_max: K/2 - 2 = 62 at K = 128
        with pytest.raises(ConfigError, match="fewer than 3 wavenumbers"):
            track_run(config, FitOptions(k_min=61))

    def test_below_minus_one_raises_before_any_step_or_fit(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run or a fit started")

        config, fit = self.small_run()
        below = dataclasses.replace(config, b=-2.0)
        recorded = simulate(below)  # simulate takes any finite b
        monkeypatch.setattr(tracker, "simulate", no_run)
        monkeypatch.setattr(tracker, "fit_spectrum", no_run)
        for run in (lambda: track_run(below, fit), lambda: track(recorded, fit)):
            with pytest.raises(ConfigError, match=r"b = -2.0 is below the tracked range b >= -1"):
                run()

    @pytest.mark.parametrize("b", [-1, -1.0, np.float64(-1.0), 0.0, 1e300],
                             ids=["int-1", "float-1", "numpy-1", "0", "1e300"])
    def test_tracked_range_takes_every_b_from_minus_one(self, b):
        tracker.check_tracked_b(b)

    @pytest.mark.parametrize("b", [-1.0000001, -2, np.float64(-3.5), -1e300])
    def test_tracked_range_refuses_every_b_below_minus_one(self, b):
        with pytest.raises(ConfigError, match="below the tracked range"):
            tracker.check_tracked_b(b)

    def test_recorded_skip_is_reused(self):
        grid = GridSpec(1024)
        sin_spectrum = forward_transform(
            PeriodicField(grid, np.sin(grid.nodes())))
        record = []
        assert strip_monitor(FitOptions(k_min=16), record)(0.0, sin_spectrum) is False
        assert record == [None]
        # the first monitored snapshot of the small run admits no fit
        config, fit = self.small_run()
        trajectory, trace = track_run(config, fit)
        assert trace.times == trajectory.times[2:]

    def test_strip_monitor_callback(self):
        grid = GridSpec(1024)
        record = []
        monitor = strip_monitor(FitOptions(k_min=16), record)
        sin_spectrum = forward_transform(
            PeriodicField(grid, np.sin(grid.nodes())))
        assert monitor(0.0, sin_spectrum) is False
        good = oracle_spectrum(
            SyntheticSpec(alpha=1 / 3, delta=0.25, x_star=0.0), grid)
        assert monitor(0.0, good) is False
        assert record[0] is None
        assert abs(record[1].delta - 0.25) < 1e-4

    def test_overflowing_extrapolation_is_skipped(self):
        # magnitudes oscillating in k drive the extrapolated log C past
        # the double range; the fit raises a typed error, the monitor skips
        config = BFamilyConfig(b=2.0, grid=GridSpec(256), dt=5e-4, t_end=3.75,
                               initial=lambda x: 1 + 0.4 * np.sin(x),
                               dealias=True, sample_every=7500)
        snapshot = simulate(config).snapshots[-1]
        with pytest.raises(ExtrapolationError):
            fit_spectrum(snapshot)
        assert strip_monitor(FitOptions())(3.75, snapshot) is False


# the acceptance runs' window scaling [K/16, 300 K/1024] at K = 512
_BURGERS_GRID = GridSpec(512)
_BURGERS_FIT = FitOptions(k_min=32, k_max=150)
_BURGERS_TIMES = (0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.925)


@functools.lru_cache(maxsize=None)
def _burgers_fit(t):
    return fit_spectrum(burgers_spectrum(t, _BURGERS_GRID), _BURGERS_FIT)


class TestBurgersOracle:
    """The tracker on the exact inviscid Burgers spectrum: delta(t), alpha = 1/2, x* = 0, t_s = 1."""

    def test_oracle_solves_the_implicit_equation(self):
        # u = -sin(x - u t) on the nodes, the truncated tail being below round-off at t = 0.5
        u = inverse_transform(burgers_spectrum(0.5, _BURGERS_GRID)).values
        x = _BURGERS_GRID.nodes()
        assert np.abs(u + np.sin(x - 0.5 * u)).max() < 1e-13

    @pytest.mark.parametrize("t", _BURGERS_TIMES)
    def test_strip_width(self, t):
        assert abs(float(_burgers_fit(t).delta) - burgers_strip_width(t)) < 2e-5

    def test_square_root_character_while_resolved(self):
        fits = {t: _burgers_fit(t) for t in _BURGERS_TIMES}
        resolved = {t: f for t, f in fits.items() if f.k_window[1] * float(f.delta) >= 5}
        assert len(resolved) >= 5
        for t, f in resolved.items():
            assert abs(float(f.alpha) - 0.5) < 0.01, t

    @pytest.mark.parametrize("t", _BURGERS_TIMES)
    def test_breaking_abscissa(self, t):
        assert abs(float(_burgers_fit(t).x_star)) < 1e-12

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the linear width law extrapolates t_s early "
                              "(ROADMAP item 9: the 3/2 law)")
    def test_blowup_time(self):
        times = [round(0.95 + 0.005 * i, 3) for i in range(7)]
        spectra = [burgers_spectrum(t, _BURGERS_GRID) for t in times]
        trace = track(_trajectory_from_spectra(times, spectra, _BURGERS_GRID), _BURGERS_FIT)
        assert abs(trace.t_s_estimate - 1.0) < 1e-3


class TestConditioning:
    """The deep b=3 type1 run's t_s and late alpha under round-off-sized noise."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the full-depth Wynn table amplifies round-off "
                              "(ROADMAP item 14: a column rule and depth cap)")
    def test_reported_numbers_survive_a_1e_15_perturbation(self):
        # the acceptance run's settings; each draw multiplies modes 1..K/2-1
        # of every snapshot by 1 + 1e-15 N(0, 1) and re-tracks the trajectory
        fit = FitOptions(k_min=64, k_max=300, min_strip_width=0.0006)
        config = BFamilyConfig(b=3.0, grid=GridSpec(1024), dt=1e-4, t_end=0.84,
                               initial="type1", dealias=True, sample_every=25)
        trajectory, trace = tracked_run(config, fit)
        half = config.grid.n_modes // 2
        rng = np.random.default_rng(14)
        t_s, alpha = [], []
        for _ in range(5):
            snapshots = []
            for snapshot in trajectory.snapshots:
                coeffs = snapshot.coeffs.copy()
                coeffs[1:half] *= 1 + 1e-15 * rng.standard_normal(half - 1)
                snapshots.append(Spectrum(config.grid, coeffs))
            drawn = track(dataclasses.replace(trajectory, snapshots=tuple(snapshots)), fit)
            t_s.append(drawn.t_s_estimate)
            alpha.append(drawn.late_alpha)
        assert max(t_s) - min(t_s) < trace.t_s_stderr
        assert max(alpha) - min(alpha) < 0.005


class TestFitOptions:
    @pytest.mark.parametrize("width", [float("nan"), -1.0, 0.0, float("inf")])
    def test_rejects_bad_min_strip_width(self, width):
        rule = "positive" if math.isfinite(width) else "finite"
        with pytest.raises(ConfigError, match=rf"^min_strip_width must be {rule}, got {width!r}$"):
            FitOptions(min_strip_width=width)

    @pytest.mark.parametrize("k_min, k_max", [(40, 10), (None, 3), (0, 3), (10, 11)])
    def test_rejects_window_under_three_wavenumbers(self, k_min, k_max):
        # the window is checked at its K only: the options themselves build
        options = FitOptions(k_min=k_min, k_max=k_max)
        with pytest.raises(ConfigError, match=r"fewer than 3 wavenumbers at K = 256$"):
            options.window(256)

    @pytest.mark.parametrize("k_min, k_max", [(None, 10), (1, 4), (10, 12)])
    def test_accepts_window_of_three_wavenumbers(self, k_min, k_max):
        # at K = 128 the default lower edge is max(8, K/16) = 8
        window = FitOptions(k_min=k_min, k_max=k_max).window(128)
        assert len(window) == 3 and window[-1] == k_max

    @pytest.mark.parametrize("name", ["k_min", "k_max"])
    @pytest.mark.parametrize("value", ["16", 16.0, True, False, [16]],
                             ids=["str", "float", "True", "False", "list"])
    def test_rejects_a_window_edge_that_is_not_an_integer(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got"):
            FitOptions(**{name: value})

    @pytest.mark.parametrize("width", ["0.1", True, 0.1j, [0.1]], ids=["str", "bool", "complex", "list"])
    def test_rejects_a_width_that_is_not_a_real_number(self, width):
        with pytest.raises(ConfigError, match="min_strip_width must be a real number, got"):
            FitOptions(min_strip_width=width)

    def test_accepts_numpy_numbers(self):
        options = FitOptions(k_min=np.int64(16), k_max=np.int32(40), min_strip_width=np.float64(0.1))
        assert options.window(256) == range(16, 41)

    @settings(max_examples=400, deadline=None)
    @given(
        k_min=st.none() | st.integers(-4, 700),
        k_max=st.none() | st.integers(-4, 700),
        n_modes=st.integers(1, 1024).map(lambda half: 2 * half),
    )
    def test_window_is_three_contiguous_wavenumbers_or_config_error(self, k_min, k_max, n_modes):
        lo = max(2, max(8, n_modes // 16) if k_min is None else k_min)
        hi = n_modes // 2 - 2 if k_max is None else min(k_max, n_modes // 2 - 2)
        try:
            window = FitOptions(k_min=k_min, k_max=k_max).window(n_modes)
        except ConfigError:
            assert hi - lo + 1 < 3
            return
        assert isinstance(window, range) and window.step == 1
        assert len(window) >= 3
        assert lo <= window[0] and window[-1] <= hi


class TestStripMonitor:
    """The early-stop rule: stop once the fitted width falls below the limit."""

    GRID = GridSpec(256)

    def oracle(self, delta):
        return oracle_spectrum(SyntheticSpec(alpha=1 / 3, delta=delta, x_star=0.5), self.GRID)

    def test_default_width_is_grid_limit(self):
        limit = 2 * math.pi / self.GRID.n_modes
        record = []
        monitor = strip_monitor(FitOptions(), record)
        assert monitor(0.0, self.oracle(0.8 * limit)) is True
        assert monitor(0.0, self.oracle(1.25 * limit)) is False
        assert record[0].delta < limit < record[1].delta

    def test_given_width_replaces_grid_limit(self):
        monitor = strip_monitor(FitOptions(min_strip_width=0.1))
        assert monitor(0.0, self.oracle(0.08)) is True
        assert monitor(0.0, self.oracle(0.12)) is False
