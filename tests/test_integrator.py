"""Fixed-step RK4 integration: accuracy, conservation, early stop."""

import re
import warnings

import mpmath as mp
import numpy as np
import pytest

from bfamily.core import (
    TYPE_I,
    TYPE_II,
    GridSpec,
    Spectrum,
    forward_transform,
    initial_datum,
    inverse_transform,
)
import bfamily.integrator as integrator
from bfamily.errors import BlowUpOverflowError, ConfigError, SymmetryError
from bfamily.integrator import (
    BFamilyConfig,
    StopReason,
    rk4_step,
    simulate,
)
from bfamily.precision import DOUBLE, EXTENDED32, DoublePrecision
from bfamily.spectral import RhsOptions, rhs_kernel

from oracles import full_layout, full_layout_rk4_step, random_hermitian_spectrum, rhs_coeffs


def sine_state(K=64):
    return forward_transform(initial_datum(TYPE_I, GridSpec(K)))


def advance(state, dt, n, opts):
    for _ in range(n):
        state = rk4_step(state, dt, opts)
    return state


class TestConfigValidation:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ConfigError):
            BFamilyConfig(b=3.0, grid=GridSpec(16), dt=0.0, t_end=1.0)

    def test_rejects_nonpositive_t_end(self):
        with pytest.raises(ConfigError):
            BFamilyConfig(b=3.0, grid=GridSpec(16), dt=1e-3, t_end=-1.0)

    def test_rejects_bad_sample_every(self):
        with pytest.raises(ConfigError):
            BFamilyConfig(b=3.0, grid=GridSpec(16), dt=1e-3, t_end=1.0, sample_every=0)

    def test_rejects_a_bool_sample_every(self):
        with pytest.raises(ConfigError, match=r"^sample_every must be an integer, got True$"):
            BFamilyConfig(b=3.0, grid=GridSpec(16), dt=1e-3, t_end=1.0, sample_every=True)

    def test_rejects_nonfinite_b(self):
        with pytest.raises(ConfigError):
            BFamilyConfig(b=float("nan"), grid=GridSpec(16), dt=1e-3, t_end=1.0)

    @pytest.mark.parametrize("name", ["typo", "type3", "Type1", " type1"])
    def test_rejects_unknown_initial_name_when_built(self, name):
        message = rf"initial must be 'type1' or 'type2', got '{name}'"
        with pytest.raises(ConfigError, match=message):
            BFamilyConfig(b=3.0, grid=GridSpec(16), dt=1e-3, t_end=1.0, initial=name)

    @pytest.mark.parametrize("config_mode", [DOUBLE, EXTENDED32], ids=lambda m: m.label)
    @pytest.mark.parametrize("field_mode", [DOUBLE, EXTENDED32], ids=lambda m: m.label)
    @pytest.mark.parametrize("K", [16, 32])
    def test_rejects_a_field_initial_when_built(self, config_mode, field_mode, K):
        # the config's precision alone sets the run's mode, so no field is taken as it is
        field = initial_datum(TYPE_I, GridSpec(K), field_mode)
        with pytest.raises(ConfigError, match="initial must be a name or a callable"):
            BFamilyConfig(b=3.0, grid=GridSpec(16), dt=1e-3, t_end=1.0, initial=field,
                          precision=config_mode)

    @pytest.mark.parametrize("t_end, dt", [(1e300, 1e-300), (1.0, 5e-324)])
    def test_rejects_a_step_count_that_is_not_finite(self, t_end, dt):
        with pytest.raises(ConfigError, match=r"t_end / dt must be finite"):
            BFamilyConfig(b=3.0, grid=GridSpec(16), dt=dt, t_end=t_end)

    @pytest.mark.parametrize("t_end, dt", [(1.0, 1e-20), (2.0**53, 1.0), (2.0**60, 0.5)])
    def test_rejects_a_step_count_of_2_to_the_53_or_more(self, t_end, dt):
        # past 2**53 the step count and step_index * dt are no longer exact doubles
        message = r"t_end / dt must be below 2\*\*53, got " + re.escape(f"{t_end} / {dt}") + "$"
        with pytest.raises(ConfigError, match=message):
            BFamilyConfig(b=3.0, grid=GridSpec(16), dt=dt, t_end=t_end)

    def test_accepts_a_step_count_just_below_2_to_the_53(self):
        BFamilyConfig(b=3.0, grid=GridSpec(16), dt=1.0, t_end=2.0**53 - 1)

    @pytest.mark.parametrize("value", ["3", None, True, False], ids=repr)
    @pytest.mark.parametrize("name", ["b", "dt", "t_end"])
    def test_rejects_a_number_that_is_not_real(self, name, value):
        kwargs = dict(b=3.0, grid=GridSpec(16), dt=1e-3, t_end=1.0)
        kwargs[name] = value
        message = rf"^{name} must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            BFamilyConfig(**kwargs)

    @pytest.mark.parametrize("b, dt, t_end", [
        (3, 0.001, 1), (np.float64(2.0), np.float32(0.001), np.int64(1)),
    ], ids=["int", "numpy"])
    def test_accepts_integer_and_numpy_numbers(self, b, dt, t_end):
        config = BFamilyConfig(b=b, grid=GridSpec(16), dt=dt, t_end=t_end)
        assert (config.b, config.dt, config.t_end) == (b, dt, t_end)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None], ids=repr)
    def test_rejects_a_dealias_that_is_not_a_bool(self, value):
        # "false" is truthy, so unchecked it would have run dealiased
        message = rf"^dealias must be a bool, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            BFamilyConfig(b=3.0, grid=GridSpec(16), dt=1e-3, t_end=1.0, dealias=value)


class TestRk4Accuracy:
    """Expected rates pinned by direct step-doubling / tiny-step oracles."""

    def test_constant_state_is_exact_fixed_point(self):
        g = GridSpec(16)
        c = np.zeros(9, dtype=complex)
        c[0] = 1.75
        s = rk4_step(Spectrum(g, c), 1e-2, RhsOptions(b=3.0))
        np.testing.assert_array_equal(s.coeffs, c)

    def test_local_error_is_fifth_order(self):
        # one dt step vs two dt/2 steps differ by ~C dt^5: halving dt
        # divides the defect by 2^5 = 32
        opts = RhsOptions(b=3.0)
        s0 = sine_state()
        defects = {}
        for dt in (1e-3, 5e-4):
            one = rk4_step(s0, dt, opts)
            two = advance(s0, dt / 2, 2, opts)
            defects[dt] = np.abs(one.coeffs - two.coeffs).max()
        ratio = defects[1e-3] / defects[5e-4]
        assert ratio == pytest.approx(32.0, rel=0.2)

    def test_single_step_matches_tiny_dt_reference(self):
        # measured defect constant is 0.201*dt^5 for this setup
        opts = RhsOptions(b=3.0)
        s0 = sine_state()
        for dt in (2e-3, 1e-3):
            one = rk4_step(s0, dt, opts)
            ref = advance(s0, dt / 100, 100, opts)
            err = np.abs(one.coeffs - ref.coeffs).max()
            assert err < 0.3 * dt**5

    def test_global_error_is_fourth_order(self):
        opts = RhsOptions(b=3.0)
        s0 = sine_state()
        ref = advance(s0, 0.1 / 3200, 3200, opts)
        errs = []
        for n in (50, 100):
            got = advance(s0, 0.1 / n, n, opts)
            errs.append(np.abs(got.coeffs - ref.coeffs).max())
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.15)


class TestConservation:
    def test_mean_mode_bitwise_constant(self):
        for b in (2.0, 3.0):
            cfg = BFamilyConfig(b=b, grid=GridSpec(64), dt=1e-3, t_end=0.1,
                                initial=TYPE_II, sample_every=10)
            traj = simulate(cfg)
            first = traj.snapshots[0].coeffs[0]
            assert all(s.coeffs[0] == first for s in traj.snapshots)

    def test_hermitian_symmetry_exact_along_run(self):
        # the stored modes fix the negative ones; k = 0 and K/2 stay real
        cfg = BFamilyConfig(b=3.0, grid=GridSpec(64), dt=1e-3, t_end=0.2,
                            initial=TYPE_I, sample_every=50)
        traj = simulate(cfg)
        assert all(s.coeffs.shape == (33,) for s in traj.snapshots)
        assert all(s.coeffs[0].imag == 0.0 and s.coeffs[-1].imag == 0.0
                   for s in traj.snapshots)


class TestTrajectoryRecording:
    def test_times_and_stride(self):
        cfg = BFamilyConfig(b=3.0, grid=GridSpec(32), dt=1e-3, t_end=0.1,
                            initial=TYPE_I, sample_every=10)
        traj = simulate(cfg)
        assert traj.stop_reason is StopReason.REACHED_T_END
        assert len(traj) == 11
        np.testing.assert_allclose(traj.times, np.arange(11) * 0.01, atol=1e-12)

    def test_remainder_step_reaches_t_end(self):
        cfg = BFamilyConfig(b=3.0, grid=GridSpec(32), dt=1e-3, t_end=0.0105,
                            initial=TYPE_I, sample_every=5)
        seen = []

        def monitor(t, s):
            seen.append((t, s))
            return False

        traj = simulate(cfg, strip_monitor=monitor)
        assert traj.times[-1] == pytest.approx(0.0105, abs=1e-12)
        assert traj.stop_reason is StopReason.REACHED_T_END
        # full steps land on i*dt, the short last step on t_end exactly
        assert traj.times == (0.0, 5 * 1e-3, 10 * 1e-3, 0.0105)
        # the monitor sees every recorded snapshot, t = 0 first, in order
        assert [t for t, _ in seen] == list(traj.times)
        assert len(seen) == len(traj)
        assert all(a is b for (_, a), b in zip(seen, traj.snapshots))

    def test_final_off_stride_state_recorded(self):
        cfg = BFamilyConfig(b=3.0, grid=GridSpec(32), dt=1e-3, t_end=0.013,
                            initial=TYPE_I, sample_every=5)
        traj = simulate(cfg)
        assert traj.times[-1] == pytest.approx(0.013, abs=1e-12)
        assert traj.times == (0.0, 5 * 1e-3, 10 * 1e-3, 13 * 1e-3)


class TestStopPolicy:
    def test_monitor_triggers_resolution_limit(self):
        answers = iter([False, False, False, False, True, False])

        def monitor(t, spec):
            return next(answers)

        cfg = BFamilyConfig(b=3.0, grid=GridSpec(32), dt=1e-3, t_end=0.1,
                            initial=TYPE_I, sample_every=10)
        traj = simulate(cfg, strip_monitor=monitor)
        assert traj.stop_reason is StopReason.RESOLUTION_LIMIT
        # the first yes comes at the fifth snapshot, t = 0 counted; it is kept
        assert len(traj) == 5
        assert traj.times[-1] == pytest.approx(0.04, abs=1e-12)

    def test_monitor_stop_at_t0_keeps_one_snapshot(self):
        cfg = BFamilyConfig(b=3.0, grid=GridSpec(32), dt=1e-3, t_end=0.1,
                            initial=TYPE_I, sample_every=10)
        traj = simulate(cfg, strip_monitor=lambda t, s: True)
        assert traj.stop_reason is StopReason.RESOLUTION_LIMIT
        assert traj.times == (0.0,)
        assert traj.snapshots[0].coeffs.tobytes() == sine_state(32).coeffs.tobytes()

    def test_monitor_none_results_ignored(self):
        cfg = BFamilyConfig(b=3.0, grid=GridSpec(32), dt=1e-3, t_end=0.02,
                            initial=TYPE_I, sample_every=10)
        traj = simulate(cfg, strip_monitor=lambda t, s: False)
        assert traj.stop_reason is StopReason.REACHED_T_END
        assert len(traj) == 3

    def test_overflow_truncates_run(self):
        cfg = BFamilyConfig(b=3.0, grid=GridSpec(32), dt=1e-2, t_end=5.0,
                            initial=lambda x: 1e155 * np.sin(x), sample_every=1)
        traj = simulate(cfg)
        assert traj.stop_reason is StopReason.OVERFLOW
        assert traj.times[-1] < 5.0
        # the first step overflows: only the initial state is recorded
        assert traj.times == (0.0,)


class TestTravelingWaves:
    """At b = -1 the family admits exact sinusoid solutions."""

    def test_type2_travels_at_half_speed(self):
        cfg = BFamilyConfig(b=-1.0, grid=GridSpec(64), dt=1e-3, t_end=1.0,
                            initial=TYPE_II, sample_every=200)
        traj = simulate(cfg)
        x = cfg.grid.nodes()
        u = inverse_transform(traj.snapshots[-1]).values
        ref = 1.0 + np.sin(x - traj.times[-1] / 2.0)
        assert np.abs(u - ref).max() < 1e-12

    def test_type1_is_stationary(self):
        cfg = BFamilyConfig(b=-1.0, grid=GridSpec(64), dt=1e-3, t_end=1.0,
                            initial=TYPE_I, sample_every=200)
        traj = simulate(cfg)
        x = cfg.grid.nodes()
        u = inverse_transform(traj.snapshots[-1]).values
        assert np.abs(u - np.sin(x)).max() < 1e-12


class TestExtendedMode:
    @pytest.mark.parametrize("mode, dtype", [(DOUBLE, np.complex128), (EXTENDED32, object)],
                             ids=["double", "extended32"])
    def test_callable_initial_runs_in_the_config_mode(self, mode, dtype):
        traj = simulate(BFamilyConfig(b=3.0, grid=GridSpec(16), dt=1e-2, t_end=2e-2,
                                      initial=lambda x: 1 + mp.sin(x), precision=mode))
        assert traj.stop_reason is StopReason.REACHED_T_END
        assert traj.config.precision is mode
        assert [s.coeffs.dtype for s in traj.snapshots] == [np.dtype(dtype)] * len(traj)

    def test_short_run_matches_double(self):
        kwargs = dict(b=3.0, grid=GridSpec(16), dt=1e-3, t_end=5e-3,
                      initial=TYPE_I, sample_every=5)
        td = simulate(BFamilyConfig(**kwargs))
        te = simulate(BFamilyConfig(**kwargs, precision=EXTENDED32))
        with mp.workdps(32):
            err = max(
                abs(mp.mpc(a) - b)
                for a, b in zip(td.snapshots[-1].coeffs, te.snapshots[-1].coeffs)
            )
            assert float(err) < 1e-13


class TestFullLayoutReference:
    """rk4_step equals the original full-layout pipeline, step by step.

    The reference runs on all K slots; its modes k = 0..K/2 are compared
    with np.array_equal against the reference run here, not with a
    stored hash: another numpy build may round FFTs differently but
    rounds both pipelines the same way.
    """

    @pytest.mark.parametrize(
        "b,K,dt,initial",
        [(3.0, 1024, 1e-4, TYPE_I), (0.0, 256, 5e-4, TYPE_II)],
        ids=["b3-K1024", "b0-K256"],
    )
    def test_double_trajectory_value_identical(self, b, K, dt, initial):
        opts = RhsOptions(b=b, dealias=True)
        state = forward_transform(initial_datum(initial, GridSpec(K)))
        ref = full_layout(state)
        for step in range(300):
            state = rk4_step(state, dt, opts)
            ref = full_layout_rk4_step(ref, dt, b, dealias=True)
            assert np.array_equal(state.coeffs, ref[: K // 2 + 1]), (
                f"trajectories differ after step {step + 1}"
            )

    def test_extended_trajectory_value_identical(self):
        # the extended32 benchmark configuration: K=64, b=3, dt=1e-3, dealiased
        opts = RhsOptions(b=3.0, dealias=True)
        with EXTENDED32.context():
            state = forward_transform(initial_datum(TYPE_I, GridSpec(64), EXTENDED32))
            ref = full_layout(state)
            for step in range(5):
                state = rk4_step(state, 1e-3, opts)
                ref = full_layout_rk4_step(ref, 1e-3, 3.0, dealias=True)
                same = zip(state.coeffs, ref[: 64 // 2 + 1], strict=True)
                assert all(a == b for a, b in same), f"step {step + 1}"


class TestStepChecks:
    """A step's input is a valid Spectrum (real k = 0 and K/2), and stages overflow-check."""

    @pytest.mark.parametrize("slot,value", [(0, 1.0j), (8, 0.5j)],
                             ids=["imaginary-mean", "imaginary-nyquist"])
    def test_non_hermitian_state_rejected(self, slot, value):
        c = np.array(sine_state(16).coeffs)
        c[slot] += value
        with pytest.raises(SymmetryError):
            rk4_step(Spectrum(GridSpec(16), c), 1e-3, RhsOptions(b=3.0))

    def test_non_hermitian_extended_state_rejected(self):
        s = forward_transform(initial_datum(TYPE_I, GridSpec(16), EXTENDED32))
        c = np.array(s.coeffs)
        c[0] = mp.mpc(0, 1)
        with pytest.raises(SymmetryError):
            rk4_step(Spectrum(GridSpec(16), c), 1e-3, RhsOptions(b=3.0))

    @pytest.mark.parametrize("dealias", [False, True])
    def test_overflow_raises(self, dealias):
        g = GridSpec(16)
        c = np.zeros(9, dtype=complex)
        c[1] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpOverflowError):
                rk4_step(Spectrum(g, c), 1e-3, RhsOptions(b=3.0, dealias=dealias))

    @pytest.mark.parametrize("dealias", [False, True])
    def test_overflow_in_the_weighted_sum_raises(self, dealias):
        # every stage is finite (|k| about 6e307, u about 2e100), and the
        # stage inputs barely move at dt = 1e-220; k1 + 2 k2 + 2 k3 + k4
        # is not finite, so the step raises where it used to return inf
        state = forward_transform(initial_datum(lambda x: 2e100 * np.sin(x), GridSpec(16)))
        opts = RhsOptions(b=1.5e108, dealias=dealias)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 5e307 < np.abs(rhs_coeffs(state, opts)).max() < 1e308
            with pytest.raises(BlowUpOverflowError):
                rk4_step(state, 1e-220, opts)


def count_guards(monkeypatch):
    """Count entries into ``np.errstate`` and double ``all_finite`` calls from here on."""
    counts = {"errstate": 0, "all_finite": 0}
    errstate, all_finite = np.errstate, DoublePrecision.all_finite

    def counting_errstate(**kwargs):
        counts["errstate"] += 1
        return errstate(**kwargs)

    def counting_all_finite(self, arr):
        counts["all_finite"] += 1
        return all_finite(self, arr)

    monkeypatch.setattr(np, "errstate", counting_errstate)
    monkeypatch.setattr(DoublePrecision, "all_finite", counting_all_finite)
    return counts


class TestOneGuardPerStep:
    """The kernel is bare arithmetic; each step enters one errstate and checks once."""

    @pytest.mark.parametrize("dealias", [False, True])
    def test_kernel_call_is_unguarded(self, monkeypatch, dealias):
        state = sine_state(32)
        kernel = rhs_kernel(state.grid, RhsOptions(b=3.0, dealias=dealias), state.coeffs)
        counts = count_guards(monkeypatch)
        kernel(state.coeffs)
        assert counts == {"errstate": 0, "all_finite": 0}

    @pytest.mark.parametrize("dealias", [False, True])
    def test_step_guards_once(self, monkeypatch, dealias):
        state, opts = sine_state(32), RhsOptions(b=3.0, dealias=dealias)
        rk4_step(state, 1e-3, opts)  # builds and caches the kernel
        counts = count_guards(monkeypatch)
        rk4_step(state, 1e-3, opts)
        assert counts == {"errstate": 1, "all_finite": 1}

    def test_simulate_checks_each_step_once(self, monkeypatch):
        cfg = BFamilyConfig(b=3.0, grid=GridSpec(32), dt=1e-3, t_end=0.02, sample_every=5)
        counts = count_guards(monkeypatch)
        forward_transform(initial_datum(cfg.initial, cfg.grid))
        datum_checks = counts["all_finite"]
        counts["all_finite"] = 0
        per_step = []
        step = integrator.rk4_step

        def counting_step(*args):
            before = counts["all_finite"]
            result = step(*args)
            per_step.append(counts["all_finite"] - before)
            return result

        monkeypatch.setattr(integrator, "rk4_step", counting_step)
        simulate(cfg)
        assert per_step == [1] * 20
        assert counts["all_finite"] == 20 + datum_checks


class TestSelfConjugateSlotsKept:
    """rk4_step builds its result unchecked; k = 0 and K/2 keep the input's values."""

    @staticmethod
    def assert_slots_kept(before, after):
        for slot in (0, -1):
            assert after[slot].real == before[slot].real
            assert after[slot].imag == before[slot].imag

    @pytest.mark.parametrize("dealias", [False, True])
    def test_double(self, dealias):
        rng = np.random.default_rng(53)
        g = GridSpec(64)
        # a smooth state with a nonzero mean and a nonzero Nyquist mode
        c = np.array(sine_state(64).coeffs) + 1e-3 * random_hermitian_spectrum(g, rng).coeffs
        c[0] += 0.75
        state = Spectrum(g, c)
        assert state.coeffs[0] != 0 and state.coeffs[-1] != 0
        for _ in range(20):
            new = rk4_step(state, 1e-3, RhsOptions(b=3.0, dealias=dealias))
            self.assert_slots_kept(state.coeffs, new.coeffs)
            assert not new.coeffs.flags.writeable
            state = new

    def test_extended32(self):
        with EXTENDED32.context():
            field = initial_datum(TYPE_II, GridSpec(16), EXTENDED32)
            c = np.array(forward_transform(field).coeffs)
            c[-1] = mp.mpc("1e-3")
            state = Spectrum(GridSpec(16), c)
            for _ in range(3):
                new = rk4_step(state, 1e-3, RhsOptions(b=3.0))
                self.assert_slots_kept(state.coeffs, new.coeffs)
                state = new


class TestSnapshotsOwnTheirMemory:
    """Each recorded state is its own array, untouched by later steps."""

    def test_no_shared_memory_and_early_bytes_unchanged(self):
        cfg = BFamilyConfig(b=3.0, grid=GridSpec(64), dt=1e-3, t_end=0.02,
                            initial=TYPE_I, dealias=True, sample_every=1)
        seen = []

        def monitor(t, spectrum):
            seen.append(spectrum.coeffs.tobytes())
            return False

        traj = simulate(cfg, strip_monitor=monitor)
        arrays = [s.coeffs for s in traj.snapshots]
        assert len(arrays) == 21
        kernel = rhs_kernel(cfg.grid, cfg.rhs_options, arrays[0])
        held = [v for v in vars(kernel).values() if isinstance(v, np.ndarray)]
        for i, coeffs in enumerate(arrays):
            assert not any(np.shares_memory(coeffs, other) for other in arrays[i + 1 :])
            assert not any(np.shares_memory(coeffs, buffer) for buffer in held)
        # bytes at record time (the monitor saw t = 0, then each state right after its step)
        assert [c.tobytes() for c in arrays] == seen
