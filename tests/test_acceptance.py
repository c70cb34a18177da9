"""End-to-end acceptance runs: solver, tracker, and CLI working together.

Each test records one PASS/FAIL line with the measured values (echoed in
the terminal summary at the end of the run) and then asserts. Reference
values for the b = 3 runs are the published blow-up times and characters
for this problem family; the b = 2 characters are the known algebraic
types 3/5 and 2/3. Run configurations were calibrated once against those
references and are frozen here; see the test bodies for the settings.
"""

import math

import mpmath as mp
import numpy as np

import conftest

from bfamily import EXTENDED32, GridSpec
from bfamily.cli import build_manifest, run_sweep
from bfamily.core import Spectrum, inverse_transform
from bfamily.integrator import BFamilyConfig, simulate
from bfamily.norms import sobolev_norm
from bfamily.spectral import RhsOptions, dealias_cutoff
from bfamily.synthetic import SyntheticSpec, oracle_spectrum
from bfamily.tracker import FitOptions, fit_spectrum, track

from oracles import convolution_rhs, local_fit, random_hermitian_spectrum, rhs_coeffs, tracked_run


def report(label: str, ok: bool, detail: str) -> None:
    """One pass/fail line per acceptance check, echoed in the run summary."""
    line = f"{'PASS' if ok else 'FAIL'}  {label}  [{detail}]"
    conftest.RESULT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def pure_decay_spectrum(n_modes: int, s: float, delta: float) -> Spectrum:
    # |u_hat_k| = k^{-s} e^{-delta k} exactly, amplitude 1, zero phase
    coeffs = np.zeros(n_modes // 2 + 1, dtype=complex)
    coeffs[0] = 1.0
    for k in range(1, n_modes // 2):
        coeffs[k] = k ** (-s) * math.exp(-delta * k)
    return Spectrum(GridSpec(n_modes), coeffs)


def pure_decay_spectrum_extended(n_modes: int, s: float, delta: float) -> Spectrum:
    with EXTENDED32.context():
        s_mp, d_mp = mp.mpf(s), mp.mpf(delta)
        coeffs = np.full(n_modes // 2 + 1, mp.mpc(0), dtype=object)
        coeffs[0] = mp.mpc(1)
        for k in range(1, n_modes // 2):
            coeffs[k] = mp.mpc(mp.mpf(k) ** (-s_mp) * mp.exp(-d_mp * k))
    return Spectrum(GridSpec(n_modes), coeffs)


def test_three_point_fit_identity_on_pure_decay():
    s, delta = 1.6, 0.05

    spectrum = pure_decay_spectrum(256, s, delta)
    worst_double = 0.0
    for k in range(2, 256 // 2 - 1):
        s_k, d_k, logc_k = local_fit(spectrum, k)
        worst_double = max(
            worst_double,
            abs(s_k - s) / s,
            abs(d_k - delta) / delta,
            abs(logc_k),  # log C target is 0; absolute comparison
        )

    extended = pure_decay_spectrum_extended(64, s, delta)
    worst_ext = 0.0
    with EXTENDED32.context():
        target_s, target_d = mp.mpf(s), mp.mpf(delta)
        for k in range(2, 64 // 2 - 1):
            s_k, d_k, logc_k = local_fit(extended, k)
            worst_ext = max(
                worst_ext,
                float(abs(s_k - target_s) / target_s),
                float(abs(d_k - target_d) / target_d),
                float(abs(logc_k)),
            )

    ok = worst_double < 1e-10 and worst_ext < 1e-20
    report(
        "exact three-point fit identity (double and 32-digit)",
        ok,
        f"max rel err: double {worst_double:.2e}, extended {worst_ext:.2e}",
    )


def test_synthetic_closure_recovery():
    grid = GridSpec(2048)
    fit = FitOptions(k_min=16)
    worst_d = worst_a = worst_x = 0.0
    for alpha in (1 / 3, 3 / 5, 2 / 3):
        for x_star in (0.0, 1.0, -math.pi / 2):
            spec = SyntheticSpec(alpha=alpha, delta=0.2, x_star=x_star)
            result = fit_spectrum(oracle_spectrum(spec, grid), fit)
            worst_d = max(worst_d, abs(result.delta - 0.2))
            worst_a = max(worst_a, abs(result.alpha - alpha))
            worst_x = max(worst_x, abs(result.x_star - x_star))
    ok = worst_d <= 1e-4 and worst_a <= 0.02 and worst_x <= 1e-4
    report(
        "synthetic branch-point closure at 2048 modes",
        ok,
        f"max err: delta {worst_d:.2e}, alpha {worst_a:.2e}, x* {worst_x:.2e}",
    )


def deep_tracked_run(b, initial, t_end, min_width):
    """The calibrated high-resolution tracking setup shared by the b-family
    acceptance runs: 1024 modes, dt = 1e-4, dealiased, fits over k in
    [64, 300], snapshots every 25 steps."""
    fit = FitOptions(k_min=64, k_max=300, min_strip_width=min_width)
    config = BFamilyConfig(
        b=b,
        grid=GridSpec(1024),
        dt=1e-4,
        t_end=t_end,
        initial=initial,
        dealias=True,
        sample_every=25,
    )
    _, trace = tracked_run(config, fit)
    return trace


def test_b3_type1_blowup_time_and_character():
    # track as deep as the fit window stays resolvable (width floor 6e-4)
    trace = deep_tracked_run(3.0, "type1", t_end=0.84, min_width=0.0006)
    t_s = trace.t_s_estimate
    alpha = trace.late_alpha
    ok = t_s is not None and abs(t_s - 0.8295) <= 0.01 and abs(alpha - 0.33) <= 0.05
    report(
        "b=3 peaked-slope start: blow-up time and character",
        ok,
        f"t_s {t_s if t_s is None else f'{t_s:.4f}'} vs 0.8295 +-0.01, "
        f"alpha {alpha:.4f} vs 0.33 +-0.05",
    )


def test_b3_type2_blowup_time_and_character():
    trace = deep_tracked_run(3.0, "type2", t_end=0.90, min_width=0.0006)
    t_s = trace.t_s_estimate
    alpha = trace.late_alpha
    ok = t_s is not None and abs(t_s - 0.8875) <= 0.01 and abs(alpha - 0.41) <= 0.05
    report(
        "b=3 lifted start: blow-up time and character",
        ok,
        f"t_s {t_s if t_s is None else f'{t_s:.4f}'} vs 0.8875 +-0.01, "
        f"alpha {alpha:.4f} vs 0.41 +-0.05",
    )


def test_b2_algebraic_characters():
    # default stop policy: runs end when the strip reaches the grid limit
    trace1 = deep_tracked_run(2.0, "type1", t_end=1.6, min_width=None)
    trace2 = deep_tracked_run(2.0, "type2", t_end=1.6, min_width=None)
    alpha1 = trace1.late_alpha
    alpha2 = trace2.late_alpha
    ok = abs(alpha1 - 3 / 5) <= 0.05 and abs(alpha2 - 2 / 3) <= 0.05
    report(
        "b=2 characters for both starts",
        ok,
        f"alpha {alpha1:.4f} vs 0.6 +-0.05, {alpha2:.4f} vs 0.6667 +-0.05",
    )


def minus_one_run(initial):
    config = BFamilyConfig(
        b=-1.0,
        grid=GridSpec(64),
        dt=1e-3,
        t_end=1.0,
        initial=initial,
        dealias=False,
        sample_every=100,
    )
    return simulate(config)


def grid_l2_error(trajectory, exact_values) -> float:
    grid = trajectory.config.grid
    u = inverse_transform(trajectory.snapshots[-1]).values
    return math.sqrt(2 * math.pi / grid.n_modes * float(np.sum((u - exact_values) ** 2)))


def test_minus_one_traveling_waves_stay_analytic():
    traveling = minus_one_run("type2")
    x = traveling.config.grid.nodes()
    t = traveling.times[-1]
    err_traveling = grid_l2_error(traveling, 1.0 + np.sin(x - 0.5 * t))

    stationary = minus_one_run("type1")
    err_stationary = grid_l2_error(stationary, np.sin(x))

    # the spectrum never develops a fittable decaying tail: everything
    # beyond |k| = 1 stays at round-off, so tracking reports no trend
    tail = max(
        float(np.abs(snapshot.coeffs[2 : 64 // 2 + 1]).max())
        for snapshot in traveling.snapshots
    )
    trace = track(traveling)
    no_trend = len(trace.fits) < 2 and trace.t_s_estimate is None

    ok = err_traveling < 1e-6 and err_stationary < 1e-6 and tail < 1e-12 and no_trend
    report(
        "b=-1 traveling waves stay analytic",
        ok,
        f"L2 err {err_traveling:.2e} (traveling) {err_stationary:.2e} "
        f"(stationary), tail {tail:.2e}, no decay trend: {no_trend}",
    )


def test_mean_and_energy_conservation():
    worst_mean = 0.0
    for b in (-1.0, 0.0, 2.0, 3.0):
        config = BFamilyConfig(
            b=b,
            grid=GridSpec(128),
            dt=1e-3,
            t_end=0.3,
            initial="type2",
            dealias=True,
            sample_every=50,
        )
        trajectory = simulate(config)
        mean0 = complex(trajectory.snapshots[0].coeffs[0])
        drift = max(
            abs(complex(s.coeffs[0]) - mean0) for s in trajectory.snapshots
        )
        worst_mean = max(worst_mean, drift / abs(mean0))

    # H1 energy along the b=2 run, stopped a safe margin before blow-up
    config = BFamilyConfig(
        b=2.0,
        grid=GridSpec(512),
        dt=1e-4,
        t_end=1.165,
        initial="type1",
        dealias=True,
        sample_every=250,
    )
    trajectory = simulate(config)
    energies = [sobolev_norm(s, 1.0) ** 2 for s in trajectory.snapshots]
    energy_drift = max(abs(e - energies[0]) for e in energies) / energies[0]

    ok = worst_mean <= 1e-12 and energy_drift < 1e-8
    report(
        "mean exactly conserved, H1 energy drift below 1e-8",
        ok,
        f"mean drift {worst_mean:.2e}, energy drift {energy_drift:.2e} "
        f"over {len(trajectory)} snapshots",
    )


def test_dealiased_rhs_equals_truncated_convolution():
    rng = np.random.default_rng(2024)
    grid = GridSpec(16)
    cutoff = dealias_cutoff(16)
    tol = 1e3 * np.finfo(np.float64).eps
    worst = 0.0
    for _ in range(100):
        spectrum = random_hermitian_spectrum(grid, rng)
        b = float(rng.uniform(-1.0, 4.0))
        mine = rhs_coeffs(spectrum, RhsOptions(b=b, dealias=True))
        reference = convolution_rhs(spectrum, b, cutoff)
        scale = float(np.abs(reference).max())
        worst = max(worst, float(np.abs(mine - reference).max()) / scale)
    ok = worst <= tol
    report(
        "dealiased rhs equals the exact truncated convolution",
        ok,
        f"worst rel defect {worst:.2e} over 100 random spectra, tol {tol:.2e}",
    )


def test_sweep_tables_finite_across_b(tmp_path):
    b_values = [0.0, 1.0, 2.0, 3.0, 4.0]
    summaries = []
    all_finite = True
    for initial in ("type1", "type2"):
        manifest = build_manifest(
            {
                "modes": "256",
                "dt": "0.0005",
                "t_end": "3.0",
                "initial": initial,
                "dealias": "true",
                "sample_every": "50",
            },
            tmp_path,
        )
        rows = run_sweep(manifest, b_values, max_workers=5)
        assert [row[0] for row in rows] == b_values
        for b, t_s, stderr, alpha in rows:
            finite = (
                t_s is not None
                and alpha is not None
                and math.isfinite(t_s)
                and math.isfinite(alpha)
            )
            all_finite = all_finite and finite
        summaries.append(
            f"{initial}: t_s {rows[0][1]:.2f}..{rows[-1][1]:.2f}"
            if all_finite
            else f"{initial}: missing entries"
        )
    report(
        "sweep tables over b in 0..4 complete and finite",
        all_finite,
        "; ".join(summaries),
    )
