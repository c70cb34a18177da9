"""Complex-singularity tracking from Fourier-spectrum decay.

A function analytic in a strip of half-width delta around the real
axis, with its nearest complex singularity a branch point of order
alpha sitting at abscissa x_star, has Fourier magnitudes that decay
asymptotically like

    |u_hat[k]| ~ C * k**(-s) * exp(-delta*k),      s = 1 + alpha,

while the phases advance linearly, arg(u_hat[k]) ~ const - k*x_star.
Three consecutive magnitudes determine (s, delta, log C) exactly on
that model:

    s(k)     = log( m[k-1]*m[k+1] / m[k]**2 ) / log( k**2 / ((k-1)*(k+1)) )
    delta(k) = log( m[k]/m[k+1] ) + s(k)*log( k/(k+1) )
    log C(k) = log m[k] + s(k)*log k + k*delta(k)

Real spectra only approach the model as k grows, so the sliding
estimates form sequences in k whose limits are extracted with Wynn's
epsilon algorithm.  The algebraic character reported to callers is
alpha = s - 1: the fitted power s includes the +1 that integrating a
branch point against exp(-i*k*x) always contributes.

delta falling toward the grid's resolution limit 2*pi/K signals a real
singularity forming; linear extrapolation of delta(t) to zero, over the
fits that pass the residual and width gates, estimates the blow-up time.
A run with too few such fits has none.

A fit reads the spectrum over one wavenumber window: ``FitOptions.window``
resolves its bounds at K modes (or raises ConfigError), and
``sliding_fit`` walks it once, from the lower edge up to the first
triple on the noise floor.  ``fit_spectrum`` extrapolates what that walk
returns.

The early stop is the tracker's rule: ``strip_monitor`` fits each
recorded snapshot and tells the integrator whether delta has fallen
below ``FitOptions.min_strip_width``.  ``track_run`` simulates with it
attached, and its fits are the fits the trace aggregates, so each
snapshot is fitted once.  ``track`` fits and aggregates a trajectory
that is already recorded.  Either way the ``SingularityTrace`` is the
run's report: why it stopped, its blow-up time or why it has none, and
its late character.
Both refuse b < -1 (``check_tracked_b``) before any step or fit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import Spectrum, check_integer, check_real
from .errors import ConfigError, EmptyWindowError, ExtrapolationError, NoiseFloorError
from .integrator import BFamilyConfig, StopReason, Trajectory, simulate
from .precision import Precision, transforms_for

# A mode participates in fits only if its magnitude exceeds this many
# units of round-off relative to the spectrum's largest magnitude.
NOISE_FLOOR_FACTOR = 1e3

# Near-singular denominator guard for the epsilon table, relative to
# the entries feeding the reciprocal.
WYNN_RTOL = 1e-12

# A fit is clean when its RMS log-magnitude residual stays under this
# gate.  Only clean fits enter the blow-up extrapolation and the
# late-time character.
MAX_RESIDUAL = 0.15

# The blow-up time is extrapolated from this many of the last clean fits.
EXTRAPOLATION_SAMPLES = 5

# The fewest samples the extrapolation takes (two leave no residual to
# test the slope against); a run with fewer clean fits has no t_s.
MIN_EXTRAPOLATION_SAMPLES = 3

# The late-time character is the mean over this many of the last clean fits.
LATE_ALPHA_SAMPLES = 3


@dataclass(frozen=True)
class FitOptions:
    """Fit window for spectrum fits, and the strip width that ends a run.

    ``k_min``/``k_max`` bound the sliding window, and ``window`` is the
    one check of it: it resolves the bounds at K modes (None: max(8,
    K/16) and K/2 - 2) and raises ConfigError when fewer than three
    wavenumbers remain.  Every fitting path calls it before its first
    step, so an empty window here is not yet an error.
    ``min_strip_width`` is the fitted width below which ``strip_monitor``
    ends a run, the singularity being within one grid spacing of the
    real axis (None: the grid default 2*pi/K).  A given width must be
    finite and positive: no estimate falls below NaN or a nonpositive
    width, so either would silently disable the early stop.  Each field
    is None or passes its shared rule (``check_integer`` for the window
    edges, ``check_real`` for the width); anything else is a ConfigError.
    """

    k_min: Optional[int] = None
    k_max: Optional[int] = None
    min_strip_width: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("k_min", "k_max"):
            if getattr(self, name) is not None:
                check_integer(name, getattr(self, name))
        if self.min_strip_width is not None:
            check_real("min_strip_width", self.min_strip_width, positive=True)

    def window(self, n_modes: int) -> range:
        """The wavenumbers a fit at K modes may use, before the noise floor cuts it.

        From ``k_min`` (None: max(8, K/16)), at least 2, to ``k_max``
        capped at K/2 - 2, the last k whose triple k-1, k, k+1 lies below
        the Nyquist slot.  Raises ConfigError when that leaves fewer than
        3 wavenumbers; a run calls this before its first step.
        """
        k_lo = max(2, max(8, n_modes // 16) if self.k_min is None else self.k_min)
        k_hi = n_modes // 2 - 2 if self.k_max is None else min(self.k_max, n_modes // 2 - 2)
        if k_hi < k_lo + 2:
            raise ConfigError(
                f"fit window [{k_lo}, {k_hi}] has fewer than 3 wavenumbers at K = {n_modes}"
            )
        return range(k_lo, k_hi + 1)


@dataclass(frozen=True)
class FitResult:
    """One spectrum's singularity parameters.

    ``alpha`` is the algebraic character (branch-point order), ``delta``
    the analyticity-strip half-width, ``x_star`` the singularity
    abscissa in [-pi, pi), ``amplitude`` the prefactor C, ``k_window``
    the wavenumber range actually fitted, and ``residual`` the RMS
    log-magnitude misfit of the extrapolated model over that window.
    ``delta_clamped`` flags a (slightly) negative raw width estimate
    that was clamped to zero.  ``wynn_depth`` holds the Wynn columns
    that the limits of s, delta and log C were taken from.
    """

    amplitude: float
    alpha: float
    delta: float
    x_star: float
    k_window: tuple[int, int]
    residual: float
    wynn_depth: tuple[int, int, int]
    delta_clamped: bool = False


@dataclass(frozen=True)
class SlidingFit:
    """Sliding three-point estimates indexed by wavenumber, with log|u_hat[k]|."""

    k: tuple[int, ...]
    s: tuple
    delta: tuple
    log_c: tuple
    log_magnitude: tuple


def _magnitudes(spectrum: Spectrum, mode: Precision):
    """|u_hat[k]| and the noise floor: NOISE_FLOOR_FACTOR round-offs of the peak.

    A mode participates in fits only if its magnitude exceeds the floor.
    """
    mags = np.abs(spectrum.coeffs)
    return mags, NOISE_FLOOR_FACTOR * mode.ulp * mags.max()


def local_fit(spectrum: Spectrum, k: int):
    """Fit (s, delta, log C) from the magnitude triple at k-1, k, k+1.

    Exact on the pure decay model.  Requires 2 <= k <= K/2 - 2 and all
    three magnitudes above the noise floor.
    """
    K = spectrum.grid.n_modes
    if not 2 <= k <= K // 2 - 2:
        raise ValueError(f"fit wavenumber must lie in [2, {K // 2 - 2}], got {k}")
    mode = transforms_for(spectrum.coeffs)
    mags, floor = _magnitudes(spectrum, mode)
    triple = mags[k - 1], mags[k], mags[k + 1]
    if not all(m > floor for m in triple):
        raise NoiseFloorError(
            f"magnitudes around k={k} sit at or below the noise floor {float(floor):.3e}"
        )
    return _three_point_fit(*triple, k, _wavenumber_logs(mode, k), mode)[:3]


def _wavenumber_logs(mode: Precision, k: int) -> tuple:
    """The logs the three-point fit at k takes from k alone.

    log(k**2 / ((k-1)*(k+1))), log(k/(k+1)) and log k, in the mode's
    scalar functions.
    """
    return mode.log_ratio(k * k, (k - 1) * (k + 1)), mode.log_ratio(k, k + 1), mode.log(k)


@functools.lru_cache(maxsize=16)
def _window_logs(mode: Precision, window: range) -> tuple:
    """``_wavenumber_logs`` of every k in a fit window, built once per (mode, window).

    The extended values belong to the mode's own context, so the global
    mpmath precision does not enter them.
    """
    return tuple(_wavenumber_logs(mode, k) for k in window)


def _three_point_fit(m_lo, m_mid, m_hi, k: int, logs: tuple, mode: Precision):
    """(s, delta, log C, log m_mid) from the magnitudes at k-1, k, k+1 and k's logs."""
    log_ratio_sq, log_step, log_k = logs
    log_mid = mode.log(m_mid)
    s = mode.log((m_lo / m_mid) * (m_hi / m_mid)) / log_ratio_sq
    delta = mode.log(m_mid / m_hi) + s * log_step
    log_c = log_mid + s * log_k + k * delta
    return s, delta, log_c, log_mid


def sliding_fit(spectrum: Spectrum, options: FitOptions = FitOptions()) -> SlidingFit:
    """Apply the three-point fit across the fit window, up to the noise floor.

    Walks ``options.window(K)`` upward and stops at the first k whose
    triple is not above the floor: magnitudes decay with k, so that is
    the floor index.  Raises ConfigError when the window itself holds
    fewer than 3 wavenumbers, and EmptyWindowError when fewer than 3
    remain below the floor index.

    One comparison over the window's magnitudes finds the floor index,
    and the magnitudes below it come out as builtin scalars in one
    ``tolist()``.  The logs that depend on k alone come from the
    window's cached table (``_window_logs``); each k then runs the
    formula that ``local_fit`` runs, so every row equals
    ``local_fit(spectrum, k)`` bit for bit.
    log|u_hat[k]|, which log C needs, is kept as ``log_magnitude``.
    """
    mode = transforms_for(spectrum.coeffs)
    mags, floor = _magnitudes(spectrum, mode)
    window = options.window(spectrum.grid.n_modes)
    span = mags[window.start - 1 : window.stop + 1]
    below = np.flatnonzero(np.logical_not(span > floor))
    m = span[: below[0] if len(below) else len(span)].tolist()
    walk = window[: max(len(m) - 2, 0)]
    logs = _window_logs(mode, window)
    rows = [(k, *_three_point_fit(m[i], m[i + 1], m[i + 2], k, logs[i], mode))
            for i, k in enumerate(walk)]
    if len(rows) < 3:
        raise EmptyWindowError(
            f"fit window holds {len(rows)} admissible wavenumbers; need at least 3"
        )
    return SlidingFit(*zip(*rows))


def wynn_epsilon(seq):
    """Accelerate a sequence, or each row of a stack of them, with Wynn's epsilon.

    Builds the table column by column,

        eps[-1] = 0,  eps[0] = seq,
        eps[c+1][n] = eps[c-1][n+1] + 1/(eps[c][n+1] - eps[c][n]),

    and returns ``(limit, depth)``: the deepest entry of the deepest
    even column built without meeting a near-singular denominator
    (|difference| <= WYNN_RTOL * scale of its operands), together with that
    column's index.  A sequence whose first differences are all below
    tolerance is already converged: its last element is returned with
    depth 0.  Exact on geometric sequences L + a*r**n after one even
    column.

    Given equal-length sequences as the rows of a 2-D array-like, every
    row runs through the same column loop and the result is a list with
    one ``(limit, depth)`` per row.  A row leaves the loop at its own
    first near-singular column, so each row's result is the one it gets
    alone; a single sequence is the one-row case.

    The w rows still in the loop share one flat C-contiguous column,
    entry n of row r at index n*w + r, so each column step is three
    whole-array operations on contiguous 1-D arrays: the differences
    prev[w:] - prev[:-w], the next column prev_prev[w:len(prev)] + 1/d,
    and, after an even column, its last w entries, kept as the rows'
    limits.  A row that meets a near-singular difference takes its
    limit from there and leaves through
    ``reshape(-1, w)[:, live].ravel()``.  The arrays are float for
    doubles and object for extended values, which compute at the
    precision of their own context.  The near-singular test is the
    scalar mode's ``near_singular`` on the flat column, one flag per
    row: numpy's expression for doubles, and for extended values an
    exponent screen that settles most entries without mpmath arithmetic
    and sends the rest to the exact test, so both modes keep the same
    results.  A double limit comes back as a builtin float.
    """
    table = np.asarray(list(seq))
    mode = transforms_for(table)
    single = table.ndim == 1
    if single:
        table = table[np.newaxis]
    if table.shape[1] < 3:
        raise ValueError("epsilon acceleration needs at least 3 sequence entries")
    width, n_terms = table.shape
    best = [None] * width
    rows = np.arange(width)  # the input row of each row still in the loop
    limits, depth = table[:, -1], 0  # the live rows' last even column, and its index
    prev = table.T.ravel()
    col = 0
    with np.errstate(all="ignore"):
        prev_prev = np.tile(0 * table[:, 0], n_terms)
        while len(prev) >= 2 * width:
            d = prev[width:] - prev[:-width]
            singular = mode.near_singular(prev, d, width, WYNN_RTOL)
            if any(singular):
                singular = np.array(singular)
                for row, limit in zip(rows[singular], limits[singular].tolist()):
                    best[row] = (limit, depth)
                live = np.logical_not(singular)
                rows, limits = rows[live], limits[live]
                if not len(rows):
                    break
                prev, prev_prev, d = (a.reshape(-1, width)[:, live].ravel()
                                      for a in (prev, prev_prev, d))
                width = len(rows)
            col += 1
            prev_prev, prev = prev, prev_prev[width:len(prev)] + 1 / d
            if col % 2 == 0:
                limits, depth = prev[-width:], col
    for row, limit in zip(rows, limits.tolist()):
        best[row] = (limit, depth)
    return best[0] if single else best


def estimate_x_star(spectrum: Spectrum, ks: Sequence[int]):
    """Singularity abscissa from the phase drift of the coefficients.

    On the decay model arg(u_hat[k]) = const - k*x_star, so the
    least-squares slope of the unwrapped phase against k, negated and
    reduced mod 2*pi to [-pi, pi), estimates x_star.  The phases are
    demodulated by a circular-mean pre-estimate of the per-mode
    increment before unwrapping, which keeps the branch choice stable.
    """
    ks = [int(k) for k in ks]
    if len(ks) < 2:
        raise EmptyWindowError("phase fit needs at least 2 wavenumbers")
    mode = transforms_for(spectrum.coeffs)
    coeffs = [spectrum.coeffs[k] for k in ks]
    # circular mean of consecutive phase increments
    acc = mode.zero
    for (k1, c1), (k2, c2) in zip(zip(ks, coeffs), zip(ks[1:], coeffs[1:])):
        if k2 == k1 + 1 and abs(c1) > 0 and abs(c2) > 0:
            z = c2 / c1
            acc += z / abs(z)
    if abs(acc) == 0:
        increment = 0 * coeffs[0].real
    else:
        increment = mode.arg(acc)
    # unwrap the demodulated phases to the nearest branch
    two_pi = 2 * mode.pi
    phases = []
    for k, c in zip(ks, coeffs):
        phi = mode.arg(c) - increment * k
        if phases:
            n_wraps = round(float(phases[-1] - phi) / float(two_pi))
            phi = phi + n_wraps * two_pi
        phases.append(phi)
    # least-squares slope of phase against k
    n = len(ks)
    k_mean = sum(ks) / mode.scalar(n)
    p_mean = sum(phases) / n
    sxx = sum((k - k_mean) ** 2 for k in ks)
    sxy = sum((k - k_mean) * (p - p_mean) for k, p in zip(ks, phases))
    slope = increment + sxy / sxx
    # -slope reduced to [-pi, pi)
    return (-slope + mode.pi) % two_pi - mode.pi


def fit_spectrum(spectrum: Spectrum, options: FitOptions = FitOptions()) -> FitResult:
    """Estimate (C, alpha, delta, x_star) from one spectrum.

    Runs ``sliding_fit`` over the window, one Wynn extrapolation of the
    three estimate sequences, whose depths the result keeps, and a
    phase fit for the abscissa.  A raw
    negative strip width is clamped to zero and flagged.  Raises what
    ``sliding_fit`` raises, and ExtrapolationError when an extrapolated
    limit (s, delta or log C) is not finite or log C overflows the
    amplitude.
    """
    mode = transforms_for(spectrum.coeffs)
    sliding = sliding_fit(spectrum, options)
    ks = sliding.k
    limits, depths = zip(*wynn_epsilon([sliding.s, sliding.delta, sliding.log_c]))
    s_lim, delta_lim, log_c_lim = limits
    if not all(mode.isfinite(limit) for limit in limits):
        raise ExtrapolationError(
            "non-finite extrapolated (s, delta, log C) = "
            f"({float(s_lim):.6g}, {float(delta_lim):.6g}, {float(log_c_lim):.6g})"
        )
    x_star = estimate_x_star(spectrum, ks)

    clamped = float(delta_lim) < 0.0
    delta_out = 0 * abs(delta_lim) if clamped else delta_lim

    sq_sum = 0.0
    logs = _window_logs(mode, options.window(spectrum.grid.n_modes))
    for k, (_, _, log_k), log_magnitude in zip(ks, logs, sliding.log_magnitude):
        model = log_c_lim - s_lim * log_k - delta_lim * k
        dev = float(log_magnitude - model)
        sq_sum += dev * dev
    residual = math.sqrt(sq_sum / len(ks))

    try:
        amplitude = mode.exp(log_c_lim)
    except OverflowError as exc:
        raise ExtrapolationError(
            f"extrapolated log C = {float(log_c_lim):.6g} overflows the amplitude"
        ) from exc
    return FitResult(
        amplitude=amplitude,
        alpha=s_lim - 1,
        delta=delta_out,
        x_star=x_star,
        k_window=(ks[0], ks[-1]),
        residual=residual,
        wynn_depth=depths,
        delta_clamped=clamped,
    )


@dataclass(frozen=True)
class SingularityTrace:
    """One tracked run's report: its fits, why it stopped, t_s and the late character.

    ``fits`` (possibly empty) are those of the snapshots at ``times``, and
    ``stop_reason`` is the trajectory's.  ``t_s_estimate`` is the
    extrapolated time at which the strip width reaches zero, with a
    delta-method standard error; both are None when the run gives no
    blow-up time, and ``t_s_reason`` then says why: "under-resolved"
    when fewer than MIN_EXTRAPOLATION_SAMPLES fits pass the gates, "no
    finite-time collapse" when ``extrapolate_blowup_time`` finds no zero
    crossing in those that do.  It is None when t_s is given.
    ``late_alpha`` is None when no fit is clean.
    """

    times: tuple[float, ...]
    fits: tuple[FitResult, ...]
    stop_reason: StopReason
    t_s_estimate: Optional[float]
    t_s_stderr: Optional[float]
    t_s_reason: Optional[str]
    late_alpha: Optional[float]


def extrapolate_blowup_time(times: Sequence[float], deltas: Sequence[float]):
    """Linear extrapolation of delta(t) to zero with uncertainty.

    Fits delta ~ c0 + c1*t by least squares over the supplied samples
    and returns (t_s, stderr): the zero crossing -c0/c1 and its
    delta-method standard error, a finite number.  Returns (None, None),
    the one answer for "no blow-up time", for fewer than
    MIN_EXTRAPOLATION_SAMPLES samples, a single sample time, and a slope
    that is nonnegative or not significantly negative at two standard errors.
    """
    t = np.asarray([float(v) for v in times])
    d = np.asarray([float(v) for v in deltas])
    n = len(t)
    if n < MIN_EXTRAPOLATION_SAMPLES:
        return None, None
    t_mean = t.mean()
    d_mean = d.mean()
    sxx = float(np.sum((t - t_mean) ** 2))
    if sxx == 0.0:
        return None, None
    c1 = float(np.sum((t - t_mean) * (d - d_mean)) / sxx)
    c0 = d_mean - c1 * t_mean
    resid = d - (c0 + c1 * t)
    sigma_sq = float(np.sum(resid**2)) / (n - 2)
    var_c1 = sigma_sq / sxx
    var_c0 = sigma_sq * (1.0 / n + t_mean**2 / sxx)
    cov_01 = -sigma_sq * t_mean / sxx
    if c1 >= 0.0 or abs(c1) < 2.0 * math.sqrt(var_c1):
        return None, None
    t_s = -c0 / c1
    g0 = -1.0 / c1
    g1 = c0 / c1**2
    var_ts = g0 * g0 * var_c0 + 2.0 * g0 * g1 * cov_01 + g1 * g1 * var_c1
    return t_s, math.sqrt(max(var_ts, 0.0))


def _fit_or_skip(spectrum: Spectrum, options: FitOptions) -> Optional[FitResult]:
    try:
        return fit_spectrum(spectrum, options)
    except (EmptyWindowError, ExtrapolationError):
        return None


def _trace(trajectory: Trajectory, results: Sequence[Optional[FitResult]]) -> SingularityTrace:
    """Aggregate one fit outcome per snapshot (None: no fit) into a trace.

    The blow-up time is extrapolated from the last EXTRAPOLATION_SAMPLES
    fits whose residual stays under MAX_RESIDUAL and whose width stays
    at or above a quarter of the grid's resolution limit.  Width
    estimates from deeper snapshots flatten as truncation regularizes
    the collapse, which would bias the zero crossing late; the gated
    band keeps the extrapolation on the clean part of the decay.  Fewer
    than MIN_EXTRAPOLATION_SAMPLES gated fits give no t_s, the run being
    "under-resolved"; enough of them without a significant fall give
    "no finite-time collapse".  Fits that fail the gates never enter.

    The late character averages alpha over the last LATE_ALPHA_SAMPLES
    fits under MAX_RESIDUAL, the deepest included: below the grid floor
    the algebraic part of the decay is still resolved.
    """
    times, fits = [], []
    for t, result in zip(trajectory.times, results):
        if result is not None:
            times.append(t)
            fits.append(result)
    gate = trajectory.config.grid.resolution_limit / 4
    clean = [i for i, f in enumerate(fits)
             if f.residual < MAX_RESIDUAL and float(f.delta) >= gate]
    sel = clean[-EXTRAPOLATION_SAMPLES:]
    t_s, stderr = extrapolate_blowup_time(
        [times[i] for i in sel], [float(fits[i].delta) for i in sel]
    )
    reason = None
    if t_s is None:
        reason = ("under-resolved" if len(clean) < MIN_EXTRAPOLATION_SAMPLES
                  else "no finite-time collapse")
    good = [float(f.alpha) for f in fits if f.residual < MAX_RESIDUAL]
    return SingularityTrace(
        times=tuple(times),
        fits=tuple(fits),
        stop_reason=trajectory.stop_reason,
        t_s_estimate=t_s,
        t_s_stderr=stderr,
        t_s_reason=reason,
        late_alpha=float(np.mean(good[-LATE_ALPHA_SAMPLES:])) if good else None,
    )


def check_tracked_b(b: float) -> None:
    """The tracked range of b: ConfigError for b < -1, and every b >= -1 passes.

    Below -1 lies the ramp-and-cliff regime (Holm & Staley, SIAM J. Appl.
    Dyn. Syst. 2, 2003), where no strip-width t_s law is characterized.
    """
    if b < -1:
        raise ConfigError(f"b = {b} is below the tracked range b >= -1")


def track(trajectory: Trajectory, fit: FitOptions = FitOptions()) -> SingularityTrace:
    """Fit every snapshot of a recorded trajectory and extrapolate the blow-up time.

    Snapshots whose spectra admit no fit (window below the noise floor,
    overflowing extrapolation) are skipped; too few gated fits give no t_s.
    A trajectory with b < -1 raises ConfigError before any fit.
    """
    check_tracked_b(trajectory.config.b)
    return _trace(trajectory, [_fit_or_skip(s, fit) for s in trajectory.snapshots])


def track_run(config: BFamilyConfig, fit: FitOptions) -> tuple[Trajectory, SingularityTrace]:
    """Simulate with the strip monitor attached, then aggregate its fits.

    ``simulate`` asks the monitor about every recorded snapshot, t = 0
    included, in order, so its record holds one fit outcome per snapshot
    in snapshot order: each snapshot is fitted once.  The trace equals
    ``track(trajectory, fit)``.  A window that holds fewer than three
    wavenumbers at the config's K raises ConfigError from the t = 0 fit,
    and b < -1 before it; any other run, an overflowed one or one with
    no fit included, gives a trace.
    """
    check_tracked_b(config.b)
    results: list[Optional[FitResult]] = []
    trajectory = simulate(config, strip_monitor(fit, results))
    return trajectory, _trace(trajectory, results)


def strip_monitor(
    options: FitOptions = FitOptions(), record: Optional[list[Optional[FitResult]]] = None
) -> Callable[[float, Spectrum], bool]:
    """The early-stop rule, as the yes/no question ``simulate`` asks per snapshot.

    The monitor fits the snapshot and answers true when the fitted width
    lies below ``options.min_strip_width`` (None: the grid limit 2*pi/K);
    a spectrum that admits no fit never stops the run.  When ``record``
    is given, each snapshot's fit result (None for no fit) is appended.
    """

    def monitor(t: float, spectrum: Spectrum) -> bool:
        result = _fit_or_skip(spectrum, options)
        if record is not None:
            record.append(result)
        width = options.min_strip_width or spectrum.grid.resolution_limit
        return result is not None and float(result.delta) < width

    return monitor
