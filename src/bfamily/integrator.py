"""Fixed-step RK4 time integration of the spectral mode system.

The classical fourth-order Runge-Kutta scheme advances all Fourier
coefficients simultaneously with a fixed step.  No adaptivity: runs are
reproducible bit for bit, and the step budget is known up front.  The
k = 0 coefficient is conserved exactly because the right-hand side's
mean component is identically zero, so every stage contributes exact
zeros there.

``rk4_step`` runs the cached ``spectral.RhsKernel`` on the state's
coefficients, which ``Spectrum`` stores in the kernel's own layout
(modes k = 0..K/2): the four stages are plain arrays (one finiteness
check each inside the kernel), and the result array becomes the new
``Spectrum`` as it is, without a copy or a symmetry check.
``simulate`` additionally checks each new state for finiteness.  Both
run one code path in either scalar mode: extended states carry their
own 32-digit mpmath context, so nothing here enters one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import GridSpec, InitialSpec, Spectrum, forward_transform, initial_datum
from .errors import BlowUpOverflowError, ConfigError
from .precision import DOUBLE, Precision, all_finite
from .spectral import RhsOptions, rhs_kernel


class StopReason(enum.Enum):
    REACHED_T_END = "reached_t_end"
    RESOLUTION_LIMIT = "resolution_limit"
    OVERFLOW = "overflow"


@dataclass(frozen=True)
class StopPolicy:
    """Early-termination rule for strip-width monitoring.

    ``min_strip_width`` is the running analyticity-strip estimate below
    which continuing is pointless (the singularity is within one grid
    spacing of the real axis); None means the grid default 2*pi/K.  A
    given width must be finite and positive: no estimate falls below
    NaN or a nonpositive width, so either would silently disable the
    early stop.
    """

    min_strip_width: Optional[float] = None

    def __post_init__(self) -> None:
        width = self.min_strip_width
        if width is not None and not (math.isfinite(width) and width > 0):
            raise ConfigError(f"min_strip_width must be finite and positive, got {width}")

    def threshold(self, grid: GridSpec) -> float:
        if self.min_strip_width is not None:
            return self.min_strip_width
        return grid.resolution_limit


@dataclass(frozen=True)
class BFamilyConfig:
    """Complete description of one simulation run."""

    b: float
    grid: GridSpec
    dt: float
    t_end: float
    initial: InitialSpec = "type1"
    dealias: bool = False
    sample_every: int = 1
    stop_policy: StopPolicy = field(default_factory=StopPolicy)
    precision: Precision = DOUBLE

    def __post_init__(self) -> None:
        if not (np.isfinite(self.b)):
            raise ConfigError(f"b must be finite, got {self.b}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if not isinstance(self.sample_every, (int, np.integer)) or self.sample_every < 1:
            raise ConfigError(f"sample_every must be a positive integer, got {self.sample_every}")

    @property
    def rhs_options(self) -> RhsOptions:
        return RhsOptions(b=self.b, dealias=self.dealias)


@dataclass(frozen=True)
class Trajectory:
    """Recorded snapshots of one run, initial state included."""

    config: BFamilyConfig
    times: tuple[float, ...]
    snapshots: tuple[Spectrum, ...]
    stop_reason: StopReason

    def __post_init__(self) -> None:
        if len(self.times) != len(self.snapshots):
            raise ValueError("times and snapshots must align")

    def __len__(self) -> int:
        return len(self.times)


def rk4_step(state: Spectrum, dt: float, options: RhsOptions) -> Spectrum:
    """One classical Runge-Kutta step of the full mode system.

    The stage inputs c0 + h*k are formed in one buffer and the final
    sum k1 + 2*k2 + 2*k3 + k4 in the array of k2, in place, in the
    operation order of the textbook formula.  The kernel forces the
    k = 0 and K/2 slots of every stage to exact zero, so the result
    keeps the input's values there and is built without the Spectrum
    symmetry check.  Raises BlowUpOverflowError when a stage overflows.
    """
    grid = state.grid
    c0 = state.coeffs
    f = rhs_kernel(grid, options, c0)
    stage = np.empty_like(c0)
    k1 = f(c0)
    k2 = f(_stage_input(c0, dt / 2, k1, stage))
    k3 = f(_stage_input(c0, dt / 2, k2, stage))
    k4 = f(_stage_input(c0, dt, k3, stage))
    # the kernel returns fresh arrays, so k2 and k3 can be overwritten
    total = k2
    total *= 2
    total += k1
    k3 *= 2
    total += k3
    total += k4
    total *= dt / 6
    total += c0
    return Spectrum.unchecked(grid, total)


def _stage_input(c0: np.ndarray, h: float, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c0 + h*k, written into ``out``."""
    np.multiply(k, h, out=out)
    out += c0
    return out


StripMonitor = Callable[[float, Spectrum], Optional[float]]


def simulate(config: BFamilyConfig, strip_monitor: Optional[StripMonitor] = None) -> Trajectory:
    """Integrate from t = 0 to t_end, recording every sample_every steps.

    ``strip_monitor`` is an optional callback called once per recorded
    snapshot after t = 0, in recording order; it receives (t, spectrum)
    and may return a running analyticity-strip width estimate (or None
    when it cannot tell).  When the estimate falls below the stop
    policy's threshold the run ends early with
    StopReason.RESOLUTION_LIMIT.  Physical-space
    overflow ends the run with StopReason.OVERFLOW and the trajectory
    holds everything recorded up to the last finite state.
    """
    u0 = initial_datum(config.initial, config.grid, config.precision)
    state = forward_transform(u0)
    opts = config.rhs_options
    dt = config.dt
    threshold = config.stop_policy.threshold(config.grid)

    # steps of dt, then one short remainder step that ends at t_end
    n_full, remainder = _step_budget(config.t_end, dt)
    n_steps = n_full + (remainder > 0.0)
    times = [0.0]
    snapshots = [state]
    stop = StopReason.REACHED_T_END
    for step_index in range(1, n_steps + 1):
        if step_index <= n_full:
            h, t = dt, step_index * dt
        else:
            h, t = remainder, config.t_end
        try:
            state = rk4_step(state, h, opts)
        except BlowUpOverflowError:
            stop = StopReason.OVERFLOW
            break
        if not all_finite(state.coeffs):
            stop = StopReason.OVERFLOW
            break
        if step_index % config.sample_every == 0 or step_index == n_steps:
            times.append(t)
            snapshots.append(state)
            if strip_monitor is not None:
                width = strip_monitor(t, state)
                if width is not None and width < threshold:
                    stop = StopReason.RESOLUTION_LIMIT
                    break

    return Trajectory(
        config=config,
        times=tuple(times),
        snapshots=tuple(snapshots),
        stop_reason=stop,
    )


def _step_budget(t_end: float, dt: float) -> tuple[int, float]:
    """Number of full dt steps plus a final short remainder step."""
    n = int(math.floor(t_end / dt + 1e-9))
    remainder = t_end - n * dt
    if remainder <= 1e-9 * max(t_end, dt):
        remainder = 0.0
    return n, remainder
