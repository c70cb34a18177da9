"""Fixed-step RK4 time integration of the spectral mode system.

The classical fourth-order Runge-Kutta scheme advances all Fourier
coefficients simultaneously with a fixed step.  No adaptivity: runs are
reproducible bit for bit, and the step budget is known up front.  The
k = 0 coefficient is conserved exactly because the right-hand side's
mean component is identically zero, so every stage contributes exact
zeros there.

``rk4_step`` runs the cached ``spectral.RhsKernel`` on the state's
coefficients, which ``Spectrum`` stores in the kernel's own layout
(modes k = 0..K/2): the four stages are plain arrays, and the result
array becomes the new ``Spectrum`` as it is, without a copy or a
symmetry check.  The kernel itself is unguarded.  The step runs its
stages and its weighted sum under one ``np.errstate`` that silences
overflow, then checks the result once for finiteness: a non-finite
value in any stage reaches the result (the kernel's k = 0 slot is
NaN·0 or inf·0, which stays NaN), so one check sees every overflow.
``simulate`` builds the initial datum in ``config.precision``, ends
with StopReason.OVERFLOW when a step raises, and ends early when the
monitor it asks at each snapshot says so.  Both run one code path in
either scalar mode: extended states carry their own 32-digit mpmath
context, so nothing here enters one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (GridSpec, InitialSpec, Spectrum, check_initial, check_integer, check_real,
                   forward_transform, initial_datum)
from .errors import BlowUpOverflowError, ConfigError
from .precision import DOUBLE, Precision
from .spectral import RhsOptions, rhs_kernel


class StopReason(enum.Enum):
    REACHED_T_END = "reached_t_end"
    RESOLUTION_LIMIT = "resolution_limit"
    OVERFLOW = "overflow"


@dataclass(frozen=True)
class BFamilyConfig:
    """Complete description of one simulation run; ``precision`` is every snapshot's mode.

    ``rhs_options`` is built from ``b`` and ``dealias`` with the config,
    and ``RhsOptions`` is the one check of those two fields.  ``dt`` and
    ``t_end`` are positive reals with t_end / dt finite and below 2**53,
    and ``sample_every`` an integer of at least 1.
    """

    b: float
    grid: GridSpec
    dt: float
    t_end: float
    initial: InitialSpec = "type1"
    dealias: bool = False
    sample_every: int = 1
    precision: Precision = DOUBLE
    rhs_options: RhsOptions = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_initial(self.initial)
        object.__setattr__(self, "rhs_options", RhsOptions(b=self.b, dealias=self.dealias))
        check_real("dt", self.dt, positive=True)
        check_real("t_end", self.t_end, positive=True)
        steps = self.t_end / self.dt
        if not math.isfinite(steps):
            raise ConfigError(f"t_end / dt must be finite, got {self.t_end} / {self.dt}")
        # past 2**53 steps, neither the step count nor step_index * dt is exact in a double
        if steps >= 2.0**53:
            raise ConfigError(f"t_end / dt must be below 2**53, got {self.t_end} / {self.dt}")
        check_integer("sample_every", self.sample_every, minimum=1)


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
    symmetry check.  The stages and the sum run under one errstate that
    silences overflow warnings, and the result is checked once: raises
    BlowUpOverflowError when it is not finite, whether a stage's
    products, a transform or the sum overflowed.
    """
    grid = state.grid
    c0 = state.coeffs
    f = rhs_kernel(grid, options, c0)
    stage = np.empty_like(c0)
    with np.errstate(over="ignore", invalid="ignore"):
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
    if not f.transforms.all_finite(total):
        raise BlowUpOverflowError("an RK4 step overflowed: its result is not finite")
    return Spectrum.unchecked(grid, total)


def _stage_input(c0: np.ndarray, h: float, k: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c0 + h*k, written into ``out``."""
    np.multiply(k, h, out=out)
    out += c0
    return out


def simulate(
    config: BFamilyConfig, strip_monitor: Optional[Callable[[float, Spectrum], bool]] = None
) -> Trajectory:
    """Integrate from t = 0 to t_end in ``config.precision``, recording every sample_every steps.

    ``strip_monitor`` is an optional yes/no question asked of every
    recorded snapshot, t = 0 included, in recording order: it receives
    (t, spectrum), and a true answer ends the run after that snapshot
    with StopReason.RESOLUTION_LIMIT.  A step that overflows
    (``rk4_step`` raises BlowUpOverflowError) ends the run with
    StopReason.OVERFLOW, and the trajectory holds everything recorded up
    to the last finite state.
    """
    u0 = initial_datum(config.initial, config.grid, config.precision)
    state = forward_transform(u0)
    opts = config.rhs_options
    dt = config.dt

    # steps of dt, then one short remainder step that ends at t_end
    n_full, remainder = _step_budget(config.t_end, dt)
    n_steps = n_full + (remainder > 0.0)
    times, snapshots = [], []
    stop = StopReason.REACHED_T_END
    step_index, t = 0, 0.0
    while True:
        if step_index % config.sample_every == 0 or step_index == n_steps:
            times.append(t)
            snapshots.append(state)
            if strip_monitor is not None and strip_monitor(t, state):
                stop = StopReason.RESOLUTION_LIMIT
                break
        if step_index == n_steps:
            break
        step_index += 1
        if step_index <= n_full:
            h, t = dt, step_index * dt
        else:
            h, t = remainder, config.t_end
        try:
            state = rk4_step(state, h, opts)
        except BlowUpOverflowError:
            stop = StopReason.OVERFLOW
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
