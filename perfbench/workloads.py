"""The benchmark's workloads, run through bfamily's public API and CLI.

Every call into the package goes through a module attribute
(``cli.main``, ``integrator.simulate``, ``tracker.fit_spectrum``) so that
the tracer, which patches those attributes, sees it.  Each workload
checks its own outputs and records one entry in ``Checks`` per check.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shutil
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from bfamily import cli, core, integrator, precision, synthetic, tracker

# The five algebraic characters and the abscissa of the stock validate
# suite.  Oracle abscissae are not drawn at random: the fit is not
# translation-equivariant, and about one case in a hundred misses the
# validate tolerances at a random abscissa (see the README).
CHARACTERS = (1 / 3, 2 / 5, 1 / 2, 3 / 5, 2 / 3)
X_STAR = 0.7


class Checks:
    """Correctness checks of one run: how many were made, which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def call_cli(argv: list[str]) -> int:
    """Run the ``bfamily`` console entry point in this process."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def read_key_values(path: Path) -> dict:
    pairs = (line.split(" = ", 1) for line in path.read_text().splitlines())
    return {key: value for key, value in pairs}


def read_csv_rows(path: Path) -> list[list[str]]:
    """Data rows of a CLI CSV file (provenance comments and header dropped)."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def finite_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def step_count(trajectory) -> int:
    """RK4 steps behind a trajectory (a short final step counts as one)."""
    return math.ceil(trajectory.times[-1] / trajectory.config.dt - 1e-6)


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


def write_manifest(path: Path, entries: dict) -> Path:
    path.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
    return path


def short_config(manifest, steps: int, **changes):
    """The manifest's config cut to ``steps`` steps, one snapshot per step."""
    config = manifest.config
    return replace(config, t_end=steps * config.dt, sample_every=1, **changes)


class Workload:
    """One named workload.

    ``repetition`` is the timed unit of an untraced run.  ``trace_pass``
    is the unit that a traced run times twice, once untraced and once
    traced; by default it is the repetition.  ``compare`` checks two
    units of one invocation against each other.
    """

    name = ""
    fft_modes = 0
    pooled = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self._dirs = 0

    @classmethod
    def warm_up(cls) -> None:
        raise NotImplementedError

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{stem}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def repetition(self, checks: Checks) -> dict:
        raise NotImplementedError

    def trace_pass(self, checks: Checks) -> dict:
        return self.repetition(checks)

    def compare(self, first: dict, second: dict, checks: Checks) -> None:
        pass

    def readout(self, reps: list[dict]) -> dict:
        """Extra end-to-end figures for the human-readable lines."""
        return {}


class DeepTrack(Workload):
    """``bfamily track`` on the frozen b=3 acceptance manifest."""

    name = "deep_b3_track"
    fft_modes = 1024
    MANIFEST = {
        "b": "3.0",
        "modes": "1024",
        "dt": "0.0001",
        "t_end": "0.84",
        "initial": "type1",
        "dealias": "true",
        "sample_every": "25",
        "fit_kmin": "64",
        "fit_kmax": "300",
        "min_strip_width": "0.0006",
    }
    T_S_REF, T_S_TOL = 0.8295, 0.01
    ALPHA_REF, ALPHA_TOL = 0.33, 0.05
    IDENTICAL_FILES = ("singularity.csv", "summary.txt")

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.manifest_path = write_manifest(workdir / "deep.txt", self.MANIFEST)

    @classmethod
    def warm_up(cls) -> None:
        manifest = cli.build_manifest(dict(cls.MANIFEST), Path("."))
        integrator.simulate(
            short_config(manifest, 2), strip_monitor=tracker.strip_monitor(manifest.fit)
        )

    def repetition(self, checks: Checks) -> dict:
        out = self.fresh_dir("track")
        start = time.perf_counter()
        code = call_cli(["track", "--manifest", str(self.manifest_path), "--out", str(out)])
        wall = time.perf_counter() - start
        rep = {"wall_s": wall, "out": out}
        if not checks.check(code == cli.EXIT_OK, f"track exited with code {code}"):
            return rep
        summary = read_key_values(out / "summary.txt")
        t_s = float(summary["t_s"])
        alpha = float(summary["late_time_alpha"])
        rep.update(t_s=t_s, alpha=alpha)
        checks.check(
            summary["stop_reason"] == "resolution_limit",
            f"stop reason {summary['stop_reason']}, expected resolution_limit",
        )
        checks.check(
            abs(t_s - self.T_S_REF) <= self.T_S_TOL,
            f"t_s {t_s:.4f} outside {self.T_S_REF} +- {self.T_S_TOL}",
        )
        checks.check(
            abs(alpha - self.ALPHA_REF) <= self.ALPHA_TOL,
            f"late alpha {alpha:.4f} outside {self.ALPHA_REF} +- {self.ALPHA_TOL}",
        )
        return rep

    def compare(self, first: dict, second: dict, checks: Checks) -> None:
        for name in self.IDENTICAL_FILES:
            a, b = first["out"] / name, second["out"] / name
            same = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
            checks.check(same, f"{name} differs between two reruns of one manifest")
        shutil.rmtree(first["out"], ignore_errors=True)

    def readout(self, reps: list[dict]) -> dict:
        last = reps[-1]
        if "t_s" not in last:
            return {}
        return {
            "t_s": (last["t_s"], "1"),
            "late_alpha": (last["alpha"], "1"),
            "ts_abs_err": (abs(last["t_s"] - self.T_S_REF), "1"),
            "alpha_abs_err": (abs(last["alpha"] - self.ALPHA_REF), "1"),
        }


class Sweep(Workload):
    """``bfamily sweep`` over five b values at K=256 in a worker pool."""

    name = "sweep_k256"
    fft_modes = 256
    pooled = True
    B_VALUES = (0.0, 1.0, 2.0, 3.0, 4.0)
    MANIFEST = {
        "modes": "256",
        "dt": "0.0005",
        "t_end": "3.0",
        "initial": "type1",
        "dealias": "true",
        "sample_every": "50",
    }

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.manifest_path = write_manifest(workdir / "sweep.txt", self.MANIFEST)
        self.workers = min(len(self.B_VALUES), available_cpus())

    @classmethod
    def warm_up(cls) -> None:
        manifest = cli.build_manifest(dict(cls.MANIFEST), Path("."))
        for b in cls.B_VALUES:
            integrator.simulate(
                short_config(manifest, 1, b=b),
                strip_monitor=tracker.strip_monitor(manifest.fit),
            )

    def _check_row(self, row, b: float, checks: Checks) -> None:
        cells = [str(cell) for cell in row]
        checks.check(
            len(cells) == 4 and float(cells[0]) == b and all(map(finite_number, cells)),
            f"sweep row for b={b} is not finite: {cells}",
        )

    def repetition(self, checks: Checks) -> dict:
        out = self.fresh_dir("sweep")
        b_list = ",".join(repr(b) for b in self.B_VALUES)
        start = time.perf_counter()
        code = call_cli([
            "sweep", "--manifest", str(self.manifest_path), "--out", str(out),
            "--b-list", b_list, "--workers", str(self.workers),
        ])
        wall = time.perf_counter() - start
        if checks.check(code == cli.EXIT_OK, f"sweep exited with code {code}"):
            rows = read_csv_rows(out / "sweep.csv")
            checks.check(len(rows) == len(self.B_VALUES), f"sweep wrote {len(rows)} rows")
            for b, row in zip(self.B_VALUES, rows):
                self._check_row(row, b, checks)
        shutil.rmtree(out, ignore_errors=True)
        return {"wall_s": wall}

    def trace_pass(self, checks: Checks) -> dict:
        """One inline ``run_sweep(manifest, [b])`` per b: no pool, per-b busy time."""
        manifest = cli.build_manifest(dict(self.MANIFEST), self.workdir)
        busy = {}
        start = time.perf_counter()
        for b in self.B_VALUES:
            began = time.perf_counter()
            rows = cli.run_sweep(manifest, [b])
            busy[b] = time.perf_counter() - began
            self._check_row(rows[0], b, checks)
        return {"wall_s": time.perf_counter() - start, "busy": busy}


class Closure(Workload):
    """``validate_cases`` at K=4096 over strip widths 0.01 .. 0.5.

    The seed sets only the order of the cases.
    """

    name = "closure"
    fft_modes = 4096
    DELTAS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.cases = [(delta, alpha) for delta in self.DELTAS for alpha in CHARACTERS]
        random.Random(seed).shuffle(self.cases)

    @classmethod
    def warm_up(cls) -> None:
        cli.validate_cases(
            n_modes=cls.fft_modes, deltas=(cls.DELTAS[-1],), alphas=(CHARACTERS[0],),
            x_star=X_STAR, fit=tracker.FitOptions(k_min=16),
        )

    def repetition(self, checks: Checks) -> dict:
        fits_ok = 0
        start = time.perf_counter()
        for delta, alpha in self.cases:
            (_, _, status, detail), = cli.validate_cases(
                n_modes=self.fft_modes, deltas=(delta,), alphas=(alpha,),
                x_star=X_STAR, fit=tracker.FitOptions(k_min=16),
            )
            fits_ok += status == "PASS" or "off by" in detail
            checks.check(
                status == "PASS", f"closure delta={delta} alpha={alpha:.4f}: {status} {detail}"
            )
        wall = time.perf_counter() - start
        return {"wall_s": wall, "fits_ok": fits_ok}

    def readout(self, reps: list[dict]) -> dict:
        rates = [rep["fits_ok"] / rep["wall_s"] for rep in reps]
        return {"fits_per_s": (float(np.median(rates)), "1/s")}


class Extended(Workload):
    """The extended32 (mpmath) path: a short K=64 run and K=256 oracle fits."""

    name = "extended_k64"
    fft_modes = 64
    CONFIG = integrator.BFamilyConfig(
        b=3.0,
        grid=core.GridSpec(64),
        dt=1e-3,
        t_end=0.04,
        initial="type1",
        dealias=True,
        sample_every=10,
        precision=precision.EXTENDED32,
    )
    ORACLE_MODES = 256
    ORACLE_DELTAS = (0.1, 0.15, 0.2, 0.35, 0.5)
    # Largest |extended - double| of the final spectrum, relative to the
    # largest double coefficient: a few hundred double round-offs.
    DOUBLE_AGREEMENT_RTOL = 1e-13

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.specs = [
            synthetic.SyntheticSpec(alpha=alpha, delta=delta, x_star=X_STAR)
            for delta, alpha in zip(self.ORACLE_DELTAS, CHARACTERS)
        ]
        random.Random(seed).shuffle(self.specs)
        double = integrator.simulate(replace(self.CONFIG, precision=precision.DOUBLE))
        self.reference = np.asarray(double.snapshots[-1].coeffs)

    @classmethod
    def warm_up(cls) -> None:
        integrator.simulate(replace(cls.CONFIG, t_end=cls.CONFIG.dt, sample_every=1))
        spec = synthetic.SyntheticSpec(alpha=CHARACTERS[0], delta=cls.ORACLE_DELTAS[-1], x_star=X_STAR)
        tracker.fit_spectrum(
            synthetic.oracle_spectrum(spec, core.GridSpec(cls.ORACLE_MODES), precision.EXTENDED32),
            tracker.FitOptions(k_min=16),
        )

    def repetition(self, checks: Checks) -> dict:
        start = time.perf_counter()
        trajectory = integrator.simulate(self.CONFIG)
        simulated = time.perf_counter()
        results = []
        grid = core.GridSpec(self.ORACLE_MODES)
        for spec in self.specs:
            spectrum = synthetic.oracle_spectrum(spec, grid, precision.EXTENDED32)
            results.append(tracker.fit_spectrum(spectrum, tracker.FitOptions(k_min=16)))
        end = time.perf_counter()

        means = [snapshot.coeffs[0] for snapshot in trajectory.snapshots]
        checks.check(
            trajectory.stop_reason.value == "reached_t_end" and all(m == means[0] for m in means),
            "extended run did not reach t_end with its mean conserved exactly",
        )
        final = np.array([complex(c) for c in trajectory.snapshots[-1].coeffs])
        defect = float(np.abs(final - self.reference).max())
        scale = float(np.abs(self.reference).max())
        checks.check(
            defect <= self.DOUBLE_AGREEMENT_RTOL * scale,
            f"extended and double final spectra differ by {defect:.2e} (scale {scale:.2e})",
        )
        for spec, result in zip(self.specs, results):
            errors = (
                abs(float(result.delta) - spec.delta),
                abs(float(result.alpha) - spec.alpha),
                abs(float(result.x_star) - spec.x_star),
            )
            tolerances = (cli.VALIDATE_DELTA_TOL, cli.VALIDATE_ALPHA_TOL, cli.VALIDATE_X_STAR_TOL)
            checks.check(
                all(e <= tol for e, tol in zip(errors, tolerances)),
                f"extended oracle fit {spec}: errors {errors}",
            )
        return {
            "wall_s": end - start,
            "fit_s": end - simulated,
            "fits_ok": len(results),
        }

    def readout(self, reps: list[dict]) -> dict:
        rates = [rep["fits_ok"] / rep["fit_s"] for rep in reps]
        return {"fits_per_s": (float(np.median(rates)), "1/s")}


WORKLOADS = {cls.name: cls for cls in (DeepTrack, Sweep, Closure, Extended)}
