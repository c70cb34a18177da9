"""Batch front end: simulate, track, sweep, and validate runs from manifests.

A manifest is a flat text file of ``key = value`` lines (``#`` starts a
comment).  The keys, with the defaults and parsers in ``_MANIFEST_KEYS``:

    b               = 3.0        family parameter
    modes           = 1024       grid resolution K
    dt              = 0.0001     time step
    t_end           = 1.0        integration horizon
    initial         = type1      type1 (sin x) or type2 (1 + sin x)
    dealias         = false      2/3-rule truncation of the products
    sample_every    = 25         steps between recorded snapshots
    fit_kmin        = none       lower fit-window edge (none: max(8, K/16))
    fit_kmax        = none       upper fit-window edge (none: K/2 - 2; the noise floor may cut it)
    precision       = double     double or extended32
    min_strip_width = none       early-stop width (none: grid limit 2*pi/K)

The fit keys and ``min_strip_width`` fill ``tracker.FitOptions``, which
owns the fit window and the early stop.  ``build_manifest`` checks each
value, not the window: ``FitOptions.window`` checks that at the
manifest's K where a fit runs, before any step.  ``track`` and a
monitored ``simulate`` fail on their t = 0 fit, and ``sweep`` checks it
before its first run.  With ``min_strip_width = none``,
``simulate`` attaches no width monitor, so it fits nothing and never
reads the window; ``track`` and ``sweep`` always attach one.
``validate`` checks its window at its K before the first case.

Command-line flags mirror the keys and override the file.  Flag
values, those of ``sweep --workers`` and ``validate --modes`` and
``--fit-kmin`` included, are strings that the key parsers read, so a
bad one is one ``configuration error:`` line on stderr and exit 2, not
argparse's usage text.  Outputs are
CSV files whose ``#``-prefixed header repeats the schema version and the
full manifest, so a result file is its own provenance record; nothing
else (no timestamps) enters the files, and reruns of the same manifest
in double precision are bit-identical.

Exit codes: 0 success, 1 a ``validate`` case failed (``EXIT_VALIDATE_FAIL``),
2 configuration error (an output that cannot be created or written
included; an ``--out`` under a non-directory fails before the run), 3
overflow before t_end (the partial run's outputs are written; ``sweep``
exits 3 if any run did).  A tracked run with no blow-up time or no
clean fit exits 0 with an empty t_s or late alpha; ``track``'s
``summary.txt`` gives the trace's ``t_s_reason`` for an empty t_s.
``_result_line`` and ``_notes`` render a run's report, its
``SingularityTrace``; the one stderr note is the overflow's.

``track``, ``sweep`` and ``run_sweep`` refuse b < -1
(``tracker.check_tracked_b``); ``simulate`` takes any finite b.
``sweep`` and ``run_sweep`` share one gate before any run starts.

``sweep``'s pool holds at most one worker per b, and by default no more
than the CPUs in this process's affinity set.  A pool of one is not
started: one b, ``--workers 1`` or one usable CPU runs every b in this
process.  Each worker sends back its full trace.  No double-precision
command imports mpmath, and none but a pooled ``sweep`` imports
``multiprocessing``.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import GridSpec, check_integer, inverse_transform
from .errors import BFamilyError, ConfigError
from .integrator import BFamilyConfig, StopReason, simulate
from .precision import MODES, Precision
from .spectral import derivative
from .synthetic import SyntheticSpec, oracle_spectrum
from .tracker import (FitOptions, SingularityTrace, check_tracked_b, fit_spectrum,
                      strip_monitor, track_run)

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_VALIDATE_FAIL = 1
EXIT_CONFIG = 2
EXIT_OVERFLOW = 3

# Closure tolerances of the validate suite (absolute).
VALIDATE_DELTA_TOL = 1e-4
VALIDATE_ALPHA_TOL = 0.02
VALIDATE_X_STAR_TOL = 1e-4

_VALIDATE_DELTAS = (0.05, 0.1, 0.2, 0.35, 0.5)
_VALIDATE_ALPHAS = (1 / 3, 2 / 5, 1 / 2, 3 / 5, 2 / 3)


@dataclass(frozen=True)
class RunManifest:
    """One run's full configuration plus tracker options and output root."""

    config: BFamilyConfig
    fit: FitOptions
    out_dir: Path


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {raw!r}")


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from exc


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from exc


def _parse_precision(raw: str, key: str) -> Precision:
    mode = MODES.get(raw.strip().lower())
    if mode is None:
        raise ConfigError(f"{key} must be {' or '.join(map(repr, MODES))}, got {raw!r}")
    return mode


def _optional(parser):
    return lambda raw, key: None if raw.strip().lower() in ("none", "") else parser(raw, key)


# key: (default text, parser, where a RunManifest holds the value), in provenance order
_MANIFEST_KEYS = {
    "b": ("3.0", _parse_float, "config.b"),
    "modes": ("1024", _parse_int, "config.grid.n_modes"),
    "dt": ("0.0001", _parse_float, "config.dt"),
    "t_end": ("1.0", _parse_float, "config.t_end"),
    "initial": ("type1", lambda raw, key: raw.strip(), "config.initial"),
    "dealias": ("false", _parse_bool, "config.dealias"),
    "sample_every": ("25", _parse_int, "config.sample_every"),
    "fit_kmin": ("none", _optional(_parse_int), "fit.k_min"),
    "fit_kmax": ("none", _optional(_parse_int), "fit.k_max"),
    "precision": ("double", _parse_precision, "config.precision"),
    "min_strip_width": ("none", _optional(_parse_float), "fit.min_strip_width"),
}


def parse_manifest_text(text: str) -> dict:
    """Flat ``key = value`` lines to a string map; unknown and repeated keys rejected."""
    entries, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"manifest line {lineno} is not 'key = value': {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _MANIFEST_KEYS:
            raise ConfigError(f"manifest line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"manifest line {lineno}: key {key!r} repeats line {first_line[key]}"
            )
        first_line[key] = lineno
        entries[key] = value
    return entries


def build_manifest(entries: dict, out_dir: Path) -> RunManifest:
    """Materialize a RunManifest from string entries (defaults filled in)."""
    v = {key: parse(entries.get(key, default), key)
         for key, (default, parse, _) in _MANIFEST_KEYS.items()}
    config = BFamilyConfig(
        b=v["b"], grid=GridSpec(v["modes"]), dt=v["dt"], t_end=v["t_end"], initial=v["initial"],
        dealias=v["dealias"], sample_every=v["sample_every"], precision=v["precision"],
    )
    fit = FitOptions(k_min=v["fit_kmin"], k_max=v["fit_kmax"],
                     min_strip_width=v["min_strip_width"])
    return RunManifest(config=config, fit=fit, out_dir=out_dir)


def _entry_text(value) -> str:
    """A manifest value as its provenance text, which its key's parser reads back."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, Precision):
        return value.label
    return str(value)


def manifest_entries(manifest: RunManifest) -> dict:
    """The manifest back as plain strings, for provenance headers."""
    return {key: _entry_text(attrgetter(path)(manifest))
            for key, (_, _, path) in _MANIFEST_KEYS.items()}


def _value_formatter(precision: Precision):
    text = precision.text

    def fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return text(value)

    return fmt


def _csv_lines(rows, fmt) -> Iterator[str]:
    """One CSV line per row, each cell formatted by ``fmt``."""
    return (",".join(fmt(cell) for cell in row) + "\n" for row in rows)


def write_csv(path: Path, provenance: dict, columns: Sequence[str], lines: Iterable[str]) -> None:
    """Write the header, then the data ``lines`` as they are yielded.

    Each item is newline-terminated and may hold several lines.
    """
    with path.open("w") as out:
        out.write(f"# schema_version = {SCHEMA_VERSION}\n")
        out.writelines(f"# {key} = {value}\n" for key, value in provenance.items())
        out.write(",".join(columns) + "\n")
        out.writelines(lines)


def _magnitude_lines(trajectory, fmt) -> Iterator[str]:
    """``t,k,|u_hat[k]|`` for k = 0..K/2-1 of every snapshot, one string per snapshot.

    Each snapshot is converted to builtin scalars in one ``tolist``, its
    lines are joined into one string, ``t`` is formatted once per
    snapshot and the ``,k,`` cells once per run.  Scalar ``abs`` of a
    builtin complex equals that of a numpy complex128; array ``np.abs``
    can differ in the last bit, so it is not used.  ``abs`` of an
    extended value rounds to the extended mode's own 32 digits, and
    ``fmt`` formats every magnitude, so extended values print all their
    digits.
    """
    half = trajectory.config.grid.n_modes // 2
    heads = [f",{k}," for k in range(half)]
    for t, snapshot in zip(trajectory.times, trajectory.snapshots):
        stamp = fmt(t)
        yield "".join([f"{stamp}{head}{fmt(abs(c))}\n"
                       for head, c in zip(heads, snapshot.coeffs[:half].tolist())])


@contextmanager
def _writing(out: Path) -> Iterator[None]:
    """The write phase of a command: an OSError there is a ConfigError naming ``out``.

    Commands enter it only after their run, so an OSError from the run
    or the worker pool is never reported as an unwritable output.  An
    ``--out`` under a non-directory is refused before the run; this
    catches what only a write shows (permissions, a full disk).
    """
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output to {out}: {exc}") from exc


def _write_summary(path: Path, provenance: dict, facts: dict) -> None:
    lines = [f"schema_version = {SCHEMA_VERSION}"]
    lines.extend(f"{key} = {value}" for key, value in provenance.items())
    lines.extend(f"{key} = {value}" for key, value in facts.items())
    path.write_text("\n".join(lines) + "\n")


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot the CSV outputs sitting next to this script (needs matplotlib).\"\"\"

import csv
from pathlib import Path

import matplotlib.pyplot as plt


def read_table(path):
    rows = [r for r in csv.reader(path.open()) if r and not r[0].startswith("#")]
    header, data = rows[0], rows[1:]
    return {
        name: [float(r[i]) if r[i] else None for r in data]
        for i, name in enumerate(header)
    }


here = Path(__file__).resolve().parent
singularity = here / "singularity.csv"
sweep = here / "sweep.csv"

if singularity.exists():
    table = read_table(singularity)
    fig, axes = plt.subplots(1, 2, figsize=(10, 4))
    axes[0].plot(table["t"], table["delta"])
    axes[0].set_xlabel("t")
    axes[0].set_ylabel("strip width delta")
    axes[1].plot(table["t"], table["alpha"])
    axes[1].set_xlabel("t")
    axes[1].set_ylabel("algebraic character alpha")
    fig.tight_layout()
    fig.savefig(here / "singularity.png", dpi=150)

if sweep.exists():
    table = read_table(sweep)
    fig, axes = plt.subplots(1, 2, figsize=(10, 4))
    pairs = [(b, t) for b, t in zip(table["b"], table["t_s"]) if t is not None]
    if pairs:
        axes[0].plot([p[0] for p in pairs], [p[1] for p in pairs], marker="o")
    axes[0].set_xlabel("b")
    axes[0].set_ylabel("blow-up time t_s")
    pairs = [(b, a) for b, a in zip(table["b"], table["alpha"]) if a is not None]
    if pairs:
        axes[1].plot([p[0] for p in pairs], [p[1] for p in pairs], marker="o")
    axes[1].set_xlabel("b")
    axes[1].set_ylabel("late-time alpha")
    fig.tight_layout()
    fig.savefig(here / "sweep.png", dpi=150)
"""


def cmd_simulate(manifest: RunManifest) -> int:
    config = manifest.config
    monitor = None
    if manifest.fit.min_strip_width is not None:
        monitor = strip_monitor(manifest.fit)
    trajectory = simulate(config, strip_monitor=monitor)
    provenance = manifest_entries(manifest)
    fmt = _value_formatter(config.precision)

    out = manifest.out_dir
    x = config.grid.nodes(config.precision)
    with _writing(out):
        (out / "spectra").mkdir(parents=True, exist_ok=True)
        (out / "fields").mkdir(parents=True, exist_ok=True)
        for index, (t, snapshot) in enumerate(zip(trajectory.times, trajectory.snapshots)):
            stamp = dict(provenance, t=fmt(t))
            write_csv(
                out / "spectra" / f"spectrum_{index:04d}.csv",
                stamp,
                ("k", "re", "im"),
                _csv_lines(((k, c.real, c.imag) for k, c in enumerate(snapshot.coeffs)), fmt),
            )
            u = inverse_transform(snapshot).values
            ux = inverse_transform(derivative(snapshot)).values
            write_csv(
                out / "fields" / f"field_{index:04d}.csv",
                stamp,
                ("x", "u", "ux"),
                _csv_lines(zip(x, u, ux), fmt),
            )
        _write_summary(
            out / "summary.txt",
            provenance,
            {
                "stop_reason": trajectory.stop_reason.value,
                "snapshots": len(trajectory),
                "final_time": fmt(trajectory.times[-1]),
            },
        )
    return _notes("", trajectory.stop_reason)


def cmd_track(manifest: RunManifest) -> int:
    config = manifest.config
    trajectory, trace = track_run(config, manifest.fit)
    provenance = manifest_entries(manifest)
    fmt = _value_formatter(config.precision)

    out = manifest.out_dir
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        write_csv(
            out / "singularity.csv",
            provenance,
            ("t", "delta", "alpha", "x_star", "residual"),
            _csv_lines(
                ((t, f.delta, f.alpha, f.x_star, f.residual)
                 for t, f in zip(trace.times, trace.fits)),
                fmt,
            ),
        )
        write_csv(
            out / "magnitudes.csv",
            provenance,
            ("t", "k", "magnitude"),
            _magnitude_lines(trajectory, fmt),
        )
        _write_summary(
            out / "summary.txt",
            provenance,
            {
                "stop_reason": trace.stop_reason.value,
                "snapshots": len(trajectory),
                "fitted_snapshots": len(trace.fits),
                "t_s": fmt(trace.t_s_estimate),
                "t_s_stderr": fmt(trace.t_s_stderr),
                "late_time_alpha": fmt(trace.late_alpha),
                "t_s_reason": trace.t_s_reason or "",
            },
        )
        (out / "plot.py").write_text(_PLOT_SCRIPT)
    print(_result_line(trace))
    return _notes("", trace.stop_reason)


def _result_line(trace: SingularityTrace, prefix: str = "", stderr: bool = True) -> str:
    """The run's stdout line after ``prefix``: t_s (and its stderr) and the late alpha."""
    t_s, alpha = trace.t_s_estimate, trace.late_alpha
    t_text = "none" if t_s is None else f"{t_s:.6f}"
    if t_s is not None and stderr:
        t_text += f" +- {trace.t_s_stderr:.6f}"
    alpha_text = "none" if alpha is None else f"{alpha:.4f}"
    return f"{prefix}t_s = {t_text}, late-time alpha = {alpha_text}"


def _notes(prefix: str, stop_reason: StopReason) -> int:
    """Print a run's stderr note after ``prefix``, if any, and return its exit code."""
    if stop_reason is StopReason.OVERFLOW:
        print(f"{prefix}overflow before t_end; the outputs hold the partial run", file=sys.stderr)
        return EXIT_OVERFLOW
    return EXIT_OK


def _sweep_entry(task: tuple) -> tuple:
    """``(b, trace)`` for a ``(config, fit)`` task, fits and all: extended32 values pickle."""
    config, fit = task
    _, trace = track_run(config, fit)
    return config.b, trace


def _sweep_traces(
    manifest: RunManifest, b_values: Sequence[float], max_workers: Optional[int] = None
) -> list:
    """One tracked run per b (worker pool): ``(b, trace)`` pairs sorted by b.

    The one gate of ``sweep`` and ``run_sweep``: an empty b list, a
    ``max_workers`` that is neither None nor an integer of at least 1, a
    b below -1, an empty fit window at K and a b that ``BFamilyConfig``
    refuses (a NaN, say) raise ConfigError before any run starts.  The
    pool holds no more workers than there are b values (under fork it
    starts all of them at once), nor by default than CPUs this process
    may run on.  A pool of one would only add a process: its b values
    run here instead, so only a sweep that pools imports the pool and
    ``multiprocessing``.
    """
    if len(b_values) == 0:
        raise ConfigError("sweep needs at least one b value")
    if max_workers is not None:
        check_integer("--workers", max_workers, minimum=1)
    for b in b_values:
        check_tracked_b(b)
    manifest.fit.window(manifest.config.grid.n_modes)
    tasks = [(replace(manifest.config, b=float(b)), manifest.fit) for b in b_values]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(tasks), max_workers or cpus or 1)
    if workers <= 1:
        entries = [_sweep_entry(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(_sweep_entry, tasks))
    return sorted(entries, key=lambda entry: entry[0])


def _sweep_row(b: float, trace: SingularityTrace) -> tuple:
    return b, trace.t_s_estimate, trace.t_s_stderr, trace.late_alpha


def run_sweep(
    manifest: RunManifest, b_values: Sequence[float], max_workers: Optional[int] = None
) -> list:
    """``bfamily sweep``'s rows (b, t_s, t_s_stderr, late alpha) sorted by b; None: no value."""
    return [_sweep_row(*entry) for entry in _sweep_traces(manifest, b_values, max_workers)]


def cmd_sweep(
    manifest: RunManifest, b_values: Sequence[float], max_workers: Optional[int] = None
) -> int:
    traces = _sweep_traces(manifest, b_values, max_workers)
    provenance = manifest_entries(manifest)
    fmt = _value_formatter(manifest.config.precision)
    out = manifest.out_dir
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "sweep.csv", provenance, ("b", "t_s", "t_s_stderr", "alpha"),
                  _csv_lines((_sweep_row(*entry) for entry in traces), fmt))
        (out / "plot.py").write_text(_PLOT_SCRIPT)
    code = EXIT_OK
    for b, trace in traces:
        print(_result_line(trace, f"b = {b}: ", stderr=False))
        code = max(code, _notes(f"b = {b}: ", trace.stop_reason))
    return code


def validate_cases(
    n_modes: int = 2048,
    deltas: Sequence[float] = _VALIDATE_DELTAS,
    alphas: Sequence[float] = _VALIDATE_ALPHAS,
    x_star: float = 0.7,
    fit: Optional[FitOptions] = None,
) -> list:
    """Closure suite rows: (delta, alpha, status, detail).

    ``fit`` defaults to a lower window edge of 16; a window that holds
    fewer than three wavenumbers at ``n_modes`` raises ConfigError
    before the first case.
    """
    grid = GridSpec(n_modes)
    if fit is None:
        fit = FitOptions(k_min=16)
    fit.window(n_modes)
    rows = []
    for delta in deltas:
        for alpha in alphas:
            if delta < grid.resolution_limit:
                rows.append((delta, alpha, "SKIP", "delta below the grid limit"))
                continue
            spec = SyntheticSpec(alpha=alpha, delta=delta, x_star=x_star)
            spectrum = oracle_spectrum(spec, grid)
            try:
                result = fit_spectrum(spectrum, fit)
            except BFamilyError as exc:
                rows.append((delta, alpha, "FAIL", type(exc).__name__))
                continue
            misses = [f"{name} off by {error:.2e}" for name, error, tolerance in (
                ("delta", abs(float(result.delta) - delta), VALIDATE_DELTA_TOL),
                ("alpha", abs(float(result.alpha) - alpha), VALIDATE_ALPHA_TOL),
                ("x_star", abs(float(result.x_star) - x_star), VALIDATE_X_STAR_TOL),
            ) if error > tolerance]
            if misses:
                rows.append((delta, alpha, "FAIL", "; ".join(misses)))
            else:
                rows.append((delta, alpha, "PASS", ""))
    return rows


def cmd_validate(n_modes: Optional[int], fit_kmin: Optional[int]) -> int:
    """Print the closure suite; None takes ``validate_cases``' default for that setting."""
    fit = None if fit_kmin is None else FitOptions(k_min=fit_kmin)
    resolution = {} if n_modes is None else {"n_modes": n_modes}
    rows = validate_cases(fit=fit, **resolution)
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for delta, alpha, status, detail in rows:
        counts[status] += 1
        tail = f"  ({detail})" if detail else ""
        print(f"delta = {delta:<5} alpha = {alpha:.4f}  {status}{tail}")
    print(
        f"validate: {counts['PASS']} pass, {counts['FAIL']} fail, "
        f"{counts['SKIP']} skip"
    )
    return EXIT_OK if counts["FAIL"] == 0 else EXIT_VALIDATE_FAIL


def _add_manifest_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--manifest", type=Path, help="manifest file to load")
    parser.add_argument("--out", type=Path, help="output directory")
    for key in _MANIFEST_KEYS:
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=f"key_{key}", metavar="VALUE")


def _manifest_from_args(args, default_out: str) -> RunManifest:
    entries = {}
    if args.manifest is not None:
        try:
            text = args.manifest.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read manifest: {exc}") from exc
        entries.update(parse_manifest_text(text))
    for key in _MANIFEST_KEYS:
        override = getattr(args, f"key_{key}")
        if override is not None:
            entries[key] = override
    out_dir = args.out if args.out is not None else Path(default_out)
    existing = next((p for p in (out_dir, *out_dir.parents) if os.path.exists(p)), None)
    if existing is not None and not os.path.isdir(existing):
        raise ConfigError(f"cannot write output to {out_dir}: {existing} is not a directory")
    return build_manifest(entries, out_dir)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bfamily",
        description="b-family pseudospectral runs with singularity tracking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate and store snapshots")
    _add_manifest_flags(p_sim)

    p_track = sub.add_parser("track", help="integrate and track the singularity")
    _add_manifest_flags(p_track)

    p_sweep = sub.add_parser("sweep", help="tracked runs across b values")
    _add_manifest_flags(p_sweep)
    p_sweep.add_argument(
        "--b-list",
        required=True,
        help="comma-separated b values, e.g. 0,1,2,3,4",
    )
    p_sweep.add_argument("--workers")

    p_val = sub.add_parser("validate", help="oracle-closure check of the tracker")
    p_val.add_argument("--modes")
    p_val.add_argument("--fit-kmin", default="none")

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(_manifest_from_args(args, "runs/simulate"))
        if args.command == "track":
            return cmd_track(_manifest_from_args(args, "runs/track"))
        if args.command == "sweep":
            manifest = _manifest_from_args(args, "runs/sweep")
            try:
                b_values = [float(v) for v in args.b_list.split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"bad --b-list: {args.b_list!r}") from exc
            workers = None if args.workers is None else _parse_int(args.workers, "--workers")
            return cmd_sweep(manifest, b_values, max_workers=workers)
        modes = None if args.modes is None else _parse_int(args.modes, "--modes")
        return cmd_validate(modes, _optional(_parse_int)(args.fit_kmin, "--fit-kmin"))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
