#!/usr/bin/env python3
"""bfamily benchmark: one workload per invocation, untraced or traced.

    python3 perfbench/run.py --workload deep_b3_track --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
An untraced run (``--trace 0``) repeats the workload until ``--seconds``
have passed (at least once), then times the set-up in fresh processes,
and reports the end-to-end metrics.  A traced run (``--trace 1``) runs
the workload once untraced and once under the tracer, and reports the
per-layer metrics.  The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "core.self_s": "s",
    "core.forward_transform.calls": "count",
    "core.forward_transform.self_s": "s",
    "core.inverse_transform.calls": "count",
    "core.inverse_transform.self_s": "s",
    "core.transforms_per_step": "count",
    "core.fft_floor_us": "us",
    "spectral.self_s": "s",
    "spectral.rhs.calls": "count",
    "spectral.rhs.self_s": "s",
    "spectral.rhs.us_per_call": "us",
    "spectral.rhs.floor_ratio": "ratio",
    "precision.self_s": "s",
    "precision.all_finite.calls_per_step": "count",
    "precision.all_finite.self_s": "s",
    "integrator.self_s": "s",
    "integrator.steps": "count",
    "integrator.snapshots": "count",
    "integrator.rk4_step.self_s": "s",
    "integrator.simulate.self_s": "s",
    "tracker.self_s": "s",
    "tracker.monitor.self_s": "s",
    "tracker.fit_spectrum.calls": "count",
    "tracker.fit_spectrum.self_s": "s",
    "tracker.fit_spectrum.ok_ratio": "ratio",
    "tracker.fits_per_snapshot": "ratio",
    "tracker.sliding_fit.self_s": "s",
    "tracker.wynn_epsilon.calls": "count",
    "tracker.wynn_epsilon.self_s": "s",
    "tracker.estimate_x_star.self_s": "s",
    "tracker.window_terms_mean": "count",
    "tracker.track.self_s": "s",
    "synthetic.self_s": "s",
    "synthetic.oracle_spectrum.self_s": "s",
    "cli.self_s": "s",
    "cli.write_csv.self_s": "s",
    "cli.write_csv.bytes": "B",
    "cli.sweep.busy_s": "s",
    "cli.sweep.max_busy_s": "s",
    "cli.sweep.imbalance": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


def import_package():
    """Import bfamily from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "bfamily" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'bfamily'} is missing; run from a checkout")
    sys.path.insert(0, str(SRC))
    import bfamily

    if Path(bfamily.__file__).resolve().parent != SRC / "bfamily":
        raise SystemExit(f"perfbench: imported bfamily from {bfamily.__file__}, not {SRC}")
    return bfamily


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it has waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def setup_seconds(workload: str) -> float:
    """Import, config build and first-call warm-up, timed in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def fft_floor_us(modes: int) -> float:
    """Median time of the transforms one rhs needs: 2 irfft + 3 rfft of length K."""
    import numpy as np

    rng = np.random.default_rng(modes)
    x = rng.standard_normal(modes)
    half = np.fft.rfft(x)
    clock = time.perf_counter
    samples = []
    deadline = clock() + 0.5
    while len(samples) < 200 or (clock() < deadline and len(samples) < 20000):
        start = clock()
        np.fft.irfft(half, n=modes)
        np.fft.irfft(half, n=modes)
        np.fft.rfft(x)
        np.fft.rfft(x)
        np.fft.rfft(x)
        samples.append(clock() - start)
    return statistics.median(samples) * 1e6


def untraced_run(bfamily, workload, seconds: float, checks) -> tuple[dict, dict]:
    from tracer import Tracer
    from workloads import step_count

    reps = []
    sim = {"seconds": 0.0, "steps": 0}

    def count_steps(trajectory, args, kwargs):
        sim["steps"] += step_count(trajectory)

    workload.warm_up()
    start = time.perf_counter()
    while True:
        if not workload.pooled:
            # One span around each simulate call, for steps_per_s.  Pool
            # workers are forked, so a probe there would lose its counts.
            probe = Tracer(bfamily, only={"integrator.simulate"},
                           on_result={"integrator.simulate": count_steps})
            with probe:
                rep = workload.repetition(checks)
            checks.check(probe.leftover == 0, "timing probe left patched attributes behind")
            sim["seconds"] += probe.get("integrator.simulate").total_s
        else:
            rep = workload.repetition(checks)
        if reps:
            workload.compare(reps[-1], rep, checks)
        reps.append(rep)
        if time.perf_counter() - start >= seconds:
            break
    rss = peak_rss_mb()
    setups = [setup_seconds(workload.name) for _ in range(SETUP_SAMPLES)]

    metrics = {
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    extra = {
        "repetitions": (len(reps), "count"),
        "wall_s.samples": (" ".join(f"{rep['wall_s']:.4f}" for rep in reps), "s"),
        "setup_s.samples": (" ".join(f"{s:.4f}" for s in setups), "s"),
    }
    if sim["steps"]:
        extra["steps_per_s"] = (sim["steps"] / sim["seconds"], "1/s")
        extra["steps"] = (sim["steps"], "count")
    extra.update(workload.readout(reps))
    return metrics, extra


def traced_run(bfamily, workload, checks) -> tuple[dict, dict]:
    from tracer import LAYERS, Tracer

    floor_us = fft_floor_us(workload.fft_modes)
    workload.warm_up()
    pooled = workload.repetition(checks) if workload.pooled else None
    base = workload.trace_pass(checks)

    counts = {"snapshots": 0, "fits_ok": 0, "window_terms": 0, "csv_bytes": 0}
    tracer = Tracer(bfamily)

    def on_simulate(trajectory, args, kwargs):
        counts["snapshots"] += len(trajectory)

    def on_fit(result, args, kwargs):
        counts["fits_ok"] += 1
        counts["window_terms"] += result.k_window[1] - result.k_window[0] + 1

    def on_strip_monitor(monitor, args, kwargs):
        return tracer.span("tracker.monitor", monitor)

    def on_write_csv(result, args, kwargs):
        counts["csv_bytes"] += Path(args[0]).stat().st_size

    tracer.on_result.update({
        "integrator.simulate": on_simulate,
        "tracker.fit_spectrum": on_fit,
        "tracker.strip_monitor": on_strip_monitor,
        "cli.write_csv": on_write_csv,
    })
    with tracer:
        patched_sites = len(tracer.patched)
        traced = workload.trace_pass(checks)
    checks.check(tracer.leftover == 0, f"tracer left {tracer.leftover} patched attributes")
    workload.compare(base, traced, checks)

    get = tracer.get
    steps = get("integrator.rk4_step").calls
    fwd, inv = get("core.forward_transform"), get("core.inverse_transform")
    rhs, fit = get("spectral.rhs"), get("tracker.fit_spectrum")
    rhs_us = ratio(rhs.total_s, rhs.calls) * 1e6
    layer_self = {layer: tracer.layer_self_s(layer) for layer in LAYERS}
    busy = traced.get("busy", {})
    imbalance = 0.0
    if pooled is not None:
        imbalance = ratio(sum(base["busy"].values()), workload.workers * pooled["wall_s"])
    metrics = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    metrics.update({
        "core.forward_transform.calls": fwd.calls,
        "core.forward_transform.self_s": fwd.self_s,
        "core.inverse_transform.calls": inv.calls,
        "core.inverse_transform.self_s": inv.self_s,
        "core.transforms_per_step": ratio(fwd.calls_in_step + inv.calls_in_step, steps),
        "core.fft_floor_us": floor_us,
        "spectral.rhs.calls": rhs.calls,
        "spectral.rhs.self_s": rhs.self_s,
        "spectral.rhs.us_per_call": rhs_us,
        "spectral.rhs.floor_ratio": ratio(rhs_us, floor_us),
        "precision.all_finite.calls_per_step": ratio(get("precision.all_finite").calls_in_step, steps),
        "precision.all_finite.self_s": get("precision.all_finite").self_s,
        "integrator.steps": steps,
        "integrator.snapshots": counts["snapshots"],
        "integrator.rk4_step.self_s": get("integrator.rk4_step").self_s,
        "integrator.simulate.self_s": get("integrator.simulate").self_s,
        "tracker.monitor.self_s": get("tracker.monitor").self_s,
        "tracker.fit_spectrum.calls": fit.calls,
        "tracker.fit_spectrum.self_s": fit.self_s,
        "tracker.fit_spectrum.ok_ratio": ratio(counts["fits_ok"], fit.calls),
        "tracker.fits_per_snapshot": ratio(fit.calls, counts["snapshots"]),
        "tracker.sliding_fit.self_s": get("tracker.sliding_fit").self_s,
        "tracker.wynn_epsilon.calls": get("tracker.wynn_epsilon").calls,
        "tracker.wynn_epsilon.self_s": get("tracker.wynn_epsilon").self_s,
        "tracker.estimate_x_star.self_s": get("tracker.estimate_x_star").self_s,
        "tracker.window_terms_mean": ratio(counts["window_terms"], counts["fits_ok"]),
        "tracker.track.self_s": get("tracker.track").self_s,
        "synthetic.oracle_spectrum.self_s": get("synthetic.oracle_spectrum").self_s,
        "cli.write_csv.self_s": get("cli.write_csv").self_s,
        "cli.write_csv.bytes": counts["csv_bytes"],
        "cli.sweep.busy_s": sum(busy.values(), 0.0),
        "cli.sweep.max_busy_s": max(busy.values(), default=0.0),
        "cli.sweep.imbalance": imbalance,
        "trace.overhead_ratio": ratio(traced["wall_s"], base["wall_s"]),
        "trace.coverage": ratio(sum(layer_self.values()), traced["wall_s"]),
    })
    extra = {
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.untraced_wall_s": (base["wall_s"], "s"),
        "trace.patched_sites": (patched_sites, "count"),
        "trace.leftover_patches": (tracer.leftover, "count"),
    }
    if pooled is not None:
        extra["cli.sweep.workers"] = (workload.workers, "count")
        extra["cli.sweep.pooled_wall_s"] = (pooled["wall_s"], "s")
        for b, seconds in busy.items():
            extra[f"cli.sweep.busy_s.b{b:g}"] = (seconds, "s")
    return metrics, extra


def declared_metrics(mode: str) -> dict:
    """Metric names and units that BENCHMARK.json declares for a mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bfamily = import_package()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    checks = Checks()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, extra = traced_run(bfamily, workload, checks)
            units, mode = PER_LAYER, "per_layer"
        else:
            metrics, extra = untraced_run(bfamily, workload, args.seconds, checks)
            units, mode = END_TO_END, "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            workdir.parent.rmdir()

    checks.check(
        all(METRIC_NAME.fullmatch(name) for name in list(metrics) + list(extra)),
        "a metric name does not match [A-Za-z0-9][A-Za-z0-9_.-]{0,63}",
    )
    checks.check(
        declared_metrics(mode) == units and set(metrics) == set(units),
        f"reported {mode} metrics differ from those declared in BENCHMARK.json",
    )
    failed = len(checks.failures)
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name} = {value} {unit}")
    print(f"  fail_ratio = {failed}/{checks.attempted} checks")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
