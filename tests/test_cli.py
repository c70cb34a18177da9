"""Command-line front end: manifests, outputs, exit codes, closure suite."""

import concurrent.futures
import dataclasses
import math
import os

import mpmath as mp
import numpy as np
import pytest

import bfamily.cli as cli
import bfamily.integrator as integrator
import bfamily.tracker as tracker
from bfamily.cli import (build_manifest, main, manifest_entries,
                         parse_manifest_text, run_sweep, validate_cases)
from bfamily.errors import ConfigError
from bfamily.integrator import BFamilyConfig, simulate
from bfamily.precision import EXTENDED32
from bfamily.tracker import FitOptions

from oracles import reference_magnitudes_csv


def write_manifest(path, **overrides):
    entries = {
        "b": "3.0",
        "modes": "64",
        "dt": "0.001",
        "t_end": "0.05",
        "initial": "type1",
        "dealias": "true",
        "sample_every": "10",
    }
    entries.update({k: str(v) for k, v in overrides.items()})
    path.write_text("\n".join(f"{k} = {v}" for k, v in entries.items()) + "\n")
    return path


FOUR_FILES = ["magnitudes.csv", "plot.py", "singularity.csv", "summary.txt"]

# b = 1e300 overflows on the first step, before any snapshot admits a fit
OVERFLOW_RUN = ["--b", "1e300", "--modes", "32", "--initial", "type1", "--dt", "0.01",
                "--t-end", "1", "--sample-every", "1", "--fit-kmin", "2", "--fit-kmax", "10"]

# b = 4 type2 at K = 32: 24 fits, none under the residual gate
UNCLEAN_RUN = ["--b", "4", "--modes", "32", "--initial", "type2", "--dealias", "true",
               "--dt", "0.001", "--t-end", "1.0", "--sample-every", "20",
               "--fit-kmin", "2", "--fit-kmax", "5"]


def forbid_running(monkeypatch, command):
    """Fail the test if ``track`` or ``simulate`` takes a step, or ``sweep`` starts a run."""
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    if command[0] == "sweep":
        # sweep checks the window before its first run
        monkeypatch.setattr(cli, "track_run", no_run)
    else:
        # the run starts: its t = 0 fit, which checks the window, must fail before any step
        monkeypatch.setattr(integrator, "rk4_step", no_run)


class TestManifestParsing:
    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\nb = 2.5   # trailing\nmodes = 128\n"
        assert parse_manifest_text(text) == {"b": "2.5", "modes": "128"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_manifest_text("speed = 9\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_manifest_text("just some words\n")

    def test_repeated_key_rejected_with_both_lines(self):
        with pytest.raises(ConfigError, match=r"line 4: key 'modes' repeats line 2"):
            parse_manifest_text("b = 2.5\nmodes = 128\n# a comment\nmodes = 256\n")

    def test_repeated_key_in_a_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("dt = 0.001\nb = 3.0\ndt = 0.002\n")
        out = tmp_path / "o"
        assert main(["simulate", "--manifest", str(path), "--out", str(out)]) == 2
        assert "line 3: key 'dt' repeats line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_flag_overrides_a_file_key(self, tmp_path):
        # a flag is not a second manifest line: it replaces the file's value
        manifest = write_manifest(tmp_path / "m.txt", t_end="0.05")
        out = tmp_path / "o"
        assert main(["simulate", "--manifest", str(manifest), "--t-end", "0.02",
                     "--out", str(out)]) == 0
        assert "t_end = 0.02" in (out / "summary.txt").read_text()

    def test_defaults_fill_in(self, tmp_path):
        manifest = build_manifest({}, tmp_path)
        assert manifest.config.grid.n_modes == 1024
        assert manifest.config.dt == 1e-4
        assert manifest.config.initial == "type1"
        assert manifest.config.dealias is False
        assert manifest.fit.k_min is None

    def test_entries_round_trip(self, tmp_path):
        entries = {
            "b": "2.0",
            "modes": "256",
            "dt": "0.0005",
            "dealias": "true",
            "fit_kmin": "16",
            "min_strip_width": "0.01",
        }
        manifest = build_manifest(entries, tmp_path)
        echoed = manifest_entries(manifest)
        rebuilt = build_manifest(echoed, tmp_path)
        assert rebuilt.config == manifest.config
        assert rebuilt.fit == manifest.fit

    def test_numpy_values_read_back(self, tmp_path):
        # settings keep numpy values as given; the header writes them as plain numbers
        manifest = cli.RunManifest(
            config=BFamilyConfig(b=np.float64(2.5), grid=cli.GridSpec(np.int64(64)),
                                 dt=np.float64(0.01), t_end=0.05,
                                 sample_every=np.int64(3)),
            fit=FitOptions(k_min=np.int64(4), min_strip_width=np.float64(0.1)),
            out_dir=tmp_path,
        )
        entries = manifest_entries(manifest)
        assert [entries[key] for key in ("b", "modes", "dt", "sample_every")] == [
            "2.5", "64", "0.01", "3"]
        assert manifest_entries(build_manifest(entries, tmp_path)) == entries

    def test_entries_print_every_key_as_before(self, tmp_path):
        # every key away from its default, in forms the parsers normalise
        entries = {
            "b": "-0.5", "modes": "128", "dt": "1e-5", "t_end": "2", "initial": " type2 ",
            "dealias": "on", "sample_every": "7", "fit_kmin": "3", "fit_kmax": "40",
            "precision": " Extended32", "min_strip_width": "1e-7",
        }
        assert list(manifest_entries(build_manifest(entries, tmp_path)).items()) == [
            ("b", "-0.5"), ("modes", "128"), ("dt", "1e-05"), ("t_end", "2.0"),
            ("initial", "type2"), ("dealias", "true"), ("sample_every", "7"),
            ("fit_kmin", "3"), ("fit_kmax", "40"), ("precision", "extended32"),
            ("min_strip_width", "1e-07"),
        ]
        assert list(manifest_entries(build_manifest({}, tmp_path)).items()) == [
            ("b", "3.0"), ("modes", "1024"), ("dt", "0.0001"), ("t_end", "1.0"),
            ("initial", "type1"), ("dealias", "false"), ("sample_every", "25"),
            ("fit_kmin", "none"), ("fit_kmax", "none"), ("precision", "double"),
            ("min_strip_width", "none"),
        ]

    def test_bad_values_rejected(self, tmp_path):
        for entries in (
            {"dealias": "maybe"},
            {"precision": "quad"},
            {"initial": "type3"},
            {"modes": "many"},
            {"dt": "-0.1"},
            {"min_strip_width": "nan"},
            {"min_strip_width": "-1"},
            {"min_strip_width": "0"},
        ):
            with pytest.raises(ConfigError):
                build_manifest(entries, tmp_path)

    def test_precision_label_is_trimmed_and_case_folded(self, tmp_path):
        manifest = build_manifest({"precision": " Extended32 "}, tmp_path)
        assert manifest.config.precision is EXTENDED32
        assert manifest_entries(manifest)["precision"] == "extended32"

    @pytest.mark.parametrize("key, value, message", [
        ("precision", "quad", "precision must be 'double' or 'extended32', got 'quad'"),
        ("initial", "type3", "initial must be 'type1' or 'type2', got 'type3'"),
        ("initial", " type3 ", "initial must be 'type1' or 'type2', got 'type3'"),
    ])
    def test_bad_name_exits_2_with_its_message(self, tmp_path, capsys, key, value, message):
        out = tmp_path / "o"
        flag = "--" + key
        assert main(["simulate", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, message", [
        (["sweep", "--b-list", ","], "sweep needs at least one b value"),
        (["sweep", "--b-list", "1,x"], "bad --b-list: '1,x'"),
        (["track", "--dt", "abc"], "dt must be a number, got 'abc'"),
        # a command's own integer flags are parsed as the keys are, with no usage text
        (["sweep", "--b-list", "2", "--workers", "2.5"], "--workers must be an integer, got '2.5'"),
        (["validate", "--modes", "2.5"], "--modes must be an integer, got '2.5'"),
        (["validate", "--fit-kmin", "x"], "--fit-kmin must be an integer, got 'x'"),
    ], ids=["empty-b-list", "bad-b-list", "bad-dt", "bad-workers", "bad-modes", "bad-fit-kmin"])
    def test_bad_command_line_exits_2_with_one_line(self, tmp_path, capsys, command,
                                                    message):
        out = tmp_path / "o"
        if command[0] != "validate":  # validate writes no files and takes no --out
            command = [*command, "--out", str(out)]
        assert main(command) == 2
        assert capsys.readouterr() == ("", f"configuration error: {message}\n")
        assert not out.exists()

    def test_precision_flag_with_spaces_runs(self, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", "--precision", " Extended32 ", "--modes", "16", "--dt", "0.01",
                     "--t-end", "0.02", "--out", str(out)]) == 0
        assert "precision = extended32" in (out / "summary.txt").read_text().splitlines()


class TestSimulateCommand:
    def test_small_run_outputs(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.txt")
        out = tmp_path / "out"
        code = main(["simulate", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        assert (out / "summary.txt").exists()
        spectra = sorted((out / "spectra").iterdir())
        fields = sorted((out / "fields").iterdir())
        assert len(spectra) == len(fields) == 6
        header = spectra[0].read_text().splitlines()
        assert header[0] == "# schema_version = 2"
        assert "# modes = 64" in header

    def test_spectrum_csv_round_trips_exactly(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.txt")
        out = tmp_path / "out"
        main(["simulate", "--manifest", str(manifest), "--out", str(out)])
        config = BFamilyConfig(
            b=3.0,
            grid=cli.GridSpec(64),
            dt=0.001,
            t_end=0.05,
            initial="type1",
            dealias=True,
            sample_every=10,
        )
        trajectory = simulate(config)
        lines = (out / "spectra" / "spectrum_0003.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        parsed = np.array([complex(float(re), float(im)) for _, re, im in rows])
        # repr round-trips doubles exactly, so the file equals the state
        assert np.array_equal(parsed, trajectory.snapshots[3].coeffs)

    def test_rerun_bit_identical(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.txt")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--manifest", str(manifest), "--out", str(out1)])
        main(["simulate", "--manifest", str(manifest), "--out", str(out2)])
        for name in ("summary.txt", "spectra/spectrum_0002.csv", "fields/field_0005.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_invalid_dt_exits_2(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.txt", dt="-0.001")
        code = main(["simulate", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_step_count_that_is_not_finite_exits_2(self, tmp_path, capsys):
        # t_end / dt overflows to inf: a configuration error, not an OverflowError traceback
        out = tmp_path / "o"
        code = main(["simulate", "--modes", "16", "--dt", "1e-300", "--t-end", "1e300",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "configuration error: t_end / dt must be finite, got 1e+300 / 1e-300\n"
        )
        assert not out.exists()

    def test_step_count_past_2_to_the_53_exits_2(self, tmp_path, capsys, monkeypatch):
        # 1e20 steps would run until killed; a regression fails at the first step instead
        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(integrator, "rk4_step", no_step)
        out = tmp_path / "o"
        code = main(["simulate", "--modes", "16", "--dt", "1e-20", "--t-end", "1",
                     "--sample-every", "100000", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "configuration error: t_end / dt must be below 2**53, got 1.0 / 1e-20\n"
        )
        assert not out.exists()

    def test_flag_overrides_file(self, tmp_path):
        manifest = write_manifest(tmp_path / "m.txt", dt="-0.001")
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--manifest",
                str(manifest),
                "--dt",
                "0.001",
                "--out",
                str(out),
            ]
        )
        assert code == 0

    def test_overflow_exits_3(self, tmp_path):
        # a step far past the advective stability budget overflows fast
        manifest = write_manifest(
            tmp_path / "m.txt", initial="type2", dealias="false", dt="0.5", t_end="10",
            sample_every="1",
        )
        code = main(["simulate", "--manifest", str(manifest), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_missing_manifest_exits_2(self, tmp_path):
        code = main(["simulate", "--manifest", str(tmp_path / "nope.txt")])
        assert code == 2

    @pytest.mark.parametrize("width", ["nan", "-1", "0"])
    def test_bad_min_strip_width_flag_exits_2(self, tmp_path, width):
        # NaN or a nonpositive width would never stop the run early
        manifest = write_manifest(tmp_path / "m.txt")
        code = main(["simulate", "--manifest", str(manifest),
                     f"--min-strip-width={width}", "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_unmonitored_small_grid_checks_no_window(self, tmp_path):
        # the default window [8, 6] at K = 16 is empty, but nothing is fitted
        out = tmp_path / "o"
        code = main(["simulate", "--modes", "16", "--dt", "0.01", "--t-end", "0.05",
                     "--sample-every", "1", "--out", str(out)])
        assert code == 0
        assert len(list((out / "spectra").iterdir())) == 6

    def test_unmonitored_run_reads_no_fit_window(self, tmp_path):
        # the manifest builds with an inverted window; only a fitting run checks it
        assert build_manifest({"fit_kmin": "40", "fit_kmax": "10"}, tmp_path).fit.k_max == 10
        out = tmp_path / "o"
        code = main(["simulate", "--modes", "32", "--dt", "0.01", "--t-end", "0.02",
                     "--sample-every", "1", "--fit-kmin", "40", "--fit-kmax", "10",
                     "--out", str(out)])
        assert code == 0
        assert len(list((out / "spectra").iterdir())) == 3

    def test_monitored_small_grid_exits_2_before_any_step(self, tmp_path, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(integrator, "rk4_step", no_step)
        out = tmp_path / "o"
        code = main(["simulate", "--modes", "16", "--dt", "0.01", "--t-end", "0.05",
                     "--min-strip-width", "0.1", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_min_strip_width_stops_early(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--modes", "128", "--dt", "0.001", "--t-end", "1.0",
                     "--dealias", "true", "--sample-every", "20", "--fit-kmin", "10",
                     "--fit-kmax", "40", "--min-strip-width", "0.1", "--out", str(out)])
        assert code == 0
        lines = (out / "summary.txt").read_text().splitlines()
        assert lines[-3:] == [
            "stop_reason = resolution_limit", "snapshots = 34", "final_time = 0.66",
        ]
        assert len(list((out / "spectra").iterdir())) == 34


class TestTrackCommand:
    def test_blowup_run_outputs(self, tmp_path):
        manifest = write_manifest(
            tmp_path / "m.txt",
            modes=256,
            dt="0.0005",
            t_end="0.6",
            sample_every=50,
            fit_kmin=16,
            fit_kmax=80,
        )
        out = tmp_path / "out"
        code = main(["track", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        lines = (out / "singularity.csv").read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "t,delta,alpha,x_star,residual"
        assert (out / "magnitudes.csv").exists()
        assert (out / "plot.py").exists()
        summary = dict(
            line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines()
        )
        t_s = float(summary["t_s"])
        assert 0.6 < t_s < 0.9
        assert float(summary["late_time_alpha"]) > 0.0

    @pytest.mark.parametrize("run, reason", [
        (["--modes", "128", "--dt", "0.001", "--t-end", "0.4", "--dealias", "true",
          "--sample-every", "40", "--fit-kmin", "10", "--fit-kmax", "40"], ""),
        (UNCLEAN_RUN, "under-resolved"),
    ], ids=["given", "under-resolved"])
    def test_summary_reports_t_s_reason(self, tmp_path, run, reason):
        # the reason line is empty exactly when t_s is given
        out = tmp_path / "out"
        assert main(["track", *run, "--out", str(out)]) == 0
        summary = dict(line.split(" = ", 1)
                       for line in (out / "summary.txt").read_text().splitlines())
        assert summary["t_s_reason"] == reason
        assert (summary["t_s"] == "") == bool(reason)
        assert (summary["t_s_stderr"] == "") == bool(reason)

    @pytest.mark.parametrize("command", [["track"], ["sweep", "--b-list", "2,3"],
                                         ["simulate", "--min-strip-width", "0.1"]])
    def test_inverted_fit_window_exits_2_before_running(self, tmp_path, monkeypatch, command):
        forbid_running(monkeypatch, command)
        out = tmp_path / "o"
        code = main([*command, "--modes", "128", "--dt", "0.001", "--t-end", "0.4",
                     "--dealias", "true", "--sample-every", "40", "--fit-kmin", "40",
                     "--fit-kmax", "10", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", [["track"], ["sweep", "--b-list", "2,3"]])
    def test_fit_kmax_below_default_window_exits_2_before_running(
        self, tmp_path, monkeypatch, command
    ):
        # no --fit-kmin: the default max(8, K/16) = 8 leaves no 3 wavenumbers up to 5
        forbid_running(monkeypatch, command)
        out = tmp_path / "o"
        code = main([*command, "--modes", "128", "--dt", "0.001", "--t-end", "0.4",
                     "--dealias", "true", "--sample-every", "40", "--fit-kmax", "5",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("window", [["--fit-kmin", "40"],
                                        ["--fit-kmin", "29", "--fit-kmax", "40"]])
    @pytest.mark.parametrize("command", [["track"], ["sweep", "--b-list", "2,3"]])
    def test_window_past_the_grid_exits_2_before_running(
        self, tmp_path, monkeypatch, command, window
    ):
        # at K = 64 the window ends at K/2 - 2 = 30: [40, 30] and [29, 30] hold too few
        forbid_running(monkeypatch, command)
        out = tmp_path / "o"
        code = main([*command, "--modes", "64", "--dt", "0.001", "--t-end", "0.05",
                     "--sample-every", "10", *window, "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_no_clean_fit_writes_all_outputs_and_exits_0(self, tmp_path, capsys):
        # 24 fits, none under the residual gate: no t_s and no late alpha, as in sweep
        swept_out = tmp_path / "sweep"
        assert main(["sweep", *UNCLEAN_RUN, "--b-list", "4", "--out", str(swept_out)]) == 0
        assert capsys.readouterr().out == "b = 4.0: t_s = none, late-time alpha = none\n"
        rows = [line for line in (swept_out / "sweep.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert rows[1:] == ["4.0,,,"]
        out = tmp_path / "track"
        assert main(["track", *UNCLEAN_RUN, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == FOUR_FILES
        lines = (out / "summary.txt").read_text().splitlines()
        assert {"fitted_snapshots = 24", "t_s = ", "t_s_stderr = ", "late_time_alpha = ",
                "t_s_reason = under-resolved"} <= set(lines)
        assert printed == "t_s = none, late-time alpha = none\n"

    def test_no_decay_exits_0_with_four_files(self, tmp_path, capsys):
        # b = -1 stationary wave: every snapshot sits below the fit floor
        manifest = write_manifest(tmp_path / "m.txt", b="-1.0", dealias="false")
        out = tmp_path / "o"
        code = main(["track", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == FOUR_FILES
        lines = (out / "summary.txt").read_text().splitlines()
        assert {"fitted_snapshots = 0", "t_s = ", "t_s_stderr = "} <= set(lines)
        assert capsys.readouterr() == ("t_s = none, late-time alpha = none\n", "")

    def test_early_overflow_exits_3_with_four_files(self, tmp_path, capsys):
        # the first step overflows: one snapshot, no fit, and still every output
        out = tmp_path / "o"
        code = main(["track", *OVERFLOW_RUN, "--out", str(out)])
        assert code == 3
        assert sorted(p.name for p in out.iterdir()) == FOUR_FILES
        lines = (out / "summary.txt").read_text().splitlines()
        assert {"stop_reason = overflow", "fitted_snapshots = 0", "t_s = ",
                "t_s_reason = under-resolved"} <= set(lines)
        printed, err = capsys.readouterr()
        assert printed == "t_s = none, late-time alpha = none\n"
        assert err == "overflow before t_end; the outputs hold the partial run\n"

    def test_two_fits_give_no_blow_up_time(self, tmp_path, capsys):
        # two snapshots admit a fit: too few to test a slope, so no t_s
        out = tmp_path / "o"
        code = main(["track", "--modes", "32", "--dt", "0.01", "--t-end", "0.02",
                     "--fit-kmin", "2", "--fit-kmax", "14", "--sample-every", "1",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "summary.txt").read_text().splitlines()
        assert {"fitted_snapshots = 2", "t_s = ", "t_s_stderr = "} <= set(lines)
        assert capsys.readouterr().out.startswith("t_s = none, late-time alpha = ")


class TestMagnitudesWriter:
    """The direct magnitudes writer against the generic row writer, byte for byte."""

    @pytest.mark.parametrize("entries", [
        {"modes": "64", "dt": "0.001", "t_end": "0.2", "sample_every": "10", "fit_kmin": "8"},
        {"modes": "16", "dt": "0.01", "t_end": "0.05", "sample_every": "1", "fit_kmin": "2",
         "precision": "extended32"},
    ], ids=["double-K64", "extended32-K16"])
    def test_matches_generic_writer(self, tmp_path, monkeypatch, entries):
        runs = []
        real_track_run = cli.track_run

        def capturing_track_run(config, fit):
            trajectory, trace = real_track_run(config, fit)
            runs.append(trajectory)
            return trajectory, trace

        monkeypatch.setattr(cli, "track_run", capturing_track_run)
        manifest = build_manifest(entries, tmp_path / "out")
        assert cli.cmd_track(manifest) == 0
        (trajectory,) = runs
        reference = tmp_path / "reference.csv"
        reference_magnitudes_csv(
            reference, manifest_entries(manifest), trajectory, manifest.config.precision
        )
        written = (tmp_path / "out" / "magnitudes.csv").read_bytes()
        assert written == reference.read_bytes()
        assert written.count(b"\n") > len(trajectory) * (manifest.config.grid.n_modes // 2)

    def test_extended_magnitudes_carry_the_mode_digits(self, tmp_path, monkeypatch):
        # |u_hat[1]| at t = 0.01 of a K=16 extended32 run, against the
        # same coefficient's magnitude taken at 32 digits
        runs = []
        real_track_run = cli.track_run

        def capturing_track_run(config, fit):
            trajectory, trace = real_track_run(config, fit)
            runs.append(trajectory)
            return trajectory, trace

        monkeypatch.setattr(cli, "track_run", capturing_track_run)
        entries = {"modes": "16", "dt": "0.01", "t_end": "0.05", "sample_every": "1",
                   "fit_kmin": "2", "precision": "extended32"}
        manifest = build_manifest(entries, tmp_path / "out")
        assert cli.cmd_track(manifest) == 0
        (trajectory,) = runs
        assert trajectory.times[1] == 0.01
        with mp.workdps(32):
            expected = abs(trajectory.snapshots[1].coeffs[1])
        rows = (tmp_path / "out" / "magnitudes.csv").read_text().splitlines()
        (printed,) = [row.split(",")[2] for row in rows if row.startswith("0.01,1,")]
        with mp.workdps(60):
            assert abs(mp.mpf(printed) / expected - 1) < mp.mpf("1e-30")


class TestFitOncePerSnapshot:
    """The strip monitor's fits are the trace's fits, not repeated."""

    def spy(self, monkeypatch):
        fits, runs = [], []
        real_fit, real_track_run = tracker.fit_spectrum, cli.track_run

        def counting_fit(spectrum, options):
            fits.append(spectrum)
            return real_fit(spectrum, options)

        def capturing_track_run(config, fit):
            trajectory, trace = real_track_run(config, fit)
            runs.append((trajectory, fit, trace))
            return trajectory, trace

        monkeypatch.setattr(tracker, "fit_spectrum", counting_fit)
        monkeypatch.setattr(cli, "track_run", capturing_track_run)
        return fits, runs

    def assert_fitted_once(self, fits, runs):
        (trajectory, fit, trace), = runs
        assert len(fits) == len(trajectory)
        assert {id(s) for s in fits} == {id(s) for s in trajectory.snapshots}
        fresh = tracker.track(trajectory, fit)
        assert len(fits) == 2 * len(trajectory)
        for field in dataclasses.fields(trace):
            ours, theirs = getattr(trace, field.name), getattr(fresh, field.name)
            if isinstance(ours, float) and math.isnan(ours):
                assert math.isnan(theirs), field.name
            else:
                assert ours == theirs, field.name

    def test_track_command(self, tmp_path, monkeypatch):
        manifest = build_manifest(
            {"modes": "256", "dt": "0.0005", "t_end": "0.6", "dealias": "true",
             "sample_every": "50", "fit_kmin": "16", "fit_kmax": "80"},
            tmp_path / "out",
        )
        fits, runs = self.spy(monkeypatch)
        assert cli.cmd_track(manifest) == 0
        self.assert_fitted_once(fits, runs)
        assert runs[0][2].t_s_estimate is not None

    def test_sweep_entry(self, tmp_path, monkeypatch):
        manifest = build_manifest(
            {"modes": "128", "dt": "0.001", "t_end": "0.4", "dealias": "true",
             "sample_every": "40", "fit_kmin": "10", "fit_kmax": "40"},
            tmp_path,
        )
        fits, runs = self.spy(monkeypatch)
        (row,) = run_sweep(manifest, [3.0])
        self.assert_fitted_once(fits, runs)
        assert row[1] == runs[0][2].t_s_estimate


class TestSweepCommand:
    def sweep_manifest(self, tmp_path):
        return write_manifest(
            tmp_path / "m.txt",
            modes=128,
            dt="0.001",
            t_end="0.4",
            sample_every=40,
            fit_kmin=10,
            fit_kmax=40,
        )

    def test_rows_sorted_and_written(self, tmp_path):
        manifest = self.sweep_manifest(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "sweep",
                "--manifest",
                str(manifest),
                "--out",
                str(out),
                "--b-list",
                "3,2",
            ]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        rows = [line for line in lines if not line.startswith("#")]
        assert rows[0] == "b,t_s,t_s_stderr,alpha"
        assert rows[1].startswith("2.0,") and rows[2].startswith("3.0,")
        t_s_b2 = float(rows[1].split(",")[1])
        assert 0.4 < t_s_b2 < 0.9

    @pytest.mark.parametrize("command", [["track", "--b=-2"], ["sweep", "--b-list=-2,2"]],
                             ids=["track", "sweep"])
    def test_below_minus_one_rejected(self, tmp_path, monkeypatch, capsys, command):
        forbid_running(monkeypatch, command)
        manifest = self.sweep_manifest(tmp_path)
        out = tmp_path / "o"
        assert main([*command, "--manifest", str(manifest), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: b = -2.0 is below the tracked range b >= -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("entries, b_values, message", [
        ({}, [2.0, -2.0], r"b = -2.0 is below the tracked range b >= -1"),
        ({}, [], "sweep needs at least one b value"),
        ({"fit_kmin": "29"}, [2.0, 3.0], r"fit window \[29, 30\] has fewer than 3"),
        ({}, [2.0, float("nan")], "b must be finite, got nan"),
    ], ids=["below-minus-one", "no-b", "empty-window", "nan"])
    def test_run_sweep_refuses_before_running(self, tmp_path, monkeypatch, entries,
                                              b_values, message):
        # the library refuses what bfamily sweep refuses, before any run or pool
        def no_run(*args, **kwargs):
            raise AssertionError("a run or a worker pool was started")

        monkeypatch.setattr(cli, "track_run", no_run)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_run)
        manifest = build_manifest({"modes": "64", **entries}, tmp_path / "o")
        with pytest.raises(ConfigError, match=message):
            run_sweep(manifest, b_values, max_workers=2)

    def test_zero_workers_exits_2_without_a_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        manifest = self.sweep_manifest(tmp_path)
        code = main(["sweep", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                     "--b-list", "0,1", "--workers", "0"])
        assert code == 2
        assert not (tmp_path / "o").exists()
        # the library takes the same rule, before any run
        monkeypatch.setattr(cli, "track_run", no_pool)
        built = build_manifest({"modes": "128"}, tmp_path / "o")
        for workers, rule in ((0, "at least 1"), (-1, "at least 1"), (2.5, "an integer")):
            with pytest.raises(ConfigError, match=f"--workers must be {rule}, got {workers}"):
                run_sweep(built, [0.0, 1.0], max_workers=workers)

    @pytest.mark.parametrize("b_list", ["nan,0", "0,inf"])
    def test_non_finite_b_exits_2_without_a_pool(self, tmp_path, monkeypatch, b_list):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        manifest = self.sweep_manifest(tmp_path)
        code = main(["sweep", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                     f"--b-list={b_list}"])
        assert code == 2
        assert not (tmp_path / "o").exists()

    def test_minus_one_sweeps_without_a_flag(self, tmp_path):
        # b = -1 is in the tracked range: no t_s, an empty-valued row, exit 0
        manifest = write_manifest(
            tmp_path / "m.txt", modes=64, dt="0.001", t_end="0.05", sample_every=10,
            dealias="false",
        )
        out = tmp_path / "out"
        args = ["sweep", "--manifest", str(manifest), "--out", str(out), "--b-list=-1"]
        assert main(args) == 0
        rows = [
            line
            for line in (out / "sweep.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert rows[1:] == ["-1.0,,,"]

    def test_allow_b_minus_one_flag_is_unknown(self, tmp_path):
        # the flag that once let b = -1 through is gone: argparse refuses it
        manifest = self.sweep_manifest(tmp_path)
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "--manifest", str(manifest), "--out", str(tmp_path / "o"),
                  "--b-list=-1", "--allow-b-minus-one"])
        assert exited.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["track"], ["sweep", "--b-list", "4"]],
                             ids=["track", "sweep"])
    def test_under_resolved_run_prints_no_note(self, tmp_path, capsys, command):
        # no t_s is not an error: the run exits 0 with nothing on stderr
        assert main([*command, *UNCLEAN_RUN, "--out", str(tmp_path / "o")]) == 0
        printed, err = capsys.readouterr()
        assert "t_s = none" in printed
        assert err == ""

    def test_overflow_is_noted_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["sweep", *OVERFLOW_RUN, "--b-list", "1e300", "--out", str(out)]) == 3
        rows = [line for line in (out / "sweep.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert rows[1:] == ["1e+300,,,"]
        assert capsys.readouterr() == (
            "b = 1e+300: t_s = none, late-time alpha = none\n",
            "b = 1e+300: overflow before t_end; the outputs hold the partial run\n",
        )

    def test_one_overflowed_run_makes_the_sweep_exit_3(self, tmp_path, capsys):
        # b = 2 finishes and b = 1e300 overflows: both rows, one note, exit 3
        out = tmp_path / "o"
        assert main(["sweep", *OVERFLOW_RUN, "--b-list", "2,1e300", "--workers", "2",
                     "--out", str(out)]) == 3
        rows = [line for line in (out / "sweep.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert [row.split(",")[0] for row in rows[1:]] == ["2.0", "1e+300"]
        printed, err = capsys.readouterr()
        assert printed.splitlines()[0].startswith("b = 2.0: t_s = ")
        assert err == "b = 1e+300: overflow before t_end; the outputs hold the partial run\n"

    def test_extended_sweep_in_a_pool(self, tmp_path):
        # each worker sends back its extended32 trace, fits and all
        out = tmp_path / "o"
        assert main(["sweep", "--modes", "16", "--dt", "0.01", "--t-end", "0.05",
                     "--sample-every", "1", "--fit-kmin", "2", "--precision", "extended32",
                     "--b-list", "2,3", "--workers", "2", "--out", str(out)]) == 0
        rows = [line for line in (out / "sweep.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert [row.split(",")[0] for row in rows[1:]] == ["2.0", "3.0"]

    def test_pooled_extended_traces_equal_inline_traces(self, tmp_path):
        manifest = build_manifest({"modes": "16", "dt": "0.01", "t_end": "0.05",
                                   "sample_every": "1", "fit_kmin": "2",
                                   "precision": "extended32"}, tmp_path)
        pooled = cli._sweep_traces(manifest, [3.0, 2.0], max_workers=2)
        inline = [cli._sweep_traces(manifest, [b])[0] for b in (2.0, 3.0)]
        assert all(trace.fits for _, trace in pooled)
        assert pooled == inline

    def test_benchmark_sweep_prints_no_note(self, tmp_path, capsys):
        # the K = 256 sweep over b = 0..4: clean fits only, and no overflow
        assert main(["sweep", "--modes", "256", "--dt", "0.0005", "--t-end", "3.0",
                     "--dealias", "true", "--sample-every", "50", "--b-list", "0,1,2,3,4",
                     "--workers", "2", "--out", str(tmp_path / "o")]) == 0
        printed, err = capsys.readouterr()
        assert len(printed.splitlines()) == 5 and "none" not in printed
        assert err == ""

    @staticmethod
    def pool_sizes(tmp_path, monkeypatch, n_b, max_workers=None):
        """The sizes of the pools a sweep of ``n_b`` b values starts, none of which runs.

        A fake pool records its size and maps in this process, and each
        run is a stub: the rows must still come back sorted by b.
        """
        requested = []

        class FakePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(task) for task in tasks]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        empty = tracker.SingularityTrace(
            times=(), fits=(), stop_reason=integrator.StopReason.REACHED_T_END,
            t_s_estimate=None, t_s_stderr=None, t_s_reason="under-resolved", late_alpha=None)
        monkeypatch.setattr(cli, "_sweep_entry", lambda task: (task[0].b, empty))
        b_values = [float(b) for b in range(n_b)]
        rows = run_sweep(build_manifest({}, tmp_path), b_values[::-1], max_workers=max_workers)
        assert [row[0] for row in rows] == b_values
        return requested

    # the CPUs this process may run on, as the sweep's default pool size counts them
    USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)

    # expected: the workers the sweep uses; one means its b values run in this process
    @pytest.mark.parametrize("n_b, max_workers, expected", [
        (2, 5000, 2), (5, 2, 2), (3, 1, 1), (3, None, min(3, USABLE_CPUS)),
    ])
    def test_pool_holds_at_most_one_worker_per_b(self, tmp_path, monkeypatch,
                                                n_b, max_workers, expected):
        requested = self.pool_sizes(tmp_path, monkeypatch, n_b, max_workers)
        assert requested == ([expected] if expected > 1 else [])

    @pytest.mark.parametrize("affinity, cpu_count, expected", [
        ({0}, 2, 1), ({0, 1, 2, 3}, 1, 3), (None, 2, 2), (None, 1, 1), (None, None, 1),
    ], ids=["one-cpu-affinity", "four-cpu-affinity", "two-cpu-count", "one-cpu-count",
            "unknown-cpu-count"])
    def test_default_pool_size_is_the_usable_cpus(self, tmp_path, monkeypatch,
                                                  affinity, cpu_count, expected):
        # the affinity set decides where the OS has one; os.cpu_count() where it has none
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity),
                                raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        requested = self.pool_sizes(tmp_path, monkeypatch, 3)
        assert requested == ([expected] if expected > 1 else [])

    def test_run_sweep_importable(self, tmp_path):
        manifest = build_manifest(
            {
                "modes": "128",
                "dt": "0.001",
                "t_end": "0.4",
                "sample_every": "40",
                "dealias": "true",
                "fit_kmin": "10",
                "fit_kmax": "40",
            },
            tmp_path,
        )
        rows = run_sweep(manifest, [3.0, 2.0], max_workers=2)
        assert [row[0] for row in rows] == [2.0, 3.0]
        assert all(row[1] is not None for row in rows)


class TestUnwritableOutput:
    RUN = ["--modes", "64", "--dt", "0.01", "--t-end", "0.1", "--sample-every", "2",
           "--fit-kmin", "4", "--fit-kmax", "20"]
    COMMANDS = [["simulate"], ["track"], ["sweep", "--b-list", "2,3", "--workers", "2"]]

    @pytest.mark.parametrize("target", ["afile/sub", "afile"], ids=["under-a-file", "a-file"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_unwritable_out_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch,
                                                  command, target):
        # the refusal comes before the run: a run that started would fail here
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "simulate", no_run)
        monkeypatch.setattr(cli, "track_run", no_run)
        (tmp_path / "afile").write_text("")
        out = tmp_path / target
        assert main([*command, *self.RUN, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"configuration error: cannot write output to {out}: "
                       f"{tmp_path / 'afile'} is not a directory\n")
        assert (tmp_path / "afile").read_text() == ""

    @pytest.mark.parametrize("command", [["track"], ["sweep", "--b-list", "3"]],
                             ids=lambda c: c[0])
    def test_an_os_error_of_the_run_is_not_an_output_error(self, tmp_path, monkeypatch,
                                                          command):
        def failing_run(*args, **kwargs):
            raise OSError("a compute-phase failure")

        monkeypatch.setattr(cli, "track_run", failing_run)
        with pytest.raises(OSError, match="a compute-phase failure"):
            main([*command, *self.RUN, "--out", str(tmp_path / "o")])
        assert not (tmp_path / "o").exists()


class TestValidateCommand:
    def test_default_style_cases_pass(self):
        rows = validate_cases(
            n_modes=512,
            deltas=(0.2,),
            alphas=(1 / 3, 3 / 5),
            fit=FitOptions(k_min=16),
        )
        assert [row[2] for row in rows] == ["PASS", "PASS"]

    def test_unresolvable_delta_skipped(self):
        rows = validate_cases(n_modes=64, deltas=(0.05,), alphas=(1 / 3,))
        assert rows[0][2] == "SKIP"

    def test_wrong_exponent_convention_fails_with_diagnostic(self, monkeypatch):
        # report s itself instead of s - 1: the suite must catch it
        real_fit = cli.fit_spectrum

        def shifted(spectrum, options):
            result = real_fit(spectrum, options)
            return dataclasses.replace(result, alpha=result.alpha + 1.0)

        monkeypatch.setattr(cli, "fit_spectrum", shifted)
        rows = validate_cases(
            n_modes=512, deltas=(0.2,), alphas=(1 / 3,), fit=FitOptions(k_min=16)
        )
        assert rows[0][2] == "FAIL"
        assert "alpha off by" in rows[0][3]

    def test_exit_codes_through_main(self, capsys):
        assert main(["validate", "--modes", "512", "--fit-kmin", "16"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out and "0 fail" in out

    def test_window_past_the_grid_exits_2_before_any_case(self, capsys, monkeypatch):
        def no_fit(spectrum, options):
            raise AssertionError("a case was fitted")

        monkeypatch.setattr(cli, "fit_spectrum", no_fit)
        assert main(["validate", "--modes", "512", "--fit-kmin", "300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "fit window [300, 254] has fewer than 3 wavenumbers" in captured.err

    def test_inverted_window_raises_before_any_case(self, monkeypatch):
        def no_fit(spectrum, options):
            raise AssertionError("a case was fitted")

        monkeypatch.setattr(cli, "fit_spectrum", no_fit)
        with pytest.raises(ConfigError, match=r"fit window \[40, 10\] has fewer than 3"):
            validate_cases(n_modes=512, fit=FitOptions(k_min=40, k_max=10))

    def test_default_lower_edge_is_16(self, monkeypatch):
        seen = []
        real_fit = cli.fit_spectrum

        def recording(spectrum, options):
            seen.append(options)
            return real_fit(spectrum, options)

        monkeypatch.setattr(cli, "fit_spectrum", recording)
        assert main(["validate", "--modes", "512"]) == 0
        assert seen and all(options == FitOptions(k_min=16) for options in seen)
