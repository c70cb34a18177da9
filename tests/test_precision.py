"""Extended results: independent of the global mpmath precision, rounded on entry, pinned transforms.

Also the double transforms' binding to numpy's private pocketfft gufuncs,
the modes' printing and lookup, and the seam itself: no module but
``precision`` and its private ``_extended`` imports mpmath or names the
extended mode, and a double run, in a fresh interpreter, imports neither
mpmath nor ``multiprocessing``.
"""

import ast
import os
import pickle
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from mpmath.libmp import mpf_neg
from numpy.fft import _pocketfft

from bfamily import (DOUBLE, EXTENDED32, TYPE_I, BFamilyConfig, FitOptions, GridSpec,
                     RhsOptions, SyntheticSpec, fit_spectrum, forward_transform, initial_datum,
                     oracle_spectrum, precision, sobolev_norm, track_run)
from bfamily import _extended, cli
from bfamily.integrator import rk4_step

from oracles import oracle_field, reference_extended_forward, reference_extended_inverse


def at_default_and_raised(compute):
    """``compute()`` at the default global precision and under 60 digits."""
    default = compute()
    with mp.workdps(60):
        raised = compute()
    return default, raised


def sine_state(K):
    return forward_transform(initial_datum(TYPE_I, GridSpec(K), EXTENDED32))


class TestGlobalPrecisionIgnored:
    def test_rk4_step(self):
        opts = RhsOptions(b=3.0, dealias=True)
        default, raised = at_default_and_raised(lambda: rk4_step(sine_state(16), 1e-2, opts))
        assert all(a == b for a, b in zip(default.coeffs, raised.coeffs, strict=True))

    def test_fit_spectrum(self):
        spec = SyntheticSpec(alpha=0.4, delta=0.2, x_star=0.7)
        default, raised = at_default_and_raised(
            lambda: fit_spectrum(oracle_spectrum(spec, GridSpec(256), EXTENDED32),
                                 FitOptions(k_min=16))
        )
        assert default == raised

    def test_sobolev_norm(self):
        default, raised = at_default_and_raised(lambda: sobolev_norm(sine_state(16), 1.5))
        assert default == raised

    def test_transforms_take_global_values_into_the_mode(self):
        # K = 24 reaches the FFT's odd-length branch, where an input is a left operand
        K = 24
        spec = SyntheticSpec(alpha=0.4, delta=0.2, x_star=0.7)
        samples = oracle_field(spec, GridSpec(K), EXTENDED32).values
        bins = EXTENDED32.forward(samples, K)
        back = EXTENDED32.inverse(bins, K)
        with mp.workdps(60):
            global_samples = np.array([mp.mpf(v) for v in samples], dtype=object)
            global_bins = np.array([mp.mpc(v) for v in bins], dtype=object)
            forward, inverse = EXTENDED32.forward(global_samples, K), EXTENDED32.inverse(global_bins, K)
        assert all(a == b for a, b in zip(forward, bins, strict=True))
        assert all(a == b for a, b in zip(inverse, back, strict=True))


def raw(values):
    """The raw mpmath tuples (``_mpc_`` or ``_mpf_``) of a sequence of values."""
    return [v._mpc_ if hasattr(v, "_mpc_") else v._mpf_ for v in values]


def foreign_bins(K, seed=0):
    """A Hermitian half spectrum computed at 60 digits: every part carries ~200 bits."""
    rng = np.random.default_rng(seed)
    with mp.workdps(60):
        bins = [mp.mpc(mp.mpf(int(a)) / 7, mp.mpf(int(b)) / 9)
                for a, b in rng.integers(-1000, 1000, (K // 2 + 1, 2))]
        bins[0], bins[-1] = mp.mpc(bins[0].real), mp.mpc(bins[-1].real)
    return np.array(bins, dtype=object)


def foreign_samples(K, seed=0):
    """Real samples computed at 60 digits."""
    rng = np.random.default_rng(seed)
    with mp.workdps(60):
        return np.array([mp.mpf(int(a)) / 7 for a in rng.integers(-1000, 1000, K)], dtype=object)


def rounded(values):
    """Each value rounded to the extended mode's 32 digits, part by part."""
    real, imag = EXTENDED32.scalar, EXTENDED32.scalar_types[1]
    return np.array([imag(real(v.real), real(v.imag)) for v in values], dtype=object)


class TestForeignDigitsRounded:
    """Values from a wider mpmath precision are rounded where they enter the mode."""

    def test_inverse_of_foreign_bins_equals_inverse_of_rounded_bins(self):
        K = 16
        bins = foreign_bins(K)
        assert max(v.imag._mpf_[3] for v in bins) > 150  # really 60-digit values
        foreign = EXTENDED32.inverse(bins, K)
        assert raw(foreign) == raw(EXTENDED32.inverse(rounded(bins), K))

    def test_as_complex_rounds_and_keeps_an_mpf_an_mpf(self):
        bins = foreign_bins(16)
        entered = EXTENDED32.as_complex(bins)
        assert raw(entered) == raw(rounded(bins))
        with mp.workdps(60):
            third = mp.mpf(1) / 3
        (value,) = EXTENDED32.as_complex(np.array([third], dtype=object))
        assert isinstance(value, EXTENDED32.scalar_types[0])
        assert value._mpf_ == EXTENDED32.scalar(third)._mpf_ != third._mpf_


class TestExtendedTransformPin:
    """``EXTENDED32.forward``/``inverse`` against the frozen per-butterfly-twiddle FFT.

    K = 24 and 96 reach the odd-length (3-point) branch.
    """

    @staticmethod
    def samples(K, seed=1):
        rng = np.random.default_rng(seed)
        return np.array([EXTENDED32.scalar(v) for v in rng.standard_normal(K)], dtype=object)

    @pytest.mark.parametrize("K", [2, 4, 16, 24, 64, 96])
    def test_forward_and_inverse_match_reference(self, K):
        samples = self.samples(K)
        bins = EXTENDED32.forward(samples, K)
        assert raw(bins) == raw(reference_extended_forward(samples, K))
        assert raw(EXTENDED32.inverse(bins, K)) == raw(reference_extended_inverse(bins, K))

    def test_stacked_rows_match_reference(self):
        K = 24
        samples = np.stack([self.samples(K, seed) for seed in (2, 3, 4)])
        bins = EXTENDED32.forward(samples, K)
        back = EXTENDED32.inverse(bins, K)
        assert bins.shape == (3, K // 2 + 1) and back.shape == (3, K)
        for row, row_bins, row_back in zip(samples, bins, back):
            assert raw(row_bins) == raw(reference_extended_forward(row, K))
            assert raw(row_back) == raw(reference_extended_inverse(row_bins, K))

    @pytest.mark.parametrize("K", [16, 24])
    def test_foreign_input_matches_reference(self, K):
        samples, bins = foreign_samples(K), foreign_bins(K)
        assert raw(EXTENDED32.forward(samples, K)) == raw(reference_extended_forward(samples, K))
        assert raw(EXTENDED32.inverse(bins, K)) == raw(reference_extended_inverse(bins, K))

    def test_root_tables_do_not_depend_on_the_global_precision(self):
        K = 96
        samples = self.samples(K)
        default_bins = raw(EXTENDED32.forward(samples, K))
        default_roots = {n: _extended._root_tuples(n) for n in (3, 6, 12, 24, 48, 96)}
        for dps in (60, 15):
            _extended._root_tuples.cache_clear()
            with mp.workdps(dps):
                bins = raw(EXTENDED32.forward(samples, K))
            assert bins == default_bins
            assert {n: _extended._root_tuples(n) for n in default_roots} == default_roots

    @pytest.mark.parametrize("K", [128, 256])
    def test_mirrored_lengths_match_reference(self, K):
        # real rows at power-of-two K mirror over several combine levels
        samples = self.samples(K)
        bins = EXTENDED32.forward(samples, K)
        assert raw(bins) == raw(reference_extended_forward(samples, K))
        assert raw(EXTENDED32.inverse(bins, K)) == raw(reference_extended_inverse(bins, K))

    @pytest.mark.parametrize("K", [16, 64])
    def test_row_with_a_non_real_value_takes_the_full_path(self, K):
        complex_row = self.samples(K, seed=5)
        complex_row[3] = EXTENDED32.scalar_types[1](complex_row[3], EXTENDED32.scalar(0.25))
        samples = np.stack([self.samples(K, seed=6), complex_row, self.samples(K, seed=7)])
        bins = EXTENDED32.forward(samples, K)
        for row, row_bins in zip(samples, bins):
            assert raw(row_bins) == raw(reference_extended_forward(row, K))

    def test_tuple_tables_do_not_depend_on_the_global_precision(self):
        K = 64
        samples = self.samples(K)
        default = EXTENDED32.forward(samples, K)
        default_bins, default_back = raw(default), raw(EXTENDED32.inverse(default, K))
        for dps in (60, 15):
            _extended._root_tuples.cache_clear()
            with mp.workdps(dps):
                bins = EXTENDED32.forward(samples, K)
                back = EXTENDED32.inverse(bins, K)
            assert raw(bins) == default_bins and raw(back) == default_back


def mirrors(roots) -> bool:
    """roots[half - m] == -conj(roots[m]) bit for bit, for m = 0..half, on raw tuples."""
    half = len(roots) // 2
    return all(
        roots[half - m] == (mpf_neg(roots[m][0]), roots[m][1]) for m in range(half + 1)
    )


class TestRootMirror:
    """The premise of the real-input mirror in ``_extended._mp_fft``."""

    @pytest.mark.parametrize("n", [2 ** p for p in range(1, 13)])
    def test_power_of_two_tables_mirror_bit_for_bit(self, n):
        assert mirrors(_extended._root_tuples(n))

    def test_length_three_table_does_not(self):
        # why K = 3 * 2**p keeps the full butterflies
        roots = _extended._root_tuples(3)
        assert roots[2] != (roots[1][0], mpf_neg(roots[1][1]))
        assert not mirrors(_extended._root_tuples(6))


class TestDoubleGufuncBinding:
    """The double transforms call the gufuncs that numpy.fft's wrappers dispatch to.

    ``np.fft.rfft`` and ``np.fft.irfft`` call ``_pocketfft.pfu.rfft_n_even``
    (even lengths) and ``_pocketfft.pfu.irfft``.  A numpy release that
    moves or replaces them fails here by name.
    """

    def test_forward_binds_rfft_n_even(self):
        assert precision._RFFT is _pocketfft.pfu.rfft_n_even

    def test_inverse_binds_irfft(self):
        assert precision._IRFFT is _pocketfft.pfu.irfft


class TestText:
    """``Precision.text``: a scalar as the result files print it."""

    @pytest.mark.parametrize("value", [0.1, -2.5e-300, 1.0, np.float64(1 / 3), 7, True])
    def test_double_is_the_float_repr(self, value):
        assert DOUBLE.text(value) == repr(float(value))

    def extended_values(self):
        third = EXTENDED32.scalar(1) / 3
        return [third, -EXTENDED32.scalar(2) ** -200,
                EXTENDED32.zero + third + 1j * EXTENDED32.sqrt(EXTENDED32.scalar(2))]

    def test_extended_prints_digits_plus_two(self):
        for value in self.extended_values():
            expected = mp.nstr(value, 34)
            assert EXTENDED32.text(value) == expected
            for dps in (60, 15):
                with mp.workdps(dps):
                    assert EXTENDED32.text(value) == expected

    @pytest.mark.parametrize("value", [0.1, np.float64(1 / 3), 1e300])
    def test_foreign_value_in_extended_is_the_float_repr(self, value):
        assert EXTENDED32.text(value) == repr(float(value))


class TestSeam:
    """Only ``precision`` and ``_extended`` tell the modes apart: a scan of the sources."""

    SEAM = {"precision", "_extended"}
    FORBIDDEN = {"EXTENDED32", "ExtendedPrecision", "DoublePrecision", "ExtendedOperations",
                 "_extended"}

    @staticmethod
    def sources():
        return sorted(Path(precision.__file__).parent.glob("*.py"))

    @staticmethod
    def imported_modules(tree) -> set:
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module)
        return modules

    def named(self, tree, module: str) -> set:
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                # the package's public re-export of the modes
                if module == "__init__" and node.level == 1 and node.module == "precision":
                    continue
                names.update(alias.name for alias in node.names)
        return names & self.FORBIDDEN

    def test_the_scan_sees_the_package(self):
        names = {path.stem for path in self.sources()}
        assert {"__init__", "_extended", "cli", "core", "integrator", "precision",
                "tracker"} <= names

    def test_only_precision_imports_mpmath(self):
        offenders = {
            path.name for path in self.sources()
            if path.stem not in self.SEAM
            and any(m.split(".")[0] == "mpmath"
                    for m in self.imported_modules(ast.parse(path.read_text())))
        }
        assert offenders == set()

    def test_only_precision_names_the_extended_mode_or_a_mode_class(self):
        offenders = {
            path.name: sorted(self.named(ast.parse(path.read_text()), path.stem))
            for path in self.sources() if path.stem not in self.SEAM
        }
        assert {name: found for name, found in offenders.items() if found} == {}

    def test_no_module_level_finiteness_pass_through(self):
        assert not hasattr(precision, "all_finite")


# Run in a fresh interpreter: what a double run, and reading the extended
# mode without using it, import; then the extended command in argv.
LAZY_SCRIPT = """
import contextlib, io, pickle, sys
from bfamily import EXTENDED32, BFamilyConfig, GridSpec, cli

def loaded():
    return [m for m in ("mpmath", "multiprocessing", "concurrent.futures.process")
            if m in sys.modules]

assert EXTENDED32.label == "extended32"
BFamilyConfig(b=3.0, grid=GridSpec(16), dt=0.01, t_end=0.05, precision=EXTENDED32)
entries = cli.parse_manifest_text("precision = extended32")
assert cli.build_manifest(entries, ".").config.precision is EXTENDED32
assert pickle.loads(pickle.dumps(EXTENDED32)) is EXTENDED32
assert loaded() == [], loaded()
run = ["--modes", "32", "--dt", "0.01", "--t-end", "0.05", "--sample-every", "1",
       "--fit-kmin", "2"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    (row,) = cli.validate_cases(deltas=(0.2,), alphas=(0.4,))
    assert row[2] == "PASS", row
    assert cli.main(["track", *run, "--out", "track"]) == 0
    assert cli.main(["sweep", *run, "--b-list", "2", "--out", "sweep"]) == 0
    assert cli.main(["sweep", *run, "--b-list", "2,3", "--workers", "1", "--out", "sweep1"]) == 0
assert loaded() == [], loaded()
assert cli.main(sys.argv[1:]) == 0
assert "mpmath" in sys.modules
assert pickle.loads(pickle.dumps(EXTENDED32)) is EXTENDED32
"""

EXTENDED_SIMULATE = ["simulate", "--modes", "16", "--dt", "0.01", "--t-end", "0.05",
                     "--sample-every", "1", "--precision", "extended32"]


def output_files(root: Path) -> dict:
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestLazyExtended:
    """A double run never loads mpmath or the worker pool; the extended mode loads on first use."""

    def test_double_runs_import_no_mpmath_and_no_pool(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(precision.__file__).parents[1]))
        command = [*EXTENDED_SIMULATE, "--out", str(tmp_path / "fresh")]
        done = subprocess.run([sys.executable, "-c", LAZY_SCRIPT, *command],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        # the first use in a fresh process writes what this process writes
        assert cli.main(EXTENDED_SIMULATE + ["--out", str(tmp_path / "here")]) == 0
        fresh = output_files(tmp_path / "fresh")
        assert len(fresh) > 10 and fresh == output_files(tmp_path / "here")

    def test_mode_pickles_by_reference(self):
        for mode in (DOUBLE, EXTENDED32):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(mode, protocol)) is mode

    def test_extended_values_pickle_bit_for_bit(self):
        config = BFamilyConfig(b=3.0, grid=GridSpec(16), dt=0.01, t_end=0.05,
                               sample_every=1, precision=EXTENDED32)
        trajectory, trace = track_run(config, FitOptions(k_min=2))
        spectrum = trajectory.snapshots[-1]
        back_trace, back_spectrum, back_pi = pickle.loads(
            pickle.dumps((trace, spectrum, EXTENDED32.pi)))

        def typed_raw(values):
            return [(type(v), raw([v])[0] if isinstance(v, EXTENDED32.scalar_types) else v)
                    for v in values]

        assert typed_raw(back_spectrum.coeffs) == typed_raw(spectrum.coeffs)
        fields = ("amplitude", "alpha", "delta", "x_star", "residual")
        before = [typed_raw(getattr(fit, name) for name in fields) for fit in trace.fits]
        after = [typed_raw(getattr(fit, name) for name in fields) for fit in back_trace.fits]
        assert after == before
        assert any(kind in EXTENDED32.scalar_types for kind, _ in before[0])
        assert typed_raw([back_pi]) == typed_raw([EXTENDED32.pi])
        assert typed_raw([EXTENDED32.pi])[0][0] is _extended._CTX.mpf
