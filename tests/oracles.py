"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: direct convolution sums, direct
series summation, high-precision arithmetic.  The package must agree
with these, not the other way around.
"""

import functools
import math

import mpmath as mp
import numpy as np

from bfamily.cli import SCHEMA_VERSION, _value_formatter
from bfamily.core import GridSpec, PeriodicField, Spectrum, forward_transform
from bfamily.errors import BlowUpOverflowError
from bfamily.precision import DOUBLE, EXTENDED32, transforms_for
from bfamily.spectral import rhs_kernel
from bfamily.synthetic import SyntheticSpec
from bfamily.tracker import NOISE_FLOOR_FACTOR, track_run


# The frozen extended transform computes in a 32-digit context of its own:
# the extended mode's precision (110 bits) and rounding, pinned here.
_REFERENCE_CTX = mp.MPContext()
_REFERENCE_CTX.dps = 32


def reference_fft(a: list) -> list:
    """Forward DFT, sum_j a_j exp(-2*pi*i*j*k/n), with each twiddle computed where it is used.

    A frozen copy of the extended mode's radix-2 FFT before its root
    tables: every butterfly evaluates its twiddle with ``expjpi``, the
    exact root 1 included, and odd lengths sum directly.  Given inputs
    at 32 digits it returns the same mpmath values, bit for bit, as
    ``_extended._mp_fft``.
    """
    ctx = _REFERENCE_CTX
    n = len(a)
    if n == 1:
        return list(a)
    if n % 2:
        return [
            sum(a[j] * ctx.expjpi(ctx.mpf(-2 * ((j * k) % n)) / n) for j in range(n))
            for k in range(n)
        ]
    even = reference_fft(a[0::2])
    odd = reference_fft(a[1::2])
    out = [None] * n
    for m in range(n // 2):
        tw = ctx.expjpi(ctx.mpf(-2 * m) / n) * odd[m]
        out[m] = even[m] + tw
        out[m + n // 2] = even[m] - tw
    return out


def _reference_entry(value):
    """``value`` as a 32-digit complex: real and imaginary parts rounded on their own."""
    ctx = _REFERENCE_CTX
    return ctx.mpc(ctx.mpf(mp.re(value)), ctx.mpf(mp.im(value)))


def reference_extended_forward(values, n_modes: int) -> list:
    """Bins k = 0..K/2 of the DFT of one row of real samples, divided by K.

    ``EXTENDED32.forward`` of one row, on ``reference_fft``.
    """
    K = n_modes
    bins = reference_fft([_reference_entry(v) for v in values])
    return [bins[k] / K for k in range(K // 2 + 1)]


def reference_extended_inverse(half, n_modes: int) -> list:
    """Unscaled inverse DFT of one Hermitian half spectrum: ``EXTENDED32.inverse`` of one row.

    Inputs are rounded to 32 digits on entry, then the exp(+...)
    transform runs as ``reference_fft`` under conjugation.
    """
    K = n_modes
    ctx = _REFERENCE_CTX
    row = [_reference_entry(v) for v in half]
    bins = reference_fft([ctx.conj(v) for v in row] + row[K // 2 - 1 : 0 : -1])
    return [ctx.re(ctx.conj(v)) for v in bins]


def random_field(grid: GridSpec, rng: np.random.Generator) -> PeriodicField:
    return PeriodicField(grid, rng.standard_normal(grid.n_modes))


def random_hermitian_spectrum(grid: GridSpec, rng: np.random.Generator) -> Spectrum:
    """Spectrum of a random real field; Hermitian exactly by construction."""
    return forward_transform(random_field(grid, rng))


@functools.lru_cache(maxsize=None)
def burgers_spectrum(t: float, grid: GridSpec) -> Spectrum:
    """The inviscid Burgers solution from u0 = -sin x at a time 0 < t < 1, cached per (t, K).

    u(x, t) = -2 sum_{k>=1} J_k(kt)/(kt) sin kx (Fubini 1935; Platzman,
    Tellus 16, 1964), so u_hat[k] = i J_k(kt)/(kt) for 1 <= k < K/2; the
    mean and the Nyquist slot are zero.  The wave breaks at t_s = 1 at
    x = 0.  Before that the nearest singularity is a square-root branch
    point (alpha = 1/2) at the strip width arccosh(1/t) - sqrt(1 - t^2).
    Each coefficient is mpmath's Bessel function at 20 digits, rounded
    to a double once.
    """
    coeffs = np.zeros(grid.n_modes // 2 + 1, dtype=complex)
    with mp.workdps(20):
        for k in range(1, grid.n_modes // 2):
            coeffs[k] = 1j * float(mp.besselj(k, k * t) / (k * t))
    return Spectrum(grid, coeffs)


@functools.lru_cache(maxsize=None)
def tracked_run(config, fit):
    """``track_run(config, fit)``, run once per (config, fit) per test session.

    Callers share the trajectory and trace, so none may change them; a
    snapshot's coefficients are read-only already (``Spectrum.unchecked``
    freezes them), so a test that writes into one fails instead of
    corrupting the tests after it.
    """
    return track_run(config, fit)


def burgers_strip_width(t: float) -> float:
    """The exact strip width of ``burgers_spectrum`` at time t."""
    return math.acosh(1 / t) - math.sqrt(1 - t * t)


def rhs_coeffs(spectrum: Spectrum, options) -> np.ndarray:
    """One evaluation of the cached right-hand-side kernel: the time derivative's coefficients.

    The kernel is bare arithmetic, and ``integrator.rk4_step`` is its one
    guarded caller.  Here it runs under the ``np.errstate`` a step
    enters, and nothing checks the result: a test that needs it finite
    says so.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return rhs_kernel(spectrum.grid, options, spectrum.coeffs)(spectrum.coeffs)


def convolution_rhs(spectrum: Spectrum, b: float, cutoff: int) -> np.ndarray:
    """Right-hand side of the truncated mode system by exact convolution.

    Modes |k| <= cutoff are treated as the whole system: derivatives are
    exact symbol multiplications, products are O(K^2) convolution sums
    over retained modes, and the output is truncated to the band.  No
    FFTs anywhere.  Returns the coefficients of k = 0..K/2.
    """
    K = spectrum.grid.n_modes
    band = range(-cutoff, cutoff + 1)
    half = spectrum.coeffs
    u = {k: complex(half[k]) if k >= 0 else complex(half[-k]).conjugate() for k in band}
    ux = {k: 1j * k * u[k] for k in band}

    def conv(a: dict, c: dict) -> dict:
        out = {}
        for k in band:
            acc = 0.0j
            for k1 in band:
                k2 = k - k1
                if -cutoff <= k2 <= cutoff:
                    acc += a[k1] * c[k2]
            out[k] = acc
        return out

    adv = conv(u, ux)
    u_sq = conv(u, u)
    ux_sq = conv(ux, ux)
    out = np.zeros(K // 2 + 1, dtype=complex)
    for k in range(cutoff + 1):
        symbol = 1j * k / (1.0 + k * k)
        out[k] = -(adv[k] + symbol * ((b / 2.0) * u_sq[k] + ((3.0 - b) / 2.0) * ux_sq[k]))
    return out


def branch_point_series_coefficient(alpha, delta, x_star, amplitude, k: int, dps: int = 60):
    """Fourier coefficient of amplitude*Re[(1 - e^{-delta} e^{i(x-x*)})^alpha].

    Computed by summing the binomial series for (1-w)^alpha directly in
    high precision via mpmath's binomial (Gamma-based), independently of
    the package's recurrence.  Valid for k >= 0.
    """
    with mp.workdps(dps):
        # exact float -> mpf conversion; the package sees the same binary values
        a = mp.mpf(alpha)
        d = mp.mpf(delta)
        xs = mp.mpf(x_star)
        amp = mp.mpf(amplitude)
        if k == 0:
            return mp.mpc(amp)
        term = mp.binomial(a, k) * (-1) ** k * mp.e ** (-d * k) * mp.expj(-k * xs)
        return amp / 2 * term


def oracle_field(spec: SyntheticSpec, grid: GridSpec, precision=DOUBLE) -> PeriodicField:
    """amplitude * Re[(1 - exp(-delta) exp(i (x - x_star)))**alpha] on the grid's nodes.

    Evaluated pointwise, independently of ``synthetic.oracle_spectrum``'s
    series: numpy for doubles, global mpmath functions inside
    ``EXTENDED32.context()`` for the extended mode.  The base keeps a
    positive real part, so the principal power equals the binomial
    series everywhere.
    """
    x = grid.nodes(precision)
    if precision is DOUBLE:
        w = np.exp(-spec.delta + 1j * (x - spec.x_star))
        return PeriodicField(grid, spec.amplitude * np.real((1.0 - w) ** spec.alpha))
    with EXTENDED32.context():
        values = [spec.amplitude
                  * mp.re((1 - mp.exp(-spec.delta + 1j * (mp.mpf(v) - spec.x_star))) ** spec.alpha)
                  for v in x]
    return PeriodicField(grid, np.array(values, dtype=object))


def local_fit(spectrum: Spectrum, k: int):
    """(s, delta, log C) from the magnitude triple at k-1, k, k+1.

    The three-point formula as ``bfamily.tracker``'s module docstring
    writes it, restated in the package's operation order with the mode's
    scalar ``log`` and ``log_ratio``, so each row of ``sliding_fit`` must
    equal it bit for bit.  Exact on the pure decay model.  Raises
    ValueError unless 2 <= k <= K/2 - 2 and all three magnitudes lie
    above the tracker's noise floor (NOISE_FLOOR_FACTOR round-offs of
    the largest magnitude).
    """
    K = spectrum.grid.n_modes
    if not 2 <= k <= K // 2 - 2:
        raise ValueError(f"fit wavenumber must lie in [2, {K // 2 - 2}], got {k}")
    mode = transforms_for(spectrum.coeffs)
    mags = np.abs(spectrum.coeffs)
    floor = NOISE_FLOOR_FACTOR * mode.ulp * mags.max()
    m_lo, m_mid, m_hi = mags[k - 1], mags[k], mags[k + 1]
    if not (m_lo > floor and m_mid > floor and m_hi > floor):
        raise ValueError(f"magnitudes around k={k} sit at or below the noise floor")
    s = mode.log((m_lo / m_mid) * (m_hi / m_mid)) / mode.log_ratio(k * k, (k - 1) * (k + 1))
    delta = mode.log(m_mid / m_hi) + s * mode.log_ratio(k, k + 1)
    log_c = mode.log(m_mid) + s * mode.log(k) + k * delta
    return s, delta, log_c


def shanks_table_limit(seq, depth_even: int, dps: int = 60):
    """Wynn epsilon table evaluated in high precision, fixed even column.

    Returns the deepest entry of column ``depth_even`` computed at
    ``dps`` digits.  Used to pin expected values for the double
    implementation.
    """
    with mp.workdps(dps):
        prev_prev = [mp.mpf(0)] * len(seq)
        prev = [mp.mpf(str(s)) for s in seq]
        col = 0
        while col < depth_even and len(prev) >= 2:
            col += 1
            nxt = [
                prev_prev[i + 1] + 1 / (prev[i + 1] - prev[i])
                for i in range(len(prev) - 1)
            ]
            prev_prev, prev = prev, nxt
        return prev[-1]


def reference_wynn_epsilon(seq, rtol: float):
    """Wynn's epsilon table in plain Python, one entry at a time.

    The scalar loop that ``tracker.wynn_epsilon`` replaced with
    whole-column array steps.  Same contract: returns ``(limit, depth)``
    for the deepest even column built before the first near-singular
    difference (|d| <= rtol * (|a| + |b|)), or the last element with
    depth 0.  Works on floats and on mpf values.  Frozen: the
    near-singular test is the exact formula at every entry, without
    the extended mode's exponent screen, so it pins the screened
    results bit for bit.
    """
    values = list(seq)
    if len(values) < 3:
        raise ValueError("epsilon acceleration needs at least 3 sequence entries")

    def near_singular(d, a, b) -> bool:
        return abs(d) <= rtol * (abs(a) + abs(b))

    diffs = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    if all(near_singular(d, values[i + 1], values[i]) for i, d in enumerate(diffs)):
        return values[-1], 0

    best = (values[-1], 0)
    prev_prev = [0 * values[0]] * len(values)
    prev = values
    col = 0
    while len(prev) >= 2:
        col += 1
        nxt = []
        clean = True
        for i in range(len(prev) - 1):
            d = prev[i + 1] - prev[i]
            if near_singular(d, prev[i + 1], prev[i]):
                clean = False
                break
            nxt.append(prev_prev[i + 1] + 1 / d)
        if not clean or not nxt:
            break
        if col % 2 == 0:
            best = (nxt[-1], col)
        prev_prev, prev = prev, nxt
    return best


def full_layout(spectrum: Spectrum) -> np.ndarray:
    """All K slots in FFT order (0..K/2, then -(K/2-1)..-1 as conjugates).

    The input layout of ``full_layout_rhs``.
    """
    half = spectrum.coeffs
    K = spectrum.grid.n_modes
    return np.concatenate([half, np.conj(half[K // 2 - 1 : 0 : -1])])


def full_layout_rhs(coeffs: np.ndarray, b: float, dealias: bool) -> np.ndarray:
    """Right-hand side on the full K-slot layout, one transform per field.

    A per-stage reference for the fused half-layout kernel: truncate,
    differentiate, two inverse transforms, three products, three forward
    transforms with explicit Hermitian assembly, then the Helmholtz
    symbol.  Each mode sees the same floating-point operations in the
    same order as in the kernel, so the two agree exactly, in double
    (complex128) and in extended (mpmath object) arrays.  Run extended
    input inside ``EXTENDED32.context()``: the reference calls global
    mpmath functions.  No checks.
    """
    K = len(coeffs)
    half = K // 2 + 1
    k = np.concatenate([np.arange(0, K // 2), np.arange(-K // 2, 0)])
    mask = np.abs(k) > (K - 1) // 3
    extended = coeffs.dtype == object
    if extended:
        ik = np.array([mp.mpc(0, int(kk)) for kk in k], dtype=object)
        symbol = np.array([mp.mpc(0, int(kk)) / (1 + int(kk) ** 2) for kk in k], dtype=object)
        half_b, half_rest = mp.mpf(b) / 2, (3 - mp.mpf(b)) / 2
    else:
        kf = k.astype(np.float64)
        ik = 1j * kf
        symbol = 1j * kf / (1.0 + kf * kf)
        half_b, half_rest = b / 2.0, (3.0 - b) / 2.0
        signs = np.ones(half)
        signs[1::2] = -1.0

    def truncate(c):
        c = c.copy()
        if dealias:
            c[mask] = c[mask] * 0
        return c

    def to_physical(c):
        if extended:
            bins = reference_fft([mp.conj(c[m] * ((-1) ** m)) for m in range(K)])
            return np.array([mp.re(mp.conj(v)) for v in bins], dtype=object)
        return np.fft.irfft(c[:half] * signs, n=K, norm="forward")

    def to_spectral(values):
        out = np.empty(K, dtype=coeffs.dtype)
        if extended:
            bins = reference_fft([mp.mpc(v) for v in values])
            h = [bins[m] * ((-1) ** m) / K for m in range(half)]
            out[0], out[K // 2] = mp.mpc(mp.re(h[0])), mp.mpc(mp.re(h[K // 2]))
        else:
            h = np.fft.rfft(values) * signs / K
            out[0], out[K // 2] = h[0].real, h[K // 2].real
        conj = mp.conj if extended else np.conj
        for m in range(1, K // 2):
            out[m], out[K - m] = h[m], conj(h[m])
        return out

    base = truncate(coeffs)
    dbase = base * ik
    dbase[K // 2] = dbase[K // 2] * 0
    u, ux = to_physical(base), to_physical(dbase)
    products = []
    for values in (u * ux, u * u, ux * ux):
        c = truncate(to_spectral(values))
        c[K // 2] = c[K // 2] * 0
        products.append(c)
    adv, u_sq, ux_sq = products
    nonlocal_part = (half_b * u_sq + half_rest * ux_sq) * symbol
    nonlocal_part[K // 2] = nonlocal_part[K // 2] * 0
    out = -(adv + nonlocal_part)
    out[0] = out[0] * 0
    return out


def full_layout_rk4_step(c0: np.ndarray, dt: float, b: float, dealias: bool) -> np.ndarray:
    """One classical RK4 step of ``full_layout_rhs`` on all K slots."""
    k1 = full_layout_rhs(c0, b, dealias)
    k2 = full_layout_rhs(c0 + (dt / 2) * k1, b, dealias)
    k3 = full_layout_rhs(c0 + (dt / 2) * k2, b, dealias)
    k4 = full_layout_rhs(c0 + dt * k3, b, dealias)
    return c0 + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def reference_magnitudes_csv(path, provenance: dict, trajectory, precision) -> None:
    """``magnitudes.csv`` through the generic row writer.

    Every cell of the rows (t, k, abs(snapshot.coeffs[k])) goes through
    the mode's ``_value_formatter``; ``abs`` acts on the numpy (or
    mpmath) element of the stored array, so an extended magnitude
    carries the mode's digits.  This is how ``bfamily track`` wrote the
    file before its direct per-snapshot writer.
    """
    fmt = _value_formatter(precision)
    half = trajectory.config.grid.n_modes // 2
    rows = (
        (t, k, abs(snapshot.coeffs[k]))
        for t, snapshot in zip(trajectory.times, trajectory.snapshots)
        for k in range(half)
    )
    with path.open("w") as out:
        out.write(f"# schema_version = {SCHEMA_VERSION}\n")
        out.writelines(f"# {key} = {value}\n" for key, value in provenance.items())
        out.write("t,k,magnitude\n")
        out.writelines(",".join(fmt(cell) for cell in row) + "\n" for row in rows)


def _alternating_signs(n: int, scale_down: int = 1) -> np.ndarray:
    """(-1)**k / scale_down for k = 0..n-1."""
    signs = np.full(n, 1.0 / scale_down)
    signs[1::2] *= -1.0
    return signs


def signed_forward(values: np.ndarray, n_modes: int, out=None) -> np.ndarray:
    """Coefficients k = 0..K/2 of real samples, the sign folded into the transform.

    The frozen signed transform pair: each mode's ``forward`` before the
    grid's sign (-1)**k moved out of the transforms.  Double samples are
    scaled by a precomputed +-1/K after numpy's rfft and k = 0, K/2 are
    forced real; mpmath samples (object arrays, run inside
    ``EXTENDED32.context()``) go through the radix-2 FFT with
    (-1)**k / K per slot.
    """
    K = n_modes
    if values.dtype != object:
        half = np.fft.rfft(values, axis=-1, out=out)
        half *= _alternating_signs(K // 2 + 1, K)
        half[..., 0] = half[..., 0].real
        half[..., -1] = half[..., -1].real
        return half
    if out is None:
        out = np.empty(values.shape[:-1] + (K // 2 + 1,), dtype=object)
    for index in np.ndindex(values.shape[:-1]):
        bins = reference_fft([mp.mpc(v) for v in values[index]])
        half = [bins[k] * ((-1) ** k) / K for k in range(K // 2 + 1)]
        half[0] = mp.mpc(mp.re(half[0]))
        half[K // 2] = mp.mpc(mp.re(half[K // 2]))
        out[index] = half
    return out


def signed_inverse(half: np.ndarray, n_modes: int, out=None) -> np.ndarray:
    """Real samples of the field with coefficients ``half``; the inverse of ``signed_forward``."""
    K = n_modes
    if half.dtype != object:
        signed = half * _alternating_signs(K // 2 + 1)
        values = np.fft.irfft(signed, n=K, axis=-1, out=out)
        values *= K
        return values
    if out is None:
        out = np.empty(half.shape[:-1] + (K,), dtype=object)
    for index in np.ndindex(half.shape[:-1]):
        row = half[index]
        full = list(row) + [mp.conj(v) for v in row[K // 2 - 1 : 0 : -1]]
        bins = reference_fft([mp.conj(v * ((-1) ** m)) for m, v in enumerate(full)])
        out[index] = [mp.re(mp.conj(v)) for v in bins]
    return out


class ReferenceRhsKernel:
    """The right-hand-side kernel as it was before its sign and zeroing tables.

    A frozen copy of that arithmetic: the signed transform pair above,
    the dealiased band and the Nyquist slots zeroed by separate ``*= 0``
    passes, and the nonlocal term, sum, negation and k = 0 zeroing one
    operation at a time.  ``spectral.RhsKernel`` must return the same
    bytes (including signed zeros) at power-of-two K.  Evaluate
    extended input inside ``EXTENDED32.context()``: the signed transform
    pair calls global mpmath functions.
    """

    def __init__(self, n_modes: int, b: float, dealias: bool, coeffs: np.ndarray) -> None:
        transforms = transforms_for(coeffs)
        self.n_modes = n_modes
        self.keep = (n_modes - 1) // 3 + 1 if dealias else None
        n_half = n_modes // 2 + 1
        k = transforms.real(np.arange(n_half))
        self.ik = 1j * k
        self.symbol = self.ik / (1 + k * k)
        b = transforms.scalar(b)
        self.half_b = b / 2
        self.half_rest = (3 - b) / 2
        spectral, physical = transforms.complex_dtype, transforms.real_dtype
        self._fields = np.empty((2, n_half), spectral)
        self._physical = np.empty((2, n_modes), physical)
        self._values = np.empty((3, n_modes), physical)
        self._products = np.empty((3, n_half), spectral)
        self._nonlocal = np.empty(n_half, spectral)
        self._scaled = np.empty(n_half, spectral)

    def products(self, half: np.ndarray) -> np.ndarray:
        keep = self.keep
        fields = self._fields
        fields[0] = half
        if keep is not None:
            fields[0, keep:] *= 0
        np.multiply(fields[0], self.ik, out=fields[1])
        fields[1, -1] *= 0
        u, ux = signed_inverse(fields, self.n_modes, out=self._physical)
        values = self._values
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(u, ux, out=values[0])
            np.multiply(u, u, out=values[1])
            np.multiply(ux, ux, out=values[2])
        if not transforms_for(values).all_finite(values):
            raise BlowUpOverflowError("u, u_x or their products overflowed in physical space")
        products = signed_forward(values, self.n_modes, out=self._products)
        if keep is not None:
            products[:, keep:] *= 0
        products[:, -1] *= 0
        return products

    def __call__(self, half: np.ndarray) -> np.ndarray:
        adv, u_sq, ux_sq = self.products(half)
        nonlocal_part = np.multiply(self.half_b, u_sq, out=self._nonlocal)
        nonlocal_part += np.multiply(self.half_rest, ux_sq, out=self._scaled)
        nonlocal_part *= self.symbol
        nonlocal_part[-1] *= 0
        out = np.add(adv, nonlocal_part)
        np.negative(out, out=out)
        out[0] *= 0
        return out
