"""Brute-force cross-checks that do not reuse the closed-form dynamics.

Three independent machines live here:

* A discretized Schroedinger oracle of the comb model itself, exact and with
  none of ``atomdyn``'s Markov forms.  The dipole couples to ``count`` modes
  on a uniform comb of width ``span`` centered on the transition, with flat
  couplings g_k = sqrt(gamma dw / 2 pi) whose golden-rule rate is gamma.  In
  the frame rotating at the transition the N=1 sector {excited, vacuum} +
  {ground, one photon in mode k} is a star, which ``_moments`` applies
  without a matrix.  No state is propagated: every value is a contraction of
  the kernel-polynomial moments mu_m = <e|T_m(X)|e> of e = |e,0> on Weyl's
  spectral interval (Weisse et al., Rev. Mod. Phys. 78, 275 (2006)) with the
  Bessel weights c(t) of e^{-i t H} (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
  3967 (1984)).  H and e are real, so one real recurrence gives the moments,
  and only the weights depend on the time; ``_contract`` forms them and
  checks unitarity at every time from <T_l e, T_k e> = (mu_{l+k} +
  mu_{|l-k|}) / 2.  The working set is linear in count and in the longest
  time.

  The N=2 sector is never built: with sigma- a boson the model is quadratic,
  U2 = U1 (x) U1, and the hard-core boson map (T. Matsubara and H. Matsuda,
  Prog. Theor. Phys. 16, 569 (1956)) projects out |2_b>.  With x = U1(t)|e,0>,
  y = U1(t) w (w, w' the photon parts of psi(u), psi(v); tau = v - u) and nu
  from g(t) = i Int_0^t K(t-s) nu(s) ds, K = x0^2, g = sqrt2 x0 y0:

      <s+ psi(v)| U2(tau) s+ psi(u)> = x0 <w'|y> + y0 <w'|x> - i Int_0^tau beta(tau-s) nu(s) ds

  with beta = sqrt2 x0 <w'|x>.

* A windowed frequency-integral check of the resonance (delta-kernel)
  collapse used for mode sums (``markov_kernel_check``), over the band of
  validate's comb in the frame rotating at omega0.  Both grids are uniform,
  so its exp(i d t) sums are Bluestein chirp-z transforms (Rabiner, Schafer
  & Rader 1969), not dense matrix products.

* A quadrature check of the transverse angular reduction
  (1/4 pi) Int dOmega_k (delta_ij - k_i k_j) e^{i z k.xhat} = tau_ij(z).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view as _windows

from ._quad import n_for_oscillation, trapezoid_weights
from .core import DipoleParams, _finite, _like, _positive, _uniform_stream

__all__ = ["ModeGrid", "build_grid", "oracle_sigma_z", "oracle_two_time", "two_time_route",
           "markov_kernel_check", "MarkovKernelReport", "angular_reduction_check"]

_SECTOR_DIM_BUDGET = 2_000_000
_UNITARITY_LIMIT = 1e-8
_RICHARDSON_LIMIT = 1e-8      # the two-time route's last correction, of its value ...
_ROUNDING_FLOOR = 1e-15       # ... plus this rounding of amplitudes of norm <= 1
_ROMBERG_TARGET = 1e-12       # the grid halves until the correction is below this
# A batch of Bessel FFTs, and a block of Gram rows with the moment rows it
# meets, each fit one core's 2 MiB L2 cache.
_BLOCK_BYTES = 2 << 20
_WEIGHTS_BYTES = 1 << 26      # the Bessel weights of a Volterra grid; a Markov check's grid
# The unitarity check reads the Gram matrix of the series' terms at every time,
# 2 terms^2 products a time: 3.4e7 at this limit, where validate's 13 times take
# 0.25 s on 2 vCPUs.  The series of a time t is about t times the comb's half-width.
_TERM_LIMIT = 1 << 12


@dataclass(frozen=True)
class ModeGrid:
    """Frequency comb and couplings for the discretized field.

    ``build_grid`` gives the uniform, flat-coupled comb; any other can be passed here.
    ``_mu`` is the longest moment sequence ``_moments`` has run on it, or None.
    """

    omegas: np.ndarray
    couplings: np.ndarray
    omega0: float
    _mu: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("omegas", "couplings"):
            arr = _finite(getattr(self, name), name).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.omegas.shape != self.couplings.shape or self.omegas.ndim != 1:
            raise ValueError("omegas and couplings must be matching 1-d arrays")
        if self.omegas.size == 0:
            raise ValueError("empty mode grid")

    @property
    def count(self) -> int:
        return int(self.omegas.size)

    @property
    def detunings(self) -> np.ndarray:
        return self.omegas - self.omega0

    @functools.cached_property
    def _interval(self) -> tuple[float, float]:
        """(center, half): [min D - |g|, max D + |g|] holds the spectrum of the N=1 star
        H = D + V (Weyl: |V|_2 = |g|), about half as wide as row 0's Gershgorin disc;
        a non-finite one raises, also where |g|^2 overflows."""
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(self.couplings))
        diag = np.concatenate(([0.0], self.detunings))
        lo, hi = float(np.min(diag)) - norm, float(np.max(diag)) + norm
        if not math.isfinite(hi - lo):
            raise ValueError(f"spectral interval [{lo:g}, {hi:g}] is not finite")
        return 0.5 * (hi + lo), 0.5 * (hi - lo) or 1.0     # any width serves H = center


def build_grid(params: DipoleParams, count: int, span_gammas: float) -> ModeGrid:
    """Build the mode comb: ``count`` modes spanning ``span_gammas * gamma``.

    The comb is symmetric about omega0 (mode k at omega0 + (k - (count-1)/2) dw,
    dw = span/count), so the level shift vanishes.  Percent-level agreement
    over a few lifetimes takes count >= 200 and span >= 50 gamma.  The span
    must be positive and finite, omega0 > span/2, and count + 1 states must
    fit ``_SECTOR_DIM_BUDGET``; a larger count raises before any allocation.
    """
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count:,}")
    if count + 1 > _SECTOR_DIM_BUDGET:
        raise ValueError(f"count must be <= {_SECTOR_DIM_BUDGET - 1:,} to fit the sector "
                         f"budget, got {count:,}")
    span = _span(params, span_gammas)
    dw = span / count
    omegas = params.omega0 + (np.arange(count) - (count - 1) / 2.0) * dw
    couplings = np.full(count, np.sqrt(params.gamma * dw / (2.0 * np.pi)))
    return ModeGrid(omegas=omegas, couplings=couplings, omega0=params.omega0)


def _span(params: DipoleParams, span_gammas: float) -> float:
    """span_gammas * gamma, refused unless positive, finite and below 2 omega0."""
    span = _positive(span_gammas * params.gamma, "span")
    if params.omega0 <= span / 2.0:
        raise ValueError("comb would cross zero frequency: need omega0 > span/2")
    return span


def _chebyshev_coeffs(a) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(a), the cosine series of e^{-i a cos(theta)}.

    ``a`` is a number, or a column (n, 1) for one row each.  One FFT of twice
    the series' length (half, by symmetry), exact to eps max(1, a), cut at
    the first k > max(a) below that in every row: J_k(a) falls past k = a, so
    the aliased tail of a transform twice as long as the series stays below.
    """
    a = np.asarray(a, dtype=float)
    top = float(np.max(a, initial=0.0))
    size = 1 << math.ceil(math.log2(2.0 * top + 64.0))
    cut = (np.finfo(float).eps * np.maximum(1.0, a)).reshape(-1, 1)
    while True:
        samples = np.exp(-1j * a * np.cos((2.0 * np.pi / size) * np.arange(size // 2 + 1)))
        coeffs = np.fft.fft(np.concatenate((samples, samples[..., -2:0:-1]), axis=-1))
        coeffs = coeffs[..., : size // 2] / size
        coeffs[..., 1:] *= 2.0
        below = np.all(np.abs(coeffs.reshape(-1, size // 2)) < cut, axis=0)
        small = np.flatnonzero(below & (np.arange(size // 2) > top))
        if small.size and 2 * small[0] <= size:
            return coeffs[..., : max(int(small[0]), 2)]
        size *= 2


def _check_terms(grid: ModeGrid, t: float) -> None:
    """ValueError naming ``t`` when its Bessel series on ``grid``, about t times the
    half-width of the spectral interval, would pass ``_TERM_LIMIT`` terms."""
    half = grid._interval[1]
    if not t * half <= _TERM_LIMIT:
        raise ValueError(f"t = {t:.6g} needs about {t * half:.3g} Chebyshev terms on a comb of "
                         f"half-width {half:.6g}, past the limit of {_TERM_LIMIT:,}; use a "
                         "narrower span or a shorter time")


def _moments(grid: ModeGrid, t: float):
    """(mu, width): mu_m = <e|T_m(X)|e> for m < 2 width, e = |e,0>, X = (H - center) / half,
    and ``width`` the length of the Bessel series of the time ``t``.

    One real recurrence on the star H (v_0, v_1) = (g . v_1, g v_0 + d o v_1), v_0 the
    excited amplitude and v_1 one per mode, with two moments per product:
    mu_2k = 2 |T_k e|^2 - mu_0, mu_2k+1 = 2 <T_k e, T_k+1 e> - mu_1.  The comb keeps
    the longest sequence, read-only, and serves a shorter request from its prefix:
    the recurrence is the same up to there, so the prefix has the bits of a
    shorter run.  A series past ``_TERM_LIMIT`` is refused before any allocation.
    """
    _check_terms(grid, t)
    center, half = grid._interval
    width = _chebyshev_coeffs(t * half).size
    if grid._mu is not None and grid._mu.size >= 2 * width:
        return grid._mu[:2 * width], width
    diag = (2.0 / half) * (np.concatenate(([0.0], grid.detunings)) - center)
    g = (2.0 / half) * grid.couplings

    def two_x(x, out):
        np.multiply(diag, x, out=out)
        out[0] += g @ x[1:]
        out[1:] += x[0] * g

    prev, cur, nxt = np.zeros((3, diag.size))
    prev[0] = 1.0
    two_x(prev, cur)
    cur *= 0.5
    mu = np.empty(2 * width)
    mu[0], mu[1] = 1.0, cur[0]
    for k in range(1, width):
        mu[2 * k] = 2.0 * (cur @ cur) - mu[0]
        two_x(cur, nxt)
        nxt -= prev
        mu[2 * k + 1] = 2.0 * (cur @ nxt) - mu[1]
        prev, cur, nxt = cur, nxt, prev
    mu.flags.writeable = False
    object.__setattr__(grid, "_mu", mu)
    return mu, width


def _gram(mu: np.ndarray, lo: int, hi: int, n: int) -> np.ndarray:
    """<T_l e, T_k e> = (mu_{l+k} + mu_{|l-k|}) / 2 for lo <= l < hi, k < n: a Hankel and a
    Toeplitz block, each a view of sliding windows, so the sum is the one new array."""
    top = mu.size - 1
    sym = np.concatenate((mu[:0:-1], mu))           # sym_j = mu_{|j - top|}
    out = _windows(mu, n)[lo:hi] + _windows(sym, n)[top - hi + 1:top - lo + 1][::-1]
    out *= 0.5
    return out


def _check_unitarity(times, norms) -> None:
    """Raise at the first time whose state norm is more than 1e-8 off 1."""
    residual = np.abs(np.asarray(norms, dtype=float) - 1.0)
    bad = np.flatnonzero(~(residual <= _UNITARITY_LIMIT))  # NaN fails too
    if bad.size:
        raise RuntimeError(f"unitarity residual {residual[bad[0]]:.3e} at tau = "
                           f"{np.asarray(times)[bad[0]]:.6g} exceeds {_UNITARITY_LIMIT}")


def _contract(mu: np.ndarray, half: float, width: int, times, rows) -> np.ndarray:
    """(R, T): rows @ c(t) for each time, c(t) the Bessel weights of e^{-i t H} on X.

    ``rows(lo, hi)`` gives columns lo..hi of R moment rows.  The weights are
    cut at ``width``, the series of the longest time (J_k(a) grows with a < k,
    so the terms dropped are below its cut), and formed in FFT batches of
    about ``_BLOCK_BYTES``; the Gram matrix G of the T_k e is taken in row
    blocks of that size.  At every time |psi|^2 = Re c G Re c + Im c G Im c
    must be 1 to 1e-8.
    """
    times = np.asarray(times, dtype=float)
    batch = max(1, _BLOCK_BYTES // (384 * (width + 32)))   # 88 B x FFT size a row
    step = max(1, _BLOCK_BYTES // (16 * width))       # Gram rows a block
    out = [rows(0, 0)]
    for i in range(0, times.size, batch):
        c = _chebyshev_coeffs(half * times[i:i + batch, None])[:, :width]
        w = c.shape[1]
        part, norms = 0.0, 0.0
        for lo in range(0, w, step):
            hi = min(lo + step, w)
            part = part + rows(lo, hi) @ c[:, lo:hi].T
            gram = _gram(mu, lo, hi, w)
            for x in (c.real, c.imag):
                norms = norms + np.einsum("tl,lt->t", x[:, lo:hi], gram @ x.T)
        _check_unitarity(times[i:i + batch], np.sqrt(np.abs(norms)))
        out.append(part)
    return np.concatenate(out, axis=1)


def _excited_amplitude(times, grid: ModeGrid) -> np.ndarray:
    """a(t) = <e,0| e^{-i H t} |e,0> = e^{-i center t} c(t) . mu, for times >= 0."""
    ts = _finite(times, "times", nonneg=True).ravel()
    center, half = grid._interval
    mu, width = _moments(grid, float(np.max(ts, initial=0.0)))
    a = _contract(mu, half, width, ts, lambda lo, hi: mu[None, lo:hi])[0]
    return a * np.exp(-1j * center * ts)


def oracle_sigma_z(times, grid: ModeGrid):
    """<sigma_z(t)> = 2 |a(t)|^2 - 1 at a time or on a 1-d grid of times in any order,
    from the moments of |e,0>."""
    ts = np.atleast_1d(np.asarray(times, dtype=float))  # the kernel refuses t < 0, NaN and inf
    if ts.ndim != 1:
        raise ValueError("times must be a time or a 1-d grid")
    return _like(2.0 * np.abs(_excited_amplitude(ts, grid)) ** 2 - 1.0, times)


def _series_divide(r: np.ndarray, k: np.ndarray) -> np.ndarray:
    """x with sum_{j<=i} k_{i-j} x_j = r_i, the first r.size terms of r(z) / k(z): 1/k by
    Newton's q <- q (2 - k q) from q = 1/k_0, with FFT products."""
    n = r.size
    q = np.array([1.0 / k[0]])
    while q.size < n:
        m = min(2 * q.size, n)
        size = 1 << (m + q.size - 2).bit_length()
        fq = np.fft.fft(q, size)
        e = -np.fft.ifft(np.fft.fft(k[:m], size) * fq)[:m]
        e[0] += 2.0
        q = np.fft.ifft(fq * np.fft.fft(e, size))[:m]
    size = 1 << (2 * n - 2).bit_length()
    return np.fft.ifft(np.fft.fft(q, size) * np.fft.fft(r, size))[:n]


def _trapezoid_route(f: np.ndarray, step: float, a_u: complex, a_v: complex) -> complex:
    """<s+ psi(v)| U2(tau) s+ psi(u)> from f = (x0, x0', y0, y0', <w'|x>) at t_j = j step.

    With K(0) = 1, i nu + i Int K'(t-s) nu(s) ds = g' is a Toeplitz system in nu / sqrt2.
    """
    x0, dx0, y0, dy0, p = f
    k1 = 2.0 * x0 * dx0
    g1 = dx0 * y0 + x0 * dy0
    nu = np.empty_like(g1)
    nu[0] = -1j * g1[0]
    kernel = step * k1
    kernel[0] = 1.0 + 0.5 * kernel[0]       # the half weight on s = t
    nu[1:] = _series_divide(-1j * g1[1:] - 0.5 * step * k1[1:] * nu[0], kernel)
    beta = (x0 * p)[::-1]
    integral = step * (beta @ nu - 0.5 * (beta[0] * nu[0] + beta[-1] * nu[-1]))
    wy = 1.0 - a_u * np.conj(a_u) - np.conj(a_v) * y0[-1]      # <w'|y(tau)>
    return complex(x0[-1] * wy + y0[-1] * p[-1] - 2j * integral)


def two_time_route(u: float, v: float, grid: ModeGrid):
    """(<s-(u) s+(v)>, <s+(v) s-(u)>, base grid steps, last Romberg correction) for 0 <= u <= v.

    The identity's functions are contractions of the moments mu of |e,0>.  The
    grid of ceil(tau r) steps (r the half-width) halves until the correction
    is below 1e-12 of the value or the weights pass ``_WEIGHTS_BYTES``.
    """
    _finite((u, v), "times", nonneg=True)
    if u > v:
        raise ValueError(f"the two-excitation route requires u <= v, got u = {u:g}, v = {v:g}")
    tau = v - u
    center, half = grid._interval
    n = max(math.ceil(tau * half), 2)
    row_bytes = 32 * (tau * half + 32)       # about, per grid time
    if 2 * n * row_bytes > _WEIGHTS_BYTES:
        raise ValueError(f"v - u = {tau:.6g} needs Bessel weights of {4 * n + 1:,} times, over "
                         f"{_WEIGHTS_BYTES >> 20} MiB; use a narrower comb or a shorter v - u")
    mu, width = _moments(grid, v)
    m = min(_chebyshev_coeffs(tau * half).size, width)     # terms past width are below its cut
    deta = -0.5j * half * (mu[1:] + mu[abs(np.arange(mu.size - 1) - 1)])   # -i <e|(H-c) T_k|e>
    # the u and v legs: a = c . mu, and over T_k e (k < m) G c and G_eta c
    legs = _contract(mu, half, width, (u, v), lambda lo, hi: np.vstack(
        (mu[None, lo:hi], _gram(mu, lo, hi, m).T, _gram(deta, lo, hi, m).T)))
    (a_u, a_v), gc, gd = legs[0], legs[1:m + 1], legs[m + 1:]
    # over T_k e: x0, x0', y0, y0' and <w'|x>
    moments = np.array([mu[:m], deta[:m], gc[:, 0] - a_u * mu[:m], gd[:, 0] - a_u * deta[:m],
                        np.conj(gc[:, 1]) - np.conj(a_v) * mu[:m]])
    base, f, rows = n, None, []
    while True:     # each grid halves the last; its new times interleave the old
        new = np.arange(1 if rows else 0, n + 1, 2 if rows else 1)
        values = _contract(mu, half, m, tau / n * new, lambda lo, hi: moments[:, lo:hi])
        f = np.insert(f, np.arange(1, f.shape[1]), values, axis=1) if rows else values
        rows.append([_trapezoid_route(f, tau / n, a_u, a_v)])
        for j, coarse in enumerate(rows[-2] if len(rows) > 1 else (), 1):
            rows[-1].append(rows[-1][-1] + (rows[-1][-1] - coarse) / (4.0**j - 1.0))
        value = rows[-1][-1]        # the last correction: what this grid moved the value by
        correction = abs(value - rows[-2][-1]) if len(rows) > 2 else math.inf
        if (correction <= _ROMBERG_TARGET * abs(value) + _ROUNDING_FLOOR
                or n * row_bytes > _WEIGHTS_BYTES):
            break
        n *= 2
    if not correction <= _RICHARDSON_LIMIT * abs(value) + _ROUNDING_FLOOR:
        raise RuntimeError(f"last Richardson correction {correction:.3e} of the two-time route "
                           f"exceeds {_RICHARDSON_LIMIT} of its value {abs(value):.6g}")
    phase = np.exp(1j * grid.omega0 * tau) * np.exp(1j * center * tau)
    return (complex(phase * np.conj(value)), complex(phase * np.conj(a_v) * a_u),
            base, correction)


def oracle_two_time(kind, u: float, v: float, grid: ModeGrid) -> complex:
    """Two-time dipole correlator of ``kind``, an :class:`advwave.atomdyn.AtomCorrKind`.

    PLUS_MINUS takes any order, from the amplitudes a(u) and a(v) of |e,0>;
    MINUS_PLUS and COMMUTATOR need u <= v, with
    <s-(u) s+(v)> = e^{i w0 (v-u)} <U2(v-u) s+ psi(u), s+ psi(v)> from
    ``two_time_route``.
    """
    from .atomdyn import AtomCorrKind

    kind = AtomCorrKind(kind)
    if kind is AtomCorrKind.PLUS_MINUS:
        amp_u, amp_v = _excited_amplitude((u, v), grid)
        return complex(np.exp(1j * grid.omega0 * (u - v)) * np.conj(amp_u) * amp_v)
    minus_plus, plus_minus_rev, _, _ = two_time_route(u, v, grid)
    return minus_plus if kind is AtomCorrKind.MINUS_PLUS else minus_plus - plus_minus_rev


def _chirp_z(x: np.ndarray, x0: float, dx: float, y0: float, dy: float, m: int) -> np.ndarray:
    """Sum_k x_k exp(i (y0 + j dy)(x0 + k dx)) for j = 0 .. m-1, in O((n + m) log(n + m)).

    Bluestein: jk = (j^2 + k^2 - (j - k)^2) / 2 makes the sum an FFT
    convolution with the chirp exp(-i dx dy d^2 / 2).
    """
    n = x.size
    idx = np.arange(max(n, m), dtype=float)
    chirp = np.exp(0.5j * (dx * dy) * idx**2)
    size = 1 << (n + m - 2).bit_length()     # power of two >= n + m - 1
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - n + 1:] = chirp[1:n][::-1].conj()
    y = x * np.exp(1j * (y0 * dx) * idx[:n]) * chirp[:n]
    conv = np.fft.ifft(np.fft.fft(y, size) * np.fft.fft(kernel))[:m]
    return np.exp(1j * (y0 + dy * idx[:m]) * x0) * chirp[:m] * conv


@dataclass(frozen=True)
class MarkovKernelReport:
    """Resonance-kernel check: exact windowed action vs the delta collapse.

    ``action`` is the action on the packet at the retarded peak, demodulated at
    its centre, and ``mass_rel_err`` its distance from 2 pi over 2 pi; ``width``
    is the FWHM of |K| there.
    """

    action: complex
    mass_rel_err: float
    width: float


def _markov_band(params: DipoleParams, span_gammas: float) -> tuple[float, float]:
    """(half, sigma): the band's half-width and the packet width of ``markov_kernel_check``.

    ValueError, before any allocation, for a span that is not positive and
    finite or reaches zero frequency, a gamma whose 2 sigma^2 is not a normal
    float, or a band whose grids pass ``_WEIGHTS_BYTES``.  The time grid spans
    44 sigma and the width scan's frequency grid resolves delays up to
    56 sigma + 5 pi / half, both at 40 points a period, so the second is the
    larger: about 90 points per gamma of span.
    """
    half = _span(params, span_gammas) / 2.0
    sigma = 0.25 / params.gamma
    if not np.finfo(float).tiny <= 2.0 * sigma * sigma < math.inf:
        raise ValueError(f"gamma = {params.gamma:.6g}: the packet's 2 sigma^2 is not a "
                         "normal float")
    points = 40.0 * (56.0 * sigma + 5.0 * np.pi / half) * half / np.pi
    if not 16.0 * points <= _WEIGHTS_BYTES:
        raise ValueError(f"span = {span_gammas:.6g} gamma needs a frequency grid of about "
                         f"{points:.3g} points, over {_WEIGHTS_BYTES >> 20} MiB; use a narrower span")
    return half, sigma


def markov_kernel_check(params: DipoleParams, span_gammas: float) -> MarkovKernelReport:
    """Check the delta collapse of Int e^{i w t'} (e^{-i w t_r} + e^{-i w t_a}) dw, w in the band.

    The band is omega0 +- span/2 (span = span_gammas * gamma), as for ``build_grid``.
    The packet g(t') = exp(-(t'-t_r)^2 / 2 sigma^2) e^{-i w0 t'} (the carrier is
    pinned at w0, since off resonance it would probe the positive-frequency cut)
    on the window (t_r - 12 sigma, t_a + 12 sigma) is compared against 2 pi: the
    packet, demodulated at t_r, is 1 there, and at t_a it is e^{-200}.
    The packet width sigma = 0.25/gamma is the time scale the oracle resolves, so
    its band fits inside any comb wide enough for the dynamics, at any omega0;
    t_r = 2 sigma and t_a = 22 sigma.  In the frame rotating at w0 (w = w0 + d),
    with the packet demodulated at its centre, every sampled phase is a detuning
    times a time; the one absolute phase left is the carrier e^{-i w0 (t_a - t_r)}
    on the advanced peak's part of the kernel.  The packet at t_a is the mirror
    image of this one about the window's centre (t_r + t_a) / 2, and its kernel
    the conjugate of this one's, so its action is the conjugate of ``action``
    and only the retarded packet is transformed.  ``_markov_band`` refuses a
    bad span or gamma, or a band too wide for its grids, before any transform.
    """
    half, sigma = _markov_band(params, span_gammas)
    t_r, t_a = 2.0 * sigma, 22.0 * sigma
    a, b = t_r - 12.0 * sigma, t_a + 12.0 * sigma
    n_t = n_for_oscillation(half, a, b, 40)      # 40 points per period, here and in d
    carrier = np.exp(-1j * params.omega0 * (t_a - t_r))
    # the distance from a window point to the farther peak, with a margin
    reach = (b - a) + 12.0 * sigma

    def weighted_kernel(scale: float):
        """(dd, trapezoid weight x (1 + carrier e^{-i d (t_a - t_r)})): the kernel at the
        retarded packet over the band."""
        n_w = n_for_oscillation(scale, -half, half, 40)
        ds = np.linspace(-half, half, n_w + 1)
        return 2.0 * half / n_w, trapezoid_weights(-half, half, n_w) * (
            1.0 + carrier * np.exp(-1j * (t_a - t_r) * ds))

    dd, kw = weighted_kernel(reach)
    s = (np.linspace(a, b, n_t + 1) - t_r) / sigma
    ghat = _chirp_z(trapezoid_weights(a, b, n_t) * np.exp(-0.5 * s * s), a - t_r,
                    (b - a) / n_t, -half, dd, kw.size)
    action = complex(np.sum(kw * ghat))

    # FWHM of |K| at the retarded peak: the run of samples >= half the maximum
    half_span = 5.0 * np.pi / half
    td = np.linspace(-half_span, half_span, 801)
    dd, kw = weighted_kernel(reach + half_span)
    mag = np.abs(_chirp_z(kw, -half, dd, td[0], 2.0 * half_span / (td.size - 1), td.size))
    peak = int(np.argmax(mag))
    below = np.flatnonzero(np.r_[True, mag < mag[peak] / 2.0, True])  # index j: sample j - 1
    i = int(np.searchsorted(below, peak + 1))
    width = float(td[below[i] - 2] - td[below[i - 1]])

    return MarkovKernelReport(action, abs(action - 2.0 * np.pi) / (2.0 * np.pi), width)


def _transverse_quadrature(xhats: np.ndarray, z_values, order: int) -> np.ndarray:
    """(1/4 pi) Int dOmega_k (delta_ij - k_i k_j) e^{i z k.xhat}, shape (Z, D, 3, 3), in one pass."""
    from .radiometry import _sphere_nodes

    dirs, weights = _sphere_nodes(order)
    proj = np.eye(3) - dirs[:, :, None] * dirs[:, None, :]
    phase = weights * np.exp(1j * np.multiply.outer(np.asarray(z_values, dtype=float),
                                                    xhats @ dirs.T))
    return np.einsum("zdm,mij->zdij", phase, proj) / (4.0 * np.pi)


def angular_reduction_check() -> float:
    """Max abs error of the quadrature'd transverse angular integral vs tau_ij.

    For two directions xhat, uniform on the sphere (both cos(theta), then both
    phi, from ``core._uniform_stream(0)``), and z = 5, compares
    ``_transverse_quadrature`` of order 24 with tau_kernel(z, xhat) component
    by component.
    """
    from .fieldcoeffs import tau_kernel

    draw = _uniform_stream(0)
    cos_t, phi = draw(-1.0, 1.0, 2), draw(0.0, 2.0 * np.pi, 2)
    sin_t = np.sqrt(1.0 - cos_t**2)
    xhats = np.stack((sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t), axis=1)
    num = _transverse_quadrature(xhats, (5.0,), 24)
    ref = np.array([tau_kernel(5.0, xhat) for xhat in xhats])
    return float(np.max(np.abs(num[0] - ref)))
