"""Brute-force cross-checks that do not reuse the closed-form dynamics.

Three independent machines live here:

* A discretized single/double-excitation Schroedinger oracle.  The dipole is
  coupled to ``count`` modes on a uniform frequency comb of total width
  ``span`` centered on the transition, with flat couplings
  g_k = sqrt(gamma * dw / 2 pi) chosen so the comb's golden-rule rate
  reproduces gamma.  Excitation number is conserved, so each sector
  Hamiltonian acts on its own block

      N=1:  {excited, vacuum} + {ground, one photon in mode k}
      N=2:  {excited, one photon k} + {ground, photon pair (k <= l)}

  and is time independent, so states are propagated exactly, exp(-i tau H) psi
  by a Chebyshev series on an interval that holds the spectrum of H (Tal-Ezer
  & Kosloff, J. Chem. Phys. 81, 3967 (1984)), in the frame rotating at the
  transition frequency; one recurrence serves a time grid, as only the Bessel
  weights depend on tau.  No matrix is assembled: H is applied from the
  grid's detunings d and couplings g.  N=1 is a star, H (v_0, v_1) =
  (g . v_1, g v_0 + d o v_1).  An N=2 state is (e, S), its pair amplitudes a
  symmetric matrix S, so the pair block is the elementwise product with
  d_k + d_l and the coupling is a matrix-vector product plus a rank-2 update.
  Every state is a plain vector in its sector's layout.  The spectral
  interval is Weyl's bound, in closed form from the grid.

  Populations need only N=1; two-time products that *raise* the dipole reach
  N=2 by applying the raising operator between two forward propagation
  segments -- no backward evolution is ever performed.  Every comb mode
  carries pairs, so N=2 holds count + count (count + 1) / 2 states (count +
  count^2 amplitudes as (e, S)) and the sector budget allows count ~2 000.

* A windowed frequency-integral check of the resonance (delta-kernel)
  collapse used for mode sums: the exact kernel
  Int f(w) e^{i w t'} (e^{-i w t_r} +/- e^{-i w t_a}) dw is applied to
  narrow-band test wavepackets and compared against
  2 pi f(w0) [g(t_r) w_r +/- g(t_a) w_a], with endpoint weights w = 1, 1/2, 0
  for packet centers inside / on the boundary of / outside the time window.
  The report carries the kernel's demodulated mass (-> 2 pi f(w0)) and the
  full width at half maximum of |K| around the retarded peak (-> O(1/cutoff)).
  Both grids are uniform, so the exp(i w t) sums are Bluestein chirp-z
  transforms (Rabiner, Schafer & Rader 1969), not dense matrix products.

* A quadrature check of the transverse angular reduction
  (1/4 pi) Int dOmega_k (delta_ij - k_i k_j) e^{i z k.xhat} = tau_ij(z).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import n_for_oscillation, trapezoid_weights
from .core import DipoleParams

__all__ = [
    "ModeGrid",
    "build_grid",
    "oracle_sigma_z",
    "oracle_two_time",
    "markov_kernel_check",
    "MarkovKernelReport",
    "angular_reduction_check",
]

_TWO_PHOTON_DIM_BUDGET = 2_000_000
_UNITARITY_LIMIT = 1e-8
_BLOCK_BYTES = 8 << 20
_SUMS_BYTES = 1 << 29     # one N=2 propagation's peak at the sector budget


@dataclass(frozen=True)
class ModeGrid:
    """Frequency comb and couplings for the discretized field.

    ``build_grid`` gives the uniform, flat-coupled comb; any other couplings
    (or frequencies) can be passed here directly.
    """

    omegas: np.ndarray
    couplings: np.ndarray
    omega0: float

    def __post_init__(self):
        for name in ("omegas", "couplings"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
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
    def spacing(self) -> float:
        return float(self.omegas[1] - self.omegas[0]) if self.count > 1 else 0.0

    @property
    def span(self) -> float:
        return self.spacing * self.count

    @property
    def detunings(self) -> np.ndarray:
        return self.omegas - self.omega0


def build_grid(params: DipoleParams, count: int = 400, span_gammas: float = 50.0) -> ModeGrid:
    """Build the mode comb: ``count`` modes spanning ``span_gammas * gamma``.

    The comb is symmetric about omega0 (mode k sits at
    omega0 + (k - (count-1)/2) * dw, dw = span/count) and its couplings are
    flat, g_k = sqrt(gamma dw / 2 pi), which makes the discretized level shift
    vanish by symmetry.

    Percent-level agreement over a few lifetimes takes count >= 200 and
    span >= 50 gamma; coarser combs are allowed, for diagnostics.  The comb
    must stay at positive frequencies: omega0 > span/2.  The one-excitation
    sector (count + 1 states) must fit the sector budget
    ``_TWO_PHOTON_DIM_BUDGET``; a larger count raises before any allocation.
    The two-excitation sector is checked where it is first needed.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    if count + 1 > _TWO_PHOTON_DIM_BUDGET:
        raise ValueError(f"count = {count:,} exceeds the sector budget: need count + 1 <= "
                         f"{_TWO_PHOTON_DIM_BUDGET:,}")
    span = span_gammas * params.gamma
    if params.omega0 <= span / 2.0:
        raise ValueError("comb would cross zero frequency: need omega0 > span/2")
    dw = span / count
    omegas = params.omega0 + (np.arange(count) - (count - 1) / 2.0) * dw
    couplings = np.full(count, np.sqrt(params.gamma * dw / (2.0 * np.pi)))
    return ModeGrid(omegas=omegas, couplings=couplings, omega0=params.omega0)


def _pair_count(count: int) -> int:
    """Number of N=2 pair states k <= l of ``count`` modes; raises past the sector budget."""
    n_pairs = count * (count + 1) // 2
    dim = count + n_pairs
    if dim > _TWO_PHOTON_DIM_BUDGET:
        # the largest n with n + n (n + 1) / 2 <= budget
        max_count = (math.isqrt(9 + 8 * _TWO_PHOTON_DIM_BUDGET) - 3) // 2
        raise ValueError(
            f"count = {count:,} needs {dim:,} two-excitation states, more than the "
            f"budget of {_TWO_PHOTON_DIM_BUDGET:,}; need count <= {max_count:,}"
        )
    return n_pairs


class _Sector:
    """A sector Hamiltonian H = D + V, applied without assembling a matrix.

    Subclasses give the diagonal D on their state layout, the exact operator
    norm of the coupling V, and ``coupling(scale)``, which adds scale * V x to
    an output vector.
    """

    size: int   # amplitudes in a state vector
    coupling_norm: float

    def scaled(self, scale: float, shift: float):
        """apply(x, out): out = scale * (H - shift) x.

        The scaled diagonal and couplings are complex copies, so every
        product stays on numpy's complex (BLAS) paths.
        """
        diag = (scale * (self.diagonal() - shift)).astype(complex)
        add = self.coupling(scale)

        def apply(x, out):
            np.multiply(diag, x, out=out)
            add(x, out)

        return apply


class _OneSector(_Sector):
    """N=1: {excited, vacuum} + {ground, one photon in mode k}.

    A state is v = (v_0, v_1): the excited amplitude, then one per mode.  H is
    a star, H v = [g . v_1, g v_0 + d o v_1] with d the detunings and g the
    couplings.
    """

    def __init__(self, grid: ModeGrid):
        self.d, self.g = grid.detunings, grid.couplings
        self.size = grid.count + 1
        self.coupling_norm = float(np.linalg.norm(self.g))

    def diagonal(self) -> np.ndarray:
        return np.concatenate(([0.0], self.d))

    def coupling(self, scale: float):
        g = (scale * self.g).astype(complex)

        def add(x, out):
            out[0] += g @ x[1:]
            out[1:] += x[0] * g

        return add


class _TwoSector(_Sector):
    """N=2: {excited, one photon k} + {ground, photon pair (k <= l)}.

    A state is (e, S), flattened: e_k the amplitude of |excited, 1_k>, then a
    symmetric count x count matrix S of pair amplitudes, S_kl = S_lk =
    c_kl / sqrt(2) for k < l and S_kk = c_kk in terms of the Fock amplitudes
    c_kl of |ground, 1_k 1_l>, so the norm is the Fock norm.  On it

        H (e, S) = (d o e + sqrt(2) S g,  Delta o S + (e g^T + g e^T) / sqrt(2))

    with Delta_kl = d_k + d_l.  A state holds count + count^2 amplitudes, and
    a propagation keeps about eight of them (the rolling block of at least
    three T_k, one sum per output time, the scaled diagonal, the rank-2 buffer
    and one product): about 0.5 GB for one time at the budget, count ~2 000.
    """

    def __init__(self, grid: ModeGrid):
        self.n = grid.count
        _pair_count(self.n)     # refuse an oversized sector before any work
        self.size = self.n + self.n ** 2
        self.d, self.g = grid.detunings, grid.couplings
        self.coupling_norm = float(np.sqrt(2.0) * np.linalg.norm(self.g))

    def _split(self, x: np.ndarray):
        return x[:self.n], x[self.n:].reshape(self.n, self.n)

    def diagonal(self) -> np.ndarray:
        return np.concatenate((self.d, np.add.outer(self.d, self.d).ravel()))

    def coupling(self, scale: float):
        n = self.n
        g_exc = (scale * np.sqrt(2.0) * self.g).astype(complex)
        g_pair = scale * np.sqrt(0.5) * self.g
        # e g^T + g e^T as one real product on the (re, im) view of the
        # amplitudes: [re e, im e, g] @ [g (x) (1, 0); g (x) (0, 1); e]
        left = np.empty((n, 3))
        right = np.zeros((3, 2 * n))
        left[:, 2] = right[0, 0::2] = right[1, 1::2] = g_pair
        rank2 = np.empty((n, n), dtype=complex)

        def add(x, out):
            e, s = self._split(x)
            out_e, out_s = self._split(out)
            e_parts = e.view(float)
            out_e += s @ g_exc
            left[:, :2] = e_parts.reshape(n, 2)
            right[2] = e_parts
            np.matmul(left, right, out=rank2.view(float))
            out_s += rank2

        return add


def _chebyshev_coeffs(a: float) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(a), the cosine series of e^{-i a cos(theta)}.

    One FFT of the periodic samples gives every coefficient to the rounding
    of the sampled phase, eps * max(1, a); the series is cut at the first
    k > a whose coefficient is below that.  J_k(a) falls monotonically past
    k = a, so a transform at least twice as long as the kept series leaves the
    aliased tail below the cut.
    """
    cut = np.finfo(float).eps * max(1.0, a)
    size = 64
    while size < 2.0 * a + 64.0:
        size *= 2
    while True:
        theta = (2.0 * np.pi / size) * np.arange(size)
        coeffs = np.fft.fft(np.exp(-1j * a * np.cos(theta)))[: size // 2] / size
        coeffs[1:] *= 2.0
        k = np.arange(coeffs.size)
        small = np.flatnonzero((k > a) & (np.abs(coeffs) < cut))
        if small.size and 2 * small[0] <= size:
            return coeffs[: max(int(small[0]), 2)]
        size *= 2


def _spectral_interval(h: _Sector) -> tuple[float, float]:
    """[lo, hi] holding the spectrum of the sector Hamiltonian H = D + V.

    Weyl's bound: V moves no eigenvalue by more than |V|_2, so the spectrum
    lies in [min D - |V|_2, max D + |V|_2].  |V|_2 is exact here: |g| for the
    N=1 star, sqrt(2) |g| for N=2 (the pair matrix S = g g^T / |g|^2 attains
    it).  For the N=1 star that is about half as wide as the Gershgorin disc
    of row 0.
    """
    diag = h.diagonal()
    return float(np.min(diag)) - h.coupling_norm, float(np.max(diag)) + h.coupling_norm


def _chebyshev_expm_many(h: _Sector, taus, x: np.ndarray, observe) -> list:
    """[observe(exp(-i tau H) x) for tau in taus], from one Chebyshev recurrence.

    On X = (H - c) / r, [c - r, c + r] the spectral interval, e^{-i tau r X} =
    sum_k (2 - delta_k0) (-i)^k J_k(tau r) T_k(X) converges super-exponentially
    once k > tau r (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).  Only
    the Bessel weights depend on tau: one recurrence out to the longest time
    feeds a sum per distinct time.  Every time is a forward step from ``x``;
    callers refuse negative ones.  Sums past ``_SUMS_BYTES`` are refused
    before any allocation; a norm drift past 1e-8 at any time raises.
    """
    taus = np.asarray(taus, dtype=float).tolist()
    if not np.all(np.isfinite(taus)):
        raise ValueError("times must be finite")
    times = np.array(sorted(set(taus)))
    if 16 * times.size * h.size > _SUMS_BYTES:
        raise ValueError(f"{times.size:,} times of {h.size:,} amplitudes need more than "
                         f"{_SUMS_BYTES >> 20} MiB of Chebyshev sums; use fewer times")
    if h.coupling_norm == 0.0:
        sums = np.exp(-1j * np.multiply.outer(times, h.diagonal())) * x
    else:
        lo, hi = _spectral_interval(h)
        center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        series = [_chebyshev_coeffs(tau * half) for tau in times]
        terms = max((c.size for c in series), default=0)
        coeffs = np.array([np.pad(c, (0, terms - c.size)) for c in series])
        two_x = h.scaled(2.0 / half, center)
        # T_k(X) x goes to row k % width of a rolling block; each full block
        # joins each time's sum as one matrix-vector product with its weights
        width = int(np.clip(_BLOCK_BYTES // (16 * h.size), 3, 16))
        block = np.zeros((width, h.size), dtype=complex)
        sums = np.zeros((times.size, h.size), dtype=complex)
        block[0] = x
        two_x(block[0], block[1])
        block[1] *= 0.5
        for k in range(terms):
            row = k % width
            if k >= 2:
                # T_k = 2 X T_{k-1} - T_{k-2}
                two_x(block[(k - 1) % width], block[row])
                block[row] -= block[(k - 2) % width]
            if row == width - 1 or k == terms - 1:
                for weights, s in zip(coeffs[:, k - row:k + 1], sums):
                    s += weights @ block[:row + 1]
        sums *= np.exp(-1j * times * center)[:, None]
    norm0 = float(np.linalg.norm(x))
    for tau, residual in zip(times, (abs(float(np.linalg.norm(s)) - norm0) for s in sums)):
        if residual > _UNITARITY_LIMIT * max(norm0, 1e-300):
            raise RuntimeError(f"unitarity residual {residual:.3e} at tau = {tau:.6g} "
                               f"exceeds {_UNITARITY_LIMIT}")
    kept = dict(zip(times.tolist(), (observe(s) for s in sums)))
    return [kept[tau] for tau in taus]


def _from_excited(times, grid: ModeGrid, observe) -> list:
    """[observe(psi(t)) for t in times]; psi is the N=1 state from |e, 0> at t = 0."""
    start = np.zeros(grid.count + 1, dtype=complex)
    start[0] = 1.0
    return _chebyshev_expm_many(_OneSector(grid), times, start, observe)


def oracle_sigma_z(times, grid: ModeGrid):
    """<sigma_z(t)> on an ascending time grid from one N=1 Chebyshev recurrence."""
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(ts < 0.0) or np.any(np.diff(ts) < 0.0):
        raise ValueError("times must be ascending and >= 0")
    out = 2.0 * np.abs(_from_excited(ts, grid, lambda psi: psi[0])) ** 2 - 1.0
    return out if np.ndim(times) else float(out[0])


def oracle_two_time(kind, u: float, v: float, grid: ModeGrid) -> complex:
    """Two-time dipole correlator from forward-only propagation.

    ``kind`` is an :class:`advwave.atomdyn.AtomCorrKind` (or its value string).
    PLUS_MINUS works for any ordering within the N<=1 sector; MINUS_PLUS and
    COMMUTATOR require u <= v and climb into the two-excitation sector:

        <s-(u) s+(v)> = e^{i w0 (v-u)} <U(v-u) s+ psi(u), s+ psi(v)>

    with every factor evaluated in the rotating frame; psi(u) and psi(v) share
    one N=1 recurrence.  The N=2 sector must fit ``_TWO_PHOTON_DIM_BUDGET``
    (2 000 000 states, count <= 1 998), which is checked before any
    propagation; at the budget one N=2 propagation peaks at about 0.5 GB.
    """
    from .atomdyn import AtomCorrKind

    kind = AtomCorrKind(kind)
    if u < 0.0 or v < 0.0:
        raise ValueError("times must be >= 0")
    w0 = grid.omega0

    if kind is AtomCorrKind.PLUS_MINUS:
        amp_u, amp_v = _from_excited((u, v), grid, lambda psi: psi[0])
        return complex(np.exp(1j * w0 * (u - v)) * np.conj(amp_u) * amp_v)

    if u > v:
        raise ValueError(f"{kind.value} requires u <= v")

    pairs, n = _TwoSector(grid), grid.count     # an oversized N=2 sector raises here
    psi_u, psi_v = _from_excited((u, v), grid, lambda psi: psi)
    raised = np.zeros(pairs.size, dtype=complex)    # s+ psi(u) = (psi_u[1:], S = 0)
    raised[:n] = psi_u[1:]
    (left,) = _chebyshev_expm_many(pairs, [v - u], raised, lambda x: x[:n])
    minus_plus = complex(np.exp(1j * w0 * (v - u)) * np.vdot(left, psi_v[1:]))
    if kind is AtomCorrKind.MINUS_PLUS:
        return minus_plus
    # COMMUTATOR: subtract <s+(v) s-(u)>
    plus_minus_rev = complex(np.exp(1j * w0 * (v - u)) * np.conj(psi_v[0]) * psi_u[0])
    return minus_plus - plus_minus_rev


def _window_weight(t_peak: float, window: tuple[float, float], tol: float) -> float:
    a, b = window
    if abs(t_peak - a) <= tol or abs(t_peak - b) <= tol:
        return 0.5
    return 1.0 if a < t_peak < b else 0.0


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

    ``mass`` is the demodulated kernel weight at the retarded peak (the delta
    collapse predicts 2 pi f(omega0)); ``width`` is the FWHM of |K| there.
    ``action_*`` / ``ref_*`` are the raw complex actions and their collapsed
    references for packets centered on each peak.  For a packet cut by the
    window edge the one-sided kernel adds a principal-value (dispersive)
    contribution that the boundary delta does not model; the half-weight
    statement then holds on the dissipative projection
    Re[e^{i omega0 t_peak} action] only, which is how callers should compare.
    """

    rel_err_retarded: float
    rel_err_advanced: float
    action_retarded: complex
    action_advanced: complex
    ref_retarded: complex
    ref_advanced: complex
    mass: complex
    mass_rel_err: float
    width: float
    weight_retarded: float
    weight_advanced: float
    cutoff: float
    sigma: float

    @property
    def max_rel_err(self) -> float:
        return max(self.rel_err_retarded, self.rel_err_advanced)


def markov_kernel_check(freq_fn, t_r: float, t_a: float, params: DipoleParams,
                        sign: int = 1, cutoff: float | None = None,
                        window: tuple[float, float] | None = None,
                        sigma: float | None = None, per_period: int = 40,
                        band: tuple[float, float] | None = None) -> MarkovKernelReport:
    """Check the delta collapse of Int f(w) e^{i w t'} (e^{-i w t_r} +/- e^{-i w t_a}) dw.

    The exact windowed action on resonant wavepackets
    g_c(t') = exp(-(t'-c)^2 / 2 sigma^2) e^{-i w0 t'} (one packet centered on
    each of c = t_r, t_a) is compared against
    2 pi f(w0) [w_r g_c(t_r) +/- w_a g_c(t_a)].  Off-resonant test functions
    would probe the positive-frequency cut instead of the resonance kernel,
    so the packet carrier is pinned at w0.

    The frequency integral runs over ``band`` (default (0, cutoff)); passing
    the bandwidth of a discretized mode comb shows directly whether that comb
    carries the full kernel mass.  When no band is forced, a cutoff-halving
    convergence guard raises if the mass has not converged.
    """
    w0 = params.omega0
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if sigma is None:
        sigma = 10.0 / w0
    if cutoff is None:
        cutoff = 10.0 * w0
    if cutoff <= 2.0 * w0:
        raise ValueError("cutoff must exceed 2 w0 to contain the packet band")
    if window is None:
        window = (min(t_r, t_a) - 12.0 * sigma, max(t_r, t_a) + 12.0 * sigma)
    a, b = float(window[0]), float(window[1])
    if b <= a:
        raise ValueError("empty window")
    tol = 1e-9 * max(1.0, abs(a), abs(b))
    w_r = _window_weight(t_r, (a, b), tol)
    w_a = _window_weight(t_a, (a, b), tol)

    w_lo, w_hi = (0.0, cutoff) if band is None else (float(band[0]), float(band[1]))
    if not 0.0 <= w_lo < w_hi:
        raise ValueError("band must satisfy 0 <= lo < hi")
    # worst-case oscillation rates: in t' the carrier-detuned phase, in omega
    # the distance from a window point to the farther kernel peak
    osc_t = max(w_hi - w0, w0 - w_lo)
    peak_lo, peak_hi = min(t_r, t_a), max(t_r, t_a)
    rel_scale = (b - a) + 12.0 * sigma + max(0.0, a - peak_lo) + max(0.0, peak_hi - b)

    n_t = n_for_oscillation(osc_t, a, b, per_period)
    tp = np.linspace(a, b, n_t + 1)
    wt = trapezoid_weights(a, b, n_t)

    def kernel_factor(ws):
        return np.asarray(freq_fn(ws), dtype=complex) * (
            np.exp(-1j * ws * t_r) + sign * np.exp(-1j * ws * t_a))

    def action(w_lo: float, w_hi: float, center: float) -> complex:
        n_w = n_for_oscillation(rel_scale, w_lo, w_hi, per_period)
        ws = np.linspace(w_lo, w_hi, n_w + 1)
        ww = trapezoid_weights(w_lo, w_hi, n_w)
        ghat = _chirp_z(wt * g_val(tp, center), a, (b - a) / n_t, w_lo, (w_hi - w_lo) / n_w, n_w + 1)
        return complex(np.sum(ww * kernel_factor(ws) * ghat))

    def g_val(tprime: float, center: float) -> complex:
        return np.exp(-((tprime - center) ** 2) / (2.0 * sigma**2)) * np.exp(-1j * w0 * tprime)

    f0 = complex(np.asarray(freq_fn(np.array([w0])))[0])
    delta_ref = 2.0 * np.pi * f0

    # packet-action errors at both peaks
    act_r = action(w_lo, w_hi, t_r)
    act_a = action(w_lo, w_hi, t_a)
    refs, errs = {}, {}
    for name, center, num in (("retarded", t_r, act_r), ("advanced", t_a, act_a)):
        ref = delta_ref * (w_r * g_val(t_r, center) + sign * w_a * g_val(t_a, center))
        refs[name] = ref
        errs[name] = abs(num - ref) / abs(delta_ref)

    # demodulated mass at the retarded peak; meaningful when the packet
    # carries full window weight and the peaks are well separated (an edge
    # packet is truncated, so its spectrum has slow tails and no clean mass)
    if w_r == 1.0 and abs(t_a - t_r) > 8.0 * sigma:
        denom = g_val(t_r, t_r)
        mass = act_r / denom
        mass_rel_err = abs(mass - delta_ref) / abs(delta_ref)
        if band is None:
            mass_half = action(w_lo, w_hi / 2.0, t_r) / denom
            if abs(mass - mass_half) > 0.02 * abs(delta_ref):
                raise RuntimeError("kernel mass not converged in cutoff; raise the cutoff")
    else:
        mass = complex("nan")
        mass_rel_err = float("nan")

    # FWHM of |K| around the retarded peak
    half_span = 10.0 * np.pi / (w_hi - w_lo)
    td = np.linspace(t_r - half_span, t_r + half_span, 801)
    n_w = n_for_oscillation(rel_scale + half_span, w_lo, w_hi, per_period)
    ws = np.linspace(w_lo, w_hi, n_w + 1)
    ww = trapezoid_weights(w_lo, w_hi, n_w)
    kf = ww * kernel_factor(ws)
    kvals = _chirp_z(kf, w_lo, (w_hi - w_lo) / n_w, td[0], 2.0 * half_span / (td.size - 1),
                     td.size)
    mag = np.abs(kvals)
    peak = int(np.argmax(mag))
    half = mag[peak] / 2.0
    above = mag >= half
    left = peak
    while left > 0 and above[left - 1]:
        left -= 1
    right = peak
    while right < td.size - 1 and above[right + 1]:
        right += 1
    width = float(td[right] - td[left])

    return MarkovKernelReport(
        rel_err_retarded=errs["retarded"], rel_err_advanced=errs["advanced"],
        action_retarded=act_r, action_advanced=act_a,
        ref_retarded=refs["retarded"], ref_advanced=refs["advanced"],
        mass=mass, mass_rel_err=float(mass_rel_err), width=width,
        weight_retarded=w_r, weight_advanced=w_a, cutoff=float(cutoff), sigma=float(sigma),
    )


def _transverse_quadrature(xhats: np.ndarray, z_values, order: int) -> np.ndarray:
    """(1/4 pi) Int dOmega_k (delta_ij - k_i k_j) e^{i z k.xhat}, shape (Z, D, 3, 3).

    One pass over the sphere rule's (M, 3) node array for every z and every
    row of ``xhats``.
    """
    from .radiometry import _sphere_nodes

    dirs, weights = _sphere_nodes(order)
    proj = np.eye(3) - dirs[:, :, None] * dirs[:, None, :]
    phase = weights * np.exp(1j * np.multiply.outer(np.asarray(z_values, dtype=float),
                                                    xhats @ dirs.T))
    return np.einsum("zdm,mij->zdij", phase, proj) / (4.0 * np.pi)


def angular_reduction_check(z_values=(5.0, 1e-3), n_dirs: int = 3, order: int = 24,
                            seed: int = 0) -> float:
    """Max abs error of the quadrature'd transverse angular integral vs tau_ij.

    For random unit directions xhat and each z, compares
    (1/4 pi) Int dOmega_k (delta_ij - k_i k_j) e^{i z k.xhat} against
    tau_kernel(z, xhat), component by component.
    """
    from .fieldcoeffs import tau_kernel

    xhats = np.random.default_rng(seed).normal(size=(n_dirs, 3))
    xhats /= np.linalg.norm(xhats, axis=1, keepdims=True)
    num = _transverse_quadrature(xhats, z_values, order)
    ref = np.array([[tau_kernel(z, xhat) for xhat in xhats] for z in z_values])
    return float(np.max(np.abs(num - ref.reshape(num.shape)), initial=0.0))
