"""Brute-force cross-checks that do not reuse the closed-form dynamics.

Three independent machines live here:

* A discretized single/double-excitation Schroedinger oracle.  The dipole is
  coupled to ``count`` modes on a uniform frequency comb of total width
  ``span`` centered on the transition, with flat couplings
  g_k = sqrt(gamma * dw / 2 pi) chosen so the comb's golden-rule rate
  reproduces gamma.  Each sector Hamiltonian H is time independent, so states
  are propagated exactly, exp(-i tau H) psi by a Chebyshev series on an
  interval that holds the spectrum of H (Tal-Ezer & Kosloff, J. Chem. Phys.
  81, 3967 (1984)), in the frame rotating at the transition frequency;
  excitation number is conserved, so the Hamiltonian is block sparse over
  the sectors

      N=1:  {excited, vacuum} + {ground, one photon in mode k}
      N=2:  {excited, one photon k} + {ground, photon pair (k <= l)}

  Populations need only N=1; two-time products that *raise* the dipole reach
  N=2 by applying the raising operator between two forward propagation
  segments -- no backward evolution is ever performed.  Photon pairs are kept
  only when both modes lie within ``n2_window`` of resonance (anti-normal
  correlators are resonance dominated), which bounds the N=2 memory.

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

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._quad import n_for_oscillation, trapezoid_weights
from .core import DipoleParams

__all__ = [
    "ModeGrid",
    "SectorState",
    "build_grid",
    "propagate",
    "oracle_sigma_z",
    "oracle_two_time",
    "markov_kernel_check",
    "MarkovKernelReport",
    "angular_reduction_check",
]

_TWO_PHOTON_DIM_BUDGET = 2_000_000
_UNITARITY_LIMIT = 1e-8


@dataclass(frozen=True)
class ModeGrid:
    """Uniform frequency comb and couplings for the discretized field.

    ``n2_window`` is the absolute half-width around omega0 within which modes
    may carry the second photon of a pair state.
    """

    omegas: np.ndarray
    couplings: np.ndarray
    omega0: float
    gamma: float
    n2_window: float = np.inf

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

    @property
    def pair_modes(self) -> np.ndarray:
        """Indices of modes eligible for two-photon pair states."""
        tol = 1.0 + 1e-12
        return np.flatnonzero(np.abs(self.detunings) <= self.n2_window * tol)


def build_grid(params: DipoleParams, count: int = 400, span_gammas: float = 50.0,
               density: str = "flat", enforce: bool = True,
               n2_window_gammas: float = 25.0) -> ModeGrid:
    """Build the mode comb: ``count`` modes spanning ``span_gammas * gamma``.

    The comb is symmetric about omega0 (mode k sits at
    omega0 + (k - (count-1)/2) * dw, dw = span/count), which makes the
    discretized level shift vanish by symmetry for the flat density.  With
    ``density="cubic"`` the couplings instead carry the free-space
    (omega/omega0)^3 weight; that option exists to probe departures from the
    flat-density idealization and is not used by any closed-form comparison.

    ``enforce=True`` (default) requires count >= 200 and span >= 50 gamma,
    the resolution needed for percent-level agreement over a few lifetimes;
    diagnostics that deliberately under-resolve pass ``enforce=False``.
    The comb must stay at positive frequencies: omega0 > span/2.  The
    one-excitation sector (count + 1 states) must fit the sector budget
    ``_TWO_PHOTON_DIM_BUDGET``; a larger count raises before any allocation.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    if count + 1 > _TWO_PHOTON_DIM_BUDGET:
        raise ValueError(f"count = {count:,} exceeds the sector budget: need count + 1 <= "
                         f"{_TWO_PHOTON_DIM_BUDGET:,}")
    if enforce:
        if count < 200:
            raise ValueError(f"count = {count} under-resolves the comb; need >= 200 (or enforce=False)")
        if span_gammas < 50.0:
            raise ValueError(f"span = {span_gammas} gamma is too narrow; need >= 50 (or enforce=False)")
    if n2_window_gammas <= 0.0:
        raise ValueError("n2_window_gammas must be positive")
    span = span_gammas * params.gamma
    if params.omega0 <= span / 2.0:
        raise ValueError("comb would cross zero frequency: need omega0 > span/2")
    dw = span / count
    omegas = params.omega0 + (np.arange(count) - (count - 1) / 2.0) * dw
    g_flat = np.sqrt(params.gamma * dw / (2.0 * np.pi))
    if density == "flat":
        couplings = np.full(count, g_flat)
    elif density == "cubic":
        couplings = g_flat * np.sqrt((omegas / params.omega0) ** 3)
    else:
        raise ValueError(f"density must be 'flat' or 'cubic', got {density!r}")
    return ModeGrid(omegas=omegas, couplings=couplings, omega0=params.omega0,
                    gamma=params.gamma, n2_window=n2_window_gammas * params.gamma)


@dataclass
class SectorState:
    """Amplitudes in the rotating frame at time ``t``.

    The one-excitation sector uses (amp_e0, amp_g1); the two-excitation sector
    (amp_e1, amp_g2) stores photon pairs of the grid's ``pair_modes`` in
    upper-triangular order k <= l as produced by ``numpy.triu_indices``.
    Unused sectors are None.
    """

    t: float
    amp_e0: complex | None = None
    amp_g1: np.ndarray | None = None
    amp_e1: np.ndarray | None = None
    amp_g2: np.ndarray | None = None

    @classmethod
    def excited(cls, grid: ModeGrid) -> "SectorState":
        """|excited, vacuum> at t = 0."""
        return cls(t=0.0, amp_e0=1.0 + 0.0j, amp_g1=np.zeros(grid.count, dtype=complex))

    def raised(self, grid: ModeGrid) -> "SectorState":
        """Apply the dipole raising operator (maps N=1 into N=2; kills amp_e0)."""
        if self.amp_g1 is None:
            raise ValueError("raising needs a one-excitation state")
        n_win = grid.pair_modes.size
        n_pairs = n_win * (n_win + 1) // 2
        return SectorState(
            t=self.t,
            amp_e1=self.amp_g1.astype(complex).copy(),
            amp_g2=np.zeros(n_pairs, dtype=complex),
        )

    @property
    def norm(self) -> float:
        total = 0.0
        if self.amp_e0 is not None:
            total += abs(self.amp_e0) ** 2
        for arr in (self.amp_g1, self.amp_e1, self.amp_g2):
            if arr is not None:
                total += float(np.vdot(arr, arr).real)
        return float(np.sqrt(total))


def _h_one(grid: ModeGrid) -> sp.csr_matrix:
    n = grid.count
    diag = np.concatenate(([0.0], grid.detunings))
    rows = np.concatenate((np.zeros(n, dtype=int), np.arange(1, n + 1)))
    cols = np.concatenate((np.arange(1, n + 1), np.zeros(n, dtype=int)))
    data = np.concatenate((grid.couplings, grid.couplings))
    h = sp.coo_matrix((data, (rows, cols)), shape=(n + 1, n + 1))
    return (h + sp.diags(diag)).tocsr()


def _h_two(grid: ModeGrid) -> sp.csr_matrix:
    n = grid.count
    win = grid.pair_modes
    nw = win.size
    n_pairs = nw * (nw + 1) // 2
    dim = n + n_pairs
    if dim > _TWO_PHOTON_DIM_BUDGET:
        max_nw = int((2 * _TWO_PHOTON_DIM_BUDGET) ** 0.5)
        raise ValueError(
            f"two-excitation dimension {dim} exceeds the budget {_TWO_PHOTON_DIM_BUDGET}; "
            f"reduce count (or n2_window) so that at most ~{max_nw} modes carry pairs"
        )
    a, b = np.triu_indices(nw)
    mi, mj = win[a], win[b]                 # global mode indices of each pair
    pair_col = n + np.arange(n_pairs)
    diag = np.concatenate((grid.detunings, grid.detunings[mi] + grid.detunings[mj]))
    # <e, 1_i | V | g, {k,l}>: g_l on i=k, g_k on i=l, sqrt(2) g_k on k=l.
    off = mi != mj
    w_first = grid.couplings[mj] * np.where(off, 1.0, np.sqrt(2.0))
    rows = np.concatenate((mi, mj[off]))
    cols = np.concatenate((pair_col, pair_col[off]))
    data = np.concatenate((w_first, grid.couplings[mi[off]]))
    upper = sp.coo_matrix((data, (rows, cols)), shape=(dim, dim))
    return (upper + upper.T + sp.diags(diag)).tocsr()


def _pack(state: SectorState):
    parts, layout = [], []
    if state.amp_e0 is not None:
        parts.append(np.array([state.amp_e0], dtype=complex))
        layout.append(("amp_e0", 1))
    for name in ("amp_g1", "amp_e1", "amp_g2"):
        arr = getattr(state, name)
        if arr is not None:
            parts.append(np.asarray(arr, dtype=complex))
            layout.append((name, len(arr)))
    if not parts:
        raise ValueError("empty state")
    return np.concatenate(parts), layout


def _unpack(vec: np.ndarray, layout, t: float) -> SectorState:
    state = SectorState(t=t)
    pos = 0
    for name, size in layout:
        chunk = vec[pos:pos + size]
        pos += size
        if name == "amp_e0":
            state.amp_e0 = complex(chunk[0])
        else:
            setattr(state, name, chunk.copy())
    return state


def _check_grid(grid: ModeGrid, params: DipoleParams):
    if grid.omega0 != params.omega0 or grid.gamma != params.gamma:
        raise ValueError("grid was built for different dipole parameters")


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


def _spectral_interval(h: sp.csr_matrix) -> tuple[float, float]:
    """[lo, hi] holding the spectrum of a real symmetric sparse H.

    The Gershgorin discs intersected with Weyl's bound: writing H = D + E
    with D the diagonal, E moves no eigenvalue by more than |E|_2 <= |E|_F,
    so the spectrum lies in [min D - |E|_F, max D + |E|_F].  For the N=1 star
    Hamiltonian that is about half as wide as the Gershgorin disc of row 0.
    """
    diag = h.diagonal()
    off = abs(h - sp.diags(diag))
    radius = np.asarray(off.sum(axis=1)).ravel()
    weyl = float(np.linalg.norm(off.data))
    return (max(float(np.min(diag - radius)), float(np.min(diag)) - weyl),
            min(float(np.max(diag + radius)), float(np.max(diag)) + weyl))


def _chebyshev_expm(h: sp.csr_matrix, tau: float, vec: np.ndarray) -> np.ndarray:
    """exp(-i tau H) vec for a sparse real symmetric H, to double precision.

    The spectrum of H lies in its spectral interval [c - r, c + r].  On the
    rescaled X = (H - c) / r the Chebyshev series
    e^{-i tau r X} = sum_k (2 - delta_k0) (-i)^k J_k(tau r) T_k(X)
    converges super-exponentially once k > tau r (Tal-Ezer & Kosloff,
    J. Chem. Phys. 81, 3967 (1984)); the three-term recurrence of T_k costs
    one sparse product per term.  A diagonal H is applied exactly.
    """
    diag = h.diagonal()
    if h.count_nonzero() == np.count_nonzero(diag):
        return np.exp(-1j * tau * diag) * vec
    lo, hi = _spectral_interval(h)
    center, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    coeffs = _chebyshev_coeffs(tau * half)
    # 2 X as one complex matrix, so T_{k+1} = 2 X T_k - T_{k-1} is one product
    two_x = ((h - center * sp.identity(diag.size)) * (2.0 / half)).astype(complex).tocsr()
    prev, cur = vec, 0.5 * (two_x @ vec)
    out = coeffs[0] * prev + coeffs[1] * cur
    for c in coeffs[2:]:
        prev, cur = cur, two_x @ cur - prev
        out += c * cur
    return np.exp(-1j * tau * center) * out


def propagate(state: SectorState, grid: ModeGrid, params: DipoleParams,
              t_end: float) -> SectorState:
    """Propagate a sector state forward to ``t_end`` in the rotating frame.

    The sector Hamiltonian H is time independent, so the result is the exact
    action exp(-i (t_end - t) H) psi, computed to double precision by a
    Chebyshev series on ``_spectral_interval(H)``.  A norm change beyond
    1e-8 means that action was not unitary and raises.  Backward propagation
    is not supported.
    """
    _check_grid(grid, params)
    if t_end < state.t:
        raise ValueError("oracle only propagates forward in time")
    one = state.amp_e0 is not None or state.amp_g1 is not None
    two = state.amp_e1 is not None or state.amp_g2 is not None
    if one and two:
        raise ValueError("state mixes excitation sectors")
    h = _h_one(grid) if one else _h_two(grid)
    vec, layout = _pack(state)
    if h.shape[0] != vec.size:
        raise ValueError("state size does not match the grid")
    if t_end == state.t:
        return _unpack(vec, layout, state.t)
    norm0 = float(np.linalg.norm(vec))
    vec = _chebyshev_expm(h, t_end - state.t, vec)
    residual = abs(float(np.linalg.norm(vec)) - norm0)
    if residual > _UNITARITY_LIMIT * max(norm0, 1e-300):
        raise RuntimeError(f"unitarity residual {residual:.3e} exceeds {_UNITARITY_LIMIT}")
    return _unpack(vec, layout, t_end)


def oracle_sigma_z(times, grid: ModeGrid, params: DipoleParams):
    """<sigma_z(t)> on an ascending time grid by direct N=1 propagation."""
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(ts < 0.0) or np.any(np.diff(ts) < 0.0):
        raise ValueError("times must be ascending and >= 0")
    state = SectorState.excited(grid)
    out = np.empty(ts.size)
    for k, t in enumerate(ts):
        state = propagate(state, grid, params, t)
        out[k] = 2.0 * abs(state.amp_e0) ** 2 - 1.0
    return out if np.ndim(times) else float(out[0])


def oracle_two_time(kind, u: float, v: float, grid: ModeGrid,
                    params: DipoleParams) -> complex:
    """Two-time dipole correlator from forward-only propagation.

    ``kind`` is an :class:`advwave.atomdyn.AtomCorrKind` (or its value string).
    PLUS_MINUS works for any ordering within the N<=1 sector; MINUS_PLUS and
    COMMUTATOR require u <= v and climb into the two-excitation sector:

        <s-(u) s+(v)> = e^{i w0 (v-u)} <U(v-u) s+ psi(u), s+ psi(v)>

    with every factor evaluated in the rotating frame.
    """
    from .atomdyn import AtomCorrKind

    kind = AtomCorrKind(kind)
    if u < 0.0 or v < 0.0:
        raise ValueError("times must be >= 0")
    w0 = grid.omega0

    if kind is AtomCorrKind.PLUS_MINUS:
        first, second = (u, v) if u <= v else (v, u)
        state = propagate(SectorState.excited(grid), grid, params, first)
        amp_first = state.amp_e0
        state = propagate(state, grid, params, second)
        amp_second = state.amp_e0
        amp_u, amp_v = (amp_first, amp_second) if u <= v else (amp_second, amp_first)
        return complex(np.exp(1j * w0 * (u - v)) * np.conj(amp_u) * amp_v)

    if u > v:
        raise ValueError(f"{kind.value} requires u <= v")

    state_u = propagate(SectorState.excited(grid), grid, params, u)
    left = propagate(state_u.raised(grid), grid, params, v)
    state_v = propagate(state_u, grid, params, v)
    right = state_v.raised(grid)
    minus_plus = complex(np.exp(1j * w0 * (v - u)) * np.vdot(left.amp_e1, right.amp_e1))
    if kind is AtomCorrKind.MINUS_PLUS:
        return minus_plus
    # COMMUTATOR: subtract <s+(v) s-(u)>
    plus_minus_rev = complex(np.exp(1j * w0 * (v - u)) * np.conj(state_v.amp_e0) * state_u.amp_e0)
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
