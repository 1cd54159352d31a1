"""Momentum and position dispersion of a test charge near a decaying dipole.

A charge q (mass m, fixed at r0 to leading order) acquires momentum dispersion
from the dipole's field correlations.  The closed-form rates below are the
time-ordered double-integral kernels contracted in the radiation zone; the
split mirrors the correlation split: a source (normal-ordered) part and a
vacuum-source (advanced-wave) part that switches on only at t = 2 |r0|, when
a vacuum fluctuation reflected off the dipole can revisit the charge.

All rates carry the physical prefactor 1/N with

    N = ((gamma/2)^2 + omega0^2) / (q^2 |E_rad(r0)|^2),

so the dimensionless curves N * rate are charge-independent; `DiffusionCurve`
and `CycleAverage` store those scaled curves.  They do not depend on E_rad
either, so they exist for a charge on the dipole axis (E_rad = 0), where N
is infinite.

Every kernel is a gated sum of complex exponentials in a = i omega0 - gamma/2,
so the cumulative curves and the position dispersion are evaluated in closed
form (through the moments Int_0^b s^k e^{c s} ds, k <= 2).  They are exact on
any time grid and at any omega0/gamma; no step size has to resolve the
optical period.  `cycle_averaged` gives what a coarse grid can show at an
optical ratio: each cumulative curve averaged over one optical period, and
its exact lower and upper envelopes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DipoleParams, FieldKind, _vec3
from .fieldcoeffs import field_coeff

__all__ = [
    "ChargeParams",
    "DiffusionCurve",
    "CycleAverage",
    "norm_constant",
    "momdiff_source",
    "momdiff_vacsource",
    "dispersion_change",
    "cycle_averaged",
    "longtime_fit",
    "posdisp_change",
]

_SERIES_CUT = 1.0   # |c b| below which the moments use their power series
_SERIES_TERMS = 20  # 1/20! < 1e-18: the truncated series is exact to rounding
_SERIES_WEIGHTS = 1.0 / (np.arange(_SERIES_TERMS)[:, None] + np.arange(1, 4))  # 1/(n + k + 1)


@dataclass(frozen=True)
class ChargeParams:
    """Test charge: charge q, mass m, fixed position r0 (away from the dipole)."""

    q: float
    m: float
    r0: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.q):
            raise ValueError("q must be finite")
        if not (self.m > 0.0 and np.isfinite(self.m)):
            raise ValueError("m must be positive")
        object.__setattr__(self, "r0", _vec3(self.r0, "r0"))
        if self.r0_abs == 0.0:
            raise ValueError("charge must sit away from the dipole position")

    @property
    def r0_abs(self) -> float:
        return float(np.linalg.norm(self.r0))


@dataclass(frozen=True)
class DiffusionCurve:
    """N-scaled cumulative momentum-diffusion curves on a time grid (charge-independent).

    The rates they integrate are ``momdiff_source`` and ``momdiff_vacsource``.
    """

    times: np.ndarray
    cum_source: np.ndarray
    cum_vacsource: np.ndarray
    cum_total: np.ndarray
    norm_constant: float
    gamma: float


@dataclass(frozen=True)
class CycleAverage:
    """N-scaled cumulative curves seen through one optical period P = 2 pi/omega0.

    For each of source, vacsource and total, ``avg_*`` is the curve averaged
    over [t - P/2, t + P/2], and ``lo_*``/``hi_*`` are the lower and upper
    envelopes of the raw curve at t.
    """

    times: np.ndarray
    period: float
    avg_source: np.ndarray
    lo_source: np.ndarray
    hi_source: np.ndarray
    avg_vacsource: np.ndarray
    lo_vacsource: np.ndarray
    hi_vacsource: np.ndarray
    avg_total: np.ndarray
    lo_total: np.ndarray
    hi_total: np.ndarray
    norm_constant: float
    gamma: float


def _e_rad_abs2(params: DipoleParams, charge: ChargeParams) -> float:
    e_rad = field_coeff(FieldKind.ELECTRIC, charge.r0, params, "rad")
    return float(np.real(e_rad @ np.conj(e_rad)))


def _inv_norm(params: DipoleParams, charge: ChargeParams) -> float:
    # 1/N; safe for q = 0 (gives identically zero rates).
    return charge.q**2 * _e_rad_abs2(params, charge) / ((params.gamma / 2.0) ** 2 + params.omega0**2)


def norm_constant(params: DipoleParams, charge: ChargeParams) -> float:
    """N = ((gamma/2)^2 + omega0^2) / (q^2 |E_rad(r0)|^2).

    Raises ValueError where N is infinite: for q = 0, and for a charge on the
    dipole axis, where E_rad(r0) = 0.
    """
    if charge.q == 0.0:
        raise ValueError("norm constant is undefined for an uncharged particle")
    if _e_rad_abs2(params, charge) == 0.0:
        raise ValueError("norm constant is undefined where E_rad(r0) = 0 "
                         "(a charge on the dipole axis)")
    return 1.0 / _inv_norm(params, charge)


def _curve_norm(params: DipoleParams, charge: ChargeParams) -> float:
    # N for the curve records: inf where the rates vanish (q = 0 or E_rad(r0) = 0)
    inv = _inv_norm(params, charge)
    return 1.0 / inv if inv != 0.0 else float("inf")


def momdiff_source(t, params: DipoleParams, charge: ChargeParams):
    """Source-part momentum-diffusion rate d(Dp_s)/dt at lab time t.

    (2/N) theta(t_r) [exp(-g t_r / 2)(g cos(w0 t_r) + 2 w0 sin(w0 t_r))
                      - g exp(-g t_r)],   t_r = t - |r0|.
    """
    g, w0 = params.gamma, params.omega0
    tr = np.asarray(t, dtype=float) - charge.r0_abs
    gate = tr >= 0.0
    trc = np.where(gate, tr, 0.0)
    bracket = np.exp(-g * trc / 2.0) * (g * np.cos(w0 * trc) + 2.0 * w0 * np.sin(w0 * trc)) - g * np.exp(-g * trc)
    out = _inv_norm(params, charge) * (2.0 * np.where(gate, bracket, 0.0))
    return out.item() if np.isscalar(t) else out


def momdiff_vacsource(t, params: DipoleParams, charge: ChargeParams):
    """Vacuum-source momentum-diffusion rate d(Dp_vs)/dt at lab time t.

    Gated by theta(t - 2 |r0|) -- the round-trip condition -- and continuous
    at onset:

    (1/N) [g (2 exp(-g t_r) + 1)
           - exp(-g t / 2)(g (exp(g r0) + 2) cos(w0 (t - 2 r0))
                           - 2 w0 (exp(g r0) - 2) sin(w0 (t - 2 r0)))].
    """
    g, w0, r0 = params.gamma, params.omega0, charge.r0_abs
    tt = np.asarray(t, dtype=float)
    gate = tt - r0 >= r0
    ttc = np.where(gate, tt, 2.0 * r0)
    trc = ttc - r0
    phase = w0 * (ttc - 2.0 * r0)
    bracket = g * (2.0 * np.exp(-g * trc) + 1.0) - np.exp(-g * ttc / 2.0) * (
        g * (np.exp(g * r0) + 2.0) * np.cos(phase) - 2.0 * w0 * (np.exp(g * r0) - 2.0) * np.sin(phase)
    )
    out = _inv_norm(params, charge) * np.where(gate, bracket, 0.0)
    return out.item() if np.isscalar(t) else out


def _vacsource_terms(params: DipoleParams, r0: float):
    """(e^{-gamma |r0|}, e^{-gamma |r0|} (A + i B)): the constants of cum_vacsource."""
    g, w0 = params.gamma, params.omega0
    damp = np.exp(-g * r0)
    return damp, complex(g * (1.0 + 2.0 * damp), 2.0 * w0 * (1.0 - 2.0 * damp))


def _moments(c: complex, b, shift=0.0, order: int = 2):
    """[M0, ..., M_order] with Mk = Int_0^b s^k exp(c s - shift) ds, for an array b >= 0.

    With z = c b and Ek = Int_0^1 x^k e^{z x} dx, Mk = b^(k+1) e^{-shift} Ek.
    For |z| >= 1 the recurrence E0 = (e^z - 1)/z, Ek = (e^z - k E(k-1))/z is
    used, below it the series Ek = sum_n z^n / (n! (n + k + 1)), which has no
    cancellation at small |z|.  The shift is merged into every exponential, so
    e^{c b} never forms on its own and cannot overflow at large real c b.
    """
    b = np.asarray(b, dtype=float)
    z = np.atleast_1d(c * b + 0j)
    small = np.abs(z) < _SERIES_CUT
    zr = np.where(small, 1.0, z)  # keeps the recurrence branch away from z = 0
    top, low = np.exp(zr - shift), np.exp(-shift)
    e = [(top - low) / zr]
    for k in range(1, order + 1):
        e.append((top - k * e[-1]) / zr)
    if np.any(small):
        ratios = np.ones((np.count_nonzero(small), _SERIES_TERMS), dtype=complex)
        ratios[:, 1:] = z[small, None] / np.arange(1, _SERIES_TERMS)
        series = low * np.cumprod(ratios, axis=1) @ _SERIES_WEIGHTS[:, :order + 1]
        for k, ek in enumerate(e):
            ek[small] = series[:, k]
    return [b ** (k + 1) * ek.reshape(b.shape) for k, ek in enumerate(e)]


def dispersion_change(t_grid, params: DipoleParams, charge: ChargeParams) -> DiffusionCurve:
    """N-scaled momentum changes, the rates' time integrals from t = 0, on a user grid.

    The grid must be 1-d, strictly increasing and start at 0; any step works,
    because the cumulative curves are closed forms.  With a = i omega0 - gamma/2,
    T = t - |r0| and b = t - 2 |r0|:

        cum_source    = 2 |e^{a T} - 1|^2                          (T >= 0)
        cum_vacsource = gamma b + 2 (e^{-gamma |r0|} - e^{-gamma T})
                        - Re[e^{-gamma |r0|} (A + i B) (e^{a b} - 1) / a]   (b >= 0)

    with A = gamma (e^{gamma |r0|} + 2), B = 2 omega0 (e^{gamma |r0|} - 2);
    both are exactly 0 before their gates open.  ``norm_constant`` is inf
    where N is (q = 0, or a charge on the dipole axis); the N-scaled curves
    are the same there.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("t_grid must be a 1-d grid with at least two points")
    if t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
        raise ValueError("t_grid must be strictly increasing and start at 0")
    g, w0, r0 = params.gamma, params.omega0, charge.r0_abs
    a = complex(-g / 2.0, w0)
    tr, b = t - r0, t - 2.0 * r0
    half = np.maximum(tr, 0.0) / 2.0
    # |e^{aT} - 1|^2 as a sum of two squares, which has no cancellation at small T
    cs = 2.0 * (np.expm1(-g * half) ** 2 + 4.0 * np.exp(-g * half) * np.sin(w0 * half) ** 2)
    bc = np.maximum(b, 0.0)
    damp, amp = _vacsource_terms(params, r0)
    cv = g * bc - 2.0 * damp * np.expm1(-g * bc) - np.real(amp * _moments(a, bc, order=0)[0])
    cv = np.where(b >= 0.0, cv, 0.0)
    return DiffusionCurve(
        times=t.copy(), cum_source=cs, cum_vacsource=cv, cum_total=cs + cv,
        norm_constant=_curve_norm(params, charge), gamma=params.gamma,
    )


def _gated_window(t, half, gate):
    """Start x1 - gate (>= 0) and length L of the part of [t - half, t + half] after ``gate``.

    L is 2 half exactly for a window wholly after the gate, and 0 exactly
    wherever t + half <= gate.
    """
    x1, x2 = t - half, t + half
    clipped = x1 < gate
    return (np.where(clipped, 0.0, x1 - gate),
            np.where(clipped, np.maximum(x2 - gate, 0.0), 2.0 * half))


def cycle_averaged(t_grid, params: DipoleParams, charge: ChargeParams) -> CycleAverage:
    """Cycle averages and exact envelopes of the `dispersion_change` curves.

    ``t_grid`` is any 1-d array of finite times; each point is independent.
    With P = 2 pi/omega0, T = t - |r0| and b = t - 2 |r0|, the raw curves are

        cum_source    = 2 + 2 e^{-gamma T} - 4 Re e^{a T}                   (T >= 0)
        cum_vacsource = gamma b - 2 damp expm1(-gamma b) + Re[osc] - Re[osc e^{a b}]  (b >= 0)

    with damp = e^{-gamma |r0|} and osc = damp (A + i B) / a.  Each average
    over [t - P/2, t + P/2] integrates only the part of the window after the
    gate, from x1 to x1 + L: polynomials, e^{-gamma x1} expm1 terms, and
    e^{a x1} M0(a, L) from `_moments`.  An unclipped window has L = P
    exactly, so nothing cancels even where P << 1/gamma.

    Both oscillating terms are multiples of e^{a T}, so each envelope is the
    smooth part +- |complex amplitude| e^{-gamma T/2}:

        source    2 (1 -+ e^{-gamma T/2})^2
        vacsource gamma b - 2 damp expm1(-gamma b) + Re[osc] -+ |osc| e^{-gamma b/2}
        total     their smooth parts -+ |4 e^{a |r0|} + osc| e^{-gamma b/2} for b >= 0,
                  the source envelopes for b < 0.

    Every curve is exactly 0 before its gate (the averages: while the whole
    window is).  ``norm_constant`` is inf for q = 0 or a charge on the dipole
    axis, as in `dispersion_change`.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or not np.all(np.isfinite(t)):
        raise ValueError("t_grid must be a 1-d array of finite times")
    g, w0, r0 = params.gamma, params.omega0, charge.r0_abs
    a = complex(-g / 2.0, w0)
    period = 2.0 * np.pi / w0
    damp, amp = _vacsource_terms(params, r0)
    osc = amp / a

    def exp_integral(c, x1, length):  # Int_{x1}^{x1 + length} e^{c x} dx
        return np.exp(c * x1) * _moments(c, length, order=0)[0]

    def decay_integral(x1, length):  # Int_{x1}^{x1 + length} e^{-gamma x} dx, by expm1
        return -np.exp(-g * x1) * np.expm1(-g * length) / g

    u1, ls = _gated_window(t, period / 2.0, r0)
    avg_s = (2.0 * ls + 2.0 * decay_integral(u1, ls)
             - 4.0 * np.real(exp_integral(a, u1, ls))) / period
    v1, lv = _gated_window(t, period / 2.0, 2.0 * r0)
    avg_v = (lv * (g * (v1 + lv / 2.0) + 2.0 * damp + osc.real) - 2.0 * damp * decay_integral(v1, lv)
             - np.real(osc * exp_integral(a, v1, lv))) / period
    avg_s, avg_v = np.where(ls > 0.0, avg_s, 0.0), np.where(lv > 0.0, avg_v, 0.0)

    on_s, on_v = t - r0 >= 0.0, t - 2.0 * r0 >= 0.0
    tr, b = np.maximum(t - r0, 0.0), np.maximum(t - 2.0 * r0, 0.0)  # T and b, clipped at 0
    es, ev = np.exp(-g * tr / 2.0), np.exp(-g * b / 2.0)
    lo_s = np.where(on_s, 2.0 * np.expm1(-g * tr / 2.0) ** 2, 0.0)
    hi_s = np.where(on_s, 2.0 * (1.0 + es) ** 2, 0.0)
    smooth_v = g * b - 2.0 * damp * np.expm1(-g * b) + osc.real
    smooth_t = smooth_v + 2.0 + 2.0 * es**2
    amp_t = abs(4.0 * np.exp(a * r0) + osc)

    def envelope(smooth, modulus, before):
        return np.where(on_v, smooth + modulus * ev, before)

    return CycleAverage(
        times=t.copy(), period=period,
        avg_source=avg_s, lo_source=lo_s, hi_source=hi_s,
        avg_vacsource=avg_v, lo_vacsource=envelope(smooth_v, -abs(osc), 0.0),
        hi_vacsource=envelope(smooth_v, abs(osc), 0.0),
        avg_total=avg_s + avg_v, lo_total=envelope(smooth_t, -amp_t, lo_s),
        hi_total=envelope(smooth_t, amp_t, hi_s),
        norm_constant=_curve_norm(params, charge), gamma=params.gamma,
    )


def longtime_fit(curve: DiffusionCurve | CycleAverage, window: tuple[float, float],
                 which: str = "total"):
    """Least-squares line through an N-scaled cumulative curve on ``window``.

    Fits ``cum_<which>`` of a `DiffusionCurve`, or ``avg_<which>`` of a
    `CycleAverage`.  The late-time total curve approaches slope gamma.  The
    window must start at t >= 5/gamma (transients have died out) and span at
    least 2/gamma.  Returns (slope, intercept).
    """
    t_lo, t_hi = float(window[0]), float(window[1])
    g = curve.gamma
    if t_lo < 5.0 / g:
        raise ValueError(f"fit window must start at t >= 5/gamma = {5.0 / g:.3e}")
    if t_hi - t_lo < 2.0 / g:
        raise ValueError(f"fit window must span at least 2/gamma = {2.0 / g:.3e}")
    sel = (curve.times >= t_lo) & (curve.times <= t_hi)
    if np.count_nonzero(sel) < 10:
        raise ValueError("fit window contains fewer than 10 grid points")
    if which not in ("total", "source", "vacsource"):
        raise ValueError(f"which must be 'total', 'source' or 'vacsource', got {which!r}")
    y = getattr(curve, ("avg_" if isinstance(curve, CycleAverage) else "cum_") + which)
    slope, intercept = np.polyfit(curve.times[sel], y[sel], 1)
    return float(slope), float(intercept)


def posdisp_change(t: float, params: DipoleParams, charge: ChargeParams,
                   delta_p0: float = 0.0) -> float:
    """Position-dispersion change Dr(t) - Dr(0) of the test charge.

    free spreading (t^2 / 2 m^2) Dp0 plus the field-driven part

        (q^2 / m^2) * 2 Re Int_0^t Int_0^t (t - t3)(t - t4) C_EE_trace dt3 dt4

    (the nested four-fold time-ordered integral reduced exactly with the
    (t - s) weight trick), radiation-zone kernel C = G + <Delta> at the charge
    position.  The integral is done in closed form; with e = E_rad(r0),
    a = i omega0 - gamma/2, T = t - |r0| and b = t - 2 |r0| it equals

        (q^2 / m^2) (4 |e|^2 |I|^2 + 4 Re[(e . e) D]),
        I = Int_0^T (T - s) e^{a s} ds = (e^{a T} - 1 - a T) / a^2        (T >= 0),
        D = a^-2 Int_0^b (s + 2|r0|) [e^{a s} - 1 - a s - 2 e^{-gamma T} e^{-conj(a) s}
                                     + 2 e^{-gamma (T - s)} (1 + a s)] ds   (b >= 0),

    from the Glauber square t3, t4 >= |r0| and the two advanced-wave
    triangles |t3 - t4| >= 2 |r0| (complex conjugates of each other).
    """
    if not 0.0 <= t < np.inf:
        raise ValueError("t must be finite and >= 0")
    free = t**2 / (2.0 * charge.m**2) * delta_p0
    tr = t - charge.r0_abs
    if tr <= 0.0 or charge.q == 0.0:
        return free
    g, r0 = params.gamma, charge.r0_abs
    a = complex(-g / 2.0, params.omega0)
    e = field_coeff(FieldKind.ELECTRIC, charge.r0, params, "rad")
    m0, m1 = _moments(a, tr, order=1)
    field = 4.0 * float(np.real(e @ np.conj(e))) * float(abs(tr * m0 - m1)) ** 2  # I = T M0 - M1
    b = t - 2.0 * r0
    if b > 0.0:
        def weighted(m, k=0):  # Int_0^b (s + 2|r0|) s^k e^{c s - shift} ds
            return m[k + 1] + 2.0 * r0 * m[k]

        m_a, m_g = _moments(a, b, order=1), _moments(g, b, g * tr)
        bracket = (weighted(m_a) - b**2 / 2.0 - 2.0 * r0 * b - a * (b**3 / 3.0 + r0 * b**2)
                   - 2.0 * weighted(_moments(-a.conjugate(), b, g * tr, order=1))
                   + 2.0 * (weighted(m_g) + a * weighted(m_g, 1)))
        field += 4.0 * float(np.real(complex(e @ e) * bracket / a**2))
    return free + charge.q**2 / charge.m**2 * field
