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
stores those scaled curves.

Every kernel is a gated sum of complex exponentials in a = i omega0 - gamma/2,
so the cumulative curves and the position dispersion are evaluated in closed
form (through the moments Int_0^b s^k e^{c s} ds, k <= 2).  They are exact on
any time grid and at any omega0/gamma; no step size has to resolve the
optical period.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DipoleParams, _vec3
from .fieldcoeffs import coeffs_two_level

__all__ = [
    "ChargeParams",
    "DiffusionCurve",
    "norm_constant",
    "momdiff_source",
    "momdiff_vacsource",
    "dispersion_change",
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
    """N-scaled momentum-diffusion curves on a time grid (charge-independent)."""

    times: np.ndarray
    d_source: np.ndarray
    d_vacsource: np.ndarray
    cum_source: np.ndarray
    cum_vacsource: np.ndarray
    cum_total: np.ndarray
    norm_constant: float
    gamma: float


def _e_rad_abs2(params: DipoleParams, charge: ChargeParams) -> float:
    e_rad = coeffs_two_level(charge.r0, params).e_rad
    return float(np.real(e_rad @ np.conj(e_rad)))


def _inv_norm(params: DipoleParams, charge: ChargeParams) -> float:
    # 1/N; safe for q = 0 (gives identically zero rates).
    return charge.q**2 * _e_rad_abs2(params, charge) / ((params.gamma / 2.0) ** 2 + params.omega0**2)


def norm_constant(params: DipoleParams, charge: ChargeParams) -> float:
    """N = ((gamma/2)^2 + omega0^2) / (q^2 |E_rad(r0)|^2)."""
    if charge.q == 0.0:
        raise ValueError("norm constant is undefined for an uncharged particle")
    return 1.0 / _inv_norm(params, charge)


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
    out = 2.0 * _inv_norm(params, charge) * np.where(gate, bracket, 0.0)
    return out.item() if np.isscalar(t) else out


def momdiff_vacsource(t, params: DipoleParams, charge: ChargeParams):
    """Vacuum-source momentum-diffusion rate d(Dp_vs)/dt at lab time t.

    Gated by theta(t - 2 |r0|) -- the round-trip condition -- and continuous
    at onset:

    (1/N) [g (2 exp(-g t_r) + 1)
           - exp(-g t / 2)(g (exp(g r0) + 2) cos(w0 (t - 2 r0))
                           - 2 w0 (exp(g r0) - 2) sin(w0 (t - 2 r0)))].
    """
    g, w0 = params.gamma, params.omega0
    r0 = charge.r0_abs
    tt = np.asarray(t, dtype=float)
    tr = tt - r0
    gate = tr >= r0
    ttc = np.where(gate, tt, 2.0 * r0)
    trc = ttc - r0
    phase = w0 * (ttc - 2.0 * r0)
    bracket = g * (2.0 * np.exp(-g * trc) + 1.0) - np.exp(-g * ttc / 2.0) * (
        g * (np.exp(g * r0) + 2.0) * np.cos(phase) - 2.0 * w0 * (np.exp(g * r0) - 2.0) * np.sin(phase)
    )
    out = _inv_norm(params, charge) * np.where(gate, bracket, 0.0)
    return out.item() if np.isscalar(t) else out


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
    """N-scaled rates and their time integrals from t = 0 on a user grid.

    The grid must be 1-d, strictly increasing and start at 0; any step works,
    because the cumulative curves are closed forms.  With a = i omega0 - gamma/2,
    T = t - |r0| and b = t - 2 |r0|:

        cum_source    = 2 |e^{a T} - 1|^2                          (T >= 0)
        cum_vacsource = gamma b + 2 (e^{-gamma |r0|} - e^{-gamma T})
                        - Re[e^{-gamma |r0|} (A + i B) (e^{a b} - 1) / a]   (b >= 0)

    with A = gamma (e^{gamma |r0|} + 2), B = 2 omega0 (e^{gamma |r0|} - 2);
    both are exactly 0 before their gates open.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("t_grid must be a 1-d grid with at least two points")
    if t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
        raise ValueError("t_grid must be strictly increasing and start at 0")
    # N-scaled rates are q-independent: evaluate them with a unit charge.
    unit = ChargeParams(q=1.0, m=charge.m, r0=charge.r0)
    n_unit = norm_constant(params, unit)
    ds = n_unit * np.asarray(momdiff_source(t, params, unit))
    dv = n_unit * np.asarray(momdiff_vacsource(t, params, unit))

    g, w0, r0 = params.gamma, params.omega0, charge.r0_abs
    a = complex(-g / 2.0, w0)
    tr, b = t - r0, t - 2.0 * r0
    half = np.maximum(tr, 0.0) / 2.0
    # |e^{aT} - 1|^2 as a sum of two squares, which has no cancellation at small T
    cs = 2.0 * (np.expm1(-g * half) ** 2 + 4.0 * np.exp(-g * half) * np.sin(w0 * half) ** 2)
    bc = np.maximum(b, 0.0)
    damp = np.exp(-g * r0)
    amp = complex(g * (1.0 + 2.0 * damp), 2.0 * w0 * (1.0 - 2.0 * damp))  # e^{-g r0} (A + i B)
    cv = g * bc - 2.0 * damp * np.expm1(-g * bc) - np.real(amp * _moments(a, bc, order=0)[0])
    cv = np.where(b >= 0.0, cv, 0.0)
    return DiffusionCurve(
        times=t.copy(), d_source=ds, d_vacsource=dv,
        cum_source=cs, cum_vacsource=cv, cum_total=cs + cv,
        norm_constant=(norm_constant(params, charge) if charge.q != 0.0 else float("inf")),
        gamma=params.gamma,
    )


def longtime_fit(curve: DiffusionCurve, window: tuple[float, float], which: str = "total"):
    """Least-squares line through an N-scaled cumulative curve on ``window``.

    The late-time total curve approaches slope gamma.  The window must start
    at t >= 5/gamma (transients have died out) and span at least 2/gamma.
    Returns (slope, intercept).
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
    columns = {"total": curve.cum_total, "source": curve.cum_source,
               "vacsource": curve.cum_vacsource}
    if which not in columns:
        raise ValueError(f"which must be 'total', 'source' or 'vacsource', got {which!r}")
    y = columns[which]
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
    e = coeffs_two_level(charge.r0, params).e_rad
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
