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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from . import atomdyn
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

_MIN_PER_PERIOD = 40


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


def dispersion_change(t_grid, params: DipoleParams, charge: ChargeParams) -> DiffusionCurve:
    """Integrate the diffusion rates on a user grid; returns N-scaled curves.

    The grid must be strictly increasing from 0 and resolve the optical
    oscillation: max step <= (2 pi / omega0) / 40, or the cumulative trapezoid
    misses the interference fringes.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("t_grid must be a 1-d grid with at least two points")
    if t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
        raise ValueError("t_grid must be strictly increasing and start at 0")
    h_max = float(np.max(np.diff(t)))
    h_req = (2.0 * np.pi / params.omega0) / _MIN_PER_PERIOD
    if h_max > h_req:
        raise ValueError(
            f"grid step {h_max:.3e} too coarse for omega0 = {params.omega0:.3e}: "
            f"required step size <= {h_req:.3e}"
        )
    # N-scaled rates are q-independent: evaluate them with a unit charge.
    unit = ChargeParams(q=1.0, m=charge.m, r0=charge.r0)
    n_unit = norm_constant(params, unit)
    ds = n_unit * np.asarray(momdiff_source(t, params, unit))
    dv = n_unit * np.asarray(momdiff_vacsource(t, params, unit))
    cs = cumulative_trapezoid(ds, t, initial=0.0)
    cv = cumulative_trapezoid(dv, t, initial=0.0)
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


def _c_trace_rad(t3, t4, params: DipoleParams, e2: float, r0: float):
    """Trace of the radiation-zone C kernel at (t3, r0), (t4, r0); broadcasts."""
    g3, g4 = t3 - r0 >= 0.0, t4 - r0 >= 0.0
    tr3 = np.where(g3, t3 - r0, 0.0)
    tr4 = np.where(g4, t4 - r0, 0.0)
    out = np.where(g3 & g4, 2.0 * e2 * atomdyn._pm_raw(tr3, tr4, params), 0.0j)
    # advanced-wave terms: t_a = t + r0 of one leg inside the other's retarded past
    m1 = (t4 - t3 >= 2.0 * r0) & g4
    u1 = np.where(m1, t3 + r0, 0.0)
    v1 = np.where(m1, t4 - r0, u1)
    out = out + np.where(m1, e2 * atomdyn._comm_raw(u1, v1, params), 0.0j)
    m2 = (t3 - t4 >= 2.0 * r0) & g3
    u2 = np.where(m2, t4 + r0, 0.0)
    v2 = np.where(m2, t3 - r0, u2)
    out = out + np.where(m2, e2 * np.conj(atomdyn._comm_raw(u2, v2, params)), 0.0j)
    return out


def posdisp_change(t: float, params: DipoleParams, charge: ChargeParams,
                   delta_p0: float = 0.0, per_period: int = 160) -> float:
    """Position-dispersion change Dr(t) - Dr(0) of the test charge.

    free spreading (t^2 / 2 m^2) Dp0 plus the field-driven part

        (q^2 / m^2) * 2 Re Int_0^t Int_0^t (t - t3)(t - t4) C_EE_trace dt3 dt4

    (the nested four-fold time-ordered integral reduced exactly with the
    (t - s) weight trick), radiation-zone kernel at the charge position.
    Uniform tensor-product trapezoid; ``per_period`` >= 40 points per optical
    period are required to resolve the advanced-wave fringes.
    """
    if per_period < _MIN_PER_PERIOD:
        raise ValueError(f"per_period must be >= {_MIN_PER_PERIOD}")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    free = t**2 / (2.0 * charge.m**2) * delta_p0
    if t == 0.0 or charge.q == 0.0:
        return free
    r0 = charge.r0_abs
    e2 = _e_rad_abs2(params, charge)
    n = max(64, int(np.ceil(per_period * params.omega0 * t / (2.0 * np.pi))))
    ts = np.linspace(0.0, t, n + 1)
    w = np.full(n + 1, t / n)
    w[0] = w[-1] = t / (2 * n)
    wt = w * (t - ts)
    acc = 0.0 + 0.0j
    block = max(1, int(4e6) // (n + 1))
    for lo in range(0, n + 1, block):
        hi = min(lo + block, n + 1)
        kern = _c_trace_rad(ts[lo:hi, None], ts[None, :], params, e2, r0)
        acc += np.einsum("i,ij,j->", wt[lo:hi], kern, wt)
    return free + charge.q**2 / charge.m**2 * 2.0 * float(np.real(acc))
