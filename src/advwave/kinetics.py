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

Each N-scaled rate is a gate plus a few terms (c, lam),

    N rate(t) = Re sum_j c_j e^{lam_j (t - gate)}   for t >= gate, else 0,

derived, not written, in `_rate_terms`: the source rate is 2 Re of the
integral of <sigma+ sigma-> over its gate segment, the vacuum-source rate that
of the conjugated commutator over its own, both taken as exponential terms
from `atomdyn` (`_segments`; `photodetect` integrates the same two
segments).  With a = i omega0 - gamma/2 and damp = e^{-gamma |r0|}
the derivation gives

    source     gate |r0|:   (-4 a, a), (-2 gamma, -gamma)
    vacsource  gate 2 |r0|: (gamma, 0), (2 gamma damp, -gamma), (-damp (A + i B), a)

with damp (A + i B) = gamma (1 + 2 damp) + 2 i omega0 (1 - 2 damp).  Every
cumulative curve, cycle average and the position dispersion is a sum of the
moments Int_0^b s^k e^{lam s - shift} ds (k <= 2) from `_moments`, so all
are exact on any time grid and at any omega0/gamma; no step size has to
resolve the optical period.  `cycle_averaged` gives what a coarse grid can
show at an optical ratio: each cumulative curve averaged over one optical
period, and its exact lower and upper envelopes.  Every N-scaled curve obeys
the dimensional scaling law: omega0 and gamma times k, times and |r0| over k
leave it unchanged, bit for bit for k a power of two, else to the rounding of
t/k and k omega0, about eps omega0 t.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atomdyn import AtomCorrKind, _terms
from .core import (DipoleParams, FieldKind, _check_carrier, _finite, _gated, _like, _positive, _power,
                   _two_prod, _vec3)
from .fieldcoeffs import field_coeff

__all__ = ["ChargeParams", "DiffusionCurve", "CycleAverage", "norm_constant", "momdiff_source",
           "momdiff_vacsource", "dispersion_change", "cycle_averaged", "longtime_fit", "posdisp_change"]

_SERIES_CUT = 1.0   # |c b| below which the moments use their power series
_SERIES_TERMS = 20  # 1/20! < 1e-18: the truncated series is exact to rounding
# Horner coefficients 1/(n! (n + k + 1)) of the series, highest n first, k = 0, 1, 2
_SERIES_WEIGHTS = 1.0 / np.array([[math.factorial(n) * (n + k + 1) for k in range(3)]
                                  for n in range(_SERIES_TERMS - 1, -1, -1)], dtype=float)
_EXACT_PHASE = 2.0**20  # |phase| (rad) from which `_exp` carries the product's rounding


@dataclass(frozen=True)
class ChargeParams:
    """Test charge: charge q, mass m, fixed position r0 (away from the dipole)."""

    q: float
    m: float
    r0: np.ndarray

    def __post_init__(self):
        _power(_finite(self.q, "q"), 2, "q")    # q^2 and m^2 divide and scale every rate
        _power(_positive(self.m, "m"), 2, "m")
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
    gamma: float


def _inv_norm(params: DipoleParams, charge: ChargeParams) -> float:
    # 1/N; 0 for q = 0 and for a charge on the dipole axis, where E_rad(r0) = 0
    e = field_coeff(FieldKind.ELECTRIC, charge.r0, params, "rad")
    return charge.q**2 * float(np.real(e @ np.conj(e))) / ((params.gamma / 2.0) ** 2 + params.omega0**2)


def norm_constant(params: DipoleParams, charge: ChargeParams) -> float:
    """N = ((gamma/2)^2 + omega0^2) / (q^2 |E_rad(r0)|^2).

    Raises ValueError where N is infinite: for q = 0, and for a charge on the
    dipole axis, where E_rad(r0) = 0.
    """
    inv = _inv_norm(params, charge)
    if inv == 0.0:
        raise ValueError("norm constant is undefined for q = 0 and where E_rad(r0) = 0 (on the dipole axis)")
    return 1.0 / inv


def _exp(c, x, shift=0.0):
    """e^{c x - shift} for an array x; a real c keeps the arithmetic real.

    Where the phase p = c.imag x reaches 2^20 rad, its rounding error r
    (`core._two_prod`) enters as e^{i r} = 1 + i r - r^2/2, so optical
    phases ~1e9 rad are exact to rounding.  Below, a plain product's error
    (at most 2^-33 rad) is left: twelve more passes would slow every figure.
    """
    if not isinstance(c, complex):
        return np.exp(c * x - shift)
    p = c.imag * x
    out = np.exp(c.real * x - shift + 1j * p)
    big = np.abs(p) >= _EXACT_PHASE
    if not big.any():
        return out
    r = np.where(big, _two_prod(c.imag, x), 0.0)
    return out * (1.0 - r * r / 2.0 + 1j * r)


def _moments(c, b, shift=0.0, order: int = 2):
    """[M0, ..., M_order] with Mk = Int_0^b s^k exp(c s - shift) ds, for an array b >= 0.

    ``shift`` is a scalar or an array of b's shape.  Where |c b| >= 1 the
    recurrence M0 = (e^{c b - shift} - e^{-shift})/c,
    Mk = (b^k e^{c b - shift} - k M(k-1))/c is used, below it the series
    Mk = b^(k+1) e^{-shift} sum_n (c b)^n / (n! (n + k + 1)) by Horner's rule,
    or for a real c and k = 0 M0 = e^{-shift} expm1(c b)/c.  Both work
    elementwise (no matrix product), so they have no cancellation at small
    |c b| and a point's value does not depend on the rest of the array.  The shift
    is merged into every exponential, so e^{c b} never forms on its own and
    cannot overflow at large real c b.  The exponential is `_exp`'s, whose
    phase is exact to rounding at optical phases omega0 b ~ 1e9.
    A real c keeps the arithmetic real, and c = 0 gives b^(k+1)/(k+1) directly.
    """
    b = np.asarray(b, dtype=float)
    low = np.exp(-np.asarray(shift))
    if c == 0:
        return [low * b ** (k + 1) / (k + 1) for k in range(order + 1)]
    bb = np.atleast_1d(b)
    top, inv = _exp(c, bb, shift), 1.0 / c
    m = [(top - low) * inv]
    for k in range(1, order + 1):
        m.append((bb**k * top - k * m[-1]) * inv)
    small = (bb < _SERIES_CUT / abs(c)) & (bb > 0.0)  # at b = 0 the recurrence gives 0 exactly
    if small.any() and order == 0 and not isinstance(c, complex):
        m[0][small] = np.broadcast_to(low, bb.shape)[small] * np.expm1(c * bb[small]) * inv
    elif small.any():
        bs = bb[small]
        zs, series = c * bs[:, None], _SERIES_WEIGHTS[0, :order + 1]
        for w in _SERIES_WEIGHTS[1:, :order + 1]:
            series = series * zs + w
        series = series * np.broadcast_to(low, bb.shape)[small, None]
        for k, mk in enumerate(m):
            mk[small] = bs ** (k + 1) * series[:, k]
    return [mk.reshape(b.shape) for mk in m]


def _moment_sum(groups, b):
    """Sum over groups (c, shift, coeffs) of sum_k coeffs[k] Mk(c, b, shift).

    Each group takes a `_moments` pass of its own.  Passes shared by the groups
    of one kind, with c and the shifts stacked as columns (real, complex and
    zero c apart, since numpy's real and complex exp differ in the last bit),
    kept every bit but saved about 3 us on detect's 60-point vacuum-source
    segment and cost as much on its one-group source segment: a 2-row
    operation costs numpy about 1.5 single ones, and the stacking adds calls.
    """
    return sum(sum(ck * mk for ck, mk in zip(coeffs, _moments(c, b, shift, len(coeffs) - 1)))
               for c, shift, coeffs in groups)


def _segments(params: DipoleParams, x: float, k_g, k_d, phase: float):
    """The source (G) and vacuum-source (Delta) integrands at distance x, each as (gate, offset, groups).

    Each integrand is atomdyn's term list times its constant field contraction,
    k_g or k_d, and e^{-i phase (t - t')}: the detector phase, 0 for the
    diffusion rates.  A rate at t >= gate integrates over s in [0, b],
    b = t - gate.  The correlator's arguments u, v and the lag are linear in s
    and in w = b + offset = t - x, the retarded time at x; lag0 is the lag's
    constant part:

        G      k_g <s+(u) s-(v)>      t' = x + s in [x, t]       u = w      v = s   lag = t - t'
        Delta  k_d <[s-(u), s+(v)]>   t' = b - s in [0, t - 2x]  u = w - s  v = w   lag = t' - t

    The Delta integrand is conj(k_d <[s-(u), s+(v)]>) e^{-i phase (t - t')}.
    A rate is a real part, so its segment integrates the conjugate instead,
    whose lag is t' - t.  Each term (c, lam_u, lam_v) has the exponent
    lam_u u + lam_v v - i phase lag = mu w + lam s - i phase lag0 there, so
    its integral is the moment group (c', mu, lam),

        c' e^{mu w} M0(lam, b),   c' = k c e^{-i phase lag0},

    with M0 from `_moments`; the rate is Re of the groups' sum.  A mu or lam
    with no imaginary part is a float.  The lag's phase goes through `_exp`,
    exact to rounding at optical phases.
    """
    pm, comm = (_terms(kind, params) for kind in (AtomCorrKind.PLUS_MINUS, AtomCorrKind.COMMUTATOR))
    out = []
    for k, terms, gate, offset, lag0, rows in ((k_g, pm, x, 0.0, 0.0, ((1, 0), (0, 1), (1, -1))),
                                               (k_d, comm, 2.0 * x, x, -2.0 * x, ((1, -1), (1, 0), (0, -1)))):
        turn = complex(_exp(-1j * phase, lag0))
        groups = []
        for c, lu, lv in terms:  # rows: (u, v, lag) as (coefficient of w, coefficient of s)
            mu, lam = (lu * u + lv * v - 1j * phase * lag for u, v, lag in zip(*rows))
            groups.append((k * c * turn, mu if mu.imag else mu.real, lam if lam.imag else lam.real))
        out.append((gate, offset, tuple(groups)))
    return tuple(out)


def _rate_terms(params: DipoleParams, r0: float):
    """The N-scaled source and vacuum-source rates, each as (gate, ((c, lam), ...)).

    With n = (gamma/2)^2 + omega0^2 = N q^2 |E_rad(r0)|^2, the source rate is
    2 Re Int_G 2 n <s+ s-> and the vacuum-source rate 2 Re Int_Delta n
    conj<[s-, s+]> (`_segments`).  M0(lam, b) = (e^{lam b} - 1)/lam turns a
    group into the terms (-c'', mu) and (c'', mu + lam), c'' = c' e^{mu offset}/lam.
    Terms with equal lam merge into the later one's place, so the lists keep
    the exponents a = i omega0 - gamma/2, -gamma and 0.
    """
    n = (params.gamma / 2.0) ** 2 + params.omega0**2
    rates = []
    for gate, offset, groups in _segments(params, r0, 4.0 * n, 2.0 * n, 0.0):
        merged = {}
        for c, mu, lam in groups:  # 1/lam as conj(lam)/|lam|^2 after c: exact where |lam|^2 = n
            c = complex(c / (lam.real**2 + lam.imag**2) * lam.conjugate() * _exp(mu, offset))
            for cj, lj in ((-c, mu), (c, mu + lam)):
                cj, lj = (cj, lj) if lj.imag else (cj.real, lj.real)
                merged[lj] = merged.pop(lj) + cj if lj in merged else cj
        rates.append((gate, tuple((c, lam) for lam, c in merged.items())))
    return tuple(rates)


def _gated_sum(t, kernel, gate, terms):
    """Re sum_j c_j kernel(lam_j, t - gate) over a rate's terms; exactly 0 before the gate."""
    b, on = _gated(t, gate)
    return np.where(on, sum(np.real(c * kernel(lam, b)) for c, lam in terms), 0.0)


def _rate(which: int, t, params: DipoleParams, charge: ChargeParams):
    _check_carrier(params.omega0, t)
    return _like(_inv_norm(params, charge) * _gated_sum(t, _exp, *_rate_terms(params, charge.r0_abs)[which]), t)


def momdiff_source(t, params: DipoleParams, charge: ChargeParams):
    """Source-part momentum-diffusion rate d(Dp_s)/dt at lab time t (finite).

    (1/N) Re[-4 a e^{a T} - 2 gamma e^{-gamma T}] for T = t - |r0| >= 0, else 0.
    """
    return _rate(0, t, params, charge)


def momdiff_vacsource(t, params: DipoleParams, charge: ChargeParams):
    """Vacuum-source momentum-diffusion rate d(Dp_vs)/dt at lab time t (finite).

    Gated by theta(t - 2 |r0|) -- the round-trip condition -- and continuous
    at onset: with b = t - 2 |r0| >= 0,

    (1/N) Re[gamma + 2 gamma damp e^{-gamma b} - damp (A + i B) e^{a b}].
    """
    return _rate(1, t, params, charge)


def _times(t_grid, params: DipoleParams) -> np.ndarray:
    """``t_grid`` as a 1-d float array of finite times within the carrier's phase range."""
    t = _finite(t_grid, "t_grid (a 1-d array of finite times)")
    if t.ndim != 1:
        raise ValueError("t_grid must be a 1-d array of finite times")
    _check_carrier(params.omega0, t)
    return t


def dispersion_change(t_grid, params: DipoleParams, charge: ChargeParams) -> DiffusionCurve:
    """N-scaled momentum changes, the rates' time integrals from t = 0, on a user grid.

    ``t_grid`` is any 1-d array of finite times; each point is independent,
    because each curve is the closed form Re sum_j c_j M0(lam_j, b) over its
    rate's terms, with b the time since the gate.  Both are exactly 0 before
    their gates open.  The N-scaled curves are defined where N is infinite
    (q = 0, or a charge on the dipole axis).
    """
    t = _times(t_grid, params)
    cs, cv = (_gated_sum(t, lambda lam, b: _moments(lam, b, order=0)[0], *rate)
              for rate in _rate_terms(params, charge.r0_abs))
    return DiffusionCurve(times=t.copy(), cum_source=cs, cum_vacsource=cv, cum_total=cs + cv,
                          gamma=params.gamma)


def cycle_averaged(t_grid, params: DipoleParams, charge: ChargeParams) -> CycleAverage:
    """Cycle averages and exact envelopes of the `dispersion_change` curves.

    ``t_grid`` is any 1-d array of finite times; each point is independent.
    With P = 2 pi/omega0, each curve is, a time x after its gate,

        cum(x) = K + sum_{lam = 0} c x + sum_{lam != 0} (c/lam) e^{lam x},
        K = -Re sum_{lam != 0} c/lam.

    Its average over [t - P/2, t + P/2] integrates only the part of the
    window after the gate, from x1 to x1 + L: K L, c L (x1 + L/2), and
    (c/lam) e^{lam x1} M0(lam, L).  An unclipped window has L = P exactly,
    so nothing cancels even where P << 1/gamma, and its M0 is one scalar.

    The terms with lam = a share one frequency, so each envelope is the
    smooth part (the rest of the curve) -+ |sum_j (c_j/a) e^{a (t - gate_j)}|
    over the open rates: the source and vacuum-source envelopes take their own
    terms, the total both, which is e^{-gamma b/2} |d_s e^{a |r0|} + d_v| with
    b = t - 2|r0| and d = the rate's sum of c/a.

    Every curve is exactly 0 before its gate (the averages: while the whole
    window is), and is defined where N is infinite, as in `dispersion_change`.
    """
    t = _times(t_grid, params)
    period = 2.0 * np.pi / params.omega0
    cols, carrier, smooth_sum, last, lo, hi = {}, 0j, 0.0, 0.0, 0.0, 0.0
    for name, (gate, terms) in zip(("source", "vacsource"), _rate_terms(params, charge.r0_abs)):
        # the part of [t - P/2, t + P/2] after the gate is [gate + x1, gate + x1 + width]
        x1, whole = _gated(t - period / 2.0, gate)
        # a window that straddles a gate past P has t within a factor of 2 of
        # it, so t - gate is exact and the width is rounded once at the scale
        # of P, not at that of t + P/2; the window opens where t + P/2 > gate
        width = np.where(whole, period,
                         np.where(t + period / 2.0 > gate, (t - gate) + period / 2.0, 0.0))
        b, on = _gated(t, gate)
        cut = np.where(whole, 0, np.cumsum(~whole))  # index into [P, the clipped widths]
        const = -sum(np.real(c / lam) for c, lam in terms if lam != 0.0)
        area, smooth, d = const * width, const, 0j
        for c, lam in terms:
            if lam == 0.0:
                area, smooth = area + c * width * (x1 + width / 2.0), smooth + c * b
                continue
            m0 = _moments(lam, np.append(period, width[~whole]), order=0)[0][cut]
            area = area + np.real(c / lam * _exp(lam, x1) * m0)
            if lam.imag:  # lam = a, the one optical carrier of both rates
                d, a = d + c / lam, lam
            else:
                smooth = smooth + c / lam * _exp(lam, b)
        cols["avg_" + name] = np.where(width > 0.0, area / period, 0.0)
        smooth = np.where(on, smooth, 0.0)
        carrier = carrier * _exp(a, gate - last) + d
        smooth_sum, last = smooth_sum + smooth, gate
        fall = np.exp(-params.gamma * b / 2.0)
        cols["lo_" + name] = np.where(on, smooth - abs(d) * fall, 0.0)
        cols["hi_" + name] = np.where(on, smooth + abs(d) * fall, 0.0)
        lo = np.where(on, smooth_sum - abs(carrier) * fall, lo)
        hi = np.where(on, smooth_sum + abs(carrier) * fall, hi)
    return CycleAverage(
        times=t.copy(), period=period, **cols,
        avg_total=cols["avg_source"] + cols["avg_vacsource"], lo_total=lo, hi_total=hi,
        gamma=params.gamma,
    )


def longtime_fit(curve: DiffusionCurve | CycleAverage, window: tuple[float, float],
                 which: str = "total"):
    """Least-squares line through an N-scaled cumulative curve on ``window``.

    Fits ``cum_<which>`` of a `DiffusionCurve`, or ``avg_<which>`` of a
    `CycleAverage`.  The late-time total curve approaches slope gamma.  The
    window must be finite, start at t >= 5/gamma (transients have died out)
    and span at least 2/gamma.  Returns (slope, intercept).
    """
    t_lo, t_hi = _finite(window, "fit window (t_lo, t_hi)").tolist()
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


def posdisp_change(t, params: DipoleParams, charge: ChargeParams, delta_p0: float = 0.0):
    """Position-dispersion change Dr(t) - Dr(0) of the test charge.

    free spreading (t^2 / 2 m^2) Dp0 plus the field-driven part

        (q^2 / m^2) * 2 Re Int_0^t Int_0^t (t - t3)(t - t4) C_EE_trace dt3 dt4

    (the nested four-fold time-ordered integral reduced exactly with the
    (t - s) weight trick), radiation-zone kernel C = G + <Delta> at the charge
    position.  The integral is done in closed form; with e = E_rad(r0),
    a = i omega0 - gamma/2, T = t - |r0| and b = t - 2 |r0| it equals

        (q^2 / m^2) (4 |e|^2 |I|^2 + 4 Re[(e . e) D]),
        I = Int_0^T (T - s) e^{a s} ds                                     (T >= 0),
        D = a^-2 Int_0^b (s + 2|r0|) [e^{a s} - 1 - a s - 2 e^{-gamma T} e^{-conj(a) s}
                                     + 2 e^{-gamma (T - s)} (1 + a s)] ds   (b >= 0),

    from the Glauber square t3, t4 >= |r0| and the two advanced-wave
    triangles |t3 - t4| >= 2 |r0| (complex conjugates of each other).  Both
    are sums of moment terms sum_k c_k M_k(lam, upper limit, shift), listed as
    (lam, shift, (c_0, c_1, ...)): I is (a, 0, (T, -1)) up to T, and a^2 D is
    (a, 0, (2|r0|, 1)), (0, 0, (-2|r0|, -1 - 2|r0| a, -a)),
    (-conj(a), gamma T, (-4|r0|, -2)), (gamma, gamma T, (4|r0|, 2 + 4|r0| a, 2 a))
    up to b.  ``t`` is a time or an array of times; an array gives an array,
    each element the value of its scalar call.
    """
    tt = _finite(t, "t", nonneg=True)
    _finite(delta_p0, "delta_p0")
    _check_carrier(params.omega0, tt)
    g, r0, a = params.gamma, charge.r0_abs, complex(-params.gamma / 2.0, params.omega0)
    e = field_coeff(FieldKind.ELECTRIC, charge.r0, params, "rad")
    tr, b = _gated(tt, r0)[0], _gated(tt, 2.0 * r0)[0]
    square = _moment_sum(((a, 0.0, (tr, -1.0)),), tr)
    triangles = _moment_sum(((a, 0.0, (2.0 * r0, 1.0)),
                             (0.0, 0.0, (-2.0 * r0, -1.0 - 2.0 * r0 * a, -a)),
                             (-a.conjugate(), g * tr, (-4.0 * r0, -2.0)),
                             (g, g * tr, (4.0 * r0, 2.0 + 4.0 * r0 * a, 2.0 * a))), b)
    field = (4.0 * float(np.real(e @ np.conj(e))) * np.abs(square) ** 2
             + 4.0 * np.real(complex(e @ e) * triangles / a**2))
    out = tt**2 / (2.0 * charge.m**2) * delta_p0 + charge.q**2 / charge.m**2 * field
    return _like(out, tt)
