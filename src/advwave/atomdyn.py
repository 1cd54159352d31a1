"""Closed-form dipole operator dynamics (decay from the excited state).

Everything here assumes the initial state |excited, vacuum> and the
rotating-wave + Markov solution of the Heisenberg equations:

    sigma^+(t) ~ exp((i*omega0 - gamma/2) t) sigma^+  (+ vacuum-operator part)
    <sigma_z(t)> = 2 exp(-gamma t) - 1

Two-time correlators are only derived for ordered arguments u <= v; callers
needing the other ordering should use hermiticity, S(u, v) = conj(S(v, u)).
All three are evaluated by one kernel, ``_evaluate``, whose phase is formed
from omega0 (u - v), so its error grows with omega0 |u - v|, not omega0 u.
The public correlators keep the carrier contract of :mod:`advwave.core`.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .core import DipoleParams, _check_carrier, _finite, _like

__all__ = ["AtomCorrKind", "sigma_z_expect", "corr_plus_minus", "corr_minus_plus", "commutator_expect"]


class AtomCorrKind(Enum):
    PLUS_MINUS = "plus_minus"        # <sigma^+(u) sigma^-(v)>
    MINUS_PLUS = "minus_plus"        # <sigma^-(u) sigma^+(v)>
    COMMUTATOR = "commutator"        # <[sigma^-(u), sigma^+(v)]>


# Each correlator is a short list of exponential terms (c, lam_u, lam_v),
#     S(u, v) = sum_j c_j e^{lam_u,j u + lam_v,j v}    for u <= v,
# the one place the rest of the package takes them from.  The raw kernels
# evaluate these lists with no argument validation and stay finite on negative
# or reversed times; the tensor layer gates and conjugates as needed, and
# kinetics and photodetect integrate them.

def _terms(kind: AtomCorrKind, p: DipoleParams):
    """The terms of ``kind`` with a = i omega0 - gamma/2.

    <s+(u) s-(v)> = e^{a u + conj(a) v} is one term.  <s-(u) s+(v)> and the
    commutator are e^{-a (u - v)} - k e^{conj(a) u + a v}, the emitted-photon
    part less k = 1 or 2 times the population part.  Every term's phase is
    stationary (Im lam_v = -Im lam_u), so it depends on u - v alone.
    """
    a = complex(-p.gamma / 2.0, p.omega0)
    if kind is AtomCorrKind.PLUS_MINUS:
        return ((1.0, a, a.conjugate()),)
    k = 1.0 if kind is AtomCorrKind.MINUS_PLUS else 2.0
    return ((1.0, -a, a), (-k, a.conjugate(), a))


def _evaluate(terms, u, v):
    """sum_j c_j e^{lam_u,j u + lam_v,j v} on arrays u, v, in the coordinates
    d = u - v and s = u + v.

    The result is the common phase e^{i Im lam_u d}, formed once, so the large
    phases omega0 u and omega0 v are never rounded apart, times the real sum
    of c_j e^{min(x_j, 0)} with x_j = Re(lam_u - lam_v) d/2 + Re(lam_u + lam_v) s/2.
    A growing factor (the e^{gamma u / 2} of <s-(u) s+(v)>) is merged with its
    decay before exp, so nothing overflows once gamma u > 709.  Every x_j <= 0
    on 0 <= u <= v, and for <s+ s-> on any u, v >= 0; elsewhere x_j is held at
    0, so the entries that callers gate away (negative or reversed times) stay
    finite wherever d, s and gamma s are floats.
    """
    d, s = u - v, u + v
    env = [c * np.exp(np.minimum((lu - lv).real / 2.0 * d + (lu + lv).real / 2.0 * s, 0.0))
           for c, lu, lv in terms]
    return np.exp(1j * terms[0][1].imag * d) * sum(env[1:], env[0])


def _pm_raw(u, v, p: DipoleParams):
    return _evaluate(_terms(AtomCorrKind.PLUS_MINUS, p), u, v)


def _comm_raw(u, v, p: DipoleParams):
    return _evaluate(_terms(AtomCorrKind.COMMUTATOR, p), u, v)


def sigma_z_expect(t, p: DipoleParams):
    """<sigma_z(t)> = 2 exp(-gamma t) - 1 for decay from the excited state."""
    tt = _finite(t, "t", nonneg=True)
    return _like(2.0 * np.exp(-p.gamma * tt) - 1.0, tt)


def _correlator(kind: AtomCorrKind, u, v, p: DipoleParams):
    uu, vv = _finite(u, "u", nonneg=True), _finite(v, "v", nonneg=True)
    _check_carrier(p.omega0, uu, vv)
    if kind is not AtomCorrKind.PLUS_MINUS and np.any(uu > vv):
        raise ValueError("two-time correlators require u <= v; use hermiticity for the reverse ordering")
    return _like(_evaluate(_terms(kind, p), uu, vv), uu, vv)


def corr_plus_minus(u, v, p: DipoleParams):
    """<sigma^+(u) sigma^-(v)>; valid for any u, v >= 0 (no ordering issue)."""
    return _correlator(AtomCorrKind.PLUS_MINUS, u, v, p)


def corr_minus_plus(u, v, p: DipoleParams):
    """<sigma^-(u) sigma^+(v)> for u <= v.

    Vanishes at u = 0 (the excited state annihilates sigma^+ ... sigma^- acting
    leftwards) and grows with the emitted-photon population, factor
    (exp(gamma u) - 1) under the common exp(-gamma(u+v)/2) envelope.
    """
    return _correlator(AtomCorrKind.MINUS_PLUS, u, v, p)


def commutator_expect(u, v, p: DipoleParams):
    """<[sigma^-(u), sigma^+(v)]> for u <= v.

    Equals corr_minus_plus - corr_plus_minus(v, u)-reversed, i.e. the same
    envelope with (exp(gamma u) - 2); at equal times it reduces to
    -<sigma_z(u)> = 1 - 2 exp(-gamma u).
    """
    return _correlator(AtomCorrKind.COMMUTATOR, u, v, p)
