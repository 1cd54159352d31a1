"""Closed-form dipole operator dynamics (decay from the excited state).

Everything here assumes the initial state |excited, vacuum> and the
rotating-wave + Markov solution of the Heisenberg equations:

    sigma^+(t) ~ exp((i*omega0 - gamma/2) t) sigma^+  (+ vacuum-operator part)
    <sigma_z(t)> = 2 exp(-gamma t) - 1

Two-time correlators are only derived for ordered arguments u <= v; callers
needing the other ordering should use hermiticity, S(u, v) = conj(S(v, u)).
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .core import DipoleParams, _finite, _like

__all__ = [
    "AtomCorrKind",
    "sigma_z_expect",
    "corr_plus_minus",
    "corr_minus_plus",
    "commutator_expect",
]


class AtomCorrKind(Enum):
    PLUS_MINUS = "plus_minus"        # <sigma^+(u) sigma^-(v)>
    MINUS_PLUS = "minus_plus"        # <sigma^-(u) sigma^+(v)>
    COMMUTATOR = "commutator"        # <[sigma^-(u), sigma^+(v)]>


# Raw kernels, no argument validation.  The *_raw(u, v) two-time forms are the
# analytic u <= v branch; the tensor layer gates and conjugates as needed.

def _pm_raw(u, v, p: DipoleParams):
    return np.exp((1j * p.omega0 - p.gamma / 2.0) * u) * np.exp((-1j * p.omega0 - p.gamma / 2.0) * v)


def _raised_raw(u, v, p: DipoleParams, k: float):
    """e^{-i w0 (u - v)} (e^{gamma (u - v) / 2} - k e^{-gamma (u + v) / 2}).

    The envelope e^{-gamma (u + v) / 2} times (e^{gamma u} - k), merged so that
    no factor grows with u: e^{gamma u} alone overflows once gamma u > 709.
    Past u = v, outside the branch, the growing factor is held at 1, so the
    entries that callers gate away stay finite too.
    """
    gap = np.minimum(u - v, 0.0)
    return np.exp(-1j * p.omega0 * (u - v)) * (np.exp(p.gamma * gap / 2.0)
                                               - k * np.exp(-p.gamma * (u + v) / 2.0))


def _mp_raw(u, v, p: DipoleParams):
    return _raised_raw(u, v, p, 1.0)


def _comm_raw(u, v, p: DipoleParams):
    return _raised_raw(u, v, p, 2.0)


def sigma_z_expect(t, p: DipoleParams):
    """<sigma_z(t)> = 2 exp(-gamma t) - 1 for decay from the excited state."""
    tt = _finite(t, "t", nonneg=True)
    return _like(2.0 * np.exp(-p.gamma * tt) - 1.0, tt)


def _ordered(u, v):
    uu, vv = _finite(u, "u", nonneg=True), _finite(v, "v", nonneg=True)
    if np.any(uu > vv):
        raise ValueError("two-time correlators require u <= v; use hermiticity for the reverse ordering")
    return uu, vv


def corr_plus_minus(u, v, p: DipoleParams):
    """<sigma^+(u) sigma^-(v)>; valid for any u, v >= 0 (no ordering issue)."""
    uu, vv = _finite(u, "u", nonneg=True), _finite(v, "v", nonneg=True)
    return _like(_pm_raw(uu, vv, p), uu, vv)


def corr_minus_plus(u, v, p: DipoleParams):
    """<sigma^-(u) sigma^+(v)> for u <= v.

    Vanishes at u = 0 (the excited state annihilates sigma^+ ... sigma^- acting
    leftwards) and grows with the emitted-photon population, factor
    (exp(gamma u) - 1) under the common exp(-gamma(u+v)/2) envelope.
    """
    uu, vv = _ordered(u, v)
    return _like(_mp_raw(uu, vv, p), uu, vv)


def commutator_expect(u, v, p: DipoleParams):
    """<[sigma^-(u), sigma^+(v)]> for u <= v.

    Equals corr_minus_plus - corr_plus_minus(v, u)-reversed, i.e. the same
    envelope with (exp(gamma u) - 2); at equal times it reduces to
    -<sigma_z(u)> = 1 - 2 exp(-gamma u).
    """
    uu, vv = _ordered(u, v)
    return _like(_comm_raw(uu, vv, p), uu, vv)
