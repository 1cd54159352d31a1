"""Radiated power: perturbative level sums and two-level decay curves.

The radiated power splits into a normal-ordered (Glauber) part, a pure-source
part, and a vacuum-source interference part.  Two sum rules tie them together
and are enforced by tests:

    total = source + vacsource        total = 2 * glauber

Perturbative sums run over final levels m of an emitter level e with signed
rates gamma_em = omega_em^3 |d_em|^2 / (3 pi); upward (virtual) levels enter
source and vacsource with opposite signs and cancel in their sum.  The
two-level curves are functions of the emission (retarded) time and gate to
zero before it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DipoleParams, FieldKind, _gated, _like, _positive
from .fieldcoeffs import LevelScheme, field_coeff

__all__ = [
    "PowerBreakdown",
    "spont_rate",
    "pert_power_breakdown",
    "power_curves_2lvl",
    "intensity_trace_2lvl",
    "sphere_integrate",
]

# Quadrature terms a sphere rule (2 order^2 nodes, 32 B each) or the angular
# check (a 16 B phase per z, direction and node) may hold: 32 MiB of nodes.
_NODE_BUDGET = 1 << 20


@dataclass(frozen=True)
class PowerBreakdown:
    """Power decomposition; entries are scalars (perturbative) or arrays (curves)."""

    glauber: object
    source: object
    vacsource: object
    total: object


def spont_rate(scheme: LevelScheme, upper: int, lower: int) -> float:
    """Signed one-channel rate omega_ul^3 |d_ul|^2 / (3 pi)."""
    n = scheme.n_levels
    if not (0 <= upper < n and 0 <= lower < n) or upper == lower:
        raise ValueError("upper/lower must be distinct level indices")
    w = scheme.omega(upper, lower)
    d2 = float(scheme.dipoles[upper, lower] @ scheme.dipoles[upper, lower])
    return w**3 * d2 / (3.0 * np.pi)


def _channel_terms(scheme: LevelScheme, emitter: int):
    # (omega_em, gamma_em) for every m != emitter; omega*gamma >= 0 always.
    if not 0 <= emitter < scheme.n_levels:
        raise ValueError(f"emitter index out of range: {emitter}")
    return [
        (scheme.omega(emitter, m), spont_rate(scheme, emitter, m))
        for m in range(scheme.n_levels)
        if m != emitter
    ]


def pert_power_breakdown(scheme: LevelScheme, emitter: int) -> PowerBreakdown:
    """Perturbative power split of level ``emitter``, summed over its channels m.

    total is the sum of omega_em * gamma_em over downward channels and glauber
    half of it; source is half the sum over *all* channels, upward (virtual)
    ones included, and vacsource the signed half-sum in which downward
    channels add and upward ones subtract.
    """
    terms = _channel_terms(scheme, emitter)
    total = sum(w * g for w, g in terms if w > 0.0)
    return PowerBreakdown(
        glauber=0.5 * total,
        source=0.5 * sum(w * g for w, g in terms),
        vacsource=0.5 * sum(np.sign(w) * w * g for w, g in terms),
        total=total,
    )


def power_curves_2lvl(t_ret, params: DipoleParams) -> PowerBreakdown:
    """Exact two-level decay curves versus emission (retarded) time.

    glauber = (1/2) w0 g exp(-g t), source = (1/2) w0 g,
    vacsource = w0 g (exp(-g t) - 1/2), total = w0 g exp(-g t);
    all zero for t_ret < 0.
    """
    b, on = _gated(t_ret, 0.0)
    gate = on.astype(float)
    wg = params.omega0 * params.gamma
    decay = np.exp(-params.gamma * b) * gate
    # Evaluate total as source + vacsource (and glauber as half of that) so
    # the bookkeeping identities hold exactly in floating point even where
    # the two contributions cancel to a tiny remainder (gamma*t >> 1).
    source = 0.5 * wg * gate
    vacsource = wg * (decay - 0.5 * gate)
    total = source + vacsource
    return PowerBreakdown(*_like((0.5 * total, source, vacsource, total), b))


def intensity_trace_2lvl(t, x, params: DipoleParams, part: str = "rad"):
    """Normal-ordered intensity |Ec(x)|^2 exp(-g t_r) theta(t_r) at (t, x)."""
    vec = field_coeff(FieldKind.ELECTRIC, x, params, part)
    c2 = float(np.real(vec @ np.conj(vec)))
    b, on = _gated(t, float(np.linalg.norm(np.asarray(x, dtype=float))))
    return _like(c2 * np.exp(-params.gamma * b) * on, b)


def _sphere_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (M, 3) and solid-angle weights (M,) of the sphere rule.

    Gauss-Legendre in cos(theta) x 2*order uniform phi, M = 2 order^2, with
    cos(theta) the slow index.  M must fit ``_NODE_BUDGET``; a larger order
    raises before any allocation.
    """
    from numpy.polynomial.legendre import leggauss    # loads numpy.polynomial: only here

    if order < 2:
        raise ValueError("order must be >= 2")
    if 2 * order**2 > _NODE_BUDGET:
        raise ValueError(f"order = {order:,} needs 2 order^2 = {2 * order**2:,} nodes, over the "
                         f"budget of {_NODE_BUDGET:,}")
    mu, w_mu = leggauss(order)
    phi = np.arange(2 * order) * (np.pi / order)
    s = np.sqrt(1.0 - mu * mu)[:, None]
    dirs = np.stack(np.broadcast_arrays(s * np.cos(phi), s * np.sin(phi), mu[:, None]), axis=-1)
    weights = np.repeat(w_mu * (np.pi / order), phi.size)
    return dirs.reshape(-1, 3), weights


def sphere_integrate(f, radius: float, order: int) -> float:
    """radius^2 * Int dOmega f(xhat), Gauss-Legendre in cos(theta) x uniform phi.

    Exact (to rounding) for integrands polynomial of degree < 2*order in
    cos(theta) and bandwidth < 2*order in phi.  ``f`` maps a unit direction
    vector to a float.
    """
    _positive(radius, "radius")
    dirs, weights = _sphere_nodes(order)
    acc = 0.0
    for xhat, w in zip(dirs, weights):
        val = f(xhat)
        if not np.isfinite(val):
            raise ValueError("integrand returned a non-finite value")
        acc += w * val
    return radius**2 * acc
