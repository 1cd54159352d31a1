"""Independent numerical routes for the package's closed forms, and the quadrature they share.

Test-only: the test modules import it as ``routes`` (pytest puts ``tests/`` on
``sys.path``).  Each quadrature primitive is written once here:

* ``trapezoid_weights``: the trapezoid rule's weights, written out
* ``richardson``: Romberg's table on trapezoid values with halving steps
* ``gauss_legendre``: Gauss-Legendre nodes and weights on [lo, hi]
* ``oscillation_intervals``: the interval count that resolves e^{i omega t}

A route integrates what the closed form integrates in closed form.  Each
route's docstring names the closed form it checks and the package code the
two share: a defect in that shared code moves both alike, and the route
cannot see it.
"""
import math

import numpy as np
from scipy.integrate import cumulative_trapezoid

from advwave import atomdyn
from advwave.core import FieldKind
from advwave.correlations import corr_traces
from advwave.fieldcoeffs import field_coeff
from advwave.kinetics import dispersion_change, momdiff_source, momdiff_vacsource, norm_constant

EE = FieldKind.ELECTRIC

# --- quadrature primitives -----------------------------------------------------


def trapezoid_weights(a, b, n):
    """Weights of the n-interval trapezoid rule on linspace(a, b, n + 1), written
    out: (b - a) / n inside, half that at both ends."""
    w = np.full(n + 1, (b - a) / n)
    w[0] = w[-1] = (b - a) / (2 * n)
    return w


def richardson(levels):
    """Romberg's table on trapezoid values whose step halves from one level to the
    next, coarsest first: one Richardson step per level after the first, each
    removing the next even power of the step.  Array levels are read at the same
    nodes."""
    table = list(levels)
    for j in range(1, len(table)):
        table = [(4.0**j * fine - coarse) / (4.0**j - 1.0) for coarse, fine in zip(table, table[1:])]
    return table[0]


def gauss_legendre(lo, hi, n):
    """(nodes, weights) of n-point Gauss-Legendre on [lo, hi]; an array ``hi`` (or
    ``lo``) gives one interval per element, broadcast against the n nodes."""
    x, w = np.polynomial.legendre.leggauss(n)
    return lo + (hi - lo) * (x + 1.0) / 2.0, w * (hi - lo) / 2.0


def oscillation_intervals(omega, a, b, per_period):
    """Even interval count resolving e^{i omega t} on [a, b] at ``per_period``
    intervals a period (a period at least), and at least 32."""
    periods = abs(omega) * (b - a) / (2.0 * np.pi)
    n = math.ceil(per_period * max(periods, 1.0))
    return max(n + n % 2, 32)


def oscillation_grid(omega, a, b, per_period):
    """linspace(a, b) on ``oscillation_intervals`` intervals."""
    return np.linspace(a, b, oscillation_intervals(omega, a, b, per_period) + 1)


def richardson_trapezoid(f, a, b, omega, per_period):
    """Int_a^b f by the trapezoid on ``oscillation_grid`` and on every other of its
    nodes, plus one Richardson step: O(h^4) for a smooth f.  0 where b <= a."""
    if b <= a:
        return 0.0
    x = oscillation_grid(omega, a, b, per_period)
    y, n = f(x), x.size - 1
    return richardson([trapezoid_weights(a, b, n // 2) @ y[::2], trapezoid_weights(a, b, n) @ y])


# --- momentum dispersion (kinetics) -----------------------------------------------


def dispersion_curves(t, params, charge):
    """(cum_source, cum_vacsource) of ``kinetics.dispersion_change`` at the nodes of
    ``t``: cumulative trapezoids of the N-scaled rates with the steps of t, halved
    and quartered, and two Richardson steps.  O(h^6) when every kink of the rates
    (|r0| and 2|r0|) is a node of t.

    Shares with the closed form: the rates ``momdiff_source`` and
    ``momdiff_vacsource`` (so ``kinetics._rate_terms`` and ``atomdyn._terms``) and
    ``norm_constant``; it checks their integration in time.
    """
    fine = np.linspace(t[0], t[-1], 4 * (t.size - 1) + 1)
    n = norm_constant(params, charge)
    return [richardson([cumulative_trapezoid(n * rate(fine[::k], params, charge), fine[::k],
                                             initial=0.0)[::4 // k] for k in (4, 2, 1)])
            for rate in (momdiff_source, momdiff_vacsource)]


def window_average(t, period, params, charge):
    """(avg_source, avg_vacsource) of ``kinetics.cycle_averaged`` at t: the raw curves
    averaged over [t - P/2, t + P/2] by trapezoids with 256, 512 and 1024 steps and two
    Richardson steps, the window split at the gates |r0| and 2|r0| so each piece is
    smooth (both curves are 0 before |r0|).

    Shares with the closed form: ``kinetics.dispersion_change``, the raw curves it
    averages; it checks the average.
    """
    lo, hi = t - period / 2.0, t + period / 2.0
    cuts = [lo] + [c for c in (charge.r0_abs, 2.0 * charge.r0_abs) if lo < c < hi] + [hi]
    total = np.zeros(2)
    for a, b in zip(cuts[:-1], cuts[1:]):
        levels = []
        for k in (256, 512, 1024):
            curve = dispersion_change(np.linspace(a, b, k + 1), params, charge)
            levels.append(trapezoid_weights(a, b, k) @ np.stack((curve.cum_source, curve.cum_vacsource), 1))
        total += richardson(levels)
    return total / period


# --- position dispersion (kinetics.posdisp_change) --------------------------------


def posdisp_trapezoid(t, params, charge, n):
    """Field part of ``kinetics.posdisp_change``: the (t - t3)(t - t4)-weighted trace
    on a uniform n-interval tensor-product trapezoid.  First order in 1/n, because
    the advanced-wave gate |t3 - t4| >= 2|r0| cuts the grid diagonally.

    Shares with the closed form: ``correlations.corr_traces`` (so ``atomdyn``'s
    correlators and ``fieldcoeffs``); it checks the double integral.
    """
    ts = np.linspace(0.0, t, n + 1)
    wt = trapezoid_weights(0.0, t, n) * (t - ts)
    acc = 0.0 + 0.0j
    block = max(1, int(4e6) // (n + 1))
    for lo in range(0, n + 1, block):
        g, d = corr_traces(EE, EE, ts[lo:lo + block, None], charge.r0, ts[None, :], charge.r0,
                           params, part="rad")
        acc += np.einsum("i,ij,j->", wt[lo:lo + block], g + d, wt)
    return charge.q**2 / charge.m**2 * 2.0 * float(np.real(acc))


def posdisp_gauss_legendre(t, params, charge):
    """Field part of ``kinetics.posdisp_change``, each gated segment by Gauss-Legendre.

    The Glauber square t3, t4 in [|r0|, t] is a tensor product; each
    advanced-wave triangle (one time at least 2|r0| after the other) takes
    outer nodes on [2|r0|, t] and inner nodes on [0, outer - 2|r0|].  All
    nodes are interior, so no gate edge is sampled.  Each side takes
    ``oscillation_intervals`` at 4 a period as its node count.

    Shares with the closed form: ``correlations.corr_traces`` (so ``atomdyn``'s
    correlators and ``fieldcoeffs``); it checks the double integral.
    """
    r0 = charge.r0_abs
    total = 0.0j
    s, w = gauss_legendre(r0, t, oscillation_intervals(params.omega0, r0, t, 4))
    g, _ = corr_traces(EE, EE, s[:, None], charge.r0, s[None, :], charge.r0, params, part="rad")
    total += (w * (t - s)) @ g @ (w * (t - s))
    b = t - 2.0 * r0
    if b > 0.0:
        n = oscillation_intervals(params.omega0, 0.0, b, 4)
        outer, w_out = gauss_legendre(2.0 * r0, t, n)
        inner, w_in = gauss_legendre(0.0, outer[:, None] - 2.0 * r0, n)
        weight = w_out[:, None] * (t - outer[:, None]) * w_in * (t - inner)
        for first, second in ((inner, outer[:, None]), (outer[:, None], inner)):
            _, d = corr_traces(EE, EE, first, charge.r0, second, charge.r0, params, part="rad")
            total += np.sum(weight * d)
    return charge.q**2 / charge.m**2 * 2.0 * total.real


# --- photo-detection (photodetect) -----------------------------------------------


def contraction(cfg, part):
    """d . E(x) for the detector: the contraction of its dipole with the field coefficient."""
    return complex(cfg.dvec @ field_coeff(EE, cfg.position, cfg.source, part))


def detection_rate_g(t, cfg, part):
    """``rate_g`` of ``photodetect.suppression_report`` at t: the Glauber integrand
    over t' in [|x|, t], written out from ``atomdyn._pm_raw`` at the retarded
    times, by ``richardson_trapezoid`` at 2 560 intervals a period.

    Shares with the closed form: ``atomdyn._pm_raw`` (the ``atomdyn._terms`` list
    of <sigma+ sigma->) and ``fieldcoeffs.field_coeff``; it checks the integral
    over t' and the detector's phases.
    """
    p, x = cfg.source, cfg.r
    c2 = abs(contraction(cfg, part)) ** 2

    def integrand(tp):
        return 2.0 * c2 * atomdyn._pm_raw(t - x, tp - x, p) * np.exp(-1j * p.omega0 * (t - tp))

    return 2.0 * float(np.real(richardson_trapezoid(integrand, x, t, p.omega0, 2560)))


def detection_diff(t, cfg, part):
    """``diff`` (rate_C - rate_G) of ``photodetect.suppression_report`` at t: the
    advanced-wave integrand over t' in [0, t - 2|x|], written out from
    ``atomdyn._comm_raw``, by ``richardson_trapezoid`` at 2 560 intervals a period
    of its 2 omega0 carrier.

    Shares with the closed form: ``atomdyn._comm_raw`` (the ``atomdyn._terms`` list
    of the commutator) and ``fieldcoeffs.field_coeff``; it checks the integral
    over t', the gate at 2|x| and the detector's phases.
    """
    p, x = cfg.source, cfg.r
    coeff = np.conj(contraction(cfg, part)) ** 2

    def integrand(tp):
        return coeff * np.conj(atomdyn._comm_raw(tp + x, t - x, p)) * np.exp(-1j * p.omega0 * (t - tp))

    b = t - 2.0 * x
    return 2.0 * float(np.real(richardson_trapezoid(integrand, 0.0, b, 2.0 * p.omega0, 2560)))
