"""Internal quadrature helpers: refined trapezoid for oscillatory kernels."""
from __future__ import annotations

import numpy as np

_DEFAULT_PER_PERIOD = 160
_MIN_INTERVALS = 32


def refined_trapezoid(f, a: float, b: float, n: int):
    """Trapezoid on n intervals plus one Richardson step (Simpson-equivalent).

    ``f`` must accept a numpy array of nodes.  Returns 0 for b <= a.
    """
    if b <= a:
        return 0.0
    if n < 2:
        n = 2
    if n % 2:
        n += 1
    xs = np.linspace(a, b, n + 1)
    ys = np.asarray(f(xs))
    t_h = np.trapezoid(ys, xs)
    t_2h = np.trapezoid(ys[::2], xs[::2])
    return (4.0 * t_h - t_2h) / 3.0


def n_for_oscillation(omega: float, a: float, b: float,
                      per_period: int = _DEFAULT_PER_PERIOD,
                      n_min: int = _MIN_INTERVALS) -> int:
    """Interval count resolving exp(i omega t) on [a, b] at per_period points."""
    if b <= a:
        return n_min
    periods = abs(omega) * (b - a) / (2.0 * np.pi)
    n = int(np.ceil(per_period * max(periods, 1.0)))
    return max(n + (n % 2), n_min)

