"""Internal quadrature helpers: node counts that resolve an optical oscillation, trapezoid weights."""
from __future__ import annotations

import numpy as np

_MIN_INTERVALS = 32


def n_for_oscillation(omega: float, a: float, b: float, per_period: int) -> int:
    """Interval count resolving exp(i omega t) on [a, b] at per_period points (at least 32)."""
    if b <= a:
        return _MIN_INTERVALS
    periods = abs(omega) * (b - a) / (2.0 * np.pi)
    n = int(np.ceil(per_period * max(periods, 1.0)))
    return max(n + (n % 2), _MIN_INTERVALS)


def trapezoid_weights(a: float, b: float, n: int) -> np.ndarray:
    """Weights of the n-interval trapezoid rule on the nodes linspace(a, b, n + 1)."""
    w = np.full(n + 1, (b - a) / n)
    w[0] = w[-1] = (b - a) / (2 * n)
    return w
