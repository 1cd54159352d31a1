"""Shared value types: dipole parameters, spacetime events, field kinds.

Natural units throughout the package: hbar = c = epsilon_0 = 1.  Every time,
frequency and length is therefore expressed in one unit (inverse seconds, say),
and the free-space decay rate of a two-level dipole obeys

    gamma = omega0**3 * |d|**2 / (3 * pi).

Complex 3-vectors and 3x3 tensors are plain ``numpy`` arrays; no wrapper types.
An :class:`Event` holds a batch of spacetime points: times of shape S and
positions of shape S + (3,), where a single event is the batch of shape ().
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DipoleParams",
    "Event",
    "FieldKind",
]

_GAMMA_REL_TOL = 1e-12
_MARKOV_RATIO_WARN = 0.1


def _omega0_cubed(omega0) -> float:
    """omega0**3 as a float; ValueError, not OverflowError, when it overflows."""
    try:
        return float(omega0) ** 3
    except OverflowError:
        raise ValueError(f"omega0 = {float(omega0):.6g} is too large: omega0^3 overflows") from None


def _vecs3(value, name: str) -> np.ndarray:
    """A read-only copy of ``value`` as finite 3-vectors, shape (..., 3)."""
    arr = np.array(value, dtype=float)
    if arr.shape[-1:] != (3,):
        raise ValueError(f"{name} must hold 3-vectors along its last axis, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _vec3(value, name: str) -> np.ndarray:
    arr = _vecs3(value, name)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    return arr


def _norm3(x: np.ndarray):
    """|x| over the last axis: the same bits as ``np.linalg.norm`` of one 3-vector."""
    return np.sqrt(np.vecdot(x, x))


class FieldKind(Enum):
    """Which Maxwell field a coefficient or correlator slot refers to."""

    ELECTRIC = "E"
    MAGNETIC = "B"

    @property
    def advanced_sign(self) -> int:
        """Sign (-1)**alpha carried by the advanced-wave terms."""
        return 1 if self is FieldKind.ELECTRIC else -1


@dataclass(frozen=True)
class DipoleParams:
    """Two-level emitter: transition frequency, decay rate, dipole vector.

    ``gamma`` may be chosen independently of ``dvec`` for parameter scans;
    ``consistent`` records whether the free-space relation
    gamma = omega0**3 |d|**2 / (3 pi) holds.  The named constructor
    :meth:`from_rates` always produces a consistent parameter set, and every
    cross-check in the test-suite uses it.
    Every path that forms omega0**3 raises ``ValueError`` when it overflows.
    """

    omega0: float
    gamma: float
    dvec: np.ndarray
    consistent: bool = False

    def __post_init__(self):
        if not (self.omega0 > 0.0 and np.isfinite(self.omega0)):
            raise ValueError(f"omega0 must be positive and finite, got {self.omega0}")
        if not (self.gamma > 0.0 and np.isfinite(self.gamma)):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        object.__setattr__(self, "dvec", _vec3(self.dvec, "dvec"))
        if self.consistent:
            derived = _omega0_cubed(self.omega0) * self.d_abs2 / (3.0 * np.pi)
            if abs(derived - self.gamma) > _GAMMA_REL_TOL * self.gamma:
                raise ValueError(
                    "inconsistent parameters: gamma = "
                    f"{self.gamma!r} but omega0^3 |d|^2 / 3pi = {derived!r}"
                )
        ratio = self.gamma / self.omega0
        if ratio > _MARKOV_RATIO_WARN:
            warnings.warn(
                f"gamma/omega0 = {ratio:.3g} > {_MARKOV_RATIO_WARN}: the Markov / "
                "rotating-wave closed forms used throughout are unreliable here",
                stacklevel=3,
            )

    @classmethod
    def from_rates(cls, omega0: float, gamma: float, direction=(0.0, 0.0, 1.0)) -> "DipoleParams":
        """Build with |d| derived from (omega0, gamma) along ``direction``."""
        n = _vec3(direction, "direction")
        norm = np.linalg.norm(n)
        if norm == 0.0:
            raise ValueError("direction must be nonzero")
        d_abs = np.sqrt(3.0 * np.pi * float(gamma) / _omega0_cubed(omega0))
        return cls(omega0=float(omega0), gamma=float(gamma), dvec=n / norm * d_abs, consistent=True)

    @property
    def d_abs2(self) -> float:
        """|d|^2."""
        return float(self.dvec @ self.dvec)


@dataclass(frozen=True)
class Event:
    """Spacetime points (t, x) relative to a dipole fixed at the origin.

    ``t`` has a batch shape S and ``x`` the shape S + (3,); a single event is
    the batch of shape (), with ``t`` a scalar and ``x`` a 3-vector.  ``r``,
    ``t_ret`` and ``t_adv`` have the shape S.  Positions may sit at the dipole;
    ``field_coeff`` refuses them, so a tensor call raises once it needs their
    coefficients.
    """

    t: float | np.ndarray
    x: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        if not np.isfinite(t).all():
            raise ValueError("t must be finite")
        x = _vecs3(self.x, "x")
        if x.shape != t.shape + (3,):
            raise ValueError(f"x must have shape {t.shape + (3,)} to match t, got {x.shape}")
        t.flags.writeable = False
        object.__setattr__(self, "t", t[()])  # a scalar for the batch of shape ()
        object.__setattr__(self, "x", x)

    @property
    def r(self):
        """Distance |x| from the dipole."""
        return _norm3(self.x)

    @property
    def t_ret(self):
        """Retarded time t - |x| (source time on the past light cone)."""
        return self.t - self.r

    @property
    def t_adv(self):
        """Advanced time t + |x| (source time on the future light cone)."""
        return self.t + self.r
