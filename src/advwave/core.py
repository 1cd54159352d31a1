"""Shared value types and light-cone geometry.

Natural units throughout the package: hbar = c = epsilon_0 = 1.  Every time,
frequency and length is therefore expressed in one unit (inverse seconds, say),
and the free-space decay rate of a two-level dipole obeys

    gamma = omega0**3 * |d|**2 / (3 * pi).

Complex 3-vectors and 3x3 tensors are plain ``numpy`` arrays; no wrapper types.
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
    "greens_support",
]

_GAMMA_REL_TOL = 1e-12
_MARKOV_RATIO_WARN = 0.1


def _vec3(value, name: str, dtype=float) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


class FieldKind(Enum):
    """Which Maxwell field a coefficient or correlator slot refers to."""

    ELECTRIC = "E"
    MAGNETIC = "B"

    @property
    def parity_exponent(self) -> int:
        """Exponent alpha in the (-1)**alpha advanced-wave sign (E: 0, B: 1)."""
        return 0 if self is FieldKind.ELECTRIC else 1

    @property
    def advanced_sign(self) -> int:
        """Sign (-1)**alpha carried by the advanced-wave terms."""
        return 1 if self is FieldKind.ELECTRIC else -1


@dataclass(frozen=True)
class DipoleParams:
    """Two-level emitter: transition frequency, decay rate, dipole vector.

    ``gamma`` may be chosen independently of ``dvec`` for parameter scans;
    ``consistent`` records whether the free-space relation
    gamma = omega0**3 |d|**2 / (3 pi) holds.  The named constructors
    (:meth:`from_dipole`, :meth:`from_rates`) always produce consistent
    parameter sets, and every cross-check in the test-suite uses those.
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
            derived = self.omega0**3 * self.d_abs2 / (3.0 * np.pi)
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
    def from_dipole(cls, omega0: float, dvec) -> "DipoleParams":
        """Build with gamma derived from the dipole vector (always consistent)."""
        d = _vec3(dvec, "dvec")
        gamma = float(omega0) ** 3 * float(d @ d) / (3.0 * np.pi)
        return cls(omega0=float(omega0), gamma=gamma, dvec=d, consistent=True)

    @classmethod
    def from_rates(cls, omega0: float, gamma: float, direction=(0.0, 0.0, 1.0)) -> "DipoleParams":
        """Build with |d| derived from (omega0, gamma) along ``direction``."""
        n = _vec3(direction, "direction")
        norm = np.linalg.norm(n)
        if norm == 0.0:
            raise ValueError("direction must be nonzero")
        d_abs = np.sqrt(3.0 * np.pi * float(gamma) / float(omega0) ** 3)
        return cls(omega0=float(omega0), gamma=float(gamma), dvec=n / norm * d_abs, consistent=True)

    @property
    def d_abs2(self) -> float:
        """|d|^2."""
        return float(self.dvec @ self.dvec)


@dataclass(frozen=True)
class Event:
    """A spacetime point (t, x) relative to a dipole fixed at the origin."""

    t: float
    x: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.t):
            raise ValueError("t must be finite")
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", _vec3(self.x, "x"))

    @property
    def r(self) -> float:
        """Distance |x| from the dipole."""
        return float(np.linalg.norm(self.x))

    @property
    def t_ret(self) -> float:
        """Retarded time t - |x| (source time on the past light cone)."""
        return self.t - self.r

    @property
    def t_adv(self) -> float:
        """Advanced time t + |x| (source time on the future light cone)."""
        return self.t + self.r


def greens_support(kind: str, ev1: Event, ev2: Event, tol: float | None = None) -> bool:
    """Whether the free propagator connects two events on the chosen branch.

    ``kind="retarded"`` tests that ``ev2`` lies on the *forward* light cone of
    ``ev1`` (t2 - t1 = +|x2 - x1|, signal emitted at ev1 arrives at ev2);
    ``kind="advanced"`` tests the backward cone (t2 - t1 = -|x2 - x1|).  Hence
    ``greens_support("retarded", a, b) == greens_support("advanced", b, a)``.

    ``tol`` is the absolute slack on the cone condition; it defaults to
    1e-9 * max(1, |t1|, |t2|) to stay meaningful for both microscopic and
    order-one time scales.  Coincident events (zero spatial separation) have
    no well-defined cone and raise ``ValueError``.
    """
    if kind not in ("retarded", "advanced"):
        raise ValueError(f"kind must be 'retarded' or 'advanced', got {kind!r}")
    sep = np.asarray(ev2.x, dtype=float) - np.asarray(ev1.x, dtype=float)
    r = float(np.linalg.norm(sep))
    if r == 0.0:
        raise ValueError("coincident spatial points: light-cone support is singular")
    if tol is None:
        tol = 1e-9 * max(1.0, abs(ev1.t), abs(ev2.t))
    dt = ev2.t - ev1.t
    branch = r if kind == "retarded" else -r
    return bool(abs(dt - branch) <= tol)
