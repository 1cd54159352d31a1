"""Excitation rate of a point detector in the field of a decaying dipole.

To second order, the excitation probability of a ground-state detector with
transition dipole dd at position x grows at a rate obtained by convolving a
field correlation tensor with the detector's free phase:

    rate_K(t) = dd_i dd_j Int_0^t K_EiEj(t, x | t', x) exp(-i w0 (t - t')) dt'
                + c.c.

With K = G (normal-ordered) the integrand's optical phases cancel exactly and
the rate is the usual photo-detection signal.  With K = C = G + <Delta> the
advanced-wave correction contributes only through its second gate, which opens
at t' <= t - 2|x|; its integrand oscillates at 2 w0 in t', so the correction
is suppressed by ~ gamma/w0 relative to the Glauber rate -- and vanishes
*identically* for t < 2|x|, before a reflected vacuum fluctuation can close
the round trip.  Both facts are exercised by tests.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import atomdyn
from ._quad import n_for_oscillation, refined_trapezoid
from .core import DipoleParams, _vec3
from .fieldcoeffs import coeffs_two_level

__all__ = ["DetectorConfig", "detection_rate_G", "detection_rate_C", "suppression_report", "SuppressionReport"]


@dataclass(frozen=True)
class DetectorConfig:
    """Detector position and transition dipole; ``dipole=None`` copies the source's."""

    position: np.ndarray
    source: DipoleParams
    dipole: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "position", _vec3(self.position, "position"))
        if float(np.linalg.norm(self.position)) == 0.0:
            raise ValueError("detector cannot sit on the dipole")
        if self.dipole is not None:
            object.__setattr__(self, "dipole", _vec3(self.dipole, "dipole"))

    @property
    def r(self) -> float:
        return float(np.linalg.norm(self.position))

    @property
    def dvec(self) -> np.ndarray:
        return self.dipole if self.dipole is not None else self.source.dvec


def _contractions(cfg: DetectorConfig, part: str):
    if part not in ("full", "rad"):
        raise ValueError(f"part must be 'full' or 'rad', got {part!r}")
    cs = coeffs_two_level(cfg.position, cfg.source)
    return complex(cfg.dvec @ (cs.e_coeff if part == "full" else cs.e_rad))


def detection_rate_G(t: float, cfg: DetectorConfig, part: str = "full",
                     per_period: int = 160) -> float:
    """Glauber-kernel detection rate at time t (zero until light arrives)."""
    p = cfg.source
    x = cfg.r
    c2 = abs(_contractions(cfg, part)) ** 2  # validates ``part`` before the gate
    if t <= x:
        return 0.0

    def integrand(tp):
        return 2.0 * c2 * atomdyn._pm_raw(t - x, tp - x, p) * np.exp(-1j * p.omega0 * (t - tp))

    n = n_for_oscillation(p.omega0, x, t, per_period)
    val = refined_trapezoid(integrand, x, t, n)
    return 2.0 * float(np.real(val))


def detection_rate_C(t: float, cfg: DetectorConfig, part: str = "full",
                     per_period: int = 160) -> float:
    """Full-kernel (C = G + <Delta>) detection rate at time t.

    The first advanced gate (t' >= t + 2|x|) never overlaps the integration
    range [0, t]; only the second (t' <= t - 2|x|) contributes.
    """
    p = cfg.source
    x = cfg.r
    rate = detection_rate_G(t, cfg, part, per_period)
    b = t - 2.0 * x
    if b < 0.0:
        return rate
    coeff = np.conj(_contractions(cfg, part)) ** 2

    def integrand(tp):
        return coeff * np.conj(atomdyn._comm_raw(tp + x, t - x, p)) * np.exp(-1j * p.omega0 * (t - tp))

    n = n_for_oscillation(2.0 * p.omega0, 0.0, b, per_period)
    val = refined_trapezoid(integrand, 0.0, b, n)
    return rate + 2.0 * float(np.real(val))


@dataclass(frozen=True)
class SuppressionReport:
    """Glauber vs full detection rates on a time grid."""

    times: np.ndarray
    rate_g: np.ndarray
    rate_c: np.ndarray

    @property
    def diff(self) -> np.ndarray:
        return self.rate_c - self.rate_g

    @property
    def max_ratio(self) -> float:
        """max |rate_c - rate_g| / max rate_g over the grid."""
        peak = float(np.max(np.abs(self.rate_g)))
        if peak == 0.0:
            return 0.0
        return float(np.max(np.abs(self.diff))) / peak


def suppression_report(cfg: DetectorConfig, t_grid, part: str = "full",
                       per_period: int = 160) -> SuppressionReport:
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("t_grid must be a 1-d array of times")
    rg = np.array([detection_rate_G(t, cfg, part, per_period) for t in times])
    rc = np.array([detection_rate_C(t, cfg, part, per_period) for t in times])
    return SuppressionReport(times=times, rate_g=rg, rate_c=rc)
