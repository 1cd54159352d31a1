"""Excitation rate of a point detector in the field of a decaying dipole.

To second order, the excitation probability of a ground-state detector with
transition dipole dd at position x grows at a rate obtained by convolving a
field correlation tensor with the detector's free phase:

    rate_K(t) = dd_i dd_j Int_0^t K_EiEj(t, x | t', x) exp(-i w0 (t - t')) dt'
                + c.c.

Both integrands are gated sums of complex exponentials, so both integrals are
moments Int_0^b e^{lam s - shift} ds from `kinetics._moments`.  Write
c = dd . X (X the full or the radiation-zone electric coefficient, by
``part``), tau = t - |x| and b = t - 2|x|.

With K = G (normal-ordered) the gate is t' in [|x|, t] and the integrand's
optical phases cancel exactly, exp(i w0 (t - t')) exp(-i w0 (t - t')) = 1,
leaving a pure decay:

    rate_G(t) = 4 |c|^2 M0(-gamma/2, tau, shift = gamma tau/2)    (tau >= 0),

that is (8 |c|^2 / gamma) exp(-gamma tau / 2) (1 - exp(-gamma tau / 2)), and
0 before light arrives.  With K = C = G + <Delta> the advanced-wave
correction contributes only through its second gate, t' in [0, b]; its
integrand oscillates at 2 w0 in t'.  Counted back from the gate's end,
s = b - t', and with a+- = 2 i w0 +- gamma/2,

    rate_C - rate_G = 2 Re{ conj(c)^2 e^{-2i w0 |x|} [ M0(-a+, b)
                               - 2 M0(-a-, b, shift = gamma (b + |x|)) ] }

for b >= 0.  The detector phase and the carrier are already combined into
e^{-2i w0 |x|}, so the only optical phase left is 2 w0 b inside the moments,
which `kinetics._exp` takes exactly to rounding; and the growing envelope of
-a- is merged with its decay into the shift, so nothing overflows.  Through
the 1/|a+-| of the moments the correction is suppressed by ~ gamma/w0
relative to the Glauber rate -- and it vanishes *identically* for t < 2|x|,
before a reflected vacuum fluctuation can close the round trip.  The tests
check both forms against a Richardson trapezoid of the original integrands.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DipoleParams, FieldKind, _gated, _vec3
from .fieldcoeffs import field_coeff
from .kinetics import _exp, _moment_sum, _moments

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


def _rates(times: np.ndarray, cfg: DetectorConfig, part: str):
    """Closed-form (rate_G, rate_C - rate_G) at every time of a 1-d float array."""
    # field_coeff checks ``part`` before any gate
    c = complex(cfg.dvec @ field_coeff(FieldKind.ELECTRIC, cfg.position, cfg.source, part))
    x, g, w0 = cfg.r, cfg.source.gamma, cfg.source.omega0
    tau, on_g = _gated(times, x)
    b, on_c = _gated(times, 2.0 * x)
    rate_g = np.where(on_g, 4.0 * abs(c) ** 2 * _moments(-g / 2.0, tau, g * tau / 2.0, 0)[0], 0.0)
    moments = _moment_sum(((complex(-g / 2.0, -2.0 * w0), 0.0, (1.0,)),
                           (complex(g / 2.0, -2.0 * w0), g * (b + x), (-2.0,))), b)
    diff = 2.0 * np.real(np.conj(c) ** 2 * _exp(-2j * w0, x) * moments)
    return rate_g, np.where(on_c, diff, 0.0)


def detection_rate_G(t: float, cfg: DetectorConfig, part: str = "full") -> float:
    """Glauber-kernel detection rate at time t (zero until light arrives)."""
    return float(_rates(np.array([t], dtype=float), cfg, part)[0][0])


def detection_rate_C(t: float, cfg: DetectorConfig, part: str = "full") -> float:
    """Full-kernel (C = G + <Delta>) detection rate at time t.

    The first advanced gate (t' >= t + 2|x|) never overlaps the integration
    range [0, t]; only the second (t' <= t - 2|x|) contributes.
    """
    rate_g, diff = _rates(np.array([t], dtype=float), cfg, part)
    return float((rate_g + diff)[0])


@dataclass(frozen=True)
class SuppressionReport:
    """Glauber vs full detection rates on a time grid: ``diff`` is rate_C - rate_G
    as computed, not a difference of two rounded rates, and ``rate_c`` is rate_g + diff."""

    times: np.ndarray
    rate_g: np.ndarray
    diff: np.ndarray

    @property
    def rate_c(self) -> np.ndarray:
        return self.rate_g + self.diff

    @property
    def max_ratio(self) -> float:
        """max |diff| / max |rate_g| over the grid."""
        peak = float(np.max(np.abs(self.rate_g)))
        if peak == 0.0:
            return 0.0
        return float(np.max(np.abs(self.diff))) / peak


def suppression_report(cfg: DetectorConfig, t_grid, part: str = "full") -> SuppressionReport:
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("t_grid must be a 1-d array of times")
    rg, diff = _rates(times, cfg, part)
    return SuppressionReport(times=times, rate_g=rg, diff=diff)
