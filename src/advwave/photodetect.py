"""Excitation rate of a point detector in the field of a decaying dipole.

To second order, the excitation probability of a ground-state detector with
transition dipole dd at position x grows at a rate obtained by convolving a
field correlation tensor with the detector's free phase:

    rate_K(t) = dd_i dd_j Int_0^t K_EiEj(t, x | t', x) exp(-i w0 (t - t')) dt'
                + c.c.

Both integrands are gated sums of complex exponentials, so both integrals are
moments Int_0^b e^{lam s - shift} ds from `kinetics._moments`.  The moment
groups are derived from `atomdyn`'s correlator term lists over the same two
gate segments the diffusion rates use (`kinetics._segments`, with the
detector frequency as the phase), not written here.  Write c = dd . X (X the
full or the radiation-zone electric coefficient, by ``part``), tau = t - |x|
and b = t - 2|x|.  The derivation gives the following forms.

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

from .core import DipoleParams, FieldKind, _check_carrier, _gated, _like, _vec3
from .fieldcoeffs import field_coeff
from .kinetics import _moment_sum, _segments

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


def _rates(times, cfg: DetectorConfig, part: str):
    """Closed-form (rate_G, rate_C - rate_G) at a time or an array of times.

    Each is 2 Re of its segment integral (`kinetics._segments`) of the
    correlator times the detector phase e^{-i omega0 (t - t')}, with the
    contraction 2 |c|^2 for G and c^2 for the conjugated Delta.  At resonance
    every group's mu is real, so e^{mu w} enters its moment as the shift -mu w.
    """
    # field_coeff checks ``part`` before any gate
    c = complex(cfg.dvec @ field_coeff(FieldKind.ELECTRIC, cfg.position, cfg.source, part))
    _check_carrier(cfg.source.omega0, times)
    rates = []
    for gate, offset, groups in _segments(cfg.source, cfg.r, 4.0 * abs(c) ** 2, 2.0 * c**2, cfg.source.omega0):
        b, on = _gated(times, gate)
        total = _moment_sum(((lam, -mu * (b + offset), (g,)) for g, mu, lam in groups), b)
        rates.append(np.where(on, np.real(total), 0.0))
    return tuple(rates)


def detection_rate_G(t, cfg: DetectorConfig, part: str = "full"):
    """Glauber-kernel detection rate at time t (zero until light arrives)."""
    return _like(_rates(t, cfg, part)[0], t)


def detection_rate_C(t, cfg: DetectorConfig, part: str = "full"):
    """Full-kernel (C = G + <Delta>) detection rate at time t.

    The first advanced gate (t' >= t + 2|x|) never overlaps the integration
    range [0, t]; only the second (t' <= t - 2|x|) contributes.
    """
    return _like(np.add(*_rates(t, cfg, part)), t)


@dataclass(frozen=True)
class SuppressionReport:
    """Glauber vs full detection rates on a time grid: ``diff`` is rate_C - rate_G
    as computed, not a difference of two rounded rates, and ``rate_c`` is rate_g + diff."""

    rate_g: np.ndarray
    diff: np.ndarray

    @property
    def rate_c(self) -> np.ndarray:
        return self.rate_g + self.diff

    @property
    def max_ratio(self) -> float:
        """max |diff| / max |rate_g| over the grid."""
        peak = float(np.max(np.abs(self.rate_g)))
        return float(np.max(np.abs(self.diff))) / peak if peak else 0.0


def suppression_report(cfg: DetectorConfig, t_grid, part: str = "full") -> SuppressionReport:
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("t_grid must be a 1-d array of times")
    rg, diff = _rates(times, cfg, part)
    return SuppressionReport(rate_g=rg, diff=diff)
