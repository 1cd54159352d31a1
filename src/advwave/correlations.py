"""Two-time, two-point field correlation tensors of a decaying dipole.

The tensor functions return a 3x3 complex tensor over field components i
(first event) and j (second event), for field kinds X, Y in {E, B}.  Writing
t_r = t - |x| and t_a = t + |x| for the retarded/advanced source times of each
event and Xc(x), Yc(x') for the spatial coefficient vectors
(:mod:`advwave.fieldcoeffs`), the implemented pieces are

  glauber_tensor          G_ij  = 2 Xc_i Yc*_j th(t_r) th(t_r') <s+(t_r) s-(t_r')>
  delta_expect_tensor     D_ij  = (-1)^aX Xc_i Yc_j  th(t_r'-t_a) th(t_r') th(t_a)  <[s-(t_a), s+(t_r')]>
                                + (-1)^aY Xc*_i Yc*_j th(t_r-t_a') th(t_r) th(t_a') <[s-(t_r), s+(t_a')]>
  c_tensor                C_ij  = G_ij + D_ij
  corr_traces             the traces of G and D on broadcast time arrays
  source_source_commutator       Xc*_i Yc_j th(t_r) th(t_r') <[s-(t_r), s+(t_r')]>
  vac_source_commutator_expect   the vacuum-source cross commutators; their
                                 retarded parts cancel the source-source term
                                 and their advanced parts build D_ij.

The gates of G and D are written once, for ``corr_traces`` and the tensor functions;
the commutators keep their own as the independent side of the identity below.

th is the unit step with th(0) := 1, so all support boundaries are inclusive.
With that convention the cancellation identity

  source_source + vac_source + source_vac == delta_expect

holds exactly except on the measure-zero coincidence surface t_r == t_r'
(where the step weights add to -1 instead of 0); the identity is exercised on
random off-surface inputs in the tests.

Commutator expectations with reversed time order are obtained from hermiticity,
<[s-(u), s+(v)]> = conj(<[s-(v), s+(u)]>), which is an operator identity.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import atomdyn, fieldcoeffs
from .core import DipoleParams, Event, FieldKind, _vec3

__all__ = [
    "CorrLabel",
    "CorrTensor",
    "corr_traces",
    "glauber_tensor",
    "delta_expect_tensor",
    "c_tensor",
    "source_source_commutator",
    "vac_source_commutator_expect",
    "vacuum_wightman_trace",
]


class CorrLabel(Enum):
    GLAUBER = "G"
    DELTA_EXPECT = "DeltaExpect"
    C_FULL = "C"
    SOURCE_SOURCE = "SourceSource"
    VAC_SOURCE = "VacSource"
    SOURCE_VAC = "SourceVac"


@dataclass(frozen=True)
class CorrTensor:
    """A labelled 3x3 correlation tensor between two field observations."""

    label: CorrLabel
    kind_x: FieldKind
    kind_y: FieldKind
    ev_x: Event
    ev_y: Event
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=complex)
        if arr.shape != (3, 3):
            raise ValueError("values must be a 3x3 tensor")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.values))


def _check_part(part: str) -> None:
    if part not in ("full", "rad"):
        raise ValueError(f"part must be 'full' or 'rad', got {part!r}")


def _coeff(kind: FieldKind, x, p: DipoleParams, part: str) -> np.ndarray:
    _check_part(part)
    cs = fieldcoeffs.coeffs_two_level(x, p)
    if part == "full":
        return cs.e_coeff if kind is FieldKind.ELECTRIC else cs.b_coeff
    return cs.e_rad if kind is FieldKind.ELECTRIC else cs.b_rad


def _gated_terms(kind_x: FieldKind, kind_y: FieldKind, t, x, tp, y,
                 p: DipoleParams, part: str):
    """(gate, term) pairs for G and the two Delta terms; term() -> (left, right, factor).

    A term is outer(left, right) * factor where its gate holds, exactly zero
    elsewhere.  Times broadcast and are clipped to >= 0 per axis, so the raw
    kernels f(u) h(v) evaluate each exponential once per axis and only their
    product is masked.  Nothing is evaluated before a term is called.
    """
    _check_part(part)
    rx, ry = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    tr, ta, tr2, ta2 = t - rx, t + rx, tp - ry, tp + ry
    u, v = np.maximum(tr, 0.0), np.maximum(tr2, 0.0)
    coeffs = functools.cache(lambda: (_coeff(kind_x, x, p, part), _coeff(kind_y, y, p, part)))

    def glauber():
        xc, yc = coeffs()
        return 2.0 * xc, np.conj(yc), atomdyn._pm_raw(u, v, p)

    def advanced_x():  # advanced time of the first event in the second's retarded past
        xc, yc = coeffs()
        return kind_x.advanced_sign * xc, yc, atomdyn._comm_raw(np.maximum(ta, 0.0), v, p)

    def advanced_y():  # and the mirror image
        xc, yc = coeffs()
        return (kind_y.advanced_sign * np.conj(xc), np.conj(yc),
                np.conj(atomdyn._comm_raw(np.maximum(ta2, 0.0), u, p)))

    return (((tr >= 0.0) & (tr2 >= 0.0), glauber), ((ta >= 0.0) & (tr2 >= ta), advanced_x),
            ((ta2 >= 0.0) & (tr >= ta2), advanced_y))


def corr_traces(kind_x: FieldKind, kind_y: FieldKind, t, x, tp, y,
                params: DipoleParams, part: str = "full"):
    """Traces (g, delta) of G and <Delta> between (t, x) and (tp, y); C = g + delta.

    ``t`` and ``tp`` broadcast against each other (e.g. a column and a row of
    times); ``x`` and ``y`` are fixed 3-vectors.  Both results have the
    broadcast shape and are exactly zero outside their gates.
    """
    t, tp = np.asarray(t, dtype=float), np.asarray(tp, dtype=float)
    g, d1, d2 = (_masked_trace(gate, term) for gate, term
                 in _gated_terms(kind_x, kind_y, t, _vec3(x, "x"), tp, _vec3(y, "y"), params, part))
    return g, d1 + d2


def _masked_trace(gate, term):
    left, right, factor = term()
    factor *= left @ right  # in place saves a grid-sized copy; term() returns a fresh factor
    return np.where(gate, factor, 0.0j)


def _tensor(*terms) -> np.ndarray:  # a shut gate costs no field evaluation
    vals = np.zeros((3, 3), dtype=complex)
    for gate, term in terms:
        if gate:
            left, right, factor = term()
            vals = vals + np.outer(left, right) * factor
    return vals


def glauber_tensor(kind_x: FieldKind, kind_y: FieldKind, ev_x: Event, ev_y: Event,
                   params: DipoleParams, part: str = "full") -> CorrTensor:
    """Normal-ordered (Glauber) source correlation tensor G."""
    g, _, _ = _gated_terms(kind_x, kind_y, ev_x.t, ev_x.x, ev_y.t, ev_y.x, params, part)
    return CorrTensor(CorrLabel.GLAUBER, kind_x, kind_y, ev_x, ev_y, _tensor(g))


def delta_expect_tensor(kind_x: FieldKind, kind_y: FieldKind, ev_x: Event, ev_y: Event,
                        params: DipoleParams, part: str = "full") -> CorrTensor:
    """Expectation of the advanced-wave correction Delta = C - G.

    Nonzero only when one event's *advanced* source time falls inside the other
    event's retarded past; at equal observation times it vanishes identically.
    """
    _, d1, d2 = _gated_terms(kind_x, kind_y, ev_x.t, ev_x.x, ev_y.t, ev_y.x, params, part)
    return CorrTensor(CorrLabel.DELTA_EXPECT, kind_x, kind_y, ev_x, ev_y, _tensor(d1, d2))


def c_tensor(kind_x: FieldKind, kind_y: FieldKind, ev_x: Event, ev_y: Event,
             params: DipoleParams, part: str = "full") -> CorrTensor:
    """Full detector-ordered correlation C = G + <Delta>."""
    g, d1, d2 = _gated_terms(kind_x, kind_y, ev_x.t, ev_x.x, ev_y.t, ev_y.x, params, part)
    return CorrTensor(CorrLabel.C_FULL, kind_x, kind_y, ev_x, ev_y, _tensor(g) + _tensor(d1, d2))


def source_source_commutator(kind_x: FieldKind, kind_y: FieldKind, ev_x: Event, ev_y: Event,
                             params: DipoleParams, part: str = "full") -> CorrTensor:
    """<[X_s^(+), Y_s^(-)]> between the two source-field parts."""
    _check_part(part)
    tr, tr2 = ev_x.t_ret, ev_y.t_ret
    vals = np.zeros((3, 3), dtype=complex)
    if tr >= 0.0 and tr2 >= 0.0:
        xc = _coeff(kind_x, ev_x.x, params, part)
        yc = _coeff(kind_y, ev_y.x, params, part)
        comm = atomdyn._comm_raw(min(tr, tr2), max(tr, tr2), params)  # hermitian reflection
        vals = np.outer(np.conj(xc), yc) * (comm if tr <= tr2 else np.conj(comm))
    return CorrTensor(CorrLabel.SOURCE_SOURCE, kind_x, kind_y, ev_x, ev_y, vals)


def vac_source_commutator_expect(direction: CorrLabel, kind_x: FieldKind, kind_y: FieldKind,
                                 ev_x: Event, ev_y: Event, params: DipoleParams,
                                 part: str = "full") -> CorrTensor:
    """Vacuum-source cross commutators <[X0^(+), Ys^(-)]> / <[Xs^(+), Y0^(-)]>.

    ``direction=CorrLabel.VAC_SOURCE`` takes the vacuum part at the first
    event; ``CorrLabel.SOURCE_VAC`` at the second.  Each splits into a retarded
    term (which cancels against ``source_source_commutator``) and an
    advanced-wave term (which survives into ``delta_expect_tensor``).
    """
    if direction not in (CorrLabel.VAC_SOURCE, CorrLabel.SOURCE_VAC):
        raise ValueError("direction must be CorrLabel.VAC_SOURCE or CorrLabel.SOURCE_VAC")
    tr, ta = ev_x.t_ret, ev_x.t_adv
    tr2, ta2 = ev_y.t_ret, ev_y.t_adv
    xc = _coeff(kind_x, ev_x.x, params, part)
    yc = _coeff(kind_y, ev_y.x, params, part)
    vals = np.zeros((3, 3), dtype=complex)
    if direction is CorrLabel.VAC_SOURCE:
        if tr >= 0.0 and tr2 >= tr:
            vals = vals - np.outer(np.conj(xc), yc) * atomdyn._comm_raw(tr, tr2, params)
        if ta >= 0.0 and tr2 >= ta:
            vals = vals + kind_x.advanced_sign * np.outer(xc, yc) * atomdyn._comm_raw(ta, tr2, params)
    else:
        if tr2 >= 0.0 and tr >= tr2:
            vals = vals - np.outer(np.conj(xc), yc) * np.conj(atomdyn._comm_raw(tr2, tr, params))
        if ta2 >= 0.0 and tr >= ta2:
            vals = vals + kind_y.advanced_sign * np.outer(np.conj(xc), np.conj(yc)) * np.conj(
                atomdyn._comm_raw(ta2, tr, params)
            )
    return CorrTensor(direction, kind_x, kind_y, ev_x, ev_y, vals)


def vacuum_wightman_trace(ev_x: Event, ev_y: Event, cutoff: float) -> complex:
    """Trace of the free-vacuum electric two-point function, soft cutoff.

    Sum over i of <0| E_i(t, x) E_i(t', x') |0> with each mode damped by
    exp(-omega / cutoff).  Evaluates the regularized closed form

        (1 / (2 pi^2 r)) (1 / i) [1 / a^3 - 1 / b^3],
        a = 1/cutoff + i (dt - r),  b = 1/cutoff + i (dt + r),

    where dt = t - t', r = |x - x'|.  At r = 0 this tends to
    3 / (pi^2 (1/cutoff + i dt)^4); a two-term series is substituted for
    r << |1/cutoff + i dt| to avoid cancellation.  For the cutoff-free limit
    pass ``cutoff=numpy.inf`` (singular exactly on the light cone).
    """
    if not cutoff > 0.0:
        raise ValueError("cutoff must be positive (may be numpy.inf)")
    dt = ev_x.t - ev_y.t
    r = float(np.linalg.norm(ev_x.x - ev_y.x))
    eps = 0.0 if np.isinf(cutoff) else 1.0 / cutoff
    base = eps + 1j * dt
    if r <= 1e-4 * abs(base):
        if base == 0.0:
            raise ValueError("coincident events need a finite cutoff")
        return complex(3.0 / (np.pi**2 * base**4) - 10.0 * r**2 / (np.pi**2 * base**6))
    a = base - 1j * r
    b = base + 1j * r
    if a == 0.0 or b == 0.0:
        raise ValueError("events on the light cone need a finite cutoff")
    return complex((1.0 / (2.0 * np.pi**2 * r)) * (1.0 / 1j) * (1.0 / a**3 - 1.0 / b**3))
