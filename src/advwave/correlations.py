"""Two-time, two-point field correlation tensors of a decaying dipole.

The tensor functions return a plain 3x3 complex array over field components i
(first event) and j (second event), for field kinds X, Y in {E, B}.  Writing
t_r = t - |x| and t_a = t + |x| for the retarded/advanced source times of each
event and Xc(x), Yc(x') for the spatial coefficient vectors
(:func:`advwave.fieldcoeffs.field_coeff`), the implemented pieces are

  glauber_tensor       G_ij  = 2 Xc_i Yc*_j th(t_r) th(t_r') <s+(t_r) s-(t_r')>
  delta_expect_tensor  D_ij  = (-1)^aX Xc_i Yc_j  th(t_r'-t_a) th(t_r') th(t_a)  <[s-(t_a), s+(t_r')]>
                             + (-1)^aY Xc*_i Yc*_j th(t_r-t_a') th(t_r) th(t_a') <[s-(t_r), s+(t_a')]>
  corr_traces          the traces of G and D on broadcast time arrays; the
                       detector-ordered correlation is C = G + D
  commutator_parts     (source_source, vac_source, source_vac):
                       source_source = Xc*_i Yc_j th(t_r) th(t_r') <[s-(t_r), s+(t_r')]>,
                       and the two vacuum-source cross commutators, whose
                       retarded parts cancel the source-source term and whose
                       advanced parts build D_ij.

The gates of G and D are written once, for ``corr_traces`` and the tensor functions;
``commutator_parts`` keeps its own as the independent side of the identity below.

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

import numpy as np

from . import atomdyn
from .core import DipoleParams, Event, FieldKind, _vec3
from .fieldcoeffs import _check_part, field_coeff

__all__ = [
    "corr_traces",
    "glauber_tensor",
    "delta_expect_tensor",
    "commutator_parts",
]


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
    coeffs = functools.cache(lambda: (field_coeff(kind_x, x, p, part),
                                      field_coeff(kind_y, y, p, part)))

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
                   params: DipoleParams, part: str = "full") -> np.ndarray:
    """Normal-ordered (Glauber) source correlation tensor G."""
    g, _, _ = _gated_terms(kind_x, kind_y, ev_x.t, ev_x.x, ev_y.t, ev_y.x, params, part)
    return _tensor(g)


def delta_expect_tensor(kind_x: FieldKind, kind_y: FieldKind, ev_x: Event, ev_y: Event,
                        params: DipoleParams, part: str = "full") -> np.ndarray:
    """Expectation of the advanced-wave correction Delta = C - G.

    Nonzero only when one event's *advanced* source time falls inside the other
    event's retarded past; at equal observation times it vanishes identically.
    """
    _, d1, d2 = _gated_terms(kind_x, kind_y, ev_x.t, ev_x.x, ev_y.t, ev_y.x, params, part)
    return _tensor(d1, d2)


def commutator_parts(kind_x: FieldKind, kind_y: FieldKind, ev_x: Event, ev_y: Event,
                     params: DipoleParams,
                     part: str = "full") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(source_source, vac_source, source_vac) commutator tensors; their sum is <Delta>.

    source_source is <[X_s^(+), Y_s^(-)]> between the two source-field parts;
    vac_source <[X_0^(+), Y_s^(-)]> and source_vac <[X_s^(+), Y_0^(-)]> take the
    vacuum part at the first and at the second event.  Each cross term splits
    into a retarded term, which cancels against source_source, and an
    advanced-wave term, which survives into ``delta_expect_tensor``.
    """
    xc = field_coeff(kind_x, ev_x.x, params, part)
    yc = field_coeff(kind_y, ev_y.x, params, part)
    tr, ta = ev_x.t_ret, ev_x.t_adv
    tr2, ta2 = ev_y.t_ret, ev_y.t_adv
    ret = np.outer(np.conj(xc), yc)
    source_source, vac_source, source_vac = (np.zeros((3, 3), dtype=complex) for _ in range(3))
    if tr >= 0.0 and tr2 >= 0.0:
        comm = atomdyn._comm_raw(min(tr, tr2), max(tr, tr2), params)  # hermitian reflection
        source_source = ret * (comm if tr <= tr2 else np.conj(comm))
    if tr >= 0.0 and tr2 >= tr:
        vac_source = vac_source - ret * atomdyn._comm_raw(tr, tr2, params)
    if ta >= 0.0 and tr2 >= ta:
        vac_source = vac_source + kind_x.advanced_sign * np.outer(xc, yc) * atomdyn._comm_raw(ta, tr2, params)
    if tr2 >= 0.0 and tr >= tr2:
        source_vac = source_vac - ret * np.conj(atomdyn._comm_raw(tr2, tr, params))
    if ta2 >= 0.0 and tr >= ta2:
        source_vac = source_vac + kind_y.advanced_sign * np.outer(np.conj(xc), np.conj(yc)) * np.conj(
            atomdyn._comm_raw(ta2, tr, params)
        )
    return source_source, vac_source, source_vac
