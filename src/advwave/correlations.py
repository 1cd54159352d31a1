"""Two-time, two-point field correlation tensors of a decaying dipole.

The tensor functions take two :class:`advwave.core.Event` batches whose shapes
broadcast to S, and return a plain complex array of shape S + (3, 3) over field
components i (first event) and j (second event), for field kinds X, Y in
{E, B}; a pair of single events gives one 3x3 tensor.  Writing
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
Every gate is a mask: a gated-out entry is an exact zero, and a term whose gate
is shut for the whole batch is never evaluated.  The atomic kernels take the
retarded and advanced times as they are, unclipped: they stay finite on the
negative or reversed times that a shut gate then zeroes.  Every function here
refuses observation times whose carrier phase 2 omega0 t reaches 2^53 rad, as
:mod:`advwave.core` states.

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
from .core import DipoleParams, Event, FieldKind, _check_carrier, _finite, _like, _norm3, _vec3
from .fieldcoeffs import _check_part, field_coeff

__all__ = [
    "corr_traces",
    "glauber_tensor",
    "delta_expect_tensor",
    "commutator_parts",
]


def _gated_terms(kind_x: FieldKind, kind_y: FieldKind, t, x, tp, y,
                 p: DipoleParams, part: str):
    """(coeffs, terms): coeffs() -> (Xc, Yc), and (gate, term) pairs for G and
    the two Delta terms, term(Xc, Yc) -> (left, right, factor).

    A term is outer(left, right) * factor where its gate holds, exactly zero
    elsewhere.  ``x`` and ``y`` are (..., 3) positions whose batch shapes
    broadcast with ``t`` and ``tp``.  The raw kernels take the retarded and
    advanced times as they are: they stay finite where a gate is shut, and only
    the evaluated product is masked.  Nothing but the gates is evaluated here.
    """
    _check_part(part)
    _check_carrier(p.omega0, t, tp)
    rx, ry = _norm3(x), _norm3(y)
    tr, ta, tr2, ta2 = t - rx, t + rx, tp - ry, tp + ry

    def coeffs():
        return field_coeff(kind_x, x, p, part), field_coeff(kind_y, y, p, part)

    def glauber(xc, yc):
        return 2.0 * xc, np.conj(yc), atomdyn._pm_raw(tr, tr2, p)

    def advanced_x(xc, yc):  # advanced time of the first event in the second's retarded past
        return kind_x.advanced_sign * xc, yc, atomdyn._comm_raw(ta, tr2, p)

    def advanced_y(xc, yc):  # and the mirror image
        return (kind_y.advanced_sign * np.conj(xc), np.conj(yc),
                np.conj(atomdyn._comm_raw(ta2, tr, p)))

    return coeffs, (((tr >= 0.0) & (tr2 >= 0.0), glauber), ((ta >= 0.0) & (tr2 >= ta), advanced_x),
                    ((ta2 >= 0.0) & (tr >= ta2), advanced_y))


def corr_traces(kind_x: FieldKind, kind_y: FieldKind, t, x, tp, y,
                params: DipoleParams, part: str = "full"):
    """Traces (g, delta) of G and <Delta> between (t, x) and (tp, y); C = g + delta.

    ``t`` and ``tp`` broadcast against each other (e.g. a column and a row of
    times); ``x`` and ``y`` are fixed 3-vectors.  Both results have the
    broadcast shape, Python complex numbers for scalar times, and are exactly
    zero outside their gates.
    """
    t, tp = _finite(t, "t"), _finite(tp, "tp")
    coeffs, terms = _gated_terms(kind_x, kind_y, t, _vec3(x, "x"), tp, _vec3(y, "y"), params, part)
    xc, yc = coeffs()
    g, d1, d2 = (_masked_trace(gate, *term(xc, yc)) for gate, term in terms)
    return _like((g, d1 + d2), t, tp)


def _masked_trace(gate, left, right, factor):
    factor *= left @ right  # in place saves a grid-sized copy; a term returns a fresh factor
    return np.where(gate, factor, 0.0j)


def _masked_outer(gate, left, right, factor):
    return np.where(gate[..., None, None],
                    left[..., :, None] * right[..., None, :] * factor[..., None, None], 0.0j)


def _tensor(coeffs, *terms) -> np.ndarray:
    """Sum of the masked outer-product terms, shape S + (3, 3).

    A gate shut across the whole batch costs no field evaluation.
    """
    vals = np.zeros(terms[0][0].shape + (3, 3), dtype=complex)
    open_terms = [(gate, term) for gate, term in terms if np.count_nonzero(gate)]
    if open_terms:
        xc, yc = coeffs()
        for gate, term in open_terms:
            vals = vals + _masked_outer(gate, *term(xc, yc))
    return vals


def glauber_tensor(kind_x: FieldKind, kind_y: FieldKind, ev_x: Event, ev_y: Event,
                   params: DipoleParams, part: str = "full") -> np.ndarray:
    """Normal-ordered (Glauber) source correlation tensor G, shape S + (3, 3)."""
    coeffs, (g, _, _) = _gated_terms(kind_x, kind_y, ev_x.t, ev_x.x, ev_y.t, ev_y.x, params, part)
    return _tensor(coeffs, g)


def delta_expect_tensor(kind_x: FieldKind, kind_y: FieldKind, ev_x: Event, ev_y: Event,
                        params: DipoleParams, part: str = "full") -> np.ndarray:
    """Expectation of the advanced-wave correction Delta = C - G, shape S + (3, 3).

    Nonzero only when one event's *advanced* source time falls inside the other
    event's retarded past; at equal observation times it vanishes identically.
    """
    coeffs, (_, d1, d2) = _gated_terms(kind_x, kind_y, ev_x.t, ev_x.x, ev_y.t, ev_y.x, params, part)
    return _tensor(coeffs, d1, d2)


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
    _check_part(part)
    _check_carrier(params.omega0, ev_x.t, ev_y.t)
    tr, ta = ev_x.t_ret, ev_x.t_adv
    tr2, ta2 = ev_y.t_ret, ev_y.t_adv
    comm = atomdyn._comm_raw
    coeffs = functools.cache(lambda: (field_coeff(kind_x, ev_x.x, params, part),
                                      field_coeff(kind_y, ev_y.x, params, part)))

    def source_source(xc, yc):  # the hermitian reflection of the ordered kernel
        ordered = comm(np.minimum(tr, tr2), np.maximum(tr, tr2), params)
        return np.conj(xc), yc, np.where(tr <= tr2, ordered, np.conj(ordered))

    return (_tensor(coeffs, ((tr >= 0.0) & (tr2 >= 0.0), source_source)),
            _tensor(coeffs,  # vac_source: the vacuum part at the first event
                    ((tr >= 0.0) & (tr2 >= tr), lambda xc, yc: (-np.conj(xc), yc, comm(tr, tr2, params))),
                    ((ta >= 0.0) & (tr2 >= ta),
                     lambda xc, yc: (kind_x.advanced_sign * xc, yc, comm(ta, tr2, params)))),
            _tensor(coeffs,  # source_vac: the vacuum part at the second event
                    ((tr2 >= 0.0) & (tr >= tr2),
                     lambda xc, yc: (-np.conj(xc), yc, np.conj(comm(tr2, tr, params)))),
                    ((ta2 >= 0.0) & (tr >= ta2),
                     lambda xc, yc: (kind_y.advanced_sign * np.conj(xc), np.conj(yc),
                                     np.conj(comm(ta2, tr, params))))))
