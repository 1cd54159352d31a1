"""Field correlation tensors: gating, hermiticity, reconstruction, broadcast traces."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from advwave.core import DipoleParams, Event, FieldKind
from advwave.correlations import (
    commutator_parts,
    corr_traces,
    delta_expect_tensor,
    glauber_tensor,
)

P = DipoleParams.from_rates(omega0=60.0, gamma=1.0)
KINDS = (FieldKind.ELECTRIC, FieldKind.MAGNETIC)

off_origin = st.tuples(
    st.floats(min_value=0.1, max_value=2.5),
    st.floats(min_value=-2.5, max_value=2.5),
    st.floats(min_value=-2.5, max_value=2.5),
)
obs_time = st.floats(min_value=0.0, max_value=8.0)
kind = st.sampled_from(KINDS)


def _event(t, x):
    return Event(t=t, x=np.array(x))


def test_glauber_gating_exact():
    ev_open = _event(5.0, (1.0, 0.0, 0.0))
    ev_shut = _event(0.3, (1.0, 0.0, 0.0))  # t < |x|: nothing has arrived yet
    assert np.all(glauber_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, ev_shut, ev_open, P) == 0.0)
    assert np.all(glauber_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, ev_open, ev_shut, P) == 0.0)
    assert np.any(glauber_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, ev_open, ev_open, P) != 0.0)


@settings(max_examples=120, deadline=None)
@given(t=obs_time, x=off_origin, k=kind)
def test_glauber_diagonal_positive(t, x, k):
    ev = _event(t, x)
    tr = np.trace(glauber_tensor(k, k, ev, ev, P))
    assert tr.imag == pytest.approx(0.0, abs=1e-13 * max(abs(tr), 1.0))
    assert tr.real >= 0.0


@settings(max_examples=120, deadline=None)
@given(tx=obs_time, ty=obs_time, x=off_origin, y=off_origin, kx=kind, ky=kind)
def test_glauber_hermiticity(tx, ty, x, y, kx, ky):
    a = glauber_tensor(kx, ky, _event(tx, x), _event(ty, y), P)
    b = glauber_tensor(ky, kx, _event(ty, y), _event(tx, x), P)
    assert np.allclose(a, np.conj(b).T, rtol=0.0, atol=1e-12 * max(np.max(np.abs(a)), 1e-30))


@settings(max_examples=150, deadline=None)
@given(t=obs_time, x=off_origin, y=off_origin, kx=kind, ky=kind)
def test_delta_equal_time_zero(t, x, y, kx, ky):
    vals = delta_expect_tensor(kx, ky, _event(t, x), _event(t, y), P)
    assert np.all(vals == 0.0)


def test_delta_needs_round_trip():
    x = np.array([0.5, 0.0, 0.0])
    # second gate opens once t - t' >= 2 |x| with both events at the same point
    before = delta_expect_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, _event(1.3, x), _event(0.5, x), P)
    after = delta_expect_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, _event(1.7, x), _event(0.5, x), P)
    assert np.all(before == 0.0)
    assert np.any(after != 0.0)


@settings(max_examples=100, deadline=None)
@given(tx=obs_time, ty=obs_time, x=off_origin, y=off_origin, kx=kind, ky=kind)
def test_commutator_reconstruction(tx, ty, x, y, kx, ky):
    ex, ey = _event(tx, x), _event(ty, y)
    # the pointwise identity holds away from the measure-zero step-function
    # edges, where the theta(0) convention makes the pieces disagree
    cone_times = np.array([ex.t_ret, ex.t_adv, ey.t_ret, ey.t_adv, 0.0])
    gaps = np.abs(cone_times[:, None] - cone_times[None, :])
    assume(np.min(gaps[np.triu_indices(5, k=1)]) > 1e-6)
    total = sum(commutator_parts(kx, ky, ex, ey, P))
    ref = delta_expect_tensor(kx, ky, ex, ey, P)
    scale = max(np.max(np.abs(ref)), np.max(np.abs(total)), 1.0)
    assert np.max(np.abs(total - ref)) <= 1e-12 * scale


def test_retarded_parts_cancel_inside_the_round_trip():
    x = np.array([0.5, 0.0, 0.0])
    # both events past their retarded times, |t - t'| < 2|x|: no advanced gate is open
    ss, vs, sv = commutator_parts(FieldKind.ELECTRIC, FieldKind.MAGNETIC, _event(1.0, x), _event(1.6, x), P)
    assert np.any(ss != 0.0) and np.all(sv == 0.0)
    assert np.all(ss + vs == 0.0)


def test_part_validation():
    ev = _event(2.0, (1.0, 0, 0))
    early = _event(0.3, (1.0, 0, 0))  # t < |x|: every gate is shut
    e = FieldKind.ELECTRIC
    for a, b in ((ev, ev), (early, early), (early, ev)):
        for fn in (glauber_tensor, delta_expect_tensor, commutator_parts):
            with pytest.raises(ValueError, match="part"):
                fn(e, e, a, b, P, part="nearish")
        with pytest.raises(ValueError, match="part"):
            corr_traces(e, e, a.t, a.x, b.t, b.x, P, part="nearish")


# --- broadcast trace kernel ---------------------------------------------------

times = st.lists(st.floats(min_value=-0.5, max_value=8.0), min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(ts=times, tps=times, x=off_origin, y=off_origin, kx=kind, ky=kind,
       part=st.sampled_from(("full", "rad")))
def test_corr_traces_match_tensor_traces(ts, tps, x, y, kx, ky, part):
    # t = t' + |x| + |y| puts t_r on t_a': the edge of the second Delta gate
    ts = ts + [tps[0] + float(np.linalg.norm(y)) + float(np.linalg.norm(x))]
    g, d = corr_traces(kx, ky, np.array(ts)[:, None], x, np.array(tps)[None, :], y, P, part)
    assert g.shape == d.shape == (len(ts), len(tps))
    g0, d0 = corr_traces(kx, ky, ts[0], x, tps[0], y, P, part)  # scalar times
    assert g0.shape == d0.shape == ()
    for i, t in enumerate(ts):
        for j, tp in enumerate(tps):
            ex, ey = _event(t, x), _event(tp, y)
            pairs = ((g[i, j], glauber_tensor), (d[i, j], delta_expect_tensor))
            if i == j == 0:
                pairs += ((g0, glauber_tensor), (d0, delta_expect_tensor))
            for val, fn in pairs:
                ref = fn(kx, ky, ex, ey, P, part)
                # a gated-out tensor is an exact zero on both paths; a nonzero
                # tensor may still have a trace that cancels to rounding level
                # (E . B), which the tolerance below bounds
                if np.all(ref == 0.0):
                    assert val == 0.0
                assert abs(val - np.trace(ref)) <= 1e-14 * np.max(np.abs(ref))


def test_radiative_part_differs_from_full():
    ev = _event(2.0, (0.4, 0.0, 0.0))  # close in, near-zone terms matter
    full = np.trace(glauber_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, ev, ev, P, part="full"))
    rad = np.trace(glauber_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, ev, ev, P, part="rad"))
    assert abs(full - rad) > 1e-6 * abs(full)
