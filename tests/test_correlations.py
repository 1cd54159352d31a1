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
from advwave.fieldcoeffs import field_coeff

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


# --- batched events -----------------------------------------------------------

@st.composite
def event_batches(draw):
    """(shape, tx, x, ty, y): two batches of one shape, (n,) or (2, 3)."""
    shape = draw(st.sampled_from([(draw(st.integers(1, 6)),), (2, 3)]))
    size = int(np.prod(shape))

    def column(elements):
        return draw(st.lists(elements, min_size=size, max_size=size))

    tx, x, ty, y = column(obs_time), column(off_origin), column(obs_time), column(off_origin)
    # one pair on the edge of the second Delta gate: t_r == t_a'
    tx[0] = ty[0] + float(np.linalg.norm(x[0])) + float(np.linalg.norm(y[0]))
    return (shape, np.reshape(tx, shape), np.reshape(x, shape + (3,)),
            np.reshape(ty, shape), np.reshape(y, shape + (3,)))


def _assert_matches_per_event(batch, ref):
    # same exact zeros, and every entry within 1e-12 of the tensor's maximum
    assert np.array_equal(batch == 0.0, ref == 0.0)
    assert np.max(np.abs(batch - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=80, deadline=None)
@given(batches=event_batches(), kx=kind, ky=kind, part=st.sampled_from(("full", "rad")))
def test_batched_tensors_match_per_event_calls(batches, kx, ky, part):
    shape, tx, x, ty, y = batches
    ex, ey = Event(tx, x), Event(ty, y)
    fns = (glauber_tensor, delta_expect_tensor,
           *(lambda *a, k=k: commutator_parts(*a)[k] for k in range(3)))
    results = [fn(kx, ky, ex, ey, P, part) for fn in fns]
    coeffs = field_coeff(kx, x, P, part), field_coeff(ky, y, P, part)
    assert all(r.shape == shape + (3, 3) for r in results)
    assert all(c.shape == shape + (3,) for c in coeffs)
    for idx in np.ndindex(shape):
        one_x, one_y = Event(float(tx[idx]), x[idx]), Event(float(ty[idx]), y[idx])
        for fn, batch in zip(fns, results):
            _assert_matches_per_event(batch[idx], fn(kx, ky, one_x, one_y, P, part))
        _assert_matches_per_event(coeffs[0][idx], field_coeff(kx, x[idx], P, part))
        _assert_matches_per_event(coeffs[1][idx], field_coeff(ky, y[idx], P, part))


def test_scalar_events_broadcast_against_a_batch():
    x = np.array([0.5, 0.2, -0.1])
    ts = np.linspace(0.0, 4.0, 9)
    batch = Event(ts, np.broadcast_to(x, (9, 3)))
    got = delta_expect_tensor(FieldKind.ELECTRIC, FieldKind.MAGNETIC, batch, _event(0.3, x), P)
    assert got.shape == (9, 3, 3)
    for i, t in enumerate(ts):
        ref = delta_expect_tensor(FieldKind.ELECTRIC, FieldKind.MAGNETIC, _event(t, x), _event(0.3, x), P)
        assert np.array_equal(got[i] == 0.0, ref == 0.0)
        assert np.max(np.abs(got[i] - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=0.0)


@pytest.mark.parametrize("t,x", [
    (np.zeros(3), np.ones((2, 3))),                     # batch shapes disagree
    (np.zeros(2), np.ones((2, 2))),                     # not 3-vectors
    (np.array([0.0, np.inf]), np.ones((2, 3))),         # a non-finite time
    (np.zeros(2), np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])),  # a non-finite position
], ids=["shape", "not-3-vectors", "time", "position"])
def test_event_batch_validation(t, x):
    with pytest.raises(ValueError):
        Event(t, x)


def test_a_batch_with_a_position_at_the_dipole_raises():
    # the coefficients are singular there, so any open gate refuses the batch
    x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    ev = Event(np.array([5.0, 5.0]), x)
    for fn in (glauber_tensor, delta_expect_tensor, commutator_parts):
        with pytest.raises(ValueError, match="singular"):
            fn(FieldKind.ELECTRIC, FieldKind.ELECTRIC, ev, ev, P)
    with pytest.raises(ValueError, match="singular"):
        field_coeff(FieldKind.ELECTRIC, x, P, "full")


def test_a_shut_batch_evaluates_no_coefficient(monkeypatch):
    import advwave.correlations

    def no_coeff(*args, **kwargs):
        raise AssertionError("a field coefficient was evaluated")

    monkeypatch.setattr(advwave.correlations, "field_coeff", no_coeff)
    x = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.3, 0.3, 0.3]])
    early = Event(np.array([0.5, 1.9, 0.1]), x)   # t < |x| everywhere: nothing has arrived
    late = Event(np.array([5.0, 6.0, 7.0]), x)
    shut = [(glauber_tensor, a, b) for a, b in ((early, early), (early, late), (late, early))]
    # Delta also needs a round trip between the events, which equal times never make
    shut += [(delta_expect_tensor, early, early), (delta_expect_tensor, late, late)]
    for fn, a, b in shut:
        vals = fn(FieldKind.ELECTRIC, FieldKind.MAGNETIC, a, b, P)
        assert vals.shape == (3, 3, 3) and np.all(vals == 0.0)
