"""Field correlation tensors: gating, hermiticity, reconstruction, vacuum trace."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from advwave.core import DipoleParams, Event, FieldKind
from advwave.correlations import (
    CorrLabel,
    CorrTensor,
    c_tensor,
    corr_traces,
    delta_expect_tensor,
    glauber_tensor,
    source_source_commutator,
    vac_source_commutator_expect,
    vacuum_wightman_trace,
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


def test_labels():
    assert CorrLabel.GLAUBER.value == "G"
    assert CorrLabel.C_FULL.value == "C"
    assert {m.value for m in CorrLabel} >= {"DeltaExpect", "SourceSource", "VacSource", "SourceVac"}


def test_trace_property():
    t = CorrTensor(
        label=CorrLabel.GLAUBER,
        kind_x=FieldKind.ELECTRIC,
        kind_y=FieldKind.ELECTRIC,
        ev_x=_event(1.0, (1.0, 0, 0)),
        ev_y=_event(1.0, (1.0, 0, 0)),
        values=np.diag([1.0 + 2j, 3.0, -1j]),
    )
    assert t.trace == 4.0 + 1j


def test_glauber_gating_exact():
    ev_open = _event(5.0, (1.0, 0.0, 0.0))
    ev_shut = _event(0.3, (1.0, 0.0, 0.0))  # t < |x|: nothing has arrived yet
    assert np.all(glauber_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, ev_shut, ev_open, P).values == 0.0)
    assert np.all(glauber_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, ev_open, ev_shut, P).values == 0.0)
    assert np.any(glauber_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, ev_open, ev_open, P).values != 0.0)


@settings(max_examples=120, deadline=None)
@given(t=obs_time, x=off_origin, k=kind)
def test_glauber_diagonal_positive(t, x, k):
    ev = _event(t, x)
    tr = glauber_tensor(k, k, ev, ev, P).trace
    assert tr.imag == pytest.approx(0.0, abs=1e-13 * max(abs(tr), 1.0))
    assert tr.real >= 0.0


@settings(max_examples=120, deadline=None)
@given(tx=obs_time, ty=obs_time, x=off_origin, y=off_origin, kx=kind, ky=kind)
def test_glauber_hermiticity(tx, ty, x, y, kx, ky):
    a = glauber_tensor(kx, ky, _event(tx, x), _event(ty, y), P).values
    b = glauber_tensor(ky, kx, _event(ty, y), _event(tx, x), P).values
    assert np.allclose(a, np.conj(b).T, rtol=0.0, atol=1e-12 * max(np.max(np.abs(a)), 1e-30))


@settings(max_examples=150, deadline=None)
@given(t=obs_time, x=off_origin, y=off_origin, kx=kind, ky=kind)
def test_delta_equal_time_zero(t, x, y, kx, ky):
    vals = delta_expect_tensor(kx, ky, _event(t, x), _event(t, y), P).values
    assert np.all(vals == 0.0)


def test_delta_needs_round_trip():
    x = np.array([0.5, 0.0, 0.0])
    # second gate opens once t - t' >= 2 |x| with both events at the same point
    before = delta_expect_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, _event(1.3, x), _event(0.5, x), P)
    after = delta_expect_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, _event(1.7, x), _event(0.5, x), P)
    assert np.all(before.values == 0.0)
    assert np.any(after.values != 0.0)


@settings(max_examples=100, deadline=None)
@given(tx=obs_time, ty=obs_time, x=off_origin, y=off_origin, kx=kind, ky=kind)
def test_c_equals_g_plus_delta(tx, ty, x, y, kx, ky):
    ex, ey = _event(tx, x), _event(ty, y)
    c = c_tensor(kx, ky, ex, ey, P).values
    g = glauber_tensor(kx, ky, ex, ey, P).values
    d = delta_expect_tensor(kx, ky, ex, ey, P).values
    assert np.all(c == g + d)


@settings(max_examples=100, deadline=None)
@given(tx=obs_time, ty=obs_time, x=off_origin, y=off_origin, kx=kind, ky=kind)
def test_commutator_reconstruction(tx, ty, x, y, kx, ky):
    ex, ey = _event(tx, x), _event(ty, y)
    # the pointwise identity holds away from the measure-zero step-function
    # edges, where the theta(0) convention makes the pieces disagree
    cone_times = np.array([ex.t_ret, ex.t_adv, ey.t_ret, ey.t_adv, 0.0])
    gaps = np.abs(cone_times[:, None] - cone_times[None, :])
    assume(np.min(gaps[np.triu_indices(5, k=1)]) > 1e-6)
    total = (
        source_source_commutator(kx, ky, ex, ey, P).values
        + vac_source_commutator_expect(CorrLabel.VAC_SOURCE, kx, ky, ex, ey, P).values
        + vac_source_commutator_expect(CorrLabel.SOURCE_VAC, kx, ky, ex, ey, P).values
    )
    ref = delta_expect_tensor(kx, ky, ex, ey, P).values
    scale = max(np.max(np.abs(ref)), np.max(np.abs(total)), 1.0)
    assert np.max(np.abs(total - ref)) <= 1e-12 * scale


def test_vac_source_direction_validation():
    ev = _event(1.0, (1.0, 0, 0))
    with pytest.raises(ValueError, match="direction"):
        vac_source_commutator_expect(CorrLabel.GLAUBER, FieldKind.ELECTRIC, FieldKind.ELECTRIC, ev, ev, P)


def test_part_validation():
    ev = _event(2.0, (1.0, 0, 0))
    early = _event(0.3, (1.0, 0, 0))  # t < |x|: every gate is shut
    e = FieldKind.ELECTRIC
    for a, b in ((ev, ev), (early, early), (early, ev)):
        for fn in (glauber_tensor, delta_expect_tensor, c_tensor, source_source_commutator):
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
                if np.all(ref.values == 0.0):
                    assert val == 0.0
                assert abs(val - ref.trace) <= 1e-14 * np.max(np.abs(ref.values))


def test_radiative_part_differs_from_full():
    ev = _event(2.0, (0.4, 0.0, 0.0))  # close in, near-zone terms matter
    full = glauber_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, ev, ev, P, part="full").trace
    rad = glauber_tensor(FieldKind.ELECTRIC, FieldKind.ELECTRIC, ev, ev, P, part="rad").trace
    assert abs(full - rad) > 1e-6 * abs(full)


# --- vacuum Wightman trace ---------------------------------------------------

# frozen values, independently cross-checked against the spectral quadrature
_WIGHTMAN_PINS = [
    (0.3, 0.7, 40.0, -1.1766715129130616 + 0.20387323249900258j),
    (1.1, 0.2, 25.0, 0.22872693166438957 + 0.035415970682307785j),
]


def _wightman_events(dt, r):
    return Event(t=dt, x=np.zeros(3)), Event(t=0.0, x=np.array([r, 0.0, 0.0]))


@pytest.mark.parametrize("dt,r,lam,expected", _WIGHTMAN_PINS)
def test_wightman_pinned_values(dt, r, lam, expected):
    ex, ey = _wightman_events(dt, r)
    assert vacuum_wightman_trace(ex, ey, cutoff=lam) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("dt,r,lam", [(0.3, 0.7, 40.0), (-0.9, 1.3, 15.0)])
def test_wightman_against_spectral_quadrature(dt, r, lam):
    # direct frequency integral of the transverse vacuum spectrum with the
    # same exponential cutoff
    w = np.linspace(1e-9, 45.0 * lam, 2_000_001)
    spec = w**3 * (np.sin(w * r) / (w * r)) * np.exp(-1j * w * dt) * np.exp(-w / lam)
    ref = np.trapezoid(spec, w) / (2.0 * np.pi**2)
    ex, ey = _wightman_events(dt, r)
    val = vacuum_wightman_trace(ex, ey, cutoff=lam)
    assert val == pytest.approx(ref, rel=1e-6)


def test_wightman_equal_time_limit():
    # dt = 0, cutoff -> infinity: trace -> -1 / (pi^2 r^4)
    r = 0.5
    ex, ey = _wightman_events(0.0, r)
    val = vacuum_wightman_trace(ex, ey, cutoff=1e7)
    assert val.imag == pytest.approx(0.0, abs=1e-4 / (np.pi**2 * r**4))
    assert val.real == pytest.approx(-1.0 / (np.pi**2 * r**4), rel=1e-5)


def test_wightman_swap_conjugates():
    ex, ey = _wightman_events(0.7, 1.1)
    assert vacuum_wightman_trace(ex, ey, cutoff=30.0) == pytest.approx(
        np.conj(vacuum_wightman_trace(ey, ex, cutoff=30.0)), rel=1e-13
    )
