"""Value types, light-cone helpers, parameter validation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advwave.core import (
    DipoleParams,
    Event,
    FieldKind,
    greens_support,
)

finite_t = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_field_kind_signs():
    assert FieldKind.ELECTRIC.parity_exponent == 0
    assert FieldKind.MAGNETIC.parity_exponent == 1
    assert FieldKind.ELECTRIC.advanced_sign == 1
    assert FieldKind.MAGNETIC.advanced_sign == -1


def test_from_rates_is_consistent():
    p = DipoleParams.from_rates(omega0=50.0, gamma=2.0)
    assert p.consistent
    derived = p.omega0**3 * p.d_abs2 / (3.0 * np.pi)
    assert derived == pytest.approx(p.gamma, rel=1e-13)
    # direction is normalized before scaling
    q = DipoleParams.from_rates(omega0=50.0, gamma=2.0, direction=(0.0, 0.0, 7.0))
    assert np.allclose(q.dvec, p.dvec)


def test_from_dipole_round_trip():
    d = np.array([0.001, -0.002, 0.0005])
    p = DipoleParams.from_dipole(omega0=40.0, dvec=d)
    assert p.gamma == pytest.approx(40.0**3 * float(d @ d) / (3.0 * np.pi), rel=1e-14)
    assert p.consistent


def test_params_validation():
    with pytest.raises(ValueError):
        DipoleParams(omega0=-1.0, gamma=1.0, dvec=np.array([0.0, 0.0, 0.1]))
    with pytest.raises(ValueError):
        DipoleParams.from_rates(omega0=10.0, gamma=0.0)
    with pytest.raises(ValueError):
        DipoleParams(omega0=10.0, gamma=1.0, dvec=np.zeros(4))
    with pytest.raises(ValueError):
        # claims consistency but gamma does not match omega0^3 |d|^2 / 3pi
        DipoleParams(omega0=10.0, gamma=1.0, dvec=np.array([0.0, 0.0, 1.0]), consistent=True)


def test_overdamped_parameters_warn():
    with pytest.warns(UserWarning, match="unreliable"):
        DipoleParams.from_rates(omega0=1.0, gamma=0.5)


def test_event_basic_geometry():
    ev = Event(t=2.0, x=np.array([3.0, 0.0, 4.0]))
    assert ev.r == 5.0
    assert ev.t_ret == -3.0
    assert ev.t_adv == 7.0


def test_event_arrays_are_frozen():
    ev = Event(t=0.0, x=np.ones(3))
    with pytest.raises(ValueError):
        ev.x[0] = 2.0


@given(t=finite_t, x=st.tuples(coord, coord, coord))
def test_ret_adv_bracket_t(t, x):
    ev = Event(t=t, x=np.array(x))
    assert ev.t_ret <= ev.t <= ev.t_adv
    assert ev.t_adv - ev.t_ret == pytest.approx(2.0 * ev.r, abs=1e-12)


@settings(max_examples=200)
@given(
    t1=finite_t,
    x1=st.tuples(coord, coord, coord),
    x2=st.tuples(coord, coord, coord),
)
def test_greens_support_branch_swap(t1, x1, x2):
    a = Event(t=t1, x=np.array(x1))
    sep = np.linalg.norm(np.array(x2) - np.array(x1))
    if sep < 1e-6:  # below the default cone tolerance both branches blur together
        return
    b = Event(t=t1 + sep, x=np.array(x2))  # on the forward cone of a
    assert greens_support("retarded", a, b)
    assert greens_support("advanced", b, a)
    assert not greens_support("retarded", b, a)


def test_greens_support_off_cone_and_errors():
    a = Event(t=0.0, x=np.zeros(3))
    b = Event(t=5.0, x=np.array([1.0, 0.0, 0.0]))
    assert not greens_support("retarded", a, b)
    assert greens_support("retarded", a, b, tol=10.0)  # slack wide enough to swallow it
    with pytest.raises(ValueError):
        greens_support("sideways", a, b)
    with pytest.raises(ValueError):
        greens_support("retarded", a, Event(t=1.0, x=np.zeros(3)))
