"""Value types and parameter validation."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from advwave.core import DipoleParams, Event, FieldKind

finite_t = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_field_kind_signs():
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


def test_params_validation():
    with pytest.raises(ValueError):
        DipoleParams(omega0=-1.0, gamma=1.0, dvec=np.array([0.0, 0.0, 0.1]))
    with pytest.raises(ValueError):
        DipoleParams.from_rates(omega0=10.0, gamma=0.0)
    with pytest.raises(ValueError, match="too large"):
        DipoleParams.from_rates(omega0=1e308, gamma=1e8)   # omega0^3 overflows a float
    with pytest.raises(ValueError):
        DipoleParams(omega0=10.0, gamma=1.0, dvec=np.zeros(4))
    with pytest.raises(ValueError):
        # claims consistency but gamma does not match omega0^3 |d|^2 / 3pi
        DipoleParams(omega0=10.0, gamma=1.0, dvec=np.array([0.0, 0.0, 1.0]), consistent=True)


@pytest.mark.parametrize("build", [
    lambda: DipoleParams.from_rates(omega0=1e308, gamma=1e8),
    lambda: DipoleParams(omega0=1e200, gamma=1.0, dvec=(0.0, 0.0, 1e-300), consistent=True),
    lambda: DipoleParams(omega0=np.float64(1e200), gamma=1.0, dvec=(0.0, 0.0, 1e-300),
                         consistent=True),
], ids=["from_rates", "consistent", "consistent-float64"])
def test_omega0_cubed_overflow_is_a_value_error(build):
    with pytest.raises(ValueError, match=r"omega0 = 1e\+(200|308) is too large: omega0\^3 overflows"):
        build()


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
