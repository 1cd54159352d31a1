"""Value types, parameter validation and the input contract of every time-taking function."""
import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advwave.atomdyn import commutator_expect, corr_minus_plus, corr_plus_minus, sigma_z_expect
from advwave.core import DipoleParams, Event, FieldKind, _two_prod, _uniform_stream
from advwave.correlations import commutator_parts, corr_traces, delta_expect_tensor, glauber_tensor
from advwave.fieldcoeffs import tau_kernel
from advwave.kinetics import (ChargeParams, cycle_averaged, dispersion_change, momdiff_source,
                              momdiff_vacsource, norm_constant, posdisp_change)
from advwave.oracle import (build_grid, markov_kernel_check, oracle_sigma_z, oracle_two_time,
                            two_time_route)
from advwave.photodetect import (DetectorConfig, detection_rate_C, detection_rate_G,
                                 suppression_report)
from advwave.radiometry import intensity_trace_2lvl, power_curves_2lvl, sphere_integrate

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
    with pytest.raises(ValueError, match=r"omega0 = 1e-109 is too small: omega0\^3 underflows"):
        DipoleParams.from_rates(1e-109, 1e-111)            # omega0^3 is 0.0 in a double
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


# |a|, |b| in [2^-480, 2^480]: the product, its rounding error and the
# splits of both factors stay normal
dekker_factors = st.one_of(st.just(0.0), st.builds(lambda m, s: s * m, st.floats(2.0**-480, 2.0**480),
                                                   st.sampled_from([1.0, -1.0])))


@settings(max_examples=400, deadline=None)
@given(a=dekker_factors, b=dekker_factors)
def test_two_prod_is_the_exact_rounding_error_of_the_product(a, b):
    assert Fraction(_two_prod(a, b)) == Fraction(a) * Fraction(b) - Fraction(a * b)
    # elementwise on arrays, with the same bits
    assert _two_prod(np.array([a, b]), np.array([b, a])).tolist() == [_two_prod(a, b), _two_prod(b, a)]


def test_uniform_stream_draws_in_order_from_the_stdlib_generator():
    import random

    rng = random.Random(5)
    u = [rng.random() for _ in range(7)]
    draw = _uniform_stream(5)
    assert draw(-2.0, 2.0, 2, 3).tolist() == [[-2.0 + 4.0 * v for v in u[i:i + 3]] for i in (0, 3)]
    assert draw(0.0, 1.0, 1).tolist() == [u[6]]


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


# --- the input contract -------------------------------------------------------
# Every public function that takes a time refuses NaN and +-inf with a
# ValueError; where a scalar time goes in, a Python scalar comes out, and an
# array of times keeps its shape.  Each entry maps a time to the function's
# result, as a tuple of values where it returns several.

P = DipoleParams.from_rates(30.0, 1.0)
X, Y = (0.4, 0.0, 0.0), (0.0, 0.3, 0.2)
CHARGE = ChargeParams(q=1.0, m=1.0, r0=X)
DETECTOR = DetectorConfig(position=X, source=P)
E, B = FieldKind.ELECTRIC, FieldKind.MAGNETIC

SCALAR_IN_SCALAR_OUT = {
    "sigma_z_expect": lambda t: sigma_z_expect(t, P),
    "corr_plus_minus": lambda t: corr_plus_minus(t, t, P),
    "corr_minus_plus": lambda t: corr_minus_plus(t, t, P),
    "commutator_expect": lambda t: commutator_expect(t, t, P),
    "momdiff_source": lambda t: momdiff_source(t, P, CHARGE),
    "momdiff_vacsource": lambda t: momdiff_vacsource(t, P, CHARGE),
    "posdisp_change": lambda t: posdisp_change(t, P, CHARGE),
    "detection_rate_G": lambda t: detection_rate_G(t, DETECTOR),
    "detection_rate_C": lambda t: detection_rate_C(t, DETECTOR),
    "power_curves_2lvl": lambda t: dataclasses.astuple(power_curves_2lvl(t, P)),
    "intensity_trace_2lvl": lambda t: intensity_trace_2lvl(t, X, P),
    "corr_traces(t)": lambda t: corr_traces(E, B, t, X, 1.1, Y, P),
    "corr_traces(tp)": lambda t: corr_traces(E, B, 1.1, X, t, Y, P),
}
ORACLE_GRID = build_grid(P, count=8, span_gammas=4.0)
OTHER_TIME_TAKERS = {
    "oracle_sigma_z": lambda t: oracle_sigma_z(t, ORACLE_GRID),
    "oracle_two_time(u)": lambda t: oracle_two_time("plus_minus", t, 2.0, ORACLE_GRID),
    "oracle_two_time(v)": lambda t: oracle_two_time("minus_plus", 0.5, t, ORACLE_GRID),
    "two_time_route(u)": lambda t: two_time_route(t, 2.0, ORACLE_GRID),
    "dispersion_change": lambda t: dispersion_change(np.array([0.0, t]), P, CHARGE),
    "cycle_averaged": lambda t: cycle_averaged(np.array([0.5, t]), P, CHARGE),
    "suppression_report": lambda t: suppression_report(DETECTOR, [0.5, t]),
    "Event": lambda t: Event(t, X),
    "glauber_tensor": lambda t: glauber_tensor(E, B, Event(t, X), Event(1.1, Y), P),
    "delta_expect_tensor": lambda t: delta_expect_tensor(E, B, Event(1.1, X), Event(t, Y), P),
    "commutator_parts": lambda t: commutator_parts(E, B, Event(t, X), Event(1.1, Y), P),
    "tau_kernel(z)": lambda z: tau_kernel(z, (0.0, 0.0, 1.0)),
    "sphere_integrate(radius)": lambda r: sphere_integrate(lambda xhat: 1.0, r, 4),
}


# Arguments that are not times keep the contract too: a width, span, window
# or momentum dispersion must be finite (a width, span and count positive),
# and omega0^3 must be a normal double.  Each entry names the argument its
# ValueError must name.
NON_TIME_ARGUMENTS = {
    "markov_kernel_check(span=nan)": ("span", lambda: markov_kernel_check(P, np.nan)),
    "markov_kernel_check(span=inf)": ("span", lambda: markov_kernel_check(P, np.inf)),
    "markov_kernel_check(span=0)": ("span", lambda: markov_kernel_check(P, 0.0)),
    "markov_kernel_check(span=-50)": ("span", lambda: markov_kernel_check(P, -50.0)),
    # the band omega0 +- span/2 would reach zero frequency
    "markov_kernel_check(span=2 omega0)": (
        "span", lambda: markov_kernel_check(P, 2.0 * P.omega0 / P.gamma)),
    # the packet's 2 sigma^2 = 0.125 / gamma^2 overflows, or underflows below a normal float
    "markov_kernel_check(gamma=1e-160)": (
        "gamma", lambda: markov_kernel_check(DipoleParams(1.0, 1e-160, (0.0, 0.0, 1.0)), 50.0)),
    # its frequency grid would take 14 PB
    "markov_kernel_check(span=1e13)": (
        r"span = 1e\+13", lambda: markov_kernel_check(DipoleParams.from_rates(1e14, 1.0), 1e13)),
    "markov_kernel_check(gamma=1e160)": (
        "gamma", lambda: markov_kernel_check(DipoleParams(1e163, 1e160, (0.0, 0.0, 1.0)), 50.0)),
    "sphere_integrate(order=1e6)": ("order", lambda: sphere_integrate(lambda xhat: 1.0, 1.0, 10**6)),
    "posdisp_change(delta_p0=nan)": ("delta_p0", lambda: posdisp_change(1.0, P, CHARGE, delta_p0=np.nan)),
    "DipoleParams.from_rates(omega0=1e-109)": ("omega0", lambda: DipoleParams.from_rates(1e-109, 1e-111)),
    # q^2, m^2, radius^2 and z^3 leave the float range: a ValueError, not an
    # OverflowError, a division by zero or "undefined for q = 0"
    "momdiff_source(q=1e200)": ("q", lambda: momdiff_source(1.0, P, ChargeParams(q=1e200, m=1.0, r0=X))),
    "dispersion_change(q=1e200)": (
        "q", lambda: dispersion_change([0.0, 1.0], P, ChargeParams(q=1e200, m=1.0, r0=X))),
    "posdisp_change(q=1e200)": ("q", lambda: posdisp_change(1.0, P, ChargeParams(q=1e200, m=1.0, r0=X))),
    "posdisp_change(m=1e200)": ("m", lambda: posdisp_change(1.0, P, ChargeParams(q=1.0, m=1e200, r0=X))),
    "posdisp_change(m=1e-200)": ("m", lambda: posdisp_change(1.0, P, ChargeParams(q=1.0, m=1e-200, r0=X))),
    "norm_constant(q=1e-200)": ("q = 1e-200", lambda: norm_constant(P, ChargeParams(q=1e-200, m=1.0, r0=X))),
    "sphere_integrate(radius=1e200)": ("radius", lambda: sphere_integrate(lambda xhat: 1.0, 1e200, 4)),
    "tau_kernel(z=1e103)": ("z", lambda: tau_kernel(1e103, (0.0, 0.0, 1.0))),
}


@pytest.mark.parametrize("name", sorted(NON_TIME_ARGUMENTS))
def test_non_time_arguments_raise(name):
    arg, call = NON_TIME_ARGUMENTS[name]
    with pytest.raises(ValueError, match=arg):
        call()


def _values(out):
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("name", sorted(SCALAR_IN_SCALAR_OUT) + sorted(OTHER_TIME_TAKERS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_times_raise(name, bad):
    fn = SCALAR_IN_SCALAR_OUT.get(name) or OTHER_TIME_TAKERS[name]
    with pytest.raises(ValueError):
        fn(bad)
    with pytest.raises(ValueError):
        fn(np.array([1.3, bad]))


# 2 omega0 t = 2^53 rad: a time's rounding moves the carrier by a radian
_CARRIER_LIMIT_T = 2.0**53 / (2.0 * P.omega0)


@pytest.mark.parametrize("name", [
    "corr_plus_minus", "corr_minus_plus", "commutator_expect", "corr_traces(t)", "corr_traces(tp)",
    "glauber_tensor", "delta_expect_tensor", "commutator_parts",
    "dispersion_change", "cycle_averaged", "posdisp_change", "momdiff_source", "momdiff_vacsource",
    "suppression_report", "detection_rate_G", "detection_rate_C",
])
def test_carrier_phases_past_2_53_rad_are_refused(name):
    # RuntimeWarnings are errors here: t = 1e170 used to overflow in kinetics._exp's phase correction
    call = SCALAR_IN_SCALAR_OUT.get(name) or OTHER_TIME_TAKERS[name]
    with pytest.raises(ValueError, match=r"t = 1e\+170 is too large: the carrier phase 2 omega0 t"):
        call(1e170)
    with pytest.raises(ValueError, match="past 2\\^53 rad"):
        call(_CARRIER_LIMIT_T)
    call(0.9999 * _CARRIER_LIMIT_T)
    # the earliest time is bounded as the latest is (the other four are
    # defined from t = 0 and refuse it); inside the limit the gates give zeros
    if name not in ("corr_plus_minus", "corr_minus_plus", "commutator_expect", "posdisp_change"):
        with pytest.raises(ValueError, match=r"t = -1e\+170 is too large: the carrier phase 2 omega0 t"):
            call(-1e170)
        gated = call(-0.9999 * _CARRIER_LIMIT_T)
        if isinstance(gated, (float, tuple, np.ndarray)):
            assert all(np.all(v == 0.0) for v in _values(gated))


@pytest.mark.parametrize("name", ["oracle_sigma_z", "oracle_two_time(u)"])
@pytest.mark.parametrize("t", [1e14, 1e170])
def test_oracle_series_past_the_term_limit_are_refused(name, t):
    # a ValueError naming the time before the series is sized: it would take 2 PiB at t = 1e14
    with pytest.raises(ValueError, match=re.escape(f"t = {t:g} needs about")):
        OTHER_TIME_TAKERS[name](t)


@pytest.mark.parametrize("name", sorted(SCALAR_IN_SCALAR_OUT) + ["oracle_sigma_z"])
def test_scalar_in_gives_a_python_scalar_out(name):
    fn = SCALAR_IN_SCALAR_OUT.get(name) or OTHER_TIME_TAKERS[name]
    for t in (1.3, np.float64(1.3), np.array(1.3)):
        assert all(type(v) in (float, complex) for v in _values(fn(t))), type(t)
    for v in _values(fn(np.array([0.2, 1.3, 2.0]))):
        assert v.shape == (3,)


@settings(max_examples=60, deadline=None)
@given(ts=st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=6),
       spot=st.integers(min_value=0), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_array_call_is_the_scalar_calls_and_refuses_any_non_finite_time(ts, spot, bad):
    # each element of an array call is its scalar call, up to the last bits in
    # which numpy's scalar and vector complex exp differ; one non-finite time
    # anywhere in the array refuses the whole call
    spoilt = list(ts)
    spoilt[spot % len(ts)] = bad
    for fn in SCALAR_IN_SCALAR_OUT.values():
        whole = _values(fn(np.array(ts)))
        for i, t in enumerate(ts):
            for column, value in zip(whole, _values(fn(t))):
                assert abs(column[i] - value) <= 1e-12 * np.max(np.abs(column))
        with pytest.raises(ValueError):
            fn(np.array(spoilt))
