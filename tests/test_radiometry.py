import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advwave import radiometry
from advwave.core import DipoleParams
from advwave.fieldcoeffs import LevelScheme
from advwave.radiometry import (
    _sphere_nodes,
    intensity_trace_2lvl,
    pert_power_breakdown,
    power_curves_2lvl,
    sphere_integrate,
    spont_rate,
)

P = DipoleParams.from_rates(omega0=80.0, gamma=1.0)


def test_two_level_rate_consistency():
    s = LevelScheme.two_level(P)
    assert spont_rate(s, 1, 0) == pytest.approx(P.gamma, rel=1e-12)
    assert spont_rate(s, 0, 1) == pytest.approx(-P.gamma, rel=1e-12)  # signed upward rate


def test_two_level_breakdown():
    s = LevelScheme.two_level(P)
    b = pert_power_breakdown(s, emitter=1)
    assert b.total == pytest.approx(P.omega0 * P.gamma, rel=1e-12)
    assert b.glauber == pytest.approx(b.total / 2.0)
    assert b.source == pytest.approx(b.total / 2.0)
    assert b.vacsource == pytest.approx(b.total / 2.0)


def test_ground_emitter_cancels_exactly():
    # from the lowest level every channel is virtual: zero total power, but
    # the source and vacuum-source halves are separately nonzero
    s = LevelScheme.two_level(P)
    b = pert_power_breakdown(s, emitter=0)
    assert b.total == 0.0
    assert b.source > 0.0
    assert b.source + b.vacsource == 0.0


def test_spont_rate_validation():
    s = LevelScheme.two_level(P)
    with pytest.raises(ValueError):
        spont_rate(s, 1, 1)
    with pytest.raises(ValueError):
        spont_rate(s, 2, 0)
    with pytest.raises(ValueError):
        pert_power_breakdown(s, 5)


@settings(max_examples=60)
@given(
    ratio=st.floats(min_value=10.0, max_value=1000.0),
    t=st.floats(min_value=0.0, max_value=10.0),
)
def test_curve_sum_rules(ratio, t):
    p = DipoleParams.from_rates(omega0=ratio, gamma=1.0)
    b = power_curves_2lvl(t, p)
    assert b.source + b.vacsource == b.total
    assert 2.0 * b.glauber == b.total


def test_curves_start_and_gate():
    b0 = power_curves_2lvl(0.0, P)
    assert b0.total == P.omega0 * P.gamma
    assert b0.glauber == 0.5 * P.omega0 * P.gamma
    before = power_curves_2lvl(-0.5, P)
    assert before.total == before.source == before.vacsource == before.glauber == 0.0


def test_curves_vectorized():
    ts = np.array([-1.0, 0.0, 0.5, 2.0])
    b = power_curves_2lvl(ts, P)
    assert b.total.shape == (4,)
    assert b.total[0] == 0.0
    assert np.allclose(b.total[1:], P.omega0 * P.gamma * np.exp(-P.gamma * ts[1:]), rtol=1e-12)


def test_vacsource_curve_goes_negative():
    # interference term changes sign at gamma t = ln 2 and tends to -source
    late = power_curves_2lvl(8.0, P)
    assert late.vacsource < 0.0
    assert late.vacsource == pytest.approx(-late.source, rel=1e-3)


def test_intensity_trace_gates_and_falls_off():
    x = np.array([0.0, 2.0, 0.0])
    assert intensity_trace_2lvl(1.0, x, P) == 0.0           # light not yet arrived
    v1 = intensity_trace_2lvl(2.5, x, P, part="rad")
    v2 = intensity_trace_2lvl(4.5, 2.0 * x, P, part="rad")  # same retarded time, 2x distance
    assert v1 > 0.0
    assert v2 == pytest.approx(v1 / 4.0, rel=1e-12)


def test_intensity_vanishes_along_dipole_axis():
    # radiation zone: no emission along the dipole direction
    x = 3.0 * P.dvec / np.linalg.norm(P.dvec)
    assert intensity_trace_2lvl(5.0, x, P, part="rad") == 0.0


def test_intensity_part_validation():
    with pytest.raises(ValueError):
        intensity_trace_2lvl(1.0, np.array([1.0, 0, 0]), P, part="near")


def test_sphere_integrate_polynomials():
    a = np.array([0.2, -0.4, 1.0])
    val = sphere_integrate(lambda n: (n @ a) ** 2, radius=2.0, order=8)
    assert val == pytest.approx(4.0 * (4.0 * np.pi / 3.0) * (a @ a), rel=1e-13)
    assert sphere_integrate(lambda n: 1.0, radius=3.0, order=4) == pytest.approx(36.0 * np.pi, rel=1e-13)
    # odd integrands vanish by symmetry
    assert sphere_integrate(lambda n: n[2] ** 3, radius=1.0, order=12) == pytest.approx(0.0, abs=1e-14)


def test_sphere_integrate_validation():
    with pytest.raises(ValueError):
        sphere_integrate(lambda n: 1.0, radius=0.0, order=8)
    with pytest.raises(ValueError):
        sphere_integrate(lambda n: 1.0, radius=1.0, order=1)
    with pytest.raises(ValueError, match="non-finite"):
        sphere_integrate(lambda n: np.inf, radius=1.0, order=4)


def test_oversized_sphere_rule_is_refused_before_any_allocation(monkeypatch):
    # leggauss(10^6) would form a 10^6 x 10^6 companion matrix
    import numpy.polynomial.legendre as legendre

    def no_work(*args, **kwargs):
        raise AssertionError("built a rule before the budget check")

    monkeypatch.setattr(legendre, "leggauss", no_work)
    smallest = int(np.sqrt(radiometry._NODE_BUDGET / 2)) + 1       # 2 order^2 just over the budget
    for call in (lambda: _sphere_nodes(10**6), lambda: _sphere_nodes(smallest),
                 lambda: sphere_integrate(lambda n: 1.0, radius=1.0, order=10**6)):
        with pytest.raises(ValueError, match="order = .* nodes, over the budget"):
            call()
