import numpy as np
import pytest

from advwave.core import DipoleParams, Event, FieldKind
from advwave.correlations import c_tensor
from advwave.kinetics import (
    ChargeParams,
    dispersion_change,
    longtime_fit,
    momdiff_source,
    momdiff_vacsource,
    norm_constant,
    posdisp_change,
)

P = DipoleParams.from_rates(omega0=100.0, gamma=1.0)
CH = ChargeParams(q=1.0, m=1.0, r0=np.array([1.0 / 3.0, 0.0, 0.0]))


def test_charge_validation():
    with pytest.raises(ValueError):
        ChargeParams(q=np.inf, m=1.0, r0=np.ones(3))
    with pytest.raises(ValueError):
        ChargeParams(q=1.0, m=0.0, r0=np.ones(3))
    with pytest.raises(ValueError):
        ChargeParams(q=1.0, m=1.0, r0=np.zeros(3))


def test_norm_constant_scaling():
    n1 = norm_constant(P, CH)
    n2 = norm_constant(P, ChargeParams(q=2.0, m=1.0, r0=CH.r0))
    assert n2 == pytest.approx(n1 / 4.0, rel=1e-14)
    with pytest.raises(ValueError):
        norm_constant(P, ChargeParams(q=0.0, m=1.0, r0=CH.r0))


# regression pins; both rates are cross-checked against quadrature of the
# correlation-kernel traces in the acceptance suite
def test_rate_values_pinned():
    assert norm_constant(P, CH) == pytest.approx(186.17310775740046, rel=1e-12)
    assert momdiff_source(0.5, P, CH) == pytest.approx(-1.6326384513614558, rel=1e-12)
    assert momdiff_vacsource(0.9, P, CH) == pytest.approx(0.41732704690203004, rel=1e-12)


def test_gating_exact_zero():
    assert momdiff_source(0.3, P, CH) == 0.0
    assert momdiff_vacsource(0.6, P, CH) == 0.0
    assert momdiff_source(-1.0, P, CH) == 0.0


def test_vacsource_continuous_at_onset():
    onset = 2.0 * CH.r0_abs
    scale = abs(momdiff_vacsource(onset + 0.5, P, CH))
    assert abs(momdiff_vacsource(onset, P, CH)) <= 1e-12 * scale
    assert abs(momdiff_vacsource(onset + 1e-8, P, CH)) <= 1e-4 * scale


def test_rates_vectorized():
    ts = np.array([0.0, 0.4, 1.0, 2.5])
    arr = momdiff_source(ts, P, CH)
    assert arr.shape == (4,)
    for i, t in enumerate(ts):
        assert arr[i] == momdiff_source(float(t), P, CH)


def _grid(tmax, per_period=60):
    n = int(np.ceil(per_period * P.omega0 * tmax / (2.0 * np.pi)))
    return np.linspace(0.0, tmax, n + 1)


def test_dispersion_curve_consistency():
    t = _grid(3.0)
    curve = dispersion_change(t, P, CH)
    n = norm_constant(P, CH)
    assert np.allclose(curve.d_source, n * momdiff_source(t, P, CH), rtol=1e-12)
    assert np.allclose(curve.d_vacsource, n * momdiff_vacsource(t, P, CH), rtol=1e-12)
    assert np.all(curve.cum_total == curve.cum_source + curve.cum_vacsource)
    assert curve.cum_source[0] == 0.0
    assert curve.norm_constant == n
    assert curve.gamma == P.gamma


def test_dispersion_curves_are_charge_independent():
    t = _grid(1.0)
    a = dispersion_change(t, P, CH)
    b = dispersion_change(t, P, ChargeParams(q=3.0, m=2.0, r0=CH.r0))
    assert np.all(a.cum_total == b.cum_total)


def test_dispersion_grid_validation():
    with pytest.raises(ValueError, match="start at 0"):
        dispersion_change(np.linspace(1.0, 2.0, 50_000), P, CH)
    with pytest.raises(ValueError, match="too coarse"):
        dispersion_change(np.linspace(0.0, 10.0, 100), P, CH)
    with pytest.raises(ValueError, match="at least two"):
        dispersion_change(np.array([0.0]), P, CH)


def test_longtime_fit_slope():
    t = _grid(13.0)
    curve = dispersion_change(t, P, CH)
    slope, intercept = longtime_fit(curve, (6.0, 13.0))
    assert slope == pytest.approx(P.gamma, rel=0.02)
    with pytest.raises(ValueError, match="5/gamma"):
        longtime_fit(curve, (1.0, 13.0))
    with pytest.raises(ValueError, match="2/gamma"):
        longtime_fit(curve, (6.0, 7.0))
    with pytest.raises(ValueError, match="'total', 'source' or 'vacsource'"):
        longtime_fit(curve, (6.0, 13.0), which="glauber")


def test_posdisp_free_part():
    assert posdisp_change(0.7, P, ChargeParams(q=0.0, m=2.0, r0=CH.r0), delta_p0=1.44) == pytest.approx(
        0.7**2 / (2.0 * 4.0) * 1.44, rel=1e-14
    )
    assert posdisp_change(0.0, P, CH, delta_p0=5.0) == 0.0


def test_posdisp_validation():
    with pytest.raises(ValueError):
        posdisp_change(-0.1, P, CH)
    with pytest.raises(ValueError):
        posdisp_change(0.5, P, CH, per_period=10)


def test_posdisp_against_literal_quadrature():
    # small independent check: literal (t - t3)(t - t4)-weighted double
    # trapezoid over the full correlation trace at the charge position
    p = DipoleParams.from_rates(omega0=40.0, gamma=1.0)
    ch = ChargeParams(q=1.0, m=1.0, r0=np.array([0.02, 0.0, 0.0]))
    t = 0.1
    lib = posdisp_change(t, p, ch)
    n = 161
    ts = np.linspace(0.0, t, n)
    ee = FieldKind.ELECTRIC
    vals = np.empty((n, n), dtype=complex)
    for i, t3 in enumerate(ts):
        for j, t4 in enumerate(ts):
            vals[i, j] = c_tensor(ee, ee, Event(t=t3, x=ch.r0), Event(t=t4, x=ch.r0), p, part="rad").trace
    w = np.full(n, t / (n - 1))
    w[0] = w[-1] = 0.5 * t / (n - 1)
    wt = w * (t - ts)
    ref = 2.0 * float(np.real(wt @ vals @ wt)) * ch.q**2 / ch.m**2
    assert lib == pytest.approx(ref, rel=0.05)
