import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from advwave.core import DipoleParams
from advwave.kinetics import _exp, _moments, _segments
from advwave.photodetect import (
    DetectorConfig,
    SuppressionReport,
    detection_rate_C,
    detection_rate_G,
    suppression_report,
)

import routes

P = DipoleParams.from_rates(omega0=50.0, gamma=1.0)
CFG = DetectorConfig(position=np.array([0.4, 0.0, 0.0]), source=P)


def _hand_groups(cfg, part):
    # the moment groups of rate_G and rate_C - rate_G as they were derived by
    # hand: (gate, ((coefficient, lam, shift(b)), ...)), each rate being
    # Re sum coefficient M0(lam, b, shift(b)) with b = t - gate
    c = routes.contraction(cfg, part)
    g, w0, x = cfg.source.gamma, cfg.source.omega0, cfg.r
    turn = 2.0 * c.conjugate() ** 2 * complex(_exp(-2j * w0, x))
    return ((x, ((4.0 * abs(c) ** 2, -g / 2.0, lambda b: g * b / 2.0),)),
            (2.0 * x, ((turn, complex(-g / 2.0, -2.0 * w0), lambda b: 0.0 * b),
                       (-2.0 * turn, complex(g / 2.0, -2.0 * w0), lambda b: g * (b + x)))))


@pytest.mark.parametrize("part", ["full", "rad"])
@pytest.mark.parametrize("x_gamma", [0.02, 1.0 / 3.0, 2.0])
@pytest.mark.parametrize("ratio", [10.0, 1e3, 1e8])
def test_moment_groups_derived_from_atomdyn_match_the_hand_forms(ratio, x_gamma, part):
    # the groups `_rates` integrates, from atomdyn's lists through the same
    # contractions: coefficients within 4 ulp of the hand values, the same
    # exponents and shifts; and the rates within 4 ulp of their column maxima.
    # Delta's groups come conjugated (a rate is a real part), G's are real.
    cfg = DetectorConfig(position=x_gamma * np.array([0.6, 0.0, 0.8]),
                         source=DipoleParams.from_rates(omega0=ratio, gamma=1.0))
    c = routes.contraction(cfg, part)
    t = cfg.r + np.linspace(0.0, 20.0, 401)
    rep = suppression_report(cfg, t, part=part)
    derived = _segments(cfg.source, cfg.r, 4.0 * abs(c) ** 2, 2.0 * c**2, ratio)
    for (gate, offset, groups), (hand_gate, hand_groups), rate in zip(
            derived, _hand_groups(cfg, part), (rep.rate_g, rep.diff), strict=True):
        assert gate == hand_gate
        b = np.maximum(t - gate, 0.0)
        for (coeff, mu, lam), (hand_coeff, hand_lam, hand_shift) in zip(groups, hand_groups, strict=True):
            assert lam.conjugate() == hand_lam and type(lam) is type(hand_lam)
            assert np.array_equal(-mu * (b + offset), hand_shift(b))
            assert abs(coeff.conjugate() - hand_coeff) <= 4.0 * np.spacing(abs(hand_coeff))
        hand = np.real(sum(k * _moments(lam, b, shift(b), 0)[0] for k, lam, shift in hand_groups))
        hand = np.where(t >= gate, hand, 0.0)
        assert np.all(np.abs(rate - hand) <= 4.0 * np.spacing(np.max(np.abs(hand))))


def test_config_validation():
    with pytest.raises(ValueError, match="cannot sit on the dipole"):
        DetectorConfig(position=np.zeros(3), source=P)
    custom = DetectorConfig(position=np.array([1.0, 0, 0]), source=P, dipole=np.array([0.0, 0.02, 0.0]))
    assert np.all(custom.dvec == np.array([0.0, 0.02, 0.0]))
    assert np.all(CFG.dvec == P.dvec)


def test_nothing_before_light_arrives():
    for t in (0.0, 0.2, 0.4):
        assert detection_rate_G(t, CFG) == 0.0
        assert detection_rate_C(t, CFG) == 0.0


def test_rates_equal_before_round_trip():
    # the advanced gate opens only at t = 2|x|
    for t in np.linspace(0.45, 0.79, 5):
        assert detection_rate_C(t, CFG) == detection_rate_G(t, CFG)
    t_after = 1.6
    assert detection_rate_C(t_after, CFG) != detection_rate_G(t_after, CFG)


def test_glauber_rate_closed_form():
    # radiation-zone integrand is non-oscillatory: rate_G = (8 c^2 / gamma)
    # * exp(-gamma tau / 2) (1 - exp(-gamma tau / 2)) with tau = t - |x|
    c2 = abs(routes.contraction(CFG, "rad")) ** 2
    for t in (0.6, 1.1, 2.7):
        tau = t - CFG.r
        ref = 8.0 * c2 / P.gamma * np.exp(-P.gamma * tau / 2.0) * (1.0 - np.exp(-P.gamma * tau / 2.0))
        assert detection_rate_G(t, CFG, part="rad") == pytest.approx(ref, rel=1e-9)


def test_rate_positive_and_decaying():
    early = detection_rate_G(0.9, CFG)
    late = detection_rate_G(9.0, CFG)
    assert early > 0.0
    assert 0.0 <= late < early


@pytest.mark.parametrize("part", ["full", "rad"])
@pytest.mark.parametrize("ratio", [10.0, 50.0, 100.0, 1000.0])
def test_closed_forms_match_quadrature(ratio, part):
    cfg = DetectorConfig(position=CFG.position, source=DipoleParams.from_rates(omega0=ratio, gamma=1.0))
    ts = np.array([0.6, 0.95, 1.7, 2.5])
    rep = suppression_report(cfg, ts, part=part)
    ref_g = np.array([routes.detection_rate_g(t, cfg, part) for t in ts])
    ref_d = np.array([routes.detection_diff(t, cfg, part) for t in ts])
    assert np.all(np.abs(rep.rate_g - ref_g) <= 1e-9 * np.abs(ref_g))
    assert np.all(np.abs(rep.diff - ref_d) <= 1e-9 * np.max(np.abs(ref_d)))
    assert ref_d[0] == 0.0 and np.all(ref_d[1:] != 0.0)


@settings(max_examples=150, deadline=None)
@given(x=st.floats(0.05, 3.0), frac=st.floats(-1.0, 1.0, exclude_max=True),
       ratio=st.sampled_from([10.0, 100.0, 1e8]), part=st.sampled_from(["full", "rad"]))
def test_rates_equal_before_round_trip_property(x, frac, ratio, part):
    # every t < 2|x|, including t < 0 and t < |x|, on the array and scalar paths
    cfg = DetectorConfig(position=np.array([0.0, x, 0.0]),
                         source=DipoleParams.from_rates(omega0=ratio, gamma=1.0))
    t = 2.0 * x * frac
    assume(t < 2.0 * x)
    rep = suppression_report(cfg, [t, 0.5 * t], part=part)
    assert np.all(rep.rate_c == rep.rate_g)
    assert detection_rate_C(t, cfg, part) == detection_rate_G(t, cfg, part)


def test_nonfinite_times_are_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        for rate in (detection_rate_G, detection_rate_C):
            with pytest.raises(ValueError, match="times t must be finite"):
                rate(bad, CFG)
        with pytest.raises(ValueError, match="times t must be finite"):
            suppression_report(CFG, [1.0, bad])


def test_part_validation():
    # 1.0 is past the 2|x| round trip, 0.2 is before light arrives (t <= |x|)
    for t in (1.0, 0.2):
        for rate in (detection_rate_G, detection_rate_C):
            with pytest.raises(ValueError, match="part"):
                rate(t, CFG, part="mid")
    with pytest.raises(ValueError, match="part"):
        suppression_report(CFG, [0.1, 0.2], part="mid")


def test_suppression_report_structure():
    ts = np.linspace(0.9, 3.0, 9)
    rep = suppression_report(CFG, ts)
    assert isinstance(rep, SuppressionReport)
    assert np.array_equal(rep.rate_c, rep.rate_g + rep.diff)
    assert rep.max_ratio > 0.0
    for i, t in enumerate(ts):
        assert rep.rate_g[i] == detection_rate_G(float(t), CFG)
        assert rep.rate_c[i] == detection_rate_C(float(t), CFG)


def test_suppression_report_silent_grid():
    rep = suppression_report(CFG, np.linspace(0.0, 0.3, 4))
    assert rep.max_ratio == 0.0
    with pytest.raises(ValueError):
        suppression_report(CFG, np.zeros((2, 2)))


def test_interference_is_small_correction():
    # well into the wave zone the advanced-wave term is down by ~gamma/omega0
    rep = suppression_report(CFG, np.linspace(2.0 * CFG.r, 2.0 * CFG.r + 8.0, 41))
    assert 0.0 < rep.max_ratio < 0.2
