import numpy as np
import pytest

from advwave.core import DipoleParams
from advwave.photodetect import (
    DetectorConfig,
    SuppressionReport,
    detection_rate_C,
    detection_rate_G,
    suppression_report,
)

P = DipoleParams.from_rates(omega0=50.0, gamma=1.0)
CFG = DetectorConfig(position=np.array([0.4, 0.0, 0.0]), source=P)


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
    from advwave.fieldcoeffs import coeffs_two_level

    c2 = abs(complex(CFG.dvec @ coeffs_two_level(CFG.position, P).e_rad)) ** 2
    for t in (0.6, 1.1, 2.7):
        tau = t - CFG.r
        ref = 8.0 * c2 / P.gamma * np.exp(-P.gamma * tau / 2.0) * (1.0 - np.exp(-P.gamma * tau / 2.0))
        assert detection_rate_G(t, CFG, part="rad") == pytest.approx(ref, rel=1e-9)


def test_rate_positive_and_decaying():
    early = detection_rate_G(0.9, CFG)
    late = detection_rate_G(9.0, CFG)
    assert early > 0.0
    assert 0.0 <= late < early


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
    assert np.all(rep.diff == rep.rate_c - rep.rate_g)
    assert rep.max_ratio > 0.0
    for i, t in enumerate(ts):
        assert rep.rate_g[i] == detection_rate_G(float(t), CFG)


def test_suppression_report_silent_grid():
    rep = suppression_report(CFG, np.linspace(0.0, 0.3, 4))
    assert rep.max_ratio == 0.0
    with pytest.raises(ValueError):
        suppression_report(CFG, np.zeros((2, 2)))


def test_interference_is_small_correction():
    # well into the wave zone the advanced-wave term is down by ~gamma/omega0
    rep = suppression_report(CFG, np.linspace(2.0 * CFG.r, 2.0 * CFG.r + 8.0, 41))
    assert 0.0 < rep.max_ratio < 0.2
