"""Closed-form two-level correlators."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from advwave.atomdyn import (
    AtomCorrKind,
    commutator_expect,
    corr_minus_plus,
    corr_plus_minus,
    sigma_z_expect,
)
from advwave.core import DipoleParams

P = DipoleParams.from_rates(omega0=40.0, gamma=1.0)
times = st.floats(min_value=0.0, max_value=12.0, allow_nan=False)


def test_kind_values():
    assert {k.value for k in AtomCorrKind} == {"plus_minus", "minus_plus", "commutator"}


def test_sigma_z_endpoints():
    assert sigma_z_expect(0.0, P) == 1.0
    assert sigma_z_expect(3.0, P) == pytest.approx(2.0 * np.exp(-3.0) - 1.0, rel=1e-14)
    # long after the decay only the ground state remains
    assert sigma_z_expect(80.0, P) == pytest.approx(-1.0, abs=1e-30)


def test_plus_minus_diagonal_is_population():
    for t in (0.0, 0.4, 1.7, 6.2):
        val = corr_plus_minus(t, t, P)
        assert val.imag == 0.0
        assert val.real == pytest.approx(np.exp(-P.gamma * t), rel=1e-14)


def test_plus_minus_off_diagonal_magnitude():
    # |<s+(u) s-(v)>| = exp(-gamma (u+v)/2), phases at the bare frequency
    u, v = 0.3, 2.1
    val = corr_plus_minus(u, v, P)
    assert abs(val) == pytest.approx(np.exp(-P.gamma * (u + v) / 2.0), rel=1e-13)
    expected_phase = P.omega0 * (u - v)
    assert np.angle(val * np.exp(-1j * expected_phase)) == pytest.approx(0.0, abs=1e-10)


@given(u=times, v=times)
def test_plus_minus_hermiticity(u, v):
    assert corr_plus_minus(u, v, P) == pytest.approx(np.conj(corr_plus_minus(v, u, P)), abs=1e-14)


def test_minus_plus_vanishes_at_zero():
    for v in (0.0, 0.5, 4.0):
        assert corr_minus_plus(0.0, v, P) == 0.0


def test_minus_plus_diagonal_is_emitted_population():
    for t in (0.2, 1.0, 3.5):
        val = corr_minus_plus(t, t, P)
        assert val.imag == 0.0
        assert val.real == pytest.approx(1.0 - np.exp(-P.gamma * t), rel=1e-13)


def test_minus_plus_prefactor_growth():
    # common envelope times (exp(gamma u) - 1)
    u, v = 0.8, 2.0
    val = corr_minus_plus(u, v, P)
    envelope = np.exp(1j * P.omega0 * (v - u)) * np.exp(-P.gamma * (u + v) / 2.0)
    assert val / envelope == pytest.approx(np.expm1(P.gamma * u), rel=1e-13)


@given(t=times)
def test_commutator_diagonal_matches_population(t):
    assert commutator_expect(t, t, P) == pytest.approx(-sigma_z_expect(t, P), abs=1e-13)


def test_commutator_is_minus_plus_shifted():
    u, v = 0.6, 1.9
    envelope = np.exp(1j * P.omega0 * (v - u)) * np.exp(-P.gamma * (u + v) / 2.0)
    assert commutator_expect(u, v, P) == pytest.approx(
        corr_minus_plus(u, v, P) - envelope, rel=1e-13
    )


def test_late_times_stay_finite():
    # e^{gamma u} alone overflows past gamma u = 709; the merged envelope does not
    u, v = 750.0, 800.0
    for fn, k in ((corr_minus_plus, 1.0), (commutator_expect, 2.0)):
        val = fn(u, v, P)
        ref = np.exp(-1j * P.omega0 * (u - v)) * (
            np.exp(P.gamma * (u - v) / 2.0) - k * np.exp(-P.gamma * (u + v) / 2.0))
        assert np.isfinite(val)
        assert abs(val - ref) <= 1e-12 * abs(ref)
    assert np.isfinite(corr_minus_plus(710.0, 711.0, P))


def test_ordering_guard():
    with pytest.raises(ValueError, match="u <= v"):
        corr_minus_plus(2.0, 1.0, P)
    with pytest.raises(ValueError, match="u <= v"):
        commutator_expect(2.0, 1.0, P)
    # plus_minus has no ordering restriction
    corr_plus_minus(2.0, 1.0, P)


def test_time_validation():
    with pytest.raises(ValueError):
        sigma_z_expect(-0.1, P)
    with pytest.raises(ValueError):
        corr_plus_minus(np.inf, 1.0, P)
    with pytest.raises(ValueError):
        corr_minus_plus(-1.0, 1.0, P)


def test_vectorization_matches_scalars():
    us = np.array([0.1, 0.5, 1.0])
    vs = np.array([0.2, 1.5, 1.0])
    arr = corr_plus_minus(us, vs, P)
    assert arr.shape == (3,)
    for i in range(3):
        assert arr[i] == pytest.approx(corr_plus_minus(float(us[i]), float(vs[i]), P), abs=1e-15)
    assert np.isscalar(corr_plus_minus(0.1, 0.2, P))
