import numpy as np
import pytest

from advwave.core import DipoleParams
from advwave.fieldcoeffs import LevelScheme, _cross3, coeffs_two_level, tau_kernel

P = DipoleParams.from_rates(omega0=25.0, gamma=1.0)
X = np.array([0.4, -0.7, 1.1])


def test_radiation_coefficient_is_transverse():
    cs = coeffs_two_level(X, P)
    xhat = X / np.linalg.norm(X)
    assert abs(cs.e_rad @ xhat) < 1e-14 * np.linalg.norm(cs.e_rad)
    assert abs(cs.b_rad @ xhat) < 1e-14 * np.linalg.norm(cs.b_rad)
    # near and intermediate zones share the 3n(n.d)-d structure
    longit = 3.0 * xhat * (xhat @ P.dvec) - P.dvec
    assert np.allclose(np.cross(cs.e_near, longit), 0.0, atol=1e-18)
    assert np.allclose(np.cross(cs.e_mid, longit), 0.0, atol=1e-18)


def test_cross_product_matches_numpy_exactly():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a, b = rng.normal(size=(2, 3)) * 10.0 ** rng.integers(-8, 9, size=(2, 1))
        assert np.array_equal(_cross3(a, b), np.cross(a, b))
    cs = coeffs_two_level(X, P)
    assert np.array_equal(cs.b_rad, P.omega0**2 / (4.0 * np.pi * np.linalg.norm(X))
                          * np.cross(X / np.linalg.norm(X), P.dvec))


def test_zone_scaling_with_distance():
    c1 = coeffs_two_level(X, P)
    c2 = coeffs_two_level(2.0 * X, P)
    assert np.allclose(c2.e_rad, c1.e_rad / 2.0, rtol=1e-13)
    assert np.allclose(c2.e_mid, c1.e_mid / 4.0, rtol=1e-13)
    assert np.allclose(c2.e_near, c1.e_near / 8.0, rtol=1e-13)
    assert np.allclose(c2.b_mid, c1.b_mid / 4.0, rtol=1e-13)


def test_zone_phases():
    cs = coeffs_two_level(X, P)
    assert np.allclose(cs.e_rad.imag, 0.0)
    assert np.allclose(cs.e_mid.real, 0.0)   # intermediate zone is in quadrature
    assert np.allclose(cs.e_near.imag, 0.0)
    assert np.allclose(cs.b_mid.real, 0.0)


def test_full_coefficients_sum_zones():
    cs = coeffs_two_level(X, P)
    assert np.allclose(cs.e_coeff, cs.e_rad + cs.e_mid + cs.e_near)
    assert np.allclose(cs.b_coeff, cs.b_rad + cs.b_mid)


def test_singular_at_origin():
    with pytest.raises(ValueError, match="singular"):
        coeffs_two_level(np.zeros(3), P)


def test_coefficients_frozen():
    cs = coeffs_two_level(X, P)
    with pytest.raises(ValueError):
        cs.e_rad[0] = 1.0


def test_tau_kernel_formula():
    z = 2.0
    n = np.array([0.0, 0.6, 0.8])
    tau = tau_kernel(z, n)
    eye = np.eye(3)
    nn = np.outer(n, n)
    ref = (eye - nn) * np.sin(z) / z + (eye - 3.0 * nn) * (np.cos(z) / z**2 - np.sin(z) / z**3)
    assert np.allclose(tau, ref, atol=1e-15)
    assert np.allclose(tau, tau.T)


def test_tau_kernel_small_z():
    n = np.array([1.0, 0.0, 0.0])
    assert np.allclose(tau_kernel(0.0, n), (2.0 / 3.0) * np.eye(3))
    # series and direct branches agree at the switch point
    lo = tau_kernel(1e-3 * 0.999, n)
    hi = tau_kernel(1e-3 * 1.001, n)
    assert np.allclose(lo, hi, atol=1e-9)


def test_tau_kernel_trace_is_direction_free():
    # trace = 2 sin(z)/z regardless of direction
    z = 3.3
    for n in (np.array([1.0, 0, 0]), np.array([0.3, -0.5, 0.9])):
        assert np.trace(tau_kernel(z, n)) == pytest.approx(2.0 * np.sin(z) / z, rel=1e-12)


def test_tau_kernel_direction_normalized():
    z = 1.7
    n = np.array([0.2, 0.3, -0.1])
    assert np.allclose(tau_kernel(z, n), tau_kernel(z, 5.0 * n))


def test_level_scheme_two_level():
    s = LevelScheme.two_level(P)
    assert s.n_levels == 2
    assert s.omega(1, 0) == P.omega0
    assert s.omega(0, 1) == -P.omega0
    assert np.allclose(s.dipoles[0, 1], P.dvec)


def test_level_scheme_validation():
    good_d = np.zeros((2, 2, 3))
    good_d[0, 1] = good_d[1, 0] = [0.0, 0.0, 0.1]
    with pytest.raises(ValueError, match="ascending"):
        LevelScheme(energies=np.array([1.0, 0.5]), dipoles=good_d)
    with pytest.raises(ValueError, match="at least two"):
        LevelScheme(energies=np.array([1.0]), dipoles=np.zeros((1, 1, 3)))
    bad = good_d.copy()
    bad[0, 1] = [0.0, 0.0, 0.2]
    with pytest.raises(ValueError, match="symmetric"):
        LevelScheme(energies=np.array([0.0, 1.0]), dipoles=bad)
    diag = good_d.copy()
    diag[0, 0] = [0.1, 0.0, 0.0]
    with pytest.raises(ValueError, match="permanent"):
        LevelScheme(energies=np.array([0.0, 1.0]), dipoles=diag)
